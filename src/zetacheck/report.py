"""Structured audit reports.

Every audited claim produces a ClaimReport: what was compared, the two
sides, the residual, the evaluation-error budget, and a three-way status.
Reports serialize to JSON (canonical, sorted keys) and to a flat CSV
projection.  Byte-identical output across runs — wall time excepted — is a
contract, so no floats are ever formatted with locale- or platform-
dependent code paths.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

__all__ = [
    "ClaimStatus",
    "ClaimReport",
    "classify",
    "CLAIM_IDS",
    "IDENTITY_LABELS",
    "reports_to_json",
    "reports_to_csv",
]

SCHEMA_VERSION = 1

RESIDUAL_FLOOR = 1e-13
CONFIRM_FACTOR = 3.0
VIOLATE_FACTOR = 10.0


class ClaimStatus(Enum):
    CONFIRMED = "CONFIRMED"
    INCONCLUSIVE = "INCONCLUSIVE"
    VIOLATED = "VIOLATED"


def classify(abs_residual: float, error_estimate: float) -> ClaimStatus:
    """Three-way verdict from a residual and an honest error budget.

    CONFIRMED   residual within 3x the error budget (never below the
                double-precision floor),
    VIOLATED    residual more than 10x the budget,
    INCONCLUSIVE anything in between: the evaluation cannot tell.
    """
    if math.isnan(abs_residual):
        return ClaimStatus.VIOLATED
    budget = max(error_estimate, RESIDUAL_FLOOR)
    if abs_residual <= CONFIRM_FACTOR * budget:
        return ClaimStatus.CONFIRMED
    if abs_residual > VIOLATE_FACTOR * budget:
        return ClaimStatus.VIOLATED
    return ClaimStatus.INCONCLUSIVE


# Stable identifiers for the audited (unproven) claims.  The paperEq field
# carries an opaque cross-reference label for each; downstream tooling
# treats it as data.
CLAIM_IDS = {
    "gram-psd": "2.8",
    "lhpd-search": "2.9",
    "cm-scan": "2.7",
    "green-fresnel-direct": "2.3",
    "green-fresnel-factored": "2.3",
    "fresnel-positivity": "2.5",
    "poisson-vanishing": "4.43",
    "hausdorff-moments": "4.53",
    "j-decomposition": "4.41",
    "trace-total-positivity": "4.66",
    "rhfe": "4.73",
}

# Cross-reference labels for the identity checks (classically true facts
# asserted to tight tolerance rather than audited).
IDENTITY_LABELS = {
    "race": "4.28",
    "laplace-inverse": "1.2",
    "laplace-quadrant": "1.3",
    "fresnel-closed-form": "2.5",
    "fresnel-derivative": "2.6",
    "theta-jacobi": "4.29",
    "newton-leibnitz": "4.38",
    "bernstein": "4.57",
    "moment-b2": "4.62",
    "trace-decomposition": "4.54",
    "bridge": "4.70",
}


def _jsonable(v: Any) -> Any:
    """Map values into the JSON-friendly subset used by the schema."""
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, Enum):
        return v.value
    return v


@dataclass(frozen=True)
class ClaimReport:
    claim_id: str
    paper_eq: str
    inputs: dict[str, Any]
    lhs: complex | float
    rhs: complex | float
    abs_residual: float
    error_estimate: float
    status: ClaimStatus
    wall_time_ms: float = 0.0
    notes: str = ""
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def rel_residual(self) -> float:
        scale = max(abs(complex(self.lhs)), abs(complex(self.rhs)))
        if scale == 0.0:
            return self.abs_residual
        return self.abs_residual / scale

    def to_dict(self) -> dict[str, Any]:
        d = {
            "schemaVersion": SCHEMA_VERSION,
            "claimId": self.claim_id,
            "paperEq": self.paper_eq,
            "inputs": _jsonable(self.inputs),
            "lhs": _jsonable(complex(self.lhs) if isinstance(self.lhs, complex)
                             else float(self.lhs)),
            "rhs": _jsonable(complex(self.rhs) if isinstance(self.rhs, complex)
                             else float(self.rhs)),
            "absResidual": _jsonable(float(self.abs_residual)),
            "relResidual": _jsonable(float(self.rel_residual)),
            "errorEstimate": _jsonable(float(self.error_estimate)),
            "status": self.status.value,
            "wallTimeMs": float(self.wall_time_ms),
        }
        if self.notes:
            d["notes"] = self.notes
        if self.extra:
            d["extra"] = _jsonable(self.extra)
        return d


def make_report(claim_id: str, inputs: dict[str, Any],
                lhs: complex | float, rhs: complex | float,
                error_estimate: float, *, started: float,
                status: ClaimStatus | None = None,
                notes: str = "",
                extra: dict[str, Any] | None = None) -> ClaimReport:
    """Assemble the report of one evaluation; the only ClaimReport builder.

    paperEq comes from the manifest entry of `claim_id`.  `started` is the
    audit's `time.perf_counter()` at its start, and the wall time runs from
    it to this call.  Without `status` the verdict is `classify` of
    |lhs - rhs|.  A sign audit (lhs is the quantity claimed nonnegative,
    rhs 0) passes its own verdict as `status`; its residual is then the
    amount by which lhs falls below zero, max(0, -lhs).
    """
    paper_eq = CLAIM_IDS.get(claim_id) or IDENTITY_LABELS.get(claim_id)
    if paper_eq is None:
        raise ValueError(f"unknown claim id {claim_id!r}")
    if status is None:
        resid = abs(complex(lhs) - complex(rhs))
        status = classify(resid, error_estimate)
    else:
        resid = max(0.0, -lhs)
    return ClaimReport(claim_id, paper_eq, inputs, lhs, rhs, resid,
                       error_estimate, status,
                       1e3 * (time.perf_counter() - started), notes,
                       extra or {})


def reports_to_json(reports: list[ClaimReport]) -> str:
    payload = [r.to_dict() for r in reports]
    return json.dumps(payload, indent=2, sort_keys=True,
                      ensure_ascii=True) + "\n"


_CSV_FIELDS = [
    "claimId", "paperEq", "status", "lhsRe", "lhsIm", "rhsRe", "rhsIm",
    "absResidual", "relResidual", "errorEstimate", "wallTimeMs", "inputs",
]


def reports_to_csv(reports: list[ClaimReport]) -> str:
    """Flat projection: complex columns split into re/im pairs."""
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, lineterminator="\n")
    w.writeheader()
    for r in reports:
        lhs, rhs = complex(r.lhs), complex(r.rhs)
        w.writerow({
            "claimId": r.claim_id,
            "paperEq": r.paper_eq,
            "status": r.status.value,
            "lhsRe": repr(lhs.real), "lhsIm": repr(lhs.imag),
            "rhsRe": repr(rhs.real), "rhsIm": repr(rhs.imag),
            "absResidual": repr(float(r.abs_residual)),
            "relResidual": repr(float(r.rel_residual)),
            "errorEstimate": repr(float(r.error_estimate)),
            "wallTimeMs": repr(float(r.wall_time_ms)),
            "inputs": json.dumps(_jsonable(r.inputs), sort_keys=True),
        })
    return buf.getvalue()


def strip_volatile(json_text: str) -> str:
    """Drop wall-time fields so two runs can be compared byte-for-byte."""
    data = json.loads(json_text)
    for item in data:
        item.pop("wallTimeMs", None)
    return json.dumps(data, indent=2, sort_keys=True, ensure_ascii=True) + "\n"
