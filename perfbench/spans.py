"""In-memory spans around the public functions of each zetacheck module.

The tracer replaces a function's name in every `zetacheck.*` namespace that
bound it (a `from .quad import integrate_semi_infinite` makes a second
binding), so calls between modules are recorded as well as calls from the
benchmark.  Nothing in the package itself changes, and `uninstall` puts the
original functions back.

Integrand closures defined in `laplace`, `traces` and `fresnel` run inside
`quad` and so count as `quad` self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys

from zetacheck.amplitudes import AmplitudeSpec

# Layer -> public functions given a span.  Order fixes the metric order.
LAYERS = {
    "quad": ("integrate_semi_infinite", "integrate_quadrant",
             "integrate_finite", "oscillatory_raw", "integrate_oscillatory"),
    "traces": ("tr_cg_n_series", "tr_cg_sigma_result",
               "hausdorff_moment_audit", "poisson_reduced",
               "poisson_term_quadrant", "trace_decomposition_check"),
    "specfun": ("zeta", "zeta_star", "gamma", "theta"),
    "rhfe": ("race_report", "rhfe_residual", "decomposition_audit",
             "newton_leibnitz_quadrature"),
    "laplace": ("rep_green_complex", "rep_inverse_z", "rep_green_fresnel",
                "lhpd_falsify"),
    "fresnel": ("positivity_audit", "derivative_identity", "fresnel_sin",
                "fresnel_cos"),
    "report": ("make_report", "reports_to_json"),
    "cli": ("main",),
}
QUAD_FUNCS = LAYERS["quad"]
# Dominant layer of each workload, reported as its share of a traced pass.
DOMINANT = ("quad.integrate_semi_infinite", "quad.oscillatory_raw",
            "traces.tr_cg_n_series")


class Tracer:
    """Records (name, parent, audit, start, end, quad result) per call."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.audit: str | None = None
        self._undo: list[tuple[object, str, object]] = []

    def set_audit(self, audit_id: str | None) -> None:
        self.audit = audit_id

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, self.clock
        is_quad = name.startswith("quad.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.audit,
                    0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if is_quad:
                span[5] = (result.evaluations, result.converged,
                           result.inner_failures)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "zetacheck" or n.startswith("zetacheck.")]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"zetacheck.{layer}")
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)
                            self._undo.append((mod, attr, orig))
        # The amplitude admissibility check is a method, bound on the class.
        orig = AmplitudeSpec.validate_pcid
        AmplitudeSpec.validate_pcid = self._wrap(
            "amplitudes.validate_pcid", orig)
        self._undo.append((AmplitudeSpec, "validate_pcid", orig))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()

    def dump(self, path: str) -> None:
        """Write the spans of the last pass as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, audit, t0, t1, q) in enumerate(self.spans):
                rec = {"id": i, "parent": parent, "name": name,
                       "audit": audit, "start": t0, "end": t1}
                if q is not None:
                    rec["evals"], rec["converged"], rec["innerFailures"] = q
                fh.write(json.dumps(rec) + "\n")


def all_span_names() -> list[str]:
    names = [f"{layer}.{f}" for layer, fs in LAYERS.items() for f in fs]
    return names + ["amplitudes.validate_pcid"]


def pass_layers(spans: list[list]) -> tuple[dict[str, int], dict[str, float]]:
    """Deterministic counts and self times of one traced pass.

    Self time is a span's duration minus the durations of its direct
    children; calls are synchronous, so children nest inside the parent.
    Quad evals count integrand evaluations once: only the outermost quad
    span of each chain contributes to `quad.evals`, while each function's
    own `.evals` is what that function reported.
    """
    child = [0.0] * len(spans)
    for name, parent, _, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    counts: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for name in all_span_names():
        counts[f"{name}.calls"] = 0
        self_s[f"{name}.self_s"] = 0.0
    for f in QUAD_FUNCS:
        counts[f"quad.{f}.evals"] = 0
    counts.update({"quad.evals": 0, "quad.results": 0, "quad.converged": 0,
                   "quad.inner_failures": 0})
    for i, (name, parent, _, t0, t1, q) in enumerate(spans):
        counts[f"{name}.calls"] += 1
        self_s[f"{name}.self_s"] += (t1 - t0) - child[i]
        if q is None:
            continue
        evals, converged, inner_failures = q
        counts[f"{name}.evals"] += evals
        counts["quad.results"] += 1
        counts["quad.converged"] += int(converged)
        counts["quad.inner_failures"] += inner_failures
        if parent < 0 or not spans[parent][0].startswith("quad."):
            counts["quad.evals"] += evals
    return counts, self_s


def layer_metrics(counts: dict[str, int], self_runs: list[dict[str, float]],
                  traced_walls: list[float], untraced_walls: list[float],
                  report_stats: dict[str, int],
                  scale: float) -> dict[str, dict]:
    """Per-layer metrics: counts of one pass, medians of timed values.

    Times are multiplied by `scale`, the speed correction of run.py.
    """
    med = {k: scale * statistics.median(r[k] for r in self_runs)
           for k in self_runs[0]}
    quad_self = [scale * sum(r[f"quad.{f}.self_s"] for f in QUAD_FUNCS)
                 for r in self_runs]
    traced_wall = scale * statistics.median(traced_walls)
    out: dict[str, dict] = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in all_span_names():
        put(f"{name}.calls", counts[f"{name}.calls"], "count")
        put(f"{name}.self_s", med[f"{name}.self_s"], "s")
        if name.startswith("quad."):
            put(f"{name}.evals", counts[f"{name}.evals"], "count")
    qs = statistics.median(quad_self)
    put("quad.evals_per_s", counts["quad.evals"] / qs if qs > 0 else 0.0,
        "1/s")
    put("quad.converged_frac",
        counts["quad.converged"] / counts["quad.results"]
        if counts["quad.results"] else 1.0, "ratio")
    put("quad.inner_failures", counts["quad.inner_failures"], "count")
    for key, value in report_stats.items():
        put(f"report.{key}", value, "bytes" if key == "bytes" else "count")
    for name in DOMINANT:
        put(f"share.{name}", med[f"{name}.self_s"] / traced_wall, "ratio")
    put("tracing_overhead_s",
        traced_wall - scale * statistics.median(untraced_walls), "s")
    return out
