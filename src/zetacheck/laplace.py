"""Laplace-representation checks and measure-existence audits.

The complex-bilinear representations of 1/z and 1/|z|^2 are classically
true and asserted to quadrature tolerance.  The claimed *real* positive-
measure representation is audited indirectly through its necessary
conditions: the sampled Gram kernel must be positive semidefinite and the
represented function must be completely monotone.  Both necessary
conditions can be tested to machine precision without constructing any
measure.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fresnel import fresnel_cos
from .amplitudes import AmplitudeSpec
from .quad import QuadResult, integrate_exp_decay, integrate_quadrant
from .report import ClaimReport, ClaimStatus, make_report

__all__ = [
    "complex_form",
    "GramSample",
    "rep_inverse_z",
    "rep_green_complex",
    "rep_green_fresnel",
    "gram_psd_check",
    "lhpd_falsify",
    "cm_scan",
]

MIN_OFFSET = 0.05


def complex_form(z: complex, l: tuple) -> complex:
    """<z, l> = z l1 + conj(z) l2 (either coordinate may be an ndarray)."""
    return z * l[0] + z.conjugate() * l[1]


def _check_right_half_plane(z: complex) -> None:
    """DomainError unless z is finite with re(z) > 0, where the three
    representations converge."""
    if not cmath.isfinite(z):
        raise DomainError(f"z must be finite, got {z}")
    if z.real <= 0.0:
        raise DomainError(f"need re(z) > 0, got {z}")


# --------------------------------------------------------------------------
# True representations (asserted).
# --------------------------------------------------------------------------


def rep_inverse_z(z: complex) -> ClaimReport:
    """1/z as the transform of the unit exponential along a complex ray.

    |e^(-z l)| = e^(-re(z) l) is the envelope integrate_exp_decay takes.
    The float product z l and the float nodes move each value by at most
    2 eps |z| l |e^(-z l)|, which integrates to 2 eps |z| / re(z)^2; the
    estimate charges that beside the route's own.
    """
    _check_right_half_plane(z)
    t0 = time.perf_counter()
    res = integrate_exp_decay(lambda l: np.exp(-z * l), z.real)
    # Divided twice, so that a tiny re(z) cannot underflow re(z)^2 to 0.
    rounding = 2.0 * np.finfo(float).eps * abs(z) / z.real / z.real
    return make_report(
        "laplace-inverse", {"z": z}, lhs=complex(res.value), rhs=1.0 / z,
        error_estimate=res.error_estimate + rounding, started=t0,
        converged=res.converged,
        extra={"evaluations": res.evaluations, "converged": res.converged,
               "windows": res.windows, "tailBound": res.tail_bound},
    )


def rep_green_complex(z: complex) -> ClaimReport:
    """1/|z|^2 as a quadrant integral of exp(-<z, l>)."""
    _check_right_half_plane(z)
    t0 = time.perf_counter()

    def f2(l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
        return np.exp(-complex_form(z, (l1, l2)))

    res = integrate_quadrant(f2)
    return make_report(
        "laplace-quadrant", {"z": z}, lhs=complex(res.value),
        rhs=1.0 / abs(z) ** 2, error_estimate=res.error_estimate, started=t0,
        converged=res.converged,
        extra={"evaluations": res.evaluations, "converged": res.converged,
               "innerFailures": res.inner_failures},
    )


def rep_green_fresnel(z: complex) -> tuple[ClaimReport, ClaimReport]:
    """The double cosine-weighted quadrant integral, two ways.

    Direct route: quadrant quadrature of e^{-x(l1+l2)} cos(y(l2-l1)),
    which equals 1/|z|^2.  Factored route: the product of two half-line
    cosine transforms obtained by treating the rotated variables as
    independent half-line variables; the rotation maps the quadrant onto a
    wedge, not a product of half-lines, so the product form undercounts by
    exactly a factor two.  Both routes are compared against 1/|z|^2 and
    reported separately.
    """
    _check_right_half_plane(z)
    x, y = z.real, abs(z.imag)
    target = 1.0 / abs(z) ** 2

    t0 = time.perf_counter()

    def f2(l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
        return np.exp(-x * (l1 + l2)) * np.cos(y * (l2 - l1))

    direct = integrate_quadrant(f2)
    direct_rep = make_report(
        "green-fresnel-direct", {"z": z, "route": "direct"},
        lhs=complex(direct.value).real, rhs=target,
        error_estimate=direct.error_estimate, started=t0,
        converged=direct.converged,
        notes="full quadrant quadrature of the cosine-weighted integrand",
        extra={"evaluations": direct.evaluations},
    )

    t0 = time.perf_counter()
    # First factor: nu = 0 degenerates to the plain integral of e^{-2xu}.
    f_half = AmplitudeSpec.exponential(2.0 * x).total_integral()
    amp = AmplitudeSpec.exponential(x)
    r = (QuadResult(amp.total_integral(), 0.0, 0, True) if y == 0.0
         else fresnel_cos(amp, y))
    f_cos = float(np.real(r.value))
    factored = f_half * f_cos
    factored_rep = make_report(
        "green-fresnel-factored", {"z": z, "route": "factored"},
        lhs=factored, rhs=target,
        error_estimate=f_half * r.error_estimate + 1e-15 * abs(factored),
        started=t0, converged=r.converged,
        notes=("product of half-line cosine transforms; the change of "
               "variables loses half of the quadrant, giving half the "
               "true value"),
        extra={"evaluations": r.evaluations, "halfLineFactor": f_half,
               "cosineFactor": f_cos},
    )
    return direct_rep, factored_rep


# --------------------------------------------------------------------------
# Gram positivity.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GramSample:
    """Sample points in the open positive quadrant with attached weights."""

    points: tuple[tuple[float, float], ...]
    weights: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not (1 <= len(self.points) <= 64):
            raise DomainError("need between 1 and 64 points")
        for p in self.points:
            if not (p[0] >= MIN_OFFSET and p[1] >= MIN_OFFSET):
                raise DomainError(
                    f"point {p} closer to the boundary than {MIN_OFFSET}"
                )
        if self.weights and len(self.weights) != len(self.points):
            raise DomainError("weights must match points in length")


def _gram_matrix(points) -> np.ndarray:
    """Kernel 1/||z_i + z_j||^2 of (..., n, 2) points: one matrix per sample."""
    pts = np.asarray(points, dtype=float)
    sx = pts[..., :, None, 0] + pts[..., None, :, 0]
    sy = pts[..., :, None, 1] + pts[..., None, :, 1]
    return 1.0 / (sx * sx + sy * sy)


def gram_psd_check(sample: GramSample) -> ClaimReport:
    """Minimum eigenvalue of the kernel 1/||z_i + z_j||^2 on the sample.

    Positive semidefiniteness of this kernel on every finite sample is
    necessary for the claimed positive-measure representation.  The verdict
    allows an n-scaled rounding band below zero.
    """
    t0 = time.perf_counter()
    m = _gram_matrix(sample.points)
    n = len(sample.points)
    lam = np.linalg.eigvalsh(m)
    lam_min = float(lam[0])
    tol = n * 1e-10 * float(np.max(np.abs(m)))
    extra: dict = {"eigenvalues": [float(v) for v in lam], "tolerance": tol}
    if sample.weights:
        r = np.asarray(sample.weights, dtype=float)
        extra["quadraticForm"] = float(r @ m @ r)
    return make_report(
        "gram-psd",
        {"nPoints": n, "points": [list(p) for p in sample.points],
         "weights": list(sample.weights)},
        lhs=lam_min, rhs=0.0, error_estimate=tol, started=t0,
        bounds=(lam_min + tol, lam_min + 10.0 * tol),
        notes="lhs is the minimum eigenvalue; nonnegative confirms",
        extra=extra,
    )


def _log_points(logs: np.ndarray) -> np.ndarray:
    """Sample points MIN_OFFSET + exp(logs) of (..., 2n) log-coordinates."""
    return MIN_OFFSET + np.exp(logs.reshape(*logs.shape[:-1], -1, 2))


def _lam_min(logs: np.ndarray) -> np.ndarray:
    """Smallest Gram eigenvalue of each row of (k, 2n) log-coordinates."""
    return np.linalg.eigvalsh(_gram_matrix(_log_points(logs)))[:, 0]


def lhpd_falsify(seed: int = 20260815) -> ClaimReport:
    """Look for an 8-point sample making the Gram kernel indefinite.

    Eight seeded random samples are drawn in log-coordinates, which keep
    every point inside the admissible quadrant, and their minimum kernel
    eigenvalues are taken in one batched ``eigvalsh``.  The most negative
    sample is the witness.  A materially negative minimum eigenvalue refutes
    positive semidefiniteness of the kernel, hence the claimed measure
    representation; its absence among the samples proves nothing and is
    reported as such.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    n_samples, n_points = 8, 8
    logs = rng.uniform(-2.5, 1.5, size=(n_samples, 2 * n_points))
    lams = _lam_min(logs)
    best = int(np.argmin(lams))
    best_val = float(lams[best])
    pts = _log_points(logs[best])
    m = _gram_matrix(pts)
    tol = n_points * 1e-10 * float(np.max(np.abs(m)))
    return make_report(
        "lhpd-search", {"budget": n_samples, "nPoints": n_points,
                        "seed": seed},
        lhs=best_val, rhs=0.0, error_estimate=tol, started=t0,
        bounds=(-math.inf, best_val + 10.0 * tol),
        notes={ClaimStatus.VIOLATED: "witness sample with materially "
                                     "negative minimum eigenvalue",
               ClaimStatus.INCONCLUSIVE: "no indefinite sample found "
                                         "within budget"},
        extra={"witness": [[float(a), float(b)] for a, b in pts],
               "functionEvaluations": n_samples},
    )


# --------------------------------------------------------------------------
# Complete monotonicity.
# --------------------------------------------------------------------------


# The one grid every caller scans: 5 x 5 points on [0.5, 2.5]^2, step h.
_CM_AXIS = np.linspace(0.5, 2.5, 5)
_CM_H = 0.05


def _green(x, y):
    return 1.0 / (x * x + y * y)


def cm_scan(order: int = 2) -> ClaimReport:
    """Sign scan of (-1)^{|a|} Delta^a applied to 1/(x^2+y^2).

    A function with a positive-measure two-sided Laplace representation on
    the quadrant must be completely monotone there, which forces every
    alternating mixed difference to be nonnegative.  The scan evaluates all
    multi-indices with 1 <= |a| <= order on the 5 x 5 grid over
    [0.5, 2.5]^2, with step h = 0.05, and reports the most negative scaled
    value with its witness.
    """
    if not (1 <= order <= 4):
        raise DomainError("order must lie in [1, 4]")
    t0 = time.perf_counter()
    h = _CM_H
    # x-major flat order, so argmin finds the first witness of a row scan.
    xs, ys = (g.ravel() for g in np.meshgrid(_CM_AXIS, _CM_AXIS,
                                             indexing="ij"))
    worst = math.inf
    witness: dict = {}
    checked = 0
    for ax in range(order + 1):
        for ay in range(order + 1 - ax):
            if ax + ay == 0:
                continue
            total = 0.0
            for i in range(ax + 1):
                for j in range(ay + 1):
                    sign = -1.0 if (ax - i + ay - j) % 2 else 1.0
                    total += sign * math.comb(ax, i) * math.comb(ay, j) \
                        * _green(xs + i * h, ys + j * h)
            vals = (-1.0 if (ax + ay) % 2 else 1.0) / h ** (ax + ay) * total
            checked += vals.size
            k = int(np.argmin(vals))
            if vals[k] < worst:
                worst = float(vals[k])
                witness = {"alpha": [ax, ay], "x": float(xs[k]),
                           "y": float(ys[k]), "value": worst}
    return make_report(
        "cm-scan",
        {"grid": [0.5, 2.5, 0.5, 2.5], "nx": _CM_AXIS.size,
         "ny": _CM_AXIS.size, "order": order, "h": h},
        lhs=worst, rhs=0.0, error_estimate=1e-8, started=t0,
        bounds=(worst + 1e-8, worst + 1e-8),
        notes="lhs is the most negative alternating difference, scaled by h^|a|",
        extra={"witness": witness, "differencesChecked": checked},
    )
