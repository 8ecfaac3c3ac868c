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

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .errors import DomainError, StepSizeError
from .fresnel import fresnel_cos
from .amplitudes import AmplitudeSpec
from .quad import QuadSpec, integrate_finite, integrate_quadrant, integrate_semi_infinite
from .report import ClaimReport, ClaimStatus, make_report

__all__ = [
    "complex_form",
    "GramSample",
    "GridRect",
    "rep_inverse_z",
    "rep_green_complex",
    "rep_green_fresnel",
    "gram_psd_check",
    "lhpd_falsify",
    "green_signed_difference",
    "cm_scan",
    "bernstein_rep",
    "moment_b2",
]

MIN_OFFSET = 0.05


def complex_form(z: complex, l: tuple) -> complex:
    """<z, l> = z l1 + conj(z) l2 (either coordinate may be an ndarray)."""
    return z * l[0] + z.conjugate() * l[1]


# --------------------------------------------------------------------------
# True representations (asserted).
# --------------------------------------------------------------------------


def rep_inverse_z(z: complex, spec: QuadSpec = QuadSpec()) -> ClaimReport:
    """1/z as the transform of the unit exponential along a complex ray."""
    if z.real <= 0.0:
        raise DomainError(f"need re(z) > 0, got {z}")
    t0 = time.perf_counter()
    res = integrate_semi_infinite(lambda l: np.exp(-z * l), 0.0, spec)
    return make_report(
        "laplace-inverse", {"z": z}, lhs=complex(res.value), rhs=1.0 / z,
        error_estimate=res.error_estimate, started=t0,
        extra={"evaluations": res.evaluations, "converged": res.converged},
    )


def rep_green_complex(z: complex, spec: QuadSpec = QuadSpec()) -> ClaimReport:
    """1/|z|^2 as a quadrant integral of exp(-<z, l>)."""
    if z.real <= 0.0:
        raise DomainError(f"need re(z) > 0, got {z}")
    t0 = time.perf_counter()

    def f2(l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
        return np.exp(-complex_form(z, (l1, l2)))

    res = integrate_quadrant(f2, spec)
    return make_report(
        "laplace-quadrant", {"z": z}, lhs=complex(res.value),
        rhs=1.0 / abs(z) ** 2, error_estimate=res.error_estimate, started=t0,
        extra={"evaluations": res.evaluations, "converged": res.converged,
               "innerFailures": res.inner_failures},
    )


def rep_green_fresnel(z: complex,
                      spec: QuadSpec = QuadSpec()) -> tuple[ClaimReport, ClaimReport]:
    """The double cosine-weighted quadrant integral, two ways.

    Direct route: quadrant quadrature of e^{-x(l1+l2)} cos(y(l2-l1)),
    which equals 1/|z|^2.  Factored route: the product of two half-line
    cosine transforms obtained by treating the rotated variables as
    independent half-line variables; the rotation maps the quadrant onto a
    wedge, not a product of half-lines, so the product form undercounts by
    exactly a factor two.  Both routes are compared against 1/|z|^2 and
    reported separately.
    """
    if z.real <= 0.0:
        raise DomainError(f"need re(z) > 0, got {z}")
    x, y = z.real, abs(z.imag)
    target = 1.0 / abs(z) ** 2

    t0 = time.perf_counter()

    def f2(l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
        return np.exp(-x * (l1 + l2)) * np.cos(y * (l2 - l1))

    direct = integrate_quadrant(f2, spec)
    direct_rep = make_report(
        "green-fresnel-direct", {"z": z, "route": "direct"},
        lhs=complex(direct.value).real, rhs=target,
        error_estimate=direct.error_estimate, started=t0,
        notes="full quadrant quadrature of the cosine-weighted integrand",
        extra={"evaluations": direct.evaluations},
    )

    t0 = time.perf_counter()
    # First factor: nu = 0 degenerates to the plain integral of e^{-2xu}.
    f_half = AmplitudeSpec.exponential(2.0 * x).total_integral()
    if y == 0.0:
        f_cos, f_cos_err, ev = AmplitudeSpec.exponential(x).total_integral(), 0.0, 0
    else:
        r = fresnel_cos(AmplitudeSpec.exponential(x), y, spec)
        f_cos, f_cos_err, ev = float(np.real(r.value)), r.error_estimate, r.evaluations
    factored = f_half * f_cos
    factored_rep = make_report(
        "green-fresnel-factored", {"z": z, "route": "factored"},
        lhs=factored, rhs=target,
        error_estimate=f_half * f_cos_err + 1e-15 * abs(factored), started=t0,
        notes=("product of half-line cosine transforms; the change of "
               "variables loses half of the quadrant, giving half the "
               "true value"),
        extra={"evaluations": ev, "halfLineFactor": f_half,
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
    min_offset: float = MIN_OFFSET

    def __post_init__(self) -> None:
        if not (1 <= len(self.points) <= 64):
            raise DomainError("need between 1 and 64 points")
        for p in self.points:
            if not (p[0] >= self.min_offset and p[1] >= self.min_offset):
                raise DomainError(
                    f"point {p} closer to the boundary than {self.min_offset}"
                )
        if self.weights and len(self.weights) != len(self.points):
            raise DomainError("weights must match points in length")


def _gram_matrix(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    sx = pts[:, 0, None] + pts[None, :, 0]
    sy = pts[:, 1, None] + pts[None, :, 1]
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
    if lam_min >= -tol:
        status = ClaimStatus.CONFIRMED
    elif lam_min < -10.0 * tol:
        status = ClaimStatus.VIOLATED
    else:
        status = ClaimStatus.INCONCLUSIVE
    extra: dict = {"eigenvalues": [float(v) for v in lam], "tolerance": tol}
    if sample.weights:
        r = np.asarray(sample.weights, dtype=float)
        extra["quadraticForm"] = float(r @ m @ r)
    return make_report(
        "gram-psd",
        {"nPoints": n, "points": [list(p) for p in sample.points],
         "weights": list(sample.weights)},
        lhs=lam_min, rhs=0.0, error_estimate=tol, started=t0, status=status,
        notes="lhs is the minimum eigenvalue; nonnegative confirms",
        extra=extra,
    )


def lhpd_falsify(budget: int = 4000, n_points: int = 8,
                 seed: int = 20260815) -> ClaimReport:
    """Search for a sample making the Gram kernel indefinite.

    Random restarts seed a derivative-free simplex descent on the minimum
    eigenvalue over log-coordinates (which keeps every point inside the
    admissible quadrant).  A materially negative minimum eigenvalue at any
    witness refutes positive semidefiniteness of the kernel, hence the
    claimed measure representation; absence of one within budget proves
    nothing and is reported as such.
    """
    if budget < 0:
        raise DomainError("budget must be nonnegative")
    if not (1 <= n_points <= 16):
        raise DomainError("n_points must lie in [1, 16]")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)

    def lam_min_of(logs: np.ndarray) -> float:
        pts = MIN_OFFSET + np.exp(logs.reshape(n_points, 2))
        return float(np.linalg.eigvalsh(_gram_matrix(pts))[0])

    best_val = math.inf
    best_logs: np.ndarray | None = None
    evals = 0
    n_restarts = 8
    for _ in range(n_restarts):
        logs = rng.uniform(-2.5, 1.5, size=2 * n_points)
        val = lam_min_of(logs)
        evals += 1
        if val < best_val:
            best_val, best_logs = val, logs.copy()
        share = budget // n_restarts
        if share >= 1 and n_points >= 2:
            out = minimize(lam_min_of, logs, method="Nelder-Mead",
                           options={"maxfev": share, "xatol": 1e-8,
                                    "fatol": 1e-14})
            evals += out.nfev
            if out.fun < best_val:
                best_val, best_logs = float(out.fun), out.x.copy()
    assert best_logs is not None
    pts = MIN_OFFSET + np.exp(best_logs.reshape(n_points, 2))
    m = _gram_matrix(pts)
    tol = n_points * 1e-10 * float(np.max(np.abs(m)))
    if n_points == 1:
        status = ClaimStatus.CONFIRMED
        notes = "a single point always yields a positive 1x1 kernel"
    elif best_val < -10.0 * tol:
        status = ClaimStatus.VIOLATED
        notes = "witness sample with materially negative minimum eigenvalue"
    else:
        status = ClaimStatus.INCONCLUSIVE
        notes = "no indefinite sample found within budget"
    return make_report(
        "lhpd-search", {"budget": budget, "nPoints": n_points, "seed": seed},
        lhs=best_val, rhs=0.0, error_estimate=tol, started=t0, status=status,
        notes=notes,
        extra={"witness": [[float(a), float(b)] for a, b in pts],
               "functionEvaluations": evals},
    )


# --------------------------------------------------------------------------
# Complete monotonicity.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GridRect:
    """Axis-aligned evaluation rectangle strictly inside the open quadrant."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    nx: int = 9
    ny: int = 9

    def __post_init__(self) -> None:
        if not (0.0 < self.x_lo < self.x_hi and 0.0 < self.y_lo < self.y_hi):
            raise DomainError("rectangle must lie strictly inside the quadrant")
        if self.nx < 2 or self.ny < 2:
            raise DomainError("need at least a 2x2 grid")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.linspace(self.x_lo, self.x_hi, self.nx),
                np.linspace(self.y_lo, self.y_hi, self.ny))

    @property
    def spacing(self) -> float:
        return min((self.x_hi - self.x_lo) / (self.nx - 1),
                   (self.y_hi - self.y_lo) / (self.ny - 1))


def _green(x: float, y: float) -> float:
    return 1.0 / (x * x + y * y)


def _mixed_difference(f, x: float, y: float, ax: int, ay: int, h: float) -> float:
    """Forward difference Delta_x^ax Delta_y^ay f at (x, y), step h."""
    total = 0.0
    for i in range(ax + 1):
        for j in range(ay + 1):
            sign = -1.0 if (ax - i + ay - j) % 2 else 1.0
            total += sign * math.comb(ax, i) * math.comb(ay, j) * f(x + i * h, y + j * h)
    return total


def green_signed_difference(ax: int, ay: int, x: float, y: float,
                            h: float = 0.05) -> float:
    """(-1)^{ax+ay} Delta_x^ax Delta_y^ay of 1/(x^2+y^2), scaled by h^{-|a|}.

    Complete monotonicity would make this nonnegative at every quadrant
    point; a negative value at any single (x, y) is already a witness.
    """
    if ax < 0 or ay < 0 or ax + ay < 1:
        raise DomainError("difference order must be >= 1")
    if min(x, y) <= 0.0:
        raise DomainError("the point must lie in the open quadrant")
    if not (1e-3 <= h <= 0.25):
        raise StepSizeError(f"step {h} outside [1e-3, 0.25]")
    order = ax + ay
    sign = -1.0 if order % 2 else 1.0
    return sign * _mixed_difference(_green, x, y, ax, ay, h) / h ** order


def cm_scan(grid: GridRect, order: int = 2, h: float = 0.05) -> ClaimReport:
    """Sign scan of (-1)^{|a|} Delta^a applied to 1/(x^2+y^2).

    A function with a positive-measure two-sided Laplace representation on
    the quadrant must be completely monotone there, which forces every
    alternating mixed difference to be nonnegative.  The scan evaluates all
    multi-indices with 1 <= |a| <= order on the grid and reports the most
    negative scaled value with its witness.
    """
    if not (1 <= order <= 4):
        raise DomainError("order must lie in [1, 4]")
    if not (1e-3 <= h <= 0.25 * grid.spacing):
        raise StepSizeError(
            f"step {h} outside [1e-3, {0.25 * grid.spacing:.4g}] for this grid"
        )
    t0 = time.perf_counter()
    xs, ys = grid.axes()
    worst = math.inf
    witness: dict = {}
    checked = 0
    for ax in range(order + 1):
        for ay in range(order + 1 - ax):
            if ax + ay == 0:
                continue
            scale = (-1.0 if (ax + ay) % 2 else 1.0) / h ** (ax + ay)
            for x in xs:
                for y in ys:
                    val = scale * _mixed_difference(_green, float(x), float(y),
                                                    ax, ay, h)
                    checked += 1
                    if val < worst:
                        worst = val
                        witness = {"alpha": [ax, ay], "x": float(x),
                                   "y": float(y), "value": val}
    status = ClaimStatus.CONFIRMED if worst >= -1e-8 else ClaimStatus.VIOLATED
    return make_report(
        "cm-scan",
        {"grid": [grid.x_lo, grid.x_hi, grid.y_lo, grid.y_hi],
         "nx": grid.nx, "ny": grid.ny, "order": order, "h": h},
        lhs=worst, rhs=0.0, error_estimate=1e-8, started=t0, status=status,
        notes="lhs is the most negative alternating difference, scaled by h^|a|",
        extra={"witness": witness, "differencesChecked": checked},
    )


# --------------------------------------------------------------------------
# One-dimensional representation building blocks.
# --------------------------------------------------------------------------


def bernstein_rep(r: float, l: int, spec: QuadSpec = QuadSpec()) -> ClaimReport:
    """r^{-l} as the l-th moment-weighted exponential integral.

    For l >= 1 the identity is classical and asserted.  For l = 0 the
    putative integrand carries harmonic mass at the origin; the report
    documents the divergence by showing the cutoff integrals growing
    without bound instead of converging to r^0 = 1.
    """
    if l < 0:
        raise DomainError("l must be a nonnegative integer")
    if r <= 0.0:
        raise DomainError("r must be positive")
    t0 = time.perf_counter()
    if l == 0:
        cutoffs = [10.0 ** -k for k in range(1, 7)]
        vals = []
        for d in cutoffs:
            res = integrate_finite(lambda u: np.exp(-r * u) / u, d, 1.0, spec)
            tail = integrate_semi_infinite(lambda u: np.exp(-r * u) / u, 1.0, spec)
            vals.append(float(np.real(res.value + tail.value)))
        growth = vals[-1] - vals[-2]
        return make_report(
            "bernstein", {"r": r, "l": 0, "cutoffs": cutoffs},
            lhs=math.inf, rhs=1.0, error_estimate=0.0, started=t0,
            notes=("cutoff integrals grow like log(1/cutoff); the "
                   "representation does not extend to l = 0"),
            extra={"cutoffIntegrals": vals, "lastGrowth": growth},
        )
    fact = math.factorial(l - 1)

    def f(u):
        return np.exp(-r * u) * u ** (l - 1) / fact

    res = integrate_semi_infinite(f, 0.0, spec)
    return make_report(
        "bernstein", {"r": r, "l": l}, lhs=float(np.real(res.value)),
        rhs=r ** float(-l), error_estimate=res.error_estimate, started=t0,
        extra={"evaluations": res.evaluations},
    )


def moment_b2(j: int, spec: QuadSpec = QuadSpec()) -> float:
    """j-th moment 1/(4j+1), realized as the integral of y^{4j} on [0, 1]."""
    if j < 0:
        raise DomainError("j must be a nonnegative integer")
    res = integrate_finite(lambda y: y ** (4 * j), 0.0, 1.0, spec)
    return float(np.real(res.value))
