"""The Race identity, its imaginary part, and the final functional-equation audit.

The completed-zeta Race identity is a classical fact and is asserted here
to tight tolerance: the completed function equals the polar term
1/(s(s-1)) plus a half-line integral against the Gaussian theta sum.  The
later sections chase the imaginary part of that integral through a
sequence of decompositions, ending at the audited equation that equates
im of the completed function with the trivial-zero factor times a total
trace.  Every step that is classically true is checked as an identity;
every unproven step is evaluated on both sides and reported.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quad import QuadResult, QuadSpec, integrate_finite, integrate_semi_infinite
from .report import ClaimReport, make_report
from .specfun import theta, trivial_zeta, zeta_star
from .traces import TraceParams, poisson_reduced, tr_cg_n_series, tr_cg_total_value

__all__ = [
    "RaceResult",
    "race_check",
    "race_report",
    "im_j_direct",
    "im_j_n",
    "newton_leibnitz",
    "newton_leibnitz_quadrature",
    "decomposition_audit",
    "j_tail_bound",
    "rhfe_residual",
]


@dataclass(frozen=True)
class RaceResult:
    """Both sides of the Race identity at one argument."""

    s: complex
    zeta_star_direct: complex
    polar_term: complex
    j_integral: complex
    residual: float
    error_budget: float


def _j_integrand(s: complex):
    def f(x):
        lx = np.log(x)
        return (np.exp(0.5 * (s - 2.0) * lx) + np.exp(-0.5 * (s + 1.0) * lx)) \
            * theta(x)
    return f


def race_check(s: complex, spec: QuadSpec = QuadSpec()) -> RaceResult:
    """Completed zeta versus polar term plus theta-weighted half-line integral."""
    if s == 0.0 or s == 1.0:
        raise DomainError("the polar term blows up at s=0 and s=1")
    direct = zeta_star(s)
    polar = 1.0 / (s * (s - 1.0))
    jq = integrate_semi_infinite(_j_integrand(s), 1.0, spec)
    j_val = complex(jq.value)
    residual = abs(direct - (polar + j_val))
    budget = jq.error_estimate + 1e-13 * (1.0 + abs(direct))
    return RaceResult(s, direct, polar, j_val, residual, budget)


def race_report(s: complex, spec: QuadSpec = QuadSpec()) -> ClaimReport:
    t0 = time.perf_counter()
    r = race_check(s, spec)
    return make_report(
        "race", {"s": s}, lhs=r.zeta_star_direct,
        rhs=r.polar_term + r.j_integral, error_estimate=r.error_budget,
        started=t0,
    )


def im_j_direct(s: complex, spec: QuadSpec = QuadSpec()) -> QuadResult:
    """im of the half-line integral, collapsed to a real integrand.

    2 int_1^inf (x^{u-1} - x^{-u}) sin(v log x) theta(x^2) dx with
    u = re(s), v = im(s); the square in the theta argument comes from the
    substitution that halves the original exponents.
    """
    u, v = s.real, s.imag

    def f(x):
        lx = np.log(x)
        return 2.0 * (np.exp((u - 1.0) * lx) - np.exp(-u * lx)) \
            * np.sin(v * lx) * theta(x * x)

    return integrate_semi_infinite(f, 1.0, spec)


def im_j_n(n: int, s: complex, spec: QuadSpec = QuadSpec()) -> QuadResult:
    """Single-n slice of im of the half-line integral.

    int_0^inf (e^{r u} - e^{r(1-u)}) sin(v r) e^{-pi n^2 e^{2r}} dr; the
    full im recombines as twice the sum over n >= 1.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    u, v = s.real, s.imag
    c = math.pi * n * n

    def f(r):
        damp = np.exp(-c * np.exp(np.minimum(2.0 * r, 700.0)))
        return (np.exp(r * u) - np.exp(r * (1.0 - u))) * np.sin(v * r) * damp

    return integrate_semi_infinite(f, 0.0, spec)


def newton_leibnitz(w: float, v: float, N: float) -> float:
    """Closed form of int_0^N e^{w r} sin(v r) dr."""
    if v == 0.0:
        raise DomainError("oscillation frequency must be nonzero")
    den = w * w + v * v
    return math.exp(N * w) * (w * math.sin(v * N) - v * math.cos(v * N)) / den \
        + v / den


def newton_leibnitz_quadrature(w: float, v: float, N: float,
                               spec: QuadSpec = QuadSpec()) -> QuadResult:
    if v == 0.0:
        raise DomainError("oscillation frequency must be nonzero")
    if not (N > 0.0 and math.isfinite(N)):
        raise DomainError("N must be positive and finite")
    if N * w > 690.0:
        raise DomainError("integrand overflows")
    return integrate_finite(
        lambda r: np.exp(w * r) * np.sin(v * r), 0.0, N, spec
    )


def decomposition_audit(n: int, s: complex, L: int, p: TraceParams,
                        spec: QuadSpec = QuadSpec()) -> ClaimReport:
    """Audit of the claimed finite-cutoff decomposition of im J_n.

    The claim writes im J_n as the Poissonian difference P(s) - P(1-s) at
    cutoff N = 2 pi L / |v| plus the trivial-zero factor times the
    alternating trace.  Both sides are computed as stated.  The grouping
    that actually closes numerically weights the reversed difference by
    im(s) and subtracts the trace product: im J_n = im(s) (P(1-s) - P(s))
    - zt(s) tr_n; its residual is recorded alongside, so the report shows
    both the claim as written and the exact reshuffle.
    """
    if L < 0:
        raise DomainError("L must be nonnegative")
    t0 = time.perf_counter()
    u, v = s.real, s.imag
    if v == 0.0:
        raise DomainError("im(s) must be nonzero")
    v_f = abs(v)
    lhs_q = im_j_n(n, s, spec)
    lhs = float(np.real(lhs_q.value))
    p_s = poisson_reduced(n, L, s, v_f, spec)
    p_r = poisson_reduced(n, L, 1.0 - s, v_f, spec)
    tr_n = float(tr_cg_n_series(n, TraceParams(s, p.j_max, max(p.n_max, n),
                                               p.l_max, p.digits)))
    zt = trivial_zeta(s)
    poisson_as_stated = p_s.value - p_r.value
    rhs_as_stated = poisson_as_stated + zt * tr_n
    rhs_corrected = v * (p_r.value - p_s.value) - zt * tr_n
    budget = (lhs_q.error_estimate
              + max(1.0, abs(v)) * (p_s.error_estimate + p_r.error_estimate)
              + 10.0 ** (-p.digits + 4))
    return make_report(
        "j-decomposition", {"n": n, "s": s, "L": L, "digits": p.digits},
        lhs=lhs, rhs=rhs_as_stated, error_estimate=budget, started=t0,
        notes=("rhs groups the Poissonian terms and the trace product as "
               "stated; the grouping that closes to quadrature accuracy "
               "weights the reversed Poissonian difference by im(s) and "
               "subtracts the trace product (see extra.correctedResidual)"),
        extra={"imJn": lhs, "poissonAsStated": poisson_as_stated,
               "poissonTermAtS": p_s.value, "poissonTermAtReflected": p_r.value,
               "traceProduct": zt * tr_n,
               "correctedResidual": abs(lhs - rhs_corrected),
               "cutoffN": 2.0 * math.pi * L / v_f},
    )


def j_tail_bound(u: float, m: int, n_start: int) -> float:
    """Rigorous majorant for the summed |im J_n| from n_start on.

    Uses G(y) = e^{-pi y^2} <= K / y^m with K the supremum of y^m G(y)
    over the actual argument range [n_start, inf), integrates the power
    envelope, and closes the n-sum with an integral-test tail.
    """
    if m < 2:
        raise DomainError("m must be >= 2")
    if n_start < 1:
        raise DomainError("n_start must be >= 1")
    if not (0.0 < u < 1.0):
        raise DomainError("re(s) must lie in (0, 1)")
    y_peak = math.sqrt(m / (2.0 * math.pi))
    if n_start <= y_peak:
        big_k = (m / (2.0 * math.pi * math.e)) ** (m / 2.0)
    else:
        big_k = n_start ** m * math.exp(-math.pi * n_start * n_start)
    n_tail = n_start ** (-float(m)) + n_start ** (1.0 - m) / (m - 1.0)
    x_factor = 1.0 / (m - u) + 1.0 / (m + u - 1.0)
    return big_k * n_tail * x_factor


def rhfe_residual(s: complex, p: TraceParams | None = None,
                  spec: QuadSpec = QuadSpec(),
                  allow_outside_region: bool = False) -> ClaimReport:
    """Final audit: im of completed zeta against the trace-sum product.

    The claim asserts im zeta*(s) = im(s)(2 re(s) - 1) * (polar trace term
    plus the n-summed traces) on re(s) in [1/2, 1], im(s) < 0.  Both sides
    are evaluated independently -- the left through the certified completed
    zeta, the right through the extended-precision trace partial sum -- and
    the difference is classified against the combined evaluation budget.
    Disagreement is reported, never raised.
    """
    inside = (0.5 <= s.real <= 1.0) and (s.imag < 0.0)
    if not inside and not allow_outside_region:
        raise DomainError(
            f"s={s} outside the claimed region; pass allow_outside_region"
        )
    if p is None:
        p = TraceParams(s, j_max=400, n_max=3, digits=60)
    t0 = time.perf_counter()
    lhs = zeta_star(s).imag
    total, budget_total, terms = tr_cg_total_value(
        p if p.s == s else TraceParams(s, p.j_max, p.n_max, p.l_max, p.digits)
    )
    zt = trivial_zeta(s)
    rhs = zt * total
    budget = abs(zt) * budget_total + 1e-13 * (1.0 + abs(lhs))
    notes = ("rhs truncates the trace sum at n_max; the truncation is part "
             "of the audited claim's stated evaluation recipe")
    if not inside:
        notes += "; WARN: argument outside the claimed region"
    return make_report(
        "rhfe", {"s": s, "nMax": p.n_max, "digits": p.digits},
        lhs=lhs, rhs=rhs, error_estimate=budget, started=t0,
        notes=notes,
        extra={"trivialZeroFactor": zt, "traceTotalPartial": total,
               "traceTerms": terms},
    )
