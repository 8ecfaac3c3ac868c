"""Trace sequences, Cauchy–Gauss trace sums, and Poissonian terms.

The trace sequence t_j(s) and its product decomposition are plain algebra.
The alternating trace sums over j hide catastrophic cancellation (terms
peak near e^{pi n^2} while the sum is O(1)), so they are evaluated in
extended precision with a certified truncation.  A second, cancellation-
free route evaluates the same object through a half-line sine-kernel
integral, giving the cross-check the audit rests on.  The Poissonian terms
are evaluated both as one-dimensional reduced integrals and as quadrant
quadratures, with an independent limit value obtained in closed form.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .amplitudes import _EXP_CLIP
from .errors import DomainError, InsufficientPrecisionError, PoleError
from .quad import (QuadResult, QuadSpec, integrate_quadrant,
                   integrate_semi_infinite, semi_infinite_rows)
from .report import ClaimReport, ClaimStatus, make_report

if TYPE_CHECKING:
    import mpmath as mp

__all__ = [
    "TraceParams",
    "trace_t",
    "trace_decomposition_check",
    "bridge_residual",
    "hausdorff_moment_audit",
    "tr_cg_n_series",
    "tr_cg_sigma_result",
    "tr_cg_total",
    "tr_cg_total_value",
    "claimed_tail_envelope",
    "poisson_reduced",
    "poisson_term_quadrant",
    "poisson_gamma_limit",
    "poisson_coarse_bound",
    "poisson_vanishing_audit",
]


@dataclass(frozen=True)
class TraceParams:
    """Shared knobs for trace evaluations at a fixed argument s."""

    s: complex
    n_max: int = 3
    digits: int = 60

    def __post_init__(self) -> None:
        if not cmath.isfinite(self.s):
            raise DomainError("s must be finite")
        if not (0.0 <= self.s.real <= 1.0):
            raise DomainError("re(s) must lie in [0, 1]")
        if self.s.imag == 0.0:
            raise DomainError("im(s) must be nonzero")
        if self.n_max < 0:
            raise DomainError("n_max must be nonnegative")
        if not (15 <= self.digits <= 200):
            raise DomainError("digits must lie in [15, 200]")


def _abs2(z: complex) -> float:
    """|z|^2, or DomainError where it leaves the double range."""
    try:
        a2 = abs(z) ** 2
    except OverflowError:
        a2 = math.inf
    if not math.isfinite(a2):
        raise DomainError(f"|{z}|^2 overflows double precision")
    return a2


def _factors(j: int, s: complex) -> tuple[complex, complex]:
    """s + 2j and 2j + 1 - s, the factors whose zeros are the poles of t_j."""
    if j < 0:
        raise DomainError("j must be nonnegative")
    if not cmath.isfinite(s):
        raise DomainError("s must be finite")
    p, q = s + 2 * j, (2 * j + 1) - s
    if abs(p) < 1e-12 or abs(q) < 1e-12:
        raise PoleError(f"t_{j} has a pole at s={s}")
    return p, q


def trace_t(j: int, s: complex) -> float:
    """t_j(s) = (4j+1) / |(s+2j)(2j+1-s)|^2."""
    p, q = _factors(j, s)
    return (4 * j + 1) / _abs2(p * q)


def trace_decomposition_check(j: int, s: complex) -> ClaimReport:
    """t_j(s) against its three-factor product form (exact algebra)."""
    t0 = time.perf_counter()
    lhs = trace_t(j, s)
    first = 1.0 / _abs2((0.5 - s) / (4 * j + 1) + 0.5)
    rhs = first / (4 * j + 1) / _abs2(s + 2 * j)
    return make_report(
        "trace-decomposition", {"j": j, "s": s}, lhs=lhs, rhs=rhs,
        error_estimate=1e-13 * max(1.0, lhs), started=t0,
    )


def bridge_residual(j: int, s: complex) -> float:
    """Residual of the partial-fraction identity linking the two routes.

    v (1/|2j+s|^2 - 1/|2j+1-s|^2) = (4j+1)(1-2u) v / (|2j+s|^2 |2j+1-s|^2)
    holds exactly; the residual measures double-precision noise only.
    """
    u, v = s.real, s.imag
    p, q = _factors(j, s)
    a2 = _abs2(p)
    b2 = _abs2(q)
    if math.isinf(a2 * b2):
        raise DomainError(f"|s+2j|^2 |2j+1-s|^2 overflows double precision "
                          f"at s={s}")
    lhs = v * (1.0 / a2 - 1.0 / b2)
    rhs = (4 * j + 1) * (1.0 - 2.0 * u) * v / (a2 * b2)
    return abs(lhs - rhs)


# --------------------------------------------------------------------------
# Hausdorff moment audit.
# --------------------------------------------------------------------------


def hausdorff_moment_audit(s: complex, digits: int = 60,
                           allow_outside_region: bool = False) -> ClaimReport:
    """Total-monotonicity scan of the trace sequence.

    A sequence of moments of a positive measure on [0, 1] must have all
    alternating forward differences nonnegative.  The scan computes
    sum_i (-1)^i C(k,i) t_{j+i} for j <= 20, k <= 20 exactly, as an
    integer difference table of the series' fixed-point traces
    (_fixed_traces), and reports the most negative entry with its witness.
    digits sets the working precision, prec = digits log2(10) + 2 k_max
    bits: each floored t_j is off by under one unit of 2^-prec, so a
    difference of order k is off by under 2^k.  The claimed region is
    re(s) in (1/2, 1), im(s) < 0; other arguments are audited only on
    request and flagged.
    """
    inside = (0.5 < s.real < 1.0) and (s.imag < 0.0)
    if not inside and not allow_outside_region:
        raise DomainError(
            f"s={s} outside the claimed region; pass allow_outside_region"
        )
    if not (15 <= digits <= 200):
        raise DomainError("digits must lie in [15, 200]")
    t0 = time.perf_counter()
    j_max = k_max = 20
    prec = math.ceil(digits * math.log2(10)) + 2 * k_max
    seq = list(itertools.islice(_fixed_traces(s, prec), j_max + k_max + 1))
    worst, worst_at, first_violation = math.inf, {}, {}
    row = seq  # row[j] = sum_i (-1)^i C(k,i) seq[j+i], exactly
    for k in range(k_max + 1):
        for j, q_jk in enumerate(row[:j_max + 1]):
            if q_jk < 0 and not first_violation:
                first_violation = {"j": j, "k": k, "value": q_jk / (1 << prec)}
            if q_jk < worst:
                worst, worst_at = q_jk, {"j": j, "k": k}
        row = [a - b for a, b in zip(row, row[1:])]
    worst_f = worst / (1 << prec)
    # The floor C(k*, k*/2) t_peak 10^-digits at the worst difference's k*.
    k = worst_at["k"]
    noise_f = math.comb(k, k // 2) * max(seq) / (10 ** digits << prec)
    warn = "" if inside else "; WARN: argument outside the claimed region"
    return make_report(
        "hausdorff-moments",
        {"s": s, "jMax": j_max, "kMax": k_max, "digits": digits,
         "insideRegion": inside},
        lhs=worst_f, rhs=0.0, error_estimate=noise_f, started=t0,
        bounds=(worst_f, worst_f + 100.0 * noise_f),
        notes={ClaimStatus.CONFIRMED: "all alternating differences "
                                      "nonnegative on the window" + warn,
               ClaimStatus.VIOLATED: "materially negative alternating "
                                     "difference found" + warn,
               ClaimStatus.INCONCLUSIVE: "negative difference within the "
                                         "cancellation noise floor" + warn},
        extra={"worstAt": worst_at, "firstViolation": first_violation or None,
               "differencesChecked": (j_max + 1) * (k_max + 1)},
    )


# --------------------------------------------------------------------------
# Cauchy–Gauss traces: extended-precision series route.
# --------------------------------------------------------------------------


def _series_digits(n: int, floor: int = 0, spare: int = 15) -> int:
    """Working digits for the series of n: its terms peak near e^{pi n^2},
    and the answer needs `spare` digits beyond that; at least `floor`."""
    return max(floor, spare + math.ceil(math.pi * n * n * math.log10(math.e)))


# Most terms the series may take; the bound exceeds it for |im s| > 3.4e5.
_SERIES_TERM_LIMIT = 100_000


def _series_j_max(n: int, s: complex, digits: int) -> int:
    """Smallest j past the peak of (pi n^2)^j / j!, with that below
    10^-(digits+12), and past the peak of t_j(s) at j ~ |v| / sqrt(12).

    For v = im s and j >= |v| / sqrt(12), a = 2j + re s and b = a + 1 - 2 re s
    are at least |v| / sqrt(3), so d/dj log t_j = 4/(a+b) - 4a/(a^2+v^2)
    - 4b/(b^2+v^2) <= 4/(a+b) - 1/a - 1/b <= 0.  As t_j <= (4j+1) t_0, the
    stop's tail at j_max - 1 is below 10^-14 (4 j_max + 1)(pi n^2 + 21)/21
    of its cutoff, under one for every admitted n, so the stop fires first.

    From c = pi n^2 up, g(j) = j log c - lgamma(j + 1) falls by at least
    log((c + 21) / c) a step past the scan's start at c + 20, far above its
    rounding, so galloping and then bisecting find the j a step-by-step
    scan finds.
    """
    c = math.pi * n * n
    log_c = math.log(c)
    target = -(digits + 12) * math.log(10.0)

    def above(j: int) -> bool:
        return j * log_c - math.lgamma(j + 1) >= target

    lo = max(math.ceil(c) + 20, math.ceil(abs(s.imag) / math.sqrt(12.0)) + 1)
    if not above(lo):
        return lo
    step = 1
    while above(lo + step):
        lo, step = lo + step, 2 * step
    # above(lo) and not above(lo + step): the first j past lo not above.
    return bisect.bisect(range(lo, lo + step + 1), False,
                         key=lambda j: not above(j)) + lo


def _fixed_traces(s: complex, prec: int) -> Iterator[int]:
    """floor(t_j(s) 2^prec) for j = 0, 1, 2, ..., in exact integers.

    re s = u and im s = v enter exactly as U/D and V/D, D a power of two,
    so each t_j = (4j+1) D^4 / (((U+2jD)^2 + V^2)(((2j+1)D - U)^2 + V^2))
    is one floor division.  A non-finite s raises DomainError when t_0 is
    drawn, and a pole of t_j raises PoleError when t_j is.
    """
    if not cmath.isfinite(s):
        raise DomainError("s must be finite")
    (a, da), (b, db) = s.real.as_integer_ratio(), s.imag.as_integer_ratio()
    d = max(da, db)
    u, v2 = a * (d // da), (b * (d // db)) ** 2
    d4 = d ** 4 << prec
    for j in itertools.count():
        p, q = u + 2 * j * d, (2 * j + 1) * d - u
        den = (p * p + v2) * (q * q + v2)
        if den == 0:
            raise PoleError(f"t_{j} has a pole at s={s}")
        yield (4 * j + 1) * d4 // den


def _series_prec(digits: int) -> int:
    """Bits of the series' fixed point: digits + 10 decimal digits plus 20
    guard bits."""
    return math.ceil((digits + 10) * math.log2(10)) + 20


def tr_cg_n_series(n: int, p: TraceParams, *,
                   table: Iterator[int] | None = None) -> mp.mpf:
    """sum_j (-pi n^2)^j / j! * t_j(s), summed in extended precision.

    The terms peak near e^{pi n^2}, so the working precision must carry
    that many digits of headroom on top of the answer's.  The sum runs in
    Python integers scaled by 2^prec, prec bits matching p.digits + 10
    decimal digits plus 20 guard bits; s enters exactly (see _fixed_traces)
    and pi from mpmath's fixed-point pi.  The t_j come from `table`, any
    iterator of floor(t_j 2^prec) from j = 0, such as tr_cg_total_value's
    tee copies of one stream; by default, from _fixed_traces.  Truncation is
    certified by a geometric majorant once the term ratio and t_j fall; the
    exact stop product is formed only where bit lengths leave it open.  A
    bound _series_j_max over _SERIES_TERM_LIMIT raises, as does a series
    not certified by that bound, rather than return an uncertain sum.
    """
    import mpmath as mp
    from mpmath.libmp import pi_fixed

    if n < 1:
        raise DomainError("n must be >= 1")
    headroom = _series_digits(n)
    if p.digits < headroom:
        raise InsufficientPrecisionError(
            f"digits={p.digits} < required {headroom} for n={n}")
    j_max = _series_j_max(n, p.s, p.digits)
    if j_max > _SERIES_TERM_LIMIT:
        raise InsufficientPrecisionError(
            f"series for n={n} needs {j_max} terms at s={p.s}")
    prec = _series_prec(p.digits)
    one = 1 << prec
    c = pi_fixed(prec) * n * n
    # The stop's tail power t_next / (1 - c/(j+2)) < 10^(2-digits)
    # running_max, multiplied out so it needs no division.
    inv_cutoff = 10 ** (p.digits - 2)
    # bitlen(x y) >= bitlen(x) + bitlen(y) - 1 for positive x and y, so
    # while the left side's four factors' bit lengths, less 3, exceed the
    # right side's two, the left is larger and the stop cannot fire.  A
    # zero factor goes to the exact test.
    cutoff_bits = inv_cutoff.bit_length() - 3
    t_of = table if table is not None else _fixed_traces(p.s, prec)
    total = 0
    power = one  # c^j / j!
    running_max = 0
    t_prev = next(t_of)
    j = 0
    while True:
        term = power * t_prev >> prec
        total += term if j % 2 == 0 else -term
        running_max = max(running_max, term)
        if j + 1 > j_max:
            raise InsufficientPrecisionError(
                f"series for n={n} not certifiably truncated by j_max="
                f"{j_max}")
        power = (power * c >> prec) // (j + 1)
        t_next = next(t_of)
        room = (j + 2) * one - c
        if room > 0 and t_next <= t_prev:
            if not (power and t_next) or (
                    power.bit_length() + t_next.bit_length()
                    + (j + 2).bit_length() + cutoff_bits
                    <= running_max.bit_length() + room.bit_length()):
                if (power * t_next * (j + 2) * inv_cutoff
                        < running_max * room):
                    break
        t_prev = t_next
        j += 1
    with mp.workdps(p.digits + 10):
        return mp.ldexp(total, -prec)


# --------------------------------------------------------------------------
# Cancellation-free sigma route.
# --------------------------------------------------------------------------


def _sigma_constants(n: int, z: complex) -> tuple[float, float, float]:
    """(c_n, re z, im z) of the sigma term of n at z, after its checks."""
    u, v = z.real, z.imag
    if v == 0.0:
        raise DomainError("im(z) must be nonzero")
    if u < 0.0:
        raise DomainError("re(z) must be nonnegative")
    if n < 1:
        raise DomainError("n must be >= 1")
    return math.pi * n * n, u, v


def _sigma_integrand(t, c, u, v):
    """e^{-ut} sin(vt) / v K_n(t) with K_n = e^{-c e^{-2t}}: c, u and v are
    floats, or (rows, 1) arrays of each row's."""
    kern = np.exp(-c * np.exp(-2.0 * t))
    return np.exp(-u * t) * np.sin(v * t) / v * kern


def _sigma_rows(terms: list[tuple[int, complex]]) -> list[QuadResult]:
    """tr_cg_sigma_result(n, z) of every (n, z) in terms, as the rows of one
    walk; every row's checks run first, in order."""
    params = np.array([_sigma_constants(n, z) for n, z in terms]).T[:, :, None]
    return semi_infinite_rows(
        lambda t, rows: _sigma_integrand(t, *params[:, rows]), 0.0,
        [QuadSpec().abs_tol] * len(terms))


def tr_cg_sigma_result(n: int, z: complex) -> QuadResult:
    """(1/v) int_0^inf e^{-ut} sin(vt) K_n(t) dt with the Gaussian kernel.

    K_n = e^{-pi n^2 e^{-2t}} resums sum_j (-pi n^2)^j / j! / |2j+z|^2
    without any cancellation.
    """
    c, u, v = _sigma_constants(n, z)
    return integrate_semi_infinite(lambda t: _sigma_integrand(t, c, u, v), 0.0)


# --------------------------------------------------------------------------
# Total trace sum with the claimed tail envelope.
# --------------------------------------------------------------------------


def _zeta_even_tail(d: int, n_start: int) -> float:
    """Upper bound for sum_{n >= n_start} n^{-2d}."""
    return n_start ** (-2.0 * d) + n_start ** (1.0 - 2.0 * d) / (2.0 * d - 1.0)


def claimed_tail_envelope(z: complex, d: int, n_start: int) -> float:
    """The d!/pi^d majorant asserted for the positive-kernel trace tail.

    Reported as the formula the source argues from; the audit separately
    measures whether it actually dominates the computed terms (it need
    not: the true terms decay only algebraically in n).
    """
    if d < 1:
        raise DomainError("d must be >= 1")
    return (math.factorial(d) / math.pi ** d * _zeta_even_tail(d, n_start)
            / abs(z - 2 * d) ** 2)


def tr_cg_total_value(p: TraceParams) -> tuple[float, float, list[float]]:
    """Partial total trace: polar term plus terms through n_max.

    Every n reads its t_j from an itertools.tee copy of one _fixed_traces
    stream, so each t_j is computed once.  Returns (value, evaluation-error
    budget, per-n terms).  The budget covers evaluation error of the
    partial sum only, not the truncated tail, which is the audited quantity.
    """
    polar = 1.0 / abs(p.s * (p.s - 1.0)) ** 2
    tables = itertools.tee(_fixed_traces(p.s, _series_prec(p.digits)),
                           p.n_max)
    terms = [float(tr_cg_n_series(n, p, table=table))
             for n, table in enumerate(tables, 1)]
    value = polar + math.fsum(terms)
    budget = (p.n_max + 1) * 10.0 ** (-p.digits + 4) + 1e-15 * abs(value)
    return value, budget, terms


def tr_cg_total(p: TraceParams) -> ClaimReport:
    """Polar term plus the n-summed traces, with tail control audited.

    The value is the partial sum through n_max.  The claimed envelope for
    the remainder is evaluated at its best d <= 12 for both arguments s
    and 1-s; the next few actual terms are then computed through the
    sigma route, its six half-line integrals as the rows of one walk (on
    re s = 1/2 through the series), and compared against it.  Positivity
    of the partial sum is reported, but the status stays inconclusive
    whenever the claimed tail control fails to dominate the measured
    terms.  p.digits is raised to 40 and 17 beyond the series peak; past
    200 it raises before any term.
    """
    t0 = time.perf_counter()
    digits = _series_digits(p.n_max, max(p.digits, 40), spare=17)
    # On re s = 1/2 the next three n are measured by the series too.
    n_last = p.n_max + 3 if p.s.real == 0.5 else p.n_max
    need = _series_digits(n_last, digits)
    if need > 200:
        raise InsufficientPrecisionError(
            f"the trace series for n={n_last} needs {need} digits at "
            f"s={p.s}; at most 200 are supported")
    p = replace(p, digits=digits)
    s = p.s
    v = s.imag
    value, series_budget, terms = tr_cg_total_value(p)
    polar = 1.0 / abs(s * (s - 1.0)) ** 2

    envs = [abs(v) * (claimed_tail_envelope(s, d, p.n_max + 1)
                      + claimed_tail_envelope(1.0 - s, d, p.n_max + 1))
            for d in range(1, 13)]
    best_env = min(envs)
    best_d = envs.index(best_env) + 1

    # Measure the next actual terms through the cancellation-free route:
    # v (sigma(s) - sigma(1-s)) = -zeta_t(s) tr^n, so
    # tr^n = (sigma(1-s) - sigma(s)) / (2u - 1).  On re s = 1/2, where that
    # divides by zero, the series measures them instead.
    next_n = range(p.n_max + 1, p.n_max + 4)
    denom = 2.0 * s.real - 1.0
    if denom != 0.0:
        sig = _sigma_rows([(n, x) for n in next_n for x in (s, 1.0 - s)])
        measured = [float(np.real(sig_r.value - sig_s.value)) / denom
                    for sig_s, sig_r in zip(sig[::2], sig[1::2])]
    else:
        measured = [float(tr_cg_n_series(
            n, replace(p, digits=_series_digits(n, p.digits)))) for n in next_n]
    envelope_honest = all(abs(m) <= best_env for m in measured)

    return make_report(
        "trace-total-positivity",
        {"s": s, "nMax": p.n_max, "digits": p.digits},
        lhs=value, rhs=0.0, error_estimate=series_budget, started=t0,
        bounds=(min(value - 3.0 * series_budget, value - 10.0 * best_env)
                if envelope_honest else -math.inf,
                value + 3.0 * max(series_budget, best_env)),
        notes={ClaimStatus.CONFIRMED: "partial sum positive with the "
                                      "claimed tail dominated",
               ClaimStatus.VIOLATED: (
                   "partial sum materially negative; under the claimed "
                   "tail control the total would stay negative" + (
                       "" if envelope_honest else "; the claimed envelope "
                       "also fails to dominate the measured next terms")),
               ClaimStatus.INCONCLUSIVE: (
                   "tail not separated from zero" if envelope_honest else
                   "partial sum computed; claimed tail envelope does not "
                   "dominate the measured next terms")},
        extra={"polarTerm": polar, "seriesTerms": terms,
               "claimedTailEnvelope": best_env, "envelopeD": best_d,
               "measuredNextTerms": measured,
               "envelopeDominates": envelope_honest},
    )


# --------------------------------------------------------------------------
# Poissonian terms.
# --------------------------------------------------------------------------


def _poisson_constants(n: int, L: int, u: float,
                       v: float) -> tuple[float, float, float]:
    """(c_n, b, e^{aL}) of the L-indexed Poissonian term at re(z) = u and
    frequency v, after the argument checks both evaluation routes share."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if L < 0:
        raise DomainError("L must be nonnegative")
    if not (math.isfinite(u) and math.isfinite(v)):
        raise DomainError("re(z) and the frequency must be finite")
    if v == 0.0:
        raise DomainError("frequency must be nonzero")
    if u <= 0.0:
        raise DomainError("re(z) must be positive")
    a = 2.0 * math.pi * u / v
    if a * L > 690.0:
        raise DomainError("growth prefactor e^{aL} overflows")
    return math.pi * n * n, 4.0 * math.pi / v, math.exp(a * L)


def _poisson_tol(scale: float) -> float:
    """Absolute tolerance of the reduced integral under the prefactor
    e^{aL} = scale, so the scaled term keeps 1e-10 where it can."""
    return max(1e-15, QuadSpec().abs_tol * min(1.0, 1.0 / scale))


def _poisson_integrand(w, c, bl, u, v):
    """e^{-c e^{bL - 2w}} e^{-uw} sin(vw) / v with bl = bL: c, bl, u and v
    are floats, or (rows, 1) arrays of each row's."""
    inner = np.minimum(bl - 2.0 * w, _EXP_CLIP)
    return np.exp(-c * np.exp(inner)) * np.exp(-u * w) * np.sin(v * w) / v


def _poisson_rows(n: int,
                  terms: list[tuple[int, float, float]]) -> list[QuadResult]:
    """poisson_reduced(n, L, z, v) of every (L, re z, v) in terms, as the rows
    of one walk, each to its own tolerance; every row's checks run first,
    in order."""
    consts = [_poisson_constants(n, L, u, v) for L, u, v in terms]
    params = np.array([(c, b * L, u, v) for (c, b, _), (L, u, v)
                       in zip(consts, terms)]).T[:, :, None]
    scales = [scale for _, _, scale in consts]
    results = semi_infinite_rows(
        lambda w, rows: _poisson_integrand(w, *params[:, rows]), 0.0,
        [_poisson_tol(scale) for scale in scales])
    return [replace(res, value=float(np.real(res.value))).scaled(scale)
            for res, scale in zip(results, scales)]


def poisson_reduced(n: int, L: int, z: complex, v_freq: float) -> QuadResult:
    """One-dimensional reduction of the L-indexed Poissonian term.

    e^{aL} int_0^inf e^{-c_n e^{bL - 2w}} e^{-re(z) w} sin(v w)/v dw with
    a = 2 pi re(z)/v, b = 4 pi/v, c_n = pi n^2, v = v_freq.  The frequency
    is an explicit parameter because the paired term at 1-s keeps the
    frequency of s.  Derived from the quadrant form by rotating to the
    diagonal; the sine factor is the collapsed anti-diagonal integral.
    """
    u = z.real
    c, b, scale = _poisson_constants(n, L, u, v_freq)
    res = integrate_semi_infinite(
        lambda w: _poisson_integrand(w, c, b * L, u, v_freq), 0.0,
        QuadSpec(abs_tol=_poisson_tol(scale)))
    return replace(res, value=float(np.real(res.value))).scaled(scale)


def poisson_term_quadrant(n: int, L: int, z: complex) -> QuadResult:
    """Direct two-dimensional evaluation of the same Poissonian term.

    The frequency is im(z).  Slower by orders of magnitude; exists to
    validate the reduced form.
    """
    u, v = z.real, z.imag
    c, b, scale = _poisson_constants(n, L, u, v)

    def f2(l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
        inner = np.minimum(b * L - 2.0 * (l1 + l2), _EXP_CLIP)
        kern = np.exp(-c * np.exp(inner))
        osc = np.cos(v * (l1 - l2)) - 1j * np.sin(v * (l1 - l2))
        return kern * np.exp(-u * (l1 + l2)) * osc

    res = integrate_quadrant(f2)
    return replace(res, value=float(np.real(res.value))).scaled(scale)


def poisson_gamma_limit(n: int, z: complex) -> float:
    """Closed-form large-L limit of the reduced Poissonian term.

    Substituting tau = c_n e^{bL-2w} turns the reduced integral into an
    incomplete-gamma expression whose upper limit runs away with L when
    the frequency v = im(z) is positive; the limit is
    Im[c^{(iv-u)/2} Gamma((u-iv)/2)] / (2v).  The audited vanishing claim
    would require this to be zero.
    """
    v = z.imag
    if v <= 0.0:
        raise DomainError("the runaway limit exists for positive frequency")
    import mpmath as mp

    u = z.real
    c = math.pi * n * n
    with mp.workdps(40):
        val = mp.power(c, mp.mpc(-u, v) / 2) * mp.gamma(mp.mpc(u, -v) / 2)
        out = float(val.imag) / (2.0 * v)
    return out


def poisson_coarse_bound(n: int, L: int, z: complex) -> float:
    """The r!-based majorant asserted for |P_n^0(L, z)|, at r = 1.

    Evaluated literally as stated: r! e^{(2 pi/v)(re(z)-2r) L} / (pi^r
    n^{2r} (re(z)-2r)^2).  For re(z) < 2r the two-dimensional integral it
    supposedly evaluates diverges, so this is a formula audit, not a bound
    the artifact certifies.
    """
    r = 1
    v = z.imag
    if v == 0.0:
        raise DomainError("im(z) must be nonzero")
    u = z.real
    expo = (2.0 * math.pi / v) * (u - 2.0 * r) * L
    if expo > 690.0:
        raise DomainError("bound overflows")
    return (math.factorial(r) * math.exp(expo)
            / (math.pi ** r * n ** (2 * r) * (u - 2.0 * r) ** 2))


def poisson_vanishing_audit(n: int = 1, z: complex = 0.75 + 2.0j,
                            l_max: int = 5) -> ClaimReport:
    """Audit of the claimed vanishing of the Poissonian term.

    Tracks P_n^0(L, z) for L = 0..l_max in the stated region im(z) > 0,
    where the claim asserts the limit is zero.  The runaway closed-form
    limit is computed independently; the mirrored frequency (im(z) < 0)
    trend is recorded alongside, since there the terms do decay.
    """
    if z.imag <= 0.0:
        raise DomainError("audit is stated for im(z) > 0")
    if l_max < 0:
        raise DomainError(f"l_max must be >= 0, got {l_max}")
    t0 = time.perf_counter()
    # The terms at im(z) and at -im(z), rows of one walk.
    rows = _poisson_rows(n, [(L, z.real, v) for v in (z.imag, -z.imag)
                             for L in range(l_max + 1)])
    results = rows[:l_max + 1]
    values = [res.value for res in results]
    errs = [res.error_estimate for res in results]
    mirrored = [res.value for res in rows[l_max + 1:]]
    limit = poisson_gamma_limit(n, z)
    bounds = [poisson_coarse_bound(n, L, z) for L in range(l_max + 1)]
    lhs = values[-1]
    err = errs[-1] + 1e-13
    return make_report(
        "poisson-vanishing", {"n": n, "z": z, "lMax": l_max},
        lhs=lhs, rhs=0.0, error_estimate=err, started=t0,
        converged=all(res.converged for res in results),
        notes=("lhs is the term at the largest L; the claim needs it to "
               "approach zero, the closed-form limit says it approaches "
               "a nonzero constant"),
        extra={"valuesByL": values, "quadErrors": errs,
               "closedFormLimit": limit,
               "limitAgreement": abs(values[-1] - limit),
               "mirroredFrequencyValues": mirrored,
               "claimedCoarseBounds": bounds,
               "boundDominates": [abs(vl) <= bd for vl, bd in
                                  zip(values, bounds)]},
    )
