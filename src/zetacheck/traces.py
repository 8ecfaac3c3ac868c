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

import math
import time
from dataclasses import dataclass, replace

import mpmath as mp
import numpy as np

from .errors import DomainError, InsufficientPrecisionError, PoleError
from .quad import QuadResult, QuadSpec, integrate_quadrant, integrate_semi_infinite
from .report import ClaimReport, ClaimStatus, make_report

__all__ = [
    "TraceParams",
    "trace_t",
    "trace_decomposition_check",
    "bridge_residual",
    "hausdorff_moment_audit",
    "tr_cg_n_series",
    "tr_cg_sigma",
    "tr_cg_sigma_result",
    "tr_cg_total",
    "tr_cg_total_value",
    "claimed_tail_envelope",
    "poisson_term",
    "poisson_reduced",
    "poisson_term_quadrant",
    "poisson_gamma_limit",
    "poisson_coarse_bound",
    "poisson_vanishing_audit",
]

_EXP_CLIP = 700.0


@dataclass(frozen=True)
class TraceParams:
    """Shared knobs for trace evaluations at a fixed argument s."""

    s: complex
    j_max: int = 400
    n_max: int = 3
    l_max: int = 5
    digits: int = 60

    def __post_init__(self) -> None:
        if not (0.0 <= self.s.real <= 1.0):
            raise DomainError("re(s) must lie in [0, 1]")
        if self.s.imag == 0.0:
            raise DomainError("im(s) must be nonzero")
        if self.n_max < 0 or self.l_max < 0:
            raise DomainError("n_max and l_max must be nonnegative")
        floor = math.ceil(math.pi * self.n_max ** 2) + 20
        if self.j_max < floor:
            raise DomainError(
                f"j_max={self.j_max} below {floor}; the alternating series "
                f"must pass its peak term"
            )
        if not (15 <= self.digits <= 200):
            raise DomainError("digits must lie in [15, 200]")


def trace_t(j: int, s: complex) -> float:
    """t_j(s) = (4j+1) / |(s+2j)(2j+1-s)|^2."""
    if j < 0:
        raise DomainError("j must be nonnegative")
    p, q = s + 2 * j, (2 * j + 1) - s
    if abs(p) < 1e-12 or abs(q) < 1e-12:
        raise PoleError(f"t_{j} has a pole at s={s}")
    return (4 * j + 1) / abs(p * q) ** 2


def trace_decomposition_check(j: int, s: complex) -> ClaimReport:
    """t_j(s) against its three-factor product form (exact algebra)."""
    t0 = time.perf_counter()
    lhs = trace_t(j, s)
    first = 1.0 / abs((0.5 - s) / (4 * j + 1) + 0.5) ** 2
    rhs = first / (4 * j + 1) / abs(s + 2 * j) ** 2
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
    a2 = abs(s + 2 * j) ** 2
    b2 = abs(2 * j + 1 - s) ** 2
    lhs = v * (1.0 / a2 - 1.0 / b2)
    rhs = (4 * j + 1) * (1.0 - 2.0 * u) * v / (a2 * b2)
    return abs(lhs - rhs)


# --------------------------------------------------------------------------
# Hausdorff moment audit.
# --------------------------------------------------------------------------


def hausdorff_moment_audit(s: complex, j_max: int = 20, k_max: int = 20,
                           digits: int = 60,
                           allow_outside_region: bool = False) -> ClaimReport:
    """Total-monotonicity scan of the trace sequence.

    A sequence of moments of a positive measure on [0, 1] must have all
    alternating forward differences nonnegative.  The scan computes
    sum_i (-1)^i C(k,i) t_{j+i} in extended precision for j <= j_max,
    k <= k_max and reports the most negative entry with its witness.
    The claimed region is re(s) in (1/2, 1), im(s) < 0; other arguments
    are audited only on request and flagged.
    """
    inside = (0.5 < s.real < 1.0) and (s.imag < 0.0)
    if not inside and not allow_outside_region:
        raise DomainError(
            f"s={s} outside the claimed region; pass allow_outside_region"
        )
    if j_max < 1 or k_max < 1:
        raise DomainError("j_max and k_max must be >= 1")
    if not (15 <= digits <= 200):
        raise DomainError("digits must lie in [15, 200]")
    t0 = time.perf_counter()
    n_terms = j_max + k_max + 1
    with mp.workdps(digits):
        sm = mp.mpc(s)
        seq = []
        for j in range(n_terms):
            p = sm + 2 * j
            q = (2 * j + 1) - sm
            den = (p * p.conjugate() * q * q.conjugate()).real
            seq.append((4 * j + 1) / den)
        t_peak = max(abs(x) for x in seq)
        worst = mp.inf
        worst_at: dict = {}
        first_violation: dict = {}
        noise_at_worst = mp.mpf(0)
        for k in range(k_max + 1):
            binoms = [mp.mpf(math.comb(k, i)) for i in range(k + 1)]
            noise = max(binoms) * t_peak * mp.mpf(10) ** (-digits)
            for j in range(j_max + 1):
                q_jk = mp.fsum(
                    (-1) ** i * binoms[i] * seq[j + i] for i in range(k + 1)
                )
                if q_jk < 0 and not first_violation:
                    first_violation = {"j": j, "k": k, "value": float(q_jk)}
                if q_jk < worst:
                    worst = q_jk
                    worst_at = {"j": j, "k": k}
                    noise_at_worst = noise
        worst_f = float(worst)
        noise_f = float(noise_at_worst)
    if worst >= 0:
        status = ClaimStatus.CONFIRMED
        notes = "all alternating differences nonnegative on the window"
    elif worst_f < -100.0 * noise_f:
        status = ClaimStatus.VIOLATED
        notes = "materially negative alternating difference found"
    else:
        status = ClaimStatus.INCONCLUSIVE
        notes = "negative difference within the cancellation noise floor"
    if not inside:
        notes += "; WARN: argument outside the claimed region"
    return make_report(
        "hausdorff-moments",
        {"s": s, "jMax": j_max, "kMax": k_max, "digits": digits,
         "insideRegion": inside},
        lhs=worst_f, rhs=0.0, error_estimate=noise_f, started=t0,
        status=status, notes=notes,
        extra={"worstAt": worst_at, "firstViolation": first_violation or None,
               "differencesChecked": (j_max + 1) * (k_max + 1)},
    )


# --------------------------------------------------------------------------
# Cauchy–Gauss traces: extended-precision series route.
# --------------------------------------------------------------------------


def _series_j_max(n: int, digits: int) -> int:
    """Smallest j past the peak with (pi n^2)^j / j! below 10^-(digits+12).

    Terms beyond it sit far under the truncation cutoff of tr_cg_n_series at
    that working precision, so the series is certifiably truncated by then.
    """
    c = math.pi * n * n
    target = -(digits + 12) * math.log(10.0)
    j = math.ceil(c) + 20
    while j * math.log(c) - math.lgamma(j + 1) >= target:
        j += 1
    return j


def tr_cg_n_series(n: int, p: TraceParams) -> mp.mpf:
    """sum_j (-pi n^2)^j / j! * t_j(s), summed in extended precision.

    The terms peak near e^{pi n^2}, so the working precision must carry
    that many digits of headroom on top of the answer's.  Truncation is
    certified by a geometric majorant once the term ratio falls below one.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    headroom = 15 + math.ceil(math.pi * n * n * math.log10(math.e))
    if p.digits < headroom:
        raise InsufficientPrecisionError(
            f"digits={p.digits} < required {headroom} for n={n}"
        )
    with mp.workdps(p.digits + 10):
        sm = mp.mpc(p.s)
        c = mp.pi * n * n
        cutoff = mp.mpf(10) ** (-p.digits + 2)

        def t_of(j: int) -> mp.mpf:
            pp = sm + 2 * j
            qq = (2 * j + 1) - sm
            return (4 * j + 1) / (pp * pp.conjugate() * qq * qq.conjugate()).real

        total = mp.mpf(0)
        power = mp.mpf(1)  # c^j / j!
        running_max = mp.mpf(0)
        t_prev = t_of(0)
        j = 0
        while True:
            term = power * t_prev
            total += term if j % 2 == 0 else -term
            running_max = max(running_max, abs(term))
            if j + 1 > p.j_max:
                raise InsufficientPrecisionError(
                    f"series for n={n} not certifiably truncated by j_max="
                    f"{p.j_max}"
                )
            power = power * c / (j + 1)
            t_next = t_of(j + 1)
            ratio = c / (j + 2)
            if ratio < 1 and t_next <= t_prev:
                tail = power * t_next / (1 - ratio)
                if tail < cutoff * running_max:
                    break
            t_prev = t_next
            j += 1
        result = mp.mpf(total)
    return result


# --------------------------------------------------------------------------
# Cancellation-free sigma route.
# --------------------------------------------------------------------------


def tr_cg_sigma_result(n: int, z: complex, spec: QuadSpec = QuadSpec(),
                       signs: str = "alternating") -> QuadResult:
    """(1/v) int_0^inf e^{-ut} sin(vt) K_n(t) dt with the Gaussian kernel.

    signs="alternating" uses K_n = e^{-pi n^2 e^{-2t}}, which resums
    sum_j (-pi n^2)^j / j! / |2j+z|^2 without any cancellation;
    signs="positive" uses the e^{+...} kernel, resumming the positive-sign
    variant of the same series.
    """
    u, v = z.real, z.imag
    if v == 0.0:
        raise DomainError("im(z) must be nonzero")
    if u < 0.0:
        raise DomainError("re(z) must be nonnegative")
    if n < 1:
        raise DomainError("n must be >= 1")
    c = math.pi * n * n
    if signs == "alternating":
        sign = -1.0
    elif signs == "positive":
        sign = 1.0
        if c > 690.0:
            raise DomainError("positive-sign kernel overflows for this n")
    else:
        raise DomainError(f"unknown signs {signs!r}")

    def integrand(t):
        kern = np.exp(sign * c * np.exp(-2.0 * t))
        return np.exp(-u * t) * np.sin(v * t) / v * kern

    return integrate_semi_infinite(integrand, 0.0, spec)


def tr_cg_sigma(n: int, z: complex, spec: QuadSpec = QuadSpec(),
                signs: str = "alternating") -> float:
    return float(np.real(tr_cg_sigma_result(n, z, spec, signs).value))


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

    Returns (value, evaluation-error budget, per-n terms).  The budget
    covers evaluation error of the partial sum only, not the truncated
    tail, which is the audited quantity.
    """
    polar = 1.0 / abs(p.s * (p.s - 1.0)) ** 2
    terms = [float(tr_cg_n_series(n, p)) for n in range(1, p.n_max + 1)]
    value = polar + math.fsum(terms)
    budget = (p.n_max + 1) * 10.0 ** (-p.digits + 4) + 1e-15 * abs(value)
    return value, budget, terms


def tr_cg_total(p: TraceParams, spec: QuadSpec = QuadSpec()) -> ClaimReport:
    """Polar term plus the n-summed traces, with tail control audited.

    The value is the partial sum through n_max.  The claimed envelope for
    the remainder is evaluated at its best d <= 12 for both arguments s
    and 1-s; the next few actual terms are then computed through the
    sigma route and compared against it.  Positivity of the partial sum
    is reported, but the status stays inconclusive whenever the claimed
    tail control fails to dominate the measured terms.
    """
    t0 = time.perf_counter()
    s = p.s
    v = s.imag
    value, series_budget, terms = tr_cg_total_value(p)
    polar = 1.0 / abs(s * (s - 1.0)) ** 2

    best_d, best_env = 1, math.inf
    for d in range(1, 13):
        env = abs(v) * (claimed_tail_envelope(s, d, p.n_max + 1)
                        + claimed_tail_envelope(1.0 - s, d, p.n_max + 1))
        if env < best_env:
            best_d, best_env = d, env

    # Measure the next actual terms through the cancellation-free route.
    measured = []
    for n in range(p.n_max + 1, p.n_max + 4):
        sig_s = tr_cg_sigma_result(n, s, spec)
        sig_r = tr_cg_sigma_result(n, 1.0 - s, spec)
        # v (sigma(s) - sigma(1-s)) = -zeta_t(s) tr^n, so
        # tr^n = (sigma(1-s) - sigma(s)) / (2u - 1).
        denom = 2.0 * s.real - 1.0
        if denom != 0.0:
            tr_n = float(np.real(sig_r.value - sig_s.value)) / denom
        else:
            digits = max(p.digits, 15 + math.ceil(
                math.pi * n * n * math.log10(math.e)))
            tr_n = float(tr_cg_n_series(n, TraceParams(
                s, max(p.j_max, _series_j_max(n, digits)), n, p.l_max,
                digits)))
        measured.append(tr_n)
    envelope_honest = all(abs(m) <= best_env for m in measured)

    positive = value > 3.0 * series_budget
    if positive and envelope_honest and value > 10.0 * best_env:
        status = ClaimStatus.CONFIRMED
        notes = "partial sum positive with the claimed tail dominated"
    elif value < -3.0 * max(series_budget, best_env):
        status = ClaimStatus.VIOLATED
        notes = ("partial sum materially negative; under the claimed tail "
                 "control the total would stay negative")
        if not envelope_honest:
            notes += ("; the claimed envelope also fails to dominate the "
                      "measured next terms")
    else:
        status = ClaimStatus.INCONCLUSIVE
        notes = ("partial sum computed; claimed tail envelope does not "
                 "dominate the measured next terms"
                 if not envelope_honest else "tail not separated from zero")
    return make_report(
        "trace-total-positivity",
        {"s": s, "nMax": p.n_max, "digits": p.digits},
        lhs=value, rhs=0.0, error_estimate=series_budget, started=t0,
        status=status, notes=notes,
        extra={"polarTerm": polar, "seriesTerms": terms,
               "claimedTailEnvelope": best_env, "envelopeD": best_d,
               "measuredNextTerms": measured,
               "envelopeDominates": envelope_honest},
    )


# --------------------------------------------------------------------------
# Poissonian terms.
# --------------------------------------------------------------------------


def poisson_reduced(n: int, L: int, z: complex, v_freq: float,
                    spec: QuadSpec = QuadSpec()) -> QuadResult:
    """One-dimensional reduction of the L-indexed Poissonian term.

    e^{aL} int_0^inf e^{-c_n e^{bL - 2w}} e^{-re(z) w} sin(v w)/v dw with
    a = 2 pi re(z)/v, b = 4 pi/v, c_n = pi n^2, v = v_freq.  The frequency
    is an explicit parameter because the paired term at 1-s keeps the
    frequency of s.  Derived from the quadrant form by rotating to the
    diagonal; the sine factor is the collapsed anti-diagonal integral.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if L < 0:
        raise DomainError("L must be nonnegative")
    if v_freq == 0.0:
        raise DomainError("frequency must be nonzero")
    u = z.real
    if u <= 0.0:
        raise DomainError("re(z) must be positive")
    c = math.pi * n * n
    a = 2.0 * math.pi * u / v_freq
    b = 4.0 * math.pi / v_freq
    if a * L > 690.0:
        raise DomainError("growth prefactor e^{aL} overflows")
    scale = math.exp(a * L)
    inner_tol = max(1e-15, spec.abs_tol * min(1.0, 1.0 / scale))
    inner_spec = replace(spec, abs_tol=inner_tol)

    def integrand(w):
        inner = np.minimum(b * L - 2.0 * w, _EXP_CLIP)
        return (np.exp(-c * np.exp(inner)) * np.exp(-u * w)
                * np.sin(v_freq * w) / v_freq)

    res = integrate_semi_infinite(integrand, 0.0, inner_spec)
    return QuadResult(scale * float(np.real(res.value)),
                      scale * res.error_estimate, res.evaluations,
                      res.converged, res.diverged)


def poisson_term(n: int, L: int, z: complex,
                 spec: QuadSpec = QuadSpec()) -> float:
    """P_n^0(L, z) for im(z) > 0 (the region where b(z) > 0)."""
    if z.imag <= 0.0:
        raise DomainError("im(z) must be positive; b(z) > 0 is required")
    return poisson_reduced(n, L, z, z.imag, spec).value


def poisson_term_quadrant(n: int, L: int, z: complex,
                          spec: QuadSpec = QuadSpec(),
                          v_freq: float | None = None) -> QuadResult:
    """Direct two-dimensional evaluation of the same Poissonian term.

    Slower by orders of magnitude; exists to validate the reduced form.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if L < 0:
        raise DomainError("L must be nonnegative")
    v = z.imag if v_freq is None else v_freq
    if v == 0.0:
        raise DomainError("frequency must be nonzero")
    u = z.real
    if u <= 0.0:
        raise DomainError("re(z) must be positive")
    c = math.pi * n * n
    a = 2.0 * math.pi * u / v
    b = 4.0 * math.pi / v
    if a * L > 690.0:
        raise DomainError("growth prefactor e^{aL} overflows")
    scale = math.exp(a * L)

    def f2(l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
        inner = np.minimum(b * L - 2.0 * (l1 + l2), _EXP_CLIP)
        kern = np.exp(-c * np.exp(inner))
        osc = np.cos(v * (l1 - l2)) - 1j * np.sin(v * (l1 - l2))
        return kern * np.exp(-u * (l1 + l2)) * osc

    res = integrate_quadrant(f2, spec)
    return QuadResult(scale * float(np.real(res.value)),
                      scale * res.error_estimate, res.evaluations,
                      res.converged, res.diverged, res.inner_failures)


def poisson_gamma_limit(n: int, z: complex, v_freq: float | None = None) -> float:
    """Closed-form large-L limit of the reduced Poissonian term.

    Substituting tau = c_n e^{bL-2w} turns the reduced integral into an
    incomplete-gamma expression whose upper limit runs away with L when
    the frequency is positive; the limit is Im[c^{(iv-u)/2} Gamma((u-iv)/2)]
    / (2v).  The audited vanishing claim would require this to be zero.
    """
    v = z.imag if v_freq is None else v_freq
    if v <= 0.0:
        raise DomainError("the runaway limit exists for positive frequency")
    u = z.real
    c = math.pi * n * n
    with mp.workdps(40):
        val = mp.power(c, mp.mpc(-u, v) / 2) * mp.gamma(mp.mpc(u, -v) / 2)
        out = float(val.imag) / (2.0 * v)
    return out


def poisson_coarse_bound(n: int, L: int, z: complex, r: int = 1) -> float:
    """The r!-based majorant asserted for |P_n^0(L, z)|.

    Evaluated literally as stated: r! e^{(2 pi/v)(re(z)-2r) L} / (pi^r
    n^{2r} (re(z)-2r)^2).  For re(z) < 2r the two-dimensional integral it
    supposedly evaluates diverges, so this is a formula audit, not a bound
    the artifact certifies.
    """
    if r < 1:
        raise DomainError("r must be >= 1")
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
                            l_max: int = 5,
                            spec: QuadSpec = QuadSpec()) -> ClaimReport:
    """Audit of the claimed vanishing of the Poissonian term.

    Tracks P_n^0(L, z) for L = 0..l_max in the stated region im(z) > 0,
    where the claim asserts the limit is zero.  The runaway closed-form
    limit is computed independently; the mirrored frequency (im(z) < 0)
    trend is recorded alongside, since there the terms do decay.
    """
    if z.imag <= 0.0:
        raise DomainError("audit is stated for im(z) > 0")
    t0 = time.perf_counter()
    values = []
    errs = []
    for L in range(l_max + 1):
        res = poisson_reduced(n, L, z, z.imag, spec)
        values.append(res.value)
        errs.append(res.error_estimate)
    mirrored = [poisson_reduced(n, L, z.conjugate(), -z.imag, spec).value
                for L in range(l_max + 1)]
    limit = poisson_gamma_limit(n, z)
    bounds = [poisson_coarse_bound(n, L, z, r=1) for L in range(l_max + 1)]
    lhs = values[-1]
    err = errs[-1] + 1e-13
    return make_report(
        "poisson-vanishing", {"n": n, "z": z, "lMax": l_max},
        lhs=lhs, rhs=0.0, error_estimate=err, started=t0,
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
