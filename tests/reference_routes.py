"""Test-side evaluation routes: oracles that no audit runs.

Each is a second way to a quantity the package computes, kept here for the
comparisons in the tests, as _mpc_series of test_traces.py is.
"""

import math
import time

import mpmath as mp
import numpy as np

from mpmath.libmp import pi_fixed

from zetacheck import cli, fresnel, laplace, quad, traces
from zetacheck.amplitudes import AmplitudeSpec, Family
from zetacheck.errors import (AmplitudeError, DomainError,
                              InsufficientPrecisionError)
from zetacheck.quad import (OscKind, QuadResult, QuadSpec,
                            integrate_semi_infinite)
from zetacheck.report import (ClaimReport, ClaimStatus, classify,
                              make_report)
from zetacheck.specfun import theta
from zetacheck.traces import TraceParams, tr_cg_sigma_result


def integrate_diag_reduced(g, spec: QuadSpec = QuadSpec()) -> QuadResult:
    """Integral of w * g(w) over [0, inf).

    Equals the quadrant integral of h(l1 + l2) when g = h, by reducing along
    the anti-diagonal; the Jacobian contributes the factor w.
    """
    return integrate_semi_infinite(lambda w: w * quad._call(g, w), 0.0, spec)


def im_j_direct(s: complex) -> QuadResult:
    """im of the half-line integral of rhfe.race_check, collapsed to a real
    integrand.

    2 int_1^inf (x^{u-1} - x^{-u}) sin(v log x) theta(x^2) dx with
    u = re(s), v = im(s); the square in the theta argument comes from the
    substitution that halves the original exponents.
    """
    u, v = s.real, s.imag

    def f(x):
        lx = np.log(x)
        return 2.0 * (np.exp((u - 1.0) * lx) - np.exp(-u * lx)) \
            * np.sin(v * lx) * theta(x * x)

    return integrate_semi_infinite(f, 1.0)


def j_tail_bound(u: float, m: int, n_start: int) -> float:
    """Rigorous majorant for the summed |im J_n| (rhfe.im_j_n) from n_start on.

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


def even_derivatives(amplitude: AmplitudeSpec,
                     x: float) -> tuple[list[float], int]:
    """AmplitudeSpec.even_derivatives at one point, a term at a time:
    A^(2i)(x) for i <= quad._TAIL_TERMS as far as the family states them,
    each the one before times its closed-form ratio, and how many of them
    are positive and decreasing to 0 on [x, inf)."""
    a, n = amplitude.parameter, quad._TAIL_TERMS + 1
    if amplitude.family == Family.EXP:
        ratios, certified = [a * a] * (n - 1), n
    elif amplitude.family == Family.GAUSS:
        # The second derivative is 2a (2a x^2 - 1) A; the third is negative
        # once 2a x^2 >= 3.
        ratios = [2.0 * a * (2.0 * a * x * x - 1.0)]
        certified = 2 if 2.0 * a * x * x >= 3.0 else 1
    else:
        p = {Family.RATIONAL: a, Family.RECIPROCAL: 1.0,
             Family.INV_SQRT: 0.5}[amplitude.family]
        y = 1.0 + x if amplitude.family == Family.RATIONAL else x
        ratios = [(p + 2 * i) * (p + 2 * i + 1) / (y * y)
                  for i in range(n - 1)]
        certified = n
    derivatives = [amplitude.value(np.array([x]))[0].item()]
    for ratio in ratios:
        derivatives.append(derivatives[-1] * ratio)
    return derivatives, certified


def ibp_tail(amplitude: AmplitudeSpec, x: float,
             nu: float) -> tuple[float, float]:
    """quad._ibp_tail at one lobe edge x: the alternating sum of the first
    k terms A^(2i)(x) / nu^(2i+1), without its sign (-1)^K, and the bound
    2 A^(2k)(x) / nu^(2k+1), k the first of least bound among the certified
    terms."""
    derivatives, certified = even_derivatives(amplitude, x)
    terms, scale = [], nu
    for d in derivatives[:certified]:
        terms.append(d / scale)
        scale = scale * (nu * nu)
    k = min(range(certified), key=lambda i: 2.0 * terms[i])
    value = 0.0
    for i in range(k):
        value = value - terms[i] if i % 2 else value + terms[i]
    return value, 2.0 * terms[k]


def serial_lobe_sum(f, nu: float, kind: OscKind, spec: QuadSpec,
                    amplitude: AmplitudeSpec | None = None
                    ) -> tuple[QuadResult, int]:
    """One lobe walk of f(x)*osc(nu x) over [0, inf), a lobe at a time.

    The stopping rules of quad._LobeRows written for one row, up to
    quad._MAX_LOBES: the walk fetches a block of lobes only when it needs
    that block's first lobe, and a block's lobes all count as evaluations.
    With an amplitude (f is its value), a block edge ends the walk on the
    ibp_tail of the amplitude once its bound meets tolerance; without one,
    on Wynn's epsilon once its result agrees with the previous edge's.
    Returns the result and the number of lobes the walk took.
    """
    osc = np.sin if kind == OscKind.SIN else np.cos
    shift = 0.0 if kind == OscKind.SIN else 0.5
    block, cap, evals = quad._LOBE_BLOCK, quad._MAX_LOBES, 0

    def lobes():
        nonlocal evals
        for k0 in range(0, cap + 1, block):
            ks = range(k0, k0 + block)
            rows = list(zip(*(column.tolist() for column in quad._lockstep(
                lambda x, _: f(x) * osc(nu * x),
                [max(k - shift, 0.0) * math.pi / nu for k in ks],
                [(k + 1 - shift) * math.pi / nu for k in ks],
                spec.abs_tol / 50.0, 1e-10, 24))))
            evals += sum(r[2] for r in rows)
            yield from rows

    walk, partials, used, last = lobes(), [], 0, math.nan
    total, total_err, tail, converged = 0j, 0.0, 0.0, False
    lobes_converged, diverged = True, False
    for k in range(cap):
        val, err, _, conv, div, _ = next(walk)
        total, total_err, used = total + val, total_err + err, used + 1
        lobes_converged, diverged = lobes_converged and conv, diverged or div
        if total != total or total_err != total_err:
            break  # NaN stays NaN: the walk ends on its running sums
        partials.append(total)
        if k >= 1 and abs(val) < spec.abs_tol / 10.0:
            # Alternating-series tail: the next lobe bounds the rest.
            nval, nerr, _, conv, div, _ = next(walk)
            tail, converged, used = abs(nval) + nerr, True, used + 1
            lobes_converged = lobes_converged and conv
            diverged = diverged or div
            break
        if (k + 1) % block and k + 1 != cap:
            continue
        if amplitude is not None:
            # The tail past the edge after lobe k, whose sign is (-1)^(k+1).
            value, error = ibp_tail(amplitude,
                                    (k + 1 - shift) * math.pi / nu, nu)
            value = total + (-value if (k + 1) % 2 else value)
            converged = error <= max(spec.abs_tol, spec.rel_tol * abs(value))
        else:
            value, error = (x.item() for x in quad._epsilon(
                np.array([partials[-block:]])))
            drift = abs(value - last)
            tol = max(spec.abs_tol, spec.rel_tol * abs(value))
            converged = error <= tol and drift <= tol
            last, error = value, max(error, drift)  # a NaN drift loses
        if converged or k + 1 == cap:
            total, tail = value, error
            break
    value, error = quad._tidy(total), total_err + tail
    return QuadResult(value, error, evals, converged and lobes_converged
                      and value == value and error == error, diverged), used


def serial_transform(amplitude: AmplitudeSpec, nu: float, kind: OscKind,
                     spec: QuadSpec = QuadSpec()) -> QuadResult:
    """quad.integrate_oscillatory as one call of its own: the frequency
    check, then an improper amplitude's scaled _improper_power or a proper
    one's validate_pcid and one-row lobe walk, ended on its tail."""
    if not (math.isfinite(nu) and nu > 0.0):
        raise DomainError("oscillator frequency must be finite and > 0")
    if amplitude.improper:
        p = 1.0 if amplitude.family == Family.RECIPROCAL else 0.5
        if p == 1.0 and kind == OscKind.COS:
            raise AmplitudeError(
                "cosine against a 1/x amplitude diverges logarithmically at 0"
            )
        return quad._improper_power(amplitude, kind, spec).scaled(
            nu ** (p - 1.0))
    amplitude.validate_pcid()
    if nu > 1e3:
        raise DomainError("oscillator frequency capped at 1e3 for audits")
    return serial_lobe_sum(amplitude.value, nu, kind, spec, amplitude)[0]


def linear_series_j_max(n: int, s: complex, digits: int) -> int:
    """traces._series_j_max as a scan: j steps up one at a time until
    (pi n^2)^j / j! falls below 10^-(digits+12)."""
    c = math.pi * n * n
    target = -(digits + 12) * math.log(10.0)
    j = max(math.ceil(c) + 20, math.ceil(abs(s.imag) / math.sqrt(12.0)) + 1)
    while j * math.log(c) - math.lgamma(j + 1) >= target:
        j += 1
    return j


def serial_trace_series(n: int, p: TraceParams) -> mp.mpf:
    """traces.tr_cg_n_series one term at a time: each series draws its own
    t_j, bounds its terms by the linear_series_j_max scan, and forms the
    exact stop product at every term past the peak."""
    if n < 1:
        raise DomainError("n must be >= 1")
    headroom = traces._series_digits(n)
    if p.digits < headroom:
        raise InsufficientPrecisionError(
            f"digits={p.digits} < required {headroom} for n={n}")
    j_max = linear_series_j_max(n, p.s, p.digits)
    if j_max > traces._SERIES_TERM_LIMIT:
        raise InsufficientPrecisionError(
            f"series for n={n} needs {j_max} terms at s={p.s}")
    prec = math.ceil((p.digits + 10) * math.log2(10)) + 20
    one = 1 << prec
    c = pi_fixed(prec) * n * n
    # The stop's tail power t_next / (1 - c/(j+2)) < 10^(2-digits)
    # running_max, multiplied out so it needs no division.
    inv_cutoff = 10 ** (p.digits - 2)
    t_of = traces._fixed_traces(p.s, prec)
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
        if c < (j + 2) * one and t_next <= t_prev:
            if (power * t_next * (j + 2) * inv_cutoff
                    < running_max * ((j + 2) * one - c)):
                break
        t_prev = t_next
        j += 1
    with mp.workdps(p.digits + 10):
        return mp.ldexp(total, -prec)


def tr_cg_sigma(n: int, z: complex) -> float:
    """The real value of traces.tr_cg_sigma_result."""
    return float(np.real(tr_cg_sigma_result(n, z).value))


def serial_sigma_rows(terms: list[tuple[int, complex]]) -> list[QuadResult]:
    """traces._sigma_rows as a loop: one tr_cg_sigma_result walk per term,
    in order, as traces.tr_cg_total measured its next terms before they
    became the rows of one walk."""
    return [tr_cg_sigma_result(n, z) for n, z in terms]


def serial_poisson_rows(n: int,
                        terms: list[tuple[int, float, float]]) -> list[QuadResult]:
    """traces._poisson_rows as a loop: one poisson_reduced walk per
    (L, re z, v), in order, as traces.poisson_vanishing_audit took its terms
    before they became the rows of one walk."""
    return [traces.poisson_reduced(n, L, complex(u, v), v) for L, u, v in terms]


def mixed_difference(f, x: float, y: float, ax: int, ay: int,
                     h: float) -> float:
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
    laplace.cm_scan takes the same differences over a grid.
    """
    if ax < 0 or ay < 0 or ax + ay < 1:
        raise DomainError("difference order must be >= 1")
    if min(x, y) <= 0.0:
        raise DomainError("the point must lie in the open quadrant")
    if not (1e-3 <= h <= 0.25):
        raise DomainError(f"step {h} outside [1e-3, 0.25]")
    order = ax + ay
    sign = -1.0 if order % 2 else 1.0
    return sign * mixed_difference(laplace._green, x, y, ax, ay,
                                   h) / h ** order


def cm_scan_per_point(order: int) -> ClaimReport:
    """laplace.cm_scan as one scalar difference per grid point and index.

    Walks the 5 x 5 grid on [0.5, 2.5]^2 x-major with h = 0.05 and keeps
    the first strictly smaller value, as the array scan's argmin does.
    """
    h = 0.05
    t0 = time.perf_counter()
    axis = np.linspace(0.5, 2.5, 5)
    worst = math.inf
    witness: dict = {}
    checked = 0
    for ax in range(order + 1):
        for ay in range(order + 1 - ax):
            if ax + ay == 0:
                continue
            scale = (-1.0 if (ax + ay) % 2 else 1.0) / h ** (ax + ay)
            for x in axis:
                for y in axis:
                    val = scale * mixed_difference(laplace._green, float(x),
                                                   float(y), ax, ay, h)
                    checked += 1
                    if val < worst:
                        worst = val
                        witness = {"alpha": [ax, ay], "x": float(x),
                                   "y": float(y), "value": val}
    return make_report(
        "cm-scan",
        {"grid": [0.5, 2.5, 0.5, 2.5], "nx": 5, "ny": 5, "order": order,
         "h": h},
        lhs=worst, rhs=0.0, error_estimate=1e-8, started=t0,
        bounds=(worst + 1e-8, worst + 1e-8),
        notes="lhs is the most negative alternating difference, scaled by h^|a|",
        extra={"witness": witness, "differencesChecked": checked},
    )


def hausdorff_moment_scan_mpf(s: complex, digits: int) -> dict:
    """The scan of traces.hausdorff_moment_audit on t_j(s) built in mpf.

    Returns the report fields the scan decides: lhs, errorEstimate,
    worstAt, firstViolation and status.  Every t_j, weight and difference
    is an mpf at `digits` decimal digits; the differences are mp.fsum sums.
    """
    j_max = k_max = 20
    with mp.workdps(digits):
        sm = mp.mpc(s)
        seq = []
        for j in range(j_max + k_max + 1):
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
            weights = [mp.mpf((-1) ** i * math.comb(k, i))
                       for i in range(k + 1)]
            noise = (mp.mpf(math.comb(k, k // 2)) * t_peak
                     * mp.mpf(10) ** (-digits))
            for j in range(j_max + 1):
                q_jk = mp.fsum(w * t for w, t in zip(weights, seq[j:]))
                if q_jk < 0 and not first_violation:
                    first_violation = {"j": j, "k": k, "value": float(q_jk)}
                if q_jk < worst:
                    worst = q_jk
                    worst_at = {"j": j, "k": k}
                    noise_at_worst = noise
        worst_f = float(worst)
        noise_f = float(noise_at_worst)
    return {"lhs": worst_f, "errorEstimate": noise_f, "worstAt": worst_at,
            "firstViolation": first_violation or None,
            "status": classify(worst_f, worst_f + 100.0 * noise_f)}


def rational_transform(p: float, nu: float, sine: bool) -> float:
    """int_0^inf (1 + x)^-p sin(nu x) dx (cos if not sine), to 30 digits.

    With u = 1 + x the complex transform is
    e^(-i nu) (-i nu)^(p - 1) Gamma(1 - p, -i nu), an upper incomplete
    gamma function; its imaginary part is the sine transform and its real
    part the cosine transform.
    """
    with mp.workdps(30):
        z = -1j * mp.mpf(nu)
        v = (mp.exp(z) * z ** (mp.mpf(p) - 1)
             * mp.gammainc(1 - mp.mpf(p), z))
        return float(mp.im(v) if sine else mp.re(v))


def rational_transform_contour(p: float, nu: float, sine: bool) -> float:
    """int_0^inf (1 + x)^-p sin(nu x) dx (cos if not sine), to 25 digits.

    Rotating the path to x = i t / nu turns the transform
    int (1 + x)^-p e^(i nu x) dx into (i / nu) J with
    J = int_0^inf (1 + i t / nu)^-p e^-t dt, which decays without
    oscillating: the sine transform is Re J / nu, the cosine -Im J / nu.
    """
    with mp.workdps(25):
        j = mp.quad(lambda t: (1 + 1j * t / nu) ** -mp.mpf(p) * mp.exp(-t),
                    [0, mp.inf])
        return float(mp.re(j) / nu if sine else -mp.im(j) / nu)


def gauss_transform(a: float, nu: float, sine: bool) -> float:
    """int_0^inf exp(-a x^2) sin(nu x) dx (cos if not sine), to 25 digits:
    D(y) / sqrt(a) with Dawson's integral D(y) = (sqrt(pi)/2) e^(-y^2)
    erfi(y) at y = nu / (2 sqrt(a)), and (1/2) sqrt(pi/a) e^(-y^2)."""
    with mp.workdps(25):
        y = mp.mpf(nu) / (2 * mp.sqrt(a))
        half = mp.sqrt(mp.pi) / 2 * mp.exp(-y * y) / mp.sqrt(a)
        return float(half * mp.erfi(y) if sine else half)


def four_walk_positivity_audit(seed: int) -> ClaimReport:
    """fresnel.positivity_audit with each family's frequencies walked as
    the rows of a lobe walk of their own, one walk per family."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    families = fresnel._DEFAULT_FAMILIES
    n_samples = fresnel._N_SAMPLES
    per = n_samples // len(families)
    rows: list[QuadResult] = []
    at: list[dict] = []
    for amp in families:
        nus = fresnel._NU_MAX * (1.0 - rng.random(per))
        rows += quad.integrate_oscillatory_rows([amp] * per, nus, OscKind.SIN,
                                                fresnel._SPEC_POSITIVITY)
        at += [{"family": amp.family.value, "parameter": amp.parameter,
                "nu": float(nu)} for nu in nus]
    value = np.array([r.value for r in rows], dtype=float)
    error = np.array([r.error_estimate for r in rows])
    ok = (np.array([r.converged for r in rows]) & np.isfinite(value)
          & np.isfinite(error))
    unconverged = int(np.count_nonzero(~ok))
    worst = int(np.argmin(value))
    min_val, min_err = float(value[worst]), float(error[worst])
    return make_report(
        "fresnel-positivity",
        {"nSamples": n_samples, "nuMax": fresnel._NU_MAX, "seed": seed,
         "families": [a.family.value for a in families],
         "minAt": at[worst]},
        lhs=min_val, rhs=0.0, error_estimate=min_err, started=t0,
        bounds=(float(np.min(value - 3.0 * error)),
                min_val + 10.0 * max(min_err, 1e-13)),
        converged=not unconverged,
        notes={ClaimStatus.CONFIRMED: "every sampled transform is positive "
                                      "beyond its error budget",
               ClaimStatus.VIOLATED: "a sampled transform is negative "
                                     "beyond ten error budgets",
               ClaimStatus.INCONCLUSIVE: (
                   f"{unconverged} of {n_samples} sampled transforms did "
                   "not converge or are not finite" if unconverged else
                   "minimum sampled value is within its error budget of "
                   "zero")},
        extra={"evaluations": sum(r.evaluations for r in rows)},
    )


def _closed_form_report(check: str, transform, closed,
                        nu: float) -> ClaimReport:
    t0 = time.perf_counter()
    got = transform(nu)
    return make_report("fresnel-closed-form", {"check": check, "nu": nu},
                       lhs=float(np.real(got.value)), rhs=closed(nu),
                       error_estimate=got.error_estimate + 1e-13,
                       started=t0, converged=got.converged)


def _derivative_report(amp: AmplitudeSpec) -> ClaimReport:
    t0 = time.perf_counter()
    resid, budget, ok = fresnel.derivative_identity(amp, 1.5,
                                                    cli._SPEC_FRESNEL)
    return make_report("fresnel-derivative",
                       {"check": "derivative", "family": amp.family.name},
                       lhs=resid, rhs=0.0, error_estimate=budget, started=t0,
                       converged=ok)


def serial_fresnel_suite(seed: int) -> list[tuple[float, list[ClaimReport]]]:
    """The checks of `verify --suite fresnel`, one call per point: the
    closed forms and the derivative identity point by point, the positivity
    audit as four walks.  (threshold, reports) of each check, in order."""
    spec, nus = cli._SPEC_FRESNEL, (0.5, 1.0, 2.0)
    exp1, recip = AmplitudeSpec.exponential(1.0), AmplitudeSpec.reciprocal()
    closed = [
        ("closed-sin", lambda nu: fresnel.fresnel_sin(exp1, nu, spec),
         lambda nu: fresnel.closed_form_sin(exp1, nu)),
        ("closed-cos", lambda nu: fresnel.fresnel_cos(exp1, nu, spec),
         lambda nu: fresnel.closed_form_cos(exp1, nu)),
        ("half-pi", lambda nu: fresnel.fresnel_sin(recip, nu, spec),
         lambda nu: fresnel.closed_form_sin(recip, nu)),
        ("classic", lambda nu: fresnel.fresnel_classic(nu, spec),
         fresnel.fresnel_classic_value),
    ]
    return [
        (1e-9, [_closed_form_report(*check, nu) for nu in nus
                for check in closed[:2]]),
        (1e-6, [_closed_form_report(*check, nu) for nu in nus
                for check in closed[2:]]),
        (1e-7, [_derivative_report(amp) for amp in (
            exp1, AmplitudeSpec.gaussian(1.0), AmplitudeSpec.rational(2.0))]),
        (0.0, [four_walk_positivity_audit(cli._SEED_BASE + seed)]),
    ]
