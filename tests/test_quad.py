"""Quadrature engine: closed-form targets, honesty, and failure flags.

Every target here has an elementary antiderivative or a classical value, so
the engine's error estimates can be checked against true errors (honesty:
the reported estimate must dominate the actual miss).
"""

import math
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from zetacheck import quad
from zetacheck.amplitudes import AmplitudeSpec, Family
from zetacheck.errors import AmplitudeError, DomainError
from zetacheck.laplace import complex_form
from zetacheck.quad import (OscKind, QuadResult, QuadSpec, integrate_finite,
                            integrate_oscillatory, integrate_quadrant,
                            integrate_semi_infinite, oscillatory_raw,
                            oscillatory_rows)

import reference_routes as routes

SQRT_PI_OVER_2 = 0.886226925452758     # int_0^inf exp(-x^2) dx
DAWSON_1 = 0.5380795069127684          # int_0^inf exp(-t^2) sin(2t) dt
HALF_E1_PI = 0.0054531504496369764     # int_0^inf exp(-pi e^{2t}) dt


def check_honest(res, truth, slack=1.2):
    """The reported estimate (x slack) must cover the actual miss.

    The estimate is itself a numerical quantity, so a thin multiplicative
    allowance keeps this from failing on exact ties.
    """
    actual = abs(complex(res.value) - truth)
    assert actual <= slack * max(res.error_estimate, 1e-15), (
        f"estimate {res.error_estimate:.3e} does not cover miss {actual:.3e}"
    )


# -- finite intervals --------------------------------------------------------


@pytest.mark.parametrize("f, a, b, truth", [
    (lambda x: x * x, 0.0, 1.0, 1.0 / 3.0),
    (np.sin, 0.0, math.pi, 2.0),
    (lambda x: np.exp(-x), 0.0, 10.0, 1.0 - math.exp(-10.0)),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
])
def test_finite_closed_forms(f, a, b, truth):
    res = integrate_finite(f, a, b)
    assert res.converged
    assert abs(res.value - truth) <= 1e-12
    check_honest(res, truth)


def test_finite_cusp_is_resolved():
    res = integrate_finite(lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0)
    truth = (0.3 ** 1.5 + 0.7 ** 1.5) / 1.5
    assert abs(res.value - truth) <= 5e-10


def test_finite_rejects_bad_endpoints():
    with pytest.raises(DomainError):
        integrate_finite(np.sin, 0.0, math.inf)
    with pytest.raises(DomainError):
        integrate_finite(np.sin, 1.0, 1.0)


@pytest.mark.parametrize("f", [
    lambda x: math.exp(-x),
    lambda x: 1.0,
    lambda x: np.exp(-x).ravel(),
], ids=["scalar-only", "scalar-returning", "flattening"])
def test_integrand_must_map_array_to_array(f):
    with pytest.raises(TypeError):
        integrate_finite(f, 0.0, 1.0)


@pytest.mark.parametrize("integrate", [
    lambda f: integrate_finite(f, 0.0, 1.0),
    lambda f: integrate_finite(lambda x: np.sqrt(np.abs(f(x) - 0.3)), 0.0, 2.0),
    lambda f: integrate_semi_infinite(f, 0.0),
    lambda f: oscillatory_raw(f, 2.0, OscKind.SIN),
    lambda f: oscillatory_rows(lambda x, _: f(x), [0.3, 2.0, 9.0, 40.0],
                               OscKind.COS),
], ids=["finite", "finite-cusp", "semi-infinite", "oscillatory",
        "oscillatory-rows"])
def test_evaluations_count_every_abscissa(integrate):
    # Windows and lobes integrated past the stopping point are real work:
    # the reported count must match what the integrand actually saw.
    seen = []

    def f(x):
        seen.append(x.size)
        return np.exp(-x * x)

    res = integrate(f)
    rows = res if isinstance(res, list) else [res]
    assert sum(r.evaluations for r in rows) == sum(seen) > 0


def test_complex_integrand_round_trip():
    res = integrate_finite(lambda x: np.exp(1j * x), 0.0, math.pi / 2.0)
    assert abs(res.value - (1.0 + 1.0j)) <= 1e-12


# -- half-line transforms ----------------------------------------------------


@pytest.mark.parametrize("f, a, truth", [
    (lambda x: np.exp(-x), 0.0, 1.0),
    (lambda x: np.exp(-x * x), 0.0, SQRT_PI_OVER_2),
    (lambda x: x * np.exp(-x), 0.0, 1.0),
    (lambda x: np.exp(-x), 3.0, math.exp(-3.0)),
])
def test_exp_tail_closed_forms(f, a, truth):
    res = integrate_semi_infinite(f, a)
    assert res.converged and not res.diverged
    assert abs(res.value - truth) <= 1e-10 * max(1.0, truth)
    check_honest(res, truth)


def test_algebraic_tail_is_not_reported_converged():
    # The exp map walks unit windows in x, so the window cap leaves about
    # 1/(2 * 700^2) of this x^-3 tail unsampled: the value misses 0.5 by
    # more than its estimate and must not claim convergence.
    res = integrate_semi_infinite(lambda x: x / (1.0 + x * x) ** 2, 0.0)
    assert not res.converged
    assert abs(res.value - 0.5) <= 1e-5


def test_divergent_integrand_is_flagged():
    res = integrate_semi_infinite(lambda x: np.exp(0.2 * x), 0.0)
    assert res.diverged
    assert not res.converged


def test_delayed_onset_mass_is_not_missed():
    # The integrand underflows to exactly zero until w ~ 3.3 and carries all
    # its mass around w in [4, 8]; an early quiet-stop once returned 0 here.
    # Substituting r = 12 - 2w gives int e^{-pi e^r} e^r dr / 2 = 1/(2 pi)
    # up to e^{-pi e^12}.
    c, b_l = math.pi, 12.0

    def f(w):
        return np.exp(-c * np.exp(np.minimum(b_l - 2.0 * w, 700.0))
                      + (b_l - 2.0 * w))

    res = integrate_semi_infinite(f, 0.0, QuadSpec(abs_tol=1e-13,
                                                   rel_tol=1e-12))
    truth = 1.0 / (2.0 * math.pi)
    assert res.converged and not res.diverged
    assert abs(res.value - truth) <= 1e-11
    assert res.evaluations > 100   # it must actually have walked the onset


def test_late_onset_exp_cascade():
    res = integrate_semi_infinite(
        lambda t: np.exp(-math.pi * np.exp(np.minimum(2.0 * t, 700.0))), 0.0,
        QuadSpec(abs_tol=1e-14, rel_tol=1e-13))
    assert abs(res.value - HALF_E1_PI) <= 1e-14


# -- window walkers against one coroutine per row ----------------------------


def _key(res):
    # repr, so that NaN results compare equal too.
    return repr((complex(res.value), res.error_estimate, res.evaluations,
                 res.converged, res.diverged))


def _rows_of(fs):
    """f(x, rows) that evaluates fs[rows[j]] on x[j]."""
    def f(x, rows):
        y = np.empty(x.shape)
        for r in np.unique(rows).tolist():
            y[rows == r] = fs[r](x[rows == r])
        return y
    return f


def _counting(walk, sent):
    """The stopping coroutine walk, noting every interval it is sent."""
    end = next(walk)
    while end is None:
        sent.append((yield))
        end = walk.send(sent[-1])
    yield end


def _one_row_windows(f, spec):
    """f's one-row coroutine window walk: its result and window count."""
    sent = []
    res, = quad._walk_windows(lambda x, _: f(x), 0.0, spec, quad._Coroutine(
        _counting(quad._walk(spec), sent)))
    return res, len(sent)


def _delayed_onset(w):
    # Exactly zero until w ~ 3.3, then all its mass, 1/(2 pi), in [4, 8].
    return np.exp(-math.pi * np.exp(np.minimum(12.0 - 2.0 * w, 700.0))
                  + (12.0 - 2.0 * w))


def _third_crossing_shrinks(x):
    # Windows of 1e-7, 1e-4, 6e-3, then 5.1e-3 and falling: the total passes
    # its third _Diverge checkpoint on a smaller window, which is no strike.
    return np.where(x < 1, 1e-7, np.where(x < 2, 1e-4, np.where(
        x < 3, 6e-3, 8e-3 * np.exp(3.0 - x))))


WINDOW_ROWS = [
    lambda x: np.exp(-x) * np.cos(x),
    lambda x: np.exp(-x * x),
    lambda x: np.exp(-0.08 * x),
    _delayed_onset,
    lambda x: 1e-30 * np.exp(-x),      # never loud: the scout ends it
    lambda x: np.exp(0.2 * x),         # runaway growth
    lambda x: x / (1.0 + x * x) ** 2,  # algebraic tail: every window
    _third_crossing_shrinks,
    # Five quiet windows before any loud one, then NaN: the walk ends there.
    lambda x: np.where(x < 5.0, 0.0, np.nan),
]


@pytest.mark.parametrize("copies", [1, 3])
def test_window_rows_match_one_row_walks(copies):
    # The array walker is called directly, at 8 rows and at 24.
    spec, fs = QuadSpec(), WINDOW_ROWS * copies
    rows = quad._walk_windows(_rows_of(fs), 0.0, spec,
                              quad._WindowRows(len(fs), spec))
    windows = []
    for f, row in zip(fs, rows):
        one, n_windows = _one_row_windows(f, spec)
        assert _key(row) == _key(one)
        windows.append(n_windows)
    assert abs(rows[3].value - 1.0 / (2.0 * math.pi)) <= 1e-9
    assert windows[4] == 40 and rows[4].converged
    assert rows[5].diverged and not rows[5].converged
    assert windows[6] == quad._MAX_WINDOWS and not rows[6].converged
    assert rows[7].converged and not rows[7].diverged
    assert windows[8] == 6 and math.isnan(rows[8].value)
    assert not rows[8].converged and not rows[8].diverged
    assert len({-(-n // quad._WINDOW_BLOCK) for n in windows}) > 3


# -- oscillatory half-line ---------------------------------------------------


def test_oscillatory_exp_amplitude():
    res = integrate_oscillatory(AmplitudeSpec.exponential(1.0), 2.0,
                                OscKind.SIN)
    assert abs(res.value - 2.0 / 5.0) <= 1e-10        # nu/(1+nu^2)
    res2 = integrate_oscillatory(AmplitudeSpec.exponential(1.0), 2.0,
                                 OscKind.COS)
    assert abs(res2.value - 1.0 / 5.0) <= 1e-10       # 1/(1+nu^2)


def test_scaled_keeps_the_result_flags():
    res = QuadResult(2.0 - 1.0j, 0.25, 345, False, diverged=True,
                     inner_failures=3)
    assert res.scaled(4.0) == QuadResult(8.0 - 4.0j, 1.0, 345, False,
                                         diverged=True, inner_failures=3)


def test_oscillatory_reciprocal_is_half_pi():
    res = integrate_oscillatory(AmplitudeSpec.reciprocal(), 3.0, OscKind.SIN)
    assert abs(res.value - math.pi / 2.0) <= 1e-8


def test_oscillatory_gaussian_matches_dawson_value():
    res = oscillatory_raw(lambda t: np.exp(-t * t), 2.0, OscKind.SIN)
    assert abs(res.value - DAWSON_1) <= 1e-10
    check_honest(res, DAWSON_1, slack=4.0)


def test_oscillatory_rational_cos():
    res = oscillatory_raw(lambda x: 1.0 / (1.0 + x * x), 1.0, OscKind.COS)
    truth = math.pi / (2.0 * math.e)
    assert abs(res.value - truth) <= 1e-8


@pytest.mark.parametrize("p, kind, nu", [(2.0, OscKind.COS, 0.05),
                                         (2.5, OscKind.SIN, 50.0)])
def test_rational_transform_matches_quadosc(p, kind, nu):
    # The incomplete-gamma oracle below, against mpmath's own oscillatory
    # quadrature at 30 digits.
    osc = mp.sin if kind == OscKind.SIN else mp.cos
    with mp.workdps(30):
        truth = mp.quadosc(lambda x: (1 + x) ** -mp.mpf(p) * osc(nu * x),
                           [0, mp.inf], omega=nu)
    assert abs(routes.rational_transform(p, nu, kind == OscKind.SIN)
               - float(truth)) <= 1e-16 * abs(float(truth))


# From 0.05 to 50: one lobe spans 63 down to 0.063.
ORACLE_NUS = [0.05, 0.13, 0.7, 2.2, 6.0, 17.0, 31.0, 50.0]


@pytest.mark.parametrize("kind", [OscKind.SIN, OscKind.COS])
@pytest.mark.parametrize("amp", [
    AmplitudeSpec.rational(1.5), AmplitudeSpec.rational(2.0),
    AmplitudeSpec.rational(2.5), AmplitudeSpec.exponential(0.5),
    AmplitudeSpec.exponential(2.0)],
    ids=lambda a: f"{a.family.value}({a.parameter})")
def test_lobe_rows_are_honest_against_an_oracle(amp, kind):
    # No rational row has a lobe below abs_tol / 10 within thousands of
    # lobes, so epsilon ends each at a block edge; exp rows end on epsilon
    # or on a tail stop.  Every row must converge and cover its miss.
    sine = kind == OscKind.SIN
    for nu, row in zip(ORACLE_NUS, oscillatory_rows(
            lambda x, _: amp.value(x), ORACLE_NUS, kind)):
        a = amp.parameter
        if amp.family == Family.RATIONAL:
            truth = routes.rational_transform(a, nu, sine)
            assert row.evaluations <= 2 * quad._LOBE_BLOCK * 45
        else:
            truth = (nu if sine else a) / (a * a + nu * nu)
        assert row.converged, nu
        assert abs(row.value - truth) <= row.error_estimate, nu


@pytest.mark.parametrize("sums", [
    [0.5, 0.75, 0.875] + [1.0] * 29,        # converges exactly
    [2.0] * 32,                             # all equal
    [0.0] * 16,                             # all zero
    [1.0, 1.0, 0.5, 0.5] * 4,               # equal neighbours throughout
    [1.0, 0.0] * 16,                        # oscillates, never settles
    [0.0, 1.0, 1.0, 2.0] + [3.0] * 12,
    [1e-300 * k for k in range(16)],        # differences near underflow
], ids=["exact", "equal", "zero", "pairs", "oscillating", "steps", "tiny"])
def test_epsilon_guards_keep_the_table_finite(sums):
    # qelg's guards: entries that agree to rounding end or cut the table
    # rather than divide by zero, so no value or estimate is ever NaN.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, error = quad._epsilon(np.array([sums], dtype=complex))
    assert np.isfinite(value).all() and np.isfinite(error).all()
    assert error[0] >= 0.0
    if len(set(sums[-3:])) == 1:
        # The last three agree: the table has converged on them.
        assert value[0] == sums[-1]
        assert error[0] <= 5.0 * np.finfo(float).eps * abs(sums[-1])


def test_epsilon_rows_do_not_mix():
    # One call on many rows gives each row what a call on it alone gives,
    # bit for bit.
    k = np.arange(32)
    rows = np.array([np.cumsum((-1.0) ** k / (k + 1.0) ** p)
                     for p in (0.5, 1.0, 2.5)]
                    + [np.cumsum(0.9 ** k), np.ones(32), (-1.0) ** k],
                    dtype=complex)
    for together in (rows, rows + 1j * rows[::-1]):
        value, error = quad._epsilon(together)
        for i, row in enumerate(together):
            v, e = quad._epsilon(row[None])
            assert (complex(value[i]), error[i]) == (complex(v[0]), e[0])
    # Alternating and geometric sums are what epsilon extrapolates best.
    value, error = quad._epsilon(rows[:4])
    truth = [(1.0 - math.sqrt(2.0)) * -1.4603545088095868, math.log(2.0),
             0.8671998890121841, 10.0]
    assert np.all(np.abs(value - truth) <= 1e-14 * np.abs(truth))
    assert np.all(error <= 1e-14 * np.abs(truth))


# More frequencies, so that each rows walk below spans many rows.
MORE_NUS = [1.3, 2.2, 4.4, 5.9, 9.5, 11.0, 13.3, 21.0, 24.4, 33.0, 38.5, 44.0,
            49.0]


@pytest.mark.parametrize("amp, kind, nus, spec, cap", [
    # exp(-2x) at nu = 8.12 (sin) and 7.87 (cos) stops at lobe 31, so its
    # tail lookahead is the first lobe of the next block.
    (AmplitudeSpec.exponential(2.0), OscKind.SIN,
     [0.7, 8.12, 17.15, 30.0] + MORE_NUS, QuadSpec(), 768),
    (AmplitudeSpec.exponential(2.0), OscKind.COS,
     [0.7, 7.87, 16.9, 30.0] + MORE_NUS, QuadSpec(), 768),
    # rational(2.5) rows have no tail stop: epsilon ends them at the second
    # block edge, where its result first agrees with the one before, or at
    # a lobe cap of 20 before either edge.
    (AmplitudeSpec.rational(2.5), OscKind.SIN, [0.5, 3.0, 20.0] + MORE_NUS,
     QuadSpec(abs_tol=1e-9, rel_tol=1e-9), 768),
    (AmplitudeSpec.rational(2.5), OscKind.SIN, [0.5, 3.0, 20.0] + MORE_NUS,
     QuadSpec(abs_tol=1e-9, rel_tol=1e-9), 20),
], ids=["exp-sin", "exp-cos", "rational-sin", "rational-sin-capped"])
def test_oscillatory_rows_match_one_row_walks(monkeypatch, amp, kind, nus,
                                              spec, cap):
    # Each row of a many-row walk ends where its own one-row walk does, and
    # where the lobe-at-a-time reference does.
    assert len(nus) > 1
    monkeypatch.setattr(quad, "_MAX_LOBES", cap)
    rows = oscillatory_rows(lambda x, _: amp.value(x), nus, kind, spec)
    used = []
    for nu, row in zip(nus, rows):
        one = oscillatory_raw(amp.value, nu, kind, spec)
        ref, n_used = routes.serial_lobe_sum(amp.value, nu, kind, spec)
        used.append(n_used)
        assert _key(row) == _key(one) == _key(ref)
    if amp.family == Family.RATIONAL:
        assert used == [min(cap, 2 * quad._LOBE_BLOCK)] * len(nus)
    else:
        # Rows stop in different blocks, one just past a block edge.
        assert len({-(-n // quad._LOBE_BLOCK) for n in used}) > 1
        assert any(n % quad._LOBE_BLOCK == 1 for n in used)


@pytest.mark.parametrize("nu, n_rows", [
    (0.0, 4096), (-1.0, 4096), (math.nan, 4096), (math.inf, 4096),
    (1001.0, 4096),
])
def test_oscillatory_rejects_bad_input(nu, n_rows):
    # A bad frequency is rejected alone and as the last of many rows.
    f = lambda x: np.exp(-x)
    with pytest.raises(DomainError):
        oscillatory_raw(f, nu, OscKind.SIN)
    with pytest.raises(DomainError):
        oscillatory_rows(lambda x, _: f(x), [1.0] * (n_rows - 1) + [nu],
                         OscKind.COS)


class _Rejected(AmplitudeSpec):
    """exp(-x), whose admissibility check fails."""

    def validate_pcid(self) -> None:
        raise AmplitudeError("rejected amplitude")


def _first_error(call):
    try:
        call()
    except (AmplitudeError, DomainError) as exc:
        return type(exc), str(exc)
    return None


BAD_ROWS = {
    "zero": (AmplitudeSpec.exponential(1.0), 0.0),
    "negative": (AmplitudeSpec.inv_sqrt(), -1.0),
    "nan": (AmplitudeSpec.reciprocal(), math.nan),
    "inf": (AmplitudeSpec.gaussian(1.0), math.inf),
    "over-cap": (AmplitudeSpec.rational(2.0), 1001.0),
    "reciprocal-cos": (AmplitudeSpec.reciprocal(), 1.0),
    "rejected": (_Rejected(Family.EXP, 1.0), 2.0),
    # Two faults in one row: the frequency is checked first, the cap last.
    "rejected-nan": (_Rejected(Family.EXP, 1.0), math.nan),
    "rejected-over-cap": (_Rejected(Family.EXP, 1.0), 1001.0),
}


@pytest.mark.parametrize("at", [0, 2, 5])
@pytest.mark.parametrize("second", [None, "nan", "reciprocal-cos",
                                    "rejected"])
@pytest.mark.parametrize("first", list(BAD_ROWS))
def test_transform_rows_raise_the_serial_first_error(monkeypatch, first,
                                                     second, at):
    # A bad row at any place, with a second bad row after it: the rows
    # raise the error type and message that a loop of one-row transforms
    # meets first, and walk nothing before it.
    good = [(AmplitudeSpec.exponential(1.0), 0.5), (AmplitudeSpec.inv_sqrt(),
                                                   2.0)] * 2 + [
        (AmplitudeSpec.rational(1.5), 1e3)]
    rows = good[:at] + [BAD_ROWS[first]] + good[at:]
    if second is not None:
        rows.append(BAD_ROWS[second])
    amps, nus = zip(*rows)
    serial = _first_error(lambda: [
        routes.serial_transform(a, nu, OscKind.COS) for a, nu in rows])
    assert serial is not None
    walked = []
    monkeypatch.setattr(quad, "_lobe_walk",
                        lambda *args: walked.append(args))
    monkeypatch.setattr(quad, "_improper_power",
                        lambda *args: walked.append(args))
    assert _first_error(lambda: quad.integrate_oscillatory_rows(
        amps, nus, OscKind.COS)) == serial
    assert not walked


def test_transform_rows_reject_mismatched_or_empty_rows():
    with pytest.raises(DomainError, match="at least one row"):
        quad.integrate_oscillatory_rows([], [], OscKind.SIN)
    with pytest.raises(ValueError, match="2 amplitudes for 1 frequencies"):
        quad.integrate_oscillatory_rows([AmplitudeSpec.exponential(1.0)] * 2,
                                        [1.0], OscKind.SIN)


def test_oscillatory_rows_reject_an_empty_frequency_list():
    with pytest.raises(DomainError, match="at least one frequency"):
        oscillatory_rows(lambda x, _: np.exp(-x), [], OscKind.SIN)


def test_semi_infinite_rows_reject_bad_input():
    f = lambda x, rows: np.exp(-x)
    with pytest.raises(DomainError, match="at least one row"):
        quad.semi_infinite_rows(f, 0.0, [])
    with pytest.raises(DomainError, match="finite"):
        quad.semi_infinite_rows(f, math.inf, [1e-10])
    for tol in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="abs_tols"):
            quad.semi_infinite_rows(f, 0.0, [1e-10, tol])


def _nan_near(x):
    # NaN within 1e-3 of 0.3, which neither the first panel on [0, 1] nor
    # its first split samples; the second heap generation does.
    return np.where(np.abs(x - 0.3) < 1e-3, np.nan, np.sqrt(np.abs(x - 0.3)))


@pytest.mark.parametrize("integrate, budget", [
    (lambda: integrate_finite(lambda x: x * np.nan, 0.0, 1.0), 45),
    # A walk ends on its first NaN window or lobe: one block of 8 or 32.
    (lambda: integrate_semi_infinite(lambda x: x * np.nan, 0.0),
     quad._WINDOW_BLOCK * 45),
    (lambda: integrate_finite(_nan_near, 0.0, 1.0), 105),
    (lambda: integrate_quadrant(lambda l1, l2: l1 * l2 * np.nan), 129_600),
    (lambda: oscillatory_raw(lambda x: x * np.nan, 1.0, OscKind.SIN),
     quad._LOBE_BLOCK * 45),
    (lambda: oscillatory_rows(lambda x, _: x * np.nan, [1.0, 2.0],
                              OscKind.COS)[1], quad._LOBE_BLOCK * 45),
], ids=["finite", "semi-infinite", "finite-deep", "quadrant", "lobe",
        "lobe-rows"])
def test_nan_error_stops_refinement(integrate, budget):
    # A NaN running error stays NaN, so the interval can never converge.
    res = integrate()
    assert np.isnan(res.value) and math.isnan(res.error_estimate)
    assert not res.converged and not res.diverged
    assert res.evaluations <= budget


def test_improper_power_reports_lobe_convergence():
    # cos(u)/u is not integrable at 0, so the first lobe cannot converge.
    recip, inv_sqrt = AmplitudeSpec.reciprocal(), AmplitudeSpec.inv_sqrt()
    assert not quad._improper_power(recip, OscKind.COS, QuadSpec()).converged
    for amp, kind in ((recip, OscKind.SIN), (inv_sqrt, OscKind.SIN),
                      (inv_sqrt, OscKind.COS)):
        assert quad._improper_power(amp, kind, QuadSpec()).converged


def test_lobe_walk_reports_lobe_convergence():
    # The jump at 1.3 keeps the first lobe unconverged at the depth cap, so
    # the walk must not report convergence, though its tail stop fires.
    f = lambda x: np.where(x < 1.3, np.exp(-x), 0.0)
    res = oscillatory_raw(f, 1.0, OscKind.SIN)
    assert not res.converged
    assert res.error_estimate > QuadSpec().abs_tol
    assert not oscillatory_rows(lambda x, _: f(x), [2.0, 1.0],
                                OscKind.SIN)[1].converged
    assert oscillatory_raw(lambda x: np.exp(-x), 1.0, OscKind.SIN).converged


def test_lobe_rows_report_an_unconverged_lookahead(monkeypatch):
    # A step to 1 at x = 12.5 lies in the lookahead lobe of each row from
    # nu = 6.3 on: the first of the next block at nu = 8.12, whose tail stop
    # is lobe 31; inside the block at the others.  The tail stop fires, but
    # no row may converge.  At nu = 9.5 epsilon meets tolerance at lobe 31,
    # before the step, but has no earlier result to agree with, so the row
    # walks on into the step.  At nu = 5 the step comes before any small
    # lobe, and epsilon cannot settle the lobes of the constant past it, so
    # the row walks to the lobe cap and ends there unconverged.
    monkeypatch.setattr(quad, "_MAX_LOBES", 64)
    f = lambda x: np.where(x < 12.5, np.exp(-2.0 * x), 1.0)
    spec, nus = QuadSpec(), [5.0, 6.3, 6.9, 7.42, 8.12, 9.5]
    used = []
    for nu, row in zip(nus, oscillatory_rows(lambda x, _: f(x), nus,
                                             OscKind.SIN, spec)):
        ref, n_used = routes.serial_lobe_sum(f, nu, OscKind.SIN, spec)
        assert _key(row) == _key(oscillatory_raw(f, nu, OscKind.SIN, spec)) \
            == _key(ref)
        assert not row.converged
        used.append(n_used)
    assert used == [64, 26, 28, 30, 33, 38]


@pytest.mark.parametrize("nus", [[1.0] * 16, [1.0] * 14 + [2.0, 0.5], [1.0]],
                         ids=["all-at-cap", "mixed", "one-row"])
def test_lobe_rows_stop_on_the_last_lobe_below_max_lobes(monkeypatch, nus):
    # With a lobe cap of 64, at nu = 1 lobe 63 = cap - 1 is the first small
    # one, so the row ends on lobe 64, the first lobe of the block after the
    # cap.  At nu = 2 no lobe is small and the row accelerates; at nu = 0.5
    # the tail stop comes early.
    monkeypatch.setattr(quad, "_MAX_LOBES", 64)
    f = lambda x: np.where(x < 63.0 * math.pi, 1.0, 0.0)
    spec = QuadSpec()
    for nu, row in zip(nus, oscillatory_rows(lambda x, _: f(x), nus,
                                             OscKind.SIN, spec)):
        ref, n_used = routes.serial_lobe_sum(f, nu, OscKind.SIN, spec)
        assert _key(row) == _key(oscillatory_raw(f, nu, OscKind.SIN, spec)) \
            == _key(ref)
        assert n_used == {1.0: 65, 2.0: 64, 0.5: 34}[nu]


def test_inv_sqrt_improper_amplitude():
    # int_0^inf sin(x)/sqrt(x) dx = sqrt(pi/2)
    res = integrate_oscillatory(AmplitudeSpec.inv_sqrt(), 1.0, OscKind.SIN)
    assert abs(res.value - math.sqrt(math.pi / 2.0)) <= 1e-7


# -- quadrant and diagonal reduction -----------------------------------------


def test_quadrant_product_exponential():
    res = integrate_quadrant(lambda l1, l2: np.exp(-l1 - l2))
    assert abs(res.value - 1.0) <= 1e-8
    assert res.inner_failures == 0


def test_quadrant_with_oscillation():
    # int e^{-l1-l2} cos(l1 - l2) over the quadrant = 1/2 (closed form).
    res = integrate_quadrant(lambda l1, l2: np.exp(-l1 - l2) * np.cos(l1 - l2))
    assert abs(res.value - 0.5) <= 1e-8


def test_quadrant_rows_match_independent_inner_integrals():
    # integrate_quadrant runs the inner integrals of many outer nodes in
    # lockstep on array state; each must equal, bit for bit, its own one-node
    # public evaluation on the coroutine walker.
    spec = QuadSpec()
    inner_spec = replace(spec, abs_tol=max(spec.abs_tol / 64.0, 1e-14),
                         rel_tol=max(spec.rel_tol / 16.0, 1e-13))
    for z in (0.8 - 2.65j, 3.0 + 4.0j, 0.6 + 3.5j):
        def f2(l1, l2):
            return np.exp(-complex_form(z, (l1, l2)))

        def marginal(l1):
            return np.array([complex(integrate_semi_infinite(
                lambda l2: f2(node, l2), 0.0, inner_spec).value)
                for node in l1.ravel()]).reshape(l1.shape)

        reference = integrate_semi_infinite(marginal, 0.0, spec)
        res = integrate_quadrant(f2, spec)
        assert complex(res.value) == complex(reference.value), z


# -- real walks on real state ------------------------------------------------
#
# A walker holds real sums until it meets a complex value.  Real state must
# end every walk bit for bit where complex state holding the same values
# does.  The comparisons keep the integrand and force the state complex:
# f + 0j would not do, as numpy sums a complex panel in another order than
# a real one, so its panels differ from f's in the last bits.


def _complex_sends(walk):
    """The stopping coroutine walk, sent each window's value as a complex."""
    end = next(walk)
    while end is None:
        val, *rest = yield
        end = walk.send((complex(val), *rest))
    yield end


def _complex_state(monkeypatch):
    """Have every array walker hold complex state from its first block."""
    monkeypatch.setattr(quad, "_upcast", lambda block, *state: tuple(
        x.astype(complex) for x in state))


def _green_fresnel(z):
    # The real quadrant integrand of laplace.rep_green_fresnel.
    x, y = z.real, abs(z.imag)
    return lambda l1, l2: np.exp(-x * (l1 + l2)) * np.cos(y * (l2 - l1))


@pytest.mark.parametrize("f", WINDOW_ROWS)
def test_real_window_walks_equal_complex_state_walks(monkeypatch, f):
    spec = QuadSpec()
    real = integrate_semi_infinite(f, 0.0, spec)
    real_rows = quad._walk_windows(lambda x, rows: f(x), 0.0, spec,
                                   quad._WindowRows(3, spec))
    cplx, = quad._walk_windows(lambda x, _: f(x), 0.0, spec, quad._Coroutine(
        _complex_sends(quad._walk(spec))))
    _complex_state(monkeypatch)
    cplx_rows = quad._walk_windows(lambda x, rows: f(x), 0.0, spec,
                                   quad._WindowRows(3, spec))
    assert _key(real) == _key(cplx)
    assert [_key(r) for r in real_rows] == [_key(r) for r in cplx_rows]


@pytest.mark.parametrize("z", [0.57 + 1.39j, 2.0 - 3.0j, 0.8])
def test_real_quadrant_equals_its_complex_state_walk(monkeypatch, z):
    real = integrate_quadrant(_green_fresnel(z))
    _complex_state(monkeypatch)
    cplx = integrate_quadrant(_green_fresnel(z))
    assert _key(real) == _key(cplx)
    assert real.inner_failures == cplx.inner_failures


@pytest.mark.parametrize("kind", [OscKind.SIN, OscKind.COS])
@pytest.mark.parametrize("amp", [
    lambda x: np.exp(-0.3 * x),
    lambda x: (1.0 + x) ** -1.5,            # epsilon ends these rows
    lambda x: np.where(x < 7.0, np.exp(-x), np.nan),
])
def test_real_lobe_rows_equal_complex_state_rows(monkeypatch, amp, kind):
    nus = [0.3, 1.0, 7.5, 40.0]
    real = oscillatory_rows(lambda x, _: amp(x), nus, kind)
    _complex_state(monkeypatch)
    cplx = oscillatory_rows(lambda x, _: amp(x), nus, kind)
    assert [_key(r) for r in real] == [_key(r) for r in cplx]
    assert all(isinstance(r.value, float) for r in real)


def _turns_complex(at):
    """An integrand that is real, in dtype too, on abscissae below `at` and
    complex with a nonzero imaginary part on any array reaching past it."""
    def f(x):
        y = np.exp(-0.25 * x)
        if (x < at).all():
            return y
        return y + 1j * np.where(x < at, 0.0, (x - at) ** 2 * y)
    return f


def test_walks_keep_the_imaginary_part_of_a_late_complex_block(monkeypatch):
    # The first blocks are real: 32 lobes at nu = 25 end near x = 4.0, and
    # 8 windows at x = 8, so the walkers meet the complex values in a later
    # block.  Their real state must take them whole: a ComplexWarning would
    # mean an imaginary part was dropped.
    lobes, windows = _turns_complex(5.0), _turns_complex(10.0)

    def walks():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return (oscillatory_rows(lambda x, _: lobes(x), [25.0, 30.0],
                                     OscKind.SIN)
                    + [integrate_semi_infinite(windows, 0.0),
                       integrate_quadrant(
                           lambda l1, l2: windows(l2) * np.exp(-l1))])

    real = walks()
    _complex_state(monkeypatch)
    cplx = walks()
    assert [_key(r) for r in real] == [_key(r) for r in cplx]
    assert all(r.converged and r.value.imag != 0.0 for r in real)


def test_diag_reduction_agrees_with_quadrant():
    g = lambda w: np.exp(-1.7 * w)
    direct = integrate_quadrant(lambda l1, l2: np.exp(-1.7 * (l1 + l2)))
    reduced = routes.integrate_diag_reduced(g)
    assert abs(reduced.value - 1.0 / 1.7 ** 2) <= 1e-11
    assert abs(direct.value - reduced.value) <= 1e-8


# -- known silent failures ---------------------------------------------------
# Each case below reports converged=True with an estimate that misses the
# true error by orders of magnitude.  They are pinned as strict xfails, so
# the change that makes these estimates honest (ROADMAP.md, "Make quadrature
# error estimates honest") must flip them: a fixed case either reports
# converged=False or an estimate that covers its miss.


@pytest.mark.xfail(strict=True, reason="the 15 first-panel nodes miss the "
                   "narrow peak and the panel is accepted")
def test_finite_narrow_gaussian_is_not_silently_lost():
    res = integrate_finite(lambda x: np.exp(-((x - 0.3) / 0.01) ** 2),
                           0.0, 100.0)
    if res.converged:
        check_honest(res, 0.01 * math.sqrt(math.pi))


@pytest.mark.xfail(strict=True, reason="the first window is far wider than "
                   "the decay length 1e-4")
def test_semi_infinite_fast_decay_is_not_silently_lost():
    res = integrate_semi_infinite(lambda x: np.exp(-1e4 * x), 0.0)
    if res.converged:
        check_honest(res, 1e-4)


@pytest.mark.xfail(strict=True, reason="the first lobe at nu = 0.01 spans "
                   "[0, 50 pi] and its panels miss the decay near 0")
def test_oscillatory_fast_decay_is_not_silently_lost():
    res = oscillatory_raw(lambda x: np.exp(-100.0 * x), 0.01, OscKind.COS)
    if res.converged:
        check_honest(res, 100.0 / (100.0 ** 2 + 0.01 ** 2))


@pytest.mark.xfail(strict=True, reason="the walk stops on two quiet windows "
                   "before the second bump")
def test_semi_infinite_second_bump_is_not_dropped():
    res = integrate_semi_infinite(
        lambda x: np.exp(-3.0 * x) + np.exp(-(x - 20.0) ** 2), 0.0)
    if res.converged:
        check_honest(res, 1.0 / 3.0 + math.sqrt(math.pi))


# -- spec validation ---------------------------------------------------------


def test_quad_spec_rejects_bad_tolerances():
    with pytest.raises(ValueError):
        QuadSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadSpec(rel_tol=2.0)
