"""Trace sequence, extended-precision series, and the Poissonian terms.

The reduced Poissonian integral has an incomplete-gamma closed form,
derived independently here with mpmath and used as a third route against
both the 1-D quadrature and the 2-D quadrant evaluation.
"""

import math
import random

import mpmath as mp
import pytest

from zetacheck import traces
from zetacheck.errors import (DomainError, InsufficientPrecisionError,
                              PoleError)
from zetacheck.report import ClaimStatus, reports_to_json, strip_volatile

import reference_routes as routes

try:
    from hypothesis import given, seed, settings
    from hypothesis import strategies as st
except ImportError:  # hypothesis is in the test extra
    given = None

S_AUDIT = 0.75 - 2.0j


def gamma_route(n, L, z, v_freq):
    """(1/(2 v)) Im[c^{(iv-u)/2} gamma_lower((u-iv)/2, c e^{bL})].

    Closed form of the reduced integral, via the substitution
    y = c e^{bL - 2w}; independent of the package's evaluators.
    """
    with mp.workdps(50):
        u, v = mp.mpf(z.real), mp.mpf(v_freq)
        c = mp.pi * n * n
        a = (u - 1j * v) / 2
        x_hi = c * mp.exp(4 * mp.pi * L / v)
        lower = mp.gammainc(a, 0, x_hi)
        val = mp.im(c ** (-a) * lower) / (2 * v)
        return float(val)


# -- the sequence itself -----------------------------------------------------


def test_trace_terms_are_positive_and_summable():
    s = 0.6 - 1.5j
    vals = [traces.trace_t(j, s) for j in range(50)]
    assert all(v > 0.0 for v in vals)
    assert vals[40] < vals[5]       # eventual decay like j^{-3}


def test_trace_poles_raise():
    with pytest.raises(PoleError):
        traces.trace_t(1, complex(-2.0, 0.0))
    with pytest.raises(PoleError):
        traces.trace_t(0, complex(1.0, 0.0))
    with pytest.raises(DomainError):
        traces.trace_t(-1, 0.5 + 1.0j)


@pytest.mark.parametrize("j, s", [
    (0, 0.75 - 2.0j),
    (3, 0.3 + 1.0j),
    (25, 0.9 - 7.0j),
    (100, 0.5 + 0.5j),
])
def test_three_factor_decomposition(j, s):
    rep = traces.trace_decomposition_check(j, s)
    assert rep.status == ClaimStatus.CONFIRMED
    assert rep.abs_residual <= 1e-13 * max(1.0, abs(complex(rep.lhs)))


@pytest.mark.parametrize("j, s", [
    (0, 0.75 - 2.0j), (7, 0.25 + 3.0j), (60, 0.6 - 0.5j),
])
def test_partial_fraction_bridge(j, s):
    assert traces.bridge_residual(j, s) <= 1e-13


@pytest.mark.parametrize("j, s", [(0, 0j), (0, 1 + 0j), (2, -4 + 0j)])
def test_bridge_raises_at_the_poles_of_t_j(j, s):
    with pytest.raises(PoleError):
        traces.bridge_residual(j, s)


@pytest.mark.parametrize("s", [complex(0.75, math.inf),
                               complex(math.nan, 1.0)])
def test_bridge_rejects_a_non_finite_argument(s):
    with pytest.raises(DomainError, match="s must be finite"):
        traces.bridge_residual(0, s)


@pytest.mark.parametrize("im_s", [1e80, 1e200])
def test_trace_algebra_overflow_raises(im_s):
    # |s|^4 leaves the double range: no value is built from an inf.
    s = complex(0.75, im_s)
    with pytest.raises(DomainError, match="overflows"):
        traces.trace_t(0, s)
    with pytest.raises(DomainError, match="overflows"):
        traces.trace_decomposition_check(0, s)
    with pytest.raises(DomainError, match="overflows"):
        traces.bridge_residual(0, s)


def test_trace_params_validation():
    with pytest.raises(DomainError):
        traces.TraceParams(1.5 + 1.0j)            # re(s) outside [0, 1]
    with pytest.raises(DomainError):
        traces.TraceParams(0.5 + 0.0j)            # im(s) = 0
    for s in (complex(0.75, math.inf), complex(0.75, math.nan),
              complex(math.nan, -2.0)):
        with pytest.raises(DomainError, match="s must be finite"):
            traces.TraceParams(s)
    with pytest.raises(DomainError):
        traces.TraceParams(S_AUDIT, digits=10)


# -- moment monotonicity -----------------------------------------------------


def test_moment_audit_confirms_at_small_height():
    rep = traces.hausdorff_moment_audit(0.75 - 0.5j)
    assert rep.status == ClaimStatus.CONFIRMED
    assert rep.inputs["insideRegion"] is True


def test_moment_audit_fails_deeper_in_the_region():
    # Independently recomputed: the worst alternating difference at this
    # argument is -0.1134168 at (j, k) = (0, 14), far above the noise floor.
    rep = traces.hausdorff_moment_audit(S_AUDIT)
    assert rep.status == ClaimStatus.VIOLATED
    assert complex(rep.lhs).real == pytest.approx(-0.1134168, rel=1e-5)
    assert rep.extra["worstAt"] == {"j": 0, "k": 14}


@pytest.mark.parametrize("s", [complex(0.75, math.inf),
                               complex(0.75, -math.inf),
                               complex(0.75, math.nan)])
def test_moment_audit_rejects_a_non_finite_argument(s):
    with pytest.raises(DomainError, match="s must be finite"):
        traces.hausdorff_moment_audit(s, 60, allow_outside_region=True)


@pytest.mark.parametrize("s", [0j, 1 + 0j, 3 + 0j])   # poles of t_0 and t_1
def test_moment_audit_raises_at_a_pole(s):
    with pytest.raises(PoleError):
        traces.hausdorff_moment_audit(s, 60, allow_outside_region=True)


def test_moment_audit_region_guard():
    outside = 0.3 - 1.0j
    with pytest.raises(DomainError):
        traces.hausdorff_moment_audit(outside)
    rep = traces.hausdorff_moment_audit(outside, allow_outside_region=True)
    assert "WARN" in rep.notes
    assert rep.inputs["insideRegion"] is False


def test_moment_audit_is_exact_at_low_digits():
    # The 120-digit minimum at this argument; the mpf scan at 15 digits
    # read 2.059408653538094e-14, 1.2% off.
    rep = traces.hausdorff_moment_audit(0.9 - 0.3j, 15)
    assert rep.lhs == pytest.approx(2.0852296589308544e-14, rel=1e-8, abs=0)
    assert rep.status == ClaimStatus.CONFIRMED


if given is None:
    def test_moment_audit_equals_the_mpf_scan():
        pytest.skip("needs hypothesis")
else:
    @seed(20261019)
    @settings(max_examples=40, deadline=None, database=None)
    @given(st.floats(0.0, 1.0), st.floats(0.01, 5000.0),
           st.sampled_from([1.0, -1.0]), st.integers(30, 200))
    def test_moment_audit_equals_the_mpf_scan(re_s, im_abs, sign, digits):
        # Inside the region and out: the fixed-point scan reports what
        # the mpf scan does, field for field, at 30 digits and more.
        s = complex(re_s, sign * im_abs)
        rep = traces.hausdorff_moment_audit(s, digits,
                                            allow_outside_region=True)
        assert routes.hausdorff_moment_scan_mpf(s, digits) == {
            "lhs": rep.lhs, "errorEstimate": rep.error_estimate,
            "worstAt": rep.extra["worstAt"],
            "firstViolation": rep.extra["firstViolation"],
            "status": rep.status}


# -- series route vs integral route ------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("s", [0.75 - 1.0j, 0.6 - 2.0j])
def test_series_vs_sigma_cross_validation(n, s):
    p = traces.TraceParams(s, n_max=n, digits=60)
    series = float(traces.tr_cg_n_series(n, p))
    sig_s = routes.tr_cg_sigma(n, s)
    sig_r = routes.tr_cg_sigma(n, 1.0 - s)
    integral = (sig_r - sig_s) / (2.0 * s.real - 1.0)
    assert abs(series - integral) <= 1e-9


def _mpc_series(n, p):
    """Reference for the fixed-point series: the same sum, stop and bounds
    in mpmath complex arithmetic, each t_j from four mpc products."""
    if n < 1:
        raise DomainError("n must be >= 1")
    headroom = traces._series_digits(n)
    if p.digits < headroom:
        raise InsufficientPrecisionError(
            f"digits={p.digits} < required {headroom} for n={n}")
    j_max = traces._series_j_max(n, p.s, p.digits)
    if j_max > traces._SERIES_TERM_LIMIT:
        raise InsufficientPrecisionError(
            f"series for n={n} needs {j_max} terms at s={p.s}")
    with mp.workdps(p.digits + 10):
        sm = mp.mpc(p.s)
        c = mp.pi * n * n
        cutoff = mp.mpf(10) ** (-p.digits + 2)

        def t_of(j):
            pp = sm + 2 * j
            qq = (2 * j + 1) - sm
            return (4 * j + 1) / (pp * pp.conjugate() * qq * qq.conjugate()).real

        total = mp.mpf(0)
        power = mp.mpf(1)
        running_max = mp.mpf(0)
        t_prev = t_of(0)
        j = 0
        while True:
            term = power * t_prev
            total += term if j % 2 == 0 else -term
            running_max = max(running_max, abs(term))
            if j + 1 > j_max:
                raise InsufficientPrecisionError(
                    f"series for n={n} not certifiably truncated by j_max="
                    f"{j_max}")
            power = power * c / (j + 1)
            t_next = t_of(j + 1)
            ratio = c / (j + 2)
            if ratio < 1 and t_next <= t_prev:
                tail = power * t_next / (1 - ratio)
                if tail < cutoff * running_max:
                    break
            t_prev = t_next
            j += 1
        return mp.mpf(total)


def test_series_needs_headroom_digits():
    p = traces.TraceParams(0.75 - 2.0j, n_max=3, digits=15)
    for route in (traces.tr_cg_n_series, _mpc_series,
                  routes.serial_trace_series):
        with pytest.raises(InsufficientPrecisionError, match="required 28"):
            route(3, p)


@pytest.mark.parametrize("s", [0.75 + 400.0j, 0.6 - 300.0j])
def test_series_runs_past_the_peak_of_t_j(s):
    # t_j rises until j ~ |im s| / sqrt(12), here past the power's peak,
    # so the term bound must follow s as well as n and the digits.
    lo = float(traces.tr_cg_n_series(1, traces.TraceParams(s, digits=60)))
    hi = float(traces.tr_cg_n_series(1, traces.TraceParams(s, digits=100)))
    assert abs(lo - hi) <= 1e-12 * abs(hi)


def test_series_refuses_an_unbounded_term_count():
    p = traces.TraceParams(0.75 + 1e12j)
    for route in (traces.tr_cg_n_series, _mpc_series,
                  routes.serial_trace_series):
        with pytest.raises(InsufficientPrecisionError, match="terms"):
            route(1, p)


def _series_grid(seed, n_values, floor, spare, count):
    """Seeded (n, digits, s) points: re s in {0, 1/2, 1, random}, digits
    from the n's minimum to 200, |im s| up to 500."""
    rng = random.Random(seed)
    points = []
    for n in n_values:
        low = traces._series_digits(n, floor, spare=spare)
        for k in range(count):
            u = (0.0, 0.5, 1.0, rng.random())[k % 4]
            digits = (low, 200, rng.randint(low, 200))[k % 3]
            v = rng.choice((1.0, 10.0, 500.0)) * rng.uniform(0.01, 1.0)
            points.append((n, digits, complex(u, rng.choice((-v, v)))))
    return points


@pytest.mark.parametrize(
    "n, digits, s", _series_grid(20261018, (1, 2, 3), 40, 17, 12))
def test_fixed_point_series_matches_the_mpc_loop(n, digits, s):
    p = traces.TraceParams(s, digits=digits)
    assert float(traces.tr_cg_n_series(n, p)) == float(_mpc_series(n, p))


def test_both_series_routes_refuse_an_uncertified_stop(monkeypatch):
    monkeypatch.setattr(traces, "_series_j_max", lambda n, s, digits: 5)
    monkeypatch.setattr(routes, "linear_series_j_max",
                        lambda n, s, digits: 5)
    p = traces.TraceParams(S_AUDIT)
    for route in (traces.tr_cg_n_series, _mpc_series,
                  routes.serial_trace_series):
        with pytest.raises(InsufficientPrecisionError,
                           match="not certifiably truncated by j_max=5"):
            route(2, p)


def _series_400(n, s):
    """(sum, largest term) of the trace series at 400 digits."""
    with mp.workdps(400):
        u, v = mp.mpf(s.real), mp.mpf(s.imag)
        c = mp.pi * n * n
        total, largest, power, j = mp.mpf(0), mp.mpf(0), mp.mpf(1), 0
        # For j >= 1 both factors of t_j's denominator exceed 4.
        while j <= max(c, abs(v)) or power * (4 * j + 1) > mp.mpf(10) ** -420:
            t = (4 * j + 1) / (((u + 2 * j) ** 2 + v * v)
                               * ((2 * j + 1 - u) ** 2 + v * v))
            term = power * t
            total += -term if j % 2 else term
            largest = max(largest, term)
            j += 1
            power = power * c / j
        return total, largest


@pytest.mark.parametrize("n, digits, s", [
    (3, 30, -242.77j),
    (8, 141, 1.0 - 312.7j),
] + _series_grid(17, range(1, 9), 0, 15, 4))
def test_both_series_routes_meet_their_certified_stop(n, digits, s):
    # The stop certifies the tail relative to the largest term; for n >= 4
    # far up the strip that term is far above the sum itself.
    p = traces.TraceParams(s, digits=digits)
    want, largest = _series_400(n, s)
    bound = 10.0 ** (-digits + 3) * float(largest)
    for route in (traces.tr_cg_n_series, _mpc_series):
        assert abs(float(route(n, p) - want)) <= bound


def _series_outcome(route, n, p):
    """route(n, p) as its exact mpf, or the type and message it raised."""
    try:
        return route(n, p)._mpf_
    except InsufficientPrecisionError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("digits", [15, 40, 60, 120, 200])
@pytest.mark.parametrize("n", range(1, 12))
def test_series_equals_the_serial_loop(n, digits):
    # Bisected term bound, bit-length stop pre-test: the same sum, bit for
    # bit, and the same error where the digits do not admit n.
    for u in (0.5, 0.55, 0.75, 0.95):
        for v in (-0.5, -5.0, -40.0, -400.0):
            p = traces.TraceParams(complex(u, v), digits=digits)
            assert (_series_outcome(traces.tr_cg_n_series, n, p)
                    == _series_outcome(routes.serial_trace_series, n, p))


def test_term_bound_equals_the_linear_scan():
    rng = random.Random(20261019)
    for _ in range(2500):
        n, digits = rng.randint(1, 11), rng.randint(15, 200)
        v = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 6.5)
        s = complex(rng.choice((0.0, 0.5, 1.0, rng.random())), v)
        assert (traces._series_j_max(n, s, digits)
                == routes.linear_series_j_max(n, s, digits)), (n, s, digits)


@pytest.mark.parametrize("s", [S_AUDIT, 0.5 - 14.1j, 0.95 - 300.0j])
@pytest.mark.parametrize("n_max, digits", [(3, 60), (5, 120), (7, 175)])
def test_total_value_shares_one_trace_table(monkeypatch, s, n_max, digits):
    # One table for every n of the call: its terms are the separate
    # series', and it draws each t_j once, only as far as a series reads.
    p = traces.TraceParams(s, n_max, digits)
    separate = [float(traces.tr_cg_n_series(n, p))
                for n in range(1, n_max + 1)]
    fixed_traces, drawn = traces._fixed_traces, []

    def counted(s, prec):
        for j, t in enumerate(fixed_traces(s, prec)):
            drawn.append(j)
            yield t

    monkeypatch.setattr(traces, "_fixed_traces", counted)
    reads = []
    for n in range(1, n_max + 1):
        traces.tr_cg_n_series(n, p)
        reads.append(len(drawn))
        drawn.clear()
    assert traces.tr_cg_total_value(p)[2] == separate
    assert drawn == list(range(max(reads)))


@pytest.mark.parametrize("s, n_max, digits", [
    (0.75 - 2.0j, 3, 60), (0.55 - 9.0j, 5, 60), (0.95 - 40.0j, 2, 40)])
def test_total_value_draws_each_trace_once(monkeypatch, s, n_max, digits):
    # One stream per call, read as far as the largest n's series reads
    # alone: the series of every smaller n stops sooner.
    fixed_traces, opened, yielded = traces._fixed_traces, [], []

    def counted(s, prec):
        opened.append(prec)
        return (yielded.append(t) or t for t in fixed_traces(s, prec))

    monkeypatch.setattr(traces, "_fixed_traces", counted)
    p = traces.TraceParams(s, n_max, digits)
    traces.tr_cg_n_series(n_max, p)
    alone = len(yielded)
    opened.clear()
    yielded.clear()
    traces.tr_cg_total_value(p)
    assert len(opened) == 1
    assert len(yielded) == alone


def _walk_key(res):
    # repr, so that NaN results compare equal too.
    return repr((res.value, res.error_estimate, res.evaluations,
                 res.converged))


def _stripped(report):
    return strip_volatile(reports_to_json([report]))


@pytest.mark.parametrize("s", [S_AUDIT, 0.55 - 9.0j, 0.95 - 40.0j,
                               0.25 + 3.0j, 1.0 - 0.5j])
def test_sigma_rows_equal_their_one_row_walks(s):
    terms = [(n, z) for n in range(1, 7) for z in (s, 1.0 - s)]
    for (n, z), row in zip(terms, traces._sigma_rows(terms)):
        assert _walk_key(row) == _walk_key(traces.tr_cg_sigma_result(n, z))


@pytest.mark.parametrize("terms, match", [
    ([(1, S_AUDIT), (0, S_AUDIT), (1, 0.5 + 0.0j)], "n must be"),
    ([(1, S_AUDIT), (2, 0.5 + 0.0j), (0, S_AUDIT)], "im\\(z\\)"),
    ([(1, -0.25 + 1.0j), (0, S_AUDIT)], "re\\(z\\)"),
])
def test_sigma_rows_raise_what_the_serial_loop_raises(terms, match):
    with pytest.raises(DomainError, match=match) as rows:
        traces._sigma_rows(terms)
    with pytest.raises(DomainError) as serial:
        routes.serial_sigma_rows(terms)
    assert type(rows.value) is type(serial.value)
    assert str(rows.value) == str(serial.value)


@pytest.mark.parametrize("s, n_max, digits", [
    (S_AUDIT, 3, 60), (0.55 - 9.0j, 5, 60), (0.95 - 40.0j, 2, 40),
    (0.25 + 3.0j, 3, 60), (0.5 - 5.0j, 3, 60)])
def test_total_trace_equals_the_serial_loop(monkeypatch, s, n_max, digits):
    p = traces.TraceParams(s, n_max, digits)
    rows = _stripped(traces.tr_cg_total(p))
    monkeypatch.setattr(traces, "_sigma_rows", routes.serial_sigma_rows)
    assert _stripped(traces.tr_cg_total(p)) == rows


def test_total_trace_on_the_critical_line_walks_no_sigma_term(monkeypatch):
    # On re s = 1/2 the series measures the next terms, so a sigma walk
    # would be thrown away.
    def refuse(*args, **kwargs):
        raise AssertionError("no sigma walk on re s = 1/2")

    monkeypatch.setattr(traces, "semi_infinite_rows", refuse)
    monkeypatch.setattr(traces, "integrate_semi_infinite", refuse)
    rep = traces.tr_cg_total(traces.TraceParams(0.5 - 5.0j, 3, 60))
    assert len(rep.extra["measuredNextTerms"]) == 3


def test_total_trace_partial_sum_is_negative_at_audit_point():
    p = traces.TraceParams(S_AUDIT, n_max=3, digits=60)
    value, budget, terms = traces.tr_cg_total_value(p)
    assert value == pytest.approx(-0.19270267889059456, abs=1e-12)
    assert len(terms) == 3
    assert all(t < 0.0 for t in terms)
    rep = traces.tr_cg_total(p)
    assert rep.status == ClaimStatus.VIOLATED
    assert rep.extra["envelopeDominates"] is False
    # claimed envelope is astronomically smaller than the measured terms
    assert rep.extra["claimedTailEnvelope"] < 1e-10
    assert max(abs(m) for m in rep.extra["measuredNextTerms"]) > 1e-3


@pytest.mark.parametrize("n_max, digits, want", [(3, 15, 40), (6, 60, 67)])
def test_total_trace_sizes_its_own_series(n_max, digits, want):
    # At least 40 digits, and 17 beyond the peak e^{pi n_max^2}.
    rep = traces.tr_cg_total(traces.TraceParams(S_AUDIT, n_max, digits))
    assert rep.inputs["digits"] == want
    assert len(rep.extra["seriesTerms"]) == n_max


@pytest.mark.parametrize("s, n_max, need", [
    (0.75 - 2.0j, 12, 214),
    (0.5 - 3.0j, 9, 212),     # on re s = 1/2 the series reaches n = 12
])
def test_total_trace_refuses_a_series_past_200_digits(s, n_max, need,
                                                      monkeypatch):
    def never(n, p):
        raise AssertionError("a series term was summed")

    monkeypatch.setattr(traces, "tr_cg_n_series", never)
    with pytest.raises(InsufficientPrecisionError,
                       match=f"n=12 needs {need} digits"):
        traces.tr_cg_total(traces.TraceParams(s, n_max, 60))


def test_claimed_envelope_formula_sanity():
    env = traces.claimed_tail_envelope(S_AUDIT, d=12, n_start=4)
    assert 0.0 < env < 1e-10
    assert traces.claimed_tail_envelope(S_AUDIT, 1, 4) > env
    with pytest.raises(DomainError):
        traces.claimed_tail_envelope(S_AUDIT, 0, 4)


# -- Poissonian terms --------------------------------------------------------


@pytest.mark.parametrize("L", [0, 1, 2])
def test_reduced_term_matches_incomplete_gamma(L):
    z = 0.75 + 2.0j
    res = traces.poisson_reduced(1, L, z, z.imag)
    want = gamma_route(1, L, z, z.imag)
    assert res.converged
    assert abs(res.value - want) <= 1e-9


def test_reduced_term_negative_frequency_route():
    z = 0.75 - 2.0j
    res = traces.poisson_reduced(1, 1, z, z.imag)
    want = gamma_route(1, 1, z, z.imag)
    assert abs(res.value - want) <= 1e-9


def test_gamma_limit_closed_form():
    z = 0.75 + 2.0j
    with mp.workdps(40):
        a = (mp.mpf(z.real) - 1j * mp.mpf(z.imag)) / 2
        want = float(mp.im(mp.pi ** (-a) * mp.gamma(a)) / (2 * z.imag))
    assert traces.poisson_gamma_limit(1, z) == pytest.approx(want, rel=1e-12)


def test_two_dimensional_route_agrees_with_reduction():
    z = 0.75 + 2.0j
    one_d = traces.poisson_reduced(1, 0, z, z.imag)
    two_d = traces.poisson_term_quadrant(1, 0, z)
    assert abs(one_d.value - two_d.value) <= 1e-6


def test_terms_flatten_at_positive_frequency():
    # For im(z) > 0 the terms approach the nonzero gamma limit, so any
    # two late terms are nearly equal (no decay to zero).
    z = 0.75 + 2.0j
    limit = traces.poisson_gamma_limit(1, z)
    p3 = traces.poisson_reduced(1, 3, z, z.imag).value
    p5 = traces.poisson_reduced(1, 5, z, z.imag).value
    assert abs(p3 - limit) <= 1e-9
    assert abs(p5 - limit) <= 1e-9
    assert abs(limit) > 0.06


def test_terms_decay_at_negative_frequency():
    z = 0.75 - 2.0j
    vals = [abs(traces.poisson_reduced(1, L, z, z.imag).value)
            for L in range(1, 6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # per-step ratio is e^{2 pi u / v} for the leading piece
    ratio = math.exp(2.0 * math.pi * z.real / z.imag)
    for a, b in zip(vals, vals[1:]):
        assert b / a == pytest.approx(ratio, rel=0.05)


@pytest.mark.parametrize("n, z", [(1, 0.75 + 2.0j), (2, 0.55 + 9.0j),
                                  (1, 0.95 + 0.5j), (3, 0.25 + 3.0j)])
def test_poisson_rows_equal_their_one_row_walks(n, z):
    # At v > 0 the tolerance falls with L; at v < 0 it stays 1e-10, so
    # rows of different tolerances share every block.
    terms = [(L, z.real, v) for v in (z.imag, -z.imag) for L in range(10)]
    assert len({traces._poisson_constants(n, L, u, v)[2] > 1.0
                for L, u, v in terms}) == 2
    for (L, u, v), row in zip(terms, traces._poisson_rows(n, terms)):
        one = traces.poisson_reduced(n, L, complex(u, v), v)
        assert _walk_key(row) == _walk_key(one)


@pytest.mark.parametrize("n, z, l_max", [
    (1, 0.75 + 2.0j, 5), (2, 0.55 + 9.0j, 9), (1, 0.95 + 0.5j, 0),
    (3, 0.25 + 3.0j, 4)])
def test_vanishing_audit_equals_the_serial_loop(monkeypatch, n, z, l_max):
    rows = _stripped(traces.poisson_vanishing_audit(n, z, l_max))
    monkeypatch.setattr(traces, "_poisson_rows", routes.serial_poisson_rows)
    assert _stripped(traces.poisson_vanishing_audit(n, z, l_max)) == rows


def test_vanishing_audit_reports_violation():
    rep = traces.poisson_vanishing_audit()
    assert rep.status == ClaimStatus.VIOLATED
    assert rep.extra["limitAgreement"] <= 1e-9
    assert abs(rep.extra["closedFormLimit"]) > 0.06
    assert rep.extra["boundDominates"][-1] is False
    mirrored = rep.extra["mirroredFrequencyValues"]
    assert abs(mirrored[-1]) < abs(mirrored[1])


def test_vanishing_audit_requires_upper_half_plane():
    with pytest.raises(DomainError):
        traces.poisson_vanishing_audit(z=0.75 - 2.0j)
    with pytest.raises(DomainError, match="l_max"):
        traces.poisson_vanishing_audit(l_max=-1)
    for z in (complex(math.nan, 2.0), complex(0.75, math.inf)):
        with pytest.raises(DomainError, match="must be finite"):
            traces.poisson_vanishing_audit(1, z)


def test_reduced_term_scale_guard():
    # exp(a L) overflows double range for extreme parameter combinations
    with pytest.raises(DomainError):
        traces.poisson_reduced(1, 2000, 0.99 + 0.01j, 0.01)


@pytest.mark.parametrize("n, L, z", [
    (0, 1, 0.75 + 2.0j),          # n < 1
    (1, -1, 0.75 + 2.0j),         # L < 0
    (1, 1, 0.75 + 0.0j),          # zero frequency
    (1, 1, 0.0 + 2.0j),           # re(z) = 0
    (1, 2000, 0.99 + 0.01j),      # e^{aL} overflows
    (1, 0, complex(math.nan, 2.0)),
    (1, 0, complex(math.inf, 2.0)),
    (1, 0, complex(0.75, math.inf)),
])
def test_both_routes_reject_the_same_arguments(monkeypatch, n, L, z):
    with pytest.raises(DomainError):
        traces.poisson_reduced(n, L, z, z.imag)
    with pytest.raises(DomainError):
        traces.poisson_term_quadrant(n, L, z)
    # The audit checks every row before its one walk, and raises what its
    # serial loop of poisson_reduced calls raises.
    with pytest.raises(DomainError) as rows:
        traces.poisson_vanishing_audit(n, z, L)
    monkeypatch.setattr(traces, "_poisson_rows", routes.serial_poisson_rows)
    with pytest.raises(DomainError) as serial:
        traces.poisson_vanishing_audit(n, z, L)
    assert type(rows.value) is type(serial.value)
    assert str(rows.value) == str(serial.value)
