"""Quadrature engine: closed-form targets, honesty, and failure flags.

Every target here has an elementary antiderivative or a classical value, so
the engine's error estimates can be checked against true errors (honesty:
the reported estimate must dominate the actual miss).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from zetacheck import quad
from zetacheck.amplitudes import AmplitudeSpec
from zetacheck.errors import DomainError
from zetacheck.laplace import complex_form
from zetacheck.quad import (OscKind, QuadSpec, integrate_finite,
                            integrate_diag_reduced, integrate_oscillatory,
                            integrate_quadrant, integrate_semi_infinite,
                            oscillatory_raw, oscillatory_rows)

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
    lambda f: oscillatory_rows(f, [0.3, 2.0, 9.0, 40.0], OscKind.COS),
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


# -- oscillatory half-line ---------------------------------------------------


def test_oscillatory_exp_amplitude():
    res = integrate_oscillatory(AmplitudeSpec.exponential(1.0), 2.0,
                                OscKind.SIN)
    assert abs(res.value - 2.0 / 5.0) <= 1e-10        # nu/(1+nu^2)
    res2 = integrate_oscillatory(AmplitudeSpec.exponential(1.0), 2.0,
                                 OscKind.COS)
    assert abs(res2.value - 1.0 / 5.0) <= 1e-10       # 1/(1+nu^2)


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


def _serial_lobe_sum(f, nu, kind, spec, max_lobes):
    """Reference for the rows walker: one lobe walk that fetches a block
    only when it needs that block's first lobe.

    Returns (value, error, evaluations, converged, lobes consumed).
    """
    osc = np.sin if kind == OscKind.SIN else np.cos
    shift = 0.0 if kind == OscKind.SIN else 0.5
    evals = 0

    def lobes():
        nonlocal evals
        for k0 in range(0, max_lobes + 1, quad._LOBE_BLOCK):
            ks = range(k0, k0 + quad._LOBE_BLOCK)
            block = list(quad._lockstep(
                lambda x, _: f(x) * osc(nu * x),
                [max(k - shift, 0.0) * math.pi / nu for k in ks],
                [(k + 1 - shift) * math.pi / nu for k in ks],
                spec.abs_tol / 50.0, 1e-10, 24))
            evals += sum(r[2] for r in block)
            yield from block

    walk, partials, used = lobes(), [], 0
    total, total_err, tail, converged = 0j, 0.0, 0.0, False
    lobes_converged = True
    for k in range(max_lobes):
        val, err, _, conv, *_ = next(walk)
        total, total_err, used = total + val, total_err + err, used + 1
        lobes_converged = lobes_converged and conv
        partials.append(total)
        if k >= 1 and abs(val) < spec.abs_tol / 10.0:
            nval, nerr, _, conv, *_ = next(walk)
            tail, converged, used = abs(nval) + nerr, True, used + 1
            lobes_converged = lobes_converged and conv
            break
    if not converged and len(partials) >= 16:
        accel = quad._iterated_average(partials)
        tail = 3.0 * abs(accel - quad._iterated_average(partials[:-2]))
        total = accel
        converged = tail < 10.0 * max(spec.abs_tol, spec.rel_tol * abs(total))
    return (total, total_err + tail, evals, converged and lobes_converged,
            used)


@pytest.mark.parametrize("amp, kind, nus, spec, max_lobes", [
    # exp(-2x) at nu = 8.12 (sin) and 7.87 (cos) stops at lobe 31, so its
    # tail lookahead is the first lobe of the next block.
    (AmplitudeSpec.exponential(2.0), OscKind.SIN, [0.7, 8.12, 17.15, 30.0],
     QuadSpec(), 4096),
    (AmplitudeSpec.exponential(2.0), OscKind.COS, [0.7, 7.87, 16.9, 30.0],
     QuadSpec(), 4096),
    # rational(2.5) rows reach max_lobes and take iterated averaging.
    (AmplitudeSpec.rational(2.5), OscKind.SIN, [0.5, 3.0, 20.0],
     QuadSpec(abs_tol=1e-9, rel_tol=1e-9), 768),
], ids=["exp-sin", "exp-cos", "rational-sin-capped"])
def test_oscillatory_rows_match_one_row_walks(amp, kind, nus, spec, max_lobes):
    rows = oscillatory_rows(amp.value, nus, kind, spec, max_lobes)
    used = []
    for nu, row in zip(nus, rows):
        one = oscillatory_raw(amp.value, nu, kind, spec, max_lobes)
        *ref, n_used = _serial_lobe_sum(amp.value, nu, kind, spec, max_lobes)
        used.append(n_used)
        for res in (row, one):
            assert (complex(res.value), res.error_estimate, res.evaluations,
                    res.converged) == (complex(ref[0]), *ref[1:])
    if max_lobes == 768:
        assert used == [768] * len(nus)
    else:
        # Rows stop in different blocks, one just past a block edge.
        assert len({-(-n // quad._LOBE_BLOCK) for n in used}) > 1
        assert any(n % quad._LOBE_BLOCK == 1 for n in used)


@pytest.mark.parametrize("nu, max_lobes", [
    (0.0, 4096), (-1.0, 4096), (math.nan, 4096), (math.inf, 4096),
    (1001.0, 4096), (2.0, 1), (2.0, 0),
])
def test_oscillatory_rejects_bad_input(nu, max_lobes):
    f = lambda x: np.exp(-x)
    with pytest.raises(DomainError):
        oscillatory_raw(f, nu, OscKind.SIN, max_lobes=max_lobes)
    with pytest.raises(DomainError):
        oscillatory_rows(f, [1.0, nu], OscKind.COS, max_lobes=max_lobes)


def test_improper_power_reports_lobe_convergence():
    # cos(u)/u is not integrable at 0, so the first lobe cannot converge.
    assert not quad._improper_power(1.0, OscKind.COS, QuadSpec()).converged
    for power, kind in ((1.0, OscKind.SIN), (0.5, OscKind.SIN),
                        (0.5, OscKind.COS)):
        assert quad._improper_power(power, kind, QuadSpec()).converged


def test_lobe_walk_reports_lobe_convergence():
    # The jump at 1.3 keeps the first lobe unconverged at the depth cap, so
    # the walk must not report convergence, though its tail stop fires.
    f = lambda x: np.where(x < 1.3, np.exp(-x), 0.0)
    res = oscillatory_raw(f, 1.0, OscKind.SIN)
    assert not res.converged
    assert res.error_estimate > QuadSpec().abs_tol
    assert not oscillatory_rows(f, [2.0, 1.0], OscKind.SIN)[1].converged
    assert oscillatory_raw(lambda x: np.exp(-x), 1.0, OscKind.SIN).converged


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
    # lockstep; each must equal its own one-node public evaluation.
    z, spec = 0.8 - 2.65j, QuadSpec()
    inner_spec = replace(spec, abs_tol=max(spec.abs_tol / 64.0, 1e-14),
                         rel_tol=max(spec.rel_tol / 16.0, 1e-13))

    def f2(l1, l2):
        return np.exp(-complex_form(z, (l1, l2)))

    def marginal(l1):
        return np.array([complex(integrate_semi_infinite(
            lambda l2: f2(node, l2), 0.0, inner_spec).value)
            for node in l1.ravel()]).reshape(l1.shape)

    reference = integrate_semi_infinite(marginal, 0.0, spec)
    res = integrate_quadrant(f2, spec)
    assert abs(complex(res.value) - complex(reference.value)) <= 1e-14


def test_diag_reduction_agrees_with_quadrant():
    g = lambda w: np.exp(-1.7 * w)
    direct = integrate_quadrant(lambda l1, l2: np.exp(-1.7 * (l1 + l2)))
    reduced = integrate_diag_reduced(g)
    assert abs(reduced.value - 1.0 / 1.7 ** 2) <= 1e-11
    assert abs(direct.value - reduced.value) <= 1e-8


# -- spec validation ---------------------------------------------------------


def test_quad_spec_rejects_bad_tolerances():
    with pytest.raises(ValueError):
        QuadSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadSpec(rel_tol=2.0)
