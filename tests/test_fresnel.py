"""Oscillatory-transform layer: closed forms, derivative link, positivity."""

import math
from dataclasses import replace

import numpy as np
import pytest

from zetacheck import fresnel, quad
from zetacheck.amplitudes import AmplitudeSpec, Family
from zetacheck.cli import _SEED_BASE
from zetacheck.errors import AmplitudeError, DomainError
from zetacheck.quad import OscKind, QuadSpec
from zetacheck.report import ClaimStatus, reports_to_json, strip_volatile

import reference_routes as routes

TIGHT = QuadSpec(abs_tol=1e-12, rel_tol=1e-12)


@pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("nu", [0.5, 1.0, 2.0, 7.5])
def test_exponential_sine_closed_form(a, nu):
    amp = AmplitudeSpec.exponential(a)
    got = fresnel.fresnel_sin(amp, nu, TIGHT)
    assert abs(got.value - nu / (a * a + nu * nu)) <= 1e-10


@pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("nu", [0.5, 1.0, 2.0, 7.5])
def test_exponential_cosine_closed_form(a, nu):
    amp = AmplitudeSpec.exponential(a)
    got = fresnel.fresnel_cos(amp, nu, TIGHT)
    assert abs(got.value - a / (a * a + nu * nu)) <= 1e-10


def test_closed_form_helpers_match_quadrature():
    amp = AmplitudeSpec.exponential(1.3)
    for nu in (0.7, 2.0):
        s = fresnel.closed_form_sin(amp, nu)
        c = fresnel.closed_form_cos(amp, nu)
        assert s == pytest.approx(nu / (1.3 ** 2 + nu ** 2), rel=1e-15)
        assert c == pytest.approx(1.3 / (1.3 ** 2 + nu ** 2), rel=1e-15)
    # No elementary form is claimed for the gaussian family.
    assert fresnel.closed_form_sin(AmplitudeSpec.gaussian(1.0), 1.0) is None


@pytest.mark.parametrize("closed", [fresnel.closed_form_sin,
                                    fresnel.closed_form_cos])
@pytest.mark.parametrize("amp, nu", [
    (AmplitudeSpec.inv_sqrt(), 0.0),         # both transforms diverge
    (AmplitudeSpec.inv_sqrt(), -1.0),
    (AmplitudeSpec.exponential(1.0), math.inf),
    (AmplitudeSpec.exponential(1.0), math.nan),
])
def test_closed_forms_reject_a_frequency_outside_their_domain(closed, amp,
                                                              nu):
    with pytest.raises(DomainError):
        closed(amp, nu)


@pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
def test_reciprocal_amplitude_gives_half_pi(nu):
    got = fresnel.fresnel_sin(AmplitudeSpec.reciprocal(), nu, TIGHT)
    assert abs(got.value - math.pi / 2.0) <= 1e-7


@pytest.mark.parametrize("nu", [0.0, -1.0, math.nan, math.inf])
def test_both_classic_routes_reject_a_bad_frequency(nu):
    # The closed form and the quadrature route reject the same frequencies,
    # as bad input: DomainError.
    with pytest.raises(DomainError):
        fresnel.fresnel_classic_value(nu)
    with pytest.raises(DomainError):
        fresnel.fresnel_classic(nu)
    with pytest.raises(DomainError):
        fresnel.fresnel_classic_rows([1.0, nu])


@pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
def test_classic_quadratic_phase_value(nu):
    got = fresnel.fresnel_classic(nu)
    want = fresnel.fresnel_classic_value(nu)
    assert want == 0.5 * math.sqrt(math.pi / (2.0 * nu))
    assert abs(got.value - want) <= 1e-7


@pytest.mark.parametrize("amp", [
    AmplitudeSpec.exponential(1.0),
    AmplitudeSpec.gaussian(1.0),
    AmplitudeSpec.rational(2.0),
    AmplitudeSpec.rational(3.5),
])
def test_derivative_identity(amp):
    resid, budget, converged = fresnel.derivative_identity(amp, 1.5, TIGHT)
    assert converged
    assert resid <= max(5.0 * budget, 1e-8)
    assert resid <= 1e-7


def test_derivative_identity_rows_equal_one_row_calls():
    # Repeated amplitudes and frequencies share the two walks; every row
    # ends where its own derivative_identity call ends.
    amps = [AmplitudeSpec.exponential(1.0), AmplitudeSpec.gaussian(1.0),
            AmplitudeSpec.rational(2.0), AmplitudeSpec.rational(3.5),
            AmplitudeSpec.exponential(1.0), AmplitudeSpec.gaussian(1.0)]
    nus = [1.5, 1.5, 1.5, 0.7, 4.0, 0.3]
    rows = fresnel.derivative_identity_rows(amps, nus, TIGHT)
    assert repr(rows) == repr([fresnel.derivative_identity(a, nu, TIGHT)
                               for a, nu in zip(amps, nus)])


def test_derivative_identity_rows_reject_an_improper_amplitude():
    with pytest.raises(AmplitudeError, match="proper amplitude"):
        fresnel.derivative_identity_rows(
            [AmplitudeSpec.exponential(1.0), AmplitudeSpec.inv_sqrt()],
            [1.0, 1.0])


def test_positivity_audit_confirms():
    rep = fresnel.positivity_audit(seed=20260815)
    assert rep.status == ClaimStatus.CONFIRMED
    assert rep.inputs["nSamples"] >= 200
    # worst sampled value must be positive by more than its own error bar
    assert rep.lhs > rep.error_estimate


def test_positivity_audit_is_seed_deterministic():
    a = fresnel.positivity_audit(seed=4)
    b = fresnel.positivity_audit(seed=4)
    assert a.lhs == b.lhs and a.inputs == b.inputs


# -- amplitude admission -----------------------------------------------------


def test_amplitude_validation_rejects_bad_parameters():
    with pytest.raises(AmplitudeError):
        AmplitudeSpec.exponential(-1.0)
    with pytest.raises(AmplitudeError):
        AmplitudeSpec.gaussian(0.0)
    with pytest.raises(AmplitudeError):
        AmplitudeSpec.rational(1.0)   # not integrable


def test_amplitude_total_integrals():
    assert AmplitudeSpec.exponential(2.0).total_integral() == pytest.approx(0.5)
    assert AmplitudeSpec.gaussian(1.0).total_integral() == pytest.approx(
        0.5 * math.sqrt(math.pi))
    assert AmplitudeSpec.rational(3.0).total_integral() == pytest.approx(0.5)
    with pytest.raises(AmplitudeError):
        AmplitudeSpec.reciprocal().total_integral()


def test_amplitude_pcid_audit_passes_for_all_families():
    for fam in Family:
        spec = AmplitudeSpec(fam, 2.0 if fam == Family.RATIONAL else 1.0)
        spec.validate_pcid()


def test_improper_flags():
    assert AmplitudeSpec.reciprocal().improper
    assert AmplitudeSpec.inv_sqrt().improper
    assert not AmplitudeSpec.exponential(1.0).improper


def test_amplitude_derivative_consistency():
    amp = AmplitudeSpec.rational(2.5)
    xs = np.array([0.5, 1.0, 4.0])
    v, d = amp.value(xs), amp.derivative(xs)
    assert np.all(v > 0.0) and np.all(d < 0.0)


@pytest.mark.parametrize("seed", [20260815, 4])
def test_positivity_audit_matches_serial_transforms(seed):
    # The audit walks each family's frequencies as rows of one lobe walk;
    # it must report what one lobe-at-a-time walk per frequency, ended on
    # its integration-by-parts tail, gives.
    rng = np.random.default_rng(seed)
    per = fresnel._N_SAMPLES // len(fresnel._DEFAULT_FAMILIES)
    worst, lcb, converged = None, math.inf, True
    for amp in fresnel._DEFAULT_FAMILIES:
        for nu in fresnel._NU_MAX * (1.0 - rng.random(per)):
            res = routes.serial_transform(amp, float(nu), OscKind.SIN,
                                          fresnel._SPEC_POSITIVITY)
            lcb = min(lcb, res.value - 3.0 * res.error_estimate)
            converged = converged and res.converged
            if worst is None or res.value < worst[0]:
                worst = (res.value, res.error_estimate,
                         {"family": amp.family.value,
                          "parameter": amp.parameter, "nu": float(nu)})
    rep = fresnel.positivity_audit(seed=seed)
    assert converged and lcb > 0.0   # the serial verdict is CONFIRMED
    assert (rep.lhs, rep.error_estimate, rep.inputs["minAt"], rep.status) == (
        worst[0], worst[1], worst[2], ClaimStatus.CONFIRMED)


def test_positivity_audit_is_inconclusive_when_a_row_does_not_converge(
        monkeypatch):
    real = fresnel.integrate_oscillatory_rows

    calls = []

    def first_row_unconverged(*args, **kwargs):
        rows = real(*args, **kwargs)
        if not calls:
            rows[0] = replace(rows[0], converged=False)
        calls.append(len(rows))
        return rows

    monkeypatch.setattr(fresnel, "integrate_oscillatory_rows",
                        first_row_unconverged)
    rep = fresnel.positivity_audit(seed=20260815)
    assert calls == [240]   # one walk of all 240 rows
    assert rep.status == ClaimStatus.INCONCLUSIVE
    assert rep.notes == ("1 of 240 sampled transforms did not converge "
                         "or are not finite")


def test_positivity_audit_is_inconclusive_when_a_row_is_nan(monkeypatch):
    # Row 3 of each family reads NaN with its converged flag left set.
    # Folds that drop NaN would still confirm on the other 236 rows.
    real = fresnel.integrate_oscillatory_rows
    per = fresnel._N_SAMPLES // len(fresnel._DEFAULT_FAMILIES)

    def nan_rows(*args, **kwargs):
        rows = real(*args, **kwargs)
        assert len(rows) == fresnel._N_SAMPLES   # one walk of all 240 rows
        for r in range(3, len(rows), per):
            rows[r] = replace(rows[r], value=math.nan)
        return rows

    monkeypatch.setattr(fresnel, "integrate_oscillatory_rows", nan_rows)
    rep = fresnel.positivity_audit(seed=20260815)
    assert rep.status == ClaimStatus.INCONCLUSIVE
    assert rep.notes == ("4 of 240 sampled transforms did not converge "
                         "or are not finite")
    assert math.isnan(rep.lhs)
    assert math.isnan(rep.abs_residual)


def test_positivity_audit_reports_its_evaluations():
    # The sum of the 240 rows' evaluations, deterministic per seed.  The
    # rows with no tail stop end at the first block edge where their
    # integration-by-parts tail meets tolerance, most at the first; epsilon,
    # which needs a second edge to agree with the first, took 220,530
    # evaluations at this seed, and walking them to the 768-lobe cap
    # 1,147,410.
    rows = []
    rng = np.random.default_rng(20260815)
    per = fresnel._N_SAMPLES // len(fresnel._DEFAULT_FAMILIES)
    for amp in fresnel._DEFAULT_FAMILIES:
        rows += [routes.serial_transform(amp, float(nu), OscKind.SIN,
                                         fresnel._SPEC_POSITIVITY)
                 for nu in fresnel._NU_MAX * (1.0 - rng.random(per))]
    rep = fresnel.positivity_audit(seed=20260815)
    assert rep.extra == {"evaluations": sum(r.evaluations for r in rows)}
    assert rep.extra["evaluations"] <= 150_000


def test_rational_derivative_check_stops_early():
    # (1 + x)^-2 and its derivative have no tail stop: the declared side
    # ends on its integration-by-parts tail and the derivative side on
    # epsilon, both at a block edge instead of walking to the lobe cap.
    amp, spec = AmplitudeSpec.rational(2.0), QuadSpec(1e-10, 1e-10)
    lhs = fresnel.fresnel_cos(amp, 1.5, spec)
    rhs = quad.oscillatory_raw(amp.derivative, 1.5, OscKind.SIN, spec)
    assert lhs.converged and rhs.converged
    assert lhs.evaluations <= 5_000 and rhs.evaluations <= 5_000
    resid, budget, ok = fresnel.derivative_identity(amp, 1.5, spec)
    assert ok and resid <= budget


@pytest.mark.parametrize("k", [89, 365, 531, 593, 831, 936, 1061, 1167,
                               3231])
def test_positivity_audit_equals_the_four_walk_reference(k):
    # One walk of all 240 rows reports what one walk per family reports,
    # at the seeds whose blind first lobe leaves the audit INCONCLUSIVE
    # (ROADMAP item 2) and at the verify seed 3231.
    seed = _SEED_BASE + k
    one_walk = fresnel.positivity_audit(seed=seed)
    four_walks = routes.four_walk_positivity_audit(seed)
    assert (strip_volatile(reports_to_json([one_walk]))
            == strip_volatile(reports_to_json([four_walks])))


def _declared_oracle(amp: AmplitudeSpec, nu: float, sine: bool) -> float:
    a = amp.parameter
    if amp.family == Family.EXP:
        return (nu if sine else a) / (a * a + nu * nu)
    if amp.family == Family.GAUSS:
        return routes.gauss_transform(a, nu, sine)
    if amp.family == Family.RATIONAL:
        return routes.rational_transform_contour(a, nu, sine)
    if amp.family == Family.RECIPROCAL:
        return math.pi / 2.0
    return math.sqrt(math.pi / (2.0 * nu))


@pytest.mark.parametrize("seed", [20261021, 7])
def test_declared_tails_are_honest_against_oracles(seed):
    # Every converged row of every declared family, sine and cosine, covers
    # its miss against an independent oracle.  exp rows at nu = 4a-6a,
    # about the smallest nu whose rows reach a block edge before a tail
    # stop, so where the expansion ratio a / nu of a tail is largest; gauss
    # rows at the nu whose first block edge lies within
    # 30% of sqrt(3 / (2a)), where A''' turns negative, so that rows end
    # on the Dirichlet bound and on the one-term expansion; the rest over
    # nu in [0.05, 50].  A smaller nu makes the first lobe blind to the
    # amplitude, a fault of the lobe panels, not of the tails (ROADMAP
    # item 2, test_oscillatory_fast_decay_is_not_silently_lost).  gauss(1e-3)
    # at nu = 100 is far from its bound at lobe 768: it ends there,
    # unconverged, and its estimate still covers its miss.
    rng = np.random.default_rng(seed)

    def log_nu():
        return math.exp(rng.uniform(math.log(0.05), math.log(50.0)))

    rows = []
    for _ in range(8):
        a, g = math.exp(rng.uniform(math.log(0.2), math.log(5.0))), \
            rng.uniform(0.3, 3.0)
        rows += [(AmplitudeSpec.exponential(a), a * rng.uniform(4.0, 6.0)),
                 (AmplitudeSpec.exponential(a), log_nu()),
                 (AmplitudeSpec.gaussian(g), 32 * math.pi
                  * math.sqrt(2.0 * g / 3.0) * rng.uniform(0.7, 1.3)),
                 (AmplitudeSpec.gaussian(g), log_nu()),
                 (AmplitudeSpec.rational(rng.uniform(1.2, 4.0)), log_nu())]
    rows += [(AmplitudeSpec.reciprocal(), log_nu()),
             (AmplitudeSpec.inv_sqrt(), log_nu()),
             (AmplitudeSpec.gaussian(1e-3), 100.0)]
    spec = QuadSpec(abs_tol=1e-9, rel_tol=1e-9)
    for kind in OscKind:
        sine = kind == OscKind.SIN
        pairs = [(amp, nu) for amp, nu in rows
                 if sine or amp.family != Family.RECIPROCAL]
        amps, nus = zip(*pairs)
        results = quad.integrate_oscillatory_rows(amps, nus, kind, spec)
        for (amp, nu), res in zip(pairs, results):
            miss = abs(res.value - _declared_oracle(amp, nu, sine))
            assert miss <= res.error_estimate, (amp, nu, kind)
            assert res.converged == (amp.parameter != 1e-3), (amp, nu, kind)
        assert results[-1].evaluations == quad._MAX_LOBES * 15
