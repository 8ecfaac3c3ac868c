"""End-to-end identity checks and the final functional-equation audit."""

import cmath
import math

import numpy as np
import pytest

from zetacheck import cli, rhfe
from zetacheck.errors import DomainError
from zetacheck.quad import QuadSpec
from zetacheck.report import ClaimStatus, reports_to_json, strip_volatile
from zetacheck.specfun import zeta_star

import reference_routes as routes

S_AUDIT = 0.75 - 2.0j


# -- the half-line integral identity -----------------------------------------


@pytest.mark.parametrize("s", [0.5 + 2.0j, 0.2 + 20.0j, 0.8 + 6.5j,
                               0.75 - 2.0j, 0.35 + 11.0j])
def test_race_identity(s):
    r = rhfe.race_check(s)
    assert r.residual <= 1e-10
    assert r.residual <= 10.0 * r.error_budget + 1e-13
    # the pieces must reassemble to the direct value
    recon = r.polar_term + r.j_integral
    assert abs(recon - r.zeta_star_direct) == pytest.approx(r.residual)


def test_race_report_confirms():
    rep = rhfe.race_report(0.6 + 3.0j)
    assert rep.status == ClaimStatus.CONFIRMED
    assert rep.claim_id == "race"


def test_race_rejects_poles():
    with pytest.raises(DomainError):
        rhfe.race_check(0.0 + 0.0j)
    with pytest.raises(DomainError):
        rhfe.race_check(1.0 + 0.0j)


def _spy(monkeypatch, module, name: str) -> list:
    """The results of every call of module.name, recorded in order."""
    real, results = getattr(module, name), []

    def spy(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, spy)
    return results


def test_race_rows_equal_race_check_per_point(monkeypatch):
    # The suite's 25 points and a few off its grid, far up the strip and
    # below the line, walked as rows of one walk: each row's integral ends
    # where race_check's one-row walk ends, bit for bit.
    points = list(cli._RACE_POINTS) + [0.95 - 30.0j, 0.05 + 0.5j,
                                       0.5 - 14.0j, 2.0 + 0.0j]
    walks = _spy(monkeypatch, rhfe, "semi_infinite_rows")
    one_rows = _spy(monkeypatch, rhfe, "integrate_semi_infinite")
    rows = rhfe.race_checks(points)
    serial = [rhfe.race_check(s) for s in points]
    assert repr(rows) == repr(serial)
    (walk,) = walks
    assert [repr((r.value, r.error_estimate, r.evaluations, r.converged))
            for r in walk] == [
        repr((r.value, r.error_estimate, r.evaluations, r.converged))
        for r in one_rows]


def test_race_reports_equal_one_report_per_point():
    points = list(cli._RACE_POINTS)
    assert (strip_volatile(reports_to_json(rhfe.race_reports(points)))
            == strip_volatile(reports_to_json(
                [rhfe.race_report(s) for s in points])))


@pytest.mark.parametrize("at", [0, 2])
@pytest.mark.parametrize("pole", [0.0 + 0.0j, 1.0 + 0.0j])
def test_race_rows_reject_a_pole_at_any_point(at, pole):
    points = [0.5 + 2.0j, 0.3 + 6.5j]
    points.insert(at, pole)
    with pytest.raises(DomainError, match="polar term"):
        rhfe.race_checks(points)


@pytest.mark.parametrize("s", [0.75 - 2.0j, 0.6 + 1.5j, 0.45 - 4.0j])
def test_imaginary_part_consistency(s):
    # im zeta*(s) = im(polar term) + im of the half-line integral
    direct = zeta_star(s).imag
    polar = (1.0 / (s * (s - 1.0))).imag
    j_im = routes.im_j_direct(s)
    assert abs(direct - (polar + float(np.real(j_im.value)))) <= 1e-10


# -- per-n slices ------------------------------------------------------------


def test_single_n_slice_decays_fast_in_n():
    v6 = rhfe.im_j_n(6, S_AUDIT)
    assert abs(v6.value) <= 1e-20


def test_single_n_slice_vanishes_on_critical_line():
    res = rhfe.im_j_n(1, 0.5 - 3.0j)
    assert res.value == 0.0


def test_slices_sum_to_direct_integral():
    s = S_AUDIT
    direct = routes.im_j_direct(s)
    n_cut = 4
    slices = [rhfe.im_j_n(n, s) for n in range(1, n_cut + 1)]
    total = 2.0 * math.fsum(float(np.real(r.value)) for r in slices)
    tail = 2.0 * routes.j_tail_bound(s.real, 8, n_cut + 1)
    budget = (direct.error_estimate
              + 2.0 * math.fsum(r.error_estimate for r in slices) + tail)
    assert abs(float(np.real(direct.value)) - total) <= budget + 1e-12


def test_tail_bound_properties():
    b5 = routes.j_tail_bound(0.75, 8, 5)
    assert b5 < 1e-12                      # far below any working tolerance
    assert routes.j_tail_bound(0.75, 8, 3) > b5
    # it must dominate an actual downstream slice
    assert abs(2.0 * complex(rhfe.im_j_n(5, S_AUDIT).value)) <= \
        routes.j_tail_bound(0.75, 8, 5)
    with pytest.raises(DomainError):
        routes.j_tail_bound(0.75, 1, 5)
    with pytest.raises(DomainError):
        routes.j_tail_bound(1.5, 8, 5)


# -- finite oscillatory antiderivative ----------------------------------------


@pytest.mark.parametrize("w, v, big_n", [
    (1.0, 2.0, 1.5),
    (-2.0, 3.0, 4.0),
    (0.5, -1.0, 2.0 * math.pi),
    (-0.1, 0.25, 0.1),
])
def test_antiderivative_matches_quadrature(w, v, big_n):
    closed = rhfe.newton_leibnitz(w, v, big_n)
    quad = rhfe.newton_leibnitz_quadrature(w, v, big_n)
    assert abs(closed - float(np.real(quad.value))) <= 1e-10


def test_antiderivative_at_zero_growth():
    v, big_n = 2.0, 3.0
    want = (1.0 - math.cos(v * big_n)) / v
    assert rhfe.newton_leibnitz(0.0, v, big_n) == pytest.approx(want,
                                                                rel=1e-14)


def test_antiderivative_guards():
    with pytest.raises(DomainError):
        rhfe.newton_leibnitz(1.0, 0.0, 2.0)
    with pytest.raises(DomainError):
        rhfe.newton_leibnitz_quadrature(200.0, 1.0, 30.0)  # e^{Nw} overflow


# -- the claimed finite-cutoff decomposition ----------------------------------


def test_decomposition_audit_as_stated_and_corrected():
    rep = rhfe.decomposition_audit(1, S_AUDIT, 5)
    assert rep.status == ClaimStatus.VIOLATED
    assert rep.abs_residual > 1e3 * rep.error_estimate
    # both groupings must reconstruct exactly from the reported pieces
    p_s = rep.extra["poissonTermAtS"]
    p_r = rep.extra["poissonTermAtReflected"]
    tp = rep.extra["traceProduct"]
    assert complex(rep.rhs).real == pytest.approx((p_s - p_r) + tp,
                                                  abs=1e-15)
    corrected = abs(rep.extra["imJn"]
                    - (S_AUDIT.imag * (p_r - p_s) - tp))
    assert corrected == pytest.approx(rep.extra["correctedResidual"],
                                      abs=1e-15)
    # The exact reshuffle closes to quadrature accuracy.
    assert rep.extra["correctedResidual"] <= 1e-10
    assert rep.extra["cutoffN"] == pytest.approx(5.0 * math.pi, rel=1e-15)


def test_decomposition_corrected_form_other_point():
    s = 0.6 + 1.5j
    rep = rhfe.decomposition_audit(1, s, 4)
    assert rep.extra["correctedResidual"] <= 1e-9


# -- final audit ---------------------------------------------------------------


def test_final_identity_on_critical_line():
    rep = rhfe.rhfe_residual(0.5 - 5.0j)
    assert rep.status == ClaimStatus.CONFIRMED
    assert abs(complex(rep.lhs)) <= 1e-9
    assert abs(complex(rep.rhs)) <= 1e-9
    assert rep.extra["trivialZeroFactor"] == 0.0


def test_final_identity_fails_off_critical_line():
    rep = rhfe.rhfe_residual(S_AUDIT)
    assert rep.status == ClaimStatus.VIOLATED
    assert complex(rep.lhs).real == pytest.approx(0.05371697541819621,
                                                  abs=1e-10)
    assert complex(rep.rhs).real == pytest.approx(0.19270267889059456,
                                                  abs=1e-9)


def test_final_audit_sizes_its_own_series():
    # At least 40 digits: n = 3 alone needs 28 at 15 beyond its peak.
    assert rhfe.rhfe_residual(S_AUDIT, 15).inputs["digits"] == 40
    assert rhfe.rhfe_residual(S_AUDIT, 120).inputs["digits"] == 120


def test_decomposition_audit_sizes_its_own_series():
    assert rhfe.decomposition_audit(1, S_AUDIT, 5, 15).inputs["digits"] == 50
    # n = 6 peaks near 10^49, so 17 spare digits make 67.
    assert rhfe.decomposition_audit(6, S_AUDIT, 0, 15).inputs["digits"] == 67


def test_final_audit_region_guard():
    with pytest.raises(DomainError):
        rhfe.rhfe_residual(0.3 - 1.0j)
    rep = rhfe.rhfe_residual(0.3 - 1.0j, allow_outside_region=True)
    assert "WARN" in rep.notes


def test_final_audit_never_raises_on_disagreement():
    # worst offenders across the region still produce finite reports
    for s in (0.55 - 2.0j, 0.95 - 10.0j):
        rep = rhfe.rhfe_residual(s)
        assert cmath.isfinite(complex(rep.lhs))
        assert cmath.isfinite(complex(rep.rhs))
        assert math.isfinite(rep.abs_residual)


def test_race_quadrature_budget_is_honest():
    spec = QuadSpec(abs_tol=1e-12, rel_tol=1e-12)
    r = rhfe.race_check(0.5 + 14.0j, spec)
    assert r.residual <= 10.0 * r.error_budget + 1e-13
