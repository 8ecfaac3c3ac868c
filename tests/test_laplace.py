"""Transform representations and the kernel-positivity audits.

The indefinite two-point sample has a fully hand-checkable 2x2 kernel, so
its minimum eigenvalue is computed in closed form here and compared with
the engine's verdict.
"""

import math
import warnings

import numpy as np
import pytest

from zetacheck import laplace
from zetacheck.errors import DomainError
from zetacheck.report import ClaimStatus, reports_to_json, strip_volatile

import reference_routes as routes


# -- representation checks ---------------------------------------------------


@pytest.mark.parametrize("z", [2.0 + 0.0j, 1.0 + 1.0j, 0.25 + 10.0j,
                               0.5 - 3.0j, 4.0 + 0.5j])
def test_inverse_representation(z):
    rep = laplace.rep_inverse_z(z)
    assert rep.status == ClaimStatus.CONFIRMED
    assert rep.abs_residual <= 1e-8
    assert abs(complex(rep.rhs) - 1.0 / z) <= 1e-15


@pytest.mark.parametrize("z", [1.0 + 0.0j, 3.0 + 4.0j, 0.5 + 2.0j,
                               2.0 - 1.0j, 1.0 + 5.0j])
def test_quadrant_representation(z):
    rep = laplace.rep_green_complex(z)
    assert rep.abs_residual <= 1e-6
    assert complex(rep.rhs).real == pytest.approx(1.0 / abs(z) ** 2,
                                                  rel=1e-15)


def test_representations_need_open_half_plane():
    with pytest.raises(DomainError):
        laplace.rep_inverse_z(-1.0 + 2.0j)
    with pytest.raises(DomainError):
        laplace.rep_green_complex(0.0 + 1.0j)


@pytest.mark.parametrize("z", [complex(math.inf, 0.0), complex(math.nan, 1.0),
                               complex(1.0, -math.inf)])
@pytest.mark.parametrize("rep", [laplace.rep_inverse_z,
                                 laplace.rep_green_complex,
                                 laplace.rep_green_fresnel])
def test_representations_reject_a_non_finite_argument(rep, z, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a quadrature ran on a non-finite argument")

    monkeypatch.setattr(laplace, "integrate_semi_infinite", never)
    monkeypatch.setattr(laplace, "integrate_quadrant", never)
    with pytest.raises(DomainError, match="z must be finite"):
        rep(z)


def test_fresnel_route_direct_and_factored():
    direct, factored = laplace.rep_green_fresnel(1.0 + 0.0j)
    assert direct.status == ClaimStatus.CONFIRMED
    assert direct.abs_residual <= 1e-8
    # The factored route loses exactly half the quadrant: lhs = rhs / 2.
    assert factored.status == ClaimStatus.VIOLATED
    assert complex(factored.lhs).real == pytest.approx(
        0.5 * complex(factored.rhs).real, rel=1e-12)


def test_fresnel_route_factored_half_with_oscillation():
    direct, factored = laplace.rep_green_fresnel(1.0 + 2.0j)
    assert direct.abs_residual <= 1e-6
    assert complex(factored.lhs).real == pytest.approx(
        0.5 / abs(1.0 + 2.0j) ** 2, rel=1e-8)


# -- Gram kernel -------------------------------------------------------------


def test_gram_diagonal_sample_is_psd():
    diag = laplace.GramSample(points=tuple((t, t) for t in
                                           (0.2, 0.5, 1.0, 2.0, 5.0)))
    rep = laplace.gram_psd_check(diag)
    assert rep.status == ClaimStatus.CONFIRMED


def test_gram_two_point_sample_is_indefinite():
    # Kernel matrix for points (1, .1), (.1, 1):
    #   diag 1/(2^2 + .2^2) = 1/4.04, off-diag 1/(1.1^2 + 1.1^2) = 1/2.42;
    # min eigenvalue = 1/4.04 - 1/2.42 < 0 in closed form.
    pair = laplace.GramSample(points=((1.0, 0.1), (0.1, 1.0)),
                              weights=(1.0, -1.0))
    rep = laplace.gram_psd_check(pair)
    lam_min = 1.0 / 4.04 - 1.0 / 2.42
    assert rep.status == ClaimStatus.VIOLATED
    assert complex(rep.lhs).real == pytest.approx(lam_min, rel=1e-12)
    assert rep.extra["quadraticForm"] == pytest.approx(2.0 * lam_min,
                                                       rel=1e-12)


def test_gram_sample_validation():
    with pytest.raises(DomainError):
        laplace.GramSample(points=((0.0, 1.0),))          # on the boundary
    with pytest.raises(DomainError):
        laplace.GramSample(points=((1.0, 1.0),), weights=(1.0, 2.0))
    with pytest.raises(DomainError):
        laplace.GramSample(points=())


def test_lhpd_search_finds_a_witness():
    rep = laplace.lhpd_falsify(seed=20260815)
    assert rep.status == ClaimStatus.VIOLATED
    assert complex(rep.lhs).real < -0.1
    # recompute the eigenvalue at the reported witness independently
    pts = [tuple(p) for p in rep.extra["witness"]]
    m = np.array([[1.0 / ((a[0] + b[0]) ** 2 + (a[1] + b[1]) ** 2)
                   for b in pts] for a in pts])
    lam = np.linalg.eigvalsh(m)[0]
    assert lam == pytest.approx(complex(rep.lhs).real, rel=1e-9)


def test_lhpd_search_is_deterministic():
    a = laplace.lhpd_falsify(seed=11)
    b = laplace.lhpd_falsify(seed=11)
    assert a.lhs == b.lhs
    assert a.extra["witness"] == b.extra["witness"]


def test_lhpd_search_reads_the_most_negative_of_its_samples():
    # The 8 seeded samples' minimum eigenvalues, from a kernel built here.
    # Every seed's most negative sample is far below -10 tol.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(20260815, 20260815 + 200):
            logs = np.random.default_rng(seed).uniform(-2.5, 1.5,
                                                       size=(8, 16))
            pts = laplace.MIN_OFFSET + np.exp(logs.reshape(8, 8, 2))
            s = pts[:, :, None, :] + pts[:, None, :, :]
            lams = np.linalg.eigvalsh(1.0 / (s[..., 0] ** 2
                                             + s[..., 1] ** 2))[:, 0]
            rep = laplace.lhpd_falsify(seed=seed)
            assert rep.lhs == lams.min()
            assert rep.extra["witness"] == pts[np.argmin(lams)].tolist()
            assert rep.extra["functionEvaluations"] == 8
            assert rep.status == ClaimStatus.VIOLATED


# -- finite-difference monotonicity scan --------------------------------------


def test_alternating_sign_scan_order_one_holds():
    rep = laplace.cm_scan(order=1)
    assert rep.status == ClaimStatus.CONFIRMED


def test_alternating_sign_scan_order_two_fails():
    rep = laplace.cm_scan(order=2)
    assert rep.status == ClaimStatus.VIOLATED
    assert complex(rep.lhs).real < -1e-3


def second_x_derivative(x, y):
    """Symbolic d^2/dx^2 of 1/(x^2+y^2): (6x^2 - 2y^2)/(x^2+y^2)^3."""
    return (6.0 * x * x - 2.0 * y * y) / (x * x + y * y) ** 3


def test_signed_difference_matches_symbolic_second_derivative():
    x, y = 1.0, 2.0
    exact = second_x_derivative(x, y)
    assert exact == pytest.approx(-2.0 / 125.0, rel=1e-15)
    # first-order forward differences: error O(h), so refine and compare
    for h, band in ((0.05, 0.4), (0.01, 0.08), (0.002, 0.02)):
        fd = routes.green_signed_difference(2, 0, x, y, h)
        assert fd < 0.0
        assert abs(fd - exact) <= band * abs(exact)


def test_signed_difference_positive_in_y_direction():
    # (6y^2 - 2x^2)/(x^2+y^2)^3 > 0 at (1, 2): no violation along y here.
    assert routes.green_signed_difference(0, 2, 1.0, 2.0, 0.01) > 0.0


def test_signed_difference_validation():
    with pytest.raises(DomainError):
        routes.green_signed_difference(0, 0, 1.0, 1.0)
    with pytest.raises(DomainError):
        routes.green_signed_difference(1, 0, -1.0, 1.0)
    with pytest.raises(DomainError):
        routes.green_signed_difference(1, 0, 1.0, 1.0, h=0.5)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_cm_scan_matches_per_point_scan(order):
    # Every field, witness and count included, bit for bit.
    assert strip_volatile(reports_to_json([laplace.cm_scan(order)])) == \
        strip_volatile(reports_to_json([routes.cm_scan_per_point(order)]))


def test_cm_scan_order_validation():
    for order in (0, 5):
        with pytest.raises(DomainError):
            laplace.cm_scan(order)
