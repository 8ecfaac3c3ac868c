"""Special-function layer: frozen high-precision oracles and invariants.

Reference values were computed once with mpmath at 40 significant digits
and rounded to the nearest double.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from zetacheck.errors import DomainError, PoleError
from zetacheck.specfun import gamma, theta, trivial_zeta, zeta, zeta_star

FIRST_ZERO_T = 14.13472514173469379


# -- gamma -------------------------------------------------------------------


@pytest.mark.parametrize("z, want", [
    (0.5 + 0.0j, 1.772453850905516 + 0.0j),          # sqrt(pi)
    (5.0 + 0.0j, 24.0 + 0.0j),
    (1.5 - 2.0j, 0.16591510893899095 - 0.14946347326641948j),
    (-1.5 + 0.0j, 2.363271801207355 + 0.0j),
    (3.0 + 4.0j, 0.0052255384713692146 - 0.1725470792943002j),
])
def test_gamma_oracles(z, want):
    got = gamma(z)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_gamma_functional_equation():
    for z in (0.3 + 0.7j, 2.5 - 1.0j, 0.1 + 10.0j):
        assert abs(gamma(z + 1) - z * gamma(z)) <= 1e-12 * abs(gamma(z + 1))


@pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -7.0])
def test_gamma_poles_raise(z):
    with pytest.raises(PoleError):
        gamma(z)


# -- zeta --------------------------------------------------------------------


@pytest.mark.parametrize("s, want", [
    (2.0 + 0.0j, 1.6449340668482264 + 0.0j),          # pi^2/6
    (0.5 + 3.0j, 0.5327366709742328 - 0.07889651342583338j),
    (3.7 - 20.0j, 1.0002019641974944 + 0.07848480699182575j),
    (0.25 + 40.0j, 0.7344057041679518 - 1.5656813889303969j),
    (0.75 - 2.0j, 0.5170887213140055 + 0.33863252815886996j),
])
def test_zeta_oracles(s, want):
    got = zeta(s)
    assert abs(got - want) <= 5e-14 * abs(want)


def test_zeta_conjugate_symmetry():
    s = 0.6 + 7.0j
    assert zeta(s.conjugate()) == pytest.approx(zeta(s).conjugate(), rel=1e-14)


def test_zeta_outside_certified_strip_raises():
    with pytest.raises(DomainError):
        zeta(-0.5 + 2.0j)
    with pytest.raises(DomainError):
        zeta(4.5)
    with pytest.raises(DomainError):
        zeta(0.5 + 60.0j)


def test_zeta_pole_guard():
    with pytest.raises((DomainError, PoleError)):
        zeta(1.0 + 0.0j)


def test_zeta_matches_mpmath_across_the_certified_strip():
    # Differential check at 200 seeded points of 0 < re s <= 4,
    # |im s| <= 50 against mpmath at 30 digits.
    rng = np.random.default_rng(20260815)
    re_s = 4.0 - rng.uniform(0.0, 4.0, 200)
    im_s = rng.uniform(-50.0, 50.0, 200)
    worst_zeta = worst_star = 0.0
    with mp.workdps(30):
        for s in (re_s + 1j * im_s).tolist():
            ms = mp.mpc(s.real, s.imag)
            ref = complex(mp.zeta(ms))
            ref_star = complex(mp.pi ** (-ms / 2) * mp.gamma(ms / 2)
                               * mp.zeta(ms))
            worst_zeta = max(worst_zeta,
                             abs(zeta(s) - ref) / max(1.0, abs(ref)))
            worst_star = max(worst_star,
                             abs(zeta_star(s) - ref_star) / abs(ref_star))
    assert worst_zeta <= 1e-14
    assert worst_star <= 1e-12


# -- completed zeta ----------------------------------------------------------


def test_zeta_star_oracle():
    want = -0.20383828936634468 + 0.05371697541819621j
    assert abs(zeta_star(0.75 - 2.0j) - want) <= 1e-12


@pytest.mark.parametrize("s", [0.3 + 2.0j, 0.25 + 14.0j, 0.8 - 5.0j])
def test_zeta_star_reflection(s):
    assert abs(zeta_star(s) - zeta_star(1.0 - s)) <= 1e-11


def test_zeta_star_real_on_critical_line():
    for t in (2.0, 5.0, 10.0, 14.0):
        assert abs(zeta_star(complex(0.5, t)).imag) <= 1e-12


def test_zeta_star_small_near_first_zero():
    # The completed function is ~2e-6 at t=14 (gamma decay) and dips a
    # further three-plus orders at the zero height itself.
    assert abs(zeta_star(complex(0.5, FIRST_ZERO_T))) < 1e-9
    assert abs(zeta_star(complex(0.5, 14.0))) > 1e-7


# -- theta -------------------------------------------------------------------


@pytest.mark.parametrize("x, want", [
    (0.5, 0.20974774404188307),
    (1.0, 0.043217405606654005),
    (2.0, 0.0018674427438695456),
    (0.1, 1.0811388300842615),
    # Near the smallest x it sums: (1/sqrt(x) - 1) / 2 to rounding there.
    (3e-6, 288.17513459481285),
])
def test_theta_oracles(x, want):
    assert theta(x) == pytest.approx(want, rel=1e-14, abs=1e-16)


def test_theta_array_matches_scalar():
    xs = np.linspace(0.2, 3.0, 7)
    vec = theta(xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert v == theta(float(x))


def test_theta_modular_relation():
    # 2 theta(1/x) + 1 = sqrt(x) (2 theta(x) + 1)
    for x in np.linspace(0.1, 10.0, 20):
        lhs = 2.0 * theta(1.0 / x) + 1.0
        rhs = math.sqrt(x) * (2.0 * theta(x) + 1.0)
        assert abs(lhs - rhs) <= 1e-13 * rhs


def test_theta_rejects_nonpositive():
    with pytest.raises(DomainError):
        theta(0.0)
    with pytest.raises(DomainError):
        theta(-1.0)


@pytest.mark.parametrize("x", [1e-6, 1e-7, np.array([1e-7, 1.0])],
                         ids=["1e-6", "1e-7", "array"])
def test_theta_raises_when_its_series_does_not_converge(x):
    # 1999 terms fall short of the Jacobi values 499.5 and 1580.6; a
    # truncated sum must not come back as theta.
    with pytest.raises(DomainError, match="did not converge"):
        theta(x)


# -- small closed-form pieces ------------------------------------------------


def test_trivial_zero_factor():
    assert trivial_zeta(0.5 + 9.0j) == 0.0
    assert trivial_zeta(0.75 - 2.0j) == pytest.approx(-1.0)
    assert trivial_zeta(0.25 + 4.0j) == pytest.approx(-2.0)


def test_trivial_zero_factor_reflection_symmetries():
    # im(s)(2re(s)-1) is even under s -> 1-s and odd under s -> 1-conj(s);
    # any "odd under s -> 1-s" reading contradicts the defining formula.
    for s in (0.75 - 2.0j, 0.2 + 5.0j, 0.9 + 0.3j):
        assert trivial_zeta(1.0 - s) == pytest.approx(trivial_zeta(s))
        assert trivial_zeta(1.0 - s.conjugate()) == \
            pytest.approx(-trivial_zeta(s))


@pytest.mark.parametrize("z", [-0.3 + 240j, 0.25 - 250j, 0.7 + 600j])
def test_gamma_rejects_arguments_past_its_band(z):
    with pytest.raises(DomainError):
        gamma(z)


@pytest.mark.parametrize("z", [-49.5 + 0.5j, 0.5 + 49.9j])
def test_gamma_holds_to_the_edge_of_its_band(z):
    want = complex(mp.gamma(z))
    assert abs(gamma(z) - want) <= 1e-12 * abs(want)


def test_nonfinite_arguments_rejected():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            zeta(complex(bad, 1.0))
        with pytest.raises(DomainError):
            gamma(complex(1.0, bad))
    assert cmath.isfinite(zeta_star(0.5 + 2.0j))
