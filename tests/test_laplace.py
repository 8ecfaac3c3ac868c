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


# -- the in-repo simplex against scipy ---------------------------------------


def seeded_objective(seed, dim):
    """A quadratic bowl plus a nonsmooth |sin| ripple, a start and a budget."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    c = rng.normal(size=dim)
    w = rng.uniform(0.5, 2.0, size=dim)

    def f(x):
        r = a @ (x - c)
        return float(r @ r + w @ np.abs(np.sin(3.0 * x)))

    return f, rng.normal(size=dim), int(rng.integers(20, 601))


def bowl(x):
    return float(np.sum((np.arange(1.0, len(x) + 1) * (x - 1.0)) ** 2))


def flat(x):
    return 1.0


def stairs(x):
    return float(np.floor(8.0 * np.sum((x - 0.3) ** 2)))


# (objective, start, maxfev).  The budgets of the seeded objectives run out
# between steps, mid-expansion (seeds 10, 13, 19, 31) and mid-contraction
# (seeds 1, 2, 4, 21, 23 inside, 35 outside).
SIMPLEX_CASES = [seeded_objective(seed, 2 + seed % 15) for seed in range(36)]
SIMPLEX_CASES += [
    seeded_objective(3, 5)[:2] + (84,),              # runs out mid-shrink
    (bowl, np.array([0.0, 0.3, 0.0, -1.2]), 600),    # zero start coordinates
    (bowl, np.array([0.5, 2.0]), 600),               # stops on xatol, fatol
    (flat, np.array([0.2, -0.4, 1.0]), 600),         # every argsort is a tie
    (flat, np.linspace(-1.0, 1.0, 16), 600),         # ... of 17 vertices
    (stairs, np.array([1.5, -0.7, 2.2]), 600),       # ties across steps
]


def run_simplex(f, x0, maxfev):
    search = laplace._nelder_mead(x0, maxfev)
    try:
        x = next(search)
        while True:
            x = search.send(f(x))
    except StopIteration as done:
        return done.value


def test_simplex_repeats_scipy_nelder_mead_exactly():
    optimize = pytest.importorskip("scipy.optimize")
    stopped_early = 0
    for f, x0, maxfev in SIMPLEX_CASES:
        x, fun, nfev = run_simplex(f, x0, maxfev)
        ref = optimize.minimize(f, x0, method="Nelder-Mead",
                                options={"maxfev": maxfev, "xatol": 1e-8,
                                         "fatol": 1e-14})
        assert x.tolist() == ref.x.tolist()
        assert fun == ref.fun
        assert nfev == ref.nfev
        stopped_early += nfev < maxfev
    # the 2-D bowl, both flat objectives and the stairs stop on xatol/fatol
    assert stopped_early == 4


def scipy_lhpd(seed):
    """The lhpd search as it ran on scipy: one restart after another."""
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(seed)

    def gram(logs):
        p = laplace.MIN_OFFSET + np.exp(logs.reshape(8, 2))
        sx = p[:, 0, None] + p[None, :, 0]
        sy = p[:, 1, None] + p[None, :, 1]
        return 1.0 / (sx * sx + sy * sy)

    def lam_min(logs):
        return float(np.linalg.eigvalsh(gram(logs))[0])

    best_val, best_logs, evals = math.inf, None, 0
    for _ in range(8):
        logs = rng.uniform(-2.5, 1.5, size=16)
        out = optimize.minimize(lam_min, logs, method="Nelder-Mead",
                                options={"maxfev": 500, "xatol": 1e-8,
                                         "fatol": 1e-14})
        evals += out.nfev
        if out.fun < best_val:
            best_val, best_logs = float(out.fun), out.x.copy()
    tol = 8 * 1e-10 * float(np.max(gram(best_logs)))
    witness = laplace.MIN_OFFSET + np.exp(best_logs.reshape(8, 2))
    return best_val, witness.tolist(), best_val < -10.0 * tol, evals


@pytest.mark.parametrize("seed", [20260815, 5, 11])
def test_lockstep_lhpd_search_equals_sequential_scipy_search(seed):
    lhs, witness, violated, evals = scipy_lhpd(seed)
    rep = laplace.lhpd_falsify(seed=seed)
    assert rep.lhs == lhs
    assert rep.extra["witness"] == witness
    assert rep.status == (ClaimStatus.VIOLATED if violated
                          else ClaimStatus.INCONCLUSIVE)
    assert rep.extra["functionEvaluations"] == evals == 4000


def test_lhpd_search_runs_without_overflow_warnings():
    # Seed 19 sends a simplex past 1e154, where kernel entries are 1/inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = laplace.lhpd_falsify(seed=20260815 + 19)
    assert rep.extra["functionEvaluations"] == 4000


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
