"""Acceptance gate: one test per release criterion, at the stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Tolerances and sample counts here are the contract; they
must not be loosened to make a failing build green.
"""

import json
import math
import time

import numpy as np
import pytest

from zetacheck import cli, fresnel, laplace, rhfe, traces
from zetacheck.amplitudes import AmplitudeSpec
from zetacheck.quad import QuadSpec
from zetacheck.report import CLAIM_IDS, ClaimStatus, reports_to_json, \
    strip_volatile
from zetacheck.specfun import theta, zeta_star

import reference_routes as routes

RE_GRID = (0.2, 0.35, 0.5, 0.65, 0.8)
IM_GRID = (2.0, 6.5, 11.0, 15.5, 20.0)


def test_criterion_01_half_line_identity_on_grid():
    t0 = time.perf_counter()
    worst = 0.0
    for u in RE_GRID:
        for v in IM_GRID:
            r = rhfe.race_check(complex(u, v))
            worst = max(worst, r.residual)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8, f"worst residual {worst:.3e} over the 25-point grid"
    assert elapsed <= 60.0, f"grid took {elapsed:.1f}s, budget is 60s"


def test_criterion_02_reflection_and_critical_line():
    for t in (2.0, 5.0, 10.0, 14.0):
        s = complex(0.3, t)
        assert abs(zeta_star(s) - zeta_star(1.0 - s)) <= 1e-9
        assert abs(zeta_star(complex(0.5, t)).imag) <= 1e-9


def test_criterion_03_transform_representations():
    inv_pts = [2.0 + 0.0j, 1.0 + 1.0j, 0.25 + 10.0j, 0.5 - 3.0j, 4.0 + 0.5j,
               0.3 + 0.0j, 1.5 - 0.7j, 0.25 - 1.0j, 3.0 + 8.0j, 0.8 + 2.2j]
    assert min(z.real for z in inv_pts) >= 0.25
    for z in inv_pts:
        assert laplace.rep_inverse_z(z).abs_residual <= 1e-8, f"z={z}"
    quad_pts = [1.0 + 0.0j, 3.0 + 4.0j, 0.5 + 2.0j, 2.0 - 1.0j, 1.0 + 5.0j,
                0.7 + 0.3j, 4.0 - 2.0j, 1.2 - 0.4j, 2.5 + 2.5j, 0.9 - 6.0j]
    for z in quad_pts:
        assert laplace.rep_green_complex(z).abs_residual <= 1e-6, f"z={z}"


def test_criterion_04_oscillatory_transform_suite():
    spec = QuadSpec(abs_tol=1e-11, rel_tol=1e-11)
    for nu in (0.5, 1.0, 2.0):
        amp = AmplitudeSpec.exponential(1.0)
        s = fresnel.fresnel_sin(amp, nu, spec)
        c = fresnel.fresnel_cos(amp, nu, spec)
        assert abs(s.value - fresnel.closed_form_sin(amp, nu)) <= 1e-9
        assert abs(c.value - fresnel.closed_form_cos(amp, nu)) <= 1e-9
        half_pi = fresnel.fresnel_sin(AmplitudeSpec.reciprocal(), nu, spec)
        assert abs(half_pi.value - math.pi / 2.0) <= 1e-6
        classic = fresnel.fresnel_classic(nu, spec)
        assert abs(classic.value - fresnel.fresnel_classic_value(nu)) <= 1e-6
    for amp in (AmplitudeSpec.exponential(1.0), AmplitudeSpec.gaussian(1.0),
                AmplitudeSpec.rational(2.0)):
        resid, _, _ = fresnel.derivative_identity(amp, 1.5, spec)
        assert resid <= 1e-7
    audit = fresnel.positivity_audit(seed=20260815)
    assert audit.inputs["nSamples"] >= 200
    assert audit.status == ClaimStatus.CONFIRMED


def test_criterion_05_theta_modular_transformation():
    for x in np.linspace(0.1, 10.0, 20):
        lhs = 2.0 * theta(1.0 / x) + 1.0
        rhs = math.sqrt(x) * (2.0 * theta(x) + 1.0)
        assert abs(lhs - rhs) <= 1e-12, f"x={x}"


def test_criterion_06_oscillatory_antiderivative_random():
    # Parameters are drawn from the bounded box w in [-3, 2], |v| in
    # [0.25, 8], N in [0.1, 2 pi], rejecting N*w > 8: outside it, e^{Nw}
    # exceeds ~3e3 and a 1e-9 absolute comparison is vacuous in doubles.
    rng = np.random.default_rng(20260815)
    done = 0
    worst = 0.0
    while done < 100:
        w = float(rng.uniform(-3.0, 2.0))
        v = float(rng.uniform(0.25, 8.0)
                  * (1.0 if rng.random() < 0.5 else -1.0))
        big_n = float(rng.uniform(0.1, 2.0 * math.pi))
        if big_n * w > 8.0:
            continue
        closed = rhfe.newton_leibnitz(w, v, big_n)
        quad = rhfe.newton_leibnitz_quadrature(w, v, big_n)
        worst = max(worst, abs(closed - float(np.real(quad.value))))
        done += 1
    assert worst <= 1e-9, f"worst closed-form vs quadrature gap {worst:.3e}"


def test_criterion_07_trace_algebra_random():
    rng = np.random.default_rng(20260815)
    for _ in range(200):
        j = int(rng.integers(0, 101))
        s = complex(rng.uniform(0.05, 0.95),
                    rng.uniform(0.5, 9.0)
                    * (1.0 if rng.random() < 0.5 else -1.0))
        rep = traces.trace_decomposition_check(j, s)
        assert rep.abs_residual <= 1e-11, f"(j={j}, s={s})"
        assert traces.bridge_residual(j, s) <= 1e-12, f"(j={j}, s={s})"


def test_criterion_08_series_vs_integral_cross_path():
    t0 = time.perf_counter()
    for s in (0.75 - 1.0j, 0.6 - 2.0j, 0.9 - 4.0j):
        p = traces.TraceParams(s, n_max=3, digits=80)
        for n in (1, 2, 3):
            series = float(traces.tr_cg_n_series(n, p))
            sig_s = routes.tr_cg_sigma(n, s)
            sig_r = routes.tr_cg_sigma(n, 1.0 - s)
            integral = (sig_r - sig_s) / (2.0 * s.real - 1.0)
            assert abs(series - integral) <= 1e-8, f"(n={n}, s={s})"
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0, f"cross-path took {elapsed:.1f}s, budget 120s"


def test_criterion_09_poisson_reduction_and_decay():
    z = 0.75 + 2.0j
    for big_l in (0, 1):
        one_d = traces.poisson_reduced(1, big_l, z, z.imag)
        two_d = traces.poisson_term_quadrant(1, big_l, z)
        gap = abs(one_d.value - two_d.value)
        assert gap <= 1e-6, f"L={big_l}: 1-D vs 2-D gap {gap:.3e}"
    # The decay clause holds on the decaying-frequency side; at im(z) > 0
    # the terms approach a nonzero constant instead (see the vanishing
    # audit), so the trend is checked at the conjugate argument.
    zc = z.conjugate()
    vals = [abs(traces.poisson_reduced(1, big_l, zc, zc.imag).value)
            for big_l in range(1, 6)]
    assert all(a > b for a, b in zip(vals, vals[1:])), vals


def test_criterion_10_ledger_complete_and_deterministic():
    cfg = cli.RunConfig(command="ledger", seed=0)
    reports = cli.run_ledger(cfg)
    assert [r.claim_id for r in reports] == list(CLAIM_IDS)
    for r in reports:
        assert math.isfinite(r.abs_residual), r.claim_id
        assert math.isfinite(r.error_estimate), r.claim_id
        assert r.status in (ClaimStatus.CONFIRMED, ClaimStatus.INCONCLUSIVE,
                            ClaimStatus.VIOLATED)
    again = cli.run_ledger(cli.RunConfig(command="ledger", seed=0))
    assert strip_volatile(reports_to_json(reports)) == \
        strip_volatile(reports_to_json(again))


def test_criterion_11_monotonicity_scan_is_sensitive():
    # symbolic second x-derivative of 1/(x^2+y^2): (6x^2-2y^2)/(x^2+y^2)^3
    x, y = 1.0, 2.0
    symbolic = (6.0 * x * x - 2.0 * y * y) / (x * x + y * y) ** 3
    assert symbolic == pytest.approx(-2.0 / 125.0, rel=1e-15)
    fd = routes.green_signed_difference(2, 0, x, y, h=0.01)
    assert fd < 0.0 and symbolic < 0.0
    assert abs(fd - symbolic) <= 0.1 * abs(symbolic)
    # and the grid scan that covers (1, 2) reports the violation
    rep = laplace.cm_scan(order=2)
    assert rep.status == ClaimStatus.VIOLATED


def test_criterion_12_final_identity_on_critical_line():
    rep = rhfe.rhfe_residual(0.5 - 5.0j)
    assert abs(complex(rep.lhs)) <= 1e-9
    assert abs(complex(rep.rhs)) <= 1e-9
    assert rep.status == ClaimStatus.CONFIRMED


def test_report_files_round_trip(tmp_path):
    # not a numbered criterion: guards the artifact format end to end
    out = tmp_path / "ledger.json"
    code = cli.main(["ledger", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert [d["claimId"] for d in data] == list(CLAIM_IDS)
    assert all(d["schemaVersion"] == 1 for d in data)
