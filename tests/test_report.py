"""The report builder: manifest labels, the verdict rule and wall time."""

import math
import time
from dataclasses import replace

import pytest

from zetacheck import laplace
from zetacheck.report import (CLAIM_IDS, IDENTITY_LABELS, ClaimStatus,
                              classify, make_report)


@pytest.mark.parametrize("claim_id, labels", [
    ("rhfe", CLAIM_IDS),
    ("theta-jacobi", IDENTITY_LABELS),
])
def test_paper_eq_comes_from_the_manifest(claim_id, labels):
    rep = make_report(claim_id, {}, lhs=1.0, rhs=1.0, error_estimate=0.0,
                      started=time.perf_counter())
    assert rep.paper_eq == labels[claim_id]
    assert rep.status == ClaimStatus.CONFIRMED


def test_unknown_claim_id_raises():
    with pytest.raises(ValueError, match="no-such-claim"):
        make_report("no-such-claim", {}, lhs=0.0, rhs=0.0, error_estimate=0.0,
                    started=time.perf_counter())


@pytest.mark.parametrize("lhs, status, residual", [
    (-0.25, ClaimStatus.VIOLATED, 0.25),
    (0.5, ClaimStatus.CONFIRMED, 0.0),
])
def test_sign_claim_keeps_its_status(lhs, status, residual):
    # The identity rule on |lhs| with budget 1e-8 would call both VIOLATED.
    rep = make_report("gram-psd", {}, lhs=lhs, rhs=0.0, error_estimate=1e-8,
                      started=time.perf_counter(), bounds=(lhs, lhs))
    assert rep.status == status
    assert rep.abs_residual == residual == max(0.0, -lhs)


def _identity(lhs, **kwargs):
    return make_report("race", {}, lhs=lhs, rhs=0.0, error_estimate=1e-8,
                       started=time.perf_counter(), **kwargs)


def test_bounds_tied_at_zero_are_inconclusive():
    assert classify(0.0, 0.0) == ClaimStatus.INCONCLUSIVE
    rep = make_report("cm-scan", {}, lhs=0.0, rhs=0.0, error_estimate=0.0,
                      started=time.perf_counter(), bounds=(0.0, 0.0))
    assert rep.status == ClaimStatus.INCONCLUSIVE


@pytest.mark.parametrize("residual, status", [
    (0.5 * 3.0 * 1e-8, ClaimStatus.CONFIRMED),
    (3.0 * 1e-8, ClaimStatus.INCONCLUSIVE),
    (10.0 * 1e-8, ClaimStatus.INCONCLUSIVE),
    (10.0 * 1e-8 * (1.0 + 2.0 ** -52), ClaimStatus.VIOLATED),
])
def test_identity_thresholds(residual, status):
    # A residual of exactly 3 or 10 budgets is not separated from either
    # side; one ulp past 10 budgets violates.
    assert _identity(residual).status == status


def test_nan_residual_violates():
    assert _identity(math.nan).status == ClaimStatus.VIOLATED


@pytest.mark.parametrize("bounds", [(1.0, 1.0), (-1.0, -1.0)])
def test_unconverged_route_caps_at_inconclusive(bounds):
    assert classify(*bounds, converged=False) == ClaimStatus.INCONCLUSIVE
    rep = make_report("gram-psd", {}, lhs=bounds[0], rhs=0.0,
                      error_estimate=0.0, started=time.perf_counter(),
                      bounds=bounds, converged=False)
    assert rep.status == ClaimStatus.INCONCLUSIVE
    assert _identity(0.0, converged=False).status == ClaimStatus.INCONCLUSIVE
    assert _identity(1.0, converged=False).status == ClaimStatus.INCONCLUSIVE


def test_notes_keyed_by_status_give_the_verdicts_note():
    notes = {ClaimStatus.CONFIRMED: "yes", ClaimStatus.VIOLATED: "no"}
    assert _identity(0.0, notes=notes).notes == "yes"
    assert _identity(1.0, notes=notes).notes == "no"
    assert _identity(5.0 * 1e-8, notes=notes).notes == ""


def test_unconverged_laplace_route_is_inconclusive(monkeypatch):
    real = laplace.integrate_semi_infinite

    def unconverged(*args, **kwargs):
        return replace(real(*args, **kwargs), converged=False)

    assert laplace.rep_inverse_z(1.0 + 1.0j).status == ClaimStatus.CONFIRMED
    monkeypatch.setattr(laplace, "integrate_semi_infinite", unconverged)
    rep = laplace.rep_inverse_z(1.0 + 1.0j)
    assert rep.extra["converged"] is False
    assert rep.status == ClaimStatus.INCONCLUSIVE


def test_wall_time_runs_from_started():
    started = time.perf_counter()
    time.sleep(0.002)
    rep = make_report("race", {}, lhs=1.0, rhs=1.0, error_estimate=0.0,
                      started=started)
    assert rep.wall_time_ms >= 2.0
    later = make_report("race", {}, lhs=1.0, rhs=1.0, error_estimate=0.0,
                        started=time.perf_counter())
    assert later.wall_time_ms >= 0.0
