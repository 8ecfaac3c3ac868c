"""The report builder: manifest labels, sign verdicts and wall time."""

import time

import pytest

from zetacheck.report import (CLAIM_IDS, IDENTITY_LABELS, ClaimStatus,
                              make_report)


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
    # classify(|lhs|, 1e-8) would call both of these VIOLATED.
    rep = make_report("gram-psd", {}, lhs=lhs, rhs=0.0, error_estimate=1e-8,
                      started=time.perf_counter(), status=status)
    assert rep.status == status
    assert rep.abs_residual == residual == max(0.0, -lhs)


def test_wall_time_runs_from_started():
    started = time.perf_counter()
    time.sleep(0.002)
    rep = make_report("race", {}, lhs=1.0, rhs=1.0, error_estimate=0.0,
                      started=started)
    assert rep.wall_time_ms >= 2.0
    later = make_report("race", {}, lhs=1.0, rhs=1.0, error_estimate=0.0,
                        started=time.perf_counter())
    assert later.wall_time_ms >= 0.0
