"""Seeded workloads: the inputs of one pass and the checks on its outputs.

A workload is a list of audit calls, built once from the seed and replayed
unchanged by every pass of a run.  Each call yields one or more claim
reports; every report is an audit that either passes its suite's check or
counts as failed.  Tolerances are the ones the program's own suites and
acceptance tests use.
"""

from __future__ import annotations

import heapq
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import mpmath as mp
import numpy as np

from zetacheck import cli, fresnel, laplace, report
from zetacheck.amplitudes import AmplitudeSpec

# Reports each CLI command emits; a call that raises or exits non-zero
# fails all of them.
_LEDGER_IDS = list(report.CLAIM_IDS)
_FRESNEL_REPORTS = 16
_RACE_REPORTS = 25
_TRACES_REPORTS = 5


@dataclass
class Call:
    """One audit call: an API call returning reports, or one CLI command."""

    audit_id: str
    expected: int
    api: Callable[[], list] | None = None
    argv: list[str] = field(default_factory=list)


@dataclass
class PassResult:
    wall_s: float
    latencies_ms: list[float]          # one sample per expected report
    attempted: int
    failures: list[str]
    digest_parts: list[str]            # strip_volatile(json) per call
    statuses: list[str]
    report_bytes: int


def _finite(d: dict, key: str) -> bool:
    v = d.get(key)
    return isinstance(v, (int, float)) and math.isfinite(v)


def _stratified_pairs(rng: np.random.Generator, k: int):
    """k strata, each holding an antithetic pair (t, q), (1-t, 1-q).

    Mirroring inside each stratum cancels the first-order change of an
    input's cost across the stratum, so the cost of a whole pass varies
    little from seed to seed while every input still moves with it.
    """
    for i in range(k):
        t, q = rng.random(), rng.random()
        yield i, t, q
        yield i, 1.0 - t, 1.0 - q


# --------------------------------------------------------------------------
# quadrant: laplace.rep_green_complex and laplace.rep_inverse_z
# --------------------------------------------------------------------------

QUAD_STRATA = 4  # log-spaced re(z) strata on [0.5, 4], 2 points each
# Inverse points: a randomly shifted Fibonacci lattice, 89 points with
# generator 55.  Their latencies hold the pass median, and the lattice keeps
# that order statistic steady from seed to seed.
INVERSE_POINTS, INVERSE_GENERATOR = 89, 55


def quadrant_inputs(seed: int) -> dict[str, list[complex]]:
    """z values over the region of `verify --suite laplace`.

    Quadrant points: re(z) in [0.5, 4], |im z| <= min(6, 6 re z), either
    sign; cost grows as re(z) falls and as |im z|/re(z) rises.  Inverse
    points: re(z) in [0.25, 4] (log scale), im(z) in [-3, 10].
    """
    rng = np.random.default_rng([seed, 1])
    lo, hi = math.log(0.5), math.log(4.0)
    quad = []
    for i, t, q in _stratified_pairs(rng, QUAD_STRATA):
        re = math.exp(lo + (i + t) / QUAD_STRATA * (hi - lo))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        quad.append(complex(re, sign * q * min(6.0, 6.0 * re)))
    lo = math.log(0.25)
    u1, u2 = rng.random(), rng.random()
    inv = []
    for k in range(INVERSE_POINTS):
        t = (k / INVERSE_POINTS + u1) % 1.0
        q = (k * INVERSE_GENERATOR / INVERSE_POINTS + u2) % 1.0
        inv.append(complex(math.exp(lo + t * (hi - lo)), -3.0 + 13.0 * q))
    return {"quad": quad, "inv": inv}


def quadrant_calls(seed: int) -> list[Call]:
    pts = quadrant_inputs(seed)
    # Interleaved, so each pass alternates costly and cheap audits.
    calls = []
    inv = [Call(f"inv-{j}:{z:.6g}", 1,
                api=lambda z=z: [laplace.rep_inverse_z(z)])
           for j, z in enumerate(pts["inv"])]
    per = -(-len(inv) // len(pts["quad"]))
    for k, zq in enumerate(pts["quad"]):
        calls.append(Call(f"quad-{k}:{zq:.6g}", 1,
                          api=lambda z=zq: [laplace.rep_green_complex(z)]))
        calls.extend(inv[k * per:(k + 1) * per])
    return calls


def _check_quadrant(call: Call, rep: dict) -> str | None:
    tol = 1e-6 if rep["claimId"] == "laplace-quadrant" else 1e-8
    if rep["absResidual"] > tol:
        return f"residual {rep['absResidual']:.3e} > {tol:g}"
    return None


# --------------------------------------------------------------------------
# oscillatory: `ledger` and `verify --suite fresnel` through cli.main
# --------------------------------------------------------------------------


def oscillatory_calls(seed: int) -> list[Call]:
    """Both commands run the 240-frequency positivity audit of their --seed.

    Distinct CLI seeds give the two audits independent frequencies, which
    halves the seed-to-seed variance of a pass.
    """
    return [Call("ledger", len(_LEDGER_IDS),
                 argv=["ledger", "--seed", str(2 * seed)]),
            Call("verify-fresnel", _FRESNEL_REPORTS,
                 argv=["verify", "--suite", "fresnel",
                       "--seed", str(2 * seed + 1)])]


_FRESNEL_TOL = {"closed-sin": 1e-9, "closed-cos": 1e-9, "half-pi": 1e-6,
                "classic": 1e-6, "derivative": 1e-7}


def _check_oscillatory(call: Call, rep: dict) -> str | None:
    if rep["claimId"] == "fresnel-positivity":
        if rep["status"] != "CONFIRMED":
            return f"fresnel-positivity is {rep['status']}"
        return None
    check = rep.get("inputs", {}).get("check")
    tol = _FRESNEL_TOL.get(check) if call.audit_id == "verify-fresnel" else None
    if call.audit_id == "verify-fresnel" and tol is None:
        return f"unexpected report {rep['claimId']}/{check}"
    if tol is not None and rep["absResidual"] > tol:
        return f"{check} residual {rep['absResidual']:.3e} > {tol:g}"
    return None


# --------------------------------------------------------------------------
# series: rhfe, traces, verify race / trace-algebra through cli.main
# --------------------------------------------------------------------------

SERIES_STRATA = 12  # re(s) strata on [0.5, 1], 2 rhfe points each
TRACES_STRATA = 2   # re(s) strata on [0.5, 0.9], 2 traces points each


def _series_points(rng, strata: int, u_max: float):
    """(u, v, digits) with u in [0.5, u_max] and v in [-10, -1].

    Digits are Latin-hypercube over the CLI range 60..200, so every pass
    spans the full working precision.
    """
    pts = list(_stratified_pairs(rng, strata))
    slots = rng.permutation(len(pts))
    return [(0.5 + (u_max - 0.5) * (i + t) / strata, -1.0 - 9.0 * q,
             60 + int((slots[k] + rng.random()) * 141 / len(pts)))
            for k, (i, t, q) in enumerate(pts)]


def series_calls(seed: int) -> list[Call]:
    """rhfe at 24 points of the claimed strip, traces at 4 points.

    rhfe runs only the extended-precision series; traces adds quadrature
    cross-routes, so rhfe points outnumber traces points to keep the
    workload on the series path.  traces stays at re(s) <= 0.9: towards
    re(s) = 1 its sigma and Poisson routes at 1 - s decay ever more slowly,
    stop converging, and their quadrature would dominate the workload.
    n is balanced over {1, 2, 3}.
    """
    rng = np.random.default_rng([seed, 3])
    calls = []
    for k, (u, v, d) in enumerate(_series_points(rng, SERIES_STRATA, 1.0)):
        calls.append(Call(f"rhfe-{k}", 1, argv=[
            "rhfe", "--re", repr(u), "--im", repr(v), "--digits", str(d)]))
    traces = _series_points(rng, TRACES_STRATA, 0.9)
    n_vals = rng.permutation(np.resize([1, 2, 3], len(traces)))
    for k, ((u, v, d), n) in enumerate(zip(traces, n_vals)):
        calls.append(Call(f"traces-{k}", _TRACES_REPORTS, argv=[
            "traces", "--re", repr(u), "--im", repr(v), "--digits", str(d),
            "--n", str(n)]))
    calls.append(Call("verify-race", _RACE_REPORTS,
                      argv=["verify", "--suite", "race"]))
    calls.append(Call("verify-trace-algebra", 2,
                      argv=["verify", "--suite", "trace-algebra",
                            "--seed", str(seed)]))
    return calls


_SERIES_TOL = {"race": 1e-8, "trace-decomposition": 1e-11, "bridge": 1e-12}


def _check_series(call: Call, rep: dict) -> str | None:
    tol = _SERIES_TOL.get(rep["claimId"])
    if tol is not None and rep["absResidual"] > tol:
        return f"residual {rep['absResidual']:.3e} > {tol:g}"
    return None


# --------------------------------------------------------------------------
# Running one pass.
# --------------------------------------------------------------------------

_CALLS = {"quadrant": quadrant_calls, "oscillatory": oscillatory_calls,
          "series": series_calls}
_CHECKS = {"quadrant": _check_quadrant, "oscillatory": _check_oscillatory,
           "series": _check_series}


def build_calls(workload: str, seed: int) -> list[Call]:
    return _CALLS[workload](seed)


def run_pass(workload: str, calls: list[Call], tmp_dir: str, clock,
             on_call=None) -> PassResult:
    """Run every call once; time the calls and the serialisation only.

    `clock` times them.  `on_call(audit_id)` is told which audit is about
    to run, so a tracer can tag its spans.
    """
    out_path = os.path.join(tmp_dir, "report.json")
    raw = []  # (call, error, reports | json text)
    latencies: list[float] = []
    wall = 0.0
    for call in calls:
        if on_call is not None:
            on_call(call.audit_id)
        if call.api is None and os.path.exists(out_path):
            os.remove(out_path)
        err = None
        payload = None
        t0 = clock()
        try:
            if call.api is not None:
                payload = call.api()
            else:
                code = cli.main([*call.argv, "--out", out_path])
                if code != 0:
                    err = f"exit code {code}"
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - counted
            err = f"raised {type(exc).__name__}: {exc}"
        dt = clock() - t0
        wall += dt
        latencies.extend([1e3 * dt / call.expected] * call.expected)
        if err is None and call.api is None:
            try:
                with open(out_path, encoding="utf-8") as fh:
                    payload = fh.read()
            except OSError as exc:
                err = f"no report file: {exc}"
        raw.append((call, err, payload))
    if on_call is not None:
        on_call("serialise")
    # API reports are serialised as the CLI would; that is part of a pass.
    api_reports = [r for call, err, p in raw if err is None and call.api
                   for r in p]
    t0 = clock()
    api_json = report.reports_to_json(api_reports) if api_reports else ""
    wall += clock() - t0
    if on_call is not None:
        on_call(None)
    return _verify(workload, raw, api_json, wall, latencies)


def _verify(workload: str, raw, api_json: str, wall: float,
             latencies: list[float]) -> PassResult:
    check = _CHECKS[workload]
    failures: list[str] = []
    digest_parts: list[str] = []
    statuses: list[str] = []
    n_bytes = 0
    attempted = 0
    api_dicts = iter(json.loads(api_json)) if api_json else iter(())
    if api_json:
        digest_parts.append(report.strip_volatile(api_json))
        n_bytes += len(api_json.encode())
    for call, err, payload in raw:
        attempted += call.expected
        if err is not None:
            failures.extend([f"{call.audit_id}: {err}"] * call.expected)
            continue
        if call.api is not None:
            reps = [next(api_dicts) for _ in payload]
        else:
            n_bytes += len(payload.encode())
            try:
                reps = json.loads(payload)
            except ValueError as exc:
                failures.extend([f"{call.audit_id}: bad JSON: {exc}"]
                                * call.expected)
                continue
            digest_parts.append(report.strip_volatile(payload))
        # One verdict per expected audit: None passes, a string fails.
        bad: list[str | None] = ["missing report"] * call.expected
        for k, rep in enumerate(reps[:call.expected]):
            statuses.append(rep["status"])
            if not (_finite(rep, "absResidual")
                    and _finite(rep, "errorEstimate")):
                bad[k] = f"{rep['claimId']}: non-finite residual or estimate"
            else:
                msg = check(call, rep)
                bad[k] = None if msg is None else f"{rep['claimId']}: {msg}"
        if call.audit_id == "ledger":
            for k, rep in enumerate(reps[:call.expected]):
                if rep["claimId"] != _LEDGER_IDS[k]:
                    bad[k] = f"ledger slot {k} holds {rep['claimId']}"
        failures.extend(f"{call.audit_id}#{k} {msg}"
                        for k, msg in enumerate(bad) if msg is not None)
    return PassResult(wall, latencies, attempted, failures, digest_parts,
                      statuses, n_bytes)


# --------------------------------------------------------------------------
# Speed kernels: fixed code shaped like each workload's hot path.
# --------------------------------------------------------------------------

_X = np.linspace(-0.99, 0.99, 15)
_W = np.full(15, 2.0 / 15.0)


def _panel_kernel(n_split: int) -> None:
    """Adaptive bisection of 15-point panels, as in quad's refinement."""
    def f(x):
        return np.exp(-0.7 * x) * np.cos(3.0 * x)

    heap = [(-1.0, 0, 0.0, 8.0)]
    k = 0
    for _ in range(n_split):
        _, _, a, b = heapq.heappop(heap)
        m = 0.5 * (a + b)
        for lo, hi in ((a, m), (m, b)):
            c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
            y = f(c + h * _X)
            v = h * np.sum(_W * y)
            e = abs(v - h * np.sum(_W[1::2] * y[1::2]))
            k += 1
            heapq.heappush(heap, (-e, k, lo, hi))


def _series_kernel(n_terms: int) -> None:
    """An alternating mpmath series at 120 digits, as in the trace series."""
    with mp.workdps(120):
        s = mp.mpc(0.75, -2.0)
        c = 4 * mp.pi
        total, power = mp.mpf(0), mp.mpf(1)
        for j in range(n_terms):
            p, q = s + 2 * j, (2 * j + 1) - s
            t = (4 * j + 1) / (p * p.conjugate() * q * q.conjugate()).real
            total += power * t if j % 2 == 0 else -power * t
            power = power * c / (j + 1)


def speed_kernel(workload: str) -> Callable[[], None]:
    """About 5 ms of benchmark-owned work with the workload's instruction
    mix; its time measures the machine, not the program."""
    if workload == "series":
        def kernel() -> None:
            _series_kernel(90)
            _panel_kernel(40)
        return kernel
    return lambda: _panel_kernel(160)


def warm_up(workload: str, tmp_dir: str) -> None:
    """One cheap audit on the workload's own path, for set-up timing."""
    if workload == "quadrant":
        laplace.rep_green_complex(4.0 - 2.0j)
    elif workload == "oscillatory":
        fresnel.fresnel_sin(AmplitudeSpec.exponential(1.0), 1.0)
    else:
        cli.main(["rhfe", "--out", os.path.join(tmp_dir, "warmup.json")])
