"""Property: the lockstep engine, which bisects every unsettled interval's
first panel on arrays, ends every interval bit for bit where the plain
per-interval heap loop does, across the interval cap, depth caps and
evaluation caps."""

from heapq import heappop, heappush
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from zetacheck import quad  # noqa: E402


def _heap_lockstep(g, lo, hi, abs_tol, rel_tol, max_depth):
    """Reference: the engine as one QUADPACK heap per interval unsettled by
    its first panel, 128 intervals per pass."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    chunks = []
    for s in range(0, lo.size, 128):
        a, b = lo[s:s + 128], hi[s:s + 128]
        val, err, peak = quad._panels(g, a, b, np.arange(s, s + a.size))
        done = err <= np.fmax(abs_tol, rel_tol * np.hypot(val.real, val.imag))
        evals, diverged = np.full(a.size, 15), np.zeros(a.size, dtype=bool)
        chunks.append((val, err, evals, done, diverged, peak))
        todo = (~done).nonzero()[0]
        if not todo.size:
            continue
        n, owner = todo.size, (s + todo).tolist()
        total, total_err = val[todo].tolist(), err[todo].tolist()
        pk = peak[todo].tolist()
        ev, converged, div = [15] * n, [False] * n, [False] * n
        heaps = [[(-e, 0, x, y, 0, v, e)] for v, e, x, y in
                 zip(total, total_err, a[todo].tolist(), b[todo].tolist())]
        watch = [quad._Diverge(abs(v)) for v in total]
        active = list(range(n))
        while active:
            split = [(i, heappop(heaps[i])) for i in active
                     if heaps[i][0][4] < max_depth and ev[i] < quad._MAX_EVALS]
            if not split:
                break
            pa, pb = [p[2] for _, p in split], [p[3] for _, p in split]
            mid = [0.5 * (x + y) for x, y in zip(pa, pb)]
            cv, ce, cp = (v.tolist() for v in quad._panels(
                g, np.array(pa + mid), np.array(mid + pb),
                np.array([owner[i] for i, _ in split] * 2)))
            m, active = len(split), []
            for j, (i, (_, _, _, _, depth, pval, perr)) in enumerate(split):
                lv, le, rv, re_ = cv[j], ce[j], cv[m + j], ce[m + j]
                ev[i] += 30
                pk[i] = max(pk[i], cp[j], cp[m + j])
                total[i] = total[i] - pval + lv + rv
                total_err[i] = total_err[i] - perr + le + re_
                heappush(heaps[i], (-le, ev[i] - 1, pa[j], mid[j],
                                    depth + 1, lv, le))
                heappush(heaps[i], (-re_, ev[i], mid[j], pb[j], depth + 1,
                                    rv, re_))
                if watch[i].update(abs(total[i])):
                    div[i] = True
                elif total_err[i] <= max(abs_tol, rel_tol * abs(total[i])):
                    converged[i] = True
                else:
                    active.append(i)
        val[todo], err[todo], evals[todo] = total, total_err, ev
        done[todo], diverged[todo], peak[todo] = converged, div, pk
    if len(chunks) == 1:
        return chunks[0]
    return tuple(np.concatenate(c) for c in zip(*chunks))


def _case(rng, n: int, complex_: bool):
    """n intervals and an integrand g(x, owner) mixing, per interval, a
    smooth exponential (settles on its first panel), a Lorentzian peak of
    random width (settles at the first split or later), and a double pole
    1/(x - x0)^2 inside the interval (trips _Diverge).  The pole is lifted
    by 1e-300 so that a node landing on x0 stays finite.  The fifth kind
    is a spike at the midpoint, which only the first panel sees, on a
    floor of -1e-322: each half underflows to -0.0, and the split total
    must still be +0.0."""
    kind = rng.integers(0, 5, n)    # smooth, wide, sharp, pole, spike
    lo = rng.uniform(-5.0, 5.0, n)
    hi = lo + 10.0 ** np.where(kind == 4, rng.uniform(-3.0, -2.0, n),
                               rng.uniform(-3.0, 1.0, n))
    rate = rng.uniform(0.0, 3.0, n)
    # Half the poles sit next to the centre of a first-split child, so the
    # split total jumps past a _Diverge checkpoint.
    x0 = lo + np.where(rng.random(n) < 0.5, rng.uniform(0.05, 0.95, n),
                       0.25 + 1e-9) * (hi - lo)
    width = np.where(kind == 1, 10.0 ** rng.uniform(-1.0, 0.0, n),
                     10.0 ** rng.uniform(-5.0, -2.0, n)) * (hi - lo)
    peak = np.where((kind == 1) | (kind == 2), 1e-2, 0.0)
    pole = np.where(kind == 3, 1.0, 0.0)
    spike, mid = kind == 4, 0.5 * (lo + hi)
    freq = rng.uniform(-4.0, 4.0, n) if complex_ else None

    def g(x, owner):
        o = owner[:, None]
        d2 = (x - x0[o]) ** 2
        y = (np.exp(-rate[o] * x) + peak[o] / (d2 + width[o] ** 2)
             + pole[o] / (d2 + 1e-300))
        y = np.where(spike[o], np.where(x == mid[o], 1.0, -1e-322), y)
        return y * np.exp(1j * freq[o] * x) if complex_ else y

    return g, lo, hi


# Interval counts on both sides of one and of two 256-interval passes; the
# tests patch quad._MAX_INTERVALS to PASS, so that a case spans passes.
PASS = 256
COUNT = st.one_of(st.integers(1, 600), st.sampled_from([255, 256, 257, 512,
                                                        513]))
TOLS = st.sampled_from([(1e-10, 1e-10), (1e-12, 1e-8), (1e-6, 1e-6)])
MAX_DEPTH = st.sampled_from([0, 1, 2, 24, 48])
MAX_EVALS = st.sampled_from([15, 45, 75, quad._MAX_EVALS])


@seed(20261019)
@settings(max_examples=40, deadline=None, database=None)
@given(COUNT, st.booleans(), st.integers(0, 2 ** 32 - 1), TOLS, MAX_DEPTH,
       MAX_EVALS)
def test_first_split_equals_heap_loop(n, complex_, draw, tols, max_depth,
                                      max_evals):
    g, lo, hi = _case(np.random.default_rng(draw), n, complex_)
    with mock.patch.object(quad, "_MAX_EVALS", max_evals), \
            mock.patch.object(quad, "_MAX_INTERVALS", PASS):
        got = quad._lockstep(g, lo, hi, *tols, max_depth)
        ref = _heap_lockstep(g, lo, hi, *tols, max_depth)
    # The cases hold no NaN, where the engine alone stops refining.
    assert not np.isnan(ref[1]).any()
    for x, y in zip(got, ref):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_case_reaches_every_exit():
    g, lo, hi = _case(np.random.default_rng(7), 600, True)
    _, err, evals, conv, div, _ = quad._lockstep(g, lo, hi, 1e-10, 1e-10, 48)
    assert not np.isnan(err).any()
    assert (conv & (evals == 15)).any()     # the first panel
    assert (conv & (evals == 45)).any()     # the first split
    assert (conv & (evals > 45)).any()      # the heap
    assert div.any()


def _per_interval_tolerance(draw: int, n: int, complex_: bool,
                            max_depth: int):
    """One engine call with a per-interval abs_tol array, checked against one
    scalar call per distinct tolerance over that tolerance's intervals;
    returns the tolerances and the evaluation counts."""
    rng = np.random.default_rng(draw)
    g, lo, hi = _case(rng, n, complex_)
    tols = np.array([1e-6, 1e-10, 1e-13])[rng.integers(0, 3, n)]
    got = quad._lockstep(g, lo, hi, tols, 1e-12, max_depth)
    for t in np.unique(tols):
        idx = np.flatnonzero(tols == t)
        ref = quad._lockstep(lambda x, owner: g(x, idx[owner]), lo[idx],
                             hi[idx], float(t), 1e-12, max_depth)
        for x, y in zip(got, ref):
            assert x.dtype == y.dtype and x[idx].tobytes() == y.tobytes()
    return tols, got[2]


@seed(20261020)
@settings(max_examples=25, deadline=None, database=None)
@given(COUNT, st.booleans(), st.integers(0, 2 ** 32 - 1), MAX_DEPTH)
def test_per_interval_tolerance_equals_one_call_per_tolerance(
        n, complex_, draw, max_depth):
    with mock.patch.object(quad, "_MAX_INTERVALS", PASS):
        _per_interval_tolerance(draw, n, complex_, max_depth)


def test_per_interval_tolerance_reaches_the_heap_loop():
    tols, evals = _per_interval_tolerance(7, 600, True, 48)
    for t in np.unique(tols):
        assert (evals[tols == t] > 45).any()
