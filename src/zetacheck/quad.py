"""Adaptive quadrature with honest error estimates.

One Gauss/Kronrod engine integrates an array of finite intervals in lockstep.
Two paths take integrands that declare their decay, and walk nothing: the
windows, min(1, 1/rate) wide in x, of |f(x)| <= e^(-rate x) on [0, inf)
(integrate_exp_decay, which laplace.rep_inverse_z calls), and the sign lobes
of a declared amplitude times sin or cos (integrate_oscillatory_rows).  Each
fixes its count from a certified tail bound before any evaluation,
integrates the list in one engine call, and charges that bound and the
rounding in place of a stopping rule.

Every other integrand is walked over row-indexed interval sequences, each
row with its own stopping rule.  The windows of t = exp(a - x) for
semi-infinite integrals, so the engine never has to chase an endpoint
singularity of the map itself, stop after quiet windows; the sign lobes of a
plain f (oscillatory_rows, oscillatory_raw) stop on an alternating-series
tail bound, or on Wynn's epsilon algorithm at a block edge once its
estimate meets tolerance and its result agrees with the previous edge's.  A
block integrates the next intervals of every unfinished row in one engine
call, and those past a row's stop count as its evaluations too.

The engine returns per-interval arrays.  It takes every interval's first
panel and, for those that one leaves unsettled, its first bisection on
arrays, so an interval settled by either costs no Python work; only the
few still unsettled get a QUADPACK panel heap each.  A walk of many rows
(the inner integrals of a quadrant, the derivative sides of the Fresnel
identity, the Race integrals, the Poisson and the sigma terms of two trace
audits) keeps each row's stopping state in array slots and advances all
rows a block at a time with cumulative numpy operations, as every lobe
walk does.  A one-row window walk (a semi-infinite integral, the outer walk
of a quadrant) sends each window to a stopping coroutine instead, which
costs less there than the array step's fixed numpy work per block.  Both
add a row's windows in the same order and end it bit for bit alike.  The
relative tolerance is shared by every row of a walk; the absolute one may
be each row's own, and the engine then takes each interval's.

Every integrand is called with an ndarray of abscissae, of any shape, and
must return an ndarray of the same shape; anything else raises TypeError.
The integrand of a many-row walk, window or lobe, is f(x, rows): rows[j]
is the row of x[j], so one call evaluates every row's integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from heapq import heappop, heappush

import numpy as np

from .amplitudes import AmplitudeSpec, Family
from .errors import AmplitudeError, DomainError

__all__ = ["OscKind", "QuadSpec", "QuadResult", "DecayResult",
           "integrate_finite", "integrate_exp_decay",
           "integrate_semi_infinite", "semi_infinite_rows",
           "integrate_oscillatory", "integrate_oscillatory_rows",
           "integrate_quadrant", "oscillatory_raw", "oscillatory_rows",
           "by_row"]


class OscKind(Enum):
    SIN = "sin"
    COS = "cos"


@dataclass(frozen=True)
class QuadSpec:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("abs_tol", "rel_tol"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValueError(f"{name} must lie in (0, 1), got {v}")


@dataclass
class QuadResult:
    value: complex | float
    error_estimate: float
    evaluations: int
    converged: bool
    diverged: bool = False
    inner_failures: int = 0

    def __post_init__(self) -> None:
        if self.error_estimate < 0.0:
            raise ValueError("error_estimate must be >= 0")

    def scaled(self, c: float) -> QuadResult:
        """This result for c times the integrand."""
        return replace(self, value=c * self.value,
                       error_estimate=c * self.error_estimate)


# --------------------------------------------------------------------------
# 15-point Kronrod / 7-point Gauss pair (classical published abscissae).
# --------------------------------------------------------------------------

_XK_HALF = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
            0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
            0.2077849550078985)
_WK_HALF = (0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
            0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
            0.2044329400752989)
_WK_CENTER = 0.2094821410847278
_WG_HALF = (0.1294849661688697, 0.2797053914892767, 0.3818300505051189)
_WG_CENTER = 0.4179591836734694

_NODES = np.array([-x for x in _XK_HALF] + [0.0] + list(reversed(_XK_HALF)))
_WK = np.array(list(_WK_HALF) + [_WK_CENTER] + list(reversed(_WK_HALF)))
# Gauss points are the even-order Kronrod abscissae: indices 1,3,...,13.
_WG = np.array(list(_WG_HALF) + [_WG_CENTER] + list(reversed(_WG_HALF)))

# Bisection depth cap of a panel in finite and window integrals; lobes use 24.
_MAX_DEPTH = 48
_MAX_EVALS = 4_000_000
_MAX_WINDOWS = 700
# Lobes a lobe walk or a declared lobe list may take; a row that needs more
# ends unconverged.
_MAX_LOBES = 768
# Windows or lobes integrated per block: past the stop they are wasted work,
# so a block stays small next to a typical walk of 30-300.  _lobe_counts
# tests _LOBE_BLOCK lobe counts per step.
_WINDOW_BLOCK, _LOBE_BLOCK = 8, 32
# Intervals per engine pass.  Each pass pays a fixed numpy cost for its
# first panels and its first split, so more intervals amortise it; the cap
# bounds the working arrays.  One pass holds a quadrant's first inner block
# (8 outer windows x 15 nodes x 8 inner windows = 960 intervals, twice that
# in a first split) or a 32-lobe block of 32 rows.
_MAX_INTERVALS = 1024
# Window k of the exp map is [_EDGES[k + 1], _EDGES[k]] in t.
_EDGES = np.array([math.exp(-float(k)) for k in range(_MAX_WINDOWS + 1)])
# Rounding in integrate_exp_decay and declared lobe lists, in eps: a computed
# integrand value lies within _EVAL_ULPS eps of its exact |value| (numpy's
# exp, sin, cos and power stay within about 1 eps, checked against mpmath in
# the tests), and a 15-point Kronrod sum adds at most 8 eps of its mass.
_EVAL_ULPS = 4
_ROUND_ULPS = _EVAL_ULPS + 8


def _call(f, x: np.ndarray, *args) -> np.ndarray:
    """f(x, *args), enforcing the array-in, array-out integrand contract."""
    y = f(x, *args)
    shape = getattr(y, "shape", None)
    if shape != x.shape:
        raise TypeError(
            f"integrand must map an ndarray of abscissae to an ndarray of the "
            f"same shape; got {type(y).__name__} of shape {shape} for input "
            f"shape {x.shape}"
        )
    return y


def _panels(g, a: np.ndarray, b: np.ndarray, owner: np.ndarray):
    """Kronrod panels on [a[j], b[j]]: values, errors, max |g| of each."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    y = g(c[:, None] + h[:, None] * _NODES, owner)
    # The ufunc reductions np.sum and np.max call, without their wrappers.
    k15 = h * np.add.reduce(_WK * y, axis=1)
    d = k15 - h * np.add.reduce(_WG * y[:, 1::2], axis=1)
    return k15, _abs(d), np.maximum.reduce(np.abs(y), axis=1)


class _Diverge:
    """Flags runaway growth: total grew 100x past a checkpoint three times.

    A sharp peak missed by the first coarse panel can legitimately grow the
    running total by a few orders of magnitude during refinement; a million-
    fold climb means the refinement is chasing a non-integrable singularity.
    The optional `grew` flag lets window-walking callers demand that the
    latest contribution itself increased: an integrand with a delayed onset
    climbs out of numerical zero and then decays, while a true divergence
    keeps producing ever-larger windows.
    """

    def __init__(self, start: float) -> None:
        self.checkpoint = max(start, 1e-300)
        self.strikes = 0

    def update(self, total_abs: float, grew: bool = True) -> bool:
        if total_abs > 100.0 * self.checkpoint:
            self.checkpoint = total_abs
            if grew:
                self.strikes += 1
        return self.strikes >= 3


def _lockstep(g, lo, hi, abs_tol, rel_tol: float, max_depth: int):
    """Adaptive integrals of g over [lo[i], hi[i]] for every i, in lockstep.

    g(x, owner) maps an (m, 15) array of abscissae, row j in interval
    owner[j], to an array of x's shape.  abs_tol is one float or an array
    of each interval's own; rel_tol is shared.  Each interval runs the
    greedy QUADPACK loop until its error meets its tolerance, max_depth,
    _MAX_EVALS or _Diverge stops it, or its error turns NaN, which no
    refinement can undo; one generation bisects the worst panel of every
    unfinished interval and evaluates all children in one call.  The first
    panel and its bisection run on arrays for every interval, so only the
    intervals that the first split leaves unsettled get a panel heap and
    cost Python work of their own.  Returns per-interval arrays (value,
    error, evals, converged, diverged, peak |g|).
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    per_interval = isinstance(abs_tol, np.ndarray)
    chunks = []
    for s in range(0, lo.size, _MAX_INTERVALS):
        a, b = lo[s:s + _MAX_INTERVALS], hi[s:s + _MAX_INTERVALS]
        atol = abs_tol[s:s + _MAX_INTERVALS] if per_interval else abs_tol
        val, err, peak = _panels(g, a, b, np.arange(s, s + a.size))
        done = err <= np.fmax(atol, rel_tol * _abs(val))
        evals, diverged = np.full(a.size, 15), np.zeros(a.size, dtype=bool)
        chunks.append((val, err, evals, done, diverged, peak))
        todo = (~done).nonzero()[0]
        # The heap loop's gate, at depth 0 after 15 evaluations.
        if not (todo.size and 0 < max_depth and 15 < _MAX_EVALS):
            continue
        # The first split: the heap loop's first generation on arrays, in
        # the same float operations; v - v is its total - pval, which keeps
        # the sign of zero and the NaN of an infinite first panel.
        n, pa, pb, v, e = todo.size, a[todo], b[todo], val[todo], err[todo]
        # [a, mid, b]: its first 2n are the children's lower ends, its last
        # 2n their upper ends.
        ends = np.concatenate([pa, 0.5 * (pa + pb), pb])
        cv, ce, cp = _panels(g, ends[:2 * n], ends[n:],
                             np.concatenate([todo, todo]) + s)
        mid, lv, le, rv, re_ = ends[n:2 * n], cv[:n], ce[:n], cv[n:], ce[n:]
        t, te = v - v + lv + rv, e - e + le + re_
        tmag = _abs(t)
        if per_interval:
            atol = atol[todo]
        tol = np.fmax(atol, rel_tol * tmag)
        val[todo], err[todo], evals[todo], done[todo] = t, te, 45, te <= tol
        peak[todo] = _max(_max(peak[todo], cp[:n]), cp[n:])
        # Unsettled and not NaN: a NaN error stays NaN and never settles.
        rest = np.flatnonzero(te > tol)
        if not rest.size:
            continue
        # The rest go on as if their heap loop had just split them once.
        todo = todo[rest]
        n, owner = rest.size, (s + todo).tolist()
        total, total_err = t[rest].tolist(), te[rest].tolist()
        pk = peak[todo].tolist()
        atol = atol[rest].tolist() if per_interval else [atol] * n
        ev, converged, div = [45] * n, [False] * n, [False] * n
        heaps = [[] for _ in range(n)]
        for heap, x, c, y, l, r, lerr, rerr in zip(heaps, *(
                z[rest].tolist() for z in (pa, mid, pb, lv, rv, le, re_))):
            heappush(heap, (-lerr, 44, x, c, 1, l, lerr))
            heappush(heap, (-rerr, 45, c, y, 1, r, rerr))
        watch = [_Diverge(x) for x in _abs(v)[rest].tolist()]
        for w, x in zip(watch, tmag[rest].tolist()):
            w.update(x)
        active = list(range(n))
        while active:
            split = [(i, heappop(heaps[i])) for i in active
                     if heaps[i][0][4] < max_depth and ev[i] < _MAX_EVALS]
            if not split:
                break
            pa, pb = [p[2] for _, p in split], [p[3] for _, p in split]
            mid = [0.5 * (x + y) for x, y in zip(pa, pb)]
            cv, ce, cp = (v.tolist() for v in _panels(
                g, np.array(pa + mid), np.array(mid + pb),
                np.array([owner[i] for i, _ in split] * 2)))
            m, active = len(split), []
            for j, (i, (_, _, _, _, depth, pval, perr)) in enumerate(split):
                lv, le, rv, re_ = cv[j], ce[j], cv[m + j], ce[m + j]
                ev[i] += 30
                pk[i] = max(pk[i], cp[j], cp[m + j])
                total[i] = total[i] - pval + lv + rv
                total_err[i] = total_err[i] - perr + le + re_
                # The growing evaluation count breaks error ties by age.
                heappush(heaps[i], (-le, ev[i] - 1, pa[j], mid[j],
                                    depth + 1, lv, le))
                heappush(heaps[i], (-re_, ev[i], mid[j], pb[j], depth + 1,
                                    rv, re_))
                if watch[i].update(abs(total[i])):
                    div[i] = True
                elif total_err[i] <= max(atol[i], rel_tol * abs(total[i])):
                    converged[i] = True
                elif total_err[i] == total_err[i]:
                    # A NaN error stays NaN: the interval cannot converge.
                    active.append(i)
        val[todo], err[todo], evals[todo] = total, total_err, ev
        done[todo], diverged[todo], peak[todo] = converged, div, pk
    if len(chunks) == 1:
        return chunks[0]
    return tuple(np.concatenate(c) for c in zip(*chunks))


def integrate_finite(f, a: float, b: float, spec: QuadSpec = QuadSpec()) -> QuadResult:
    """Adaptive integral of f over the finite interval [a, b]."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integrate_finite requires finite endpoints")
    if not a < b:
        raise DomainError(f"need a < b, got a={a}, b={b}")
    val, err, evals, conv, div, _ = (r.item() for r in _lockstep(
        lambda x, _: _call(f, x), [a], [b], spec.abs_tol, spec.rel_tol,
        _MAX_DEPTH))
    return QuadResult(_tidy(val), err, evals, conv, div)


def _tidy(v):
    v = complex(v)
    return v.real if v.imag == 0.0 else v


# --------------------------------------------------------------------------
# Semi-infinite integrals.
# --------------------------------------------------------------------------


def _walk(spec: QuadSpec):
    """Stopping rules of one window walk, as a coroutine.

    Send it each window's (value, error, converged, diverged, mass bound) in
    order; it yields None until the walk stops, then (value, error,
    converged, diverged).  A walk stops at its first window whose running
    total or error is NaN, after the divergence test.
    """
    total, total_err, prev_win = 0.0, 0.0, 0.0
    converged_all, diverged, seen_loud, quiet = True, False, False, 0
    envelopes: list[float] = []
    # Floor the divergence watch at tolerance scale: climbing out of the
    # numerical-zero regime during a delayed onset is not runaway growth.
    watch = _Diverge(max(spec.abs_tol, 1e-300))
    for _ in range(_MAX_WINDOWS):
        val, err, conv, div, mass = yield
        total += val
        total_err += err
        converged_all = converged_all and conv
        diverged = diverged or div
        envelopes.append(max(abs(val), 0.01 * mass))
        if diverged or watch.update(abs(total), grew=abs(val) > prev_win):
            diverged = True
            break
        if total != total or total_err != total_err:
            break  # NaN stays NaN: no later window can settle the walk
        prev_win = abs(val)
        cut = max(spec.abs_tol, spec.rel_tol * abs(total)) / 8.0
        if max(abs(val), mass * 1e-3) < cut:
            quiet += 1
            # Integrands with a delayed onset (negligible for many leading
            # windows, then rising) must not be abandoned early: before any
            # loud window has been seen, keep scouting much further out.
            if quiet >= (2 if seen_loud else 40):
                break
        else:
            seen_loud = True
            quiet = 0
    else:
        converged_all = False

    # Geometric stub for everything past the last window.
    if len(envelopes) >= 2 and envelopes[-2] > 0.0:
        ratio = min(envelopes[-1] / envelopes[-2], 0.9)
        total_err += envelopes[-1] * ratio / (1.0 - ratio)
    yield total, total_err, converged_all and not diverged and quiet >= 2, diverged


def _settle(ends: list, rows, value, error, converged, diverged) -> None:
    """ends[r] = the (value, error, converged, diverged) of row r, for r in
    rows, as Python scalars."""
    for r, end in zip(rows.tolist(), zip(value.tolist(), error.tolist(),
                                         converged.tolist(), diverged.tolist())):
        ends[r] = end


def _max(a, b):
    """Elementwise max(a, b) as the builtin takes it, NaN operands included."""
    return np.where(b > a, b, a)


def _abs(z: np.ndarray) -> np.ndarray:
    """Elementwise |z|, rounded as the builtin abs rounds it."""
    return np.hypot(z.real, z.imag) if np.iscomplexobj(z) else np.abs(z)


def _upcast(block: np.ndarray, *state: np.ndarray) -> tuple:
    """The walker arrays `state`, as complex copies once `block` is complex.

    A walk's sums stay real until it meets a complex value; storing one
    into a real array would drop its imaginary part.
    """
    if np.iscomplexobj(block) and not np.iscomplexobj(state[0]):
        return tuple(x.astype(complex) for x in state)
    return state


def _first(mask: np.ndarray) -> np.ndarray:
    """Column of each row's first True in a (rows, k) mask; k where none."""
    return np.where(mask.any(axis=1), mask.argmax(axis=1), mask.shape[1])


def _running(start: np.ndarray, block: np.ndarray) -> np.ndarray:
    """start[r] + block[r, 0] + ... + block[r, j], added left to right."""
    return np.add.accumulate(np.concatenate([start[:, None], block], axis=1),
                             axis=1)[:, 1:]


class _Coroutine:
    """Walk state of one window row: a stopping coroutine (see _walk), sent
    its windows one at a time."""

    n = 1

    def __init__(self, walk) -> None:
        self.walk, self.ends = walk, [next(walk)]

    def step(self, rows, k0, *block) -> np.ndarray:
        for interval in zip(*(x[0].tolist() for x in block)):
            self.ends[0] = self.walk.send(interval)
            if self.ends[0] is not None:
                break
        return np.array([self.ends[0] is not None])


class _WindowRows:
    """The stopping rules of _walk for many rows, one block at a time.

    Each row's walk state is a slot of an array; a block's (rows, k) results
    become running totals, |z|, quiet-run lengths and each row's first stop
    through cumulative numpy operations, so rows cost no Python work per
    window.  A row's totals are still added in window order, so every row
    ends bit for bit where its own _walk coroutine would.  The totals stay
    real until a block arrives complex (see _upcast).

    Each row has its own absolute tolerance, abs_tol[r] (spec.abs_tol for
    every row by default), in its quiet cut and its divergence floor;
    spec.rel_tol is shared.  The inner walks of a quadrant share one
    tolerance; the Poisson terms of traces.poisson_vanishing_audit and the
    sigma terms of traces.tr_cg_total walk as rows of their own
    tolerances.
    """

    def __init__(self, n: int, spec: QuadSpec, abs_tol=None) -> None:
        self.n, self.spec = n, spec
        self.abs_tol = np.full(n, spec.abs_tol) if abs_tol is None else abs_tol
        self.total, self.error = np.zeros(n), np.zeros(n)
        self.conv = np.ones(n, dtype=bool)
        self.prev, self.env = np.zeros(n), np.zeros(n)  # of the last window
        self.seen, self.quiet = np.zeros(n, dtype=bool), np.zeros(n, dtype=int)
        self.checkpoint = np.maximum(self.abs_tol, 1e-300)
        self.strikes = np.zeros(n, dtype=int)
        self.ends = [None] * n

    def step(self, rows, k0, val, err, conv, div, mass) -> np.ndarray:
        spec, (m, k) = self.spec, val.shape
        (self.total,) = _upcast(val, self.total)
        mag = _abs(val)
        total = _running(self.total[rows], val)
        error = _running(self.error[rows], err)
        tmag = _abs(total)
        conv = np.logical_and.accumulate(conv, axis=1) & self.conv[rows, None]
        env = _max(mag, 0.01 * mass)
        grew = mag > np.concatenate([self.prev[rows, None], mag[:, :-1]], axis=1)

        # _Diverge: the next checkpoint crossing of a row is its first total
        # past 100x the checkpoint; a block rarely holds more than one.
        checkpoint, strikes = self.checkpoint[rows], self.strikes[rows]
        fire, after = np.full(m, k), np.zeros(m, dtype=int)
        idx = np.arange(k)
        while True:
            cross = (tmag > 100.0 * checkpoint[:, None]) & (idx >= after[:, None])
            at = _first(cross)
            hit = np.flatnonzero(at < k)
            if not hit.size:
                break
            j = at[hit]
            checkpoint[hit] = tmag[hit, j]
            strikes[hit] += grew[hit, j]
            fired = (strikes[hit] >= 3) & (fire[hit] == k)
            fire[hit[fired]] = j[fired]
            after[hit] = j + 1

        cut = _max(self.abs_tol[rows, None], spec.rel_tol * tmag) / 8.0
        loud = ~(_max(mag, mass * 1e-3) < cut)
        last_loud = np.maximum.accumulate(
            np.where(loud, idx, -1 - self.quiet[rows, None]), axis=1)
        quiet = idx - last_loud
        seen = np.logical_or.accumulate(loud, axis=1) | self.seen[rows, None]
        # Before any loud window, keep scouting far out (see _walk).
        at_quiet = _first(~loud & (quiet >= np.where(seen, 2, 40)))
        # The divergence test comes first in a window, then the NaN stop.
        at_div = np.minimum(_first(div), fire)
        stop = np.minimum(np.minimum(at_quiet, at_div),
                          _first(np.isnan(total) | np.isnan(error)))

        if k0 + k == _MAX_WINDOWS:
            # The last window a walk may take: every row ends, unconverged.
            stop = np.minimum(stop, k - 1)
        ended = stop < k
        go = np.flatnonzero(~ended)
        g = rows[go]
        self.total[g], self.error[g] = total[go, -1], error[go, -1]
        self.conv[g], self.seen[g] = conv[go, -1], seen[go, -1]
        self.prev[g], self.env[g] = mag[go, -1], env[go, -1]
        self.quiet[g] = quiet[go, -1]
        self.checkpoint[g], self.strikes[g] = checkpoint[go], strikes[go]
        i = np.flatnonzero(ended)
        s, g = stop[i], rows[i]
        # Geometric stub for everything past the last window.
        e0 = np.where(s > 0, env[i, s - 1], self.env[g])
        e1 = env[i, s]
        stub = (k0 + s > 0) & (e0 > 0.0)
        ratio = np.divide(e1, e0, out=np.zeros_like(e1), where=stub)
        ratio = np.where(0.9 < ratio, 0.9, ratio)
        error = np.where(stub, error[i, s] + e1 * ratio / (1.0 - ratio),
                         error[i, s])
        _settle(self.ends, g, total[i, s], error,
                conv[i, s] & (at_quiet[i] < at_div[i]), at_div[i] == s)
        return ended


def _walk_rows(g, walker, edges, block: int, limit: int,
               tol: tuple) -> list[QuadResult]:
    """Walk one interval sequence per row, all rows in lockstep.

    edges(rows, ks) gives the (lo, hi) arrays of intervals ks (a range) of
    each row, row by row; walker holds the stopping state of all walker.n
    rows.  tol is the engine's (abs_tol, rel_tol, max_depth), abs_tol one
    float or an array of each row's own.  A block takes the next intervals
    of every row still walking at the block's first interval, integrates
    them all in one engine call with g(x, rows), rows[j] the row of x[j],
    and hands walker.step the (rows, k) results in order; it returns which
    rows ended.  Every interval of the block counts as its row's
    evaluations, those past the row's stop too.  Peak of the integrand
    times width over-estimates an interval's absolute mass even under
    cancellation, which is what the window stopping rule needs.

    Lobe walks and window walks of many rows step on array state
    (_LobeRows, _WindowRows): numpy calls per block, none per interval.  A
    one-row window walk (integrate_semi_infinite, the outer quadrant walk)
    steps a _Coroutine, whose Python work per window costs less there than
    that fixed numpy work.
    """
    abs_tol, rel_tol, max_depth = tol
    active, evals = np.arange(walker.n), np.zeros(walker.n, dtype=int)
    for k0 in range(0, limit, block):
        if not active.size:
            break
        k = min(block, limit - k0)
        lo, hi = edges(active, range(k0, k0 + k))
        rows = active.repeat(k)
        val, err, ev, conv, div, peak = _lockstep(
            lambda x, owner: g(x, rows[owner]), lo, hi,
            abs_tol[rows] if isinstance(abs_tol, np.ndarray) else abs_tol,
            rel_tol, max_depth)
        np.add.at(evals, rows, ev)
        shape = (active.size, k)
        ended = walker.step(active, k0, val.reshape(shape), err.reshape(shape),
                            conv.reshape(shape), div.reshape(shape),
                            (peak * (hi - lo)).reshape(shape))
        active = active[~ended]
    # A NaN value or error never converges.
    return [QuadResult(_tidy(v), e, ev, c and v == v and e == e, d)
            for (v, e, c, d), ev in zip(walker.ends, evals.tolist())]


def _walk_windows(f, a: float, spec: QuadSpec, walker,
                  abs_tol=None) -> list[QuadResult]:
    """Integrals over [a, inf) of walker.n integrands, walked in lockstep.

    f(x, rows) gets abscissae x and, per row of x, its integrand's index.
    abs_tol, if given, is an array of each row's absolute tolerance, used
    in place of spec.abs_tol; walker must hold the same tolerances.
    """
    def edges(rows, ks):
        return (_EDGES[None, ks.start + 1:ks.stop + 1].repeat(rows.size, 0).ravel(),
                _EDGES[None, ks.start:ks.stop].repeat(rows.size, 0).ravel())

    abs_tol = spec.abs_tol if abs_tol is None else abs_tol
    return _walk_rows(lambda t, rows: _call(f, a - np.log(t), rows) / t,
                      walker, edges, _WINDOW_BLOCK, _MAX_WINDOWS,
                      (abs_tol / 16.0, min(spec.rel_tol, 1e-8), _MAX_DEPTH))


def integrate_semi_infinite(f, a: float, spec: QuadSpec = QuadSpec()) -> QuadResult:
    """Integral of f over [a, inf), mapped to (0, 1] by t = exp(a - x).

    The mapped interval is walked window by window so that decay of the
    integrand, not depth of recursive bisection, decides how far out the
    evaluation reaches.  Stops after two consecutive negligible windows and
    charges a geometric-extrapolation stub for the remainder.
    """
    if not math.isfinite(a):
        raise DomainError("lower endpoint must be finite")
    return _walk_windows(lambda x, _: f(x), a, spec,
                         _Coroutine(_walk(spec)))[0]


@dataclass
class DecayResult(QuadResult):
    """A result of integrate_exp_decay: also the number of windows it
    integrated and the tail bound it charged past them."""
    windows: int = 0
    tail_bound: float = 0.0


def integrate_exp_decay(f, rate: float) -> DecayResult:
    """Integral of f over [0, inf), declared to obey |f(x)| <= e^(-rate x).

    The windows are fixed before any evaluation: width h = min(1, 1/rate)
    in x, and K of them, the least count whose tail bound
    e^(-rate h K) / rate meets tau = abs_tol / 16 of the default QuadSpec,
    at most _MAX_WINDOWS.  One engine call integrates all K windows to the
    per-window tolerances of integrate_semi_infinite's default walk, and
    their values are added in window order.  No window is walked, stopped
    on or extrapolated past.  The estimate is the sum of the panel errors,
    the tail bound and a rounding charge: _ROUND_ULPS eps of each window's
    mass bound (peak |f| times width), which assumes f's values lie within
    _EVAL_ULPS eps of |f|, eps/2 of every running total of the window sum,
    and the tail bound's own rounding.  The result converges only if every
    window does, the value is finite and the tail bound meets tau; a K
    capped at _MAX_WINDOWS never does.
    """
    if not (math.isfinite(rate) and rate > 0.0):
        raise DomainError(f"decay rate must be finite and > 0, got {rate}")
    spec = QuadSpec()
    tau, rel_tol = spec.abs_tol / 16.0, min(spec.rel_tol, 1e-8)
    # rate h = min(rate, 1): K is the least count with step K >= ln(1 / (rate
    # tau)), compared before dividing so that a tiny rate cannot overflow.
    step, h = min(rate, 1.0), min(1.0, 1.0 / rate)
    log_budget = -math.log(tau) - math.log(rate)
    windows = (_MAX_WINDOWS if log_budget > step * _MAX_WINDOWS
               else max(1, math.ceil(log_budget / step)))
    edges = h * np.arange(windows + 1.0)
    tail = math.exp(-rate * edges[-1]) / rate
    if tail > tau and windows < _MAX_WINDOWS:
        # The float edge fell an ulp short of the exact count; one more
        # window adds min(rate, 1) to rate x_K, a 1/K share, far past that.
        windows += 1
        edges = h * np.arange(windows + 1.0)
        tail = math.exp(-rate * edges[-1]) / rate
    val, err, evals, conv, div, peak = _lockstep(
        lambda x, _: _call(f, x), edges[:-1], edges[1:], tau, rel_tol,
        _MAX_DEPTH)
    running = np.add.accumulate(val)
    # Rounding: of f's values and the Kronrod sums, of the window sum, and
    # of the tail bound itself (exp, the division, and the product rate x,
    # whose error exp magnifies by rate x).
    eps = np.finfo(float).eps
    rounding = (_ROUND_ULPS * eps * np.add.reduce(peak * np.diff(edges))
                + 0.5 * eps * np.add.reduce(_abs(running))
                + eps * (2.0 + rate * edges[-1]) * tail)
    error = np.add.reduce(err).item() + tail + rounding.item()
    return DecayResult(
        _tidy(running[-1].item()), error, int(np.add.reduce(evals)),
        bool(conv.all() and np.isfinite(running[-1])) and tail <= tau,
        bool(div.any()), windows=windows, tail_bound=tail)


def semi_infinite_rows(f, a: float, abs_tols) -> list[QuadResult]:
    """Integrals over [a, inf) of f(x, rows) for r = 0, 1, ..., each row r
    to its own absolute tolerance abs_tols[r] and the default rel_tol.

    f(x, rows) gets abscissae x and, per row of x, its row's index.  All
    rows walk in lockstep on one _WindowRows, and row r ends bit for bit
    where integrate_semi_infinite(lambda x: f(x, r), a,
    QuadSpec(abs_tol=abs_tols[r])) ends.
    """
    if not math.isfinite(a):
        raise DomainError("lower endpoint must be finite")
    abs_tol = np.array(abs_tols, dtype=float)
    if not abs_tol.size:
        raise DomainError("need at least one row")
    if not ((0.0 < abs_tol) & (abs_tol < 1.0)).all():
        raise ValueError(f"abs_tols must lie in (0, 1), got {abs_tol}")
    spec = QuadSpec()
    return _walk_windows(f, a, spec, _WindowRows(abs_tol.size, spec, abs_tol),
                         abs_tol)


# --------------------------------------------------------------------------
# Oscillatory integrals over [0, inf).
# --------------------------------------------------------------------------


def _lobe_edges(kind: OscKind, nu, ks) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) arrays of the sign lobes ks of the oscillator at frequency nu.

    ks is a range of lobes, listed row by row for an (n, 1) array nu, or
    an array of lobe indices, one for each entry of an array nu.
    """
    shift = 0.0 if kind == OscKind.SIN else 0.5
    k = np.asarray(ks)
    return ((np.maximum(k - shift, 0.0) * math.pi / nu).ravel(),
            ((k + 1 - shift) * math.pi / nu).ravel())


def _epsilon(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Wynn's epsilon algorithm on each row of the (rows, m) partial sums,
    m >= 4, with the guards and error estimate of QUADPACK's qelg.

    Returns each row's (value, error).  The even columns of the table come
    from the cross rule: the element E below C in column 2j + 2 is
    C + 1 / (1/(C - W) + 1/(S - C) - 1/(C - N)), where N, C and S are
    consecutive elements of column 2j and W is the element of column 2j - 2
    beside S (none for j = 0).  Where N, C and S agree to rounding, the
    sequence has converged: the result of S's diagonal is S, with error
    |S - C| + |C - N|.  Where two of N, C, S and W agree to rounding, or
    C / (E - C) is at most 1e-4 in modulus (the table turns irregular), E
    is not formed: it is NaN, and so is every element that needs it.  The
    result of the diagonal through the last of k sums is its element E of
    least |S - C| + |E - S| + |C - N|, ties to the higher column, or that
    sum where it has none.  A row's value is the result through all m sums;
    its error is the distance from that to the results through m - 1, m - 2
    and m - 3, and at least 5 ulp of the value.  Rows never mix, so a row's
    result does not depend on the rows beside it.
    """
    eps = np.finfo(float).eps
    # The results of the diagonals through the last four sums.
    res = sums[:, -4:].copy()
    res_err = np.full(res.shape, np.inf)
    exact = np.zeros(res.shape, dtype=bool)
    col, mag, west = sums, _abs(sums), None
    with np.errstate(all="ignore"):  # unformed elements are inf or NaN
        while col.shape[1] >= 3:
            n, c, s = col[:, :-2], col[:, 1:-1], col[:, 2:]
            an, ac, as_ = mag[:, :-2], mag[:, 1:-1], mag[:, 2:]
            d2, d3 = s - c, c - n
            e2, e3 = _abs(d2), _abs(d3)
            near2 = e2 <= np.maximum(as_, ac) * eps
            near3 = e3 <= np.maximum(ac, an) * eps
            skip = near2 | near3
            ss = 1.0 / d2 - 1.0 / d3
            if west is not None:
                w, aw = west[0][:, 2:-2], west[1][:, 2:-2]
                d1 = c - w
                skip |= _abs(d1) <= np.maximum(ac, aw) * eps
                ss = 1.0 / d1 + ss
            # A NaN element makes ss NaN, so nothing that needs it forms.
            skip |= ~(_abs(ss * c) > 1e-4)
            new = np.where(skip, np.nan, c + 1.0 / ss)
            err = np.where(skip, np.nan, e2 + _abs(new - s) + e3)
            # Column j's last t elements lie on the last t diagonals.
            t = min(4, new.shape[1])
            r, r_err, r_exact = (x[:, 4 - t:] for x in (res, res_err, exact))
            better = err[:, -t:] <= r_err
            np.copyto(r, new[:, -t:], where=better)
            np.copyto(r_err, err[:, -t:], where=better)
            hit = (near2 & near3)[:, -t:]
            np.copyto(r, s[:, -t:], where=hit)
            np.copyto(r_err, (e2 + e3)[:, -t:], where=hit)
            r_exact |= hit
            if skip.all():
                break
            west, col, mag = (col, mag), new, _abs(new)
    value = res[:, 3]
    error = np.where(exact[:, 3], res_err[:, 3], _abs(value - res[:, 2])
                     + _abs(value - res[:, 1]) + _abs(value - res[:, 0]))
    return value, _max(error, 5.0 * eps * _abs(value))


class _LobeRows:
    """Stopping rules of a lobe walk for many rows, one block at a time.

    As _WindowRows does for _walk, each row's walk state is a slot of an
    array.  A tail stop comes first: a lobe is small when it lies below
    abs_tol / 10 and its index is at least 1, and a row ends on lobe e, the
    first lobe after a small one: its value is the running total through
    lobe e - 1, and lobe e bounds the alternating tail.  Each row carries
    whether its last lobe was small, so e may be a block's first lobe.  A
    row whose running total or error turns NaN at an earlier lobe ends
    there, on its running sums.

    At the block's last lobe c, or at lobe _MAX_LOBES - 1 if the block
    holds it, the rows still walking whose lobe c is not small extrapolate
    their last _LOBE_BLOCK partial sums in one _epsilon call.  A row ends on
    the result once its error and its drift, the distance to its previous
    result (NaN at the first), both meet tolerance, the larger of the two
    being its error; so no row ends on its first result, and one whose
    amplitude changes course after a window walks on into the change.  At
    lobe _MAX_LOBES - 1 every such row ends in any case, unconverged unless
    its stop holds, and that settle overwrites any tail or NaN stop the row
    met past it in the same block; a row whose lobe _MAX_LOBES - 1 is small
    ends on its lookahead lobe _MAX_LOBES.  So no row walks further, and a
    small or NaN lobe past the cap never decides a row's end.  Each row
    carries the partial sums of its last block and its last epsilon result;
    they stay real until a block arrives complex (see _upcast).
    """

    def __init__(self, n: int, spec: QuadSpec) -> None:
        self.n, self.spec = n, spec
        self.total, self.error = np.zeros(n), np.zeros(n)
        self.conv, self.div = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
        self.small = np.zeros(n, dtype=bool)
        self.partials = np.zeros((n, _LOBE_BLOCK))
        self.last = np.full(n, math.nan)
        self.ends = [None] * n

    def step(self, rows, k0, val, err, conv, div, _mass) -> np.ndarray:
        spec, k = self.spec, val.shape[1]
        self.total, self.partials, self.last = _upcast(
            val, self.total, self.partials, self.last)
        mag = _abs(val)
        total = _running(self.total[rows], val)
        error = _running(self.error[rows], err)
        conv = np.logical_and.accumulate(conv, axis=1) & self.conv[rows, None]
        div = np.logical_or.accumulate(div, axis=1) | self.div[rows, None]
        lobe = k0 + np.arange(k)
        small = (mag < spec.abs_tol / 10.0) & (lobe >= 1)
        stop = _first(np.concatenate([self.small[rows, None], small[:, :-1]],
                                     axis=1))
        # NaN stays NaN: a row ends on the running sums of its first NaN
        # lobe, unless that lobe is the lookahead of a tail stop.
        at_nan = _first(np.isnan(total) | np.isnan(error))
        i = np.flatnonzero(at_nan < stop)
        n = at_nan[i]
        _settle(self.ends, rows[i], total[i, n], error[i, n], conv[i, n],
                div[i, n])
        i = np.flatnonzero((stop < k) & (stop <= at_nan))
        s = stop[i]
        # Alternating-series tail: the first omitted lobe bounds the rest.
        _settle(self.ends, rows[i],
                np.concatenate([self.total[rows, None], total], axis=1)[i, s],
                np.concatenate([self.error[rows, None], error], axis=1)[i, s]
                + (mag[i, s] + err[i, s]), conv[i, s], div[i, s])
        end_at = np.minimum(stop, at_nan)
        ended = end_at < k
        c = min(_MAX_LOBES - 1 - k0, k - 1)
        # The block edge stop at lobe c, for the rows walking on without a
        # tail stop; a block in which every row has ended tests none.
        i = np.flatnonzero((end_at > c) & ~small[:, c]) if c >= 0 else rows[:0]
        if i.size:
            value, tail = _epsilon(np.concatenate(
                [self.partials[rows[i]], total[i, :c + 1]],
                axis=1)[:, -min(_MAX_LOBES, _LOBE_BLOCK):])
            drift = _abs(value - self.last[rows[i]])
            tol = _max(spec.abs_tol, spec.rel_tol * _abs(value))
            ok = (tail <= tol) & (drift <= tol)
            self.last[rows[i]] = value
            tail = _max(tail, drift)  # a NaN drift loses
            end = ok | (k0 + c == _MAX_LOBES - 1)
            i, value, tail, ok = i[end], value[end], tail[end], ok[end]
            _settle(self.ends, rows[i], value, error[i, c] + tail,
                    conv[i, c] & ok, div[i, c])
            ended[i] = True
        j = np.flatnonzero(~ended)
        g = rows[j]
        self.total[g], self.error[g] = total[j, -1], error[j, -1]
        self.conv[g], self.div[g] = conv[j, -1], div[j, -1]
        self.small[g], self.partials[g] = small[j, -1], total[j]
        return ended


def oscillatory_rows(f, nus, kind: OscKind,
                     spec: QuadSpec = QuadSpec()) -> list[QuadResult]:
    """Lobe-partitioned integrals of f(x, r)*osc(nus[r] x) over [0, inf)
    for r = 0, 1, ...

    osc is sin or cos by kind.  f(x, rows) gets abscissae x and, per row of
    x, its row's index, as in semi_infinite_rows; every row walks its own
    lobes, all rows in lockstep on one _LobeRows.  No positivity or
    monotonicity is assumed about f, so a row with no tail stop ends on
    Wynn's epsilon at a block edge.  A row's result is the same as its own
    one-row walk.
    """
    nus = np.array([float(nu) for nu in nus])
    if not nus.size:
        raise DomainError("need at least one frequency")
    for nu in nus:
        if not (math.isfinite(nu) and nu > 0.0):
            raise DomainError("oscillator frequency must be finite and > 0")
        if nu > 1e3:
            raise DomainError("oscillator frequency capped at 1e3 for audits")
    osc = np.sin if kind == OscKind.SIN else np.cos
    # The last block holds the lookahead lobe _MAX_LOBES.
    limit = _LOBE_BLOCK * (_MAX_LOBES // _LOBE_BLOCK + 1)
    return _walk_rows(
        lambda x, rows: _call(f, x, rows) * osc(nus[rows, None] * x),
        _LobeRows(nus.size, spec),
        lambda rows, ks: _lobe_edges(kind, nus[rows, None], ks),
        _LOBE_BLOCK, limit, (spec.abs_tol / 50.0, 1e-10, 24))


def oscillatory_raw(f, nu: float, kind: OscKind,
                    spec: QuadSpec = QuadSpec()) -> QuadResult:
    """Lobe-partitioned integral of f(x)*sin(nu x) (or cos) over [0, inf).

    The one-row case of oscillatory_rows, with a one-argument f.
    """
    return oscillatory_rows(lambda x, _: f(x), [nu], kind, spec)[0]


def _distinct(items: list) -> tuple[list, np.ndarray]:
    """The distinct items, in first-seen order, and each item's index
    among them."""
    distinct = list(dict.fromkeys(items))
    index = {g: i for i, g in enumerate(distinct)}
    return distinct, np.array([index[g] for g in items])


def by_row(functions: list):
    """The row-indexed integrand f(x, rows) = functions[rows[j]](x[j]).

    Rows whose functions are equal share one call on their abscissae, which
    are masked out of x by row; a single distinct function gets x whole.
    Each function is elementwise, so a row's values do not depend on the
    rows it shares a call with.
    """
    distinct, which = _distinct(functions)
    if len(distinct) == 1:
        (g,) = distinct
        return lambda x, _: _call(g, x)

    def f(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        k = which[rows]
        parts = [(m, _call(g, x[m])) for i, g in enumerate(distinct)
                 if (m := k == i).any()]
        y = np.empty(x.shape, np.result_type(*(p for _, p in parts)))
        for m, p in parts:
            y[m] = p
        return y

    return f


# Integration-by-parts terms a declared tail may take before its remainder.
_TAIL_TERMS = 12


def _lobe_counts(amplitudes, nus: np.ndarray, kind: OscKind, tau: float,
                 start: int) -> tuple[np.ndarray, ...]:
    """Each row's lobe count K, and its tail by integration by parts past
    x, the far edge of lobe K - 1; row r is A(t) osc(nu t) for
    A = amplitudes[r] and nu = nus[r], and osc turns at x from sign
    (-1)^(K-1) to (-1)^K.

    Integrating by parts twice gives T[A] = (-1)^K A(x)/nu - T[A'']/nu^2
    for T[A] = int_x^inf A(t) osc(nu t) dt, so after k steps
    T = (-1)^K sum_{i<k} (-1)^i A^(2i)(x)/nu^(2i+1) + R_k, and
    |R_k| <= 2 M_k/nu^(2k+1) for the majorant M_k of A^(2k) that
    AmplitudeSpec.even_derivatives states; where A^(2k) is positive and
    decreases to 0 past x, its lobes alternate and shrink, and M_k is
    A^(2k)(x).  Each row takes the k of least bound, the first if tied, up
    to _TAIL_TERMS; k = 0 is the Dirichlet bound 2 A(x)/nu, with no tail
    value.  K is the least count in [start + 1, _MAX_LOBES] whose bound
    meets tau, else _MAX_LOBES, testing the bounds alone _LOBE_BLOCK counts
    at a time; the tail is summed at K only.  Term i is off by at most (_EVAL_ULPS + 7i + 2) eps of itself and each
    of the k sums by eps/2 of their absolute sum, so the rounding charge is
    (_ROUND_ULPS + 8i) eps of each |term i|.  Returns the arrays of K and of
    the tail's value, with its sign (-1)^K, bound and charge in units of
    eps.  See DLMF 2.3(i).
    """
    distinct, which = _distinct(amplitudes)
    # nu^(2i+1), one factor nu^2 at a time.
    scale = np.multiply.accumulate(np.concatenate(
        [nus[:, None], np.repeat((nus * nus)[:, None], _TAIL_TERMS, axis=1)],
        axis=1), axis=1)
    count, todo = np.empty(nus.size, dtype=int), np.arange(nus.size)
    k0 = start + 1
    while todo.size:
        ks = np.arange(k0, min(k0 + _LOBE_BLOCK, _MAX_LOBES + 1))
        x = _lobe_edges(kind, nus[todo, None], ks - 1)[1].reshape(-1, ks.size)
        least = np.empty(x.shape)
        for i, amplitude in enumerate(distinct):
            if (m := which[todo] == i).any():
                majorant = amplitude.even_derivatives(
                    x[m].ravel(), _TAIL_TERMS + 1)[1].reshape(
                        -1, ks.size, _TAIL_TERMS + 1)
                least[m] = (2.0 * (majorant / scale[todo[m], None])).min(
                    axis=2)
        at = _first((least <= tau) | (ks == _MAX_LOBES))
        done = at < ks.size
        count[todo[done]] = ks[at[done]]
        todo, k0 = todo[~done], k0 + _LOBE_BLOCK
    x = _lobe_edges(kind, nus, count - 1)[1]
    d, majorant = np.empty((2, nus.size, _TAIL_TERMS + 1))
    for i, amplitude in enumerate(distinct):
        if (m := which == i).any():
            d[m], majorant[m] = amplitude.even_derivatives(x[m],
                                                           _TAIL_TERMS + 1)
    term, bound = d / scale, 2.0 * (majorant / scale)
    k, j = bound.argmin(axis=1), np.arange(nus.size)
    charge = np.abs(term) * (_ROUND_ULPS + 8.0 * np.arange(_TAIL_TERMS + 1))
    term[:, 1::2] *= -1.0
    # Column k: the sum of the first k signed terms, and of their charges.
    sums, charges = (np.add.accumulate(np.concatenate(
        [np.zeros((nus.size, 1)), c[:, :-1]], axis=1), axis=1)[j, k]
        for c in (term, charge))
    return count, np.where(count % 2, -sums, sums), bound[j, k], charges


def _declared_rows(amplitudes, nus, kind: OscKind, spec: QuadSpec,
                   start: int = 0) -> list[QuadResult]:
    """Integrals of amplitudes[r](x) osc(nus[r] x) over [0, inf), less the
    first `start` lobes, for every row r: one _lockstep call integrates
    lobes start, ..., K - 1 of every row, K from _lobe_counts at
    tau = spec.abs_tol, to a lobe walk's per-lobe tolerances.

    A row adds its lobes in order, then its signed tail.  Its estimate adds
    its lobe errors, its tail bound and eps times: _ROUND_ULPS of each lobe's
    peak |f| times width; 2 nu hi A(lo) times the width, as the rounded
    nodes and phase nu x are off by at most 2 eps nu hi on [lo, hi] (at the
    tail's edge too); half of every running total and of the value.  A row
    converges only if its lobes do, its value is finite and its bound meets
    tau, so a count capped at _MAX_LOBES never does.
    """
    nus = np.array(nus, dtype=float)
    f = by_row([a.value for a in amplitudes])
    osc = np.sin if kind == OscKind.SIN else np.cos
    count, *tail = _lobe_counts(amplitudes, nus, kind, spec.abs_tol, start)
    lobes = count - start
    rows = np.repeat(np.arange(nus.size), lobes)
    col = np.arange(rows.size) - (np.cumsum(lobes) - lobes)[rows]
    nu = nus[rows]
    lo, hi = _lobe_edges(kind, nu, col + start)
    val, err, evals, conv, div, peak = _lockstep(
        lambda x, owner: f(x, rows[owner]) * osc(nu[owner, None] * x),
        lo, hi, spec.abs_tol / 50.0, 1e-10, 24)
    # Each row's sums in lobe order, then its tail's value, bound and charge.
    j, table = np.arange(nus.size), np.zeros((3, nus.size, lobes.max() + 1))
    table[:, rows, col] = val, err, (hi - lo) * (
        _ROUND_ULPS * peak + 2.0 * nu * hi * f(lo, rows))
    table[:, j, lobes] = tail
    running = np.add.accumulate(table, axis=2)
    moved = np.add.accumulate(np.abs(running[0]), axis=1)[j, lobes]
    value, error, charge = running[:, j, lobes]
    error = error + np.finfo(float).eps * (charge + 0.5 * moved)
    converged = ((np.bincount(rows, ~conv, nus.size) == 0)
                 & np.isfinite(value) & (tail[1] <= spec.abs_tol))
    return [QuadResult(*r) for r in zip(
        value.tolist(), error.tolist(),
        np.bincount(rows, evals, nus.size).astype(int).tolist(),
        converged.tolist(), (np.bincount(rows, div, nus.size) > 0).tolist())]


def _improper_power(amplitude: AmplitudeSpec, kind: OscKind,
                    spec: QuadSpec) -> QuadResult:
    """int_0^inf u^(-p) osc(u) du for an improper amplitude u^(-p).

    The first lobe takes u = q*q, which removes its endpoint singularity,
    and charges _ROUND_ULPS eps of its mass bound and eps/2 of the value;
    the rest is _declared_rows at frequency 1 past that lobe."""
    p = 1.0 if amplitude.family == Family.RECIPROCAL else 0.5
    osc = np.sin if kind == OscKind.SIN else np.cos
    width = math.sqrt((1.0 - (0.0 if kind == OscKind.SIN else 0.5)) * math.pi)
    val, err, evals, conv, _, peak = (x.item() for x in _lockstep(
        lambda q, _: 2.0 * q * osc(q * q) * (q * q) ** (-p), [1e-150],
        [width], spec.abs_tol / 50.0, 1e-12, 40))
    rest = _declared_rows([amplitude], [1.0], kind, spec, 1)[0]
    value = val + rest.value
    rounding = np.finfo(float).eps.item() * (_ROUND_ULPS * peak * width
                                             + 0.5 * abs(value))
    return QuadResult(value, err + rest.error_estimate + rounding,
                      evals + rest.evaluations, conv and rest.converged)


def integrate_oscillatory_rows(amplitudes, nus, kind: OscKind,
                               spec: QuadSpec = QuadSpec()
                               ) -> list[QuadResult]:
    """Integrals of amplitudes[r](x) * sin(nus[r] x) (or cos) over [0, inf)
    for every row r; row r is integrate_oscillatory(amplitudes[r], nus[r],
    kind, spec), bit for bit.

    Every row is checked, in row order, before any integral runs, so a bad
    argument raises the error, type and message, that a loop of
    integrate_oscillatory calls raises first.  The proper rows are the rows
    of one _declared_rows call, each distinct amplitude validated once; the
    improper rows scale one _improper_power result per exponent.  A row's
    lobe count meets spec.abs_tol alone: spec.rel_tol does not loosen it.
    """
    amplitudes, nus = list(amplitudes), list(nus)
    if len(amplitudes) != len(nus):
        raise ValueError(f"{len(amplitudes)} amplitudes for {len(nus)} "
                         f"frequencies")
    if not nus:
        raise DomainError("need at least one row")
    validated: set[AmplitudeSpec] = set()
    for amplitude, nu in zip(amplitudes, nus):
        if not (math.isfinite(nu) and nu > 0.0):
            raise DomainError("oscillator frequency must be finite and > 0")
        if amplitude.family == Family.RECIPROCAL and kind == OscKind.COS:
            raise AmplitudeError(
                "cosine against a 1/x amplitude diverges logarithmically at 0"
            )
        if amplitude.improper:
            continue
        if amplitude not in validated:
            amplitude.validate_pcid()
            validated.add(amplitude)
        if nu > 1e3:
            raise DomainError("oscillator frequency capped at 1e3 for audits")
    proper = [r for r, a in enumerate(amplitudes) if not a.improper]
    results = dict(zip(proper, _declared_rows(
        [amplitudes[r] for r in proper], [nus[r] for r in proper], kind,
        spec) if proper else []))
    powers: dict[float, QuadResult] = {}
    for r, (amplitude, nu) in enumerate(zip(amplitudes, nus)):
        if amplitude.improper:
            p = 1.0 if amplitude.family == Family.RECIPROCAL else 0.5
            if p not in powers:
                powers[p] = _improper_power(amplitude, kind, spec)
            # int osc(nu x) x^-p dx = nu^(p-1) int osc(u) u^-p du.
            results[r] = powers[p].scaled(nu ** (p - 1.0))
    return [results[r] for r in range(len(nus))]


def integrate_oscillatory(amplitude: AmplitudeSpec, nu: float, kind: OscKind,
                          spec: QuadSpec = QuadSpec()) -> QuadResult:
    """Integral of amplitude(x) * sin(nu x) (or cos) over [0, inf); the
    one-row case of integrate_oscillatory_rows."""
    return integrate_oscillatory_rows([amplitude], [nu], kind, spec)[0]


# --------------------------------------------------------------------------
# Quadrant (2-D) integrals.
# --------------------------------------------------------------------------


def integrate_quadrant(f2, spec: QuadSpec = QuadSpec()) -> QuadResult:
    """Iterated integral of f2(l1, l2) over the open positive quadrant.

    f2 is called with broadcastable arrays: l1 of shape (m, 1) holds the
    outer node of each row of the (m, 15) inner abscissae l2, and the result
    has l2's shape.  The inner integrals of all the outer nodes an outer
    engine call evaluates run in lockstep.
    """
    inner_spec = replace(spec, abs_tol=max(spec.abs_tol / 64.0, 1e-14),
                         rel_tol=max(spec.rel_tol / 16.0, 1e-13))
    state = {"evals": 0, "failures": 0, "inner_err": 0.0}

    def marginal(l1: np.ndarray, _) -> np.ndarray:
        nodes = l1.ravel()
        inner = _walk_windows(lambda l2, rows: f2(nodes[rows, None], l2), 0.0,
                              inner_spec, _WindowRows(nodes.size, inner_spec))
        state["evals"] += sum(r.evaluations for r in inner)
        state["inner_err"] = max([state["inner_err"]]
                                 + [r.error_estimate for r in inner])
        state["failures"] += sum(not r.converged for r in inner)
        return np.array([complex(r.value) for r in inner]).reshape(l1.shape)

    outer = _walk_windows(marginal, 0.0, spec, _Coroutine(_walk(spec)))[0]
    # Inner error is charged over the effective outer integration length.
    length = max(1.0, math.log(1.0 + state["evals"]))
    err = outer.error_estimate + state["inner_err"] * 8.0 * length
    return QuadResult(outer.value, err, state["evals"],
                      outer.converged and state["failures"] == 0,
                      outer.diverged, inner_failures=state["failures"])

