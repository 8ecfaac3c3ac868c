"""Adaptive quadrature with honest error estimates.

One Gauss/Kronrod engine integrates an array of finite intervals in lockstep,
and one walker drives it over row-indexed interval sequences.  Each row is a
sequence of intervals with its own stopping rule: the windows of the map
t = exp(a - x) for semi-infinite integrals, so the engine never has to chase
an endpoint singularity of the map itself, or the sign lobes of sin(nu x) or
cos(nu x) for oscillatory integrals over [0, inf), stopped by an
alternating-series tail bound or at a block edge.  A row of a declared
amplitude (an AmplitudeSpec, through integrate_oscillatory_rows) ends at
the first edge where its certified integration-by-parts tail meets
tolerance, on the partial sum plus that tail; the improper x^-p
amplitudes end on the same tail at lobe 32.  Only an undeclared integrand
(a plain f in oscillatory_rows or oscillatory_raw) ends on Wynn's epsilon
algorithm on the partial sums, once its estimate meets tolerance and its
result agrees with the previous edge's.  A block integrates the next
intervals of every unfinished row in one engine call, and the ones computed
past a row's stop count as its evaluations too.

The engine returns per-interval arrays.  It takes every interval's first
panel and, for those that one leaves unsettled, its first bisection on
arrays, so an interval settled by either costs no Python work; only the
few still unsettled get a QUADPACK panel heap each.  A walk of many rows
(the inner integrals of a quadrant, the frequencies and amplitudes of a
positivity audit or of a Fresnel check, the Race integrals of the race
suite, the Poisson terms and the sigma terms of two trace audits) keeps
each row's stopping state in array slots and advances all rows a block at
a time with cumulative numpy operations; every lobe walk does so, one-row
walks too.  A one-row window walk (a semi-infinite integral, the outer walk
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

__all__ = ["OscKind", "QuadSpec", "QuadResult", "integrate_finite",
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
# Lobes a lobe walk may take before it ends, unconverged, on its last block
# edge result.
_MAX_LOBES = 768
# Windows or lobes integrated per block: past the stop they are wasted work,
# so a block stays small next to a typical walk of 30-300.
_WINDOW_BLOCK, _LOBE_BLOCK = 8, 32
# Intervals per engine pass.  Each pass pays a fixed numpy cost for its
# first panels and its first split, so more intervals amortise it; the cap
# bounds the working arrays.  One pass holds a quadrant's first inner block
# (8 outer windows x 15 nodes x 8 inner windows = 960 intervals, twice that
# in a first split) or a 32-lobe block of 32 rows.
_MAX_INTERVALS = 1024
# Window k of the exp map is [_EDGES[k + 1], _EDGES[k]] in t.
_EDGES = np.array([math.exp(-float(k)) for k in range(_MAX_WINDOWS + 1)])


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


def _lobe_edges(kind: OscKind, nu, ks: range) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) arrays of the sign lobes ks of the oscillator at frequency nu.

    nu is a float or an (n, 1) array of row frequencies, whose lobes are
    listed row by row.
    """
    shift = 0.0 if kind == OscKind.SIN else 0.5
    k = np.arange(ks.start, ks.stop)
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
    holds it, the rows still walking whose lobe c is not small test a block
    edge stop.  A walk of declared amplitudes is given tail(rows, K), the
    certified tail of each row past its K = c + 1 lobes as (value, bound)
    (see _ibp_tail): a row ends once its bound meets tolerance, on its
    running total plus the tail value, with the bound added to its lobe
    errors.  Any other walk extrapolates each row's last _LOBE_BLOCK
    partial sums in one _epsilon call; a row's drift is the distance from
    that result to its previous one (NaN at the first), and the row ends on
    the result once its error and its drift both meet tolerance, the larger
    of the two being the result's error.  So no epsilon row ends on its
    first result, and one whose amplitude changes course after a window
    walks on into the change.  At lobe _MAX_LOBES - 1 every such row ends
    in any case, unconverged unless its stop holds.  Each row carries the
    partial sums of its last block and its last epsilon result; they stay
    real until a block arrives complex (see _upcast).

    No row walks past lobe _MAX_LOBES - 1 except into the lookahead lobe
    _MAX_LOBES.  In the block that holds lobe _MAX_LOBES - 1, every row
    still walking there ends on its block edge result unless that lobe is
    small, and that settle overwrites any tail or NaN stop the row met past
    it in the same block; a row whose lobe _MAX_LOBES - 1 is small ends on
    its next lobe.  So a small or NaN lobe past the cap never decides a
    row's end.
    """

    def __init__(self, n: int, spec: QuadSpec, tail=None) -> None:
        self.n, self.spec, self.tail = n, spec, tail
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
            if self.tail is not None:
                value, tail = self.tail(rows[i], k0 + c + 1)
                value = total[i, c] + value
                ok = tail <= _max(spec.abs_tol, spec.rel_tol * _abs(value))
            else:
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
    return _lobe_walk(f, nus, kind, spec, None)


def _lobe_walk(f, nus, kind: OscKind, spec: QuadSpec,
               amplitudes) -> list[QuadResult]:
    """oscillatory_rows, with f(x, r) = amplitudes[r](x) declared when
    amplitudes is given: its rows then end on their certified tails
    (_declared_tail) instead of on epsilon."""
    nus = np.array([float(nu) for nu in nus])
    if not nus.size:
        raise DomainError("need at least one frequency")
    for nu in nus:
        if not (math.isfinite(nu) and nu > 0.0):
            raise DomainError("oscillator frequency must be finite and > 0")
        if nu > 1e3:
            raise DomainError("oscillator frequency capped at 1e3 for audits")
    osc = np.sin if kind == OscKind.SIN else np.cos
    tail = None if amplitudes is None else _declared_tail(amplitudes, nus,
                                                          kind)
    # The last block holds the lookahead lobe _MAX_LOBES.
    limit = _LOBE_BLOCK * (_MAX_LOBES // _LOBE_BLOCK + 1)
    return _walk_rows(
        lambda x, rows: _call(f, x, rows) * osc(nus[rows, None] * x),
        _LobeRows(nus.size, spec, tail),
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


def _ibp_tail(amplitude: AmplitudeSpec, x: np.ndarray,
              nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tail of amplitude(t) osc(nu t) past x, by integration by parts,
    and a bound on its remainder; x[j] is a zero of osc(nu[j] t) where it
    turns from sign (-1)^(K-1) to (-1)^K.

    Integrating by parts twice gives T[A] = (-1)^K A(x)/nu - T[A'']/nu^2
    for T[A] = int_x^inf A(t) osc(nu t) dt, so after k steps
    T = (-1)^K sum_{i<k} (-1)^i A^(2i)(x)/nu^(2i+1) + R_k.  Where A^(2k) is
    positive and decreases to 0 past x, its lobes alternate and shrink,
    and the first one bounds the rest: |R_k| <= 2 A^(2k)(x)/nu^(2k+1).
    Each row takes the k of least bound among its certified terms (see
    AmplitudeSpec.even_derivatives), the first if tied, up to _TAIL_TERMS;
    k = 0 is the Dirichlet bound 2 A(x)/nu, with no tail value.  Returns
    the sums without their sign (-1)^K, and the bounds.  Rounding is not
    in the bound.  See DLMF 2.3(i).
    """
    d, certified = amplitude.even_derivatives(x, _TAIL_TERMS + 1)
    # nu^(2i+1), one factor nu^2 at a time.
    scale = np.multiply.accumulate(np.concatenate(
        [nu[:, None], np.repeat((nu * nu)[:, None], _TAIL_TERMS, axis=1)],
        axis=1), axis=1)
    term = d / scale
    bound = np.where(np.arange(_TAIL_TERMS + 1) < certified[:, None],
                     2.0 * term, math.inf)
    k, j = bound.argmin(axis=1), np.arange(x.size)
    term[:, 1::2] *= -1.0
    sums = np.add.accumulate(term[:, :-1], axis=1)
    return np.where(k > 0, sums[j, k - 1], 0.0), bound[j, k]


def _declared_tail(amplitudes, nus: np.ndarray, kind: OscKind):
    """tail(rows, K) of a lobe walk of amplitudes[r](x) osc(nus[r] x), row
    r for r = 0, 1, ...: the (value, bound) of _ibp_tail for each of rows
    past its K-th lobe, the sign (-1)^K included.  Rows of one amplitude
    share one call."""
    shift = 0.0 if kind == OscKind.SIN else 0.5
    distinct, which = _distinct(amplitudes)

    def tail(rows: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
        nu = nus[rows]
        x, k = (K - shift) * math.pi / nu, which[rows]
        value, bound = np.empty(rows.size), np.empty(rows.size)
        for i, amplitude in enumerate(distinct):
            if (m := k == i).any():
                value[m], bound[m] = _ibp_tail(amplitude, x[m], nu[m])
        return (-value if K % 2 else value), bound

    return tail


def _improper_power(amplitude: AmplitudeSpec, kind: OscKind,
                    spec: QuadSpec) -> QuadResult:
    """int_0^inf u^(-p) osc(u) du for an improper amplitude u^(-p).

    Lobe sums decay only algebraically, so the walk stops at lobe
    _LOBE_BLOCK on the completely monotone tail of _ibp_tail, whose bound
    joins the lobe errors; it converges if every lobe does and the bound
    meets tolerance.  The first lobe takes u = q*q, which removes its
    endpoint singularity.
    """
    p = 1.0 if amplitude.family == Family.RECIPROCAL else 0.5
    osc = np.sin if kind == OscKind.SIN else np.cos
    shift = 0.0 if kind == OscKind.SIN else 0.5
    first = _lockstep(lambda q, _: 2.0 * q * osc(q * q) * (q * q) ** (-p),
                      [1e-150], [math.sqrt((1.0 - shift) * math.pi)],
                      spec.abs_tol / 50.0, 1e-12, 40)
    rest = _lockstep(lambda u, _: osc(u) * u ** (-p),
                     *_lobe_edges(kind, 1.0, range(1, _LOBE_BLOCK)),
                     spec.abs_tol / 50.0, 1e-12, 24)
    val, err, evals, conv = (np.concatenate([x, y]).tolist()
                             for x, y in zip(first[:4], rest[:4]))
    total, total_err = 0.0, 0.0
    for v, e in zip(val, err):
        total += v
        total_err += e
    # The tail past lobe _LOBE_BLOCK of a one-row walk at frequency 1.
    tail, bound = (x.item() for x in _declared_tail(
        [amplitude], np.ones(1), kind)(np.zeros(1, dtype=int), _LOBE_BLOCK))
    value = total + tail
    return QuadResult(value, total_err + bound, sum(evals), all(conv) and (
        bound <= max(spec.abs_tol, spec.rel_tol * abs(value))))


def integrate_oscillatory_rows(amplitudes, nus, kind: OscKind,
                               spec: QuadSpec = QuadSpec()
                               ) -> list[QuadResult]:
    """Integrals of amplitudes[r](x) * sin(nus[r] x) (or cos) over [0, inf)
    for every row r; row r is integrate_oscillatory(amplitudes[r], nus[r],
    kind, spec), bit for bit.

    Every row is checked, in row order, before any integral runs, so a bad
    argument raises the error, type and message, that a loop of
    integrate_oscillatory calls raises first.  The proper rows walk as the
    rows of one lobe walk, each distinct amplitude validated once; a row
    with no tail stop ends at the first block edge where its certified
    integration-by-parts tail (_ibp_tail) meets tolerance, never on
    epsilon.  The improper rows scale one _improper_power result per
    exponent.
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
    results: list = [None] * len(nus)
    powers: dict[float, QuadResult] = {}
    proper = []
    for r, (amplitude, nu) in enumerate(zip(amplitudes, nus)):
        if not amplitude.improper:
            proper.append(r)
            continue
        p = 1.0 if amplitude.family == Family.RECIPROCAL else 0.5
        if p not in powers:
            powers[p] = _improper_power(amplitude, kind, spec)
        # int osc(nu x) x^-p dx = nu^(p-1) int osc(u) u^-p du.
        results[r] = powers[p].scaled(nu ** (p - 1.0))
    if proper:
        declared = [amplitudes[r] for r in proper]
        walked = _lobe_walk(by_row([a.value for a in declared]),
                            [nus[r] for r in proper], kind, spec, declared)
        for r, res in zip(proper, walked):
            results[r] = res
    return results


def integrate_oscillatory(amplitude: AmplitudeSpec, nu: float, kind: OscKind,
                          spec: QuadSpec = QuadSpec()) -> QuadResult:
    """Integral of amplitude(x) * sin(nu x) (or cos) over [0, inf).

    Decreasing integrable amplitudes go through the sign-lobe path whose
    partial sums bracket the limit, ended on a certified tail; the two
    improper amplitude families are routed to dedicated endpoint-splitting
    evaluations.  The one-row case of integrate_oscillatory_rows.
    """
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

