"""Adaptive quadrature with honest error estimates.

One Gauss/Kronrod engine integrates an array of finite intervals in lockstep.
Semi-infinite integrals are mapped to (0, 1] by t = exp(a - x) and walked
window by window so the engine never has to chase an endpoint singularity of
the map itself.  Oscillatory integrals over [0, inf) are summed lobe-by-lobe
between consecutive zeros of the oscillator, with an alternating-series tail
bound (or iterated averaging once plain summation would need absurdly many
lobes).  Windows and lobes are integrated in blocks, and the ones computed
past the stop count as evaluations too.

Every integrand is called with an ndarray of abscissae, of any shape, and
must return an ndarray of the same shape; anything else raises TypeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from heapq import heappop, heappush
from itertools import count

import numpy as np

from .amplitudes import AmplitudeSpec, Family
from .errors import AmplitudeError, DomainError

__all__ = ["OscKind", "QuadSpec", "QuadResult", "integrate_finite",
           "integrate_semi_infinite", "integrate_oscillatory",
           "integrate_quadrant", "integrate_diag_reduced", "oscillatory_raw"]


class OscKind(Enum):
    SIN = "sin"
    COS = "cos"


@dataclass(frozen=True)
class QuadSpec:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_depth: int = 48

    def __post_init__(self) -> None:
        for name in ("abs_tol", "rel_tol"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValueError(f"{name} must lie in (0, 1), got {v}")
        if not (1 <= self.max_depth <= 60):
            raise ValueError("max_depth must lie in [1, 60]")


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

_MAX_EVALS = 4_000_000
_MAX_WINDOWS = 700
# Windows or lobes integrated per block: past the stop they are wasted work,
# so a block stays small next to a typical walk of 30-300.
_WINDOW_BLOCK, _LOBE_BLOCK = 8, 32
# Intervals per engine pass; bounds the working arrays when inner integrals
# multiply them (8 outer windows x 15 nodes x 8 inner windows).
_MAX_INTERVALS = 128
# Window k of the exp map is [_EDGES[k + 1], _EDGES[k]] in t.
_EDGES = [math.exp(-float(k)) for k in range(_MAX_WINDOWS + 1)]


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
    k15 = h * np.sum(_WK * y, axis=1)
    d = k15 - h * np.sum(_WG * y[:, 1::2], axis=1)
    # hypot rounds |complex| as a scalar abs does; np.abs may not.
    return k15, np.hypot(d.real, d.imag), np.max(np.abs(y), axis=1)


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


def _lockstep(g, lo, hi, abs_tol: float, rel_tol: float, max_depth: int):
    """Adaptive integrals of g over [lo[i], hi[i]] for every i, in lockstep.

    g(x, owner) maps an (m, 15) array of abscissae, row j in interval
    owner[j], to an array of x's shape.  Each interval runs the greedy
    QUADPACK loop on its own panel heap until its error meets the tolerance,
    max_depth, _MAX_EVALS or _Diverge stops it; one generation bisects the
    worst panel of every unfinished interval and evaluates all children in
    one call.  Yields (value, error, evals, converged, diverged, peak |g|).
    """
    lo, hi = [float(x) for x in lo], [float(x) for x in hi]
    for s in range(0, len(lo), _MAX_INTERVALS):
        a, b = lo[s:s + _MAX_INTERVALS], hi[s:s + _MAX_INTERVALS]
        val, err, pk = _panels(g, np.array(a), np.array(b),
                               np.arange(s, s + len(a)))
        done = err <= np.fmax(abs_tol, rel_tol * np.hypot(val.real, val.imag))
        total, total_err, peak = val.tolist(), err.tolist(), pk.tolist()
        converged, diverged, evals = done.tolist(), [False] * len(a), [15] * len(a)
        active = np.flatnonzero(~done).tolist()
        heaps = {i: [(-total_err[i], 0, a[i], b[i], 0, total[i], total_err[i])]
                 for i in active}
        watch = {i: _Diverge(abs(total[i])) for i in active}
        while active:
            split = [(i, heappop(heaps[i])) for i in active
                     if heaps[i][0][4] < max_depth and evals[i] < _MAX_EVALS]
            if not split:
                break
            pa, pb = [p[2] for _, p in split], [p[3] for _, p in split]
            mid = [0.5 * (x + y) for x, y in zip(pa, pb)]
            val, err, pk = (v.tolist() for v in _panels(
                g, np.array(pa + mid), np.array(mid + pb),
                np.array([s + i for i, _ in split] * 2)))
            m, active = len(split), []
            for j, (i, (_, _, _, _, depth, pval, perr)) in enumerate(split):
                lv, le, rv, re_ = val[j], err[j], val[m + j], err[m + j]
                evals[i] += 30
                peak[i] = max(peak[i], pk[j], pk[m + j])
                total[i] = total[i] - pval + lv + rv
                total_err[i] = total_err[i] - perr + le + re_
                # The growing evaluation count breaks error ties by age.
                heappush(heaps[i], (-le, evals[i] - 1, pa[j], mid[j],
                                    depth + 1, lv, le))
                heappush(heaps[i], (-re_, evals[i], mid[j], pb[j], depth + 1,
                                    rv, re_))
                if watch[i].update(abs(total[i])):
                    diverged[i] = True
                elif total_err[i] <= max(abs_tol, rel_tol * abs(total[i])):
                    converged[i] = True
                else:
                    active.append(i)
        yield from zip(total, total_err, evals, converged, diverged, peak)


def integrate_finite(f, a: float, b: float, spec: QuadSpec = QuadSpec()) -> QuadResult:
    """Adaptive integral of f over the finite interval [a, b]."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integrate_finite requires finite endpoints")
    if not a < b:
        raise DomainError(f"need a < b, got a={a}, b={b}")
    (val, err, evals, conv, div, _), = _lockstep(
        lambda x, _: _call(f, x), [a], [b], spec.abs_tol, spec.rel_tol,
        spec.max_depth)
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
    converged, diverged).
    """
    total, total_err, prev_win = 0.0 + 0.0j, 0.0, 0.0
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


def _walk_windows(f, a: float, spec: QuadSpec, n_rows: int) -> list[QuadResult]:
    """Integrals over [a, inf) of n_rows integrands, walked in lockstep.

    f(x, rows) gets abscissae x and, per row of x, its integrand's index.  A
    block integrates the next windows of every unfinished walk in one engine
    call, then replays them in order.  Peak of the mapped integrand times
    mapped width over-estimates a window's absolute mass even under
    cancellation, which is what the stopping rule needs.
    """
    walks = [_walk(spec) for _ in range(n_rows)]
    ends = [next(w) for w in walks]
    evals = [0] * n_rows
    tol = (spec.abs_tol / 16.0, min(spec.rel_tol, 1e-8), spec.max_depth)
    active = list(range(n_rows))
    for k0 in range(0, _MAX_WINDOWS, _WINDOW_BLOCK):
        ks = range(k0, min(k0 + _WINDOW_BLOCK, _MAX_WINDOWS))
        rows = np.repeat(active, len(ks))
        windows = _lockstep(
            lambda t, owner: _call(f, a - np.log(t), rows[owner]) / t,
            [_EDGES[k + 1] for k in ks] * len(active),
            [_EDGES[k] for k in ks] * len(active), *tol)
        for r in active:
            for k, (val, err, ev, conv, div, peak) in zip(ks, windows):
                evals[r] += ev
                if ends[r] is None:
                    ends[r] = walks[r].send(
                        (val, err, conv, div, peak * (_EDGES[k] - _EDGES[k + 1])))
        active = [r for r in active if ends[r] is None]
        if not active:
            break
    return [QuadResult(_tidy(v), e, ev, c, d)
            for (v, e, c, d), ev in zip(ends, evals)]


def integrate_semi_infinite(f, a: float, spec: QuadSpec = QuadSpec()) -> QuadResult:
    """Integral of f over [a, inf), mapped to (0, 1] by t = exp(a - x).

    The mapped interval is walked window by window so that decay of the
    integrand, not depth of recursive bisection, decides how far out the
    evaluation reaches.  Stops after two consecutive negligible windows and
    charges a geometric-extrapolation stub for the remainder.
    """
    if not math.isfinite(a):
        raise DomainError("lower endpoint must be finite")
    return _walk_windows(lambda x, _: f(x), a, spec, 1)[0]


# --------------------------------------------------------------------------
# Oscillatory integrals over [0, inf).
# --------------------------------------------------------------------------


def _lobes(g, kind: OscKind, nu: float, ks, *tol):
    """Engine results for the sign lobes ks of the oscillator."""
    shift = 0.0 if kind == OscKind.SIN else 0.5
    return list(_lockstep(g, [max(k - shift, 0.0) * math.pi / nu for k in ks],
                          [(k + 1 - shift) * math.pi / nu for k in ks], *tol))


def _iterated_average(partials: list) -> complex:
    """Euler-style acceleration of an alternating-lobe partial-sum sequence."""
    row = np.asarray(partials[-64:], dtype=complex)
    while len(row) > 1:
        row = 0.5 * (row[1:] + row[:-1])
    return complex(row[0])


def oscillatory_raw(f, nu: float, kind: OscKind,
                    spec: QuadSpec = QuadSpec(),
                    max_lobes: int = 4096) -> QuadResult:
    """Lobe-partitioned integral of f(x)*sin(nu x) (or cos) over [0, inf).

    No positivity or monotonicity is assumed about f; this is the raw
    engine beneath integrate_oscillatory.
    """
    if not (math.isfinite(nu) and nu > 0.0):
        raise DomainError("oscillator frequency must be finite and > 0")
    if nu > 1e3:
        raise DomainError("oscillator frequency capped at 1e3 for audits")
    osc = np.sin if kind == OscKind.SIN else np.cos

    evals = 0

    def lobes():  # engine results of lobe 0, 1, 2, ... in blocks
        nonlocal evals
        for k0 in count(0, _LOBE_BLOCK):
            block = _lobes(lambda x, _: _call(f, x) * osc(nu * x), kind, nu,
                           range(k0, k0 + _LOBE_BLOCK), spec.abs_tol / 50.0,
                           1e-10, min(spec.max_depth, 24))
            evals += sum(r[2] for r in block)
            yield from block

    partials: list[complex] = []
    total, total_err, tail, converged = 0.0 + 0.0j, 0.0, 0.0, False
    walk = lobes()
    for k in range(max_lobes):
        val, err, *_ = next(walk)
        total += val
        total_err += err
        partials.append(total)
        if k >= 1 and abs(val) < spec.abs_tol / 10.0:
            # Alternating-series tail: first omitted lobe bounds the rest.
            nval, nerr, *_ = next(walk)
            tail = abs(nval) + nerr
            converged = True
            break
    if not converged and len(partials) >= 16:
        # Plain summation would need too many lobes; accelerate.
        accel = _iterated_average(partials)
        short = _iterated_average(partials[:-2])
        tail = 3.0 * abs(accel - short)
        total = accel
        converged = tail < 10.0 * max(spec.abs_tol, spec.rel_tol * abs(total))
    return QuadResult(_tidy(total), total_err + tail, evals, converged)


def _improper_power(power: float, kind: OscKind, spec: QuadSpec) -> QuadResult:
    """Oscillatory integral with amplitude u^(-power) on (0, inf).

    Lobe sums decay only algebraically, so the far tail is charged through
    the two-step integration-by-parts asymptotic expansion, whose remainder
    is rigorously below power * (power+1) * (power+2) * a^(-power-2).
    """
    osc = np.sin if kind == OscKind.SIN else np.cos
    shift = 0.0 if kind == OscKind.SIN else 0.5
    n_lobes = 480
    # u = q*q removes the endpoint singularity of the first lobe.
    lobes = [*_lockstep(lambda q, _: 2.0 * q * osc(q * q) * (q * q) ** (-power),
                        [1e-150], [math.sqrt((1.0 - shift) * math.pi)],
                        spec.abs_tol / 50.0, 1e-12, 40)]
    lobes += _lobes(lambda u, _: osc(u) * u ** (-power), kind, 1.0,
                    range(1, n_lobes), spec.abs_tol / 50.0, 1e-12, 24)
    total, total_err = 0.0, 0.0
    for val, err, _, _, _, _ in lobes:
        total += val
        total_err += err
    a = (n_lobes - shift) * math.pi
    p = power
    # Three integrations by parts; |R| <= p (p+1) a^-(p+2) rigorously.
    if kind == OscKind.SIN:
        tail = (math.cos(a) * a ** (-p) + p * math.sin(a) * a ** (-p - 1)
                - p * (p + 1) * math.cos(a) * a ** (-p - 2))
    else:
        tail = (-math.sin(a) * a ** (-p) + p * math.cos(a) * a ** (-p - 1)
                + p * (p + 1) * math.sin(a) * a ** (-p - 2))
    remainder = p * (p + 1) * a ** (-p - 2)
    return QuadResult(total + tail, total_err + remainder,
                      sum(r[2] for r in lobes), all(r[3] for r in lobes))


def integrate_oscillatory(amplitude: AmplitudeSpec, nu: float, kind: OscKind,
                          spec: QuadSpec = QuadSpec(),
                          max_lobes: int = 4096) -> QuadResult:
    """Integral of amplitude(x) * sin(nu x) (or cos) over [0, inf).

    Decreasing integrable amplitudes go through the sign-lobe path whose
    partial sums bracket the limit; the two improper amplitude families are
    routed to dedicated endpoint-splitting evaluations.
    """
    if not (math.isfinite(nu) and nu > 0.0):
        raise DomainError("oscillator frequency must be finite and > 0")
    if amplitude.family == Family.RECIPROCAL:
        if kind == OscKind.COS:
            raise AmplitudeError(
                "cosine against a 1/x amplitude diverges logarithmically at 0"
            )
        # int sin(nu x)/x dx = int sin(u)/u du: independent of nu.
        return _improper_power(1.0, OscKind.SIN, spec)
    if amplitude.family == Family.INV_SQRT:
        res = _improper_power(0.5, kind, spec)
        scale = nu ** -0.5
        return QuadResult(res.value * scale, res.error_estimate * scale,
                          res.evaluations, res.converged)
    amplitude.validate_pcid()
    return oscillatory_raw(amplitude.value, nu, kind, spec, max_lobes)


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
                              inner_spec, nodes.size)
        state["evals"] += sum(r.evaluations for r in inner)
        state["inner_err"] = max([state["inner_err"]]
                                 + [r.error_estimate for r in inner])
        state["failures"] += sum(not r.converged for r in inner)
        return np.array([complex(r.value) for r in inner]).reshape(l1.shape)

    outer = _walk_windows(marginal, 0.0, spec, 1)[0]
    # Inner error is charged over the effective outer integration length.
    length = max(1.0, math.log(1.0 + state["evals"]))
    err = outer.error_estimate + state["inner_err"] * 8.0 * length
    return QuadResult(outer.value, err, state["evals"],
                      outer.converged and state["failures"] == 0,
                      outer.diverged, inner_failures=state["failures"])


def integrate_diag_reduced(g, spec: QuadSpec = QuadSpec()) -> QuadResult:
    """Integral of w * g(w) over [0, inf).

    Equals the quadrant integral of h(l1 + l2) when g = h, by reducing along
    the anti-diagonal; the Jacobian contributes the factor w.
    """
    return integrate_semi_infinite(lambda w: w * _call(g, w), 0.0, spec)
