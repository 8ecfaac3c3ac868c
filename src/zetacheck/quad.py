"""Adaptive quadrature with honest error estimates.

A nested Gauss/Kronrod pair drives all finite-interval work; semi-infinite
integrals are mapped to (0, 1] by t = exp(a - x) and walked window by window
so the adaptive engine never has to chase an endpoint singularity of the map
itself.  Oscillatory integrals over [0, inf) are summed lobe-by-lobe between
consecutive zeros of the oscillator, with an alternating-series tail bound
(or iterated averaging once plain summation would need absurdly many lobes).

Every integrand is called with a 1-D ndarray of abscissae and must return an
ndarray of the same shape; anything else raises TypeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from heapq import heappop, heappush

import numpy as np

from .amplitudes import AmplitudeSpec, Family
from .errors import AmplitudeError, DomainError

__all__ = [
    "OscKind",
    "QuadSpec",
    "QuadResult",
    "integrate_finite",
    "integrate_semi_infinite",
    "integrate_oscillatory",
    "integrate_quadrant",
    "integrate_diag_reduced",
    "oscillatory_raw",
]


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

_XK_HALF = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
)
_WK_HALF = (
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
)
_WK_CENTER = 0.2094821410847278
_WG_HALF = (0.1294849661688697, 0.2797053914892767, 0.3818300505051189)
_WG_CENTER = 0.4179591836734694

_NODES = np.array([-x for x in _XK_HALF] + [0.0] + list(reversed(_XK_HALF)))
_WK = np.array(list(_WK_HALF) + [_WK_CENTER] + list(reversed(_WK_HALF)))
# Gauss points are the even-order Kronrod abscissae: indices 1,3,...,13.
_WG = np.array(list(_WG_HALF) + [_WG_CENTER] + list(reversed(_WG_HALF)))

_MAX_EVALS = 4_000_000
_MAX_WINDOWS = 700


def _call(f, x: np.ndarray) -> np.ndarray:
    """f(x), enforcing the array-in, array-out integrand contract."""
    y = f(x)
    shape = getattr(y, "shape", None)
    if shape != x.shape:
        raise TypeError(
            f"integrand must map an ndarray of abscissae to an ndarray of the "
            f"same shape; got {type(y).__name__} of shape {shape} for input "
            f"shape {x.shape}"
        )
    return y


def _gk15(g, a: float, b: float):
    """One Kronrod panel: (value, error, max |g| seen)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    y = _call(g, c + h * _NODES)
    k15 = h * np.sum(_WK * y)
    g7 = h * np.sum(_WG * y[1::2])
    err = abs(k15 - g7)
    return k15, err, float(np.max(np.abs(y)))


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


def _adaptive_finite(g, a: float, b: float, abs_tol: float, rel_tol: float,
                     max_depth: int):
    val, err, peak = _gk15(g, a, b)
    evals = 15
    counter = 0
    heap = [(-err, counter, a, b, 0, val, err)]
    total = val
    total_err = err
    converged = False
    diverged = False
    watch = _Diverge(abs(val))
    while True:
        if total_err <= max(abs_tol, rel_tol * abs(total)):
            converged = True
            break
        neg_err, _, pa, pb, depth, pval, perr = heappop(heap)
        if depth >= max_depth or evals >= _MAX_EVALS:
            heappush(heap, (neg_err, 0, pa, pb, depth, pval, perr))
            break
        mid = 0.5 * (pa + pb)
        lv, le, pk1 = _gk15(g, pa, mid)
        rv, re_, pk2 = _gk15(g, mid, pb)
        evals += 30
        peak = max(peak, pk1, pk2)
        total = total - pval + lv + rv
        total_err = total_err - perr + le + re_
        counter += 1
        heappush(heap, (-le, counter, pa, mid, depth + 1, lv, le))
        counter += 1
        heappush(heap, (-re_, counter, mid, pb, depth + 1, rv, re_))
        if watch.update(abs(total)):
            diverged = True
            break
    return total, total_err, evals, converged, diverged, peak


def integrate_finite(f, a: float, b: float, spec: QuadSpec = QuadSpec()) -> QuadResult:
    """Adaptive integral of f over the finite interval [a, b]."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integrate_finite requires finite endpoints")
    if not a < b:
        raise DomainError(f"need a < b, got a={a}, b={b}")
    val, err, evals, conv, div, _ = _adaptive_finite(
        f, a, b, spec.abs_tol, spec.rel_tol, spec.max_depth
    )
    return QuadResult(_tidy(val), err, evals, conv, div)


def _tidy(v):
    v = complex(v)
    if v.imag == 0.0:
        return v.real
    return v


# --------------------------------------------------------------------------
# Semi-infinite integrals.
# --------------------------------------------------------------------------


def _window_integral(f, a: float, k: int, abs_tol: float, rel_tol: float,
                     max_depth: int):
    """Integrate the k-th window under t = exp(a - x); also return its width.

    Unit windows in x are geometric windows in t.  Peak-of-mapped-integrand
    times mapped width over-estimates the window's absolute mass even under
    cancellation, which is what the stopping rule needs.
    """
    def mapped(t):
        return _call(f, a - np.log(t)) / t

    t_lo, t_hi = math.exp(-(k + 1.0)), math.exp(-float(k))
    return _adaptive_finite(mapped, t_lo, t_hi, abs_tol, rel_tol,
                            max_depth), t_hi - t_lo


def integrate_semi_infinite(f, a: float, spec: QuadSpec = QuadSpec()) -> QuadResult:
    """Integral of f over [a, inf), mapped to (0, 1] by t = exp(a - x).

    The mapped interval is walked window by window so that decay of the
    integrand, not depth of recursive bisection, decides how far out the
    evaluation reaches.  Stops after two consecutive negligible windows and
    charges a geometric-extrapolation stub for the remainder.
    """
    if not math.isfinite(a):
        raise DomainError("lower endpoint must be finite")

    total = 0.0 + 0.0j
    total_err = 0.0
    evals = 0
    converged_all = True
    diverged = False
    quiet = 0
    seen_loud = False
    envelopes: list[float] = []
    # Floor the divergence watch at tolerance scale: climbing out of the
    # numerical-zero regime during a delayed onset is not runaway growth.
    watch = _Diverge(max(spec.abs_tol, 1e-300))
    prev_win = 0.0
    k = 0
    while k < _MAX_WINDOWS:
        (val, err, ev, conv, div, peak), width = _window_integral(
            f, a, k, spec.abs_tol / 16.0,
            min(spec.rel_tol, 1e-8), spec.max_depth,
        )
        mass = peak * width  # bounds the window's absolute mass
        total += val
        total_err += err
        evals += ev
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
        k += 1
    else:
        converged_all = False

    # Geometric stub for everything past the last window.
    if len(envelopes) >= 2 and envelopes[-2] > 0.0:
        ratio = min(envelopes[-1] / envelopes[-2], 0.9)
        total_err += envelopes[-1] * ratio / (1.0 - ratio)
    converged = converged_all and not diverged and quiet >= 2
    return QuadResult(_tidy(total), total_err, evals, converged, diverged)


# --------------------------------------------------------------------------
# Oscillatory integrals over [0, inf).
# --------------------------------------------------------------------------


def _lobe_edges(kind: OscKind, nu: float, k: int) -> tuple[float, float]:
    """Endpoints of the k-th sign lobe of the oscillator."""
    if kind == OscKind.SIN:
        return k * math.pi / nu, (k + 1) * math.pi / nu
    if k == 0:
        return 0.0, 0.5 * math.pi / nu
    return (k - 0.5) * math.pi / nu, (k + 0.5) * math.pi / nu


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

    def integrand(x):
        return _call(f, x) * osc(nu * x)

    partials: list[complex] = []
    total = 0.0 + 0.0j
    total_err = 0.0
    evals = 0
    converged = False
    tail = 0.0
    for k in range(max_lobes):
        lo, hi = _lobe_edges(kind, nu, k)
        val, err, ev, conv, _, _ = _adaptive_finite(
            integrand, lo, hi, spec.abs_tol / 50.0, 1e-10,
            min(spec.max_depth, 24),
        )
        evals += ev
        total += val
        total_err += err
        partials.append(total)
        if k >= 1 and abs(val) < spec.abs_tol / 10.0:
            # Alternating-series tail: first omitted lobe bounds the rest.
            nlo, nhi = _lobe_edges(kind, nu, k + 1)
            nval, nerr, nev, _, _, _ = _adaptive_finite(
                integrand, nlo, nhi, spec.abs_tol / 50.0, 1e-10,
                min(spec.max_depth, 24),
            )
            evals += nev
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
    n_lobes = 480
    total = 0.0
    total_err = 0.0
    evals = 0
    for k in range(n_lobes):
        lo, hi = _lobe_edges(kind, 1.0, k)
        if k == 0:
            # u = q*q removes the endpoint singularity of the first lobe.
            def first(q):
                u = q * q
                return 2.0 * q * osc(u) * u ** (-power)

            val, err, ev, _, _, _ = _adaptive_finite(
                first, 1e-150, math.sqrt(hi), spec.abs_tol / 50.0, 1e-12, 40
            )
        else:
            val, err, ev, _, _, _ = _adaptive_finite(
                lambda u: osc(u) * u ** (-power), lo, hi,
                spec.abs_tol / 50.0, 1e-12, 24,
            )
        total += val.real if isinstance(val, complex) else float(val)
        total_err += err
        evals += ev
    a = n_lobes * math.pi if kind == OscKind.SIN else (n_lobes - 0.5) * math.pi
    p = power
    # Three integrations by parts; |R| <= p (p+1) a^-(p+2) rigorously.
    if kind == OscKind.SIN:
        tail = (math.cos(a) * a ** (-p) + p * math.sin(a) * a ** (-p - 1)
                - p * (p + 1) * math.cos(a) * a ** (-p - 2))
    else:
        tail = (-math.sin(a) * a ** (-p) + p * math.cos(a) * a ** (-p - 1)
                + p * (p + 1) * math.sin(a) * a ** (-p - 2))
    remainder = p * (p + 1) * a ** (-p - 2)
    return QuadResult(total + tail, total_err + remainder, evals, True)


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

    f2(l1: float, l2: ndarray) -> ndarray: the outer variable is a scalar,
    the inner one an array of abscissae, and the result has l2's shape.
    """
    inner_spec = replace(
        spec,
        abs_tol=max(spec.abs_tol / 64.0, 1e-14),
        rel_tol=max(spec.rel_tol / 16.0, 1e-13),
    )
    state = {"evals": 0, "failures": 0, "inner_err": 0.0}

    def marginal(l1_nodes: np.ndarray) -> np.ndarray:
        out = np.empty(len(l1_nodes), dtype=complex)
        for i, l1 in enumerate(l1_nodes):
            r = integrate_semi_infinite(lambda l2: f2(float(l1), l2), 0.0, inner_spec)
            state["evals"] += r.evaluations
            state["inner_err"] = max(state["inner_err"], r.error_estimate)
            if not r.converged:
                state["failures"] += 1
            out[i] = complex(r.value)
        return out

    outer = integrate_semi_infinite(marginal, 0.0, spec)
    # Inner error is charged over the effective outer integration length.
    length = max(1.0, math.log(1.0 + state["evals"]))
    err = outer.error_estimate + state["inner_err"] * 8.0 * length
    return QuadResult(
        outer.value, err, state["evals"], outer.converged and state["failures"] == 0,
        outer.diverged, inner_failures=state["failures"],
    )


def integrate_diag_reduced(g, spec: QuadSpec = QuadSpec()) -> QuadResult:
    """Integral of w * g(w) over [0, inf).

    Equals the quadrant integral of h(l1 + l2) when g = h, by reducing along
    the anti-diagonal; the Jacobian contributes the factor w.
    """
    return integrate_semi_infinite(lambda w: w * _call(g, w), 0.0, spec)
