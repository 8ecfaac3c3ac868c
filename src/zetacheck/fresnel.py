"""Sine and cosine transforms of decreasing amplitudes, and their audits.

The central quantity is F_s(A, nu) = int_0^inf A(x) sin(nu x) dx for a
positive continuous decreasing amplitude A.  For such amplitudes the lobe
sums alternate with shrinking magnitude, so F_s is positive; the positivity
audit samples that assertion across families and frequencies instead of
taking it on faith.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .amplitudes import AmplitudeSpec, Family
from .errors import AmplitudeError
from .quad import OscKind, QuadResult, QuadSpec, integrate_oscillatory, oscillatory_raw
from .report import ClaimReport, ClaimStatus, make_report

__all__ = [
    "fresnel_sin",
    "fresnel_cos",
    "closed_form_sin",
    "closed_form_cos",
    "fresnel_classic",
    "fresnel_classic_value",
    "derivative_identity",
    "positivity_audit",
]


def fresnel_sin(amplitude: AmplitudeSpec, nu: float,
                spec: QuadSpec = QuadSpec(), **kw) -> QuadResult:
    """F_s(A, nu) = int_0^inf A(x) sin(nu x) dx."""
    return integrate_oscillatory(amplitude, nu, OscKind.SIN, spec, **kw)


def fresnel_cos(amplitude: AmplitudeSpec, nu: float,
                spec: QuadSpec = QuadSpec(), **kw) -> QuadResult:
    """F_c(A, nu) = int_0^inf A(x) cos(nu x) dx."""
    return integrate_oscillatory(amplitude, nu, OscKind.COS, spec, **kw)


def closed_form_sin(amplitude: AmplitudeSpec, nu: float) -> float | None:
    """Exact F_s where an elementary closed form exists, else None."""
    a = amplitude.parameter
    if amplitude.family == Family.EXP:
        return nu / (a * a + nu * nu)
    if amplitude.family == Family.RECIPROCAL:
        return 0.5 * math.pi
    if amplitude.family == Family.INV_SQRT:
        return math.sqrt(0.5 * math.pi / nu)
    return None


def closed_form_cos(amplitude: AmplitudeSpec, nu: float) -> float | None:
    """Exact F_c where an elementary closed form exists, else None."""
    a = amplitude.parameter
    if amplitude.family == Family.EXP:
        return a / (a * a + nu * nu)
    if amplitude.family == Family.GAUSS:
        return 0.5 * math.sqrt(math.pi / a) * math.exp(-nu * nu / (4.0 * a))
    if amplitude.family == Family.INV_SQRT:
        return math.sqrt(0.5 * math.pi / nu)
    return None


def fresnel_classic_value(nu: float) -> float:
    """int_0^inf sin(nu t^2) dt = (1/2) sqrt(pi / (2 nu))."""
    if nu <= 0.0:
        raise AmplitudeError("parabolic-phase frequency must be positive")
    return 0.5 * math.sqrt(math.pi / (2.0 * nu))


def fresnel_classic(nu: float, spec: QuadSpec = QuadSpec()) -> QuadResult:
    """int_0^inf sin(nu t^2) dt, evaluated through the transform engine.

    Substituting u = t^2 turns the parabolic phase into a plain oscillation
    against the x^{-1/2} amplitude with an extra factor 1/2.
    """
    inner = fresnel_sin(AmplitudeSpec.inv_sqrt(), nu, spec)
    return QuadResult(0.5 * inner.value, 0.5 * inner.error_estimate,
                      inner.evaluations, inner.converged)


def derivative_identity(amplitude: AmplitudeSpec, nu: float,
                        spec: QuadSpec = QuadSpec()) -> tuple[float, float]:
    """Residual of F_c(A, nu) = -(1/nu) F_s(A', nu), with its error budget.

    Integration by parts moves the derivative onto the amplitude; the
    boundary terms vanish for any proper decaying amplitude.  The right
    side goes through the raw lobe engine because A' is negative, hence
    not itself an admissible amplitude.
    """
    if amplitude.improper:
        raise AmplitudeError(
            "derivative identity needs a proper amplitude (finite at 0)"
        )
    lhs = fresnel_cos(amplitude, nu, spec)
    rhs = oscillatory_raw(amplitude.derivative, nu, OscKind.SIN, spec)
    residual = abs(lhs.value - (-(1.0 / nu) * rhs.value))
    budget = lhs.error_estimate + rhs.error_estimate / nu
    return residual, budget


_DEFAULT_FAMILIES = (
    AmplitudeSpec.exponential(0.5),
    AmplitudeSpec.exponential(2.0),
    AmplitudeSpec.gaussian(1.0),
    AmplitudeSpec.rational(2.5),
)


def positivity_audit(amplitudes: tuple[AmplitudeSpec, ...] = _DEFAULT_FAMILIES,
                     n_samples: int = 240, nu_max: float = 50.0,
                     seed: int = 20260815,
                     spec: QuadSpec = QuadSpec(abs_tol=1e-9, rel_tol=1e-9),
                     ) -> ClaimReport:
    """Sample F_s(A, nu) > 0 across families and frequencies.

    Frequencies are drawn uniformly from (0, nu_max] with a seeded
    generator, split evenly across the amplitude set.  The verdict compares
    the worst sampled value against its own error budget: confidently
    positive everywhere confirms; a value negative beyond ten budgets would
    refute; anything pinned to zero within noise is inconclusive.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    per = max(1, math.ceil(n_samples / len(amplitudes)))
    min_val = math.inf
    min_err = 0.0
    min_at: dict[str, float | str] = {}
    lcb = math.inf  # worst lower confidence bound
    taken = 0
    for amp in amplitudes:
        nus = nu_max * (1.0 - rng.random(per))  # uniform in (0, nu_max]
        for nu in nus:
            res = fresnel_sin(amp, float(nu), spec, max_lobes=768)
            taken += 1
            lcb = min(lcb, res.value - 3.0 * res.error_estimate)
            if res.value < min_val:
                min_val = res.value
                min_err = res.error_estimate
                min_at = {"family": amp.family.value,
                          "parameter": amp.parameter, "nu": float(nu)}
    if lcb > 0.0:
        status = ClaimStatus.CONFIRMED
        notes = "every sampled transform is positive beyond its error budget"
    elif min_val < -10.0 * max(min_err, 1e-13):
        status = ClaimStatus.VIOLATED
        notes = "a sampled transform is negative beyond ten error budgets"
    else:
        status = ClaimStatus.INCONCLUSIVE
        notes = "minimum sampled value is within its error budget of zero"
    return make_report(
        "fresnel-positivity",
        {"nSamples": taken, "nuMax": nu_max, "seed": seed,
         "families": [a.family.value for a in amplitudes],
         "minAt": min_at},
        lhs=float(min_val), rhs=0.0, error_estimate=min_err, started=t0,
        status=status, notes=notes,
    )
