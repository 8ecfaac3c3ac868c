"""Sine and cosine transforms of decreasing amplitudes, and their audits.

The central quantity is F_s(A, nu) = int_0^inf A(x) sin(nu x) dx for a
positive continuous decreasing amplitude A.  For such amplitudes the lobe
sums alternate with shrinking magnitude, so F_s is positive; the positivity
audit samples that assertion across families and frequencies instead of
taking it on faith.

Each check that evaluates many points does so in one call: the positivity
audit integrates all its amplitudes and frequencies as the rows of one
lobe list, and fresnel_classic_rows and derivative_identity_rows are the
many-point forms of fresnel_classic and derivative_identity, whose every
row ends where the one-point call ends.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .amplitudes import AmplitudeSpec, Family
from .errors import AmplitudeError, DomainError
from .quad import (OscKind, QuadResult, QuadSpec, by_row,
                   integrate_oscillatory, integrate_oscillatory_rows,
                   oscillatory_rows)
from .report import ClaimReport, ClaimStatus, make_report

__all__ = [
    "fresnel_sin",
    "fresnel_cos",
    "closed_form_sin",
    "closed_form_cos",
    "fresnel_classic",
    "fresnel_classic_value",
    "fresnel_classic_rows",
    "derivative_identity",
    "derivative_identity_rows",
    "positivity_audit",
]


def fresnel_sin(amplitude: AmplitudeSpec, nu: float,
                spec: QuadSpec = QuadSpec()) -> QuadResult:
    """F_s(A, nu) = int_0^inf A(x) sin(nu x) dx."""
    return integrate_oscillatory(amplitude, nu, OscKind.SIN, spec)


def fresnel_cos(amplitude: AmplitudeSpec, nu: float,
                spec: QuadSpec = QuadSpec()) -> QuadResult:
    """F_c(A, nu) = int_0^inf A(x) cos(nu x) dx."""
    return integrate_oscillatory(amplitude, nu, OscKind.COS, spec)


def _check_frequency(amplitude: AmplitudeSpec, nu: float) -> None:
    """DomainError unless nu is finite, and positive for x^{-1/2}, whose
    transforms diverge as nu -> 0."""
    if not math.isfinite(nu) or (amplitude.family == Family.INV_SQRT
                                 and nu <= 0.0):
        raise DomainError(f"no closed form for {amplitude.family.value} "
                          f"at nu={nu}")


def closed_form_sin(amplitude: AmplitudeSpec, nu: float) -> float | None:
    """Exact F_s where an elementary closed form exists, else None."""
    _check_frequency(amplitude, nu)
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
    _check_frequency(amplitude, nu)
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
    if not nu > 0.0:
        raise DomainError(f"parabolic-phase frequency must be positive, "
                          f"got nu={nu}")
    return 0.5 * closed_form_sin(AmplitudeSpec.inv_sqrt(), nu)


def fresnel_classic_rows(nus, spec: QuadSpec = QuadSpec()
                         ) -> list[QuadResult]:
    """int_0^inf sin(nu t^2) dt for every nu in nus, through the transform
    engine.

    Substituting u = t^2 turns the parabolic phase into a plain oscillation
    against the x^{-1/2} amplitude with an extra factor 1/2.
    """
    nus = list(nus)
    return [r.scaled(0.5) for r in integrate_oscillatory_rows(
        [AmplitudeSpec.inv_sqrt()] * len(nus), nus, OscKind.SIN, spec)]


def fresnel_classic(nu: float, spec: QuadSpec = QuadSpec()) -> QuadResult:
    """int_0^inf sin(nu t^2) dt; the one-point case of fresnel_classic_rows."""
    return fresnel_classic_rows([nu], spec)[0]


def derivative_identity_rows(amplitudes, nus, spec: QuadSpec = QuadSpec()
                             ) -> list[tuple[float, float, bool]]:
    """derivative_identity(amplitudes[r], nus[r], spec) for every row r.

    The cosine sides are the rows of one lobe list and the derivative sides
    the rows of one lobe walk.  An improper amplitude in any row raises
    AmplitudeError before anything else is checked.
    """
    amplitudes, nus = list(amplitudes), list(nus)
    if any(amplitude.improper for amplitude in amplitudes):
        raise AmplitudeError(
            "derivative identity needs a proper amplitude (finite at 0)"
        )
    lhs = integrate_oscillatory_rows(amplitudes, nus, OscKind.COS, spec)
    rhs = oscillatory_rows(by_row([a.derivative for a in amplitudes]), nus,
                           OscKind.SIN, spec)
    return [(abs(c.value - (-(1.0 / nu) * d.value)),
             c.error_estimate + d.error_estimate / nu,
             c.converged and d.converged) for c, d, nu in zip(lhs, rhs, nus)]


def derivative_identity(amplitude: AmplitudeSpec, nu: float,
                        spec: QuadSpec = QuadSpec()
                        ) -> tuple[float, float, bool]:
    """Residual of F_c(A, nu) = -(1/nu) F_s(A', nu), with its error budget
    and whether both sides' quadratures converged.

    Integration by parts moves the derivative onto the amplitude; the
    boundary terms vanish for any proper decaying amplitude.  The right
    side goes through the raw lobe engine because A' is negative, hence
    not itself an admissible amplitude.  The one-row case of
    derivative_identity_rows.
    """
    return derivative_identity_rows([amplitude], [nu], spec)[0]


# The positivity audit's amplitude set, frequency count and range, and
# quadrature tolerance.
_DEFAULT_FAMILIES = (
    AmplitudeSpec.exponential(0.5),
    AmplitudeSpec.exponential(2.0),
    AmplitudeSpec.gaussian(1.0),
    AmplitudeSpec.rational(2.5),
)
_N_SAMPLES, _NU_MAX = 240, 50.0
_SPEC_POSITIVITY = QuadSpec(abs_tol=1e-9, rel_tol=1e-9)


def positivity_audit(seed: int = 20260815) -> ClaimReport:
    """Sample F_s(A, nu) > 0 across families and frequencies.

    240 frequencies are drawn uniformly from (0, 50] with a seeded
    generator, split evenly across the four amplitudes; all 240 are
    integrated as the rows of one lobe list.  The verdict
    compares the worst sampled value against its own error budget:
    confidently positive everywhere confirms; a value negative beyond ten
    budgets would refute; anything pinned to zero within noise, or any
    sampled transform that did not converge or is not finite, is
    inconclusive.  The folds propagate NaN, so a NaN row cannot hide.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    per = _N_SAMPLES // len(_DEFAULT_FAMILIES)
    amps = [amp for amp in _DEFAULT_FAMILIES for _ in range(per)]
    # Uniform in (0, _NU_MAX], drawn family by family.
    nus = [float(nu) for _ in _DEFAULT_FAMILIES
           for nu in _NU_MAX * (1.0 - rng.random(per))]
    rows = integrate_oscillatory_rows(amps, nus, OscKind.SIN,
                                      _SPEC_POSITIVITY)
    at = [{"family": amp.family.value, "parameter": amp.parameter, "nu": nu}
          for amp, nu in zip(amps, nus)]
    value = np.array([r.value for r in rows], dtype=float)
    error = np.array([r.error_estimate for r in rows])
    ok = (np.array([r.converged for r in rows]) & np.isfinite(value)
          & np.isfinite(error))
    unconverged = int(np.count_nonzero(~ok))
    worst = int(np.argmin(value))  # the first minimum, or the first NaN
    min_val, min_err = float(value[worst]), float(error[worst])
    return make_report(
        "fresnel-positivity",
        {"nSamples": _N_SAMPLES, "nuMax": _NU_MAX, "seed": seed,
         "families": [a.family.value for a in _DEFAULT_FAMILIES],
         "minAt": at[worst]},
        lhs=min_val, rhs=0.0, error_estimate=min_err, started=t0,
        bounds=(float(np.min(value - 3.0 * error)),
                min_val + 10.0 * max(min_err, 1e-13)),
        converged=not unconverged,
        notes={ClaimStatus.CONFIRMED: "every sampled transform is positive "
                                      "beyond its error budget",
               ClaimStatus.VIOLATED: "a sampled transform is negative "
                                     "beyond ten error budgets",
               ClaimStatus.INCONCLUSIVE: (
                   f"{unconverged} of {_N_SAMPLES} sampled transforms did "
                   "not converge or are not finite" if unconverged else
                   "minimum sampled value is within its error budget of "
                   "zero")},
        extra={"evaluations": sum(r.evaluations for r in rows)},
    )
