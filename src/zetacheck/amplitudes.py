"""Amplitude envelopes admitted by the oscillatory integrator.

Every amplitude is positive, continuous and decreasing on (0, inf); the two
improper families (1/x and x^{-1/2}) are integrable against an oscillator
but not on their own, and are flagged so the integrator can route them to
dedicated evaluations instead of the generic lobe sum.  Every family states
its even derivatives in closed form, and a majorant of each that bounds an
integration-by-parts remainder, so that the integrator can fix a lobe count
from a certified tail before any evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AmplitudeError

__all__ = ["Family", "AmplitudeSpec"]

_EXP_CLIP = 700.0  # exp argument beyond which a double underflows/overflows


class Family(Enum):
    EXP = "exp"
    GAUSS = "gauss"
    RATIONAL = "rational"
    RECIPROCAL = "reciprocal"
    INV_SQRT = "inv_sqrt"


@dataclass(frozen=True)
class AmplitudeSpec:
    """A decreasing positive amplitude A(x) on (0, inf).

    family     which closed-form envelope
    parameter  rate a (EXP: e^{-ax}, GAUSS: e^{-ax^2}) or exponent p
               (RATIONAL: (1+x)^{-p}); ignored by the improper families

    even_derivatives gives A, A'', A'''', ... at a point, and a majorant
    of each for the integration-by-parts remainder (exp, rational and the
    improper x^-p are completely monotone, so each term is its own).  The
    integrator takes the least lobe count whose integration-by-parts tail
    meets tolerance (quad._lobe_counts), and walks no row of them.
    """

    family: Family
    parameter: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.parameter):
            raise AmplitudeError("amplitude parameter must be finite")
        if self.family in (Family.EXP, Family.GAUSS) and self.parameter <= 0.0:
            raise AmplitudeError("decay rate must be positive")
        if self.family == Family.RATIONAL and self.parameter <= 1.0:
            raise AmplitudeError(
                "rational amplitude needs exponent > 1 for integrability"
            )

    # -- pointwise ---------------------------------------------------------

    def value(self, x):
        """A(x); accepts scalars or ndarrays, x > 0."""
        x = np.asarray(x, dtype=float)
        if self.family == Family.EXP:
            return np.exp(-np.minimum(self.parameter * x, _EXP_CLIP))
        if self.family == Family.GAUSS:
            return np.exp(-np.minimum(self.parameter * x * x, _EXP_CLIP))
        if self.family == Family.RATIONAL:
            return (1.0 + x) ** (-self.parameter)
        if self.family == Family.RECIPROCAL:
            return 1.0 / x
        return x ** -0.5

    def derivative(self, x):
        """A'(x), closed form."""
        x = np.asarray(x, dtype=float)
        if self.family == Family.EXP:
            return -self.parameter * np.exp(-np.minimum(self.parameter * x, _EXP_CLIP))
        if self.family == Family.GAUSS:
            ex = np.exp(-np.minimum(self.parameter * x * x, _EXP_CLIP))
            return -2.0 * self.parameter * x * ex
        if self.family == Family.RATIONAL:
            return -self.parameter * (1.0 + x) ** (-self.parameter - 1.0)
        if self.family == Family.RECIPROCAL:
            return -1.0 / (x * x)
        return -0.5 * x ** -1.5

    def even_derivatives(self, x, count: int):
        """A^(2i)(x) for i < count, and a majorant M_i of each.

        x is a 1-d array of points > 0.  Returns two (x.size, count)
        arrays: column i of the first is A^(2i)(x), NaN where the family
        states none; column i of the second is
        M_i = (|A^(2i)(x)| + V_i) / 2, V_i the total variation of A^(2i) on
        [x, inf), or inf where the family states none.  Integrating by
        parts against an antiderivative of osc(nu t) bounded by 1/nu gives
        |int_x^inf A^(2i)(t) osc(nu t) dt| <= 2 M_i / nu.  Where A^(2i) is
        positive and decreases to 0, M_i = A^(2i)(x).  Each column is the
        one before times a closed-form ratio, so only A itself takes a
        transcendental function.
        """
        x = np.asarray(x, dtype=float)
        a, i = self.parameter, np.arange(count - 1)
        ratio = np.full((x.size, count - 1), math.nan)  # A^(2i+2) / A^(2i)
        if self.family == Family.EXP:
            ratio[:] = a * a
        elif self.family == Family.GAUSS:
            # A'' = 2a (2a x^2 - 1) A.
            ratio[:, :1] = (2.0 * a * (2.0 * a * x * x - 1.0))[:, None]
        else:
            # (y^-q)'' = q (q + 1) y^-(q+2) for q = p + 2i, with y = 1 + x
            # or y = x.
            p = {Family.RATIONAL: a, Family.RECIPROCAL: 1.0,
                 Family.INV_SQRT: 0.5}[self.family]
            y = 1.0 + x if self.family == Family.RATIONAL else x
            ratio[:] = (p + 2 * i) * (p + 2 * i + 1) / (y * y)[:, None]
        d = np.multiply.accumulate(
            np.concatenate([self.value(x)[:, None], ratio], axis=1), axis=1)
        if self.family != Family.GAUSS:
            return d, d
        # A''' = 4a^2 x (3 - 2a x^2) A changes sign at x3 = sqrt(3 / (2a)),
        # so A'' peaks there at 4a e^(-3/2).
        majorant = np.full(d.shape, math.inf)
        majorant[:, 0] = d[:, 0]
        majorant[:, 1] = np.where(
            2.0 * a * x * x >= 3.0, d[:, 1],
            4.0 * a * math.exp(-1.5) + np.maximum(0.0, -d[:, 1]))
        return d, majorant

    @property
    def improper(self) -> bool:
        """True when A alone is not integrable on (0, inf)."""
        return self.family in (Family.RECIPROCAL, Family.INV_SQRT)

    def total_integral(self) -> float:
        """Closed-form integral of A over (0, inf) for the proper families."""
        if self.family == Family.EXP:
            return 1.0 / self.parameter
        if self.family == Family.GAUSS:
            return 0.5 * math.sqrt(math.pi / self.parameter)
        if self.family == Family.RATIONAL:
            return 1.0 / (self.parameter - 1.0)
        raise AmplitudeError(f"{self.family.value} amplitude has no finite integral")

    # -- admissibility -----------------------------------------------------

    def validate_pcid(self) -> None:
        """Check positivity, continuity (finiteness), decrease on a grid.

        Also cross-checks the stated derivative against a central finite
        difference at a handful of interior points, so a family whose
        closed forms drifted apart is rejected before any integral is
        trusted.  Raises AmplitudeError on any failure.
        """
        grid = np.geomspace(1e-6, 1e3, 64)
        vals = np.asarray(self.value(grid), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise AmplitudeError("amplitude is not finite on the test grid")
        if not np.all(vals > 0.0):
            raise AmplitudeError("amplitude is not strictly positive")
        # Ties are tolerated once both neighbours sit at the underflow floor.
        tied_ok = np.maximum(vals[1:], vals[:-1]) < 1e-280
        if not np.all((np.diff(vals) < 0.0) | tied_ok):
            raise AmplitudeError("amplitude is not strictly decreasing")
        for x in (0.5, 1.0, 3.0, 10.0):
            h = 1e-6 * max(1.0, x)
            fd = (float(self.value(x + h)) - float(self.value(x - h))) / (2.0 * h)
            ex = float(self.derivative(x))
            if abs(fd - ex) > 1e-5 * max(1.0, abs(ex)):
                raise AmplitudeError(
                    f"derivative mismatch at x={x}: finite diff {fd}, stated {ex}"
                )

    # -- constructors --------------------------------------------------------

    @staticmethod
    def exponential(rate: float) -> "AmplitudeSpec":
        return AmplitudeSpec(Family.EXP, rate)

    @staticmethod
    def gaussian(rate: float) -> "AmplitudeSpec":
        return AmplitudeSpec(Family.GAUSS, rate)

    @staticmethod
    def rational(exponent: float) -> "AmplitudeSpec":
        return AmplitudeSpec(Family.RATIONAL, exponent)

    @staticmethod
    def reciprocal() -> "AmplitudeSpec":
        return AmplitudeSpec(Family.RECIPROCAL)

    @staticmethod
    def inv_sqrt() -> "AmplitudeSpec":
        return AmplitudeSpec(Family.INV_SQRT)
