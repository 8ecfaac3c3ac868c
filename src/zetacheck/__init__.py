"""Numerical identity-audit engine.

Hard classical identities (functional equation of the completed zeta, theta
transformation, closed-form quadratures) are asserted to tight tolerances;
a second tier of stronger claims is audited by independent evaluation
routes and reported with residuals, never assumed.
"""

from .specfun import (
    gamma,
    theta,
    trivial_zeta,
    zeta,
    zeta_star,
)

__version__ = "0.1.0"

__all__ = [
    "gamma",
    "theta",
    "trivial_zeta",
    "zeta",
    "zeta_star",
    "__version__",
]
