"""Double-precision special functions used throughout the audit engine.

All functions take/return built-in ``complex`` / ``float`` values.  The
alternating-series zeta path is certified only on the strip
``0 < re(s) <= 4``, ``|im(s)| <= 50``; everything downstream stays inside it.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, PoleError

__all__ = [
    "gamma",
    "zeta",
    "zeta_star",
    "theta",
    "trivial_zeta",
    "ZETA_RE_MAX",
    "ZETA_IM_MAX",
    "POLE_GUARD_RADIUS",
]

# Certified evaluation region for the alternating zeta series.
ZETA_RE_MAX = 4.0
ZETA_IM_MAX = 50.0
POLE_GUARD_RADIUS = 1e-6

_LN2 = math.log(2.0)
# Convergence base of the binomial-accelerated alternating series.
_ACCEL_BASE = math.log(3.0 + math.sqrt(8.0))
# Target decimal digits of the double-precision series, and its length cap.
_ZETA_DIGITS = 15
_ZETA_MAX_TERMS = 250


def _require_finite(z: complex, name: str = "z") -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{name} must be finite, got {z!r}")
    return z


# --------------------------------------------------------------------------
# Gamma: fixed-coefficient rational approximation with reflection.
# --------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma(z: complex) -> complex:
    """Complex gamma function (relative accuracy ~1e-13 for |z| <= 50)."""
    z = _require_finite(z)
    if abs(z) > 50.0:
        raise DomainError(f"gamma is certified for |z| <= 50, got z={z!r}")
    if z.imag == 0.0 and z.real <= 0.0 and abs(z.real - round(z.real)) < 1e-12:
        raise PoleError(f"gamma pole at z={z!r}")
    return _gamma(z)


def _gamma(z: complex) -> complex:
    """Lanczos gamma, reflected for re(z) < 1/2; |1 - z| may reach 51."""
    if z.real < 0.5:
        # Reflection; sin(pi z) is safe for the |im| <= 50 band we certify.
        return math.pi / (cmath.sin(math.pi * z) * _gamma(1.0 - z))
    z = z - 1.0
    x = complex(_LANCZOS_C[0])
    for i in range(1, len(_LANCZOS_C)):
        x += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x


# --------------------------------------------------------------------------
# Zeta via the binomial-accelerated alternating series.
# --------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _accel_ratios(n: int) -> np.ndarray:
    """Coefficients (d_n - d_k)/d_n, k = 0..n-1, of the accelerated series.

    The d_k are computed exactly over the rationals and rounded once.
    """
    term = Fraction(1, n)  # i = 0 summand of d_k / n
    acc = term
    d = [acc]  # d_k / n for k = 0..n-1, built incrementally
    for i in range(1, n):
        term = term * (4 * (n + i - 1) * (n - i + 1))
        term = term / ((2 * i) * (2 * i - 1))
        acc = acc + term
        d.append(acc)
    # The i = n summand completes d_n.
    term = term * (4 * (2 * n - 1)) / ((2 * n) * (2 * n - 1))
    d_n = acc + term
    return np.array([float((d_n - dk) / d_n) for dk in d], dtype=float)


@lru_cache(maxsize=4)
def _log_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """ln(k) for k = 1..n as a (hi, lo) double-double constant table."""
    import mpmath as mp

    hi = np.log(np.arange(1, n + 1, dtype=float))
    with mp.workdps(40):
        lo = np.array(
            [float(mp.log(k + 1) - mp.mpf(h)) for k, h in enumerate(hi)], dtype=float
        )
    return hi, lo


_DEKKER_SPLIT = 134217729.0  # 2^27 + 1


def _two_prod(a: float, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact product a*b = p + e in double-double arithmetic."""
    p = a * b
    aa = a * _DEKKER_SPLIT
    a_hi = aa - (aa - a)
    a_lo = a - a_hi
    bb = b * _DEKKER_SPLIT
    b_hi = bb - (bb - b)
    b_lo = b - b_hi
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def _power_minus_s(k: np.ndarray, s: complex, n: int) -> np.ndarray:
    """k**(-s) with the oscillatory phase im(s)*ln(k) kept to ~1e-30.

    Plain double rounding of the phase costs ~|im(s)|*eps per term, which at
    the edge of the certified strip would eat the last certified digit.
    """
    hi, lo = _log_table(max(n, 64))
    hi = hi[: len(k)]
    lo = lo[: len(k)]
    phase_hi, phase_err = _two_prod(s.imag, hi)
    phase_lo = phase_err + s.imag * lo
    base = k ** (-s.real)
    main = np.cos(phase_hi) - 1j * np.sin(phase_hi)
    # First-order correction; phase_lo is ~1e-13 at worst.
    return base * main * (1.0 - 1j * phase_lo)


def _eta_zero_guard(s: complex) -> None:
    # Zeros of 1 - 2^(1-s) sit at s = 1 + 2*pi*i*k/ln 2.
    k = round(s.imag * _LN2 / (2.0 * math.pi))
    zero = complex(1.0, 2.0 * math.pi * k / _LN2)
    if abs(s - zero) < POLE_GUARD_RADIUS:
        if k == 0:
            raise PoleError(f"zeta pole at s=1 (guard radius {POLE_GUARD_RADIUS})")
        raise DomainError(
            f"s={s!r} within {POLE_GUARD_RADIUS} of an alternating-series "
            "denominator zero"
        )


def zeta(s: complex) -> complex:
    """Riemann zeta on the certified strip 0 < re(s) <= 4, |im(s)| <= 50."""
    s = _require_finite(s, "s")
    if not (0.0 < s.real <= ZETA_RE_MAX):
        raise DomainError(f"re(s)={s.real} outside certified range (0, {ZETA_RE_MAX}]")
    if abs(s.imag) > ZETA_IM_MAX:
        raise DomainError(f"|im(s)|={abs(s.imag)} exceeds certified bound {ZETA_IM_MAX}")
    _eta_zero_guard(s)

    t = abs(s.imag)
    # Truncation bound of the accelerated series carries exp(pi*t/2).
    nats = _ZETA_DIGITS * math.log(10.0) + 0.5 * math.pi * t + math.log(1.0 + 2.0 * t) + 5.0
    n = int(math.ceil(nats / _ACCEL_BASE))
    n = max(n, 12)
    if n > _ZETA_MAX_TERMS:
        raise DomainError(
            f"series needs {n} terms, above the cap {_ZETA_MAX_TERMS}"
        )

    ratios = _accel_ratios(n)
    k = np.arange(1, n + 1, dtype=float)
    terms = ratios * _power_minus_s(k, s, n)
    terms[1::2] *= -1.0
    # fsum keeps the alternating accumulation at the roundoff floor.
    total = complex(math.fsum(terms.real), math.fsum(terms.imag))
    return total / (1.0 - 2.0 ** (1.0 - s))


def zeta_star(s: complex) -> complex:
    """Completed zeta: pi^(-s/2) * gamma(s/2) * zeta(s)."""
    s = _require_finite(s, "s")
    # zeta rejects s outside its certified strip before gamma(s/2) can
    # overflow there.
    z = zeta(s)
    return cmath.exp(-0.5 * s * math.log(math.pi)) * gamma(0.5 * s) * z


# --------------------------------------------------------------------------
# Theta kernel and friends.
# --------------------------------------------------------------------------


def theta(x):
    """Sum of exp(-pi n^2 x) over n >= 1, for x > 0 (scalar or ndarray).

    Raises DomainError for an x so small (below about 2.5e-6) that 1999
    terms do not reach the sum's rounding.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError("theta requires finite x > 0")
    total = np.zeros_like(arr)
    for n in range(1, 2000):
        term = np.exp(-math.pi * n * n * arr)
        if n > 1 and np.all(term < np.maximum(1e-16 * total, 1e-300)):
            break
        total = total + term
    else:
        raise DomainError("theta series did not converge in 1999 terms; "
                          "x is too small")
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(total)
    return total


def trivial_zeta(s: complex) -> float:
    """im(s) * (2 re(s) - 1); vanishes exactly on the critical line."""
    s = _require_finite(s, "s")
    return s.imag * (2.0 * s.real - 1.0)
