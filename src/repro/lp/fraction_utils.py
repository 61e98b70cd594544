"""Helpers for exact rational arithmetic.

The paper's LPs — the packing polytope (2), the share LP (5) and its dual
(8), and the per-bin LP (11) — are tiny, so we solve them *exactly* over
``fractions.Fraction``.  Logarithmic inputs such as ``mu_j = log_p M_j`` are
irrational; they enter as high-precision rational approximations via
:func:`log_base_fraction`, which is accurate far beyond the float precision
the final load numbers are reported at.
"""

from __future__ import annotations

import math
from fractions import Fraction

Number = Fraction | int | float

DEFAULT_MAX_DENOMINATOR = 10**12


def to_fraction(value: Number, max_denominator: int = DEFAULT_MAX_DENOMINATOR) -> Fraction:
    """Convert a number to an exact (or tightly approximated) Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot convert non-finite float {value!r} to Fraction")
        return Fraction(value).limit_denominator(max_denominator)
    raise TypeError(f"cannot convert {type(value).__name__} to Fraction")


def log_base_fraction(
    value: float, base: float, max_denominator: int = DEFAULT_MAX_DENOMINATOR
) -> Fraction:
    """``log_base(value)`` as a rational approximation.

    Used for the LP coefficients ``mu_j = log_p(M_j)`` and bin exponents
    ``beta_b = log_p(2^(b-1))``.
    """
    if value <= 0:
        raise ValueError(f"log of non-positive value {value!r}")
    if base <= 1:
        raise ValueError(f"log base must exceed 1, got {base!r}")
    return Fraction(math.log(value) / math.log(base)).limit_denominator(max_denominator)
