"""Seeded hash families for the MPC simulator, and the arithmetic under them.

The paper assumes perfectly random, independent hash functions ``h_i`` — one
per query variable (Section 3.1).  We model each with a seeded polynomial of
degree :data:`DEGREE` = 4 over GF(2^61 - 1) — a 5-wise independent family —
whose coefficients come from ``(seed, salt)`` by one keyed BLAKE2b per salt.
A value is hashed as its int64 bit pattern reduced mod the Mersenne prime, so
the function is deterministic across processes, engines and hash seeds by
construction, and uniform enough at our scales for the concentration bounds
of Lemma 3.1 to be observable (``tests/test_balls.py::TestHashFamilyGate``
holds its max loads against perfectly random buckets over 200 seeds, and
rejects the degree-1 family).

The scalar :meth:`HashFamily.bucket` computes the polynomial in Python ints
and is the definition (and what :class:`repro.mpc.engine.ReferenceEngine`
routes through); the routing plans hash whole int64 columns through
:meth:`HashFamily.bucket_column`, which evaluates the same polynomial by
Horner's rule on the column, block by block and in place — no memo, no
lock.  :func:`mulmod61`, exact multiplication mod ``2^61 - 1`` over
``uint64`` arrays, is shared with the Count-Sketch of :mod:`repro.sketch`.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: The Mersenne prime 2^61 - 1 every hash polynomial works over.
LARGE_PRIME = (1 << 61) - 1

#: The degree of the routing hash polynomials (independence ``DEGREE + 1``).
DEGREE = 4

_P = np.uint64(LARGE_PRIME)
_ONE = np.uint64(1)
_SHIFT_61 = np.uint64(61)
_SHIFT_32 = np.uint64(32)
_SHIFT_29 = np.uint64(29)
_SHIFT_3 = np.uint64(3)
_MASK_32 = np.uint64((1 << 32) - 1)
_MASK_29 = np.uint64((1 << 29) - 1)

# Columns are hashed this many values at a time, so that the temporaries of
# the multiplications stay in cache.
_BLOCK = 1 << 14


def _reduce61(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x mod (2^61 - 1)`` for any ``uint64`` values, into ``out`` (which
    may be ``x``) when given."""
    carry = x >> _SHIFT_61                  # 2^61 == 1 (mod P)
    out = np.bitwise_and(x, _P, out=out)
    out += carry                            # at most P + 7
    carry = out + _ONE                      # reaches 2^61 iff out >= P
    carry >>= _SHIFT_61
    out += carry
    out &= _P
    return out


def mulmod61(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``(a * b) mod (2^61 - 1)``, exact, vectorized over ``uint64``, into
    ``out`` (of the broadcast shape; it may be ``a``) when given.

    The 122-bit product never materializes: with ``a = a1 2^32 + a0`` and
    ``b = b1 2^32 + b0``, use ``2^64 = 8 (mod P)`` and ``2^61 = 1 (mod P)``
    to fold the partial products while every intermediate stays below
    ``2^64``.  Operands must already lie in ``[0, 2^61)``.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.uint64)
    a_hi, a_lo = a >> _SHIFT_32, a & _MASK_32
    b_hi, b_lo = b >> _SHIFT_32, b & _MASK_32
    mid = a_hi * b_lo
    mid += a_lo * b_hi                   # < 2^62; carries a 2^32 factor
    high = a_hi * b_hi                   # < 2^58; * 2^64 == * 8 (mod P)
    low = np.multiply(a_lo, b_lo, out=out)   # < 2^64, exact in uint64
    # mid * 2^32 == (mid >> 29) * 2^61 + (mid & (2^29 - 1)) * 2^32
    folded = mid & _MASK_29
    folded <<= _SHIFT_32
    mid >>= _SHIFT_29
    folded += mid
    high <<= _SHIFT_3
    folded += high                       # < 2^62 + 2^33
    carry = low >> _SHIFT_61
    low &= _P
    low += carry
    low += folded                        # < 2^63
    return _reduce61(low, out=low)


def _horner(
    coefficients: tuple[int, ...], values: np.ndarray, out: np.ndarray
) -> None:
    """The polynomial with ``coefficients`` (leading first) at every entry
    of an int64 array, read as its bit patterns mod ``2^61 - 1``, into the
    ``uint64`` array ``out``."""
    x = _reduce61(values.view(np.uint64))
    out.fill(coefficients[0])
    for coefficient in coefficients[1:]:
        mulmod61(out, x, out=out)
        out += np.uint64(coefficient)
        _reduce61(out, out=out)


class HashFamily:
    """A family of independent hash functions indexed by string salts: per
    salt a polynomial of degree :data:`DEGREE` over GF(2^61 - 1)."""

    def __init__(self, seed: int) -> None:
        self._seed = seed
        # The seed's 64-bit two's-complement pattern: an int64 seed is its
        # own key, and a derived seed past the edge (round r of a
        # multi-round run hashes under seed + r * stride) wraps.
        self._key = (seed % (1 << 64)).to_bytes(8, "little")
        self._polynomials: dict[str, tuple[int, ...]] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def _coefficients(self, salt: str) -> tuple[int, ...]:
        """The polynomial named ``salt``, leading coefficient first: one
        keyed BLAKE2b of the salt, cut into 8-byte words."""
        coefficients = self._polynomials.get(salt)
        if coefficients is None:
            digest = hashlib.blake2b(
                salt.encode(), key=self._key, digest_size=8 * (DEGREE + 1)
            ).digest()
            coefficients = tuple(
                int.from_bytes(digest[i:i + 8], "little") % LARGE_PRIME
                for i in range(0, len(digest), 8)
            )
            self._polynomials[salt] = coefficients
        return coefficients

    def raw(self, salt: str, value: int) -> int:
        """The hash of ``value`` in ``[0, 2^61 - 1)`` under the function
        named ``salt``."""
        x = value % (1 << 64) % LARGE_PRIME
        result = 0
        for coefficient in self._coefficients(salt):
            result = (result * x + coefficient) % LARGE_PRIME
        return result

    def bucket(self, salt: str, value: int, buckets: int) -> int:
        """Hash ``value`` into ``[0, buckets)`` under the function ``salt``."""
        if buckets < 1:
            raise ValueError("bucket count must be >= 1")
        if buckets == 1:
            return 0
        return self.raw(salt, value) % buckets

    def bucket_column(
        self, salt: str, values: np.ndarray, buckets: int | np.ndarray
    ) -> np.ndarray:
        """:meth:`bucket` of every entry of an int64 array, as an int64
        array; ``buckets`` is one count for all or one per entry."""
        counts = np.asarray(buckets)
        if (counts < 1).any():
            raise ValueError("bucket count must be >= 1")
        if counts.ndim == 0 and buckets == 1:
            return np.zeros(len(values), dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        coefficients = self._coefficients(salt)
        hashed = np.empty(len(values), dtype=np.uint64)
        for start in range(0, len(values), _BLOCK):
            block = slice(start, start + _BLOCK)
            _horner(coefficients, values[block], hashed[block])
        hashed %= counts.astype(np.uint64)
        return hashed.view(np.int64)
