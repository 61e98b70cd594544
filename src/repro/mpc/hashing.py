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
Horner's rule on the column, block by block and in place.  A share vector
only says how many buckets ``h_i`` is reduced into, so the raw 61-bit hash
of a column does not depend on it: a family given a :class:`ColumnHashes`
evaluates the polynomial once per (seed, salt, column) of the database
that cache covers, and every later claim on that column costs one
``% buckets``.  The cache belongs to whoever holds the database — the
sweep executor's per-database slot — and is freed with it; nothing is
kept per value, per relation or per process.

This module is the program's one source of hash randomness.
:meth:`HashFamily.coefficients` — up to 8 words mod ``2^61 - 1`` from one
keyed BLAKE2b of ``(seed, salt)`` — gives the routing polynomials their
coefficients and the Count-Sketch of :mod:`repro.sketch` its bucket and
sign coefficients, and the exact arithmetic mod ``2^61 - 1`` over
``uint64`` arrays (:func:`mulmod61`) evaluates both.  BLAKE2b is CPython's
builtin ``_blake2`` — the function ``hashlib.blake2b`` names — imported
directly, as :mod:`random` imports ``_sha512``: ``hashlib`` loads
OpenSSL's ``_hashlib`` first (3.6 MB of peak RSS), which nothing here uses.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

try:
    from _blake2 import blake2b
except ImportError:  # pragma: no cover - an interpreter built without it
    from hashlib import blake2b

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
    Operands must already lie in ``[0, 2^61)``.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.uint64)
    low = _fold61(a, b >> _SHIFT_32, b & _MASK_32, out)
    return _reduce61(low, out=low)


def _fold61(
    a: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``a * b`` congruent mod ``2^61 - 1`` and below ``2^63``, into ``out``
    (which may be ``a``), for ``a`` and ``b = b_hi 2^32 + b_lo`` in
    ``[0, 2^61)``: one reduction short of :func:`mulmod61`.

    The 122-bit product never materializes: with ``a = a1 2^32 + a0``, use
    ``2^64 = 8 (mod P)`` and ``2^61 = 1 (mod P)`` to fold the partial
    products while every intermediate stays below ``2^64``.
    """
    a_hi, a_lo = a >> _SHIFT_32, a & _MASK_32
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
    return low


def _horner(
    coefficients: tuple[int, ...], values: np.ndarray, out: np.ndarray
) -> None:
    """The polynomial with ``coefficients`` (leading first) at every entry
    of an int64 array, read as its bit patterns mod ``2^61 - 1``, into the
    ``uint64`` array ``out``.

    Every step multiplies by the same ``x``, so it is split into halves
    once; a step's product (below ``2^63``) plus its coefficient (below
    ``2^61``) still fits ``uint64``, so each step reduces once."""
    x = _reduce61(values.view(np.uint64))
    x_hi, x_lo = x >> _SHIFT_32, x & _MASK_32
    out.fill(coefficients[0])
    for coefficient in coefficients[1:]:
        _fold61(out, x_hi, x_lo, out)
        out += np.uint64(coefficient)
        _reduce61(out, out=out)


class ColumnHashes:
    """The raw hashes of a database's columns, each evaluated once per
    (seed, salt, column) and kept as long as this object.

    A column is one row of a column store handed in (a relation's
    ``batch.columns``), recognised by its address, length and stride; the
    cache holds the stores, so no other array can take that address while
    it lives.  Anything else — a slice, a derived key, another database's
    column — is not one, and is hashed afresh.  Used by one thread, in one
    process: a :class:`HashFamily` pickles without it.
    """

    def __init__(self, stores: Iterable[np.ndarray]) -> None:
        self._stores = [store for store in stores if store.size]
        self._rows = {
            _address(store[row]): (number, row)
            for number, store in enumerate(self._stores)
            for row in range(len(store))
        }
        self._raw: dict[tuple, np.ndarray] = {}

    def __len__(self) -> int:
        """How many raw columns are held."""
        return len(self._raw)

    def raw_column(
        self, family: "HashFamily", salt: str, values: np.ndarray
    ) -> np.ndarray | None:
        """``family``'s raw hashes of ``values`` under ``salt`` — shared,
        never to be written — or None when ``values`` is not a column of
        the stores."""
        row = self._rows.get(_address(values))
        if row is None:
            return None
        key = (family.seed, salt, row)
        raw = self._raw.get(key)
        if raw is None:
            raw = self._raw[key] = family.raw_column(salt, values)
        return raw


def _address(values: np.ndarray) -> tuple:
    """Where an array's values live: data pointer, type, length, stride."""
    return (values.__array_interface__["data"][0], values.dtype.str,
            values.shape, values.strides)


class HashFamily:
    """A family of independent hash functions indexed by string salts: per
    salt a polynomial of degree :data:`DEGREE` over GF(2^61 - 1).

    ``columns``, when given, keeps the raw hashes of a database's columns
    between the plans and cells that route it (:class:`ColumnHashes`); it
    changes no bucket, only what is recomputed."""

    def __init__(self, seed: int, columns: ColumnHashes | None = None) -> None:
        self._seed = seed
        self._columns = columns
        # The seed's 64-bit two's-complement pattern: an int64 seed is its
        # own key, and a derived seed past the edge (round r of a
        # multi-round run hashes under seed + r * stride) wraps.
        self._key = (seed % (1 << 64)).to_bytes(8, "little")
        self._polynomials: dict[str, tuple[int, ...]] = {}

    def __reduce__(self):
        # Column hashes name columns by address, which means nothing in
        # another process: a family shipped to one hashes afresh there.
        return HashFamily, (self._seed,)

    @property
    def seed(self) -> int:
        return self._seed

    def coefficients(self, salt: str, count: int) -> tuple[int, ...]:
        """``count`` (1 to 8) numbers in ``[0, 2^61 - 1)`` named ``salt``:
        one keyed BLAKE2b of the salt, ``8 * count`` bytes long, cut into
        8-byte words, each reduced mod ``2^61 - 1``.

        A function of ``(seed, salt, count)`` alone, so every process
        derives the same numbers; different salts give independent ones.
        The routing polynomial named ``salt`` is ``coefficients(salt,
        DEGREE + 1)``, leading coefficient first."""
        digest = blake2b(
            salt.encode(), key=self._key, digest_size=8 * count
        ).digest()
        return tuple(
            int.from_bytes(digest[i:i + 8], "little") % LARGE_PRIME
            for i in range(0, len(digest), 8)
        )

    def _polynomial(self, salt: str) -> tuple[int, ...]:
        """The routing polynomial named ``salt``, derived once per family."""
        polynomial = self._polynomials.get(salt)
        if polynomial is None:
            polynomial = self._polynomials[salt] = self.coefficients(
                salt, DEGREE + 1
            )
        return polynomial

    def raw(self, salt: str, value: int) -> int:
        """The hash of ``value`` in ``[0, 2^61 - 1)`` under the function
        named ``salt``."""
        x = value % (1 << 64) % LARGE_PRIME
        result = 0
        for coefficient in self._polynomial(salt):
            result = (result * x + coefficient) % LARGE_PRIME
        return result

    def bucket(self, salt: str, value: int, buckets: int) -> int:
        """Hash ``value`` into ``[0, buckets)`` under the function ``salt``."""
        if buckets < 1:
            raise ValueError("bucket count must be >= 1")
        if buckets == 1:
            return 0
        return self.raw(salt, value) % buckets

    def raw_column(self, salt: str, values: np.ndarray) -> np.ndarray:
        """:meth:`raw` of every entry of an int64 array, as a new ``uint64``
        array: the polynomial by Horner's rule, block by block."""
        values = np.asarray(values, dtype=np.int64)
        coefficients = self._polynomial(salt)
        hashed = np.empty(len(values), dtype=np.uint64)
        for start in range(0, len(values), _BLOCK):
            block = slice(start, start + _BLOCK)
            _horner(coefficients, values[block], hashed[block])
        return hashed

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
        shared = (None if self._columns is None
                  else self._columns.raw_column(self, salt, values))
        if shared is not None:
            return (shared % counts.astype(np.uint64)).view(np.int64)
        hashed = self.raw_column(salt, values)
        hashed %= counts.astype(np.uint64)
        return hashed.view(np.int64)
