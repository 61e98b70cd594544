"""Seeded hash families for the MPC simulator.

The paper assumes perfectly random, independent hash functions ``h_i`` — one
per query variable (Section 3.1).  We model them with keyed BLAKE2b digests:
deterministic given ``(seed, salt, value)``, independent-looking across
salts, and uniform enough at our scales for the concentration bounds of
Lemma 3.1 to be observable (experiment E10 checks this empirically).

The scalar :meth:`HashFamily.bucket` is the definition (and what
:class:`repro.mpc.engine.ReferenceEngine` routes through); the routing
plans hash whole int64 columns through :meth:`HashFamily.bucket_column`,
which computes the same digests once per distinct ``(salt, value)`` —
whatever the bucket count — and keeps them in a process-wide memo.
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading

import numpy as np

from ..seq.relation import distinct_values, sorted_lookup

# What the memo holds for a salt it has not seen: no values, no digests.
_NO_DIGESTS = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64))


class HashFamily:
    """A family of independent hash functions indexed by string salts."""

    # Column-path memo: per (key, salt) the raw 64-bit digests computed so
    # far, as one ``(values, raws)`` pair of arrays sorted by value — raw,
    # so a salt hashed again under another bucket count (``hc:z`` for
    # share 64 and for share 4) costs no digest.  Class-level because the
    # digests are pure functions of (key, salt, value): re-running an
    # experiment recreates HashFamily(seed) with the same key and reuses
    # every entry.  Bounded three ways — salt count, values per salt, and
    # total values — with oldest-first eviction, so huge-domain load-only
    # runs cannot pin their whole value set in a process-lifetime cache
    # and hot salts are not all dropped at once.  The skew-aware plans use
    # private salts (one set per bin combination), so a long-lived process
    # mints them fast; 64 covers a whole sweep coordinate (the busiest
    # benchmark command touches 32) without letting a server retain
    # hundreds.  The service routes several jobs at once on threads, so the
    # registry's bookkeeping (never the hashing) runs under a lock, and an
    # entry is only ever replaced whole: two jobs extending one salt at
    # once can lose an update (recomputed next time), never read a torn one.
    _shared_tables: dict[tuple[bytes, str], tuple[np.ndarray, np.ndarray]] = {}
    _shared_lock = threading.Lock()
    _MAX_SHARED_TABLES = 64
    _MAX_TABLE_ENTRIES = 1 << 20
    _MAX_TOTAL_ENTRIES = 1 << 23

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._key = seed.to_bytes(8, "little", signed=True)
        self._cache: dict[tuple[str, int], int] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def raw(self, salt: str, value: int) -> int:
        """A 64-bit hash of ``value`` under the function named ``salt``."""
        cached = self._cache.get((salt, value))
        if cached is not None:
            return cached
        payload = salt.encode() + b"\x00" + value.to_bytes(16, "little", signed=True)
        digest = hashlib.blake2b(payload, key=self._key, digest_size=8).digest()
        result = int.from_bytes(digest, "little")
        self._cache[(salt, value)] = result
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
        array; ``buckets`` is one count for all or one per entry.  One
        digest per distinct value not in the memo, and ``raw % buckets``
        as one vectorized pass."""
        counts = np.asarray(buckets)
        if (counts < 1).any():
            raise ValueError("bucket count must be >= 1")
        if counts.ndim == 0 and buckets == 1:
            return np.zeros(len(values), dtype=np.int64)
        distinct, _, inverse, _ = distinct_values(values)
        raws = self._raw_distinct(salt, distinct)[inverse]
        return (raws % counts.astype(np.uint64)).astype(np.int64)

    def _raw_distinct(self, salt: str, values: np.ndarray) -> np.ndarray:
        """:meth:`raw` of ascending distinct int64 ``values`` as uint64s,
        read from the memo where it has them and added to it where not."""
        shared = HashFamily._shared_tables
        memo_key = (self._key, salt)
        with HashFamily._shared_lock:
            known_values, known_raws = shared.get(memo_key, _NO_DIGESTS)
        slot, hit = sorted_lookup(known_values, values)
        if hit.all():
            return known_raws[slot]
        raws = np.empty(len(values), dtype=np.uint64)
        raws[hit] = known_raws[slot[hit]]
        missing = values[~hit]
        fresh = self._digests(salt, missing)
        raws[~hit] = fresh
        values = np.concatenate((known_values, missing))
        order = np.argsort(values)
        entry = values[order], np.concatenate((known_raws, fresh))[order]
        with HashFamily._shared_lock:
            shared.pop(memo_key, None)
            if len(values) <= HashFamily._MAX_TABLE_ENTRIES:
                while len(shared) >= HashFamily._MAX_SHARED_TABLES:
                    del shared[next(iter(shared))]  # evict oldest
                shared[memo_key] = entry
                total = sum(len(known) for known, _ in shared.values())
                while total > HashFamily._MAX_TOTAL_ENTRIES:
                    oldest = next(iter(shared))
                    total -= len(shared[oldest][0])
                    del shared[oldest]
        return raws

    def _digests(self, salt: str, values: np.ndarray) -> np.ndarray:
        """One keyed BLAKE2b per value, bit for bit the digest of
        :meth:`raw` (an incremental blake2b equals the one-shot call):
        the values packed to their 16-byte little-endian signed payloads
        in one ``tobytes``, the digests decoded by one ``frombuffer``."""
        payload = np.empty((len(values), 2), dtype="<i8")
        payload[:, 0] = values
        payload[:, 1] = values >> 63  # the sign, extended to 16 bytes
        packed = payload.tobytes()
        salted = hashlib.blake2b(
            salt.encode() + b"\x00", key=self._key, digest_size=8
        ).copy
        digests = []
        for (chunk,) in struct.iter_unpack("16s", packed):
            hasher = salted()
            hasher.update(chunk)
            digests.append(hasher.digest())
        return np.frombuffer(b"".join(digests), dtype="<u8")

    def subfamily(self, label: str) -> "HashFamily":
        """An independent family derived from this one (for nested plans)."""
        derived_seed = int.from_bytes(
            hashlib.blake2b(
                label.encode(), key=self._key, digest_size=8
            ).digest(),
            "little",
            signed=True,
        )
        return HashFamily(derived_seed)


def _fresh_table_lock() -> None:
    HashFamily._shared_lock = threading.Lock()


# A farm forked while another thread is inside the registry would hand its
# workers a lock nobody will ever release.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_table_lock)
