"""Seeded hash families for the MPC simulator.

The paper assumes perfectly random, independent hash functions ``h_i`` — one
per query variable (Section 3.1).  We model them with keyed BLAKE2b digests:
deterministic given ``(seed, salt, value)``, independent-looking across
salts, and uniform enough at our scales for the concentration bounds of
Lemma 3.1 to be observable (experiment E10 checks this empirically).

Hash values are cached per ``(salt, value)`` because skewed inputs hash the
same heavy value millions of times.
"""

from __future__ import annotations

import hashlib
import os
import threading
from typing import Iterable


class HashFamily:
    """A family of independent hash functions indexed by string salts."""

    # Bulk-path memo: one {value: bucket} table per (key, salt, buckets).
    # Class-level because the digests are pure functions of those three —
    # re-running an experiment recreates HashFamily(seed) with the same key
    # and can reuse every table.  Bounded three ways — table count, entries
    # per table, and total entries — with oldest-first eviction, so
    # huge-domain load-only runs cannot pin their whole value set in a
    # process-lifetime cache and hot tables are not all dropped at once.
    # Every in-tree plan hashes through here, and the skew-aware ones use
    # private salts (one set per bin combination), so a long-lived process
    # mints tables fast; 64 covers a whole sweep coordinate (the busiest
    # benchmark command touches 32) without letting a server retain
    # hundreds of them.  The service routes several jobs at once on threads,
    # so the registry's bookkeeping (never the hashing) runs under a lock.
    _shared_tables: dict[tuple[bytes, str, int], dict[int, int]] = {}
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

    def bucket_table(
        self, salt: str, values: Iterable[int], buckets: int
    ) -> dict[int, int]:
        """``{value: bucket}`` for every *distinct* value in ``values``.

        Produces exactly the digests of :meth:`bucket` (an incremental keyed
        blake2b equals the one-shot call) but amortizes the per-call Python
        overhead — salt encoding, keyed-hasher construction, cache probing —
        over a whole column.  The column-at-a-time routing paths
        (``RoutingPlan.claims``) are built on this.
        """
        if buckets < 1:
            raise ValueError("bucket count must be >= 1")
        unique = set(values)
        if buckets == 1:
            return dict.fromkeys(unique, 0)
        shared = HashFamily._shared_tables
        table_key = (self._key, salt, buckets)
        with HashFamily._shared_lock:
            table = shared.get(table_key)
            if table is None:
                while len(shared) >= HashFamily._MAX_SHARED_TABLES:
                    del shared[next(iter(shared))]  # evict oldest
                table = shared[table_key] = {}
        missing = [value for value in unique if value not in table]
        if missing:
            prefix = salt.encode() + b"\x00"
            keyed = hashlib.blake2b(key=self._key, digest_size=8)
            from_bytes = int.from_bytes
            for value in missing:
                hasher = keyed.copy()
                hasher.update(
                    prefix + value.to_bytes(16, "little", signed=True)
                )
                table[value] = (
                    from_bytes(hasher.digest(), "little") % buckets
                )
            with HashFamily._shared_lock:
                if len(table) > HashFamily._MAX_TABLE_ENTRIES:
                    # Callers keep using the returned dict; evicting just
                    # stops the cache from retaining it beyond this run.
                    shared.pop(table_key, None)
                else:
                    total = sum(len(t) for t in shared.values())
                    while total > HashFamily._MAX_TOTAL_ENTRIES and shared:
                        oldest = next(iter(shared))
                        total -= len(shared[oldest])
                        del shared[oldest]
        return table

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
