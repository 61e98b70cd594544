"""Per-catalog caching for the plan service.

The cache keys on the :class:`repro.api.Catalog` value itself (its query
text as the parser prints it), so two requests that describe the same
catalog — whatever their job kind, key order or spacing — address the
same slot.  "Communication Cost in Parallel Query Processing"
(PAPERS.md) is the motivation: statistics and plans are the expensive,
reusable halves of a request, so a long-lived server should compute them
once per catalog, not once per process.

:class:`CatalogCache` keeps LRU sections behind one lock and reports every
lookup through the observability layer; what goes into which section, and
under which key, is :class:`repro.api.experiment.SharedContext`'s to say
(``stats``: one ``(query, db, stats)`` per catalog, for all three job
kinds; ``plan``: ranked plans under the catalog plus the round budget and
algorithm set):

* counters ``service.cache.hit`` / ``service.cache.miss`` (and the
  per-section ``service.cache.<section>.hit/miss``),
* gauge ``service.cache.entries``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable

from ..obs import Observation


class CatalogCache:
    """Bounded LRU sections for catalog builds and plans.

    Thread-safe: the server's job workers and HTTP handlers share one
    instance.  The builder runs *outside* the lock, so a slow statistics
    pass never blocks unrelated lookups; if two threads race on the same
    key, both build and the second result wins (builds are deterministic,
    so the duplicates are identical).
    """

    def __init__(self, capacity: int = 64,
                 obs: Observation | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.obs = obs
        self._lock = threading.Lock()
        self._sections: dict[str, OrderedDict[Hashable, object]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return sum(len(entries) for entries in self._sections.values())

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def _count(self, section: str, hit: bool) -> None:
        outcome = "hit" if hit else "miss"
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        if self.obs is not None:
            self.obs.count(f"service.cache.{outcome}")
            self.obs.count(f"service.cache.{section}.{outcome}")
            self.obs.set_gauge("service.cache.entries", len(self))

    def lookup(self, section: str, key: Hashable) -> tuple[bool, object]:
        """``(hit, value)`` for ``key``; a hit refreshes LRU recency."""
        with self._lock:
            entries = self._sections.setdefault(section, OrderedDict())
            if key in entries:
                entries.move_to_end(key)
                hit, value = True, entries[key]
            else:
                hit, value = False, None
        self._count(section, hit)
        return hit, value

    def store(self, section: str, key: Hashable, value: object) -> None:
        with self._lock:
            entries = self._sections.setdefault(section, OrderedDict())
            entries[key] = value
            entries.move_to_end(key)
            while len(entries) > self.capacity:
                entries.popitem(last=False)

    def get_or_build(
        self, section: str, key: Hashable, builder: Callable[[], object]
    ) -> object:
        """The cached value for ``key``, building (and storing) on a miss."""
        hit, value = self.lookup(section, key)
        if hit:
            return value
        value = builder()
        self.store(section, key, value)
        return value

    def clear(self) -> None:
        with self._lock:
            for entries in self._sections.values():
                entries.clear()
