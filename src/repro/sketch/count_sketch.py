"""Seeded, mergeable Count-Sketch with hierarchical heavy-hitter search.

The classic Charikar–Chen–Farach-Colton sketch: a ``depth x width`` table
of signed counters where row ``r`` adds ``s_r(x) * c`` at column
``b_r(x)`` for every update ``(x, c)``; the frequency estimate is the
median over rows of ``table[r, b_r(x)] * s_r(x)``.  Bucket hashes are
2-wise independent (``(a x + b) mod P mod width``) and sign hashes 4-wise
independent (a degree-3 polynomial mod P mod 2), both over the Mersenne
prime ``P = 2^61 - 1``.  Row ``r``'s six coefficients are
:meth:`repro.mpc.hashing.HashFamily.coefficients` of the sketch's
``(seed, salt)`` — the keyed BLAKE2b the routing polynomials come from,
never a random generator — so two sketches built from equal ``(seed,
salt)``, in one process or two, are *identical* functions and their
integer tables merge bit-for-bit associatively.

:class:`HierarchicalCountSketch` stacks one sketch per digit level of a
base-``b`` decomposition of the universe (level ``l`` counts
``item // b^l``), so heavy hitters are recovered by descending digit
prefixes — ``findHH`` style — in ``O(levels * base * |heavy|)`` estimate
probes instead of enumerating the universe.

All arithmetic is exact: tables are ``int64`` and the ``mod 2^61 - 1``
hash products are :func:`repro.mpc.hashing.mulmod61` — the arithmetic the
routing hash polynomials use too — computed with a 32-bit split (no silent
``uint64`` overflow), so shard-merged sketches equal the single-pass sketch
exactly.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from ..mpc.hashing import LARGE_PRIME, HashFamily, _reduce61, mulmod61
from ..seq.relation import distinct_values


class SketchError(ValueError):
    """Raised for invalid sketch parameters or incompatible merges."""


def _median_of_rows(values: np.ndarray) -> np.ndarray:
    """``np.median(values, axis=0)`` — the middle of the sorted first axis,
    or the mean of its two middles — without ``np.median``, which imports
    ``numpy.ma`` (≈8 ms) on first use in every sketching process."""
    ranked = np.sort(values, axis=0)
    middle = len(ranked) // 2
    if len(ranked) % 2:
        return ranked[middle].astype(np.float64)
    return (ranked[middle - 1].astype(np.float64) + ranked[middle]) / 2


def _grouped(items: np.ndarray, counts: np.ndarray | None
             ) -> tuple[np.ndarray, np.ndarray]:
    """``items`` with their ``counts`` (default 1 each) summed per distinct
    item: what one weighted update per distinct item adds."""
    distinct, _, inverse, multiplicity = distinct_values(items)
    if counts is None:
        return distinct, multiplicity
    summed = np.bincount(inverse, weights=counts, minlength=len(distinct))
    return distinct, summed.astype(np.int64)


class CountSketch:
    """One Count-Sketch table with explicitly seeded hash families.

    Parameters
    ----------
    width:
        Columns per row; the estimate error scales as ``||f||_2 / sqrt(width)``.
    depth:
        Rows (independent repetitions) the median is taken over.
    seed, salt:
        Name the hash functions: row ``r`` takes its bucket pair ``(a, b)``,
        ``a`` in ``[1, P)``, and its 4 sign coefficients from
        ``HashFamily(seed).coefficients(f"{salt}#{r}", 6)``.  Equal
        ``(seed, salt)`` yield identical hash functions (asserted by the
        test suite), which is what makes such sketches mergeable.
    """

    __slots__ = ("width", "depth", "table", "_bucket_a", "_bucket_b",
                 "_sign_coeffs", "_rows")

    def __init__(self, width: int, depth: int, seed: int = 0,
                 salt: str = "") -> None:
        if width < 2:
            raise SketchError(f"width must be >= 2, got {width}")
        if depth < 1:
            raise SketchError(f"depth must be >= 1, got {depth}")
        self.width = width
        self.depth = depth
        # Per row 2 coefficients for the bucket hash (2-wise independence)
        # and 4 for the sign polynomial (4-wise independence).
        family = HashFamily(seed)
        coefficients = np.array(
            [family.coefficients(f"{salt}#{row}", 6) for row in range(depth)],
            dtype=np.uint64,
        )
        self._bucket_a = coefficients[:, :1] % np.uint64(LARGE_PRIME - 1) + 1
        self._bucket_b = coefficients[:, 1:2]
        self._sign_coeffs = coefficients[:, 2:]
        self._rows = np.arange(depth)[:, None]
        self.table = np.zeros((depth, width), dtype=np.int64)

    # ------------------------------------------------------------------
    # hashing
    # ------------------------------------------------------------------
    def _hash(self, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-row ``(buckets, signs)`` for a 1-D ``uint64`` item array."""
        x = items[None, :]
        buckets = _reduce61(mulmod61(self._bucket_a, x) + self._bucket_b)
        buckets = (buckets % np.uint64(self.width)).astype(np.intp)
        # Horner evaluation of the degree-3 sign polynomial.
        acc = np.broadcast_to(
            self._sign_coeffs[:, 0][:, None], (self.depth, items.shape[0])
        )
        for j in range(1, 4):
            acc = _reduce61(mulmod61(acc, x) + self._sign_coeffs[:, j][:, None])
        signs = (acc % np.uint64(2)).astype(np.int64) * 2 - 1
        return buckets, signs

    # ------------------------------------------------------------------
    # updates and estimates
    # ------------------------------------------------------------------
    def update_batch(self, items: np.ndarray, counts: np.ndarray | None = None
                     ) -> None:
        """Add ``counts[i]`` (default 1) occurrences of each ``items[i]``."""
        items = np.asarray(items, dtype=np.uint64)
        if items.size == 0:
            return
        buckets, signs = self._hash(items)
        if counts is None:
            values = signs
        else:
            values = signs * np.asarray(counts, dtype=np.int64)[None, :]
        # One ``bincount`` over the flattened table.  Its float64 sums are
        # exact integers below 2**53 updates a cell, so the table is the
        # one ``np.add.at`` would build.
        cells = (self._rows * self.width + buckets).ravel()
        self.table += np.bincount(
            cells, weights=values.ravel(), minlength=self.table.size
        ).astype(np.int64).reshape(self.table.shape)

    def update(self, item: int, count: int = 1) -> None:
        self.update_batch(np.asarray([item], dtype=np.uint64),
                          np.asarray([count], dtype=np.int64))

    def estimate_batch(self, items: np.ndarray) -> np.ndarray:
        """Median-of-rows frequency estimates for a 1-D item array."""
        items = np.asarray(items, dtype=np.uint64)
        if items.size == 0:
            return np.zeros(0, dtype=np.float64)
        buckets, signs = self._hash(items)
        return _median_of_rows(self.table[self._rows, buckets] * signs)

    def estimate(self, item: int) -> float:
        return float(self.estimate_batch(np.asarray([item], dtype=np.uint64))[0])

    def l2_estimate(self) -> float:
        """The median-of-rows estimate of ``||f||_2`` (csh's l2estimate)."""
        return math.sqrt(float(_median_of_rows(np.sum(
            self.table.astype(np.float64) ** 2, axis=1
        ))))

    def noise_scale(self) -> float:
        """The characteristic estimate error ``||f||_2 / sqrt(width)``."""
        return self.l2_estimate() / math.sqrt(self.width)

    # ------------------------------------------------------------------
    # merging
    # ------------------------------------------------------------------
    def compatible_with(self, other: "CountSketch") -> bool:
        """True iff ``other`` uses the same shape *and* hash functions."""
        return (
            self.width == other.width
            and self.depth == other.depth
            and np.array_equal(self._bucket_a, other._bucket_a)
            and np.array_equal(self._bucket_b, other._bucket_b)
            and np.array_equal(self._sign_coeffs, other._sign_coeffs)
        )

    def merge(self, other: "CountSketch") -> "CountSketch":
        """Fold ``other`` into this sketch (integer table addition).

        Only sketches with identical hash functions (same width, depth,
        seed and salt) merge; the result is bit-identical to having streamed
        both update sequences through one sketch, in any order.
        """
        if not self.compatible_with(other):
            raise SketchError(
                "cannot merge count sketches with different shapes or "
                "hash seeds or salts; build all shards from the same "
                "SketchConfig"
            )
        self.table += other.table
        return self


class HierarchicalCountSketch:
    """A Count-Sketch per digit level, for prefix-descent heavy hitters.

    Level ``l`` sketches the stream of ``item // base^l``; the number of
    levels is the smallest ``d`` with ``base^d >= universe``, so the top
    level has at most ``base`` distinct values and :meth:`find_heavy`
    can seed its descent by enumerating them.  A prefix's frequency is
    the sum of its children's, so any item above the threshold keeps its
    whole prefix chain above it too — the recursion never prunes a true
    heavy hitter (up to estimate noise, absorbed by ``slack``).

    Level ``l``'s sketch is ``CountSketch(width, depth, seed,
    f"{salt}@{l}")``: every level hashes with functions of its own, all
    named by the one ``(seed, salt)``.
    """

    __slots__ = ("universe", "base", "width", "depth", "levels",
                 "sketches", "update_count")

    def __init__(
        self,
        universe: int,
        width: int,
        depth: int,
        base: int = 16,
        seed: int = 0,
        salt: str = "",
    ) -> None:
        if universe < 1:
            raise SketchError(f"universe must be >= 1, got {universe}")
        if universe > LARGE_PRIME:
            raise SketchError(
                f"universe {universe} exceeds the 2^61 - 1 hashing domain"
            )
        if base < 2:
            raise SketchError(f"base must be >= 2, got {base}")
        self.universe = universe
        self.base = base
        self.width = width
        self.depth = depth
        levels = 1
        span = base
        while span < universe:
            levels += 1
            span *= base
        self.levels = levels
        self.sketches = [
            CountSketch(width, depth, seed, f"{salt}@{level}")
            for level in range(levels)
        ]
        self.update_count = 0

    def _level_size(self, level: int) -> int:
        """Number of distinct prefix values at ``level``."""
        return -(-self.universe // self.base ** level)  # ceil division

    # ------------------------------------------------------------------
    # updates and estimates
    # ------------------------------------------------------------------
    def update_batch(self, items: Iterable[int],
                     counts: np.ndarray | None = None) -> None:
        """Add ``counts[i]`` (default 1) occurrences of each ``items[i]``
        at every level.  Each distinct prefix of a level is hashed once,
        weighted by its total count — the same integer table as one
        update per item, at a fraction of the hashing (levels near the
        top have at most a few hundred prefixes)."""
        items = np.asarray(items, dtype=np.uint64)
        if items.size == 0:
            return
        if counts is not None:
            counts = np.asarray(counts, dtype=np.int64)
        prefixes = items
        base = np.uint64(self.base)
        for sketch in self.sketches:
            prefixes, counts = _grouped(prefixes, counts)
            sketch.update_batch(prefixes, counts)
            prefixes = prefixes // base
        self.update_count += int(items.size)

    def update(self, item: int, count: int = 1) -> None:
        self.update_batch(np.asarray([item], dtype=np.uint64),
                          np.asarray([count], dtype=np.int64))

    def estimate(self, item: int, level: int = 0) -> float:
        """The estimated frequency of ``item // base^level`` at ``level``."""
        return self.sketches[level].estimate(item)

    def noise_scale(self) -> float:
        """The level-0 characteristic error ``||f||_2 / sqrt(width)``."""
        return self.sketches[0].noise_scale()

    # ------------------------------------------------------------------
    # heavy hitters
    # ------------------------------------------------------------------
    def find_heavy(
        self,
        threshold: float,
        slack: float = 0.0,
        max_candidates: int = 1 << 16,
    ) -> Mapping[int, float]:
        """All items whose estimate exceeds ``threshold - slack``.

        Digit-prefix descent: enumerate the (at most ``base``) top-level
        prefixes, keep those whose estimate clears the slacked threshold,
        expand each survivor into its ``base`` children, repeat down to
        level 0.  ``slack`` absorbs estimate noise so borderline-heavy
        items are *included* rather than missed (the safe side for the
        skew-aware algorithms, which tolerate spurious hitters but not
        missed ones).  The candidate frontier is capped at
        ``max_candidates`` by keeping the largest estimates — genuine
        heavy hitters dominate any truncation.

        Returns ``{item: estimated_frequency}``.
        """
        search = max(1.0, threshold - slack)
        top = self.levels - 1
        candidates = np.arange(self._level_size(top), dtype=np.uint64)
        base = np.uint64(self.base)
        for level in range(top, -1, -1):
            if candidates.size == 0:
                return {}
            if candidates.size > max_candidates:
                order = np.argsort(
                    -self.sketches[level].estimate_batch(candidates)
                )
                candidates = candidates[order[:max_candidates]]
            estimates = self.sketches[level].estimate_batch(candidates)
            keep = estimates > search
            candidates = candidates[keep]
            if level == 0:
                return {
                    int(item): float(freq)
                    for item, freq in zip(candidates, estimates[keep])
                }
            children = (candidates[:, None] * base
                        + np.arange(self.base, dtype=np.uint64)[None, :])
            candidates = children.ravel()
            candidates = candidates[candidates < self._level_size(level - 1)]
        return {}

    # ------------------------------------------------------------------
    # merging
    # ------------------------------------------------------------------
    def compatible_with(self, other: "HierarchicalCountSketch") -> bool:
        return (
            self.universe == other.universe
            and self.base == other.base
            and self.levels == other.levels
            and all(
                mine.compatible_with(theirs)
                for mine, theirs in zip(self.sketches, other.sketches)
            )
        )

    def merge(self, other: "HierarchicalCountSketch") -> "HierarchicalCountSketch":
        """Fold ``other`` in; exact, associative, order-independent."""
        if not self.compatible_with(other):
            raise SketchError(
                "cannot merge hierarchical sketches with different "
                "universes, bases, or hash seeds or salts"
            )
        for mine, theirs in zip(self.sketches, other.sketches):
            mine.merge(theirs)
        self.update_count += other.update_count
        return self

    def tables(self) -> list[np.ndarray]:
        """The per-level integer tables (for bit-identity assertions)."""
        return [sketch.table for sketch in self.sketches]
