"""Sketched heavy-hitter statistics: one pass over int64 columns, mergeable
shards.

The exact :class:`~repro.stats.heavy_hitters.HeavyHitterStatistics` counts
every frequency of every (relation, variable-subset) pair — fine for a
simulator, but the thing the paper hand-waves as "first detecting the heavy
hitters (e.g. using sampling)" is a *statistics pass* whose state must not
grow with the data.  This module models that pass:

* every (atom, subset) pair whose subset leaves a column out gets one
  :class:`~repro.sketch.count_sketch.HierarchicalCountSketch`; a partial
  assignment is encoded as a mixed-radix integer over the relation's
  domain, so the sketch universe is ``n^|subset|``.  A subset covering
  every column needs no sketch: its key is the tuple itself, so by set
  semantics every frequency is 1 and the answer is the exact one;
* :class:`RelationSketchSet` holds the sketches for a whole query and is
  updated from each relation's ``(arity, m)`` int64 columns
  (``Relation.batch.columns``), :data:`CHUNK_SIZE` tuples at a time — in
  one pass, or one pass per contiguous column slice on the process farm,
  since same-config sketch sets :meth:`~RelationSketchSet.merge` by exact
  integer addition (bit-identical to the single pass);
* :class:`SketchedHeavyHitterStatistics` recovers the heavy hitters from
  the sketches by prefix descent; it is a
  :class:`~repro.stats.provider.StatisticsProvider` like the exact
  statistics, so the planner and the skew-aware algorithms accept either.

The recovery threshold is *slacked below* the true ``m_j / p`` cutoff by
a multiple of the sketch's characteristic noise ``||f||_2 / sqrt(width)``:
a borderline value is reported heavy rather than missed.  That bias is
deliberate — a spurious heavy hitter merely earns a dedicated server
block (correctness unaffected, a little parallelism wasted), while a
*missed* one overloads the light path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

from ..mpc.farm import Farm, FarmUnavailable, check_workers, split_contiguous
from ..query.atoms import Atom, ConjunctiveQuery
from ..seq.relation import Batch, Database
from ..stats.cardinality import SimpleStatistics, StatisticsError
from ..stats.heavy_hitters import (
    HeavyHitterStatistics,
    heavy_values,
    nonempty_subsets,
)
from ..stats.provider import (
    Assignment,
    StatisticsProvider,
    VarSubset,
    canonical_subset,
)
from .count_sketch import LARGE_PRIME, HierarchicalCountSketch, SketchError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Observation


@dataclass(frozen=True)
class SketchConfig:
    """Size and seeding of the statistics sketches.

    What is verified at these defaults is recall 1.0 (no true heavy hitter
    missed) on Zipf joins over domains of 1 600 values with ``p`` up to 32:
    ``tests/test_sketch_stats.py``, the ``sketch`` bench suite's gate and
    CI's ``repro stats`` smoke.  CI also *runs* a sketched sweep at domain
    80 000, ``p = 64``, but checks only that its cells complete: whether
    width 2048 keeps the noise ``||f||_2 / sqrt(width)`` under the
    ``m_j / p`` thresholds there is not asserted anywhere.

    ``seed`` pins every hash coefficient: equal configs build identical
    sketch functions, which is what lets per-shard sketch sets merge
    bit-identically.  Never seed from global state.
    """

    width: int = 2048
    depth: int = 5
    base: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.width < 2 or self.depth < 1 or self.base < 2:
            raise SketchError(
                f"invalid sketch config: width={self.width}, "
                f"depth={self.depth}, base={self.base}"
            )


#: Recovery slack in units of the sketch noise ``||f||_2/sqrt(width)``; the
#: search threshold is ``m_j/p - SLACK_FACTOR * noise``.
SLACK_FACTOR = 3.0
#: Cap on the prefix-descent frontier (handed to ``find_heavy``).
MAX_CANDIDATES = 1 << 16
#: Tuples per vectorized sketch update: bounds the hashing temporaries.
CHUNK_SIZE = 8192


def _pair_seed(config_seed: int, atom_name: str, subset: VarSubset) -> list[int]:
    """A deterministic SeedSequence entropy for one (atom, subset) pair.

    Derived from the *content* of the key (not ``hash()``, which is
    salted per process), so independently constructed sketch sets — e.g.
    in forked shard workers — agree on every hash coefficient.
    """
    import zlib

    key = f"{atom_name}|{','.join(subset)}".encode()
    return [config_seed, zlib.crc32(key)]


def subset_keys(
    query: ConjunctiveQuery,
) -> Iterator[tuple[Atom, VarSubset, list[int]]]:
    """``(atom, subset, positions)`` for every (atom, variable-subset) key
    of ``query``, once per key (self-joins share a relation's keys), in
    the order the exact statistics list them.  The subset enumeration
    reuses (and is capped by) the exact side's
    :func:`~repro.stats.heavy_hitters.nonempty_subsets` guard."""
    seen: set[tuple[str, VarSubset]] = set()
    for atom in query.atoms:
        for subset in nonempty_subsets(canonical_subset(atom.variables)):
            if (atom.name, subset) not in seen:
                seen.add((atom.name, subset))
                yield atom, subset, [atom.positions_of(v)[0] for v in subset]


@dataclass(frozen=True)
class RelationSketchSpec:
    """How one (atom, variable-subset) pair maps into a sketch universe.

    An assignment ``(v_0, .., v_{k-1})`` to the sorted subset encodes as
    the mixed-radix integer ``sum_i v_i * n^i`` over the relation's
    domain ``[0, n)``; the universe is therefore ``n^k``, which must fit
    the sketch's ``2^61 - 1`` hashing domain.
    """

    atom_name: str
    subset: VarSubset
    positions: tuple[int, ...]
    domain_size: int
    universe: int

    @classmethod
    def build(
        cls, atom_name: str, subset: VarSubset,
        positions: Sequence[int], domain_size: int,
    ) -> "RelationSketchSpec":
        universe = 1
        for _ in subset:
            universe *= domain_size
            if universe > LARGE_PRIME:
                raise StatisticsError(
                    f"sketch universe {domain_size}^{len(subset)} for atom "
                    f"{atom_name!r} subset {subset} exceeds 2^61 - 1; "
                    "sketched statistics need a smaller domain or subset"
                )
        return cls(
            atom_name=atom_name,
            subset=subset,
            positions=tuple(positions),
            domain_size=domain_size,
            universe=max(1, universe),
        )

    def encode(self, columns: np.ndarray) -> np.ndarray:
        """Mixed-radix items for an ``(arity, n_tuples)`` int64 column
        array."""
        items = np.zeros(columns.shape[1], dtype=np.uint64)
        radix = np.uint64(1)
        n = np.uint64(self.domain_size)
        for pos in self.positions:
            items += columns[pos].astype(np.uint64) * radix
            radix *= n
        return items

    def decode(self, item: int) -> Assignment:
        """The assignment a sketch item stands for (inverse of encode)."""
        values = []
        for _ in self.subset:
            values.append(int(item % self.domain_size))
            item //= self.domain_size
        return tuple(values)


@dataclass
class RelationSketchSet:
    """One hierarchical sketch per sketched (atom, subset) pair of a query.

    :meth:`update` feeds it a relation's int64 columns; sets with the
    same config merge by exact table addition, so a build from column
    slices is bit-identical to the single pass.
    """

    config: SketchConfig
    specs: Mapping[tuple[str, VarSubset], RelationSketchSpec]
    sketches: Mapping[tuple[str, VarSubset], HierarchicalCountSketch]

    @classmethod
    def empty(cls, query: ConjunctiveQuery, db_domains: Mapping[str, int],
              config: SketchConfig) -> "RelationSketchSet":
        """Fresh zero sketches for every (atom, subset) pair of ``query``
        whose subset leaves a column out (:func:`subset_keys`).

        ``db_domains`` maps relation name to its domain size ``n``.
        """
        specs: dict[tuple[str, VarSubset], RelationSketchSpec] = {}
        sketches: dict[tuple[str, VarSubset], HierarchicalCountSketch] = {}
        for atom, subset, positions in subset_keys(query):
            if len(positions) == atom.arity:
                continue
            key = (atom.name, subset)
            spec = RelationSketchSpec.build(
                atom.name, subset, positions, db_domains[atom.name]
            )
            specs[key] = spec
            sketches[key] = HierarchicalCountSketch(
                universe=spec.universe,
                width=config.width,
                depth=config.depth,
                base=config.base,
                seed=_pair_seed(config.seed, atom.name, subset),
            )
        return cls(config=config, specs=specs, sketches=sketches)

    def update(self, atom_name: str, columns: np.ndarray) -> None:
        """Add a relation's tuples, given as its ``(arity, n)`` int64
        columns, to every subset sketch of that relation.

        The columns are hashed :data:`CHUNK_SIZE` tuples at a time, so the
        temporaries stay bounded however many tuples there are; nothing
        but the sketch tables is kept.
        """
        keys = [key for key in self.specs if key[0] == atom_name]
        for start in range(0, columns.shape[1], CHUNK_SIZE):
            piece = columns[:, start:start + CHUNK_SIZE]
            for key in keys:
                self.sketches[key].update_batch(self.specs[key].encode(piece))

    @property
    def update_count(self) -> int:
        """Total sketch updates performed (tuples x sketched subsets)."""
        return sum(s.update_count for s in self.sketches.values())

    # ------------------------------------------------------------------
    # merging
    # ------------------------------------------------------------------
    def merge(self, other: "RelationSketchSet") -> "RelationSketchSet":
        """Fold a shard's sketches in (exact; any merge order agrees)."""
        if self.config != other.config or set(self.specs) != set(other.specs):
            raise SketchError(
                "cannot merge sketch sets built from different queries or "
                "sketch configs"
            )
        for key, sketch in self.sketches.items():
            sketch.merge(other.sketches[key])
        return self


def _build_shard(
    query: ConjunctiveQuery,
    domains: Mapping[str, int],
    config: SketchConfig,
    pieces: list[tuple[str, Batch]],
) -> RelationSketchSet:
    """Farm task: sketch one shard's batches into a fresh sketch set."""
    shard = RelationSketchSet.empty(query, domains, config)
    for atom_name, batch in pieces:
        shard.update(atom_name, batch.columns)
    return shard


def build_sketch_set(
    query: ConjunctiveQuery,
    db: Database,
    config: SketchConfig,
    workers: int = 1,
) -> RelationSketchSet:
    """Sketch every relation of ``query`` in one pass over ``db``.

    With ``workers > 1`` each relation's batch is cut into contiguous
    slices as the ``mp`` engine cuts it, shard ``w`` takes the ``w``-th
    slice of every relation, each worker of a :class:`repro.mpc.farm.Farm`
    sketches its shard, and the parent merges — bit-identical to the
    single pass because same-seed sketches merge by exact integer
    addition.  A shard whose worker raised or died is a
    :class:`SketchError`; only when no worker process can be started at
    all does the build run single-pass instead.
    """
    domains = {
        atom.name: db.relation(atom.name).domain_size for atom in query.atoms
    }
    single_pass = [
        (name, db.relation(name).batch)
        for name in dict.fromkeys(atom.name for atom in query.atoms)
    ]
    if check_workers(workers) == 1:
        return _build_shard(query, domains, config, single_pass)

    shards: list[list[tuple[str, Batch]]] = [[] for _ in range(workers)]
    for name, batch in single_pass:
        for shard, piece in zip(shards, split_contiguous(batch, workers)):
            shard.append((name, piece))
    tasks = [pieces for pieces in shards if pieces]
    if not tasks:
        return RelationSketchSet.empty(query, domains, config)
    try:
        farm = Farm(partial(_build_shard, query, domains, config), len(tasks))
    except FarmUnavailable:
        return _build_shard(query, domains, config, single_pass)
    with farm:
        outcomes = farm.map(tasks)
    for number, outcome in enumerate(outcomes, 1):
        if not outcome.ok:
            raise SketchError(
                f"sketch shard {number}/{len(tasks)} "
                f"{outcome.status}: {outcome.value}"
            )
    merged = outcomes[0].value
    for outcome in outcomes[1:]:
        merged.merge(outcome.value)
    return merged


# ----------------------------------------------------------------------
# the provider
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SketchedHeavyHitterStatistics(StatisticsProvider):
    """Heavy hitters recovered from Count-Sketches, planner-compatible.

    A :class:`~repro.stats.provider.StatisticsProvider` like the exact
    :class:`~repro.stats.heavy_hitters.HeavyHitterStatistics`, so it
    drops into ``plan``/``autoplan`` and every skew-aware algorithm's
    cost hooks unchanged.  Frequencies in ``hitters`` are sketch
    *estimates* (clamped to ``[1, m_j]``); the recovery threshold is
    slacked below ``m_j / p`` so borderline values are included rather
    than missed (see the module docstring for why that bias is safe).
    """

    config: SketchConfig
    update_count: int
    sketch_set: RelationSketchSet = field(compare=False, repr=False)

    @classmethod
    def of(
        cls,
        query: ConjunctiveQuery,
        db: Database,
        p: int,
        threshold_factor: float = 1.0,
        config: SketchConfig | None = None,
        workers: int = 1,
        obs: "Observation | None" = None,
    ) -> "SketchedHeavyHitterStatistics":
        """One statistics pass over ``db`` for ``query``, then recovery.

        The sketched twin of :meth:`HeavyHitterStatistics.of`: same
        signature prefix, same thresholds, estimated frequencies.
        ``workers > 1`` builds per-shard sketches on the process farm and
        merges them (bit-identical to ``workers=1``).
        """
        from ..obs import maybe_timed

        if p < 1:
            raise StatisticsError("p must be >= 1")
        config = config or SketchConfig()
        with maybe_timed(obs, "stats.sketch_pass", workers=workers):
            sketch_set = build_sketch_set(query, db, config, workers=workers)
        simple = SimpleStatistics.of(db)
        hitters: dict[tuple[str, VarSubset], dict[Assignment, int]] = {}
        with maybe_timed(obs, "stats.sketch_recover"):
            for atom, subset, positions in subset_keys(query):
                key = (atom.name, subset)
                m = simple.cardinality(atom.name)
                threshold = threshold_factor * m / p
                spec = sketch_set.specs.get(key)
                if spec is None:
                    # A key covering every column: by set semantics every
                    # count is 1, as the exact statistics answer it.
                    hitters[key] = heavy_values(
                        db.relation(atom.name), positions, threshold
                    )
                    continue
                sketch = sketch_set.sketches[key]
                slack = SLACK_FACTOR * sketch.noise_scale()
                found = sketch.find_heavy(
                    threshold, slack=slack,
                    max_candidates=MAX_CANDIDATES,
                )
                hitters[key] = {
                    spec.decode(item): max(1, min(m, round(freq)))
                    for item, freq in found.items()
                }
        if obs is not None:
            obs.set_gauge("sketch.width", config.width)
            obs.set_gauge("sketch.depth", config.depth)
            obs.count("sketch.updates", sketch_set.update_count)
        return cls(
            simple=simple,
            p=p,
            threshold_factor=threshold_factor,
            hitters=hitters,
            config=config,
            update_count=sketch_set.update_count,
            sketch_set=sketch_set,
        )


# ----------------------------------------------------------------------
# fidelity report (exact vs sketched)
# ----------------------------------------------------------------------

def sketch_fidelity(
    exact: HeavyHitterStatistics,
    sketched: SketchedHeavyHitterStatistics,
) -> dict[str, object]:
    """Compare sketched heavy hitters against the exact ground truth.

    Returns overall ``recall`` (fraction of true heavy hitters the
    sketch recovered — the number the acceptance gate pins to 1.0),
    ``precision``, ``max_rel_error`` (worst relative frequency error
    over the true heavy hitters that were recovered) and per-pair rows.
    """
    pairs: list[dict[str, object]] = []
    true_total = found_total = hit_total = 0
    max_rel_error = 0.0
    keys = set(exact.hitters) | set(sketched.hitters)
    for key in sorted(keys):
        true_map = dict(exact.hitters.get(key, {}))
        est_map = dict(sketched.hitters.get(key, {}))
        hits = set(true_map) & set(est_map)
        rel_errors = [
            abs(est_map[a] - true_map[a]) / true_map[a] for a in hits
        ]
        pair_max = max(rel_errors, default=0.0)
        max_rel_error = max(max_rel_error, pair_max)
        true_total += len(true_map)
        found_total += len(est_map)
        hit_total += len(hits)
        pairs.append({
            "atom": key[0],
            "subset": list(key[1]),
            "true_heavy": len(true_map),
            "sketched_heavy": len(est_map),
            "false_negatives": len(true_map) - len(hits),
            "false_positives": len(est_map) - len(hits),
            "max_rel_error": pair_max,
        })
    recall = 1.0 if true_total == 0 else hit_total / true_total
    precision = 1.0 if found_total == 0 else hit_total / found_total
    return {
        "recall": recall,
        "precision": precision,
        "max_rel_error": max_rel_error,
        "true_heavy": true_total,
        "sketched_heavy": found_total,
        "false_negatives": true_total - hit_total,
        "false_positives": found_total - hit_total,
        "pairs": pairs,
    }
