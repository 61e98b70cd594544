"""Balls-into-bins and relation-hashing simulations (Appendix B).

These drive experiment E10: hash a relation ``R(A_1..A_r)`` onto a grid of
``p_1 x ... x p_r`` buckets with one independent hash function per attribute
(exactly the HyperCube primitive of Lemma 3.1) and measure the realized
maximum bucket load, to compare against the four regimes of the lemma.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Mapping, Sequence

import numpy as np

from ..mpc.hashing import HashFamily
from ..seq.relation import Relation


def hash_relation_loads(
    relation: Relation,
    shares: Sequence[int],
    seed: int = 0,
) -> Counter:
    """Bucket loads when hashing each tuple attribute-wise onto the grid.

    ``shares[i]`` is the bucket count of attribute ``i``; tuples land in the
    bucket ``(h_1(a_1), ..., h_r(a_r))`` as in Lemma 3.1.  Each attribute's
    column is hashed whole and the buckets are counted by their index in
    the flattened grid.
    """
    if len(shares) != relation.arity:
        raise ValueError(
            f"need one share per attribute: got {len(shares)} for arity "
            f"{relation.arity}"
        )
    hashes = HashFamily(seed)
    cells = np.zeros(len(relation), dtype=np.int64)
    for i, (column, share) in enumerate(zip(relation.batch.columns, shares)):
        cells *= share
        cells += hashes.bucket_column(f"attr{i}", column, share)
    counts = np.bincount(cells)
    occupied = np.flatnonzero(counts)
    buckets = zip(*(axis.tolist()
                    for axis in np.unravel_index(occupied, tuple(shares))))
    return Counter(dict(zip(buckets, counts[occupied].tolist())))


def max_hash_load(
    relation: Relation, shares: Sequence[int], seed: int = 0
) -> int:
    loads = hash_relation_loads(relation, shares, seed)
    return max(loads.values(), default=0)


def average_max_hash_load(
    relation: Relation, shares: Sequence[int], trials: int = 5, seed: int = 0
) -> float:
    """Mean maximum bucket load over independent hash draws."""
    total = 0
    for trial in range(trials):
        total += max_hash_load(relation, shares, seed=seed + 1000 * trial)
    return total / trials


def throw_weighted_balls(
    weights: Mapping[int, float] | Sequence[float],
    bins: int,
    seed: int = 0,
) -> list[float]:
    """Throw weighted balls uniformly into ``bins``; returns bin weights.

    The direct simulation of Lemma C.1's setting.
    """
    rng = random.Random(f"balls:{seed}")
    loads = [0.0] * bins
    values = (
        weights.values() if isinstance(weights, Mapping) else weights
    )
    for weight in values:
        loads[rng.randrange(bins)] += weight
    return loads


def max_weighted_load(
    weights: Mapping[int, float] | Sequence[float], bins: int, seed: int = 0
) -> float:
    return max(throw_weighted_balls(weights, bins, seed), default=0.0)
