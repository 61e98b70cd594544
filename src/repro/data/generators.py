"""Workload generators for the experiments.

Each generator is deterministic given its seed and produces a
:class:`~repro.seq.relation.Relation`:

* :func:`uniform_relation` — uniform random distinct tuples (the random
  instances of the lower-bound proofs, Lemma A.1);
* :func:`matching_relation` — every value appears at most once per attribute
  (the uniform databases of [4], Lemma 3.1(2));
* :func:`zipf_relation` — Zipf-distributed values on chosen positions, the
  standard skew model for experiment E6;
* :func:`single_value_relation` — the adversarial instance of Examples 3.3
  and B.2 (one shared join value);
* :func:`degree_relation` — a binary relation with a prescribed degree
  sequence (the fixed-degree statistics of Section 4.3);
* :func:`planted_heavy_relation` — a controllable mixture of heavy hitters
  and light uniform mass;
* :func:`graph_edges` — random (optionally hub-heavy) graph edge relations
  for triangle workloads.
"""

from __future__ import annotations

import random
from bisect import bisect
from functools import partial
from itertools import accumulate, islice, repeat
from typing import Mapping, Sequence

from ..seq.relation import Relation


class GeneratorError(ValueError):
    """Raised for unsatisfiable generator parameters."""


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{label}:{seed}")


def _check_capacity(cardinality: int, domain_size: int, arity: int) -> None:
    if cardinality > domain_size**arity:
        raise GeneratorError(
            f"cannot draw {cardinality} distinct tuples from a space of "
            f"{domain_size**arity}"
        )


def uniform_relation(
    name: str,
    cardinality: int,
    domain_size: int,
    arity: int = 2,
    seed: int = 0,
) -> Relation:
    """``cardinality`` distinct uniform tuples from ``[domain_size]^arity``."""
    _check_capacity(cardinality, domain_size, arity)
    rng = _rng(seed, f"uniform:{name}")
    # The stream ``rng.randrange(domain_size)`` consumes — ``getrandbits``
    # of the domain's bit length, redrawn until below it — cut into tuples
    # without a Python-level call per value.
    values = filter(
        domain_size.__gt__,
        iter(partial(rng.getrandbits, domain_size.bit_length()), None),
    )
    draws = zip(*[values] * arity) if arity else repeat(())
    tuples: set[tuple[int, ...]] = set()
    while len(tuples) < cardinality:
        # As many draws as tuples are missing: the set cannot fill early.
        tuples.update(islice(draws, cardinality - len(tuples)))
    return Relation(
        name=name, arity=arity, tuples=tuples, domain_size=domain_size
    )


def matching_relation(
    name: str, cardinality: int, domain_size: int, arity: int = 2, seed: int = 0
) -> Relation:
    """A matching: every value occurs at most once in every attribute."""
    if cardinality > domain_size:
        raise GeneratorError(
            f"a matching of {cardinality} tuples needs a domain >= {cardinality}"
        )
    rng = _rng(seed, f"matching:{name}")
    columns = [
        rng.sample(range(domain_size), cardinality) for _ in range(arity)
    ]
    return Relation(
        name=name, arity=arity, tuples=zip(*columns), domain_size=domain_size
    )


def zipf_relation(
    name: str,
    cardinality: int,
    domain_size: int,
    arity: int = 2,
    skew: float = 1.0,
    skewed_positions: Sequence[int] = (1,),
    seed: int = 0,
) -> Relation:
    """Zipf(``skew``) values on ``skewed_positions``, uniform elsewhere.

    ``skew = 0`` degenerates to uniform.  Distinctness is enforced by
    resampling, so the realized frequency of the top value is capped by the
    number of distinct tuples it can participate in.
    """
    _check_capacity(cardinality, domain_size, arity)
    rng = _rng(seed, f"zipf:{name}")
    skewed = set(skewed_positions)
    for position in skewed:
        if not 0 <= position < arity:
            raise GeneratorError(f"skewed position {position} outside arity {arity}")
    # One cumulative table per relation, bisected per draw: the stream
    # ``rng.choices(range(n), weights)`` consumes, at O(log n) a value.
    table = list(accumulate(1.0 / (rank + 1) ** skew for rank in range(domain_size)))
    tuples: set[tuple[int, ...]] = set()
    attempts = 0
    max_attempts = 50 * cardinality + 1000
    while len(tuples) < cardinality:
        attempts += 1
        if attempts > max_attempts:
            raise GeneratorError(
                f"could not realize {cardinality} distinct tuples with "
                f"skew={skew}; lower the skew or enlarge the domain"
            )
        tuples.add(tuple(
            bisect(table, rng.random() * table[-1], 0, domain_size - 1)
            if position in skewed else rng.randrange(domain_size)
            for position in range(arity)
        ))
    return Relation(
        name=name, arity=arity, tuples=tuples, domain_size=domain_size
    )


def single_value_relation(
    name: str,
    cardinality: int,
    domain_size: int,
    fixed_position: int = 1,
    fixed_value: int = 0,
    arity: int = 2,
    seed: int = 0,
) -> Relation:
    """All tuples share ``fixed_value`` at ``fixed_position`` — the worst
    case for hash joins (Example 3.3) and for hashing (Example B.2)."""
    if cardinality > domain_size ** (arity - 1):
        raise GeneratorError("not enough distinct tuples with one pinned column")
    rng = _rng(seed, f"single:{name}")
    tuples: set[tuple[int, ...]] = set()
    while len(tuples) < cardinality:
        values = [rng.randrange(domain_size) for _ in range(arity)]
        values[fixed_position] = fixed_value
        tuples.add(tuple(values))
    return Relation(
        name=name, arity=arity, tuples=tuples, domain_size=domain_size
    )


def degree_relation(
    name: str,
    degrees: Mapping[int, int],
    domain_size: int,
    degree_position: int = 1,
    seed: int = 0,
) -> Relation:
    """A binary relation realizing the degree sequence ``degrees``:
    value ``h`` (at ``degree_position``) occurs in exactly ``degrees[h]``
    tuples, partners drawn without replacement."""
    rng = _rng(seed, f"degree:{name}")
    tuples: set[tuple[int, int]] = set()
    for value, degree in sorted(degrees.items()):
        if not 0 <= value < domain_size:
            raise GeneratorError(f"value {value} outside domain {domain_size}")
        if degree > domain_size:
            raise GeneratorError(
                f"degree {degree} of value {value} exceeds domain {domain_size}"
            )
        partners = rng.sample(range(domain_size), degree)
        for partner in partners:
            if degree_position == 1:
                tuples.add((partner, value))
            else:
                tuples.add((value, partner))
    return Relation(
        name=name, arity=2, tuples=tuples, domain_size=domain_size
    )


def planted_heavy_relation(
    name: str,
    cardinality: int,
    domain_size: int,
    heavy_values: Sequence[int],
    heavy_fraction: float = 0.5,
    heavy_position: int = 1,
    arity: int = 2,
    seed: int = 0,
) -> Relation:
    """A mixture: ``heavy_fraction`` of the tuples concentrate (evenly) on
    ``heavy_values`` at ``heavy_position``; the rest are uniform."""
    if not heavy_values:
        raise GeneratorError("need at least one heavy value")
    if not 0.0 <= heavy_fraction <= 1.0:
        raise GeneratorError("heavy_fraction must lie in [0, 1]")
    rng = _rng(seed, f"planted:{name}")
    heavy_total = int(cardinality * heavy_fraction)
    per_value = max(1, heavy_total // len(heavy_values)) if heavy_total else 0
    tuples: set[tuple[int, ...]] = set()
    for value in heavy_values:
        added = 0
        guard = 0
        while added < per_value and guard < 50 * per_value + 100:
            guard += 1
            candidate = [rng.randrange(domain_size) for _ in range(arity)]
            candidate[heavy_position] = value
            before = len(tuples)
            tuples.add(tuple(candidate))
            added += len(tuples) - before
    guard = 0
    while len(tuples) < cardinality and guard < 100 * cardinality + 1000:
        guard += 1
        tuples.add(tuple(rng.randrange(domain_size) for _ in range(arity)))
    if len(tuples) < cardinality:
        raise GeneratorError("domain too small for the requested mixture")
    return Relation(
        name=name, arity=arity, tuples=tuples, domain_size=domain_size
    )


def graph_edges(
    name: str,
    num_nodes: int,
    num_edges: int,
    hub_count: int = 0,
    hub_fraction: float = 0.0,
    seed: int = 0,
) -> Relation:
    """A directed edge relation; with hubs, ``hub_fraction`` of the edges
    attach to the first ``hub_count`` nodes (for skewed triangle counting)."""
    if num_edges > num_nodes * num_nodes:
        raise GeneratorError("too many edges for the node count")
    rng = _rng(seed, f"graph:{name}")
    edges: set[tuple[int, int]] = set()
    hub_target = int(num_edges * hub_fraction) if hub_count else 0
    guard = 0
    while len(edges) < hub_target and guard < 100 * num_edges + 1000:
        guard += 1
        hub = rng.randrange(hub_count)
        other = rng.randrange(num_nodes)
        edges.add((hub, other) if rng.random() < 0.5 else (other, hub))
    guard = 0
    while len(edges) < num_edges and guard < 100 * num_edges + 1000:
        guard += 1
        edges.add((rng.randrange(num_nodes), rng.randrange(num_nodes)))
    if len(edges) < num_edges:
        raise GeneratorError("could not realize the requested edge count")
    return Relation(
        name=name, arity=2, tuples=edges, domain_size=num_nodes
    )
