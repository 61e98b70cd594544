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

The draw streams are the contract: a generator makes exactly the draws
its per-draw loop made (``randrange`` per uniform value, ``random`` per
skewed one, in tuple order) and keeps the distinct tuples of the shortest
prefix of draws that holds ``cardinality`` of them.  The uniform, zipf and
single-value generators make those draws without a Python call each: they
read the rng's 32-bit words in blocks, cut them into draws with numpy,
and build the relation from int64 columns laid out in first-draw order
(``tests/test_data_generators.py`` keeps the loops as references).
"""

from __future__ import annotations

import math
import random
from itertools import accumulate
from typing import Callable, Mapping, Sequence

import numpy as np

from ..seq.relation import MAX_DOMAIN_SIZE, Relation, distinct_rows


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


class _Words:
    """The 32-bit outputs of ``rng.getrandbits(32)``, block by block, from
    where the last parse stopped.

    ``rng.getrandbits(32 * n)`` is the next ``n`` outputs, least
    significant first, and advances ``rng`` exactly as ``n`` calls would;
    a block is those bytes read as ``uint32``, behind the words the last
    block left unparsed.
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._rest = np.empty(0, dtype=np.uint32)

    def block(self, fresh: int) -> np.ndarray:
        words = np.frombuffer(
            self._rng.getrandbits(32 * fresh).to_bytes(4 * fresh, "little"),
            dtype="<u4",
        )
        return np.concatenate((self._rest, words)) if len(self._rest) else words

    def parsed(self, block: np.ndarray, used: int) -> None:
        self._rest = block[used:]


def _words_per_draw(domain_size: int) -> int:
    """Words one ``getrandbits(domain_size.bit_length())`` takes: one or
    two, as no relation holds a domain past ``2**63``."""
    if domain_size > MAX_DOMAIN_SIZE:
        raise GeneratorError(f"domain size {domain_size} exceeds 2**63")
    return 1 if domain_size.bit_length() <= 32 else 2


def _words_per_value(domain_size: int) -> float:
    """Words one ``randrange(domain_size)`` reads on average, redraws
    included."""
    return (_words_per_draw(domain_size)
            * 2 ** domain_size.bit_length() / domain_size)


def _randbelow_draws(words: np.ndarray, domain_size: int) -> np.ndarray:
    """The ``getrandbits(k)`` that ``randrange(domain_size)`` would read
    starting at every word of ``words`` (``k = domain_size.bit_length()``).

    For ``k <= 32`` a draw is one word's top ``k`` bits.  Above, it is
    CPython's two-word form: the first word low, the second word's top
    ``k - 32`` bits above it; a pair that runs past the block is no draw.
    A draw is accepted when it is below ``domain_size``, else redrawn.
    """
    k = domain_size.bit_length()
    if k <= 32:
        return words >> (32 - k)
    high = (words[1:] >> (64 - k)).astype(np.uint64)
    return words[:-1].astype(np.uint64) | (high << 32)


def _randbelow(source: _Words, domain_size: int, count: int) -> np.ndarray:
    """The next ``count`` values of ``rng.randrange(domain_size)``, int64."""
    size = _words_per_draw(domain_size)
    pieces = []
    while count:
        block = source.block(
            math.ceil(1.02 * count * _words_per_value(domain_size)) + 64)
        # Draws start every ``size`` words from the block's first.
        draws = _randbelow_draws(block, domain_size)[::size]
        taken = np.flatnonzero(draws < domain_size)[:count]
        pieces.append(draws[taken].astype(np.int64))
        count -= len(taken)
        source.parsed(block, size * (taken[-1] + 1 if not count else len(draws)))
    return np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)


def _expected_draws(space: int, cardinality: int) -> int:
    """Uniform draws from ``space`` tuples that hold ``cardinality`` distinct
    ones, on average, with a margin: what the first block is sized to."""
    if space > 2**62:  # a repeat is too rare to plan for
        return cardinality + 16
    if cardinality < space:
        draws = -space * math.log1p(-cardinality / space)
    else:  # the whole space: the coupon collector
        draws = space * (math.log(space) + 0.5773)
    return math.ceil(1.05 * draws) + 16


def _first_distinct(
    draw: Callable[[int], np.ndarray],
    arity: int,
    cardinality: int,
    space: int,
    limit: int | None = None,
) -> np.ndarray | None:
    """The distinct tuples of the shortest prefix of draws that holds
    ``cardinality`` of them, as ``(arity, m)`` columns in first-draw order:
    what a set fed draw by draw holds when it reaches that size.

    ``draw(n)`` gives the next ``n`` draws as ``(arity, n)`` columns;
    ``space`` (how many distinct tuples there are) sizes the first block
    and the rate at which a block found new tuples sizes the next.  None
    if ``limit`` draws do not hold ``cardinality`` distinct tuples.
    """
    if not arity or not cardinality:  # the empty tuple takes no word
        return np.empty((arity, cardinality), dtype=np.int64)
    kept = np.empty((arity, 0), dtype=np.int64)
    drawn, want = 0, _expected_draws(space, cardinality)
    while kept.shape[1] < cardinality:
        if limit is not None:
            want = min(want, limit - drawn)
            if not want:
                return None
        before = kept.shape[1]
        both = np.concatenate((kept, draw(want)), axis=1)
        kept = both[:, distinct_rows(both)[0][:cardinality]]
        drawn += want
        found = kept.shape[1] - before
        missing = cardinality - kept.shape[1]
        want = (2 * want if not found
                else math.ceil(1.25 * missing * want / found) + 16)
    return kept


def uniform_relation(
    name: str,
    cardinality: int,
    domain_size: int,
    arity: int = 2,
    seed: int = 0,
) -> Relation:
    """``cardinality`` distinct uniform tuples from ``[domain_size]^arity``:
    ``arity`` values of ``rng.randrange(domain_size)`` a tuple, drawn until
    that many distinct tuples are held."""
    _check_capacity(cardinality, domain_size, arity)
    source = _Words(_rng(seed, f"uniform:{name}"))

    def draw(count: int) -> np.ndarray:
        return _randbelow(source, domain_size, count * arity).reshape(
            count, arity).T

    columns = _first_distinct(
        draw, arity, cardinality, domain_size**arity
    )
    return Relation.from_columns(name, columns, domain_size)


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


def _zipf_draws(
    source: _Words,
    arity: int,
    skewed: frozenset[int],
    domain_size: int,
    table: np.ndarray,
    count: int,
) -> np.ndarray:
    """The next ``count`` tuples of the zipf stream as ``(arity, count)``
    columns, position by position: a skewed position reads ``random()``
    (two words) and bisects ``table``, any other one is
    ``randrange(domain_size)``.

    How many words a tuple takes depends on its uniform draws' rejections,
    so the tuples are cut from a block by following, from each tuple's
    first word, where the next one starts: the starts are walked one tuple
    at a time, everything else is done on whole arrays.
    """
    columns = np.empty((arity, count), dtype=np.int64)
    size = _words_per_draw(domain_size)
    per_tuple = (2 * len(skewed)
                 + (arity - len(skewed)) * _words_per_value(domain_size))
    done = 0
    while done < count:
        block = source.block(math.ceil(1.02 * (count - done) * per_tuple) + 64)
        end = len(block) + 1  # "runs past the block"
        draws = _randbelow_draws(block, domain_size)
        # next_draw[i]: the first accepted draw at i, i + size, ... or end.
        next_draw = np.full(end + 1, end, dtype=np.intp)
        accepted = np.flatnonzero(draws < domain_size)
        next_draw[accepted] = accepted
        for parity in range(size):
            lane = next_draw[parity::size]
            lane[:] = np.minimum.accumulate(lane[::-1])[::-1]
        # after[i]: where a tuple starting at word i ends (end: past it).
        after = np.arange(end + 1)
        for position in range(arity):
            after = (after + 2 if position in skewed
                     else next_draw[after] + size)
            after[after >= end] = end
        starts, start, after = [], 0, after.tolist()
        while len(starts) < count - done and after[start] < end:
            starts.append(start)
            start = after[start]
        source.parsed(block, start)
        at = np.array(starts, dtype=np.intp)
        for position in range(arity):
            if position in skewed:
                # ``random()``: 53 bits from two words, as CPython builds it.
                high = (block[at] >> 5).astype(np.float64)
                low = (block[at + 1] >> 6).astype(np.float64)
                real = (high * 67108864.0 + low) * (1.0 / 9007199254740992.0)
                # ``bisect(table, x, 0, domain_size - 1)``.
                values = np.minimum(
                    np.searchsorted(table, real * table[-1], side="right"),
                    domain_size - 1,
                )
                at = at + 2
            else:
                at = next_draw[at]
                values = draws[at]
                at = at + size
            columns[position, done:done + len(starts)] = values
        done += len(starts)
    return columns


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
    number of distinct tuples it can participate in.  A skewed value is
    ``rng.choices(range(domain_size), weights)``'s, read off one
    cumulative table.
    """
    _check_capacity(cardinality, domain_size, arity)
    skewed = frozenset(skewed_positions)
    for position in skewed:
        if not 0 <= position < arity:
            raise GeneratorError(f"skewed position {position} outside arity {arity}")
    source = _Words(_rng(seed, f"zipf:{name}"))
    # The cumulative weights ``rng.choices`` bisects, summed in Python.
    table = np.fromiter(
        accumulate(1.0 / (rank + 1) ** skew for rank in range(domain_size)),
        dtype=np.float64, count=domain_size,
    )
    columns = _first_distinct(
        lambda count: _zipf_draws(
            source, arity, skewed, domain_size, table, count),
        arity, cardinality, domain_size**arity,
        limit=50 * cardinality + 1000,
    )
    if columns is None:
        raise GeneratorError(
            f"could not realize {cardinality} distinct tuples with "
            f"skew={skew}; lower the skew or enlarge the domain"
        )
    return Relation.from_columns(name, columns, domain_size)


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
    case for hash joins (Example 3.3) and for hashing (Example B.2).  The
    uniform stream, ``arity`` values a tuple, the pinned one overwritten."""
    if cardinality > domain_size ** (arity - 1):
        raise GeneratorError("not enough distinct tuples with one pinned column")
    source = _Words(_rng(seed, f"single:{name}"))

    def draw(count: int) -> np.ndarray:
        columns = _randbelow(source, domain_size, count * arity).reshape(
            count, arity).T
        columns[fixed_position] = fixed_value
        return columns

    columns = _first_distinct(
        draw, arity, cardinality, domain_size ** (arity - 1)
    )
    return Relation.from_columns(name, columns, domain_size)


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
