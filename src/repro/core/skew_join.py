"""The skew-aware join algorithm of Section 4.1.

For ``q(x, y, z) = S1(x, z), S2(y, z)`` (generalized here to any two-atom
query with a nonempty set of shared variables ``J``), the algorithm knows
the heavy hitters of each relation on ``J`` and routes, in a single round:

1. *light* tuples (``J``-value heavy in neither relation) through a plain
   hash join on ``J`` over all ``p`` servers;
2. each ``h in H12`` (heavy in both) through a ``p_1(h) x p_2(h)`` cartesian
   grid of ``p_h = p * m_1(h) m_2(h) // sum K12`` servers (at least one),
   split as ``p_1 = isqrt(p_h m_1(h) // m_2(h))`` (between 1 and ``p_h``)
   and ``p_2 = p_h // p_1`` (Section 4.1, rounded down);
3. each ``h in H1`` (heavy only in ``S1``) by hash-partitioning
   ``S1(.., h)`` on its private variables over ``p m_1(h) // sum K1``
   servers (at least one) while broadcasting the (light) ``S2(.., h)``
   tuples to them;
4. symmetrically for ``H2``.

Each step is a HyperCube block of one
:class:`~repro.core.hypercube.Family` over the dimensions ``light``,
``S1`` and ``S2`` (salted ``skewjoin:<name>``): the light hash join is the
default block ``(p, 1, 1)`` from server 0, and a heavy value's block is
``(1, p_1, p_2)``, ``(1, n, 1)`` or ``(1, 1, n)``, the atom that does not
fix its dimension replicated across it.  A tuple fixes ``light`` by its
join positions and its own atom's dimension by its private ones (on
``S1(x, z), S2(y, z)`` a column each).  Rounded down, each tier's sizes
add up to at most ``p`` but for its one-server blocks, so each tier is
laid out from server 0, largest block first, its multi-server blocks
side by side inside ``[0, p)``; the tiers stack on each other and on the
light hash join.  The prediction
(:func:`~repro.core.hypercube.layout_load_bits`) reads these blocks: a
server of a ``p1 x p2`` block expects ``m1(h)/p1 + m2(h)/p2``, and one
holding blocks of several tiers expects them all.  The paper bounds the
achieved load by ``O(L log p)`` for ``L = max(m1/p, m2/p, L1, L2, L12)``
— formula (10) — exposed by :func:`skew_join_load_bound`.
"""

from __future__ import annotations

import math

from ..query.atoms import Atom, ConjunctiveQuery, QueryError
from ..stats.provider import StatisticsProvider, canonical_subset
from .hypercube import Block, Family, Filter, HeavyBlockAlgorithm, Layout


def _split_variables(query: ConjunctiveQuery) -> tuple[Atom, Atom, tuple[str, ...]]:
    if query.num_atoms != 2:
        raise QueryError(
            f"the skew-aware join handles exactly two atoms, got {query.num_atoms}"
        )
    first, second = query.atoms
    shared = canonical_subset(first.variable_set & second.variable_set)
    if not shared:
        raise QueryError(
            f"{query.name!r} is a cartesian product; use CartesianProductAlgorithm"
        )
    return first, second, shared


class SkewAwareJoin(HeavyBlockAlgorithm):
    """The Section 4.1 algorithm.  Statistics are extracted from the data
    (modeling the statistics pass) unless supplied explicitly."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        stats: StatisticsProvider | None = None,
    ) -> None:
        super().__init__(query, name="skew-join")
        _split_variables(query)  # validate shape early
        self._stats = stats

    @classmethod
    def applicability(cls, query: ConjunctiveQuery) -> str | None:
        try:
            _split_variables(query)
        except QueryError as exc:
            return str(exc)
        return None

    def layout(self, stats: StatisticsProvider, p: int) -> Layout:
        """The one family of the module docstring: a tuple fixes ``light``
        by its join positions and its own atom's dimension by its private
        positions; each heavy join value's block is sized by Section 4.1,
        rounded down, and each tier (H12, H1, H2) is laid out from server
        0, largest block first (ties in value order), each block starting
        where the previous one ended, mod ``p``.  Only one-server blocks
        can wrap: where clamping to one server makes a tier add up to more
        than ``p``."""
        first, second, join_vars = _split_variables(self.query)
        h1_map = dict(stats.heavy_hitters(first.name, join_vars))
        h2_map = dict(stats.heavy_hitters(second.name, join_vars))
        both = sorted(set(h1_map) & set(h2_map))
        only1 = sorted(set(h1_map) - set(h2_map))
        only2 = sorted(set(h2_map) - set(h1_map))

        shares, labels = {}, {}
        total = sum(h1_map[h] * h2_map[h] for h in both)
        for h in both:
            p_h = max(1, p * h1_map[h] * h2_map[h] // total)
            p1 = min(p_h, max(1, math.isqrt(p_h * h1_map[h] // h2_map[h])))
            p2 = p_h // p1
            shares[h] = (1, p1, p2)
            labels[h] = (f"H12 {h}: {p1}x{p2} cartesian grid on "
                         f"{p1 * p2} servers")
        for heavy, atom, freq in ((only1, first, h1_map),
                                  (only2, second, h2_map)):
            total = sum(freq[h] for h in heavy)
            for h in heavy:
                n = max(1, p * freq[h] // total)
                shares[h] = (1, n, 1) if atom is first else (1, 1, n)
                labels[h] = (f"H1/H2 {h}: partition {atom.name} over {n} "
                             "servers, broadcast the other side")
        starts = {}
        for tier in (both, only1, only2):
            cursor = 0
            for h in sorted(tier, key=lambda h: -math.prod(shares[h])):
                starts[h] = cursor
                cursor = (cursor + math.prod(shares[h])) % p
        blocks = [Block(f"light hitters: hash join across all {p} servers",
                        (p, 1, 1))]
        blocks += [Block(labels[h], shares[h], starts[h])
                   for h in both + only1 + only2]

        accepted = {
            h: (number,) for number, h in enumerate(both + only1 + only2, 1)
        }
        keys, filters = {}, {}
        for dim, atom in enumerate((first, second), start=1):
            join = tuple(atom.positions_of(var)[0] for var in join_vars)
            keys[atom.name] = {0: join, dim: tuple(
                i for i, var in enumerate(atom.variables)
                if var not in join_vars
            )}
            filters[atom.name] = Filter(join, accepted, default=(0,))
        family = Family(("light", first.name, second.name), keys,
                        tuple(blocks), "skewjoin", filters)
        return Layout(
            (family,),
            summary={
                "join_vars": join_vars,
                "h12": len(both),
                "h1_h2": len(only1) + len(only2),
            },
            title=f"skew-aware join on {', '.join(join_vars)} over p={p}",
        )


def skew_join_load_bound(
    stats: StatisticsProvider,
    query: ConjunctiveQuery,
    in_bits: bool = True,
) -> dict[str, float]:
    """Formula (10): ``L = max(m1/p, m2/p, L1, L2, L12)``.

    The paper's bound (up to ``O(log p)``), not the prediction, which
    :func:`~repro.core.hypercube.layout_load_bits` reads off the blocks.
    Returns every component so experiments can show which regime dominates.
    ``L1``/``L2`` (``sqrt(sum_{h in Hj} m_j(h) / p)``) are dominated by
    ``m_j/p`` whenever ``m_j >= p``; they matter only for tiny relations.
    When ``in_bits``, tuple counts are scaled by each relation's tuple size.
    """
    first, second, join_vars = _split_variables(query)
    p = stats.p
    m1 = stats.simple.cardinality(first.name)
    m2 = stats.simple.cardinality(second.name)

    h1_map = dict(stats.heavy_hitters(first.name, join_vars))
    h2_map = dict(stats.heavy_hitters(second.name, join_vars))
    both = set(h1_map) & set(h2_map)
    only1 = set(h1_map) - both
    only2 = set(h2_map) - both

    l12 = math.sqrt(sum(h1_map[h] * h2_map[h] for h in both) / p) if both else 0.0
    l1 = math.sqrt(sum(h1_map[h] for h in only1) / p) if only1 else 0.0
    l2 = math.sqrt(sum(h2_map[h] for h in only2) / p) if only2 else 0.0

    def scale(atom_name: str) -> float:
        if not in_bits:
            return 1.0
        from ..seq.relation import bits_per_value

        arity = stats.simple.arity(atom_name)
        return arity * bits_per_value(stats.simple.domain_size)

    s1, s2 = scale(first.name), scale(second.name)
    cross = math.sqrt(s1 * s2)
    components = {
        "m1_over_p": m1 / p * s1,
        "m2_over_p": m2 / p * s2,
        "L1": l1 * s1,
        "L2": l2 * s2,
        "L12": l12 * cross,
    }
    components["bound"] = max(components.values())
    return components
