"""The general skew-aware algorithm (Section 4.2, Appendix D).

One HyperCube instance per *bin combination* ``B = (x, (beta_j)_j)``:

1. Heavy hitters of every (relation, variable-subset) pair are split into
   ``O(log p)`` frequency bins (`repro.stats.bins`).
2. The sets ``C'(B)`` of handled assignments are built inductively: an
   assignment joins ``C'(B)`` when it extends some ``h' in C'(B')`` (for a
   bin combination ``B'`` on a strictly smaller variable set) by a heavy
   hitter that is *overweight* for ``B'`` — i.e. has more than
   ``Nbc * m_j / p^(beta'_j + sum e_i^(B'))`` consistent tuples.
3. Every ``B`` gets share exponents from the LP (11)

       minimize lambda
       s.t.     lambda + sum_{x_i in vars(S_j) - x_j} e_i >= mu_j - beta_j
                sum_{i in V - x} e_i <= 1 - alpha,   alpha = log_p |C'(B)|

   and ``p`` (virtual) servers: ``p^(1-alpha)`` per assignment ``h``, each
   block running HyperCube on the residual variables ``V - x``.
4. A tuple of ``S_j`` participates in ``B`` for the assignments it extends,
   unless it contains an overweight-for-``B`` proper extension — in which
   case a finer bin combination owns it (Lemma 4.5 guarantees every answer
   is produced by some ``B``).

All bin combinations share the same ``p`` physical servers; their loads add,
which costs the ``polylog(p)`` factor of Theorem 4.6.  The theoretical load
``max_B p^(lambda(B))`` is exposed via :meth:`BinHyperCubePlan.describe`.

``Nbc`` is the paper's bin-combination count; we expose it as a knob
(default 1.0).  Smaller values make more hitters overweight — more dedicated
handling, better balance — while correctness holds for any value because the
overweight chains always terminate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..lp.fraction_utils import log_base_fraction
from ..lp.simplex import LPError, maximize
from ..mpc.execution import Claim, OneRoundAlgorithm, RoutingPlan
from ..mpc.hashing import HashFamily
from ..query.atoms import ConjunctiveQuery
from ..query.residual import residual_query
from ..seq.relation import Batch, Database, Tuple
from ..stats.bins import BinCombination, combination_for_assignment
from ..stats.provider import StatisticsProvider
from ..stats.heavy_hitters import (
    HeavyHitterStatistics,
    VarSubset,
    canonical_subset,
)
from .hypercube import HyperCubePlan
from .shares import integer_shares, shares_product

# An assignment to a variable set, canonically sorted by variable name.
Assg = tuple[tuple[str, int], ...]


def _proper_supersets(atom_vars: VarSubset, xj: VarSubset) -> list[VarSubset]:
    """Canonical subsets of ``atom_vars`` strictly containing ``xj``."""
    extra = [v for v in atom_vars if v not in set(xj)]
    out: list[VarSubset] = []
    for mask in range(1, 1 << len(extra)):
        added = [extra[i] for i in range(len(extra)) if mask & (1 << i)]
        out.append(canonical_subset(set(xj) | set(added)))
    return out


@dataclass(frozen=True)
class BinLP:
    """Solution of the LP (11) for one bin combination."""

    lam: Fraction
    exponents: Mapping[str, Fraction]  # for the variables of V - x

    def load_bits(self, p: int) -> float:
        return float(p) ** float(self.lam)


def solve_bin_lp(
    query: ConjunctiveQuery,
    combo: BinCombination,
    alpha: Fraction,
    bits: Mapping[str, float],
    p: int,
) -> BinLP:
    """Solve (11) exactly.  Variables are ``[e_i for i in V - x] + [lambda]``."""
    remaining = [v for v in query.variables if v not in combo.variables]
    if p < 2:
        # A single server: every share is 1 and the load is the whole input.
        return BinLP(
            lam=Fraction(0),
            exponents={var: Fraction(0) for var in remaining},
        )
    index = {var: i for i, var in enumerate(remaining)}
    n = len(remaining)

    objective = [Fraction(0)] * n + [Fraction(-1)]
    a: list[list[Fraction]] = []
    b: list[Fraction] = []
    # sum_{i in V - x} e_i <= 1 - alpha
    a.append([Fraction(1)] * n + [Fraction(0)])
    b.append(Fraction(1) - alpha)
    for atom in query.atoms:
        if bits[atom.name] <= 0:
            continue  # empty relations impose no constraint
        mu = log_base_fraction(bits[atom.name], float(p))
        beta = combo.beta(atom.name)
        row = [Fraction(0)] * (n + 1)
        for var in atom.variable_set:
            if var in index:
                row[index[var]] = Fraction(-1)
        row[n] = Fraction(-1)
        a.append(row)
        b.append(-(mu - beta))

    result = maximize(objective, a, b)
    if not result.is_optimal:  # pragma: no cover - (11) is always feasible
        raise LPError(f"bin LP for {combo.describe()} returned {result.status}")
    return BinLP(
        lam=result.x[n],
        exponents={var: result.x[index[var]] for var in remaining},
    )


def _combination_order(combo: BinCombination) -> tuple[list[str], str]:
    """Sort key fixing the order — hence the ordinal ids and hash salts — of
    bin combinations.  Not ``repr(combo)``: a frozenset prints its members
    in hash order, which changes with ``PYTHONHASHSEED``."""
    return sorted(combo.variables), repr(combo.exponents)


def build_cprime(
    query: ConjunctiveQuery,
    stats: StatisticsProvider,
    p: int,
    bits: Mapping[str, float],
    nbc: float = 1.0,
) -> tuple[dict[BinCombination, frozenset[Assg]], dict[BinCombination, BinLP]]:
    """The inductive construction of ``C'(B)`` (Appendix D) plus per-``B``
    LP solutions, processed level by level on ``|x|``."""
    combos: dict[BinCombination, set[Assg]] = {BinCombination.empty(): {()}}
    lps: dict[BinCombination, BinLP] = {}

    for level in range(query.num_variables + 1):
        current = [
            combo for combo in list(combos) if len(combo.variables) == level
        ]
        for combo in sorted(current, key=_combination_order):
            members = combos[combo]
            alpha = (
                Fraction(0)
                if len(members) <= 1 or p < 2
                else min(
                    Fraction(1),
                    log_base_fraction(float(len(members)), float(p)),
                )
            )
            lp = solve_bin_lp(query, combo, alpha, bits, p)
            lps[combo] = lp
            _generate_extensions(
                query, stats, p, nbc, combo, members, lp, combos
            )
    return (
        {combo: frozenset(members) for combo, members in combos.items()},
        lps,
    )


def _generate_extensions(
    query: ConjunctiveQuery,
    stats: StatisticsProvider,
    p: int,
    nbc: float,
    combo: BinCombination,
    members: set[Assg],
    lp: BinLP,
    combos: dict[BinCombination, set[Assg]],
) -> None:
    """Push overweight extensions of ``C'(combo)`` into finer combinations."""
    for atom in query.atoms:
        m_j = stats.simple.cardinality(atom.name)
        if m_j == 0:
            continue
        atom_vars = canonical_subset(atom.variables)
        xj_prime = combo.atom_subset(query, atom.name)
        beta_prime = combo.beta(atom.name)
        for xj in _proper_supersets(atom_vars, xj_prime):
            heavy = stats.heavy_hitters(atom.name, xj)
            if not heavy:
                continue
            new_vars = [v for v in xj if v not in set(xj_prime)]
            exponent = float(beta_prime) + sum(
                float(lp.exponents[v]) for v in new_vars
            )
            threshold = nbc * m_j / (float(p) ** exponent)
            for h_prime in members:
                h_dict = dict(h_prime)
                for hj, freq in heavy.items():
                    if freq <= threshold:
                        continue
                    values = dict(zip(xj, hj))
                    # hj must agree with h' on the previously bound subset.
                    if any(
                        var in h_dict and h_dict[var] != value
                        for var, value in values.items()
                    ):
                        continue
                    merged = dict(h_dict)
                    merged.update(values)
                    target = combination_for_assignment(query, stats, merged)
                    combos.setdefault(target, set()).add(
                        tuple(sorted(merged.items()))
                    )


@dataclass
class _CombinationPlan:
    """Everything needed to route tuples for one bin combination."""

    combo: BinCombination
    lp: BinLP
    assignments: tuple[Assg, ...]
    inner: HyperCubePlan
    kept_positions: Mapping[str, tuple[int, ...]]
    # Per atom with x_j nonempty: projection positions and the index from
    # projected values to assignment slots.
    heavy_index: Mapping[str, Mapping[Tuple, tuple[int, ...]]]
    heavy_positions: Mapping[str, tuple[int, ...]]
    # Overweight filter: per atom, (projection positions, the projected
    # values that are overweight for this combination) — a tuple carrying
    # one belongs to a finer combination.  Rows with no overweight value
    # are dropped at build time.
    overweight: Mapping[str, tuple[tuple[tuple[int, ...], frozenset[Tuple]], ...]]
    p: int

    def __post_init__(self) -> None:
        self.blocks = tuple(
            self._block(slot) for slot in range(len(self.assignments))
        )

    def _block(self, slot: int) -> tuple[int, int]:
        """(start, size) of the server block of assignment ``slot``."""
        count = len(self.assignments)
        if count <= self.p:
            start = slot * self.p // count
            end = (slot + 1) * self.p // count
            return start, max(1, end - start)
        return slot % self.p, 1

    def _place(
        self, slots: Iterable[int], inner: Sequence[int]
    ) -> tuple[int, ...]:
        """Inner-grid destinations placed into the blocks of ``slots``."""
        blocks = self.blocks
        return tuple(dict.fromkeys(
            start + d
            for start, size in (blocks[slot] for slot in slots)
            for d in inner
            if d < size
        ))

    def destinations_for(self, relation_name: str, tup: Tuple) -> Iterable[int]:
        for positions, overweight in self.overweight.get(relation_name, ()):
            if tuple(tup[i] for i in positions) in overweight:
                return ()
        positions = self.heavy_positions.get(relation_name)
        if positions is not None:
            projected = tuple(tup[i] for i in positions)
            slots = self.heavy_index[relation_name].get(projected, ())
        else:
            slots = range(len(self.assignments))
        if not slots:
            return ()
        residual_tuple = tuple(
            tup[i] for i in self.kept_positions[relation_name]
        )
        return self._place(
            slots, tuple(self.inner.destinations(relation_name, residual_tuple))
        )

    def claim(self, relation_name: str, batch: Batch) -> Claim | None:
        """Column-at-a-time :meth:`destinations_for` over a whole batch.

        Overweight filters and the heavy-slot lookup are
        :meth:`Batch.codes` over the projected columns; the surviving
        tuples' residuals are one inner HyperCube claim, and block
        placement is computed once per distinct routing key — heavy
        assignment times the inner grid's size plus inner base, at most
        ``p`` inner bases per heavy assignment — not per tuple.  Returns
        None when the combination owns no tuple of the batch.
        """
        indices = np.arange(len(batch))
        owned = batch
        for positions, overweight in self.overweight.get(relation_name, ()):
            keep = owned.codes(positions, list(overweight)) < 0
            indices, owned = indices[keep], owned.take(keep)
        which = None
        positions = self.heavy_positions.get(relation_name)
        if positions is not None:
            index = self.heavy_index[relation_name]
            which = owned.codes(positions, list(index))
            keep = which >= 0
            indices, owned, which = indices[keep], owned.take(keep), which[keep]
        if not len(owned):
            return None

        if self.combo.variables:  # the empty combination removes nothing
            owned = owned.project(self.kept_positions[relation_name])
        # A HyperCube claim is one, over its whole batch in batch order.
        [(_, bases, inner_table)] = self.inner.claims(relation_name, owned)
        if which is None:
            every_slot = range(len(self.assignments))
            table = {
                base: self._place(every_slot, dests)
                for base, dests in inner_table.items()
            }
            return indices, bases, table
        width = shares_product(self.inner.shares)
        slots = list(index.values())
        keys = which * width + bases
        table = {
            key: self._place(slots[key // width], inner_table[key % width])
            for key in np.flatnonzero(np.bincount(keys)).tolist()
        }
        return indices, keys, table


class BinHyperCubePlan(RoutingPlan):
    def __init__(
        self,
        query: ConjunctiveQuery,
        stats: StatisticsProvider,
        p: int,
        hashes: HashFamily,
        nbc: float = 1.0,
    ) -> None:
        self.query = query
        self.stats = stats
        self.p = p
        self._nbc = nbc
        bits = {
            atom.name: stats.simple.bits(atom.name) for atom in query.atoms
        }
        combos, lps = build_cprime(query, stats, p, bits, nbc=nbc)
        self.combo_plans: list[_CombinationPlan] = []
        for combo_id, (combo, members) in enumerate(sorted(
            combos.items(), key=lambda item: _combination_order(item[0])
        )):
            if not members:
                continue
            plan = self._build_combination_plan(
                combo_id, combo, members, lps[combo], bits, hashes
            )
            self.combo_plans.append(plan)

    def _build_combination_plan(
        self,
        combo_id: int,
        combo: BinCombination,
        members: frozenset[Assg],
        lp: BinLP,
        bits: Mapping[str, float],
        hashes: HashFamily,
    ) -> _CombinationPlan:
        assignments = tuple(sorted(members))
        count = len(assignments)
        min_block = max(1, self.p // count) if count <= self.p else 1

        residual = residual_query(self.query, combo.variables)
        residual_bits = {
            atom.name: max(
                1.0, bits[atom.name] / float(self.p) ** float(combo.beta(atom.name))
            )
            for atom in self.query.atoms
        }
        shares = integer_shares(
            residual.query,
            lp.exponents,
            min_block,
            strategy="greedy",
            bits=residual_bits,
        )
        inner = HyperCubePlan(
            residual.query,
            shares,
            hashes,
            salt_prefix=f"bin{combo_id}",
        )

        kept_positions = {
            atom.name: residual.kept_positions(atom.name)
            for atom in self.query.atoms
        }

        heavy_index: dict[str, dict[Tuple, tuple[int, ...]]] = {}
        heavy_positions: dict[str, tuple[int, ...]] = {}
        for atom in self.query.atoms:
            xj = combo.atom_subset(self.query, atom.name)
            if not xj:
                continue
            heavy_positions[atom.name] = tuple(
                atom.positions_of(var)[0] for var in xj
            )
            index: dict[Tuple, list[int]] = {}
            for slot, assignment in enumerate(assignments):
                h_dict = dict(assignment)
                projected = tuple(h_dict[var] for var in xj)
                index.setdefault(projected, []).append(slot)
            heavy_index[atom.name] = {
                key: tuple(slots) for key, slots in index.items()
            }

        overweight: dict[
            str, tuple[tuple[tuple[int, ...], frozenset[Tuple]], ...]
        ] = {}
        for atom in self.query.atoms:
            m_j = self.stats.simple.cardinality(atom.name)
            if m_j == 0:
                continue
            xj = combo.atom_subset(self.query, atom.name)
            beta = combo.beta(atom.name)
            rows = []
            for superset in _proper_supersets(
                canonical_subset(atom.variables), xj
            ):
                new_vars = [v for v in superset if v not in set(xj)]
                exponent = float(beta) + sum(
                    float(lp.exponents[v]) for v in new_vars
                )
                threshold = self._nbc * m_j / (float(self.p) ** exponent)
                # ``stats.frequency`` is ``heavy_hitters(...).get`` for
                # every provider, so the overweight values are exactly the
                # recorded hitters above the threshold.
                heavy = self.stats.heavy_hitters(atom.name, superset)
                values = frozenset(
                    h for h, freq in heavy.items() if freq > threshold
                )
                if values:
                    positions = tuple(
                        atom.positions_of(var)[0] for var in superset
                    )
                    rows.append((positions, values))
            overweight[atom.name] = tuple(rows)

        return _CombinationPlan(
            combo=combo,
            lp=lp,
            assignments=assignments,
            inner=inner,
            kept_positions=kept_positions,
            heavy_index=heavy_index,
            heavy_positions=heavy_positions,
            overweight=overweight,
            p=self.p,
        )

    def destinations(self, relation_name: str, tup: Tuple) -> Iterable[int]:
        out: set[int] = set()
        for plan in self.combo_plans:
            out.update(plan.destinations_for(relation_name, tup))
        return out

    def claims(self, relation_name: str, batch: Batch) -> list[Claim]:
        """One claim per bin combination that owns a tuple of the batch
        (:meth:`_CombinationPlan.claim`); a tuple several combinations own
        gets the union of their destinations, like the scalar path."""
        claims = (plan.claim(relation_name, batch) for plan in self.combo_plans)
        return [claim for claim in claims if claim is not None]

    def theoretical_load_bits(self) -> float:
        """``max_B p^(lambda(B))`` — the Theorem 4.6 target (sans polylog)."""
        return max(plan.lp.load_bits(self.p) for plan in self.combo_plans)

    def describe(self) -> Mapping[str, object]:
        return {
            "bin_combinations": len(self.combo_plans),
            "assignments": sum(len(c.assignments) for c in self.combo_plans),
            "theoretical_load_bits": self.theoretical_load_bits(),
        }

    def explain(self) -> str:
        """A human-readable summary: one line per bin combination."""
        lines = [
            f"bin-hypercube over p={self.p} "
            f"({len(self.combo_plans)} bin combinations)"
        ]
        for plan in self.combo_plans:
            shares = plan.inner.shares
            lines.append(
                f"  {plan.combo.describe()}: {len(plan.assignments)} "
                f"assignment(s), residual shares {shares}, "
                f"p^lambda = {plan.lp.load_bits(self.p):,.0f} bits"
            )
        lines.append(
            f"  predicted load max_B p^lambda(B) = "
            f"{self.theoretical_load_bits():,.0f} bits"
        )
        return "\n".join(lines)


class BinHyperCubeAlgorithm(OneRoundAlgorithm):
    """Theorem 4.6's algorithm: per-bin-combination HyperCube."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        stats: StatisticsProvider | None = None,
        nbc: float = 1.0,
    ) -> None:
        super().__init__(query, name="bin-hypercube")
        self._stats = stats
        self.nbc = nbc

    def predicted_load_bits(self, stats: object, p: int) -> float:
        """Theorem 4.6's target: per-combination loads add (all
        combinations share the same ``p`` physical servers).

        The empty combination *is* HyperCube with LP-optimal integer
        shares, so it is costed by that algorithm's own skew-free
        expectation (heavy values it would collapse on are owned by finer
        combinations instead).  With heavy-hitter statistics the real
        ``C'(B)`` construction runs and each populated non-empty
        combination contributes its LP target ``p^lambda(B)``; with simple
        statistics only the empty combination exists.
        """
        from .hypercube import HyperCubeAlgorithm

        simple = self._simple_stats(stats)
        bits = simple.bits_vector(self.query)
        if p < 2 or all(value <= 0 for value in bits.values()):
            return sum(bits.values())
        base = HyperCubeAlgorithm.with_optimal_shares(
            self.query, simple, p
        ).predicted_load_bits(simple, p)
        hh = self._heavy_stats(stats, p) or self._heavy_stats(self._stats, p)
        if hh is None:
            return base
        combos, lps = build_cprime(self.query, hh, p, bits, nbc=self.nbc)
        # Summed in the combinations' fixed order: ``combos`` is built in
        # heavy-hitter order, which follows the relations' row order.
        return base + sum(
            lps[combo].load_bits(p)
            for combo in sorted(combos, key=_combination_order)
            if combos[combo] and combo.variables
        )

    def routing_plan(
        self, db: Database, p: int, hashes: HashFamily
    ) -> BinHyperCubePlan:
        stats = self._stats
        if stats is None or stats.p != p:
            stats = HeavyHitterStatistics.of(self.query, db, p)
        return BinHyperCubePlan(self.query, stats, p, hashes, nbc=self.nbc)
