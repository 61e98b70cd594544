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
   is produced by some ``B``).  That is *at least once*: ownership is not
   exclusive, so an answer may also be produced by other bin combinations
   whose blocks hold all its tuples, and the servers' local answers may
   repeat one (a verifying run counts the repeats as
   ``verify.duplicate_answers``; see :mod:`repro.rounds.executor`).

Routing is :class:`~repro.core.hypercube.HyperCubePlan`'s: each ``B`` is
one :class:`~repro.core.hypercube.Family` salted ``bin{number}`` (numbered
in sorted order), HyperCube on ``V - x`` keyed by the original columns,
one block per assignment of ``C'(B)``, and a filter per atom — the
assignments its values on ``x`` agree with, less the tuples carrying an
overweight value.  All bin combinations share the same ``p`` physical
servers; their loads add, which costs the ``polylog(p)`` factor of Theorem
4.6.  The theoretical load ``max_B p^(lambda(B))`` is the plan's
``describe()["theoretical_load_bits"]``; the prediction
(:func:`~repro.core.hypercube.layout_load_bits`) is what the blocks
expect, summed on the servers they share.

``Nbc`` is the paper's bin-combination count; we expose it as a knob
(default 1.0).  Smaller values make more hitters overweight — more dedicated
handling, better balance — while correctness holds for any value because the
overweight chains always terminate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

from ..lp.fraction_utils import log_base_fraction
from ..lp.simplex import LPError, maximize
from ..query.atoms import Atom, ConjunctiveQuery
from ..query.residual import residual_query
from ..seq.relation import Tuple
from ..stats.bins import BinCombination, combination_for_assignment
from ..stats.provider import StatisticsProvider, VarSubset, canonical_subset
from .hypercube import Block, Family, Filter, HeavyBlockAlgorithm, Layout
from .shares import integer_shares

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


def _overweight(
    query: ConjunctiveQuery,
    stats: StatisticsProvider,
    p: int,
    nbc: float,
    combo: BinCombination,
    lp: BinLP,
    atom: Atom,
) -> Iterator[tuple[VarSubset, list[Tuple]]]:
    """Per proper superset ``xj`` of the atom's variables that ``combo``
    binds, the atom's heavy hitters on ``xj`` overweight for ``combo``:
    more than ``nbc * m_j / p^(beta_j + sum of e_i over the new
    variables)`` tuples (``stats.frequency`` is ``heavy_hitters(...).get``
    for every provider, so these are recorded hitters)."""
    m_j = stats.simple.cardinality(atom.name)
    if m_j == 0:
        return
    xj_prime = combo.atom_subset(query, atom.name)
    for xj in _proper_supersets(canonical_subset(atom.variables), xj_prime):
        heavy = stats.heavy_hitters(atom.name, xj)
        if not heavy:
            continue
        exponent = float(combo.beta(atom.name)) + sum(
            float(lp.exponents[v]) for v in xj if v not in set(xj_prime)
        )
        threshold = nbc * m_j / (float(p) ** exponent)
        yield xj, [hj for hj, freq in heavy.items() if freq > threshold]


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
        for xj, overweight in _overweight(
            query, stats, p, nbc, combo, lp, atom
        ):
            for h_prime in members:
                h_dict = dict(h_prime)
                for hj in overweight:
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


class BinHyperCubeAlgorithm(HeavyBlockAlgorithm):
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

    def layout(self, stats: StatisticsProvider, p: int) -> Layout:
        """One family per populated bin combination, numbered in sorted
        order and salted ``bin{number}``, with a block per assignment."""
        bits = stats.simple.bits_vector(self.query)
        combos, lps = build_cprime(self.query, stats, p, bits, nbc=self.nbc)
        populated = [
            (combo_id, combo, sorted(members))
            for combo_id, (combo, members) in enumerate(sorted(
                combos.items(), key=lambda item: _combination_order(item[0])
            ))
            if members
        ]
        families = [
            self._family(combo_id, combo, members, lps[combo], bits, stats, p)
            for combo_id, combo, members in populated
        ]
        theoretical = max(lps[combo].load_bits(p) for _, combo, _ in populated)
        return Layout(
            tuple(families),
            summary={
                "bin_combinations": len(families),
                "assignments": sum(len(f.blocks) for f in families),
                "theoretical_load_bits": theoretical,
            },
            title=f"bin-hypercube over p={p} ({len(families)} bin combinations)",
            notes=(
                f"predicted load max_B p^lambda(B) = {theoretical:,.0f} bits",
            ),
        )

    def _family(
        self,
        combo_id: int,
        combo: BinCombination,
        assignments: list[Assg],
        lp: BinLP,
        bits: Mapping[str, float],
        stats: StatisticsProvider,
        p: int,
    ) -> Family:
        """Bin combination ``combo`` as a family: HyperCube on the residual
        query, its LP shares rounded into the smallest block, and a block
        per assignment — from server ``slot * p // count`` on, or at
        ``slot % p`` when there are more than ``p``.  An atom's tuple
        reaches the blocks of the assignments its values on ``x`` agree
        with, unless it carries a finer combination's overweight value."""
        query = self.query
        count = len(assignments)
        residual = residual_query(query, combo.variables)
        residual_bits = {
            atom.name: max(
                1.0, bits[atom.name] / float(p) ** float(combo.beta(atom.name))
            )
            for atom in query.atoms
        }
        shares = integer_shares(
            residual.query,
            lp.exponents,
            max(1, p // count) if count <= p else 1,
            strategy="greedy",
            bits=residual_bits,
        )
        label = (
            f"{combo.describe()}: {count} assignment(s), residual shares "
            f"{shares}, p^lambda = {lp.load_bits(p):,.0f} bits"
        )
        blocks = tuple(
            Block(label, tuple(shares.values()),
                  slot * p // count if count <= p else slot % p)
            for slot in range(count)
        )

        dims = tuple(shares)
        keys, filters = {}, {}
        for atom in query.atoms:
            column = {var: atom.positions_of(var)[0] for var in atom.variables}
            keys[atom.name] = {
                dim: (column[var],)
                for dim, var in enumerate(dims) if var in column
            }
            xj = combo.atom_subset(query, atom.name)
            slots: dict[Tuple, list[int]] = {}
            for slot, assignment in enumerate(map(dict, assignments)):
                slots.setdefault(tuple(assignment[v] for v in xj), []).append(slot)
            filters[atom.name] = Filter(
                positions=tuple(column[var] for var in xj),
                accepted={value: tuple(s) for value, s in slots.items()},
                excluded=tuple(
                    (tuple(column[var] for var in superset), frozenset(hitters))
                    for superset, hitters in _overweight(
                        query, stats, p, self.nbc, combo, lp, atom
                    )
                    if hitters
                ),
            )
        return Family(dims, keys, blocks, f"bin{combo_id}", filters)
