"""Deep checks of the residual-bound internals: Friedgut's left side — the
weighted join sum Eq. 12 shares, one fold over the weight tables — against
brute force, and the Section 4.2 duality between the bin LP (11) and the
residual bound of Theorem 4.7."""

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    friedgut_lhs,
    residual_load,
    residual_lower_bound,
    solve_bin_lp,
)
from repro.data import single_value_relation
from repro.query import Atom, ConjunctiveQuery, simple_join_query
from repro.seq import Database
from repro.stats import BinCombination, HeavyHitterStatistics


# ---------------------------------------------------------------------------
# the weighted join-sum vs brute force
# ---------------------------------------------------------------------------
def _brute_force_sum(factors, domain):
    """Enumerate all joint assignments over the given domain."""
    variables = sorted({v for vars_, _ in factors for v in vars_})
    total = 0.0
    for values in itertools.product(range(domain), repeat=len(variables)):
        binding = dict(zip(variables, values))
        product = 1.0
        for vars_, table in factors:
            key = tuple(binding[v] for v in vars_)
            product *= table.get(key, 0.0)
        total += product
    return total


def _lhs(factors):
    """Friedgut's left side with one atom per ``(variables, table)``."""
    query = ConjunctiveQuery(
        Atom(f"F{number}", vars_) for number, (vars_, _) in enumerate(factors))
    return friedgut_lhs(query, {
        f"F{number}": table for number, (_, table) in enumerate(factors)})


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_friedgut_lhs_matches_brute_force(data):
    """Three factors over three variables may close a cycle, (u, v),
    (v, w), (w, u): the sum then runs over the listed answers."""
    domain = 4
    num_factors = data.draw(st.integers(1, 3))
    all_vars = ["u", "v", "w"]
    factors = []
    for _ in range(num_factors):
        arity = data.draw(st.integers(1, 2))
        # Repeats allowed: a factor on (u, u) counts only keys (a, a).
        vars_ = tuple(
            data.draw(st.lists(st.sampled_from(all_vars),
                               min_size=arity, max_size=arity))
        )
        table = data.draw(
            st.dictionaries(
                st.tuples(*[st.integers(0, domain - 1)] * arity),
                st.floats(0.1, 5.0, allow_nan=False),
                min_size=0,
                max_size=8,
            )
        )
        factors.append((vars_, table))
    expected = _brute_force_sum(factors, domain)
    measured = _lhs(factors)
    assert math.isclose(measured, expected, rel_tol=1e-9, abs_tol=1e-9)


def test_friedgut_lhs_of_a_cycle_matches_brute_force():
    """The triangle, one factor with a repeated variable beside it: no
    join tree, so the weights are looked up along the listed answers."""
    domain = 5
    factors = [
        (vars_, {key: 1.0 + (7 * number + sum(key)) % 4
                 for key in itertools.product(range(domain), repeat=2)
                 if (3 * key[0] + key[1] + number) % 3})
        for number, vars_ in enumerate(
            [("u", "v"), ("v", "w"), ("w", "u"), ("u", "u")])
    ]
    assert math.isclose(_lhs(factors), _brute_force_sum(factors, domain),
                        rel_tol=1e-12)


def test_friedgut_lhs_of_disjoint_variables_multiplies():
    factors = [
        (("u",), {(0,): 2.0, (1,): 3.0}),
        (("v",), {(0,): 5.0}),
    ]
    assert math.isclose(_lhs(factors), (2 + 3) * 5)


# ---------------------------------------------------------------------------
# Section 4.2 duality: p^lambda(B) vs the Theorem 4.7 bound
# ---------------------------------------------------------------------------
class TestBinLPDuality:
    def test_single_heavy_value_join(self):
        """For the all-on-one-value join, the bin combination that owns the
        heavy value has p^lambda(B) equal (up to rounding) to the residual
        bound sqrt(M1 M2 / p) — the duality the end of Section 4.2 invokes."""
        q = simple_join_query()
        m = 128
        db = Database.from_relations(
            [
                single_value_relation("S1", m, 512, seed=1),
                single_value_relation("S2", m, 512, seed=2),
            ]
        )
        p = 16
        bits = {name: db.relation(name).bits for name in ("S1", "S2")}

        # The bin combination owning z=0: both relations in bin 1 (beta=0),
        # a single assignment (alpha = 0).
        combo = BinCombination.build(
            {"z"}, {"S1": Fraction(0), "S2": Fraction(0)}
        )
        lp = solve_bin_lp(q, combo, Fraction(0), bits, p)
        lp_load = float(p) ** float(lp.lam)

        stats = HeavyHitterStatistics.of(q, db, p, threshold_factor=0)
        bound = residual_lower_bound(q, stats, {"z"}, p)
        assert bound is not None
        # p^lambda(B) ~ sqrt(M1 M2 / p): equality up to LP rational rounding.
        assert math.isclose(lp_load, bound.bits, rel_tol=1e-3)

    def test_lp_never_below_residual_bound(self):
        """The residual bound is a *lower* bound; the per-combination LP
        load (the algorithm's budget for those tuples) cannot beat it."""
        q = simple_join_query()
        db = Database.from_relations(
            [
                single_value_relation("S1", 200, 512, seed=3),
                single_value_relation("S2", 50, 512, seed=4),
            ]
        )
        p = 8
        bits = {name: db.relation(name).bits for name in ("S1", "S2")}
        combo = BinCombination.build(
            {"z"}, {"S1": Fraction(0), "S2": Fraction(0)}
        )
        lp = solve_bin_lp(q, combo, Fraction(0), bits, p)
        stats = HeavyHitterStatistics.of(q, db, p, threshold_factor=0)
        bound = residual_lower_bound(q, stats, {"z"}, p)
        assert float(p) ** float(lp.lam) >= bound.bits * 0.99

    def test_residual_load_uses_saturating_packing(self):
        """The witness packing of the single-value join is (1, 1): the
        cartesian-product bound, exactly Section 4.1's L12 term."""
        q = simple_join_query()
        db = Database.from_relations(
            [
                single_value_relation("S1", 64, 256, seed=5),
                single_value_relation("S2", 64, 256, seed=6),
            ]
        )
        stats = HeavyHitterStatistics.of(q, db, 16, threshold_factor=0)
        bound = residual_lower_bound(q, stats, {"z"}, 16)
        assert bound.packing == {"S1": Fraction(1), "S2": Fraction(1)}
        direct = residual_load(q, stats, {"z"}, bound.packing, 16)
        assert math.isclose(direct, bound.bits, rel_tol=1e-12)
