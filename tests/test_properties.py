"""Property-based tests (hypothesis) for the core invariants.

These are the paper's structural claims checked on *random* queries,
statistics, and databases rather than hand-picked examples:

* packing polytope vertices are feasible; pk(q) is non-dominated;
* strong duality: share-LP optimum == dual optimum == max over pk(q)
  (Theorem 3.6), and tau* equals the fractional vertex-cover number;
* HyperCube is complete for *any* share vector on *any* database;
* Friedgut's inequality holds for random nonnegative weights;
* Theorem 4.7 over the heavy hitters alone stays below the full bound;
* the bin algorithm is complete on random skewed instances;
* simplex agrees with scipy.optimize.linprog on random LPs.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import (
    BinHyperCubeAlgorithm,
    HyperCubeAlgorithm,
    dual_share_solution,
    fractional_vertex_cover_number,
    friedgut_gap,
    is_edge_packing,
    lower_bound,
    maximum_packing_value,
    non_dominated_packing_vertices,
    optimal_share_exponents,
    packing_value,
    packing_vertices,
    residual_lower_bound,
    saturating_packing_vertices,
)
from repro.lp import maximize as exact_maximize
from repro.query import Atom, ConjunctiveQuery, parse_query, residual_query
from repro.rounds import run_rounds
from repro.seq import Database, Relation
from repro.stats import HeavyHitterStatistics


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
@st.composite
def queries(draw, max_variables=4, max_atoms=4, max_arity=3):
    """Random full self-join-free conjunctive queries."""
    k = draw(st.integers(2, max_variables))
    variables = [f"v{i}" for i in range(k)]
    num_atoms = draw(st.integers(1, max_atoms))
    atoms = []
    for j in range(num_atoms):
        arity = draw(st.integers(1, max_arity))
        chosen = draw(
            st.lists(
                st.sampled_from(variables), min_size=arity, max_size=arity
            )
        )
        atoms.append(Atom(f"S{j}", tuple(chosen)))
    return ConjunctiveQuery(atoms, name="rand")


@st.composite
def query_with_bits(draw):
    q = draw(queries())
    exponents = {
        atom.name: draw(st.integers(8, 24)) for atom in q.atoms
    }
    bits = {name: float(2**e) for name, e in exponents.items()}
    # The paper's standing assumption is m_j >= p (mu_j >= 1): with M_j < p
    # the LP clamps lambda >= 0 (one-bit loads) while L(u,M,p) dips below a
    # bit, and Theorem 3.6's equality degenerates.  Stay inside the model.
    p = 2 ** draw(st.integers(2, min(8, min(exponents.values()))))
    return q, bits, p


@st.composite
def small_databases(draw, query, max_m=60, domain=40):
    relations = []
    for atom in query.atoms:
        m = draw(st.integers(0, max_m))
        tuples = draw(
            st.lists(
                st.tuples(
                    *[st.integers(0, domain - 1) for _ in range(atom.arity)]
                ),
                min_size=0,
                max_size=m,
            )
        )
        relations.append(
            Relation(
                name=atom.name,
                arity=atom.arity,
                tuples=frozenset(tuples),
                domain_size=domain,
            )
        )
    return Database.from_relations(relations)


# ---------------------------------------------------------------------------
# packing polytope invariants
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(queries())
def test_packing_vertices_feasible(q):
    for vertex in packing_vertices(q):
        assert is_edge_packing(q, vertex)


@settings(max_examples=40, deadline=None)
@given(queries())
def test_pk_non_dominated(q):
    vertices = non_dominated_packing_vertices(q)
    for a in vertices:
        for b in vertices:
            if a is b:
                continue
            dominated = all(
                b[name] >= a[name] for name in a
            ) and a != b
            assert not dominated


@settings(max_examples=40, deadline=None)
@given(queries())
def test_tau_star_duality(q):
    assert maximum_packing_value(q) == fractional_vertex_cover_number(q)


@settings(max_examples=40, deadline=None)
@given(queries())
def test_tau_star_attained_on_vertices(q):
    tau = maximum_packing_value(q)
    best = max(
        (packing_value(v) for v in non_dominated_packing_vertices(q)),
        default=Fraction(0),
    )
    assert best == tau


# ---------------------------------------------------------------------------
# Theorem 3.6: L_lower == L_upper == dual
# ---------------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(query_with_bits())
def test_theorem_3_6_equality(case):
    q, bits, p = case
    lower = lower_bound(q, bits, p).bits
    primal = optimal_share_exponents(q, bits, p)
    dual = dual_share_solution(q, bits, p)
    assert math.isclose(lower, primal.load_bits, rel_tol=1e-5)
    assert abs(float(primal.lam - dual.objective)) < 1e-7


@settings(max_examples=30, deadline=None)
@given(query_with_bits())
def test_share_exponents_feasible(case):
    q, bits, p = case
    solution = optimal_share_exponents(q, bits, p)
    assert sum(solution.exponents.values()) <= 1
    assert all(e >= 0 for e in solution.exponents.values())
    assert solution.lam >= 0


# ---------------------------------------------------------------------------
# residual saturation
# ---------------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(queries(), st.data())
def test_saturating_vertices_saturate(q, data):
    subset = data.draw(
        st.sets(st.sampled_from(list(q.variables)), min_size=1)
    )
    residual = residual_query(q, subset)
    for vertex in saturating_packing_vertices(q, subset):
        assert residual.saturates(vertex)
        assert all(0 <= value <= 1 for value in vertex.values())


#: Random joins, triangles and paths: the shapes Eq. 12 is quoted on.
RESIDUAL_SHAPES = (
    "q(x,y,z) :- S1(x,z), S2(y,z)",
    "q(x,y,z) :- S1(x,y), S2(y,z), S3(z,x)",
    "q(x,y,z,w) :- S1(x,y), S2(y,z), S3(z,w)",
)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(RESIDUAL_SHAPES), st.sampled_from([2, 4, 8]), st.data())
def test_heavy_only_residual_bound_is_below_the_full_one(text, p, data):
    """Theorem 4.7 summed over the heavy hitters alone never exceeds the
    sum over every degree (``threshold_factor=0``), for every ``x``: the
    terms of Eq. 12 are nonnegative, so the heavy part is a lower bound."""
    q = parse_query(text)
    db = data.draw(small_databases(q, max_m=30, domain=6))  # dense: skew
    heavy = HeavyHitterStatistics.of(q, db, p)
    full = HeavyHitterStatistics.of(q, db, p, threshold_factor=0)
    for size in range(len(q.variables) + 1):
        for combo in itertools.combinations(q.variables, size):
            x = set(combo)
            partial = residual_lower_bound(q, heavy, x, p)
            whole = residual_lower_bound(q, full, x, p)
            assert (partial is None) == (whole is None), x
            if whole is not None:
                assert partial.bits <= whole.bits * (1 + 1e-12), x


# ---------------------------------------------------------------------------
# HyperCube completeness for arbitrary shares and data
# ---------------------------------------------------------------------------
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_hypercube_always_complete(data):
    q = data.draw(queries(max_variables=3, max_atoms=3, max_arity=2))
    db = data.draw(small_databases(q))
    shares = {
        var: data.draw(st.integers(1, 3), label=f"share_{var}")
        for var in q.variables
    }
    p = math.prod(shares.values())
    algo = HyperCubeAlgorithm(q, shares)
    result = run_rounds(algo, db, p, verify=True)
    assert result.is_complete


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_bin_hypercube_always_complete(data):
    q = data.draw(queries(max_variables=3, max_atoms=2, max_arity=2))
    db = data.draw(small_databases(q, max_m=40, domain=10))  # dense: skew
    p = data.draw(st.sampled_from([2, 4, 8]))
    result = run_rounds(BinHyperCubeAlgorithm(q), db, p, verify=True)
    assert result.is_complete


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_skew_join_always_complete(data):
    """Section 4.1's algorithm on random two-atom join shapes and data."""
    from repro.core import SkewAwareJoin

    # A join with a shared variable u plus random private variables.
    private_1 = data.draw(st.integers(1, 2))
    private_2 = data.draw(st.integers(1, 2))
    atoms = [
        Atom("S1", tuple(f"a{i}" for i in range(private_1)) + ("u",)),
        Atom("S2", tuple(f"b{i}" for i in range(private_2)) + ("u",)),
    ]
    q = ConjunctiveQuery(atoms, name="rand-join")
    db = data.draw(small_databases(q, max_m=50, domain=8))  # dense: skew
    p = data.draw(st.sampled_from([1, 3, 8]))
    result = run_rounds(SkewAwareJoin(q), db, p, verify=True)
    assert result.is_complete


# ---------------------------------------------------------------------------
# Friedgut inequality on random weights
# ---------------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_friedgut_inequality_random(data):
    q = data.draw(queries(max_variables=3, max_atoms=3, max_arity=2))
    weights = {}
    for atom in q.atoms:
        entries = data.draw(
            st.dictionaries(
                st.tuples(*[st.integers(0, 6) for _ in range(atom.arity)]),
                st.floats(0.0, 10.0, allow_nan=False),
                max_size=12,
            )
        )
        weights[atom.name] = entries
    # A valid cover always exists: weight 1 on every atom covers all
    # variables iff every variable occurs somewhere — true by construction.
    cover = {atom.name: 1 for atom in q.atoms}
    lhs, rhs = friedgut_gap(q, cover, weights)
    assert lhs <= rhs * (1 + 1e-6) + 1e-9


# ---------------------------------------------------------------------------
# simplex vs scipy
# ---------------------------------------------------------------------------
@st.composite
def small_lps(draw):
    """``(c, A, b)`` of ``maximize c.x  s.t.  A x <= b, x >= 0``."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    c = [draw(st.integers(-5, 5)) for _ in range(n)]
    a = [[draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(m)]
    b = [draw(st.integers(-3, 6)) for _ in range(m)]
    return c, a, b


@settings(max_examples=40, deadline=None)
@given(small_lps())
# The counterexample behind the old flake: feasible (x = 0) and unbounded
# along (t, t, 0), yet HiGHS' presolve reports it "infeasible".
@example(([2, 4, 2], [[1, -1, -1], [-4, 2, 4]], [4, 0]))
def test_simplex_matches_scipy(lp):
    scipy_optimize = pytest.importorskip("scipy.optimize")
    c, a, b = lp
    n, m = len(c), len(b)

    def linprog(objective, rhs, upper):
        return scipy_optimize.linprog(
            objective, A_ub=a, b_ub=rhs, bounds=[(0, upper)] * n,
            method="highs",
        )

    ours = exact_maximize(c, a, b)
    scipy_result = linprog([-x for x in c], b, None)
    if ours.is_optimal:
        assert scipy_result.status == 0
        assert math.isclose(
            float(ours.objective), -scipy_result.fun, rel_tol=1e-7, abs_tol=1e-7
        )
    elif ours.status == "infeasible":
        assert scipy_result.status == 2
    else:
        # HiGHS does not label unbounded problems reliably (see the pinned
        # example), so check the definition through two bounded LPs: a
        # feasible point exists, and so does an improving recession
        # direction  d >= 0,  A d <= 0,  c.d > 0.
        assert linprog([0] * n, b, None).status == 0
        ray = linprog([-x for x in c], [0] * m, 1)
        assert ray.status == 0 and -ray.fun > 1e-9
