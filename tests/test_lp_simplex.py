"""Unit tests for the exact rational simplex."""

from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LPError,
    maximize,
    minimize,
)
from repro.lp.simplex import LP_CACHE_SIZE, _solve


class TestMaximize:
    def test_textbook_lp(self):
        result = maximize([3, 5], [[1, 0], [0, 2], [3, 2]], [4, 12, 18])
        assert result.is_optimal
        assert result.objective == 36
        assert result.x == (Fraction(2), Fraction(6))

    def test_degenerate_ties_terminate(self):
        """Bland's rule must survive degeneracy."""
        result = maximize(
            [10, -57, -9, -24],
            [
                [Fraction(1, 2), Fraction(-11, 2), Fraction(-5, 2), 9],
                [Fraction(1, 2), Fraction(-3, 2), Fraction(-1, 2), 1],
                [1, 0, 0, 0],
            ],
            [0, 0, 1],
        )
        assert result.is_optimal
        assert result.objective == 1

    def test_unbounded(self):
        result = maximize([1, 1], [[1, -1]], [1])
        assert result.status == UNBOUNDED
        assert result.objective is None

    def test_infeasible(self):
        # x >= 5 and x <= 1
        result = maximize([1], [[-1], [1]], [-5, 1])
        assert result.status == INFEASIBLE

    def test_negative_rhs_feasible(self):
        # x >= 2, x <= 7, maximize -x  => x = 2
        result = maximize([-1], [[-1], [1]], [-2, 7])
        assert result.is_optimal
        assert result.x == (Fraction(2),)

    def test_equality_via_two_inequalities(self):
        # x + y = 4 encoded as <= and >=; maximize x with x <= 3.
        result = maximize(
            [1, 0], [[1, 1], [-1, -1], [1, 0]], [4, -4, 3]
        )
        assert result.is_optimal
        assert result.objective == 3
        assert result.x == (Fraction(3), Fraction(1))

    def test_zero_objective(self):
        result = maximize([0, 0], [[1, 1]], [5])
        assert result.is_optimal
        assert result.objective == 0

    def test_no_constraints_zero_is_optimal_for_negative_costs(self):
        result = maximize([-1, -2], [], [])
        assert result.is_optimal
        assert result.x == (Fraction(0), Fraction(0))

    def test_no_constraints_unbounded_for_positive_costs(self):
        result = maximize([1], [], [])
        assert result.status == UNBOUNDED

    def test_exactness_no_float_drift(self):
        """1/3-style coefficients stay exact."""
        third = Fraction(1, 3)
        result = maximize([1, 1], [[third, third]], [1])
        assert result.objective == 3

    def test_shape_validation(self):
        with pytest.raises(LPError):
            maximize([1], [[1, 2]], [1])
        with pytest.raises(LPError):
            maximize([1], [[1]], [1, 2])


class TestMinimize:
    def test_simple(self):
        # minimize x + y subject to x + y >= 3
        result = minimize([1, 1], [[-1, -1]], [-3])
        assert result.is_optimal
        assert result.objective == 3

    def test_vertex_cover_triangle(self):
        """tau* of the triangle: min sum v_i with v_i + v_j >= 1 per edge."""
        rows = [[-1, -1, 0], [0, -1, -1], [-1, 0, -1]]
        result = minimize([1, 1, 1], rows, [-1, -1, -1])
        assert result.is_optimal
        assert result.objective == Fraction(3, 2)

    def test_infeasible_propagates(self):
        result = minimize([1], [[1], [-1]], [1, -5])
        assert result.status == INFEASIBLE


class TestDegenerateArtificials:
    """Regression: an artificial left (degenerately) basic after phase 1
    must not re-inflate during phase 2 and mask a >= constraint."""

    def test_degenerate_artificial_cannot_reinflate(self):
        # maximize -x s.t. 2x <= 1 and x >= 1/2 (plus vacuous 0 <= 0 rows):
        # the unique feasible point is x = 1/2.  The buggy solver returned
        # x = 0 (objective 0), violating -4x <= -2.
        result = maximize([-1], [[0], [0], [0], [2], [-4]], [0, 0, 0, 1, -2])
        assert result.is_optimal
        assert result.x == (Fraction(1, 2),)
        assert result.objective == Fraction(-1, 2)

    def test_redundant_negated_row_dropped(self):
        # x >= 0 stated as -x <= 0 twice plus an equality-like pair; the
        # duplicate rows leave all-zero artificial rows behind.
        result = maximize([1], [[1], [1], [-1], [-1]], [2, 2, 0, 0])
        assert result.is_optimal
        assert result.objective == 2

    def test_tight_equality_pair(self):
        # x + y <= 3 and x + y >= 3 pin the sum; maximize x.
        result = maximize([1, 0], [[1, 1], [-1, -1]], [3, -3])
        assert result.is_optimal
        assert result.objective == 3
        assert sum(result.x) == 3


def _uncached(c, a, b):
    """The two-phase solver itself, behind the memo."""
    return _solve.__wrapped__(
        tuple(Fraction(v) for v in c),
        tuple(tuple(Fraction(v) for v in row) for row in a),
        tuple(Fraction(v) for v in b),
    )


# Dyadic floats and small fractions: ``to_fraction`` converts them exactly,
# so the reference sees the very LP ``maximize`` does.
_COEFFICIENTS = st.one_of(
    st.integers(-4, 4),
    st.sampled_from([-2.5, -0.5, 0.0, 0.25, 1.0, 1.5, 3.0]),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)


@st.composite
def _small_lps(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    vector = lambda size: draw(st.lists(_COEFFICIENTS, min_size=size, max_size=size))
    return vector(n), [vector(n) for _ in range(m)], vector(m)


class TestMemo:
    """``maximize`` solves a given LP once; the memo changes no answer."""

    # The derandomized profile draws 57 optimal, 102 infeasible and 41
    # unbounded LPs.
    @settings(max_examples=200, deadline=None)
    @given(_small_lps())
    def test_memo_equals_the_solver(self, lp):
        c, a, b = lp
        expected = _uncached(c, a, b)
        assert maximize(c, a, b) == expected
        assert maximize(c, a, b) == expected

    def test_equal_numbers_of_any_type_share_one_entry(self):
        maximize([1, 2], [[1, 1]], [1])
        before = maximize.cache_info()
        for one in (1, 1.0, True, Fraction(1)):
            assert maximize([one, 2], [[one, one]], [one]).objective == 2
        after = maximize.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 4

    def test_malformed_lp_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(LPError):
                maximize([1, 1], [[1]], [1])
            with pytest.raises(LPError):
                maximize([1], [[1]], [1, 2])
        # ... also when the well-formed prefix of it is already cached.
        maximize([1], [[1]], [1])
        with pytest.raises(LPError):
            maximize([1], [[1]], [1, 1])

    def test_threads_agree_and_the_memo_stays_bounded(self):
        lps = [([1, k], [[1, 1], [k, 1]], [k + 1, 7]) for k in range(20)]
        expected = [_uncached(*lp) for lp in lps]
        maximize.cache_clear()
        with ThreadPoolExecutor(8) as pool:
            answers = list(pool.map(
                lambda _: [maximize(*lp) for lp in lps], range(8)))
        assert all(answer == expected for answer in answers)
        for k in range(2 * LP_CACHE_SIZE):
            maximize([1], [[1]], [k])
        info = maximize.cache_info()
        assert info.maxsize == LP_CACHE_SIZE
        assert info.currsize <= LP_CACHE_SIZE
        assert info.misses >= 2 * LP_CACHE_SIZE
