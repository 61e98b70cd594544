"""Unit tests for exact vertex enumeration and domination filtering."""

from fractions import Fraction

from repro.lp import (
    HalfSpace,
    enumerate_vertices,
    is_dominated,
    non_dominated,
    nonnegativity_constraints,
    matrix_rank,
    solve_square_system,
)


def F(a, b=1):
    return Fraction(a, b)


class TestLinalg:
    def test_solve_square_system(self):
        solution = solve_square_system(
            [[F(2), F(1)], [F(1), F(3)]], [F(5), F(10)]
        )
        assert solution == [F(1), F(3)]

    def test_singular_returns_none(self):
        assert solve_square_system([[F(1), F(2)], [F(2), F(4)]], [F(1), F(2)]) is None

    def test_rank(self):
        assert matrix_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
        assert matrix_rank([[F(1), F(0)], [F(0), F(1)]]) == 2
        assert matrix_rank([]) == 0


class TestEnumerateVertices:
    def test_unit_square(self):
        constraints = [
            HalfSpace.build([1, 0], 1),
            HalfSpace.build([0, 1], 1),
        ] + nonnegativity_constraints(2)
        vertices = enumerate_vertices(constraints, 2)
        assert set(vertices) == {
            (F(0), F(0)),
            (F(0), F(1)),
            (F(1), F(0)),
            (F(1), F(1)),
        }

    def test_simplex(self):
        constraints = [HalfSpace.build([1, 1, 1], 1)] + nonnegativity_constraints(3)
        vertices = enumerate_vertices(constraints, 3)
        assert len(vertices) == 4  # origin plus three unit points

    def test_triangle_packing_polytope(self):
        """The C3 packing polytope has the 5 vertices of Example 3.7 plus 0."""
        constraints = [
            HalfSpace.build([1, 1, 0], 1),
            HalfSpace.build([0, 1, 1], 1),
            HalfSpace.build([1, 0, 1], 1),
        ] + nonnegativity_constraints(3)
        vertices = enumerate_vertices(constraints, 3)
        assert (F(1, 2), F(1, 2), F(1, 2)) in vertices
        assert len(vertices) == 5

    def test_zero_dimension(self):
        assert enumerate_vertices([], 0) == [()]

    def test_infeasible_region_has_no_vertices(self):
        constraints = [
            HalfSpace.build([1], 0),
            HalfSpace.build([-1], -1),  # x >= 1 and x <= 0
        ]
        assert enumerate_vertices(constraints, 1) == []

    def test_halfspace_satisfaction(self):
        h = HalfSpace.build([2, -1], 3)
        assert h.satisfied_by([F(1), F(0)])
        assert not h.satisfied_by([F(2), F(0)])


class TestDomination:
    def test_is_dominated(self):
        assert is_dominated((F(0), F(1)), (F(1), F(1)))
        assert not is_dominated((F(1), F(0)), (F(0), F(1)))
        assert not is_dominated((F(1), F(1)), (F(1), F(1)))  # equal: not strict

    def test_non_dominated_filters_origin(self):
        points = [
            (F(0), F(0)),
            (F(1), F(0)),
            (F(0), F(1)),
            (F(1, 2), F(1, 2)),
        ]
        survivors = non_dominated(points)
        assert (F(0), F(0)) not in survivors
        assert len(survivors) == 3

    def test_non_dominated_triangle_matches_pk(self):
        """pk(C3) = 4 vertices (Example 3.7)."""
        constraints = [
            HalfSpace.build([1, 1, 0], 1),
            HalfSpace.build([0, 1, 1], 1),
            HalfSpace.build([1, 0, 1], 1),
        ] + nonnegativity_constraints(3)
        vertices = non_dominated(enumerate_vertices(constraints, 3))
        assert set(vertices) == {
            (F(1, 2), F(1, 2), F(1, 2)),
            (F(1), F(0), F(0)),
            (F(0), F(1), F(0)),
            (F(0), F(0), F(1)),
        }

    def test_a_returned_list_is_the_callers_own(self):
        """Vertices are enumerated once per polytope; mutating one answer
        does not change the next."""
        constraints = [HalfSpace.build([1, 1], 1)] + nonnegativity_constraints(2)
        first = enumerate_vertices(constraints, 2)
        expected = list(first)
        before = enumerate_vertices.cache_info()
        first.clear()
        first.append("junk")
        assert enumerate_vertices(constraints, 2) == expected
        assert enumerate_vertices(iter(constraints), 2) == expected
        after = enumerate_vertices.cache_info()
        assert (after.hits, after.misses) == (before.hits + 2, before.misses)
