"""Tests for the Afrati-Ullman total-load share optimizer, the extension
that E1's ablation compares LP (5) against."""

from repro.core import afrati_ullman_share_exponents, optimal_share_exponents
from repro.query import chain_query, simple_join_query, star_query, triangle_query


class TestAfratiUllmanShares:
    CASES = [
        (triangle_query(), {"S1": 2.0**20, "S2": 2.0**20, "S3": 2.0**20}),
        (triangle_query(), {"S1": 2.0**22, "S2": 2.0**18, "S3": 2.0**16}),
        (simple_join_query(), {"S1": 2.0**20, "S2": 2.0**20}),
        (chain_query(3), {"S1": 2.0**18, "S2": 2.0**18, "S3": 2.0**18}),
        (star_query(3), {"S1": 2.0**18, "S2": 2.0**18, "S3": 2.0**18}),
        # E1's ablation: the lopsided join, where the objectives disagree.
        (simple_join_query(), {"S1": 2.0**22, "S2": 2.0**14}),
    ]

    def _total_load(self, query, bits, exponents, p):
        total = 0.0
        for atom in query.atoms:
            denom = p ** float(
                sum(exponents[v] for v in atom.variable_set)
            )
            total += bits[atom.name] / denom
        return total

    def test_exponents_live_on_the_simplex(self):
        for query, bits in self.CASES:
            solution = afrati_ullman_share_exponents(query, bits, 64)
            assert all(e >= 0 for e in solution.exponents.values())
            assert float(sum(solution.exponents.values())) <= 1 + 1e-6

    def test_equal_triangle_matches_lp(self):
        """Both objectives agree on the symmetric triangle: e_i = 1/3."""
        query, bits = self.CASES[0]
        au = afrati_ullman_share_exponents(query, bits, 64)
        for value in au.exponents.values():
            assert abs(float(value) - 1 / 3) < 0.02

    def test_max_load_never_beats_lp(self):
        """LP (5) minimizes the max load; [2] minimizes the total — so the
        LP's max-load objective is at least as good."""
        p = 64
        for query, bits in self.CASES:
            au = afrati_ullman_share_exponents(query, bits, p)
            lp = optimal_share_exponents(query, bits, p)
            assert float(au.lam) >= float(lp.lam) - 1e-6

    def test_total_load_never_beats_au(self):
        """Symmetrically, [2]'s total-load objective beats (or ties) LP (5)'s
        solution on the total-communication metric."""
        p = 64
        for query, bits in self.CASES:
            au = afrati_ullman_share_exponents(query, bits, p)
            lp = optimal_share_exponents(query, bits, p)
            au_total = self._total_load(query, bits, au.exponents, p)
            lp_total = self._total_load(query, bits, lp.exponents, p)
            assert au_total <= lp_total * 1.05

    def test_objectives_can_disagree(self):
        """A case where minimizing total and minimizing max differ: the
        lopsided join spreads shares under [2]."""
        query, bits = self.CASES[-1]
        au = afrati_ullman_share_exponents(query, bits, 64)
        # AU gives x (S1's private variable) a real share to shrink the
        # dominant S1 term of the *sum*.
        assert float(au.exponents["x"]) > 0.05
