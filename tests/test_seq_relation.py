"""Unit tests for Relation and Database containers."""

import dataclasses
import math
import pickle
import tracemalloc
from collections import Counter
from collections.abc import Set as AbstractSet

import numpy as np
import pytest

from repro.api import WorkloadSpec
from repro.query import parse_query
from repro.seq import (
    Database,
    Relation,
    RelationError,
    bits_per_value,
    local_join,
)
from repro.seq.relation import (
    Batch, TupleView, _distinct_rows_sorted, distinct_rows, distinct_values,
    sorted_lookup,
)


class TestBitsPerValue:
    def test_log2(self):
        assert bits_per_value(1024) == 10.0

    def test_degenerate_domain_clamped_to_one_bit(self):
        assert bits_per_value(1) == 1.0
        assert bits_per_value(2) == 1.0

    def test_rejects_empty_domain(self):
        with pytest.raises(RelationError):
            bits_per_value(0)


class TestRelation:
    def test_build_infers_arity_and_domain(self):
        r = Relation.build("S", [(0, 5), (1, 2)])
        assert r.arity == 2
        assert r.domain_size == 6
        assert r.cardinality == 2

    def test_build_deduplicates(self):
        r = Relation.build("S", [(0, 1), (0, 1), (1, 1)])
        assert r.cardinality == 2

    def test_empty_needs_explicit_arity(self):
        with pytest.raises(RelationError):
            Relation.build("S", [])
        r = Relation.build("S", [], arity=2, domain_size=10)
        assert r.cardinality == 0

    def test_rejects_out_of_domain(self):
        with pytest.raises(RelationError):
            Relation("S", 1, frozenset({(5,)}), domain_size=3)

    def test_rejects_wrong_arity_tuple(self):
        with pytest.raises(RelationError):
            Relation("S", 2, frozenset({(1,)}), domain_size=3)

    def test_bits_formula(self):
        """M_j = a_j * m_j * log2(n) (Section 3)."""
        r = Relation.build("S", [(0, 1), (2, 3)], domain_size=16)
        assert r.tuple_bits == 2 * 4.0
        assert r.bits == 2 * 2 * 4.0

    def test_project(self):
        r = Relation.build("S", [(0, 1), (2, 1), (2, 3)], domain_size=4)
        proj = r.project([1])
        assert proj.tuples == frozenset({(1,), (3,)})
        with pytest.raises(RelationError):
            r.project([5])

    def test_select(self):
        r = Relation.build("S", [(0, 1), (2, 1), (2, 3)], domain_size=4)
        sel = r.select({1: 1})
        assert sel.tuples == frozenset({(0, 1), (2, 1)})
        with pytest.raises(RelationError):
            r.select({9: 0})

    def test_frequencies_are_degrees(self):
        r = Relation.build("S", [(0, 1), (2, 1), (3, 1), (3, 0)], domain_size=4)
        freq = r.frequencies([1])
        assert freq[(1,)] == 3
        assert freq[(0,)] == 1
        pair_freq = r.frequencies([0, 1])
        assert pair_freq[(3, 1)] == 1

    def test_rename_and_with_domain(self):
        r = Relation.build("S", [(0, 1)], domain_size=4)
        assert r.rename("T").name == "T"
        assert r.with_domain(100).domain_size == 100
        with pytest.raises(RelationError):
            r.with_domain(1)  # value 1 no longer fits in [0, 1)

    def test_container_protocol(self):
        r = Relation.build("S", [(0, 1), (2, 3)], domain_size=4)
        assert len(r) == 2
        assert (0, 1) in r
        assert set(iter(r)) == {(0, 1), (2, 3)}


class TestRelationValues:
    """Values are plain ints below 2**63 and rows are exactly ``arity``
    long: an int64 column would hide each of these instead of failing."""

    @pytest.mark.parametrize("value", [1.5, 1.0, True, np.int64(1), "1", None])
    def test_rejects_values_that_are_not_ints(self, value):
        with pytest.raises(RelationError, match="not an int"):
            Relation("S1", 2, frozenset({(value, 2), (0, 1)}), 4)
        with pytest.raises(RelationError, match="not an int"):
            Relation.build("S1", [(value, 2), (0, 1)])
        with pytest.raises(RelationError, match="not an int"):
            Relation.build("S1", [(value, 2), (0, 1)], domain_size=4)

    def test_the_error_names_the_value(self):
        with pytest.raises(RelationError, match=r"'S1': value 1\.5 is a float"):
            Relation("S1", 2, frozenset({(1.5, 2), (0, 1)}), 4)

    def test_rejects_ragged_rows_whose_lengths_add_up(self):
        with pytest.raises(RelationError, match="expected arity 2"):
            Relation("S", 2, frozenset({(1,), (2, 3, 0)}), 4)
        with pytest.raises(RelationError, match="expected arity"):
            Relation.build("S", [(1,), (2, 3, 0)])

    def test_a_domain_ends_at_two_to_the_63(self):
        top = 2**63 - 1
        relation = Relation("S", 1, frozenset({(top,), (0,)}), 2**63)
        assert sorted(relation.batch.columns[0].tolist()) == [0, top]
        with pytest.raises(RelationError, match=r"domain size \d+ exceeds 2\*\*63"):
            Relation("S", 1, frozenset({(0,)}), 2**63 + 1)
        with pytest.raises(RelationError, match=f"value {2**63} outside"):
            Relation("S", 1, frozenset({(2**63,)}), 2**63)
        with pytest.raises(RelationError, match="exceeds"):
            Relation.build("S", [(2**63,)])
        with pytest.raises(RelationError, match="value -1 outside"):
            Relation("S", 1, frozenset({(-1,)}), 4)

    def test_local_join_fragments_are_checked_too(self):
        q = parse_query("q(x, y, z) :- S1(x, z), S2(y, z)")
        with pytest.raises(RelationError, match="not an int"):
            local_join(q, {"S1": {(1.5, 2)}, "S2": {(0, 2)}}, 4)
        with pytest.raises(RelationError, match="expected arity"):
            local_join(q, {"S1": {(1, 2, 3)}, "S2": {(0, 2)}}, 4)


class TestRelationBatch:
    def test_one_cached_view_in_the_order_of_the_set(self):
        r = Relation.build("S", [(0, 5), (1, 2), (4, 4)], domain_size=6)
        assert r.batch is r.batch
        assert r.batch.rows == list(r.tuples)
        assert r.batch.columns.tolist() == [list(c) for c in zip(*r.tuples)]

    def test_not_part_of_equality_hash_or_replace(self):
        viewed = Relation.build("S", [(0, 5), (1, 2)], domain_size=6)
        plain = Relation.build("S", [(0, 5), (1, 2)], domain_size=6)
        viewed.batch.columns
        assert viewed == plain and hash(viewed) == hash(plain)
        assert "batch" not in repr(viewed)
        assert [f.name for f in dataclasses.fields(Relation)] == [
            "name", "arity", "tuples", "domain_size",
        ]
        renamed = dataclasses.replace(viewed, name="T")
        # Stored in the tuple view, not cached beside the fields: ``replace``
        # hands the view over and the columns with it.
        assert "batch" not in vars(renamed) and "batch" not in vars(viewed)
        assert renamed.batch is viewed.batch
        assert renamed.batch.rows == viewed.batch.rows


class TestTupleView:
    """``Relation.tuples`` is a read-only set over the int64 columns."""

    TUPLES = frozenset({(0, 5), (1, 2), (4, 4), (3, 2)})

    def relation(self, name="S"):
        return Relation(name, 2, self.TUPLES, 6)

    def test_is_a_set_view_over_the_columns(self):
        r = self.relation()
        assert isinstance(r.tuples, TupleView) and isinstance(r.tuples, AbstractSet)
        assert r.tuples.batch is r.batch
        assert list(r.tuples) == r.batch.rows == list(self.TUPLES)
        assert all(type(v) is int for t in r.tuples for v in t)

    def test_equality_and_hash_agree_with_a_frozenset_both_ways(self):
        view = self.relation().tuples
        assert view == self.TUPLES and self.TUPLES == view
        assert view == set(self.TUPLES) and set(self.TUPLES) == view
        assert hash(view) == hash(self.TUPLES)
        other = self.TUPLES - {(0, 5)} | {(0, 4)}
        assert view != other and other != view
        assert view != self.TUPLES - {(0, 5)}
        assert len({view, self.TUPLES}) == 1
        assert (view & {(0, 5), (9, 9)}) == {(0, 5)}

    def test_views_compare_by_content_not_order(self):
        forward = Relation.from_columns(
            "S", np.array([[0, 1, 4], [5, 2, 4]], dtype=np.int64), 6
        )
        backward = Relation.from_columns(
            "S", np.array([[4, 1, 0], [4, 2, 5]], dtype=np.int64), 6
        )
        assert forward == backward and hash(forward) == hash(backward)
        assert forward.tuples != self.relation().tuples
        empty = Relation("E", 2, frozenset(), 6).tuples
        assert empty == Relation("E", 3, frozenset(), 6).tuples == frozenset()

    @pytest.mark.parametrize("item, member", [
        ((0, 5), True), ((3, 2), True), ((5, 0), False), ((0,), False),
        ((0, 5, 1), False), ([0, 5], False), ((0.0, 5), True),
        ((0.5, 5), False), (("0", 5), False), ((2**70, 5), False),
        ((-1, 5), False),
    ])
    def test_membership_is_frozenset_membership(self, item, member):
        r = self.relation()
        assert (item in r.tuples) is member
        if isinstance(item, tuple):
            assert (item in self.TUPLES) is member

    def test_len_in_pickle_and_replace_share_the_columns(self):
        r = self.relation()
        columns = r.batch.columns
        assert len(r.tuples) == len(r) == 4 and (1, 2) in r
        assert r.rename("T").batch.columns is columns
        assert dataclasses.replace(r, domain_size=7).batch.columns is columns
        copy = pickle.loads(pickle.dumps(r))
        assert copy == r and hash(copy) == hash(r)
        assert copy.tuples.batch is copy.batch
        assert copy.batch.columns.tolist() == columns.tolist()
        with pytest.raises(RelationError, match="value 5 outside"):
            r.with_domain(5)

    def test_built_from_tuples_or_from_columns_compares_equal(self):
        by_tuples = self.relation()
        by_columns = Relation.from_columns(
            "S", by_tuples.batch.columns[:, ::-1].copy(), 6
        )
        assert by_tuples == by_columns and hash(by_tuples) == hash(by_columns)
        assert by_columns.batch.rows == list(by_tuples.tuples)[::-1]

    def test_from_columns_checks_what_it_keeps(self):
        with pytest.raises(RelationError, match="repeat a tuple"):
            Relation.from_columns("S", np.array([[1, 1], [2, 2]]), 4)
        with pytest.raises(RelationError, match="int64"):
            Relation.from_columns("S", np.array([[1.0, 2.0]]), 4)
        with pytest.raises(RelationError, match="value 9 outside"):
            Relation.from_columns("S", np.array([[1, 9]]), 4)

    def test_a_set_is_laid_out_in_the_order_its_frozenset_iterates(self):
        drawn = {(i * 7919 % 1000, i % 13) for i in range(300)}
        r = Relation("S", 2, drawn, 1000)
        assert list(r.tuples) == list(frozenset(drawn))

    def test_a_database_keeps_columns_not_tuples(self):
        """What a generated database retains: its int64 columns, 1.6 MB for
        two relations of 50 000 binary tuples, not ~130 bytes a tuple."""
        query = parse_query("q(x,y,z) :- S1(x,z), S2(y,z)")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            db = WorkloadSpec("uniform", m=50_000).build(query)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert db.total_tuples == 100_000
        assert retained < 3_000_000


class TestBatch:
    ROWS = [(0, 5, 7), (1, 2, 7), (4, 4, 9), (1, 2, 8)]

    def test_rows_to_columns_and_back(self):
        batch = Batch(3, rows=self.ROWS)
        columns = batch.columns
        assert columns.dtype == np.int64 and columns.shape == (3, 4)
        assert columns.flags["C_CONTIGUOUS"]
        assert columns.tolist() == [[0, 1, 4, 1], [5, 2, 4, 2], [7, 7, 9, 8]]
        assert len(batch) == 4 and batch.rows is self.ROWS
        back = Batch(3, columns=columns)
        assert len(back) == 4 and back.rows == self.ROWS
        assert all(type(v) is int for row in back.rows for v in row)

    def test_take_project_and_slice(self):
        batch = Batch(3, rows=self.ROWS)
        mask = np.array([True, False, True, True])
        assert batch.take(mask).rows == [self.ROWS[0], *self.ROWS[2:]]
        assert batch.take(np.array([3, 0])).rows == [self.ROWS[3], self.ROWS[0]]
        assert batch.take(np.array([], dtype=np.int64)).rows == []
        assert batch.take(mask).columns.flags["C_CONTIGUOUS"]
        projected = batch.project((2, 0))
        assert projected.arity == 2
        assert projected.rows == [(7, 0), (7, 1), (9, 4), (8, 1)]
        assert batch.project(()).rows == [()] * 4
        assert batch[1:3].rows == self.ROWS[1:3] and len(batch[1:3]) == 2
        assert len(batch[4:]) == 0

    @pytest.mark.parametrize("arity, rows", [(0, [()]), (0, []), (2, [])])
    def test_arity_zero_and_empty(self, arity, rows):
        batch = Batch(arity, rows=rows)
        assert batch.columns.shape == (arity, len(rows))
        assert batch.columns.dtype == np.int64
        back = Batch(arity, columns=batch.columns)
        assert len(back) == len(rows) and back.rows == rows
        assert pickle.loads(pickle.dumps(batch)).rows == rows

    def test_pickles_as_columns(self):
        shard = Batch(3, rows=self.ROWS)[1:]
        copy = pickle.loads(pickle.dumps(shard))
        assert copy._rows is None and copy.arity == 3
        assert copy.columns.dtype == np.int64
        assert copy.rows == self.ROWS[1:]
        by_rows = pickle.loads(pickle.dumps(Batch(3, rows=self.ROWS)))
        assert by_rows._rows is None and by_rows.rows == self.ROWS

    def test_of_coerces_and_checks_plain_sequences(self):
        batch = Batch(3, rows=self.ROWS)
        assert Batch.of(batch) is batch
        assert Batch.of(iter(self.ROWS)).rows == self.ROWS
        assert (Batch.of([]).arity, len(Batch.of([]))) == (0, 0)
        with pytest.raises(RelationError, match="not an int"):
            Batch.of([(1, 2), (1.5, 2)])
        with pytest.raises(RelationError, match="expected arity 2"):
            Batch.of([(1, 2), (3,), (4, 5, 6)])

    def test_codes_on_one_position(self):
        batch = Batch(3, rows=self.ROWS)
        wanted = [(9,), (7,), (3,)]
        assert batch.codes((2,), wanted).tolist() == [1, 1, 0, -1]
        assert batch.codes((0,), [(1,)]).tolist() == [-1, 0, -1, 0]
        assert batch.codes((0,), []).tolist() == [-1] * 4
        assert Batch(3, rows=[]).codes((0,), wanted).tolist() == []

    def test_codes_on_several_positions_settle_exactly(self):
        batch = Batch(3, rows=self.ROWS)
        # (1, 5) and (0, 2) pass the column-by-column narrowing of no row
        # entirely, (0, 5) and (1, 2) do; (4, 2) shares each value with a
        # wanted assignment and is still not one.
        wanted = [(1, 2), (0, 5), (4, 5)]
        assert batch.codes((0, 1), wanted).tolist() == [1, 0, -1, 0]
        assert batch.codes((1, 0), [(2, 1)]).tolist() == [-1, 0, -1, 0]
        assert batch.codes((0, 1, 2), [(1, 2, 8), (1, 2, 9)]).tolist() == [
            -1, -1, -1, 0,
        ]
        assert batch.codes((0, 1), []).tolist() == [-1] * 4


class TestArrayHelpers:
    @pytest.mark.parametrize("values", [
        [], [5], [3, 1, 3, 2, 1, 3], [0, 2**63 - 1, 0, -4], list(range(50)) * 3,
    ])
    def test_distinct_values_is_unique_with_every_flag(self, values):
        array = np.array(values, dtype=np.int64)
        distinct, first, inverse, counts = distinct_values(array)
        expected = np.unique(
            array, return_index=True, return_inverse=True, return_counts=True
        )
        for got, want in zip((distinct, first, inverse, counts), expected):
            assert got.tolist() == want.tolist()
        assert distinct[inverse].tolist() == values

    @pytest.mark.parametrize("rows, positions", [
        ([], (0, 1)), ([(3, 1, 3), (2, 1, 3), (3, 1, 3), (3, 0, 3)], (0, 1)),
        ([(3, 1, 3), (2, 1, 3), (3, 1, 3)], (2,)),
        ([(3, 1, 3), (2, 1, 3)], ()), ([], ()),
        ([(i % 5, i % 7, i % 3) for i in range(60)], (2, 0, 1)),
    ])
    def test_distinct_rows_is_a_counter_in_its_order(self, rows, positions):
        keys = [tuple(row[p] for p in positions) for row in rows]
        expected = Counter(keys)
        columns = np.array(keys, dtype=np.int64).reshape(len(keys), len(positions))
        first, counts = distinct_rows(np.ascontiguousarray(columns.T))
        assert [keys[i] for i in first.tolist()] == list(expected)
        assert counts.tolist() == list(expected.values())

    @pytest.mark.parametrize("high", [2, 1000, 2**31, 2**62, 2**63 - 1])
    @pytest.mark.parametrize("arity", [2, 3])
    def test_the_row_key_and_the_sort_count_alike(self, high, arity):
        """Rows go through one int64 key while the columns' spans multiply
        to at most ``2**63`` (``high`` up to 1000 here), through
        ``lexsort`` past it.  Either way a Counter of the rows."""
        rng = np.random.default_rng(high % 1000 + arity)
        columns = rng.integers(-high, high, size=(arity, 400), dtype=np.int64)
        columns = columns[:, rng.integers(0, 400, size=600)]  # repeats
        first, counts = distinct_rows(columns)
        rows = list(zip(*columns.tolist()))
        expected = Counter(rows)
        assert [rows[i] for i in first.tolist()] == list(expected)
        assert counts.tolist() == list(expected.values())
        by_sort, sort_counts = _distinct_rows_sorted(columns)
        order = np.argsort(by_sort)
        assert by_sort[order].tolist() == first.tolist()
        assert sort_counts[order].tolist() == counts.tolist()
        if high <= 1000:
            # Near the top of int64 the key's digits wrap on the way.
            top = columns + (2**63 - 1 - high)
            assert [part.tolist() for part in distinct_rows(top)] == [
                first.tolist(), counts.tolist()]

    def test_sorted_lookup(self):
        table = np.array([2, 5, 9], dtype=np.int64)
        slot, hit = sorted_lookup(table, np.array([5, 0, 9, 10, 2, 3]))
        assert hit.tolist() == [True, False, True, False, True, False]
        assert table[slot[hit]].tolist() == [5, 9, 2]
        slot, hit = sorted_lookup(table[:0], np.array([5, 0]))
        assert hit.tolist() == [False, False]


class TestDatabase:
    def test_from_relations_and_lookup(self):
        db = Database.from_relations(
            [Relation.build("S1", [(0, 1)]), Relation.build("S2", [(1, 2)])]
        )
        assert db.names == ("S1", "S2")
        assert db.relation("S1").cardinality == 1
        with pytest.raises(RelationError):
            db.relation("S3")

    def test_duplicate_names_rejected(self):
        with pytest.raises(RelationError):
            Database.from_relations(
                [Relation.build("S", [(0,)]), Relation.build("S", [(1,)])]
            )

    def test_domain_is_max(self):
        db = Database.from_relations(
            [
                Relation.build("S1", [(0,)], domain_size=5),
                Relation.build("S2", [(0,)], domain_size=50),
            ]
        )
        assert db.domain_size == 50

    def test_totals(self):
        db = Database.from_relations(
            [
                Relation.build("S1", [(0, 1), (1, 2)], domain_size=4),
                Relation.build("S2", [(3, 3)], domain_size=4),
            ]
        )
        assert db.total_tuples == 3
        assert math.isclose(db.total_bits, 3 * 2 * 2.0)

    def test_validate_against_query(self):
        db = Database.from_relations(
            [Relation.build("S1", [(0, 1)]), Relation.build("S2", [(1, 2)])]
        )
        q = parse_query("q(x, y, z) :- S1(x, z), S2(y, z)")
        db.validate_against(q)  # should not raise
        bad = parse_query("q(x, y, z) :- S1(x, y, z), S2(y, z)")
        with pytest.raises(RelationError):
            db.validate_against(bad)

    def test_empty_database_domain(self):
        assert Database.from_relations([]).domain_size == 1
