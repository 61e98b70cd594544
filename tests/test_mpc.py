"""Unit tests for the MPC simulator: hashing, cluster, execution."""

import math
import os
import pickle
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.data import uniform_relation
from repro.mpc import (
    Cluster,
    HashFamily,
    available_engines,
    run_one_round,
)
from repro.mpc import hashing
from repro.mpc.engine.batched import RoundLedger
from repro.mpc.execution import OneRoundAlgorithm, RoutingPlan
from repro.obs import Observation
from repro.query import parse_query, triangle_query
from repro.rounds import run_rounds
from repro.seq import Database, Relation
from repro.seq.relation import Batch


class TestHashFamily:
    def test_deterministic(self):
        h1 = HashFamily(42)
        h2 = HashFamily(42)
        assert h1.raw("a", 7) == h2.raw("a", 7)
        assert h1.bucket("a", 7, 10) == h2.bucket("a", 7, 10)

    def test_different_seeds_differ(self):
        values = [HashFamily(s).raw("a", 7) for s in range(8)]
        assert len(set(values)) == 8

    def test_different_salts_independent(self):
        h = HashFamily(0)
        buckets_a = [h.bucket("a", v, 16) for v in range(100)]
        buckets_b = [h.bucket("b", v, 16) for v in range(100)]
        assert buckets_a != buckets_b

    @pytest.mark.parametrize("seed", [0, 11, -1, 2**64 + 11])
    def test_coefficients_are_keyed_blake2b_words(self, seed):
        """``coefficients`` is ``hashlib.blake2b`` keyed by the seed's 64-bit
        pattern, cut into words mod ``2^61 - 1``, whichever module supplies
        the function; the routing polynomial is its first ``DEGREE + 1``
        words."""
        import hashlib

        key = (seed % 2**64).to_bytes(8, "little")
        for salt, count in (("hc:z", 5), ("S1|x#0", 6), ("", 1), ("w", 8)):
            digest = hashlib.blake2b(
                salt.encode(), key=key, digest_size=8 * count).digest()
            assert HashFamily(seed).coefficients(salt, count) == tuple(
                int.from_bytes(digest[i:i + 8], "little")
                % hashing.LARGE_PRIME for i in range(0, 8 * count, 8)
            )
        family = HashFamily(seed)
        polynomial = family.coefficients("hc:z", hashing.DEGREE + 1)
        for value in (0, 1, 12345, -7):
            x = value % 2**64 % hashing.LARGE_PRIME
            want = 0
            for coefficient in polynomial:
                want = (want * x + coefficient) % hashing.LARGE_PRIME
            assert family.raw("hc:z", value) == want

    def test_bucket_range(self):
        h = HashFamily(1)
        for v in range(200):
            assert 0 <= h.bucket("s", v, 7) < 7

    def test_single_bucket(self):
        assert HashFamily(0).bucket("s", 123, 1) == 0

    def test_bad_bucket_count(self):
        with pytest.raises(ValueError):
            HashFamily(0).bucket("s", 1, 0)

    def test_roughly_uniform(self):
        h = HashFamily(3)
        buckets = 8
        counts = [0] * buckets
        n = 8000
        for v in range(n):
            counts[h.bucket("u", v, buckets)] += 1
        expected = n / buckets
        for count in counts:
            assert 0.85 * expected < count < 1.15 * expected

    def test_negative_values_hash(self):
        h = HashFamily(0)
        assert isinstance(h.raw("s", -12), int)

    @pytest.mark.parametrize("buckets", [1, 2, 7, 64])
    def test_bucket_column_equals_the_scalar_bucket(self, buckets):
        values = [0, 5, 5, 2**47 - 1, 2**62, 2**63 - 1, 0, -12, -(2**63)]
        column = HashFamily(9).bucket_column(
            "parity", np.array(values, dtype=np.int64), buckets
        )
        assert column.dtype == np.int64
        scalar = HashFamily(9)
        assert column.tolist() == [
            scalar.bucket("parity", v, buckets) for v in values
        ]

    def test_bucket_column_takes_a_bucket_count_per_value(self):
        values = np.arange(50, dtype=np.int64)
        counts = np.arange(50, dtype=np.int64) % 5 + 1
        column = HashFamily(9).bucket_column("each", values, counts)
        scalar = HashFamily(9)
        assert column.tolist() == [
            scalar.bucket("each", v, b)
            for v, b in zip(values.tolist(), counts.tolist())
        ]
        with pytest.raises(ValueError):
            HashFamily(9).bucket_column("each", values, counts - 1)
        with pytest.raises(ValueError):
            HashFamily(9).bucket_column("each", values, 0)

    @given(
        values=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40),
        counts=st.lists(st.integers(1, 2**62), min_size=40, max_size=40),
        seed=st.integers(-(2**63), 2**63 - 1),
    )
    def test_bucket_column_equals_the_scalar_bucket_over_int64(
        self, values, counts, seed
    ):
        """Over the whole int64 range, with one bucket count for all and
        with one per value: the column is the scalar, value by value."""
        column = np.array(values, dtype=np.int64)
        scalar = HashFamily(seed)
        for buckets in (counts[0], counts[1] % 64 + 1):
            assert HashFamily(seed).bucket_column(
                "any", column, buckets
            ).tolist() == [scalar.bucket("any", v, buckets) for v in values]
        each = np.array(counts[:len(values)], dtype=np.int64)
        assert HashFamily(seed).bucket_column("each", column, each).tolist() \
            == [scalar.bucket("each", v, b) for v, b in zip(values, counts)]

    def test_a_family_has_no_class_level_mutable_state(self):
        """Nothing is shared between families or threads: what a family
        caches (its polynomials) lives on the instance."""
        for name, value in vars(HashFamily).items():
            if not name.startswith("__"):
                assert callable(value) or isinstance(value, property), name
        first, second = HashFamily(3), HashFamily(3)
        first.bucket_column("only-here", np.arange(5), 7)
        assert vars(second)["_polynomials"] == {}

    def test_columns_do_not_depend_on_the_hash_seed(self):
        program = (
            "import numpy as np; from repro.mpc import HashFamily; "
            "print(HashFamily(11).bucket_column('hc:z', "
            "np.arange(-500, 500) * 7919, 64).tolist())"
        )

        def column(hash_seed):
            source = os.path.dirname(os.path.dirname(repro.__file__))
            done = subprocess.run(
                [sys.executable, "-c", program], text=True,
                capture_output=True, timeout=60, check=True,
                env={**os.environ, "PYTHONPATH": source,
                     "PYTHONHASHSEED": hash_seed},
            )
            return done.stdout

        assert column("0") == column("1")
        assert column("0").strip() == str(HashFamily(11).bucket_column(
            "hc:z", np.arange(-500, 500) * 7919, 64).tolist())

    def test_bucket_table_registry_survives_threads(self):
        """The service routes jobs on several threads at once: four of them
        hashing thousands of salts get exactly the scalar buckets."""
        errors = []
        values = np.arange(-20, 20)

        def mint(t):
            family = HashFamily(t % 2)
            scalar = HashFamily(t % 2)
            try:
                for i in range(1000):
                    salt = f"s{t}:{i}"
                    table = family.bucket_column(salt, values, 7)
                    assert table.tolist() == [
                        scalar.bucket(salt, v, 7) for v in range(-20, 20)
                    ]
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=mint, args=(t,)) for t in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_bucket_table_in_a_child_forked_inside_the_registry(self):
        """A farm worker forked from a process that has hashed computes the
        parent's column — there is no state a fork could leave behind."""
        family = HashFamily(0)
        values = np.arange(-50, 50) * 104729
        expected = family.bucket_column("forked", values, 5)
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
                signal.alarm(5)  # a hung child is killed
                same = (family.bucket_column("forked", values, 5) == expected)
                fresh = HashFamily(0).bucket_column("forked", values, 5)
                status = 0 if same.all() and (fresh == expected).all() else 2
            finally:
                os._exit(status)
        assert os.waitpid(pid, 0)[1] == 0


class TestColumnHashes:
    """A family given a database's :class:`ColumnHashes` evaluates each
    (seed, salt, column) once and reduces that into any bucket count: the
    buckets of a family without one, and of the scalar definition."""

    @given(
        seed=st.integers(-(2**63), 2**63 - 1),
        arity=st.integers(1, 3),
        values=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=45),
        salts=st.lists(st.sampled_from(["hc:x", "hc:z", "hj:z", "bin0:y"]),
                       min_size=1, max_size=4),
        shares=st.lists(st.integers(1, 2**40), min_size=2, max_size=2),
        cut=st.tuples(st.integers(0, 30), st.integers(0, 30)),
    )
    def test_cached_buckets_are_the_scalar_buckets(
        self, seed, arity, values, salts, shares, cut
    ):
        store = np.array(values[:len(values) // arity * arity],
                         dtype=np.int64).reshape(arity, -1)
        cache = hashing.ColumnHashes([store])
        cached, scalar = HashFamily(seed, cache), HashFamily(seed)
        for salt in salts:
            for row in store:
                each = (np.arange(len(row)) * shares[1]) % 97 + 1
                for buckets in (shares[0], 1, each):
                    want = [scalar.bucket(salt, v, int(b)) for v, b in zip(
                        row.tolist(), np.broadcast_to(buckets, len(row)))]
                    assert cached.bucket_column(salt, row, buckets).tolist() \
                        == want
                    assert HashFamily(seed).bucket_column(
                        salt, row, buckets).tolist() == want
                piece = row[slice(*cut)]
                assert cached.bucket_column(salt, piece, shares[0]).tolist() \
                    == [scalar.bucket(salt, v, shares[0])
                        for v in piece.tolist()]
        assert len(cache) == (len(set(salts)) * store.shape[0]
                              if store.size else 0)

    def test_each_column_is_evaluated_once_per_seed_and_salt(
        self, monkeypatch
    ):
        evaluated = []
        real = HashFamily.raw_column
        monkeypatch.setattr(HashFamily, "raw_column", lambda self, salt, v: (
            evaluated.append((self.seed, salt, len(v))) or real(self, salt, v)
        ))
        store = np.arange(-40, 40, dtype=np.int64).reshape(2, 40) * 7919
        cache = hashing.ColumnHashes([store])
        for share in (2, 4, 8, 64, np.arange(40) + 1):
            HashFamily(3, cache).bucket_column("hc:z", store[1], share)
        assert evaluated == [(3, "hc:z", 40)]
        HashFamily(4, cache).bucket_column("hc:z", store[1], 8)
        HashFamily(3, cache).bucket_column("hc:y", store[1], 8)
        HashFamily(3, cache).bucket_column("hc:z", store[0], 8)
        assert len(evaluated) == len(cache) == 4
        # Not columns of the store: a piece, a copy, another store's row.
        for values in (store[1, 1:], store[1].copy(), store.copy()[1]):
            HashFamily(3, cache).bucket_column("hc:z", values, 8)
        assert len(evaluated) == 7 and len(cache) == 4

    def test_a_family_pickles_without_its_column_hashes(self):
        store = np.arange(12, dtype=np.int64).reshape(2, 6)
        family = HashFamily(5, hashing.ColumnHashes([store]))
        shipped = pickle.loads(pickle.dumps(family))
        assert shipped.seed == 5 and vars(shipped)["_columns"] is None
        assert shipped.bucket_column("hc:x", store[0], 7).tolist() == \
            family.bucket_column("hc:x", store[0], 7).tolist()


class TestCluster:
    def test_send_accounts_bits(self):
        c = Cluster(4)
        c.send(0, "S", (1, 2), 8.0)
        c.send(0, "S", (3, 4), 8.0)
        report = c.load_report(input_tuples=2, input_bits=16.0)
        assert report.per_server_tuples == (2, 0, 0, 0)
        assert report.max_load_bits == 16.0
        assert report.max_load_tuples == 2

    def test_duplicate_sends_charged_once(self):
        c = Cluster(2)
        c.send(1, "S", (1, 2), 8.0)
        c.send(1, "S", (1, 2), 8.0)
        assert c.servers[1].received_tuples == 1

    def test_replication_rate(self):
        c = Cluster(2)
        c.send(0, "S", (1,), 4.0)
        c.send(1, "S", (1,), 4.0)
        report = c.load_report(input_tuples=1, input_bits=4.0)
        assert report.replication_rate == 2.0

    def test_balance(self):
        c = Cluster(2)
        c.send(0, "S", (1,), 4.0)
        report = c.load_report(1, 4.0)
        assert report.balance == 2.0  # all weight on one of two servers

    def test_out_of_range_send(self):
        c = Cluster(2)
        with pytest.raises(IndexError):
            c.send(5, "S", (1,), 1.0)

    def test_needs_a_server(self):
        with pytest.raises(ValueError):
            Cluster(0)

    def test_describe_smoke(self):
        c = Cluster(2)
        c.send(0, "S", (1,), 4.0)
        assert "p=2" in c.load_report(1, 4.0).describe()


class _RoundRobinPlan(RoutingPlan):
    def __init__(self, p):
        self.p = p

    def destinations(self, relation_name, tup):
        return (sum(tup) % self.p,)

    def describe(self):
        return {"policy": "round-robin"}


class _RoundRobin(OneRoundAlgorithm):
    """Partitions tuples by value sum — complete only for trivial queries."""

    def __init__(self, query):
        super().__init__(query, "round-robin")

    def routing_plan(self, db, p, hashes):
        return _RoundRobinPlan(p)


class _NeighboursPlan(RoutingPlan):
    """Scalar-only, replicating, and sloppy: names its first server twice."""

    def __init__(self, p):
        self.p = p

    def destinations(self, relation_name, tup):
        server = sum(tup) % self.p
        return (server, (server + 1) % self.p, server)


class _Neighbours(OneRoundAlgorithm):
    def __init__(self, query):
        super().__init__(query, "neighbours")

    def routing_plan(self, db, p, hashes):
        return _NeighboursPlan(p)


class TestRunOneRound:
    def _single_atom_setup(self):
        q = parse_query("q(x, y) :- S(x, y)")
        db = Database.from_relations([uniform_relation("S", 50, 64, seed=1)])
        return q, db

    def test_single_atom_query_complete(self):
        q, db = self._single_atom_setup()
        result = run_rounds(_RoundRobin(q), db, p=4, verify=True)
        assert result.is_complete
        assert result.answer_count == 50

    def test_load_accounting_matches_input(self):
        q, db = self._single_atom_setup()
        result = run_one_round(_RoundRobin(q), db, p=4)
        # Each tuple goes to exactly one server: no replication.
        assert math.isclose(result.report.replication_rate, 1.0)
        assert result.report.total_tuples == 50

    def test_compute_answers_false(self):
        q, db = self._single_atom_setup()
        result = run_one_round(_RoundRobin(q), db, p=4, compute_answers=False)
        assert result.answers is None
        assert result.answer_count is None

    @pytest.mark.parametrize("engine", available_engines())
    def test_incomplete_algorithm_detected(self, engine):
        """Sum-partitioning a join or a triangle is wrong; verification
        must catch it, acyclic query or not: the fingerprints differ and
        the set comparison that follows fails."""
        join = parse_query("q(x, y, z) :- S1(x, z), S2(y, z)")
        join_db = Database.from_relations(
            [
                Relation.build("S1", [(0, 1), (2, 3)], domain_size=8),
                Relation.build("S2", [(1, 1), (5, 3)], domain_size=8),
            ]
        )
        # The one triangle (0, 1, 2): its edges sum to 1, 3 and 2, so no
        # server receives all three.
        triangle = triangle_query()
        triangle_db = Database.from_relations(
            [
                Relation.build(name, [edge], domain_size=8)
                for name, edge in zip(
                    (atom.name for atom in triangle.atoms),
                    ((0, 1), (1, 2), (2, 0)),
                )
            ]
        )
        for q, db in ((join, join_db), (triangle, triangle_db)):
            obs = Observation.create()
            result = run_rounds(_RoundRobin(q), db, p=4, verify=True,
                                compute_answers=False, engine=engine, obs=obs)
            assert result.is_complete is False, q
            assert result.answer_count == 0, q
            counter = obs.metrics.counters.get("verify.fallbacks")
            assert counter.value == 1, q

    def test_details_from_plan(self):
        q, db = self._single_atom_setup()
        result = run_one_round(_RoundRobin(q), db, p=4)
        assert result.details == {"policy": "round-robin"}

    def test_seed_changes_nothing_for_deterministic_plans(self):
        q, db = self._single_atom_setup()
        r1 = run_one_round(_RoundRobin(q), db, p=4, seed=1)
        r2 = run_one_round(_RoundRobin(q), db, p=4, seed=2)
        assert r1.report.per_server_tuples == r2.report.per_server_tuples


class TestEngineDispatch:
    def _setup(self):
        q = parse_query("q(x, y) :- S(x, y)")
        db = Database.from_relations([uniform_relation("S", 50, 64, seed=1)])
        return q, db

    def test_available_engines(self):
        from repro.mpc import available_engines

        assert available_engines() == ("reference", "batched")

    def test_unknown_engine_rejected(self):
        from repro.mpc import EngineError

        q, db = self._setup()
        with pytest.raises(EngineError, match="unknown execution engine"):
            run_one_round(_RoundRobin(q), db, p=4, engine="warp-drive")

    def test_resolve_engine_passthrough(self):
        from repro.mpc import BatchedEngine, resolve_engine

        instance = BatchedEngine()
        assert resolve_engine(instance) is instance
        assert resolve_engine("reference").name == "reference"

    @pytest.mark.parametrize("engine", ["reference", "batched"])
    def test_custom_plan_runs_on_every_engine(self, engine):
        """Plans without a fast batch path use the scalar fallback."""
        q, db = self._setup()
        result = run_rounds(
            _RoundRobin(q), db, p=4, verify=True, engine=engine
        )
        assert result.is_complete
        assert result.rounds[0].details == {"policy": "round-robin"}
        assert math.isclose(result.replication_rate, 1.0)

    def test_scalar_only_plan_reports_agree_across_engines(self):
        """A user plan that writes only ``destinations`` — replication and
        duplicates included — rides the default ``claims`` on the batched
        engines and measures what the scalar reference measures."""
        q, db = self._setup()
        reference, batched = (
            run_one_round(_Neighbours(q), db, p=4, engine=engine)
            for engine in ("reference", "batched")
        )
        assert reference.report.replication_rate == 2.0
        assert reference.report == batched.report
        assert reference.answers == batched.answers
        load_only = run_one_round(
            _Neighbours(q), db, p=4, compute_answers=False, engine="batched"
        )
        assert load_only.report == reference.report

    def test_default_deliveries_match_scalar(self):
        plan = _RoundRobinPlan(4)
        tuples = [(1, 2), (3, 4), (0, 0)]
        expected = [
            (i, server)
            for i, tup in enumerate(tuples)
            for server in plan.destinations("S", tup)
        ]
        # A plain sequence of tuples is made a batch at the boundary.
        for given in (Batch(2, rows=tuples), tuples):
            indices, servers = plan.deliveries("S", given)
            assert list(zip(indices.tolist(), servers.tolist())) == expected

    def test_default_claims_number_the_distinct_destinations(self):
        """The scalar-loop fallback speaks the same contract as the native
        plans: integer keys, one per tuple, from a batch."""
        class Duplicating(RoutingPlan):
            def destinations(self, relation_name, tup):
                return (tup[0] % 2, 1, tup[0] % 2)

        batch = Batch(1, rows=[(1,), (2,), (3,), (4,), (2,)])
        [(indices, keys, table)] = Duplicating().claims("S", batch)
        assert isinstance(keys, np.ndarray)
        assert np.issubdtype(keys.dtype, np.integer)
        assert indices.tolist() == [0, 1, 2, 3, 4]
        assert keys.tolist() == [0, 1, 0, 1, 1]
        assert table == {0: (1,), 1: (0, 1)}
        [(indices, keys, table)] = Duplicating().claims("S", batch[:0])
        assert (len(indices), len(keys), table) == (0, 0, {})

    def test_default_deliveries_deduplicate(self):
        class Duplicating(RoutingPlan):
            def destinations(self, relation_name, tup):
                return (0, 1, 0, 1)

        plan = Duplicating()
        indices, servers = plan.deliveries("S", [(1,)])
        assert (indices.tolist(), servers.tolist()) == ([0, 0], [0, 1])
        assert dict(plan.destination_counts("S", [(1,), (2,)])) == {
            0: 2, 1: 2,
        }

    def test_a_contested_tuple_counts_once_per_server(self):
        """Where claims overlap, a tuple's servers are the union of its
        rows: counted once each, a stray server included (the ledger
        refuses it), as ``deliveries`` lists them."""
        class Overlapping(RoutingPlan):
            def destinations(self, relation_name, tup):
                raise AssertionError("routed through the claims")

            def claims(self, relation_name, batch):
                n = len(batch)
                return [
                    (np.arange(n), np.arange(n) % 2, {0: (0, 1), 1: (2,)}),
                    (np.arange(0, n, 2), np.zeros((n + 1) // 2, np.int64),
                     {0: (1, -1, 2)}),
                ]

        plan = Overlapping()
        tuples = [(i,) for i in range(5)]
        counts = plan.destination_counts("S", tuples)
        assert dict(counts) == {0: 3, 1: 3, 2: 5, -1: 3}
        _, servers = plan.deliveries("S", tuples)
        assert dict(zip(*np.unique(servers, return_counts=True))) == counts

    @pytest.mark.parametrize("compute_answers", [True, False])
    @pytest.mark.parametrize("engine", ["reference", "batched"])
    @pytest.mark.parametrize("stray", [-1, 4])
    def test_a_server_outside_the_cluster_is_the_same_error_everywhere(
        self, stray, engine, compute_answers
    ):
        """``-1`` used to be charged to the *last* server by ``batched``
        — ``status ok``, a wrong load — and ``p`` died with a
        bare ``list index out of range``; the reference always refused."""
        class Stray(_RoundRobinPlan):
            def destinations(self, relation_name, tup):
                return (stray,) if tup == (2, 0) else (sum(tup) % self.p,)

        class Algorithm(_RoundRobin):
            def routing_plan(self, db, p, hashes):
                return Stray(p)

        q = parse_query("q(x, y) :- S(x, y)")
        db = Database.from_relations([Relation.build(
            "S", [(0, 1), (1, 1), (2, 0), (2, 2), (3, 0), (3, 3)]
        )])
        with pytest.raises(IndexError) as excinfo:
            run_one_round(Algorithm(q), db, p=4, engine=engine,
                          compute_answers=compute_answers)
        assert str(excinfo.value) == f"server index {stray} outside [0, 4)"

    @pytest.mark.parametrize("engine", ["reference", "batched"])
    def test_what_leaves_the_arrays_is_python(self, engine):
        """Counts are ``int``, loads ``float``, answers tuples of ``int``:
        never a numpy scalar, which ``json`` refuses and ``repr`` shows."""
        q, db = self._setup()
        for compute_answers in (True, False):
            result = run_one_round(_Neighbours(q), db, p=4, engine=engine,
                                   compute_answers=compute_answers)
            report = result.report
            assert {type(n) for n in report.per_server_tuples} == {int}
            assert {type(b) for b in report.per_server_bits} == {float}
            assert type(report.total_tuples) is int
            assert type(result.max_load_bits) is float
        assert result.answer_count is None  # the load-only run
        answers = run_one_round(_Neighbours(q), db, p=4, engine=engine)
        assert type(answers.answer_count) is int
        assert {type(v) for row in answers.answers for v in row} == {int}

    def test_default_destination_counts_matches_batch(self):
        plan = _RoundRobinPlan(4)
        tuples = Batch.of([(i, i + 1) for i in range(20)])
        counts = plan.destination_counts("S", tuples)
        expected: dict[int, int] = {}
        for tup in tuples.rows:
            for server in plan.destinations("S", tup):
                expected[server] = expected.get(server, 0) + 1
        assert dict(counts) == expected


class TestRoundLedger:
    """The batched engine's accounting: one relation's routing folded in,
    as per-server counts (loads only) or as deliveries (answers on)."""

    BATCH = Batch.of([(i, 10 + i % 3) for i in range(9)])

    @staticmethod
    def _routed(batch, deliver, plan=None):
        plan = plan or _NeighboursPlan(4)
        if deliver:
            return plan.deliveries("S", batch)
        return plan.destination_counts("S", batch)

    def test_counts_and_deliveries_charge_the_same_loads(self):
        ledgers = {}
        for deliver in (False, True):
            ledger = RoundLedger(4, compute_answers=deliver)
            routed = ledger.add("S", 12.5, self.BATCH,
                                self._routed(self.BATCH, deliver))
            assert routed == 2 * len(self.BATCH)  # two distinct servers each
            ledgers[deliver] = ledger
        assert ledgers[False].report(9, 112.5) == \
            ledgers[True].report(9, 112.5)
        assert ledgers[False].delivered is None

    def test_deliveries_are_the_tuples_with_their_server_last(self):
        ledger = RoundLedger(4, compute_answers=True)
        ledger.add("S", 12.5, self.BATCH, self._routed(self.BATCH, True))
        delivered = ledger.delivered["S"]
        assert delivered.shape == (3, 2 * len(self.BATCH))
        plan = _NeighboursPlan(4)
        assert sorted(map(tuple, delivered.T.tolist())) == sorted(
            (*tup, server) for tup in self.BATCH.rows
            for server in set(plan.destinations("S", tup))
        )

    def test_bits_fold_as_count_times_tuple_bits_per_relation(self):
        ledger = RoundLedger(4, compute_answers=False)
        ledger.add("R", 12.5, self.BATCH, self._routed(self.BATCH, False))
        ledger.add("S", 7.25, self.BATCH[:4],
                   self._routed(self.BATCH[:4], False, _RoundRobinPlan(4)))
        counts_r = np.bincount(
            [s for tup in self.BATCH.rows
             for s in set(_NeighboursPlan(4).destinations("S", tup))],
            minlength=4)
        counts_s = np.bincount(
            [sum(tup) % 4 for tup in self.BATCH[:4].rows], minlength=4)
        report = ledger.report(13, 0.0)
        assert report.per_server_tuples == tuple(
            (counts_r + counts_s).tolist())
        assert report.per_server_bits == tuple(
            (counts_r * 12.5 + counts_s * 7.25).tolist())

    @pytest.mark.parametrize("deliver", [False, True])
    def test_an_empty_relation_charges_nothing(self, deliver):
        ledger = RoundLedger(4, compute_answers=deliver)
        empty = self.BATCH[:0]
        assert ledger.add("S", 12.5, empty,
                          self._routed(empty, deliver)) == 0
        assert ledger.report(0, 0.0).per_server_tuples == (0, 0, 0, 0)
        if deliver:
            assert ledger.delivered["S"].shape == (3, 0)

    @pytest.mark.parametrize("deliver", [False, True])
    @pytest.mark.parametrize("stray", [-1, 4])
    def test_a_server_outside_the_cluster_charges_nothing(
        self, stray, deliver
    ):
        class Stray(_RoundRobinPlan):
            def destinations(self, relation_name, tup):
                return (stray,) if tup == (2, 12) else (sum(tup) % self.p,)

        ledger = RoundLedger(4, compute_answers=deliver)
        with pytest.raises(IndexError) as excinfo:
            ledger.add("S", 12.5, self.BATCH,
                       self._routed(self.BATCH, deliver, Stray(4)))
        assert str(excinfo.value) == f"server index {stray} outside [0, 4)"
        assert ledger.report(0, 0.0).per_server_tuples == (0, 0, 0, 0)
        assert ledger.delivered == ({} if deliver else None)
