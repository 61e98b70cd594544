"""Tests for sketched heavy-hitter statistics (repro.sketch.statistics)
and their integration with the planner, sweep runner and records."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import Sweep, plan, resolve_statistics
from repro.api.experiment import Cell, run_cell
from repro.core import BinHyperCubeAlgorithm, SkewAwareJoin
from repro.data import zipf_relation
from repro.obs import Observation
from repro.query import parse_query
from repro.rounds import run_rounds
from repro.seq import Database
from repro.sketch import (
    RelationSketchSet,
    SketchConfig,
    SketchedHeavyHitterStatistics,
    build_sketch_set,
    sketch_fidelity,
)
from repro.sketch import statistics as sketch_statistics
from repro.stats import (
    HeavyHitterStatistics,
    MAX_SUBSET_VARIABLES,
    StatisticsError,
    StatisticsProvider,
    nonempty_subsets,
)
from repro.stats.provider import heavy_of

QUERY = "q(x, y, z) :- S1(x, z), S2(y, z)"


@pytest.fixture(scope="module")
def query():
    return parse_query(QUERY)


@pytest.fixture(scope="module")
def zipf_db():
    return Database.from_relations([
        zipf_relation("S1", 4000, 1600, skew=1.6, seed=1),
        zipf_relation("S2", 4000, 1600, skew=1.1, seed=2),
    ])


class TestSubsetGuard:
    def test_small_atoms_enumerate_fully(self):
        assert len(nonempty_subsets(("x", "y", "z"))) == 7

    def test_high_arity_atom_is_refused(self):
        variables = tuple(f"v{i}" for i in range(MAX_SUBSET_VARIABLES + 1))
        with pytest.raises(StatisticsError, match="refusing to enumerate"):
            nonempty_subsets(variables)

    def test_extraction_surfaces_the_guard(self):
        from repro.seq import Relation

        n = MAX_SUBSET_VARIABLES + 1
        variables = ", ".join(f"v{i}" for i in range(n))
        query = parse_query(f"q({variables}) :- R({variables})")
        db = Database.from_relations(
            [Relation.build("R", [tuple(range(n))])]
        )
        with pytest.raises(StatisticsError, match="refusing to enumerate"):
            HeavyHitterStatistics.of(query, db, p=4)


class TestSketchedStatistics:
    def test_satisfies_the_provider_protocol(self, query, zipf_db):
        sketched = SketchedHeavyHitterStatistics.of(query, zipf_db, p=8)
        assert isinstance(sketched, StatisticsProvider)

    @pytest.mark.parametrize("p", [8, 32])
    def test_zero_false_negatives_on_zipf(self, query, zipf_db, p):
        """Every true heavy hitter is recovered at the default width."""
        exact = HeavyHitterStatistics.of(query, zipf_db, p)
        sketched = SketchedHeavyHitterStatistics.of(query, zipf_db, p)
        report = sketch_fidelity(exact, sketched)
        assert report["true_heavy"] > 0  # the workload is genuinely skewed
        assert report["false_negatives"] == 0
        assert report["recall"] == 1.0

    def test_frequency_error_within_count_sketch_bound(self, query, zipf_db):
        """Estimated frequencies of true heavy hitters stay within a few
        multiples of the ||f||_2 / sqrt(width) characteristic noise."""
        p = 8
        exact = HeavyHitterStatistics.of(query, zipf_db, p)
        sketched = SketchedHeavyHitterStatistics.of(query, zipf_db, p)
        for key, sketch in sketched.sketch_set.sketches.items():
            true_map = exact.hitters[key]
            tolerance = max(1.0, 4 * sketch.noise_scale())
            est_map = sketched.hitters.get(key, {})
            for assignment, true_freq in true_map.items():
                assert assignment in est_map
                assert abs(est_map[assignment] - true_freq) <= tolerance

    def test_sharded_build_is_bit_identical(self, query, zipf_db):
        config = SketchConfig()
        single = build_sketch_set(query, zipf_db, config)
        domains = {
            atom.name: zipf_db.relation(atom.name).domain_size
            for atom in query.atoms
        }
        shards = [
            RelationSketchSet.empty(query, domains, config) for _ in range(3)
        ]
        for name in ("S1", "S2"):
            # Strided, not contiguous: any partition of the tuples merges.
            columns = zipf_db.relation(name).batch.columns
            for i, shard in enumerate(shards):
                shard.update(name, columns[:, i::3])
        merged = shards[0].merge(shards[1]).merge(shards[2])
        for key, sketch in single.sketches.items():
            assert all(
                np.array_equal(mine, theirs)
                for mine, theirs in zip(sketch.tables(),
                                        merged.sketches[key].tables())
            )

    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_uneven_contiguous_shards_merge_to_the_single_pass(
        self, query, shards
    ):
        # S2 has fewer tuples than five shards: one S2 slice is empty.
        db = Database.from_relations([
            zipf_relation("S1", 4000, 1600, skew=1.6, seed=1),
            zipf_relation("S2", 4, 1600, skew=1.1, seed=2),
        ])
        config = SketchConfig()
        single = build_sketch_set(query, db, config)
        domains = {atom.name: db.relation(atom.name).domain_size
                   for atom in query.atoms}
        parts = [RelationSketchSet.empty(query, domains, config)
                 for _ in range(shards)]
        for name in ("S1", "S2"):
            columns = db.relation(name).batch.columns
            for part, piece in zip(parts, np.array_split(columns, shards,
                                                         axis=1)):
                part.update(name, piece)
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.merge(part)
        assert merged.update_count == single.update_count
        for key, sketch in single.sketches.items():
            assert all(
                np.array_equal(mine, theirs)
                for mine, theirs in zip(sketch.tables(),
                                        merged.sketches[key].tables())
            )

    def test_an_error_inside_the_pass_surfaces_unchanged(
        self, query, zipf_db, monkeypatch
    ):
        def unreadable(self, atom_name, columns):
            raise OSError("disk gone")

        monkeypatch.setattr(RelationSketchSet, "update", unreadable)
        with pytest.raises(OSError, match="disk gone"):
            build_sketch_set(query, zipf_db, SketchConfig())

    @pytest.mark.parametrize("chunk_size", [97, 1000])
    def test_chunked_column_pass_is_bit_identical(
        self, query, zipf_db, monkeypatch, chunk_size
    ):
        config = SketchConfig()
        whole = build_sketch_set(query, zipf_db, config)
        monkeypatch.setattr(sketch_statistics, "CHUNK_SIZE", chunk_size)
        chunked = build_sketch_set(query, zipf_db, config)
        assert chunked.update_count == whole.update_count
        for key, sketch in whole.sketches.items():
            assert all(
                np.array_equal(mine, theirs)
                for mine, theirs in zip(sketch.tables(),
                                        chunked.sketches[key].tables())
            )

    def test_encode_is_the_mixed_radix_of_each_tuple(self, query, zipf_db):
        relation = zipf_db.relation("S1")
        n = relation.domain_size
        sketch_set = RelationSketchSet.empty(
            query, {"S1": n, "S2": n}, SketchConfig()
        )
        rows = relation.batch.rows
        for (name, _), spec in sketch_set.specs.items():
            if name != "S1":
                continue
            items = spec.encode(relation.batch.columns).tolist()
            assert items == [
                sum(t[pos] * n ** i for i, pos in enumerate(spec.positions))
                for t in rows
            ]
            assert [spec.decode(item) for item in items] == [
                tuple(t[pos] for pos in spec.positions) for t in rows
            ]

    def test_empty_columns_update_nothing(self, query):
        sketch_set = RelationSketchSet.empty(
            query, {"S1": 10, "S2": 10}, SketchConfig()
        )
        sketch_set.update("S1", np.zeros((2, 0), dtype=np.int64))
        assert sketch_set.update_count == 0
        assert all(
            not table.any()
            for sketch in sketch_set.sketches.values()
            for table in sketch.tables()
        )

    def test_merge_rejects_config_mismatch(self, query, zipf_db):
        a = build_sketch_set(query, zipf_db, SketchConfig(seed=0))
        b = build_sketch_set(query, zipf_db, SketchConfig(seed=1))
        with pytest.raises(ValueError, match="merge"):
            a.merge(b)

    def test_observation_records_the_pass(self, query, zipf_db):
        obs = Observation.create()
        sketched = SketchedHeavyHitterStatistics.of(
            query, zipf_db, p=8, obs=obs
        )
        metrics = obs.metrics.to_dict()
        assert metrics["gauges"]["sketch.width"] == sketched.config.width
        assert metrics["gauges"]["sketch.depth"] == sketched.config.depth
        assert metrics["counters"]["sketch.updates"] == sketched.update_count
        span_names = {span.name for span in obs.tracer.spans}
        assert "stats.sketch_pass" in span_names

    def test_oversized_universe_is_a_clean_error(self):
        # 3000^6 > 2^61: the six-variable subsets of a 7-ary relation.  Its
        # full key is never sketched, so only a smaller subset can overflow.
        query = parse_query("q(a, b, c, d, e, f, g) :- R(a, b, c, d, e, f, g)")
        relation = zipf_relation(
            "R", 100, 3000, arity=7, skew=0.0, seed=0
        )
        db = Database.from_relations([relation])
        with pytest.raises(StatisticsError, match="2\\^61"):
            SketchedHeavyHitterStatistics.of(query, db, p=4)

    @pytest.mark.parametrize("factor", [0.0, -1.0, math.nan, math.inf])
    def test_threshold_factor_must_be_finite_and_positive(
        self, query, zipf_db, factor
    ):
        """A sketch recovers heavy values, never a full degree map: factor
        0 would silently report only part of it."""
        with pytest.raises(StatisticsError, match="threshold_factor"):
            SketchedHeavyHitterStatistics.of(
                query, zipf_db, 16, threshold_factor=factor
            )

    @pytest.mark.parametrize("p", [4, 8000])
    def test_full_arity_keys_are_answered_by_set_semantics(self, query, zipf_db, p):
        """A key covering every column is the tuple: no sketch is built for
        it, and its hitters are the exact statistics' — none when
        ``m/p >= 1``, else every tuple with frequency 1."""
        sketched = SketchedHeavyHitterStatistics.of(query, zipf_db, p)
        exact = HeavyHitterStatistics.of(query, zipf_db, p)
        full = [key for key in exact.hitters if len(key[1]) == 2]
        assert full and not set(full) & set(sketched.sketch_set.sketches)
        assert list(sketched.hitters) == list(exact.hitters)
        for key in full:
            assert sketched.hitters[key] == exact.hitters[key]
            m = zipf_db.relation(key[0]).cardinality
            assert len(exact.hitters[key]) == (0 if m / p >= 1 else m)


_PROVIDER_SURFACE = (
    "simple", "p", "threshold_factor", "hitters", "threshold",
    "heavy_hitters", "frequency", "total_heavy_count",
)


class TestOneProviderClass:
    """``heavy_of`` asks the class, not the shape: only the exact and the
    sketched statistics, thresholded for this ``p``, are providers."""

    @pytest.mark.parametrize("make, usable", [
        pytest.param(lambda exact, sketched: exact, True, id="exact"),
        pytest.param(lambda exact, sketched: sketched, True, id="sketched"),
        pytest.param(
            lambda exact, sketched: HeavyHitterStatistics(
                simple=exact.simple, p=16, threshold_factor=1.0,
                hitters=exact.hitters,
            ),
            False, id="other-p",
        ),
        pytest.param(lambda exact, sketched: exact.simple, False,
                     id="cardinalities"),
        pytest.param(lambda exact, sketched: None, False, id="none"),
        pytest.param(
            lambda exact, sketched: SimpleNamespace(**{
                name: getattr(exact, name) for name in _PROVIDER_SURFACE
            }),
            False, id="lookalike",
        ),
    ])
    def test_heavy_of_accepts_only_providers_for_this_p(
        self, query, zipf_db, make, usable
    ):
        p = 8
        stats = make(
            HeavyHitterStatistics.of(query, zipf_db, p),
            SketchedHeavyHitterStatistics.of(query, zipf_db, p),
        )
        assert heavy_of(stats, p) is (stats if usable else None)


class TestPlannerIntegration:
    def test_resolve_statistics_sketch_method(self, query, zipf_db):
        stats = resolve_statistics(
            query, None, 8, zipf_db, stats_method="sketch"
        )
        assert isinstance(stats, SketchedHeavyHitterStatistics)

    def test_resolve_statistics_rejects_unknown_method(self, query, zipf_db):
        with pytest.raises(ValueError, match="stats method"):
            resolve_statistics(query, None, 8, zipf_db, stats_method="tarot")

    def test_plan_accepts_sketched_statistics(self, query, zipf_db):
        exact_plan = plan(query, db=zipf_db, p=8)
        sketch_plan = plan(query, db=zipf_db, p=8, stats_method="sketch")
        assert isinstance(sketch_plan.stats, SketchedHeavyHitterStatistics)
        exact_keys = [pr.key for pr in exact_plan.applicable]
        sketch_keys = [pr.key for pr in sketch_plan.applicable]
        assert set(exact_keys) == set(sketch_keys)
        # Skew-aware algorithms priced the sketched hitters, not the
        # skew-free fallback: predictions exist and are finite.
        for pr in sketch_plan.applicable:
            assert pr.predicted_load_bits > 0

    @pytest.mark.parametrize("algorithm", [
        pytest.param(SkewAwareJoin, id="skew-join"),
        pytest.param(BinHyperCubeAlgorithm, id="bin-hypercube"),
    ])
    def test_skew_algorithms_run_from_sketched_stats(
        self, query, zipf_db, algorithm
    ):
        """Correctness needs *consistent* statistics, not exact ones: a
        narrow sketch reports spurious hitters, and the round is still
        complete (spurious hitters are safe; missed ones are not)."""
        p = 8
        sketched = SketchedHeavyHitterStatistics.of(
            query, zipf_db, p, config=SketchConfig(width=64)
        )
        report = sketch_fidelity(
            HeavyHitterStatistics.of(query, zipf_db, p), sketched
        )
        assert report["false_positives"] > 0
        result = run_rounds(
            algorithm(query, stats=sketched), zipf_db, p, verify=True
        )
        assert result.is_complete


class TestSweepIntegration:
    def test_stats_axis_doubles_the_grid(self):
        sweep = Sweep(
            QUERY, workload="zipf", p_values=(4,), m_values=(80,),
            skews=(1.2,), algorithms=("hashjoin", "skew-join"),
            stats=("exact", "sketch"),
        )
        cells = sweep.cells()
        assert len(cells) == 4
        assert {cell.stats for cell in cells} == {"exact", "sketch"}

    def test_records_carry_the_stats_method(self):
        result = Sweep(
            QUERY, workload="zipf", p_values=(4,), m_values=(80,),
            skews=(1.2,), algorithms=("skew-join",),
            stats=("exact", "sketch"),
        ).run()
        assert [r.stats for r in result.records] == ["exact", "sketch"]
        for record in result.records:
            assert record.max_load_bits > 0

    def test_cells_separate_stats_methods(self):
        result = Sweep(
            QUERY, workload="zipf", p_values=(4,), m_values=(80,),
            skews=(1.2,), algorithms=("hashjoin", "skew-join"),
            stats=("exact", "sketch"),
        ).run()
        assert len(result.by_cell()) == 2

    def test_unknown_stats_method_fails_before_running(self):
        with pytest.raises(ValueError, match="stats method"):
            Sweep(QUERY, stats=("exact", "psychic")).cells()

    def test_run_cell_with_sketch_stats(self):
        record = run_cell(Cell(
            query=QUERY, workload="zipf", m=80, skew=1.2, seed=0, p=4,
            algorithm="skew-join", stats="sketch",
        ))
        assert record.stats == "sketch"
        assert record.max_load_bits > 0

    def test_sweep_obs_times_the_stats_pass(self):
        obs = Observation.create()
        Sweep(
            QUERY, workload="zipf", p_values=(4,), m_values=(80,),
            skews=(1.2,), algorithms=("skew-join",), stats="sketch",
        ).run(obs=obs)
        metrics = obs.metrics.to_dict()
        assert "stats.build.seconds" in metrics["histograms"]
