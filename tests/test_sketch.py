"""Tests for the Count-Sketch core (repro.sketch.count_sketch)."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.sketch import (
    CountSketch,
    HierarchicalCountSketch,
    LARGE_PRIME,
    SketchError,
    mulmod61,
)


class TestMulmod61:
    def test_matches_python_bigints_on_random_operands(self):
        rng = np.random.default_rng(11)
        a = rng.integers(0, LARGE_PRIME, size=512, dtype=np.uint64)
        b = rng.integers(0, LARGE_PRIME, size=512, dtype=np.uint64)
        got = mulmod61(a, b)
        want = np.array(
            [(int(x) * int(y)) % LARGE_PRIME for x, y in zip(a, b)],
            dtype=np.uint64,
        )
        assert np.array_equal(got, want)

    def test_edge_operands(self):
        edges = [0, 1, 2, (1 << 32) - 1, 1 << 32, 1 << 60,
                 LARGE_PRIME - 2, LARGE_PRIME - 1]
        for x in edges:
            for y in edges:
                got = int(mulmod61(np.uint64(x), np.uint64(y)))
                assert got == (x * y) % LARGE_PRIME, (x, y)

    def test_broadcasts_like_numpy(self):
        a = np.arange(5, dtype=np.uint64)[:, None]
        b = np.arange(7, dtype=np.uint64)[None, :]
        assert mulmod61(a, b).shape == (5, 7)


class TestCountSketch:
    def _stream(self):
        # item i appears 10 * (i + 1) times
        return np.repeat(np.arange(64, dtype=np.uint64),
                         10 * (np.arange(64) + 1))

    def test_estimates_track_true_frequencies(self):
        sketch = CountSketch(1024, 5, np.random.default_rng(1))
        sketch.update_batch(self._stream())
        noise = 4 * sketch.noise_scale()
        for item in (0, 31, 63):
            true = 10 * (item + 1)
            assert abs(sketch.estimate(item) - true) <= noise

    def test_update_order_is_irrelevant(self):
        items = self._stream()
        forward = CountSketch(256, 3, np.random.default_rng(2))
        forward.update_batch(items)
        backward = CountSketch(256, 3, np.random.default_rng(2))
        backward.update_batch(items[::-1])
        assert np.array_equal(forward.table, backward.table)

    def test_counts_weight_updates(self):
        weighted = CountSketch(256, 3, np.random.default_rng(3))
        weighted.update_batch(np.array([7], dtype=np.uint64),
                              np.array([5], dtype=np.int64))
        repeated = CountSketch(256, 3, np.random.default_rng(3))
        repeated.update_batch(np.full(5, 7, dtype=np.uint64))
        assert np.array_equal(weighted.table, repeated.table)

    def test_same_seed_sketches_merge_bit_identically(self):
        items = self._stream()
        whole = CountSketch(512, 5, np.random.default_rng(4))
        whole.update_batch(items)
        left = CountSketch(512, 5, np.random.default_rng(4))
        right = CountSketch(512, 5, np.random.default_rng(4))
        left.update_batch(items[: len(items) // 2])
        right.update_batch(items[len(items) // 2:])
        left.merge(right)
        assert np.array_equal(left.table, whole.table)

    def test_merge_rejects_different_seeds(self):
        a = CountSketch(512, 5, np.random.default_rng(4))
        b = CountSketch(512, 5, np.random.default_rng(5))
        with pytest.raises(SketchError, match="hash seeds"):
            a.merge(b)

    def test_merge_rejects_different_shapes(self):
        a = CountSketch(512, 5, np.random.default_rng(4))
        b = CountSketch(256, 5, np.random.default_rng(4))
        with pytest.raises(SketchError):
            a.merge(b)

    def test_coefficients_come_from_the_given_generator_only(self):
        """Same-seed sketches are identical hash functions (RNG hygiene:
        nothing global leaks in)."""
        np.random.seed(12345)  # a polluted module-global RNG must not matter
        a = CountSketch(128, 4, np.random.default_rng(9))
        np.random.seed(54321)
        b = CountSketch(128, 4, np.random.default_rng(9))
        assert a.compatible_with(b)

    def test_invalid_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(SketchError):
            CountSketch(1, 5, rng)
        with pytest.raises(SketchError):
            CountSketch(16, 0, rng)


class TestMediansWithoutNumpyMa:
    """Estimates take the middle of a sorted axis, not ``np.median``, which
    imports ``numpy.ma`` in every process that sketches."""

    @pytest.mark.parametrize("depth", range(1, 7))
    def test_estimates_equal_np_median(self, depth):
        sketch = CountSketch(16, depth, np.random.default_rng(depth))
        items = np.arange(300, dtype=np.uint64) % 37
        sketch.update_batch(items)
        buckets, signs = sketch._hash(items)
        want = np.median(sketch.table[sketch._rows, buckets] * signs, axis=0)
        got = sketch.estimate_batch(items)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        l2 = np.median(np.sum(sketch.table.astype(np.float64) ** 2, axis=1))
        assert sketch.l2_estimate() == float(np.sqrt(l2))

    def test_a_sketching_process_never_loads_numpy_ma(self):
        program = (
            "import sys; from repro.cli import main; "
            "main(['stats', 'q(x,y,z) :- S1(x,z), S2(y,z)', '--workload', "
            "'zipf', '-m', '500', '-p', '8', '--json']); "
            "print('numpy.ma' in sys.modules)"
        )
        source = os.path.dirname(os.path.dirname(repro.__file__))
        done = subprocess.run(
            [sys.executable, "-c", program], text=True,
            capture_output=True, timeout=120, check=True,
            env={**os.environ, "PYTHONPATH": source},
        )
        assert '"updates"' in done.stdout
        assert done.stdout.split()[-1] == "False"


class TestHierarchicalCountSketch:
    def _heavy_stream(self, universe=10**6, seed=0):
        rng = np.random.default_rng(seed)
        return np.concatenate([
            np.repeat(np.uint64(123_456), 5_000),
            np.repeat(np.uint64(987), 3_000),
            rng.integers(0, universe, size=20_000, dtype=np.uint64),
        ])

    def test_levels_cover_the_universe(self):
        sketch = HierarchicalCountSketch(10**6, width=64, depth=3, base=10)
        assert 10 ** sketch.levels >= 10**6
        assert 10 ** (sketch.levels - 1) < 10**6

    def test_find_heavy_recovers_planted_items(self):
        sketch = HierarchicalCountSketch(10**6, width=1024, depth=5, seed=3)
        sketch.update_batch(self._heavy_stream())
        heavy = sketch.find_heavy(1_000.0, slack=3 * sketch.noise_scale())
        assert {123_456, 987} <= set(heavy)
        assert abs(heavy[123_456] - 5_000) <= 4 * sketch.noise_scale()

    def test_sharded_merge_is_bit_identical_to_single_pass(self):
        stream = self._heavy_stream()
        single = HierarchicalCountSketch(10**6, width=512, depth=4, seed=7)
        single.update_batch(stream)
        shards = [
            HierarchicalCountSketch(10**6, width=512, depth=4, seed=7)
            for _ in range(3)
        ]
        for i, shard in enumerate(shards):
            shard.update_batch(stream[i::3])
        merged = shards[0].merge(shards[1]).merge(shards[2])
        assert all(
            np.array_equal(mine, theirs)
            for mine, theirs in zip(merged.tables(), single.tables())
        )
        assert merged.update_count == single.update_count

    def test_merge_rejects_different_universes(self):
        a = HierarchicalCountSketch(10**6, width=64, depth=3, seed=1)
        b = HierarchicalCountSketch(10**5, width=64, depth=3, seed=1)
        with pytest.raises(SketchError):
            a.merge(b)

    def test_universe_beyond_hashing_domain_is_rejected(self):
        with pytest.raises(SketchError, match="2\\^61"):
            HierarchicalCountSketch(LARGE_PRIME + 1, width=64, depth=3)

    def test_empty_stream_has_no_heavy_hitters(self):
        sketch = HierarchicalCountSketch(1000, width=64, depth=3)
        assert sketch.find_heavy(1.0) == {}
        assert sketch.update_count == 0
