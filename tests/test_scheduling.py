"""Property tests for the output-preserving scheduling levers.

The traversal frontier pool, query chunking, buffered pair resolution
and the eps-keyed grid-binning cache are all *performance* levers: every one of them must leave the clustering labels and the
deterministic work counters bit-identical.  These tests pin that
contract, plus the frontier pool's memory-accounting guarantee (its
transient peak is monotone in ``chunk_size``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.bvh.aabb import boxes_from_points
from repro.bvh.builder import build_bvh
from repro.bvh.traversal import count_within
from repro.core.densebox import fdbscan_densebox
from repro.core.fdbscan import fdbscan
from repro.core.framework import PairResolver
from repro.core.index import DEFAULT_MAX_BINNINGS, DBSCANIndex
from repro.device.device import Device
from repro.device.primitives import scatter_add
from repro.unionfind.ecl import EclUnionFind

ALGORITHMS = {"fdbscan": fdbscan, "fdbscan-densebox": fdbscan_densebox}

#: Work counters that must not move under any scheduling choice.
INVARIANT_COUNTERS = (
    "distance_evals",
    "box_tests",
    "nodes_visited",
    "pairs_processed",
    "union_ops",
    "scatter_adds",
)


def _mixed_points(seed: int, n: int):
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [
            rng.normal(0.0, 0.05, size=(n // 2, 2)),
            rng.uniform(-1.0, 1.0, size=(n - n // 2, 2)),
        ]
    )


def _invariant_counters(dev: Device) -> dict:
    snap = dev.counters.snapshot()
    return {k: snap.get(k, 0) for k in INVARIANT_COUNTERS}


class TestChunkAndBufferParity:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    @given(seed=st.integers(0, 10_000), eps=st.floats(0.02, 0.3))
    @settings(max_examples=15, deadline=None)
    def test_labels_identical_across_chunk_sizes(self, name, seed, eps):
        # The deterministic border attachment makes labels (not merely the
        # partition) identical across chunkings; FDBSCAN's refresh epochs
        # depend on n alone, so its work counters are too.
        algo = ALGORITHMS[name]
        X = _mixed_points(seed, 120)
        dev0 = Device()
        baseline = algo(X, eps, 5, device=dev0, chunk_size=1)
        for chunk in (7, 100, None):
            dev = Device()
            result = algo(X, eps, 5, device=dev, chunk_size=chunk)
            np.testing.assert_array_equal(result.labels, baseline.labels)
            np.testing.assert_array_equal(result.is_core, baseline.is_core)
            assert _invariant_counters(dev) == _invariant_counters(dev0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_resolver_labels_identical_across_flushes(self, seed):
        # The same pairs, in the same batches, flushed after every batch,
        # after every 64 pairs and once at the end: union-find batch
        # boundaries change neither the labels nor the union/CAS work.
        X = _mixed_points(seed, 120)
        rng = np.random.default_rng(seed)
        pairs = cKDTree(X).query_pairs(0.1, output_type="ndarray")
        pairs = rng.permutation(pairs)
        flip = rng.random(pairs.shape[0]) < 0.5
        pairs[flip] = pairs[flip, ::-1]
        degree = np.bincount(pairs.ravel(), minlength=X.shape[0])
        is_core = degree + 1 >= 5
        cuts = np.cumsum(rng.integers(1, 17, size=pairs.shape[0]))
        batches = np.split(pairs, cuts[cuts < pairs.shape[0]])

        def resolve(flush_every):
            dev = Device()
            uf = EclUnionFind(X.shape[0], device=dev)
            resolver = PairResolver(uf, is_core, device=dev)
            held = 0
            for batch in batches:
                resolver.add(batch[:, 0], batch[:, 1])
                held += batch.shape[0]
                if flush_every is not None and held >= flush_every:
                    resolver.flush()
                    held = 0
            resolver.finalize()
            snap = dev.counters.snapshot()
            work = {k: snap[k] for k in ("pairs_processed", "union_ops", "cas_attempts", "cas_successes")}
            return uf.finalize().copy(), work

        labels, work = resolve(None)
        assert work["pairs_processed"] == pairs.shape[0]
        for flush_every in (1, 64):
            other_labels, other_work = resolve(flush_every)
            np.testing.assert_array_equal(other_labels, labels)
            assert other_work == work


class TestBinningCache:
    def test_minpts_sweep_bins_once(self):
        # The ROADMAP item this PR closes: a minpts sweep at fixed eps
        # re-thresholds the cached binning instead of redecomposing.
        X = _mixed_points(5, 300)
        index = DBSCANIndex(X)
        dev = Device()
        sweep = {}
        for minpts in (3, 5, 8, 12):
            sweep[minpts] = fdbscan_densebox(X, 0.1, minpts, device=dev, index=index)
        assert index.binning_builds == 1
        assert index.binning_hits == 3
        # exactly one *live* grid binning ran on the device; the warm hits
        # replayed the recorded cost (counter totals still look cold).
        grid_bin = dev.profile()["grid_bin"]
        assert grid_bin["launches"] - grid_bin["replayed"] == 1
        assert grid_bin["replayed"] == 3
        assert dev.counters.extra["grid_binnings"] == 4
        # the cache is output-preserving: each sweep cell matches a cold run
        for minpts, warm in sweep.items():
            cold = fdbscan_densebox(X, 0.1, minpts)
            np.testing.assert_array_equal(warm.labels, cold.labels)

    def test_warm_binning_cold_threshold_accounting_matches_cold(self):
        # A *new* (eps, minpts) key at a warm eps replays the binning and
        # runs only the threshold + tree live; its device totals must be
        # indistinguishable from a fully cold decomposition.
        X = _mixed_points(6, 250)
        cold_dev = Device()
        cold = fdbscan_densebox(X, 0.1, 4, device=cold_dev)
        warm_dev = Device()
        index = DBSCANIndex(X)
        fdbscan_densebox(X, 0.1, 9, device=Device(), index=index)  # seeds eps=0.1
        warm = fdbscan_densebox(X, 0.1, 4, device=warm_dev, index=index)
        np.testing.assert_array_equal(warm.labels, cold.labels)
        assert warm_dev.counters.snapshot() == cold_dev.counters.snapshot()

    def test_binning_cache_fifo_bound(self):
        X = _mixed_points(7, 100)
        index = DBSCANIndex(X)
        eps_values = 0.05 * (1 + np.arange(DEFAULT_MAX_BINNINGS + 1))
        for eps in eps_values:
            index.grid_binning(eps)
        assert len(index._binnings) == DEFAULT_MAX_BINNINGS
        # the oldest eps was evicted; re-requesting it builds live again
        _, reused = index.grid_binning(eps_values[0])
        assert not reused
        assert index.binning_builds == DEFAULT_MAX_BINNINGS + 2

    def test_weighted_and_unweighted_share_binning(self):
        X = _mixed_points(8, 150)
        w = np.random.default_rng(0).uniform(0.5, 2.0, size=150)
        index = DBSCANIndex(X)
        fdbscan_densebox(X, 0.1, 5, index=index)
        fdbscan_densebox(X, 0.1, 5, index=index, sample_weight=w)
        # different dense cells (weights differ), one shared binning
        assert index.binning_builds == 1
        assert index.binning_hits == 1


class TestFrontierPool:
    def test_peak_monotone_in_chunk_size(self):
        # The pool grows to exactly the requested high-water mark, and a
        # larger chunk's frontier is the union of its sub-chunks' at every
        # step — so the transient peak can only grow with chunk_size.
        X = _mixed_points(9, 400)
        lo, hi = boxes_from_points(X)
        peaks = []
        for chunk in (32, 64, 128, 256, 400):
            dev = Device()
            tree = build_bvh(lo, hi, device=dev)
            count_within(tree, X, 0.1, device=dev, chunk_size=chunk)
            peaks.append(dev.memory.report()["peak_by_tag"]["frontier"])
        assert peaks == sorted(peaks)
        assert peaks[0] > 0

    def test_pool_released_after_traversal(self):
        X = _mixed_points(10, 200)
        dev = Device()
        lo, hi = boxes_from_points(X)
        tree = build_bvh(lo, hi, device=dev)
        count_within(tree, X, 0.1, device=dev)
        assert dev.memory.peak_by_tag["frontier"] > 0
        assert dev.memory.live_by_tag.get("frontier", 0) == 0

    def test_frontier_peak_counter_recorded(self):
        X = _mixed_points(11, 150)
        dev = Device()
        lo, hi = boxes_from_points(X)
        tree = build_bvh(lo, hi, device=dev)
        count_within(tree, X, 0.1, device=dev, chunk_size=50)
        # the peak counts live (query, node) frontier entries — many nodes
        # per query, so it exceeds chunk_size but is bounded by the pool.
        assert dev.counters.frontier_peak > 0
        assert dev.counters.frontier_peak * 8 <= dev.memory.peak_by_tag["frontier"]


class TestScatterAdd:
    def test_matches_add_at_unweighted(self):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 20, size=500)
        expected = np.zeros(20, dtype=np.int64)
        np.add.at(expected, idx, 1)
        out = np.zeros(20, dtype=np.int64)
        scatter_add(out, idx)
        np.testing.assert_array_equal(out, expected)

    def test_matches_add_at_weighted(self):
        rng = np.random.default_rng(1)
        idx = rng.integers(0, 15, size=300)
        w = rng.uniform(0.1, 2.0, size=300)
        expected = np.zeros(15)
        np.add.at(expected, idx, w)
        out = np.zeros(15)
        scatter_add(out, idx, w)
        np.testing.assert_allclose(out, expected)

    def test_bool_values_count_true(self):
        idx = np.array([0, 1, 1, 2, 2, 2])
        mask = np.array([True, False, True, True, True, False])
        out = np.zeros(3, dtype=np.int64)
        scatter_add(out, idx, mask)
        np.testing.assert_array_equal(out, [1, 1, 2])

    def test_counter_increment(self, device):
        out = np.zeros(4, dtype=np.int64)
        scatter_add(out, np.array([0, 1, 2]), counters=device.counters)
        scatter_add(out, np.array([3, 3]), counters=device.counters)
        assert device.counters.extra["scatter_adds"] == 5

    def test_empty_index_noop(self):
        out = np.ones(3, dtype=np.int64)
        scatter_add(out, np.zeros(0, dtype=np.int64))
        np.testing.assert_array_equal(out, [1, 1, 1])

    def test_out_of_range_rejected(self):
        out = np.zeros(3, dtype=np.int64)
        with pytest.raises(ValueError, match="out of range"):
            scatter_add(out, np.array([0, 3]))
        with pytest.raises(ValueError, match="out of range"):
            scatter_add(out, np.array([-1]))
