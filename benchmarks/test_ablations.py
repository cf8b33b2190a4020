"""Ablation benches for the design choices DESIGN.md calls out.

1. **Leaf-index mask** (Section 4.1, Figure 1): with nothing pruned, the
   masked traversal must stream half the pairs and cut node visits /
   distance computations — "fewer memory accesses, reduced number of
   distance computations, and reduced number of Union-Find operations".
   In the main phase, which also skips pairs already joined, each side
   must stay within its pair bound and keep the labels.
2. **Early termination** (Section 3.2): stopping the core-count traversal
   at ``minpts`` must slash preprocessing work in dense regimes
   ("much faster than computing the full neighborhood, particularly when
   |N(x)| >> minpts").
3. **Auto heuristic** (Section 6 future work): ``algorithm='auto'`` must
   pick the faster of FDBSCAN / DenseBox in both of the regimes Figure 6
   exhibits.
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from benchmarks.conftest import bench_cell, dataset
from repro.bench.harness import run_once
from repro.bvh.aabb import boxes_from_points
from repro.bvh.builder import build_bvh
from repro.bvh.traversal import for_each_leaf_hit
from repro.core.api import choose_algorithm
from repro.core.fdbscan import fdbscan
from repro.device.device import Device

FIGURE_TITLE = "Ablations: mask / early-exit / auto"
X_KEY = "min_samples"

N = 8192


class TestMaskAblation:
    @pytest.mark.parametrize("use_mask", [True, False], ids=["masked", "unmasked"])
    def test_mask_runtime(self, benchmark, sink, use_mask):
        X = dataset("road3d", N)
        record = bench_cell(
            benchmark,
            sink,
            "fdbscan",
            X,
            0.02,
            10,
            dataset_name=f"road3d/{'mask' if use_mask else 'nomask'}",
            tree_kwargs={"use_mask": use_mask},
        )
        assert record.status == "ok"

    def test_mask_work_claims(self, benchmark):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        X = dataset("road3d", N)
        masked = run_once("fdbscan", X, 0.02, 10, tree_kwargs={"use_mask": True})
        unmasked = run_once("fdbscan", X, 0.02, 10, tree_kwargs={"use_mask": False})
        # The main phase skips pairs already joined, so neither side
        # resolves every pair: the masked one at most each unordered pair
        # once, the unmasked one at most twice.  Which side does less work
        # depends on how soon the components join (seeing each pair from
        # both ends joins them sooner); the exact 2x holds unpruned, below.
        n_pairs = len(cKDTree(X).query_pairs(0.02))
        assert 0 < masked.counters["pairs_processed"] <= n_pairs
        assert 0 < unmasked.counters["pairs_processed"] <= 2 * n_pairs
        # identical clustering
        assert (masked.n_clusters, masked.n_noise) == (unmasked.n_clusters, unmasked.n_noise)

    def test_mask_keeps_labels(self, benchmark):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        X = dataset("road3d", N)
        masked = fdbscan(X, 0.02, 10, use_mask=True)
        unmasked = fdbscan(X, 0.02, 10, use_mask=False)
        np.testing.assert_array_equal(masked.labels, unmasked.labels)
        np.testing.assert_array_equal(masked.is_core, unmasked.is_core)

    def test_mask_work_claims_without_pruning(self, benchmark):
        # The traversal alone, with no component mask, prunes nothing:
        # masked, it streams every unordered pair exactly once; unmasked,
        # once from each end, plus each query's own leaf.
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        X = dataset("road3d", N)
        tree = build_bvh(*boxes_from_points(X))
        pairs, devices = {}, {}
        for use_mask in (True, False):
            seen, devices[use_mask] = [], Device()

            def on_hits(q, leaf_pos, seen=seen):
                seen.append(np.count_nonzero(tree.order[leaf_pos] != q))

            for_each_leaf_hit(
                tree, X, 0.02, on_hits,
                mask_positions=tree.position if use_mask else None,
                device=devices[use_mask],
            )
            pairs[use_mask] = sum(seen)
        assert pairs[True] == len(cKDTree(X).query_pairs(0.02))
        assert pairs[True] * 2 == pairs[False]
        masked, unmasked = devices[True].counters, devices[False].counters
        assert masked.nodes_visited < unmasked.nodes_visited
        assert masked.distance_evals < unmasked.distance_evals


class TestEarlyExitAblation:
    @pytest.mark.parametrize("early_exit", [True, False], ids=["early", "full"])
    def test_early_exit_runtime(self, benchmark, sink, early_exit):
        X = dataset("ngsim", N)  # |N(x)| >> minpts regime
        record = bench_cell(
            benchmark,
            sink,
            "fdbscan",
            X,
            0.005,
            10,
            dataset_name=f"ngsim/{'early' if early_exit else 'full'}",
            tree_kwargs={"early_exit": early_exit},
        )
        assert record.status == "ok"

    def test_early_exit_work_claim(self, benchmark):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        X = dataset("ngsim", N)
        early = run_once("fdbscan", X, 0.005, 10, tree_kwargs={"early_exit": True})
        full = run_once("fdbscan", X, 0.005, 10, tree_kwargs={"early_exit": False})
        # preprocessing node visits collapse when stopping at minpts=10 in
        # a regime where |N(x)| is in the thousands.  Read off the count
        # kernel: contained-subtree credit makes even the full count cheap,
        # so the whole fit's total is mostly the (identical) main phase.
        def count_visits(rec):
            return rec.kernels["bvh_count"]["counters"]["nodes_visited"]

        assert count_visits(early) < count_visits(full) / 2
        assert (early.n_clusters, early.n_noise) == (full.n_clusters, full.n_noise)


class TestAutoHeuristic:
    @pytest.mark.parametrize(
        "name,eps,minpts",
        [("ngsim", 0.005, 100), ("hacc", 0.042, 300)],
        ids=["dense-2d", "sparse-3d"],
    )
    def test_auto_picks_the_faster_algorithm(self, benchmark, sink, name, eps, minpts):
        X = dataset(name, N)
        f = run_once("fdbscan", X, eps, minpts, dataset=name)
        d = run_once("fdbscan-densebox", X, eps, minpts, dataset=name)
        sink.add(f)
        sink.add(d)
        seconds = {"fdbscan": f.seconds, "fdbscan-densebox": d.seconds}
        choice = choose_algorithm(X, eps, minpts)
        record = bench_cell(benchmark, sink, "auto", X, eps, minpts, dataset_name=name)
        assert record.status == "ok"
        # The heuristic must land within noise of the measured optimum (in
        # regimes where the two algorithms tie — e.g. zero dense cells,
        # where DenseBox degenerates to FDBSCAN — either choice is right).
        best = min(seconds.values())
        assert seconds[choice] <= 1.3 * best, (
            f"heuristic chose {choice} ({seconds[choice]:.2f}s) but the "
            f"measured optimum was {best:.2f}s "
            f"(fdbscan {f.seconds:.2f}s vs densebox {d.seconds:.2f}s)"
        )


class TestTreeOrderAblation:
    """Section 1's structure choice: how much does the Morton layout buy?

    The same Karras builder over degraded orderings (scanline: sort by x
    only; shuffled: no spatial order) produces correct but slower trees —
    quantifying why "BVH was chosen for its good data and thread
    divergence characteristics" in combination with the Z-curve.
    """

    @pytest.mark.parametrize("order", ["morton", "scanline", "shuffled"])
    def test_order_runtime(self, benchmark, sink, order):
        import numpy as np

        from repro.bvh.aabb import boxes_from_points
        from repro.bvh.builder import build_bvh
        from repro.bvh.statistics import scanline_codes, shuffled_codes
        from repro.bvh.traversal import count_within
        from repro.device.device import Device
        from repro.bench.harness import RunRecord

        X = dataset("road3d", N)
        codes = None
        if order == "scanline":
            codes = scanline_codes(X)
        elif order == "shuffled":
            codes = shuffled_codes(X, seed=0)
        lo, hi = boxes_from_points(X)
        dev = Device()
        tree = build_bvh(lo, hi, device=dev, codes=codes)

        def run():
            count_within(tree, X, 0.02, device=dev)

        benchmark.pedantic(run, rounds=1, iterations=1)
        rec = RunRecord(
            algorithm=f"count/{order}",
            dataset="road3d",
            n=N,
            eps=0.02,
            min_samples=0,
            seconds=dev.phase_seconds().get("bvh_count", 0.0),
            counters=dev.counters.snapshot(),
        )
        sink.add(rec)

    def test_morton_is_cheapest(self, benchmark):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        import numpy as np

        from repro.bvh.aabb import boxes_from_points
        from repro.bvh.builder import build_bvh
        from repro.bvh.statistics import shuffled_codes
        from repro.bvh.traversal import count_within
        from repro.device.device import Device

        X = dataset("road3d", N)
        lo, hi = boxes_from_points(X)
        visits = {}
        for order, codes in (("morton", None), ("shuffled", shuffled_codes(X, seed=0))):
            dev = Device()
            tree = build_bvh(lo, hi, device=dev, codes=codes)
            count_within(tree, X, 0.02, device=dev)
            visits[order] = dev.counters.nodes_visited
        assert visits["morton"] < visits["shuffled"]


class TestIndexStructureAblation:
    """Section 4.2's rejected alternative: grid + binary searches vs the
    mixed-primitive BVH, on the dense 2-D regime both were designed for."""

    @pytest.mark.parametrize("algorithm", ["fdbscan-densebox", "grid"])
    def test_index_runtime(self, benchmark, sink, algorithm):
        X = dataset("portotaxi", N)
        record = bench_cell(
            benchmark,
            sink,
            algorithm,
            X,
            0.01,
            50,
            dataset_name="portotaxi/index",
        )
        assert record.status == "ok"

    def test_same_clustering(self, benchmark):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        X = dataset("portotaxi", N)
        a = run_once("fdbscan-densebox", X, 0.01, 50)
        b = run_once("grid", X, 0.01, 50)
        assert (a.n_clusters, a.n_noise) == (b.n_clusters, b.n_noise)
