"""Parity and pruning tests for the dual (query-aggregated) traversal.

The dual engine is a pure work-scheduling change: every test here pins
the contract that labels, delivered hits and ``distance_evals`` are
*bit-identical* to the single-query engine, while the pruning counters
(``box_tests``/``nodes_visited``, plus the new ``group_box_tests`` /
``box_tests_saved``) account the aggregated traversal honestly.
"""

import numpy as np
import pytest

from repro.bvh.aabb import boxes_from_points
from repro.bvh.builder import build_bvh
from repro.bvh.qgroups import SPARSE_LEAF_EXT_FACTOR, SPARSE_LEAF_MIN, build_query_bvh
from repro.bvh.traversal import (
    _FrontierPool,
    count_within,
    for_each_leaf_hit,
    query_schedule,
    refresh_node_components,
)
from repro.core.densebox import fdbscan_densebox
from repro.core.fdbscan import fdbscan
from repro.core.index import DBSCANIndex
from repro.device.device import Device

ALGORITHMS = {"fdbscan": fdbscan, "fdbscan-densebox": fdbscan_densebox}


def clustered_points(rng, n, dim):
    """A clustered set (the regime group pruning is built for) + noise."""
    centers = rng.uniform(0.0, 4.0, size=(6, dim))
    per = n // 8
    blobs = [c + rng.normal(0.0, 0.08, size=(per, dim)) for c in centers]
    noise = rng.uniform(0.0, 4.0, size=(n - 6 * per, dim))
    return np.concatenate(blobs + [noise])


def point_tree(X, device=None):
    lo, hi = boxes_from_points(X)
    return build_bvh(lo, hi, device=device)


class TestClusteringParity:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    @pytest.mark.parametrize("dim", [2, 3])
    def test_labels_and_distance_evals_identical(self, rng, name, dim):
        X = clustered_points(rng, 600, dim)
        runs = {}
        for traversal in ("single", "dual"):
            dev = Device(name=f"parity-{traversal}")
            res = ALGORITHMS[name](X, 0.15, 5, device=dev, traversal=traversal)
            runs[traversal] = (res, dev.counters.snapshot())
        single, s_counts = runs["single"]
        dual, d_counts = runs["dual"]
        np.testing.assert_array_equal(dual.labels, single.labels)
        np.testing.assert_array_equal(dual.is_core, single.is_core)
        assert d_counts["distance_evals"] == s_counts["distance_evals"]
        assert d_counts["scatter_adds"] == s_counts["scatter_adds"]
        assert single.info["traversal"] == "single"
        assert dual.info["traversal"] == "dual"

    @pytest.mark.parametrize("chunk_size", [None, 17, 64])
    def test_parity_across_chunk_sizes(self, rng, chunk_size):
        X = clustered_points(rng, 400, 2)
        outs = [
            ALGORITHMS["fdbscan"](
                X, 0.15, 5, chunk_size=chunk_size, traversal=t
            ).labels
            for t in ("single", "dual")
        ]
        np.testing.assert_array_equal(outs[0], outs[1])

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_weighted_parity(self, rng, name):
        # Float weights make the core test accumulation-order sensitive:
        # parity here means the dual engine delivers each query's hits in
        # the same order the single engine does, bit for bit.
        X = clustered_points(rng, 500, 2)
        w = rng.uniform(0.25, 3.0, size=X.shape[0])
        single = ALGORITHMS[name](X, 0.15, 4.0, sample_weight=w, traversal="single")
        dual = ALGORITHMS[name](X, 0.15, 4.0, sample_weight=w, traversal="dual")
        np.testing.assert_array_equal(dual.labels, single.labels)
        np.testing.assert_array_equal(dual.is_core, single.is_core)

    def test_index_preference_and_override(self, rng):
        X = clustered_points(rng, 300, 2)
        index = DBSCANIndex(X, traversal="dual")
        res = fdbscan(X, 0.15, 5, index=index)
        assert res.info["traversal"] == "dual"
        res = fdbscan(X, 0.15, 5, index=index, traversal="single")
        assert res.info["traversal"] == "single"
        with pytest.raises(ValueError, match="traversal"):
            DBSCANIndex(X, traversal="triple")


class TestTraversalParity:
    @pytest.mark.parametrize("stop_at", [None, 5])
    def test_count_within_counts_and_evals(self, rng, stop_at):
        X = clustered_points(rng, 700, 2)
        tree = point_tree(X)
        results = {}
        for traversal in ("single", "dual"):
            dev = Device(name=f"cw-{traversal}")
            counts = count_within(
                tree, X, 0.12, stop_at=stop_at, device=dev, traversal=traversal
            )
            results[traversal] = (counts, dev.counters.snapshot())
        np.testing.assert_array_equal(results["dual"][0], results["single"][0])
        assert (
            results["dual"][1]["distance_evals"]
            == results["single"][1]["distance_evals"]
        )

    def test_leaf_hits_identical_with_mask_and_early_exit(self, rng):
        # The fused main phase's exact configuration: a traversal mask,
        # a monotone finished_fn, streaming callbacks.
        X = clustered_points(rng, 500, 2)
        tree = point_tree(X)
        m = X.shape[0]
        sorted_pos = np.empty(m, dtype=np.int64)
        sorted_pos[tree.order] = np.arange(m)
        budget = 40

        def run(traversal):
            seen = np.zeros(m, dtype=np.int64)
            hits = []

            def on_hits(q_ids, leaf_pos):
                np.add.at(seen, q_ids, 1)
                hits.append((q_ids.copy(), leaf_pos.copy()))

            dev = Device(name=f"hits-{traversal}")
            for_each_leaf_hit(
                tree, X, 0.12, on_hits,
                mask_positions=sorted_pos,
                finished_fn=lambda ids: seen[ids] >= budget,
                device=dev, chunk_size=129, traversal=traversal,
            )
            q = np.concatenate([h[0] for h in hits]) if hits else np.zeros(0, int)
            p = np.concatenate([h[1] for h in hits]) if hits else np.zeros(0, int)
            return q, p, dev.counters.snapshot()

        sq, sp, sc = run("single")
        dq, dp, dc = run("dual")
        # identical hit multisets (delivery interleaving may differ)
        order_s = np.lexsort((sp, sq))
        order_d = np.lexsort((dp, dq))
        np.testing.assert_array_equal(dq[order_d], sq[order_s])
        np.testing.assert_array_equal(dp[order_d], sp[order_s])
        assert dc["distance_evals"] == sc["distance_evals"]

    def test_invalid_traversal_rejected(self, rng):
        X = rng.uniform(0, 1, size=(20, 2))
        tree = point_tree(X)
        with pytest.raises(ValueError, match="traversal"):
            count_within(tree, X, 0.1, traversal="triple")


def per_query_case(rng, d=2):
    """Clustered points with random per-query radii (a tenth of them zero)
    plus an exact lattice — coordinates and radii are binary fractions, so
    every lattice radius lands *exactly* on lattice distances (ties)."""
    X = clustered_points(rng, 400, d)
    radii = rng.uniform(0.0, 0.2, X.shape[0])
    radii[rng.random(X.shape[0]) < 0.1] = 0.0
    g = 5.0 + 0.125 * np.arange(10 if d == 2 else 5)
    lattice = np.stack(np.meshgrid(*[g] * d), axis=-1).reshape(-1, d)
    # 0.625 is the hypotenuse of the (0.375, 0.5) lattice step: exact too
    lat_r = rng.choice([0.0, 0.125, 0.25, 0.375, 0.625], lattice.shape[0])
    return np.concatenate([X, lattice]), np.concatenate([radii, lat_r])


def hit_stream(tree, X, eps, traversal, config="plain", chunk_size=97,
               query_order="input"):
    """Run one traversal; return its concatenated hit stream and counters.

    ``config`` adds the traversal mask, a monotone early exit, or a
    component mask (queries never see their own component)."""
    m = X.shape[0]
    kw = {}
    seen = np.zeros(m, dtype=np.int64)
    if config == "mask":
        sorted_pos = np.empty(m, dtype=np.int64)
        sorted_pos[tree.order] = np.arange(m)
        kw["mask_positions"] = sorted_pos
    elif config == "finished":
        kw["finished_fn"] = lambda ids: seen[ids] >= 6
    elif config == "component":
        comp = np.digitize(X[:, 0], [1.0, 2.0, 3.0]).astype(np.int64)
        node_comp = np.empty(tree.node_lo.shape[0], dtype=np.int64)
        refresh_node_components(tree, comp, node_comp)
        kw.update(component_of=comp, node_components=node_comp)
    hits = []

    def on_hits(q_ids, leaf_pos):
        np.add.at(seen, q_ids, 1)
        hits.append((q_ids.astype(np.int64), leaf_pos.astype(np.int64)))

    dev = Device(name=f"pq-{traversal}")
    for_each_leaf_hit(
        tree, X, eps, on_hits, device=dev, chunk_size=chunk_size,
        query_order=query_order, traversal=traversal, **kw,
    )
    q = np.concatenate([h[0] for h in hits]) if hits else np.zeros(0, np.int64)
    p = np.concatenate([h[1] for h in hits]) if hits else np.zeros(0, np.int64)
    return q, p, dev.counters.snapshot()


def per_query_order(q, p):
    """Each query's hits in delivery order (engines may interleave queries
    differently, but every query must see its own hits in the same order)."""
    order = np.argsort(q, kind="stable")
    return q[order], p[order]


class TestPerQueryRadii:
    @pytest.mark.parametrize("config", ["plain", "mask", "finished", "component"])
    @pytest.mark.parametrize("traversal", ["dual", "auto"])
    @pytest.mark.parametrize(
        "query_order,chunk_size,d",
        [("input", 97, 2), ("morton", 250, 2), ("input", 250, 3), ("morton", 97, 3)],
    )
    def test_engines_match_single(self, rng, traversal, config, query_order,
                                  chunk_size, d):
        X, radii = per_query_case(rng, d)
        tree = point_tree(X)
        kw = dict(chunk_size=chunk_size, query_order=query_order)
        sq, sp, sc = hit_stream(tree, X, radii, "single", config, **kw)
        q, p, c = hit_stream(tree, X, radii, traversal, config, **kw)
        assert sq.size > 0
        for got, want in zip(per_query_order(q, p), per_query_order(sq, sp)):
            np.testing.assert_array_equal(got, want)
        assert c["distance_evals"] == sc["distance_evals"]

    def test_tight_radii_split_wide_leaves(self, rng):
        # a leaf much wider than its members' balls keeps splitting, down
        # to SPARSE_LEAF_MIN members
        X = clustered_points(rng, 600, 2)
        X = X[query_schedule(X, "morton")]
        pool = _FrontierPool(Device(), 2, tag="qgroups")
        try:
            qg = build_query_bvh(X, None, 32, np.full(X.shape[0], 1e-3), pool)
            leaves = np.arange(qg.n_inner, qg.n_nodes)
            size = qg.mem_hi[leaves] - qg.mem_lo[leaves]
            tight = qg.ext[leaves] <= SPARSE_LEAF_EXT_FACTOR * qg.r_max[leaves]
            assert (tight | (size <= SPARSE_LEAF_MIN)).all()
            assert (size <= SPARSE_LEAF_MIN).any()
        finally:
            pool.release()

    def test_hits_are_exactly_the_per_query_balls(self, rng):
        X, radii = per_query_case(rng)
        tree = point_tree(X)
        q, p, _ = hit_stream(tree, X, radii, "dual")
        d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(-1)
        want_q, want_i = np.nonzero(d2 <= (radii * radii)[:, None])
        got = np.lexsort((tree.order[p], q))
        np.testing.assert_array_equal(q[got], want_q)
        np.testing.assert_array_equal(tree.order[p][got], want_i)

    @pytest.mark.parametrize("traversal", ["single", "dual", "auto"])
    @pytest.mark.parametrize("config", ["plain", "mask", "finished"])
    def test_scalar_equals_constant_array(self, rng, traversal, config):
        X = clustered_points(rng, 500, 2)
        tree = point_tree(X)
        scalar = hit_stream(tree, X, 0.12, traversal, config)
        array = hit_stream(tree, X, np.full(X.shape[0], 0.12), traversal, config)
        np.testing.assert_array_equal(array[0], scalar[0])
        np.testing.assert_array_equal(array[1], scalar[1])
        assert array[2] == scalar[2]
        for stop_at in (None, 5):
            np.testing.assert_array_equal(
                count_within(tree, X, np.full(X.shape[0], 0.12), stop_at=stop_at,
                             traversal=traversal),
                count_within(tree, X, 0.12, stop_at=stop_at, traversal=traversal),
            )


class TestPruning:
    def test_dual_prunes_at_core_distance_radii(self):
        # HDBSCAN's tight per-query radii (kNN rounds, Borůvka) on
        # clustered data: the dual engine's pruning total stays under the
        # CI smoke's 0.7x of single's (0.94x without the sparse-leaf rule)
        from repro.datasets.registry import load_dataset
        from repro.hierarchy.hdbscan import hdbscan

        X = load_dataset("ngsim", n=2000, seed=0)
        work = {}
        for traversal in ("single", "dual"):
            dev = Device()
            hdbscan(X, min_cluster_size=5, min_samples=5, device=dev,
                    traversal=traversal)
            c = dev.counters.snapshot()
            work[traversal] = (c.get("box_tests", 0) + c.get("nodes_visited", 0)
                               + c.get("group_box_tests", 0))
        assert work["dual"] <= 0.7 * work["single"]

    def test_dual_prunes_clustered_data(self, rng):
        # The acceptance property: on clustered data the dual engine's
        # total pruning work (box tests, group tests and frontier node
        # visits) undercuts the single engine's — and never exceeds it.
        X = clustered_points(rng, 2000, 2)
        work = {}
        for traversal in ("single", "dual"):
            dev = Device(name=f"prune-{traversal}")
            tree = point_tree(X, device=dev)
            count_within(tree, X, 0.1, device=dev, traversal=traversal)
            work[traversal] = dev.counters.snapshot()
        s, d = work["single"], work["dual"]
        assert d["nodes_visited"] <= s["nodes_visited"]
        dual_total = (
            d.get("box_tests", 0) + d.get("group_box_tests", 0) + d["nodes_visited"]
        )
        single_total = s["box_tests"] + s["nodes_visited"]
        assert dual_total <= single_total
        # the clustered regime should beat the acceptance bar (>= 30%)
        assert dual_total <= 0.7 * single_total
        assert d.get("group_box_tests", 0) > 0
        assert d.get("box_tests_saved", 0) > 0

    def test_single_engine_has_no_group_counters(self, rng):
        X = clustered_points(rng, 300, 2)
        dev = Device(name="single-only")
        tree = point_tree(X, device=dev)
        count_within(tree, X, 0.1, device=dev, traversal="single")
        snap = dev.counters.snapshot()
        assert snap.get("group_box_tests", 0) == 0
        assert snap.get("box_tests_saved", 0) == 0
