"""``traversal="auto"`` parity, determinism and gating.

Auto is a *dispatcher*, not an engine: per chunk it prices the single
and dual engines with built-in rates and runs the cheaper one.  Its
whole contract is that this choice is pure scheduling — labels,
``distance_evals`` and every other work counter must equal the single
engine's bit for bit across every scheduling knob (query order, chunk
size, dimension), and the same inputs must always produce the same
per-chunk decisions.  These tests pin both
halves of the contract, the Morton-schedule cache that feeds it, and
the CI smoke gates that price auto's regret.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.harness import RunRecord
from repro.bench.smoke import auto_regret_alarms, auto_selection_alarms
from repro.bvh.autotune import AUTO_MARGIN, EngineDecision, choose_engine
from repro.bvh.aabb import boxes_from_points
from repro.bvh.builder import build_bvh
from repro.bvh.traversal import for_each_leaf_hit, query_schedule
from repro.core.densebox import fdbscan_densebox
from repro.core.fdbscan import fdbscan
from repro.core.index import DBSCANIndex
from repro.device.device import Device


def _clustered(n: int = 700, d: int = 2, seed: int = 11) -> np.ndarray:
    """Two tight blobs plus a sparse background — the mix that makes the
    chooser pick dual on the dense chunks and single on the tail."""
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [
            rng.normal(0.0, 0.12, size=(n // 2, d)),
            rng.normal(1.5, 0.15, size=(n - n // 2 - n // 6, d)),
            rng.uniform(-1.0, 3.0, size=(n // 6, d)),
        ]
    )


def _run(X, traversal, **kwargs):
    dev = Device()
    res = fdbscan(X, 0.25, 5, device=dev, traversal=traversal, **kwargs)
    return res, dev


class TestAutoParity:
    @pytest.mark.parametrize("query_order", ["input", "morton"])
    @pytest.mark.parametrize("chunk_size", [128, 250])
    @pytest.mark.parametrize("d", [2, 3])
    def test_auto_equals_single_across_knobs(self, query_order, chunk_size, d):
        X = _clustered(d=d)
        base, bdev = _run(
            X, "single", query_order=query_order, chunk_size=chunk_size
        )
        auto, adev = _run(
            X, "auto", query_order=query_order, chunk_size=chunk_size
        )
        assert np.array_equal(auto.labels, base.labels)
        assert np.array_equal(auto.is_core, base.is_core)
        for counter in ("distance_evals", "scatter_adds", "pairs_processed"):
            assert adev.counters.snapshot().get(counter) == \
                bdev.counters.snapshot().get(counter), counter

    def test_auto_densebox_matches_single(self):
        X = _clustered()
        dev_s, dev_a = Device(), Device()
        base = fdbscan_densebox(X, 0.25, 5, device=dev_s, traversal="single")
        auto = fdbscan_densebox(X, 0.25, 5, device=dev_a, traversal="auto")
        assert np.array_equal(auto.labels, base.labels)
        assert dev_a.counters.distance_evals == dev_s.counters.distance_evals
        assert "auto" in auto.info

    def test_auto_picks_dual_on_clustered_cells(self):
        # the reason auto exists: clustered high-eps chunks go dual
        X = _clustered(n=1200)
        res, dev = _run(X, "auto", chunk_size=300)
        assert res.info["auto"]["dual_chunks"] >= 1
        assert res.info["auto"]["pred_cost_seconds"] > 0.0
        extra = dev.counters.extra
        assert (
            extra["auto_single_chunks"] + extra["auto_dual_chunks"]
            == res.info["auto"]["single_chunks"] + res.info["auto"]["dual_chunks"]
        )


def _radii(X, seed=12):
    """Random per-query radii, every ninth one zero."""
    radii = np.random.default_rng(seed).uniform(0.0, 0.3, X.shape[0])
    radii[::9] = 0.0
    return radii


def _decision_counters(tree, X, eps, **kwargs):
    dev = Device()
    for_each_leaf_hit(tree, X, eps, lambda q, p: None, device=dev,
                      traversal="auto", **kwargs)
    return dev.counters.snapshot()


class TestAutoPerQueryRadii:
    def test_chunk_priced_at_its_largest_radius(self):
        # one chunk whose largest radius is 0.25 makes the decision a
        # scalar eps=0.25 run makes
        X = _clustered()
        tree = build_bvh(*boxes_from_points(X))
        radii = _radii(X) * (0.25 / 0.3)
        radii[17] = 0.25
        counters = [
            _decision_counters(tree, X, eps, chunk_size=None)
            for eps in (radii, 0.25)
        ]
        for key in ("auto_single_chunks", "auto_dual_chunks", "auto_pred_cost_us"):
            assert counters[0].get(key) == counters[1].get(key), key


class TestChooserRegimes:
    def _case(self):
        X = _clustered(n=1200)
        tree = build_bvh(*boxes_from_points(X))
        return tree, X[query_schedule(X, "morton")][:300]

    def test_component_masked_chunks_go_single(self):
        tree, Xm = self._case()
        free = choose_engine(tree, Xm, 0.25, 32)
        masked = choose_engine(tree, Xm, 0.25, 32, component_masked=True)
        assert free.engine == "dual" and masked.engine == "single"
        assert masked.pred_dual_seconds == free.pred_dual_seconds

    def test_radius_below_group_extent_goes_single(self):
        # members of a group far wider than their balls share nothing
        tree, Xm = self._case()
        assert choose_engine(tree, Xm, 1e-3, 32).engine == "single"
        assert choose_engine(tree, Xm, 0.0, 32).engine == "single"


class TestAutoDeterminism:
    def test_same_inputs_same_decisions(self):
        X = _clustered()
        runs = [_run(X, "auto", chunk_size=200)[0].info["auto"] for _ in range(2)]
        assert runs[0] == runs[1]

    def test_choose_engine_is_a_pure_function(self):
        X = _clustered(n=400)
        tree = build_bvh(*boxes_from_points(X))
        decisions = [choose_engine(tree, X[:256], 0.25, 32) for _ in range(3)]
        assert all(d == decisions[0] for d in decisions)
        first = decisions[0]
        assert first.engine in ("single", "dual")
        expected = (
            first.pred_dual_seconds
            if first.engine == "dual"
            else first.pred_single_seconds
        )
        assert first.pred_seconds == expected > 0.0

    def test_margin_hysteresis(self):
        # the decision uses AUTO_MARGIN, not a bare comparison: dual must
        # be predicted meaningfully cheaper before it is chosen
        d = EngineDecision("single", pred_single_seconds=1.0,
                           pred_dual_seconds=AUTO_MARGIN + 0.01)
        assert d.pred_seconds == 1.0
        assert 0.0 < AUTO_MARGIN <= 1.0


class TestMortonScheduleCache:
    def test_schedule_cached_per_index(self):
        X = _clustered()
        index = DBSCANIndex(X)
        assert index.morton_builds == 0 and index.morton_hits == 0
        dev = Device()
        fdbscan(X, 0.25, 5, device=dev, traversal="dual", index=index)
        assert index.morton_builds == 1
        fdbscan(X, 0.2, 5, device=dev, traversal="auto", index=index)
        fdbscan(X, 0.25, 5, device=dev, traversal="single",
                query_order="morton", index=index)
        assert index.morton_builds == 1  # eps-independent: never rebuilt
        assert index.morton_hits >= 2

    def test_cached_schedule_changes_nothing(self):
        X = _clustered()
        index = DBSCANIndex(X)
        cold = fdbscan(X, 0.25, 5, device=Device(), traversal="dual")
        warm = fdbscan(X, 0.25, 5, device=Device(), traversal="dual",
                       index=index)
        warm2 = fdbscan(X, 0.25, 5, device=Device(), traversal="dual",
                        index=index)
        assert np.array_equal(cold.labels, warm.labels)
        assert np.array_equal(warm.labels, warm2.labels)


def _engine_triple(auto_seconds, single_seconds, dual_seconds,
                   auto_counters=None):
    common = dict(algorithm="fdbscan", dataset="d", n=100, eps=0.1,
                  min_samples=5)
    if auto_counters is None:
        auto_counters = {"auto_single_chunks": 1, "auto_dual_chunks": 1}
    return [
        RunRecord(**common, traversal="single", seconds=single_seconds),
        RunRecord(**common, traversal="dual", seconds=dual_seconds),
        RunRecord(**common, traversal="auto", seconds=auto_seconds,
                  counters=auto_counters),
    ]


class TestSmokeAutoGates:
    def test_regret_within_threshold_passes(self):
        records = _engine_triple(0.10, 0.12, 0.095)
        assert auto_regret_alarms(records, 1.1) == []

    def test_regret_over_threshold_alarms(self):
        records = _engine_triple(0.30, 0.12, 0.095)
        alarms = auto_regret_alarms(records, 1.1)
        assert len(alarms) == 1 and "auto wall" in alarms[0]

    def test_millisecond_cells_exempt(self):
        # at ~20ms the wall is launch noise, not the engine choice
        records = _engine_triple(0.040, 0.020, 0.022)
        assert auto_regret_alarms(records, 1.1) == []

    def test_non_deciding_cells_exempt(self):
        # a baseline algorithm carries the traversal key but never chooses
        records = _engine_triple(0.30, 0.12, 0.095, auto_counters={})
        assert auto_regret_alarms(records, 1.1) == []

    def test_selection_gate(self):
        chose_dual = _engine_triple(
            0.1, 0.1, 0.1,
            auto_counters={"auto_single_chunks": 3, "auto_dual_chunks": 1},
        )
        assert auto_selection_alarms(chose_dual) == []
        never_dual = _engine_triple(
            0.1, 0.1, 0.1,
            auto_counters={"auto_single_chunks": 4, "auto_dual_chunks": 0},
        )
        alarms = auto_selection_alarms(never_dual)
        assert len(alarms) == 1 and "never selected" in alarms[0]
        assert auto_selection_alarms(_engine_triple(0.1, 0.1, 0.1,
                                                    auto_counters={})) == []
