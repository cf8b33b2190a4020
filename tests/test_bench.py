"""Tests for the benchmark harness and reporting."""

import numpy as np
import pytest

from repro.bench.harness import RunRecord, run_once, run_sweep
from repro.bench.report import format_kernel_profile, format_records, format_series
from repro.core.fdbscan import fdbscan
from repro.datasets import gaussian_blobs
from repro.device.device import Device


def _live_builds(records, kernel="bvh_build"):
    """Live (non-replayed) launches of ``kernel`` across a sweep's records."""
    return sum(
        r.kernels.get(kernel, {}).get("launches", 0)
        - r.kernels.get(kernel, {}).get("replayed", 0)
        for r in records
    )


@pytest.fixture(scope="module")
def small_blobs():
    return gaussian_blobs(300, centers=3, std=0.05, seed=0)


class TestRunOnce:
    def test_ok_record(self, small_blobs):
        rec = run_once("fdbscan", small_blobs, 0.2, 5, dataset="blobs")
        assert rec.status == "ok"
        assert rec.seconds > 0
        assert rec.n_clusters == 3
        assert rec.counters["distance_evals"] > 0
        assert rec.peak_bytes > 0

    def test_oom_record(self):
        rng = np.random.default_rng(0)
        X = rng.normal(0, 0.01, size=(400, 2))
        rec = run_once("gdbscan", X, 0.5, 5, capacity_bytes=1000)
        assert rec.status == "oom"
        assert "OOM" in rec.detail or "capacity" in rec.detail

    def test_fresh_device_per_run(self, small_blobs):
        a = run_once("fdbscan", small_blobs, 0.2, 5)
        b = run_once("fdbscan", small_blobs, 0.2, 5)
        assert a.counters["distance_evals"] == b.counters["distance_evals"]

    def test_tree_chunk_size_configures_the_device(self, small_blobs):
        rec = run_once("fdbscan", small_blobs, 0.2, 5, tree_kwargs={"chunk_size": 16})
        dev = Device(chunk_size=16)
        fdbscan(small_blobs, 0.2, 5, device=dev)
        assert rec.peak_bytes == dev.memory.peak_bytes
        assert rec.peak_bytes < run_once("fdbscan", small_blobs, 0.2, 5).peak_bytes

    def test_as_row_keys(self, small_blobs):
        row = run_once("fdbscan", small_blobs, 0.2, 5).as_row()
        assert {"algorithm", "seconds", "status", "clusters"} <= set(row)

    def test_kernels_profile_captured(self, small_blobs):
        rec = run_once("fdbscan", small_blobs, 0.2, 5)
        assert rec.kernels["bvh_build"]["launches"] == 1
        assert rec.kernels["fdbscan_main"]["seconds"] >= 0

    def test_oom_captures_counters_and_kernels(self):
        # an "oom" cell must still report the work done up to the failure
        rng = np.random.default_rng(0)
        X = rng.normal(0, 0.01, size=(400, 2))
        rec = run_once("gdbscan", X, 0.5, 5, capacity_bytes=1000)
        assert rec.status == "oom"
        assert rec.counters  # lost before the fix
        assert isinstance(rec.kernels, dict)
        assert rec.peak_bytes >= 0

    def test_error_captures_counters(self):
        rng = np.random.default_rng(0)
        rec = run_once("fdbscan", rng.normal(size=(20, 5)), 0.5, 3)
        assert rec.status == "error"
        assert isinstance(rec.counters, dict)


class TestRunSweep:
    def test_full_grid(self, small_blobs):
        cells = [{"eps": 0.2, "min_samples": m} for m in (3, 5)]
        records = run_sweep(
            ["fdbscan", "densebox"], cells, lambda c: small_blobs, dataset="blobs"
        )
        assert len(records) == 4
        assert all(r.status == "ok" for r in records)

    def test_time_budget_skips(self, small_blobs):
        cells = [{"eps": 0.2, "min_samples": m} for m in (3, 4, 5)]
        records = run_sweep(
            ["fdbscan"], cells, lambda c: small_blobs, time_budget=0.0
        )
        # first cell runs (and busts the budget), the rest are skipped
        assert records[0].status == "ok"
        assert all(r.status == "skipped" for r in records[1:])

    def test_skip_detail_names_tripping_cell(self, small_blobs):
        cells = [{"eps": 0.2, "min_samples": m} for m in (3, 4)]
        records = run_sweep(
            ["fdbscan"], cells, lambda c: small_blobs, time_budget=0.0
        )
        detail = records[1].detail
        assert f"n={small_blobs.shape[0]}" in detail
        assert "eps=0.2" in detail and "minpts=3" in detail
        assert "time budget" in detail

    def test_failed_cells_do_not_trip_budget(self):
        # an error cell takes "forever" relative to a 0-second budget, but
        # only successful cells may drop an algorithm from the sweep
        rng = np.random.default_rng(0)
        X5 = rng.normal(size=(30, 5))  # 5-D: tree algorithms error out
        cells = [{"eps": 0.5, "min_samples": 3}, {"eps": 0.6, "min_samples": 3}]
        records = run_sweep(["fdbscan"], cells, lambda c: X5, time_budget=0.0)
        assert [r.status for r in records] == ["error", "error"]

    def test_oom_cells_do_not_trip_budget(self):
        rng = np.random.default_rng(1)
        X = rng.normal(0, 0.01, size=(300, 2))
        cells = [{"eps": 0.5, "min_samples": 5}, {"eps": 0.4, "min_samples": 5}]
        records = run_sweep(
            ["gdbscan"], cells, lambda c: X, time_budget=0.0, capacity_bytes=1000
        )
        # both cells actually ran (and OOMed); neither was skipped
        assert [r.status for r in records] == ["oom", "oom"]

    def test_oom_does_not_abort_sweep(self):
        # G-DBSCAN's persistent adjacency graph busts the cap; FDBSCAN with
        # a bounded wavefront chunk stays under it.
        rng = np.random.default_rng(1)
        X = rng.normal(0, 0.01, size=(300, 2))
        cells = [{"eps": 0.5, "min_samples": 5}]
        records = run_sweep(
            ["gdbscan", "fdbscan"],
            cells,
            lambda c: X,
            capacity_bytes=400_000,
            tree_kwargs={"chunk_size": 16},
        )
        statuses = {r.algorithm: r.status for r in records}
        assert statuses["gdbscan"] == "oom"
        assert statuses["fdbscan"] == "ok"


class TestCellTimeout:
    def test_over_budget_cell_records_timeout(self, small_blobs):
        # a zero-second wall budget kills the cell at its first watchdog
        # check, which fires on the first kernel launch
        rec = run_once("fdbscan", small_blobs, 0.2, 5, cell_timeout=0.0)
        assert rec.status == "timeout"
        assert rec.detail  # the deadline's message, not a bare traceback

    def test_timeout_keeps_partial_counters(self, small_blobs):
        rec = run_once("fdbscan", small_blobs, 0.2, 5, cell_timeout=0.0)
        # the cell died mid-run but its accounting survives
        assert isinstance(rec.counters, dict)

    def test_generous_timeout_is_a_noop(self, small_blobs):
        rec = run_once("fdbscan", small_blobs, 0.2, 5, cell_timeout=3600.0)
        assert rec.status == "ok"
        assert rec.n_clusters == 3

    def test_timeouts_are_never_retried(self, small_blobs):
        from repro.faults import RetryPolicy

        rec = run_once(
            "fdbscan", small_blobs, 0.2, 5,
            cell_timeout=0.0, retry_policy=RetryPolicy(max_attempts=5),
        )
        assert rec.status == "timeout"
        assert rec.attempts == 1  # re-running inside a spent budget is pointless

    def test_sweep_threads_cell_timeout(self, small_blobs):
        cells = [{"eps": 0.2, "min_samples": 5}, {"eps": 0.3, "min_samples": 5}]
        records = run_sweep(
            ["fdbscan"], cells, lambda c: small_blobs, cell_timeout=0.0
        )
        assert [r.status for r in records] == ["timeout", "timeout"]

    def test_timeout_cells_do_not_abort_sweep(self, small_blobs):
        # budget applies per cell; later cells still run under their own
        records = run_sweep(
            ["fdbscan"], [{"eps": 0.2, "min_samples": 5}],
            lambda c: small_blobs, cell_timeout=3600.0,
        )
        assert [r.status for r in records] == ["ok"]


class TestSweepIndexReuse:
    """Acceptance: a two-algorithm eps-sweep builds each point set's BVH
    exactly once, with per-cell accounting identical to cold runs."""

    @pytest.fixture(scope="class")
    def sparse(self):
        # uniform points at small eps: dense_fraction ~ 0, so "auto"
        # resolves to fdbscan and shares the points tree with "fdbscan"
        return np.random.default_rng(7).uniform(0.0, 1.0, size=(600, 2))

    @pytest.fixture(scope="class")
    def cells(self):
        return [{"eps": e, "min_samples": 5} for e in (0.02, 0.03, 0.05)]

    def test_bvh_built_exactly_once(self, sparse, cells):
        records = run_sweep(["fdbscan", "auto"], cells, lambda c: sparse)
        assert all(r.status == "ok" for r in records)
        assert _live_builds(records) == 1
        # ...but every cell still accounts one (possibly replayed) build
        assert all(r.kernels["bvh_build"]["launches"] == 1 for r in records)
        assert [r.reused_index for r in records] == [False] + [True] * 5

    def test_results_and_counters_match_cold_sweep(self, sparse, cells):
        warm = run_sweep(["fdbscan", "auto"], cells, lambda c: sparse)
        cold = run_sweep(
            ["fdbscan", "auto"], cells, lambda c: sparse, reuse_index=False
        )
        assert _live_builds(cold) == len(cold) == 6
        for w, c in zip(warm, cold):
            assert (w.n_clusters, w.n_noise) == (c.n_clusters, c.n_noise)
            assert w.counters == c.counters
            assert w.peak_bytes == c.peak_bytes

    def test_distinct_point_sets_get_distinct_indexes(self):
        rng = np.random.default_rng(3)
        data = {
            200: rng.uniform(size=(200, 2)),
            400: rng.uniform(size=(400, 2)),
        }
        cells = [{"n": n, "eps": 0.03, "min_samples": 5} for n in (200, 400, 200)]
        records = run_sweep(["fdbscan"], cells, lambda c: data[c["n"]])
        # one live build per distinct point set; the revisited set replays
        assert _live_builds(records) == 2
        assert [r.reused_index for r in records] == [False, False, True]

    def test_baseline_only_sweep_skips_index(self, sparse):
        records = run_sweep(
            ["brute"], [{"eps": 0.05, "min_samples": 5}], lambda c: sparse
        )
        assert records[0].status == "ok"
        assert "bvh_build" not in records[0].kernels


class TestKernelProfileReport:
    def test_from_records(self, small_blobs):
        records = run_sweep(
            ["fdbscan"], [{"eps": 0.2, "min_samples": 5}], lambda c: small_blobs
        )
        out = format_kernel_profile(records, title="profile")
        lines = out.splitlines()
        assert lines[0] == "profile"
        assert lines[1].split()[:3] == ["kernel", "launches", "replayed"]
        assert any("bvh_build" in l for l in lines)
        assert any("%" in l for l in lines[3:])

    def test_from_device_profile_dict(self, small_blobs):
        rec = run_once("fdbscan", small_blobs, 0.2, 5)
        out = format_kernel_profile(rec.kernels)
        assert "fdbscan_main" in out

    def test_empty(self):
        assert "(no kernel launches)" in format_kernel_profile([])
        assert format_kernel_profile({}, title="t").startswith("t")


class TestHistoryKernelsRoundTrip:
    def test_kernels_and_reuse_flag_survive_save_load(self, small_blobs, tmp_path):
        from repro.bench.history import load_records, save_records

        records = run_sweep(
            ["fdbscan"],
            [{"eps": 0.2, "min_samples": m} for m in (3, 5)],
            lambda c: small_blobs,
        )
        path = tmp_path / "sweep.json"
        save_records(str(path), records, meta={"note": "test"})
        loaded, meta = load_records(str(path))
        assert meta == {"note": "test"}
        for orig, back in zip(records, loaded):
            assert back.reused_index == orig.reused_index
            assert set(back.kernels) == set(orig.kernels)
            for name, row in orig.kernels.items():
                assert back.kernels[name]["launches"] == row["launches"]
                assert back.kernels[name]["replayed"] == row["replayed"]
                assert back.kernels[name]["seconds"] == pytest.approx(row["seconds"])

    def test_old_payloads_without_kernels_still_load(self, tmp_path):
        import json

        payload = {
            "meta": {},
            "records": [
                {
                    "algorithm": "fdbscan", "dataset": "d", "n": 10, "eps": 0.1,
                    "min_samples": 5, "seconds": 0.5, "status": "ok",
                    "n_clusters": 1, "n_noise": 0, "dense_fraction": None,
                    "peak_bytes": 100, "counters": {},
                }
            ],
        }
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        from repro.bench.history import load_records

        (rec,), _ = load_records(str(path))
        assert rec.kernels == {}
        assert rec.reused_index is False


class TestReport:
    def _records(self):
        return [
            RunRecord("fdbscan", "d", 100, 0.1, 5, seconds=0.5, status="ok"),
            RunRecord("fdbscan", "d", 200, 0.1, 5, seconds=1.0, status="ok"),
            RunRecord("gdbscan", "d", 100, 0.1, 5, seconds=0.2, status="ok"),
            RunRecord("gdbscan", "d", 200, 0.1, 5, status="oom"),
        ]

    def test_series_layout(self):
        out = format_series(self._records(), x_key="n", title="panel")
        lines = out.splitlines()
        assert lines[0] == "panel"
        assert "100" in lines[1] and "200" in lines[1]
        assert lines[2].startswith("fdbscan")
        assert "oom" in lines[3]

    def test_records_table(self):
        out = format_records(self._records())
        assert "algorithm" in out.splitlines()[0]
        assert len(out.splitlines()) == 2 + 4

    def test_empty_records(self):
        assert format_records([]) == "(no records)"

    def test_selected_columns(self):
        out = format_records(self._records(), columns=["algorithm", "seconds"])
        assert out.splitlines()[0].split() == ["algorithm", "seconds"]


class TestAsciiLogLog:
    def _scaling_records(self):
        from repro.bench.report import ascii_loglog  # noqa: F401

        return [
            RunRecord("fdbscan", "d", n, 0.1, 5, seconds=n / 1e4, status="ok")
            for n in (1024, 2048, 4096)
        ] + [
            RunRecord("gdbscan", "d", 1024, 0.1, 5, seconds=0.01, status="ok"),
            RunRecord("gdbscan", "d", 2048, 0.1, 5, status="oom"),
        ]

    def test_plot_contains_glyphs_and_legend(self):
        from repro.bench.report import ascii_loglog

        out = ascii_loglog(self._scaling_records(), x_key="n", title="scal")
        assert out.startswith("scal")
        assert "o=fdbscan" in out
        assert "x=gdbscan" in out
        assert "o" in out.splitlines()[3] or any("o" in l for l in out.splitlines())

    def test_failed_cells_absent(self):
        from repro.bench.report import ascii_loglog

        out = ascii_loglog(self._scaling_records(), x_key="n")
        # only one gdbscan point plotted (the oom cell is dropped)
        body = "\n".join(out.splitlines()[1:-2])
        assert body.count("x") == 1

    def test_empty(self):
        from repro.bench.report import ascii_loglog

        assert "no plottable" in ascii_loglog([], x_key="n", title="t")


class TestErrorCapture:
    def test_arbitrary_failure_becomes_error_cell(self):
        # a 5-D input breaks the tree algorithms' validation — the sweep
        # must record an error cell, not die
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 5))
        rec = run_once("fdbscan", X, 0.5, 3)
        assert rec.status == "error"
        assert "ValueError" in rec.detail

    def test_error_does_not_abort_sweep(self):
        rng = np.random.default_rng(0)
        X5 = rng.normal(size=(20, 5))
        cells = [{"eps": 0.5, "min_samples": 3}]
        records = run_sweep(["fdbscan", "brute"], cells, lambda c: X5)
        statuses = {r.algorithm: r.status for r in records}
        assert statuses["fdbscan"] == "error"
        assert statuses["brute"] == "ok"  # baselines accept any d


class TestAsciiDensity:
    def test_basic_shape(self):
        from repro.bench.report import ascii_density

        rng = np.random.default_rng(0)
        out = ascii_density(rng.uniform(size=(500, 2)), width=40, height=10, title="t")
        lines = out.splitlines()
        assert lines[0] == "t"
        assert len(lines) == 12  # title + 10 rows + axis line
        assert all(len(l) == 40 for l in lines[1:11])
        assert "n=500" in lines[-1]

    def test_dense_spot_renders_darker(self):
        from repro.bench.report import ascii_density

        rng = np.random.default_rng(1)
        clump = rng.normal(0.2, 0.005, size=(900, 2))
        spread = rng.uniform(0, 1, size=(100, 2))
        out = ascii_density(np.concatenate([clump, spread]), width=30, height=10)
        assert "@" in out

    def test_3d_projection_axes(self):
        from repro.bench.report import ascii_density

        rng = np.random.default_rng(2)
        X = rng.uniform(size=(200, 3))
        a = ascii_density(X, axes=(0, 1))
        b = ascii_density(X, axes=(0, 2))
        assert a != b

    def test_empty(self):
        from repro.bench.report import ascii_density

        assert "(no points)" in ascii_density(np.zeros((0, 2)), title="e")

    def test_degenerate_single_point(self):
        from repro.bench.report import ascii_density

        out = ascii_density(np.array([[1.0, 1.0]]))
        assert "n=1" in out


class TestCellRetries:
    """run_once with a retry policy and fault plan: transient device
    faults retry on a fresh device instead of recording an error cell."""

    def _plan(self, attempts=1):
        from repro.faults import FaultPlan, FaultSpec

        return FaultPlan(0, FaultSpec(p_device_fault=1.0, fault_attempts=attempts))

    def test_transient_fault_retried_to_ok(self, small_blobs):
        from repro.faults import RetryPolicy

        rec = run_once(
            "fdbscan", small_blobs, 0.2, 5, dataset="blobs",
            retry_policy=RetryPolicy(max_attempts=3), fault_plan=self._plan(),
        )
        assert rec.status == "ok"
        assert rec.attempts == 2
        assert rec.faults == 1
        assert rec.as_row()["retries"] == 1

    def test_without_policy_fault_records_failure(self, small_blobs):
        rec = run_once(
            "fdbscan", small_blobs, 0.2, 5, dataset="blobs", fault_plan=self._plan()
        )
        assert rec.status in ("oom", "error")
        assert rec.attempts == 1
        assert rec.faults == 1

    def test_budget_exhaustion_records_failure(self, small_blobs):
        from repro.faults import RetryPolicy

        rec = run_once(
            "fdbscan", small_blobs, 0.2, 5, dataset="blobs",
            retry_policy=RetryPolicy(max_attempts=2), fault_plan=self._plan(attempts=5),
        )
        assert rec.status in ("oom", "error")
        assert rec.attempts == 2

    def test_sweep_forwards_fault_machinery(self, small_blobs):
        from repro.faults import RetryPolicy

        records = run_sweep(
            ["fdbscan"],
            [{"eps": 0.2, "min_samples": 5}],
            lambda cell: small_blobs,
            dataset="blobs",
            retry_policy=RetryPolicy(max_attempts=3),
            fault_plan=self._plan(),
        )
        assert [r.status for r in records] == ["ok"]
        assert records[0].attempts == 2

    def test_attempts_roundtrip_through_history(self, small_blobs, tmp_path):
        from repro.bench.history import load_records, save_records
        from repro.faults import RetryPolicy

        rec = run_once(
            "fdbscan", small_blobs, 0.2, 5, dataset="blobs",
            retry_policy=RetryPolicy(max_attempts=3), fault_plan=self._plan(),
        )
        path = str(tmp_path / "records.json")
        save_records(path, [rec])
        loaded, _ = load_records(path)
        assert loaded[0].attempts == rec.attempts == 2
        assert loaded[0].faults == rec.faults == 1
