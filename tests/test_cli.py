"""Tests for the command-line interface (in-process, via main(argv))."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.datasets import gaussian_blobs
from repro.datasets.io import save_points


@pytest.fixture
def points_file(tmp_path):
    X = gaussian_blobs(300, centers=3, std=0.05, seed=0)
    path = str(tmp_path / "pts.npy")
    save_points(path, X)
    return path


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_eps_required(self):
        # --eps is a run-time requirement (not a parser one) so that
        # --algorithm hdbscan, which has no eps, can omit it
        args = build_parser().parse_args(["cluster", "--minpts", "5"])
        assert args.eps is None
        with pytest.raises(SystemExit, match="--eps is required"):
            main(["cluster", "--dataset", "ngsim", "--n", "100", "--minpts", "5"])
        with pytest.raises(SystemExit, match="--eps"):
            main(["bench", "--dataset", "ngsim", "--n", "100", "--minpts", "5"])

    def test_dataset_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cluster", "--dataset", "mnist", "--eps", "1", "--minpts", "2"]
            )


class TestClusterCommand:
    def test_cluster_file(self, points_file, capsys):
        rc = main(["cluster", points_file, "--eps", "0.2", "--minpts", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "n_clusters : 3" in out

    def test_cluster_named_dataset(self, capsys):
        rc = main(
            [
                "cluster",
                "--dataset",
                "portotaxi",
                "--n",
                "2000",
                "--eps",
                "0.005",
                "--minpts",
                "10",
            ]
        )
        assert rc == 0
        assert "n_clusters" in capsys.readouterr().out

    def test_cluster_hdbscan_no_eps(self, points_file, capsys):
        rc = main(
            [
                "cluster", points_file, "--minpts", "5",
                "--algorithm", "hdbscan", "--min-cluster-size", "10",
                "--counters",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "algorithm : hdbscan" in out
        assert "mst_algorithm : boruvka" in out
        assert "boruvka_rounds" in out

    def test_cluster_hdbscan_prim(self, points_file, capsys):
        rc = main(
            [
                "cluster", points_file, "--minpts", "5",
                "--algorithm", "hdbscan", "--mst", "prim",
            ]
        )
        assert rc == 0
        assert "mst_algorithm : prim" in capsys.readouterr().out

    def test_counters_flag(self, points_file, capsys):
        main(
            [
                "cluster",
                points_file,
                "--eps",
                "0.2",
                "--minpts",
                "5",
                "--algorithm",
                "fdbscan",
                "--counters",
            ]
        )
        out = capsys.readouterr().out
        assert "distance_evals" in out
        assert "peak_bytes" in out

    def test_labels_out(self, points_file, tmp_path, capsys):
        out_path = str(tmp_path / "labels.npy")
        main(
            [
                "cluster",
                points_file,
                "--eps",
                "0.2",
                "--minpts",
                "5",
                "--labels-out",
                out_path,
            ]
        )
        labels = np.load(out_path)
        assert labels.shape == (300,)
        assert set(np.unique(labels)) >= {0, 1, 2}

    def test_subsampling_input_file(self, points_file, capsys):
        rc = main(
            ["cluster", points_file, "--n", "100", "--eps", "0.2", "--minpts", "3"]
        )
        assert rc == 0
        assert "n_points : 100" in capsys.readouterr().out

    def test_missing_input(self):
        with pytest.raises(SystemExit):
            main(["cluster", "--eps", "0.2", "--minpts", "5"])

    def test_profile_flag(self, points_file, capsys):
        rc = main(
            [
                "cluster",
                points_file,
                "--eps",
                "0.2",
                "--minpts",
                "5",
                "--algorithm",
                "fdbscan",
                "--profile",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "kernel profile" in out
        assert "bvh_build" in out
        assert "fdbscan_main" in out


class TestBenchCommand:
    def test_minpts_sweep(self, points_file, capsys):
        rc = main(
            [
                "bench",
                points_file,
                "--eps",
                "0.2",
                "--minpts-sweep",
                "3,5",
                "--algorithms",
                "fdbscan,densebox",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fdbscan" in out and "densebox" in out
        assert "status" in out

    def test_eps_sweep(self, points_file, capsys):
        rc = main(
            [
                "bench",
                points_file,
                "--minpts",
                "5",
                "--eps",
                "0.2",
                "--eps-sweep",
                "0.1,0.2",
                "--algorithms",
                "fdbscan",
            ]
        )
        assert rc == 0
        assert "0.1" in capsys.readouterr().out

    def test_kernel_profile_printed(self, points_file, capsys):
        rc = main(
            [
                "bench",
                points_file,
                "--eps",
                "0.2",
                "--minpts-sweep",
                "3,5",
                "--algorithms",
                "fdbscan",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "kernel profile" in out
        assert "replayed" in out

    def test_no_reuse_index_flag(self, points_file, capsys):
        rc = main(
            [
                "bench",
                points_file,
                "--eps",
                "0.2",
                "--minpts-sweep",
                "3,5",
                "--algorithms",
                "fdbscan",
                "--no-reuse-index",
            ]
        )
        assert rc == 0
        assert "kernel profile" in capsys.readouterr().out

    def test_memory_cap_reports_oom(self, capsys):
        rc = main(
            [
                "bench",
                "--dataset",
                "ngsim",
                "--n",
                "2000",
                "--eps",
                "0.01",
                "--minpts-sweep",
                "5",
                "--algorithms",
                "gdbscan",
                "--memory-cap",
                "100000",
            ]
        )
        # the oom is reported AND fails the run (no --allow-failures)
        assert rc == 1
        assert "oom" in capsys.readouterr().out

    def test_allow_failures_downgrades_oom_to_success(self, capsys):
        rc = main(
            [
                "bench",
                "--dataset",
                "ngsim",
                "--n",
                "2000",
                "--eps",
                "0.01",
                "--minpts-sweep",
                "5",
                "--algorithms",
                "gdbscan",
                "--memory-cap",
                "100000",
                "--allow-failures",
            ]
        )
        assert rc == 0
        assert "oom" in capsys.readouterr().out

    def test_cell_timeout_fails_run_and_reports_timeout(self, points_file, capsys):
        argv = [
            "bench",
            points_file,
            "--eps",
            "0.2",
            "--minpts-sweep",
            "5",
            "--algorithms",
            "fdbscan",
            "--cell-timeout",
            "0.0",
        ]
        rc = main(argv)
        out = capsys.readouterr()
        assert rc == 1
        assert "timeout" in out.out
        assert main(argv + ["--allow-failures"]) == 0


class TestObservabilityFlags:
    def test_cluster_trace_out(self, points_file, tmp_path, capsys):
        from repro.obs import validate_chrome_trace_file

        path = str(tmp_path / "trace.json")
        rc = main(
            ["cluster", points_file, "--eps", "0.2", "--minpts", "5",
             "--algorithm", "fdbscan", "--trace-out", path]
        )
        assert rc == 0
        assert "trace written" in capsys.readouterr().out
        counts = validate_chrome_trace_file(path)
        assert counts["spans"] > 0

    def test_cluster_trace_csv_format(self, points_file, tmp_path):
        path = str(tmp_path / "trace.csv")
        main(
            ["cluster", points_file, "--eps", "0.2", "--minpts", "5",
             "--algorithm", "fdbscan", "--trace-out", path,
             "--trace-format", "csv"]
        )
        text = open(path).read()
        assert text.startswith("trace_id,span_id,parent_id")
        assert "bvh_build" in text

    def test_cluster_cost_model_flag(self, points_file, capsys):
        rc = main(
            ["cluster", points_file, "--eps", "0.2", "--minpts", "5",
             "--algorithm", "fdbscan", "--cost-model"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cost model" in out and "evals/s" in out

    def test_bench_trace_records_distributed_and_kernels(self, points_file, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace_file

        trace = str(tmp_path / "trace.json")
        save = str(tmp_path / "sweep.json")
        # --retries 3 > fault_attempts=2: the fault plan hashes the phase
        # string (which embeds this test's tmp path), so whether a cell
        # faults varies with the pytest tmpdir number — a retry budget
        # above the injection cap makes every cell converge regardless.
        rc = main(
            ["bench", points_file, "--eps", "0.2", "--minpts-sweep", "3,5",
             "--algorithms", "fdbscan,distributed", "--ranks", "2",
             "--faults", "0.1", "--retries", "3",
             "--trace-out", trace, "--save", save]
        )
        assert rc == 0
        counts = validate_chrome_trace_file(trace)
        assert counts["spans"] > 0
        payload = json.load(open(trace))
        cats = {e.get("cat") for e in payload["traceEvents"] if e["ph"] == "X"}
        assert {"bench", "kernel", "comm", "phase", "driver"} <= cats
        # the sweep history records where its trace went
        meta = json.load(open(save))["meta"]
        assert meta["trace"]["path"] == trace
        assert meta["trace"]["spans"] == counts["spans"]

    def test_bench_time_budget_mode_flag(self, points_file, capsys):
        rc = main(
            ["bench", points_file, "--eps", "0.2", "--minpts-sweep", "3,5",
             "--algorithms", "fdbscan", "--time-budget", "1000",
             "--time-budget-mode", "cold"]
        )
        assert rc == 0
        assert "status" in capsys.readouterr().out

    def test_metrics_subcommand_prometheus(self, points_file, capsys):
        rc = main(
            ["metrics", points_file, "--eps", "0.2", "--minpts", "5",
             "--algorithm", "fdbscan"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_distance_evals_total counter" in out
        assert "repro_kernel_seconds_total" in out

    def test_metrics_totals_equal_device_counters(self, points_file, capsys):
        """Acceptance criterion: the exposition's counter totals equal the
        KernelCounters values of an identical run."""
        import re

        from repro.cli import _load_input
        from repro.core.api import dbscan
        from repro.device.device import Device

        rc = main(
            ["metrics", points_file, "--eps", "0.2", "--minpts", "5",
             "--algorithm", "fdbscan"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        exported = {
            m.group(1): int(m.group(2))
            for m in re.finditer(r"^repro_(\w+)_total (\d+)$", out, re.M)
        }
        device = Device()
        dbscan(np.load(points_file), 0.2, 5, algorithm="fdbscan", device=device)
        snap = device.counters.snapshot()
        for name in ("distance_evals", "kernel_launches", "nodes_visited"):
            assert exported[name] == snap[name]

    def test_metrics_distributed_includes_comm(self, points_file, capsys):
        rc = main(
            ["metrics", points_file, "--eps", "0.2", "--minpts", "5",
             "--ranks", "2", "--faults", "0.1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro_comm_messages_total" in out
        assert "repro_comm_bytes_total" in out

    def test_metrics_csv_format(self, points_file, capsys):
        rc = main(
            ["metrics", points_file, "--eps", "0.2", "--minpts", "5",
             "--format", "csv"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("metric")

    def test_metrics_failed_run_exits_nonzero_with_partial_counters(self, capsys):
        argv = [
            "metrics", "--dataset", "ngsim", "--n", "2000",
            "--eps", "0.01", "--minpts", "5",
            "--algorithm", "gdbscan", "--memory-cap", "100000",
        ]
        rc = main(argv)
        out = capsys.readouterr()
        assert rc == 1
        assert "run failed" in out.err
        # the partial counters still made it into the exposition
        assert "repro_kernel_launches_total" in out.out

    def test_metrics_allow_failures(self, capsys):
        rc = main(
            [
                "metrics", "--dataset", "ngsim", "--n", "2000",
                "--eps", "0.01", "--minpts", "5",
                "--algorithm", "gdbscan", "--memory-cap", "100000",
                "--allow-failures",
            ]
        )
        assert rc == 0
        assert "allow-failures" in capsys.readouterr().err


class TestServeCommand:
    def test_traffic_report_saved(self, tmp_path, capsys):
        report_path = str(tmp_path / "report.json")
        rc = main(
            [
                "serve", "--traffic", "25", "--seed", "0",
                "--journal", str(tmp_path / "svc.jsonl"),
                "--save", report_path,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "latency ms" in out
        import json

        with open(report_path) as fh:
            report = json.load(fh)
        assert {"p50", "p95", "p99"} <= set(report["latency_ms"])
        assert report["metrics_ledger"]["ok"]
        assert "service" not in report  # the live handle never serialises

    def test_traffic_with_faults_and_restart(self, tmp_path, capsys):
        rc = main(
            [
                "serve", "--traffic", "60", "--seed", "1", "--fault-seed", "1",
                "--faults",
                "device=0.1,malformed=0.08,storm=0.05,restart=0.05,attempts=2",
                "--journal", str(tmp_path / "svc.jsonl"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "faults applied" in out
        assert "metrics=ledger : True" in out


class TestBenchHistory:
    @staticmethod
    def _bench(points_file, *extra):
        main(["bench", points_file, "--eps", "0.2", "--minpts-sweep", "5",
              "--algorithms", "fdbscan", *extra])

    @staticmethod
    def _scale_seconds(path, factor):
        """Rescale a saved baseline's wall seconds: the comparison then
        gates on a known margin, not on how loaded the host is."""
        with open(path) as fh:
            payload = json.load(fh)
        for row in payload["records"]:
            row["seconds"] *= factor
        with open(path, "w") as fh:
            json.dump(payload, fh)

    def test_save_and_compare(self, points_file, tmp_path, capsys):
        path = str(tmp_path / "run.json")
        self._bench(points_file, "--save", path)
        assert "records written" in capsys.readouterr().out
        self._scale_seconds(path, 1e3)
        self._bench(points_file, "--compare", path)
        out = capsys.readouterr().out
        assert "comparison vs" in out
        assert "no regressions" in out

    def test_compare_reports_planted_regression(self, points_file, tmp_path, capsys):
        path = str(tmp_path / "run.json")
        self._bench(points_file, "--save", path)
        capsys.readouterr()
        self._scale_seconds(path, 1e-3)
        self._bench(points_file, "--compare", path)
        out = capsys.readouterr().out
        assert "regression: " in out
        assert "no regressions" not in out

    def test_save_default_filename(self, points_file, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(
            [
                "bench",
                points_file,
                "--eps",
                "0.2",
                "--minpts-sweep",
                "5",
                "--algorithms",
                "fdbscan",
                "--save",
            ]
        )
        assert rc == 0
        assert "BENCH_sweep.json" in capsys.readouterr().out
        import json

        payload = json.loads((tmp_path / "BENCH_sweep.json").read_text())
        (record,) = payload["records"]
        assert "bvh_build" in record["kernels"]
        assert record["counters"]
