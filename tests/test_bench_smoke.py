"""Tests for the CI bench-smoke gate (``repro.bench.smoke``).

The gate replays a baseline's saved ``meta["argv"]`` through the CLI's
own parser, so the round trip — ``repro bench --save`` then
``python -m repro.bench.smoke`` — must be green on an untouched
baseline, red on a tampered one, and loud on a baseline that cannot be
replayed at all.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.history import load_records, save_records
from repro.bench.smoke import _strip_option, _sweep_args, run_smoke
from repro.cli import main
from repro.datasets import gaussian_blobs
from repro.datasets.io import save_points


@pytest.fixture
def points_file(tmp_path):
    X = gaussian_blobs(300, seed=3)
    path = tmp_path / "points.npy"
    save_points(str(path), np.asarray(X))
    return str(path)


@pytest.fixture
def baseline(points_file, tmp_path, capsys):
    path = tmp_path / "baseline.json"
    rc = main(
        [
            "bench",
            points_file,
            "--eps",
            "0.2",
            "--minpts-sweep",
            "5,10",
            "--algorithms",
            "fdbscan",
            "--no-reuse-index",
            "--save",
            str(path),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    return str(path)


class TestStripOption:
    def test_separate_value(self):
        assert _strip_option(["a", "--save", "f.json", "b"], "--save") == ["a", "b"]

    def test_equals_form(self):
        assert _strip_option(["a", "--save=f.json", "b"], "--save") == ["a", "b"]

    def test_flag_followed_by_option(self):
        # value slot occupied by another option: must not swallow it
        assert _strip_option(["--save", "--eps", "0.1"], "--save") == ["--eps", "0.1"]

    def test_absent(self):
        assert _strip_option(["a", "b"], "--save") == ["a", "b"]


class TestRunSmoke:
    def test_green_on_untouched_baseline(self, baseline, capsys):
        assert run_smoke(baseline, wall_threshold=50.0, rate_threshold=1.25) == 0
        out = capsys.readouterr().out
        assert "no wall, rate, status or result regressions" in out

    def test_saved_argv_is_replayable(self, baseline):
        # main() was called programmatically; the recorded argv must be the
        # bench argv, not the host process's sys.argv.
        _, meta = load_records(baseline)
        assert meta["argv"][0] == "bench"
        assert "--save" in meta["argv"]

    def test_red_on_rate_regression(self, baseline, capsys):
        # shrink the baseline's work counters so the fresh run looks like
        # it does 2x the work per point (rates derive from counters)
        with open(baseline) as fh:
            payload = json.load(fh)
        for rec in payload["records"]:
            rec["counters"] = {k: v // 2 for k, v in rec["counters"].items()}
        with open(baseline, "w") as fh:
            json.dump(payload, fh)
        assert run_smoke(baseline, wall_threshold=50.0, rate_threshold=1.25) == 1
        assert "rate_regression" in capsys.readouterr().out

    def test_error_without_argv(self, tmp_path, capsys):
        path = tmp_path / "no_argv.json"
        save_records(str(path), [], meta={})
        assert run_smoke(str(path)) == 2
        assert "no meta['argv']" in capsys.readouterr().err

    def test_error_on_non_bench_argv(self, tmp_path):
        path = tmp_path / "bad_argv.json"
        save_records(str(path), [], meta={"argv": ["cluster", "x.npy"]})
        with pytest.raises(ValueError, match="bench"):
            run_smoke(str(path))


def test_committed_baseline_argv_parses():
    # The CI smoke replays the committed baseline's argv; a CLI flag it
    # still names but the parser no longer accepts fails here too.
    baseline = Path(__file__).resolve().parents[1] / "BENCH_sweep.json"
    _, meta = load_records(str(baseline))
    args = _sweep_args(_strip_option(list(meta["argv"]), "--save"))
    assert args.algorithms
