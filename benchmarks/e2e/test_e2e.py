"""Self-test of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e

Runs every workload in ``--quick`` mode (tiny inputs, a 2 s service
burst) and checks the result contract, the correctness gate, the
service's same-seed determinism and the comparison tool.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import catalog  # noqa: E402
import compare  # noqa: E402
import gate  # noqa: E402
import workloads  # noqa: E402
from repro import dbscan  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    DECLARED = json.load(_fh)


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_catalog_matches_benchmark_json():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == catalog.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == catalog.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_quick_run_emits_every_declared_metric(workload, trace, tmp_path):
    seconds = "2" if workload == "service-mixed" else "0.5"
    proc = _run("--workload", workload, "--seed", "3", "--seconds", seconds,
                "--trace", str(trace), "--quick", "--trace-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        return
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # The layers and their residual account for the traced wall time.
    if workload == "service-mixed":
        total = sum(values[name] for name in catalog.SERVICE_PARTITION)
        assert total == pytest.approx(values["service.busy_ms"], rel=0.05)
    else:
        total = sum(values[name] for name in catalog.BATCH_PARTITION)
        assert total == pytest.approx(values["trace.wall_s"], rel=1e-3)
        assert values["core.host_s"] > 0
    assert (tmp_path / f"{workload}.trace.json").is_file()


def _blobs(seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return np.concatenate([c + rng.normal(0, 0.08, size=(150, 2)) for c in centers]
                          + [rng.uniform(-0.5, 1.5, size=(40, 2))])


def test_gate_accepts_the_library_and_rejects_corruption():
    X = _blobs()
    ref = gate.FlatReference(X, 0.1)
    result = dbscan(X, 0.1, 5, algorithm="fdbscan")
    labels, is_core = result.labels, result.is_core
    assert gate.check_flat(ref, 5, labels, is_core) is None

    merged = np.where(labels == 1, 0, labels)
    assert "partition" in gate.check_flat(ref, 5, merged, is_core)
    flipped = is_core.copy()
    flipped[np.flatnonzero(is_core)[0]] = False
    assert "core set" in gate.check_flat(ref, 5, labels, flipped)
    border = np.flatnonzero(~is_core & (labels >= 0))
    assert border.size
    orphaned = labels.copy()
    orphaned[border[0]] = -1
    assert gate.check_flat(ref, 5, orphaned, is_core) is not None

    assert gate.check_relabelling(labels, (labels + 7) * (labels >= 0) - (labels < 0)) is None
    assert gate.check_relabelling(labels, merged) is not None


def test_runner_fails_on_wrong_labels(monkeypatch):
    def corrupted(*args, **kwargs):
        result = dbscan(*args, **kwargs)
        result.labels[result.labels == 0] = -1  # a whole cluster, core points too, to noise
        return result

    monkeypatch.setattr(workloads, "dbscan", corrupted)
    outcome = workloads.run("fdbscan-hacc3d", 0, 0.2, trace=False, quick=True)
    assert not outcome.correct
    assert any("'min_samples'" in p for p in outcome.problems)


def test_same_seed_service_bursts_have_equal_status_counts():
    def statuses():
        outcome = workloads.run("service-mixed", 5, 2.0, trace=False, quick=True)
        assert outcome.correct, outcome.problems
        return Counter(outcome.statuses)

    first = statuses()
    assert sum(first.values()) >= 10
    assert statuses() == first


def test_runner_without_the_library_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "service-mixed", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _runs(values_by_seed, metric="sweep_s", workload="fdbscan-hacc3d", trace=0, layers=None):
    runs = []
    for seed, value in values_by_seed.items():
        metrics = {m["name"]: {"value": 1.0} for m in DECLARED["end_to_end"]}
        metrics[metric] = {"value": value}
        if trace:
            metrics = {name: {"value": (layers or {}).get(name, 0.1)} for name in catalog.PER_LAYER}
        runs.append({"workload": workload, "seed": seed, "trace": trace, "correct": True,
                     "attempted": 10, "failed": 0, "metrics": metrics})
    return runs


def _write(path, runs):
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    base = {s: 1.0 + 0.001 * s for s in range(10)}
    parent = _write(tmp_path / "p.json", _runs(base))
    same = _write(tmp_path / "s.json", _runs({s: v * 1.01 for s, v in base.items()}))
    assert compare.main(["--parent", parent, "--change", same]) == 0

    slow = _runs({s: v * 1.5 for s, v in base.items()})
    slow += _runs({0: 0}, trace=1, layers={"core.main_s": 0.9})
    parent_traced = _runs(base) + _runs({0: 0}, trace=1)
    capsys.readouterr()
    assert compare.main(["--parent", _write(tmp_path / "pt.json", parent_traced),
                         "--change", _write(tmp_path / "c.json", slow)]) == 1
    out = capsys.readouterr().out
    assert "regression" in out and "core.main_s grew most" in out

    fast = _write(tmp_path / "f.json", _runs({s: v * 0.5 for s, v in base.items()}))
    capsys.readouterr()
    assert compare.main(["--parent", parent, "--change", fast]) == 0
    assert " gain" in capsys.readouterr().out

    noisy = _write(tmp_path / "n.json", _runs({s: 1.0 + 0.3 * (-1) ** s for s in range(10)}))
    assert compare.main(["--parent", parent, "--change", noisy]) == 2
