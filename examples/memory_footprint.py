#!/usr/bin/env python
"""Device-memory comparison — why the fused framework exists (Section 3.2).

The paper's central memory claim: algorithms that materialise the
adjacency graph (G-DBSCAN) need memory proportional to the *edge count*,
which explodes with density and eps, while the fused algorithms stay
linear in the point count.  The survey the paper cites measured G-DBSCAN
at 166x CUDA-DClust's footprint.

This example grows eps on a fixed dataset, reports each algorithm's peak
device bytes (broken down by data structure), and then caps the device to
show G-DBSCAN hitting the out-of-memory wall — the paper's missing data
points in Figure 4(h) — while FDBSCAN keeps running.  Every device runs
its traversals 1,024 queries per wavefront chunk (``chunk_size``), which
bounds the tree algorithms' transient frontier; G-DBSCAN has none.

Run:  python examples/memory_footprint.py
"""

import numpy as np

from repro import Device, dbscan
from repro.datasets import portotaxi_traces
from repro.device import DeviceMemoryError


def main() -> None:
    n = 10_000
    X = portotaxi_traces(n, seed=5)
    minpts = 20

    print(f"peak device memory vs eps ({n:,} points, minpts={minpts})\n")
    print(f"{'eps':>7} {'fdbscan MB':>11} {'densebox MB':>12} {'gdbscan MB':>11} {'edges':>12}")
    for eps in (0.0025, 0.005, 0.01, 0.02, 0.04):
        row = []
        for algorithm in ("fdbscan", "fdbscan-densebox", "gdbscan"):
            device = Device(name=algorithm, chunk_size=1024)
            result = dbscan(X, eps, minpts, algorithm=algorithm, device=device)
            row.append(device.memory.peak_bytes / 1e6)
            edges = result.info.get("n_edges")
        print(f"{eps:>7} {row[0]:>11.2f} {row[1]:>12.2f} {row[2]:>11.2f} {edges:>12,}")

    # Breakdown by structure for one configuration.
    print("\nper-structure peaks at eps=0.02:")
    for algorithm in ("fdbscan", "gdbscan"):
        device = Device(name=algorithm, chunk_size=1024)
        dbscan(X, 0.02, minpts, algorithm=algorithm, device=device)
        print(f"  {algorithm}:")
        for tag, nbytes in device.memory.report()["peak_by_tag"].items():
            print(f"    {tag:<18} {nbytes / 1e6:>8.2f} MB")

    # The OOM wall: a 4 MB device.
    cap = 4_000_000
    print(f"\ncapped device ({cap / 1e6:.0f} MB), eps=0.04:")
    for algorithm in ("gdbscan", "fdbscan"):
        device = Device(name=algorithm, capacity_bytes=cap, chunk_size=1024)
        try:
            result = dbscan(X, 0.04, minpts, algorithm=algorithm, device=device)
            print(f"  {algorithm:<10} OK    ({result.n_clusters} clusters, "
                  f"peak {device.memory.peak_bytes / 1e6:.2f} MB)")
        except DeviceMemoryError as exc:
            print(f"  {algorithm:<10} OOM   ({exc.requested / 1e6:.1f} MB requested for "
                  f"'{exc.tag}')")


if __name__ == "__main__":
    main()
