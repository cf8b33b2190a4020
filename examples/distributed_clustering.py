#!/usr/bin/env python
"""Distributed DBSCAN across simulated ranks (Section 6 future work).

Decomposes a multi-million-cell cosmology snapshot over several ranks
with recursive coordinate bisection, clusters rank-locally with the fused
tree algorithm, and merges across rank boundaries — verifying that the
distributed result is DBSCAN-equivalent to a single-device run, and
reporting the decomposition balance and communication volume that a real
MPI deployment would tune.

Run:  python examples/distributed_clustering.py [n_particles] [n_ranks]
"""

import sys

from repro import dbscan
from repro.datasets import hacc_cosmology
from repro.distributed import distributed_dbscan
from repro.metrics import adjusted_rand_index, assert_dbscan_equivalent


def main(n: int = 40_000, n_ranks: int = 4) -> None:
    X = hacc_cosmology(n, seed=11)
    eps, minpts = 0.042, 5

    print(f"distributed DBSCAN: {n:,} particles over {n_ranks} ranks "
          f"(eps={eps}, minpts={minpts})\n")
    dist = distributed_dbscan(X, eps, minpts, n_ranks=n_ranks)
    single = dbscan(X, eps, minpts, algorithm="fdbscan")

    assert_dbscan_equivalent(dist, single, X, eps)
    ari = adjusted_rand_index(dist.labels, single.labels)
    print(f"equivalent to single-device run  : yes (ARI = {ari:.4f})")
    print(f"clusters / noise                 : {dist.n_clusters:,} / {dist.n_noise:,}")

    info = dist.info
    print("\ndecomposition:")
    print(f"{'rank':>5} {'owned':>8} {'ghosts':>8} {'ghost %':>8}")
    for r, (owned, ghosts) in enumerate(
        zip(info["owned_per_rank"], info["ghosts_per_rank"])
    ):
        print(f"{r:>5} {owned:>8,} {ghosts:>8,} {100 * ghosts / max(owned, 1):>7.1f}%")

    print("\ncommunication:")
    for phase, entry in info["comm_by_phase"].items():
        print(f"  {phase:<26} {entry['bytes'] / 1e6:>8.2f} MB")
    print(f"  {'total':<26} {info['comm_bytes'] / 1e6:>8.2f} MB "
          f"({info['comm_messages']} messages)")


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 40_000
    ranks = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    main(n, ranks)
