"""Tests for the shared Algorithm-3 pair-resolution rules, in particular
the CAS border attachment and its no-bridging guarantee."""

import numpy as np

from repro.core.framework import PairResolver, attach_border
from repro.device.device import Device
from repro.unionfind.ecl import EclUnionFind


class TestAttachBorder:
    def test_attaches_to_core_cluster(self):
        uf = EclUnionFind(4)
        uf.union(np.array([0]), np.array([1]))  # core cluster {0,1}
        attach_border(uf, np.array([0]), np.array([2]))
        labels = uf.finalize()
        assert labels[2] == labels[0]

    def test_no_bridging_between_clusters(self):
        # Border 4 is within eps of cores in two clusters; only the first
        # attachment wins, and the clusters stay separate.
        uf = EclUnionFind(5)
        uf.union(np.array([0]), np.array([1]))  # cluster A
        uf.union(np.array([2]), np.array([3]))  # cluster B
        attach_border(uf, np.array([0, 2]), np.array([4, 4]))
        labels = uf.finalize()
        assert labels[0] != labels[2]  # clusters never merged
        assert labels[4] == labels[0]  # first core won the CAS

    def test_second_batch_cannot_steal(self):
        uf = EclUnionFind(4)
        attach_border(uf, np.array([0]), np.array([3]))
        attach_border(uf, np.array([1]), np.array([3]))
        labels = uf.finalize()
        assert labels[3] == labels[0]
        assert labels[3] != labels[1]

    def test_empty_batch(self):
        uf = EclUnionFind(3)
        attach_border(uf, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert uf.n_sets() == 3


class TestResolvePairs:
    """Algorithm 3's per-edge rule, as :class:`PairResolver` applies it:
    border points attach when the stream is finalised."""

    @staticmethod
    def _resolve(uf, is_core, x, y, device=None):
        resolver = PairResolver(uf, is_core, device=device)
        resolver.add(np.asarray(x), np.asarray(y))
        resolver.finalize()
        return resolver

    def test_core_core_unions(self):
        uf = EclUnionFind(4)
        is_core = np.array([True, True, False, False])
        self._resolve(uf, is_core, [0], [1])
        assert uf.find(np.array([0]))[0] == uf.find(np.array([1]))[0]

    def test_core_noncore_attaches_either_orientation(self):
        for x, y in (([0], [1]), ([1], [0])):
            uf = EclUnionFind(3)
            is_core = np.array([True, False, True])
            self._resolve(uf, is_core, x, y)
            labels = uf.finalize()
            assert labels[1] == labels[0], (x, y)

    def test_noncore_pair_ignored(self):
        uf = EclUnionFind(2)
        self._resolve(uf, np.array([False, False]), [0], [1])
        assert uf.n_sets() == 2

    def test_mixed_batch(self):
        uf = EclUnionFind(6)
        is_core = np.array([True, True, True, False, False, False])
        self._resolve(
            uf,
            is_core,
            [0, 1, 3, 4],
            [1, 2, 2, 5],  # core-core, core-core, border-core, border-border
        )
        labels = uf.finalize()
        assert labels[0] == labels[1] == labels[2] == labels[3]
        assert labels[4] == 4 and labels[5] == 5  # untouched

    def test_counters(self):
        dev = Device()
        uf = EclUnionFind(4, device=dev)
        is_core = np.array([True, True, True, False])
        self._resolve(uf, is_core, [0, 0], [1, 3], dev)
        assert dev.counters.pairs_processed == 2
        assert dev.counters.union_ops == 1
        # One attachment per border point: the commit never loses a CAS.
        assert dev.counters.cas_attempts == 1
        assert dev.counters.cas_successes == 1

    def test_attached_border_never_unioned_through(self):
        # Even if a border point appears in many pairs with cores from
        # different clusters, the clusters remain separate (the paper's
        # bridging effect is prevented), and each border point joins the
        # cluster of its minimum-index core neighbour.
        uf = EclUnionFind(7)
        is_core = np.array([True, True, True, True, False, False, False])
        uf.union(np.array([0]), np.array([1]))
        uf.union(np.array([2]), np.array([3]))
        resolver = PairResolver(uf, is_core)
        rng = np.random.default_rng(0)
        seen = {4: set(), 5: set(), 6: set()}
        for _ in range(5):
            cores = rng.choice([0, 1, 2, 3], size=6)
            borders = rng.choice([4, 5, 6], size=6)
            resolver.add(cores, borders)
            for c, b in zip(cores, borders):
                seen[int(b)].add(int(c))
        resolver.finalize()
        labels = uf.finalize()
        assert labels[0] != labels[2]
        for border, cores in seen.items():
            assert labels[border] == labels[min(cores)]
