"""Property tests: clustering output is invariant to execution schedule.

The paper's batched traversal processes queries in chunks (the
resident-thread limit) and the sweep harness reuses prebuilt indexes —
both are *schedule* choices and must not change the clustering.  The
buffered pair resolver attaches each border point to its *minimum* core
neighbour, a commutative reduction — so labels match bit for bit across
chunkings, not merely up to the border-tie equivalence of
:func:`assert_dbscan_equivalent` (still asserted as the semantic floor).
Warm-vs-cold index reuse replays the identical schedule, so there the
labels trivially must match too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.densebox import fdbscan_densebox
from repro.core.fdbscan import fdbscan
from repro.core.index import DBSCANIndex
from repro.device.device import Device
from repro.metrics.equivalence import assert_dbscan_equivalent

ALGORITHMS = {"fdbscan": fdbscan, "fdbscan-densebox": fdbscan_densebox}

#: Chunk sizes spanning the degenerate (one query per wavefront), odd,
#: moderate, and unchunked schedules.
def chunked_devices() -> list[Device]:
    """Fresh devices at every chunk size under test, the default last."""
    return [Device(chunk_size=1), Device(chunk_size=7), Device(chunk_size=100), Device()]


def _mixed_points(seed: int, n: int):
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [
            rng.normal(0.0, 0.05, size=(n // 2, 2)),
            rng.uniform(-1.0, 1.0, size=(n - n // 2, 2)),
        ]
    )


class TestScheduleInvariance:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    @given(seed=st.integers(0, 10_000), eps=st.floats(0.02, 0.3))
    @settings(max_examples=15, deadline=None)
    def test_clustering_invariant_to_chunk_size(self, name, seed, eps):
        algo = ALGORITHMS[name]
        X = _mixed_points(seed, 120)
        first, *rest = chunked_devices()
        baseline = algo(X, eps, 5, device=first)
        for dev in rest:
            chunk = dev.chunk_size
            result = algo(X, eps, 5, device=dev)
            np.testing.assert_array_equal(
                result.is_core,
                baseline.is_core,
                err_msg=f"{name} core mask changed at chunk_size={chunk}",
            )
            np.testing.assert_array_equal(
                result.labels,
                baseline.labels,
                err_msg=f"{name} labels changed at chunk_size={chunk}",
            )
            assert_dbscan_equivalent(result, baseline, X, eps)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    @given(seed=st.integers(0, 10_000), eps=st.floats(0.02, 0.3))
    @settings(max_examples=15, deadline=None)
    def test_labels_identical_warm_vs_cold_index(self, name, seed, eps):
        algo = ALGORITHMS[name]
        X = _mixed_points(seed, 120)
        cold = algo(X, eps, 5, device=Device())
        index = cold.info["index"]
        warm = algo(X, eps, 5, device=Device(), index=index)
        assert warm.info["index_reused"]
        np.testing.assert_array_equal(warm.labels, cold.labels)
        np.testing.assert_array_equal(warm.is_core, cold.is_core)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_shared_index_both_algorithms_chunked(self, seed):
        # one index serves both algorithms under every chunking; within an
        # algorithm, every schedule must produce an equivalent clustering
        X = _mixed_points(seed, 100)
        index = DBSCANIndex(X)
        for name, algo in sorted(ALGORITHMS.items()):
            baseline = None
            for dev in chunked_devices():
                result = algo(X, 0.1, 5, device=dev, index=index)
                if baseline is None:
                    baseline = result
                else:
                    np.testing.assert_array_equal(result.labels, baseline.labels)
                    assert_dbscan_equivalent(result, baseline, X, 0.1)
