"""Predicted-cost engine choice for ``traversal="auto"``.

``auto`` is not a third traversal engine: it is a *scheduler* that, for
each query chunk, predicts what the single and dual engines would cost
and dispatches the chunk to the cheaper one.  Both engines are
bit-identical in every result, so the choice can never change labels,
counters of logical work (``distance_evals``) or hit streams — only wall
clock and scheduling counters.

The prediction follows the classic tree-query cost decomposition: a
radius-``eps`` query against a spatial tree over ``n`` points in ``d``
dimensions touches about ``prod_j min(a, 2·eps/E_j·a + 1)`` leaves
(``a = n^(1/d)`` leaves per axis over scene extents ``E``), each reached
through ``~depth`` internal nodes whose frontier pairs the wavefront
carries.  The single engine pays that per *query*; the dual engine pays a
widened version (the query node's own extent inflates the radius) per
*query-BVH node*, of which there are ``~cn/group_size``, plus per-member
work at the leaf fringe.  The query-set dispersion enters through the
group extent, measured on the Morton-ordered chunk as the median extent
of its runs of ``group_size`` queries — a tightly clustered chunk yields
tiny groups whose widened radius is barely larger than ``eps``, which is
exactly when aggregation wins.  When a group reaches much farther than
one member's ball (:data:`DUAL_MAX_WIDENING`), its members share little
and the chunk goes single whatever the counts say.

Predicted counts are priced with built-in marginal rates
(:data:`DEFAULT_RATES`, :data:`DEFAULT_PER_LAUNCH`), so the decision is
deterministic: same inputs, same choice, always.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Marginal rates (seconds per counted unit) in the rough proportion the
#: vectorised engines exhibit: a frontier pair costs more than a leaf
#: distance test because it carries the gather/compact bookkeeping.
DEFAULT_RATES = {"nodes_visited": 1.5e-7, "distance_evals": 8.0e-8}
#: Per-launch overhead (seconds).
DEFAULT_PER_LAUNCH = 5.0e-5

#: Multiplier on the dual engine's predicted (query node, tree node)
#: pair count: a dual pair is costlier than a single-engine frontier row
#: (box-box tests, the looser-side refinement loop, query-BVH build).
DUAL_PAIR_FACTOR = 3.0

#: Multiplier on the dual engine's per-member leaf-fringe work (parent
#: re-tests and fringe classification) relative to the shared leaf-test
#: count.
DUAL_MEMBER_FACTOR = 1.25

#: The dual engine is chosen only while a query group's reach — the
#: ball swept over the group's extent, ``(2·eps + g_ext)^d`` — is at most
#: this many times one member's ``(2·eps)^d``.  Past it the members share
#: little of what the group reaches and the per-member fringe re-tests
#: dominate: on ngsim (n=4000) count rounds, dual ran 3x slower than
#: single at widening ~30 and 1.3x faster at 1.7.
DUAL_MAX_WIDENING = 2.0

#: The dual engine must be predicted at least this much cheaper to be
#: chosen: near-ties go to the single engine, whose constants are better
#: understood (hysteresis against prediction noise).
AUTO_MARGIN = 0.95


@dataclass(frozen=True)
class EngineDecision:
    """One chunk's engine choice with the predictions behind it."""

    engine: str
    pred_single_seconds: float
    pred_dual_seconds: float

    @property
    def pred_seconds(self) -> float:
        """Predicted cost of the engine actually chosen."""
        return (
            self.pred_dual_seconds
            if self.engine == "dual"
            else self.pred_single_seconds
        )


def _leaf_overlap(a: float, extents: np.ndarray, diameter: float) -> float:
    """Expected leaves touched by a query of the given search *diameter*:
    ``prod_j min(a, diameter/E_j · a + 1)`` with ``a`` leaves per axis."""
    out = 1.0
    for e in extents:
        if e > 0.0:
            out *= min(a, diameter / e * a + 1.0)
    return out


def choose_engine(
    tree,
    chunk_points: np.ndarray,
    eps: float,
    group_size: int,
    tree_stats=None,
    component_masked: bool = False,
) -> EngineDecision:
    """Pick ``"single"`` or ``"dual"`` for one chunk of queries.

    A pure function of its inputs (tree geometry, chunk geometry, eps,
    group size): the same chunk always gets the same engine, which is
    what makes ``auto`` runs reproducible.

    ``component_masked`` chunks (the pruned main phases of FDBSCAN and
    DenseBox) always go single: the single engine drops a query at the
    first subtree uniform in its own component, while a query group
    drops a subtree only where every member shares that component.
    Measured on ngsim n=4000: FDBSCAN's main phase took 0.083 s dual
    against 0.023 s single (eps 0.005, minpts 5).  Borůvka's
    nearest-other-component searches never reach this chooser; they
    always run the single engine.
    """
    cn, d = chunk_points.shape
    n = max(int(tree.n_primitives), 1)
    a = n ** (1.0 / d)
    scene_ext = np.asarray(
        tree.node_hi[tree.root] - tree.node_lo[tree.root], dtype=np.float64
    )
    if tree_stats is not None:
        depth = float(tree_stats.mean_leaf_depth)
    else:
        depth = math.log2(n) if n > 1 else 1.0

    l_single = _leaf_overlap(a, scene_ext, 2.0 * eps)
    nv_single = cn * (2.0 * l_single + depth)
    leaf_tests = cn * l_single

    # Query-group extent, measured on the chunk itself: chunks arrive in
    # Morton order, so runs of ``group_size`` consecutive queries are the
    # groups the query-BVH build makes (a uniform-density guess from the
    # chunk's bounding box overstates them badly on clustered data).
    gs = max(1, int(group_size))
    runs = cn // gs
    if runs:
        blk = chunk_points[: runs * gs].reshape(runs, gs, d)
        g_ext = float(np.median((blk.max(axis=1) - blk.min(axis=1)).max(axis=1)))
    else:
        g_ext = float((chunk_points.max(axis=0) - chunk_points.min(axis=0)).max())
    widening = ((2.0 * eps + g_ext) / (2.0 * eps)) ** d if eps > 0 else math.inf
    l_dual = _leaf_overlap(a, scene_ext, 2.0 * eps + g_ext)
    nv_dual = DUAL_PAIR_FACTOR * (cn / gs) * (2.0 * l_dual + depth)
    member_work = DUAL_MEMBER_FACTOR * leaf_tests

    r_nv = DEFAULT_RATES["nodes_visited"]
    r_de = DEFAULT_RATES["distance_evals"]
    launch = DEFAULT_PER_LAUNCH
    pred_single = launch + r_nv * nv_single + r_de * leaf_tests
    pred_dual = launch + r_nv * (nv_dual + member_work) + r_de * leaf_tests

    dual = (
        pred_dual < AUTO_MARGIN * pred_single
        and widening <= DUAL_MAX_WIDENING
        and not component_masked
    )
    engine = "dual" if dual else "single"
    return EngineDecision(
        engine=engine,
        pred_single_seconds=pred_single,
        pred_dual_seconds=pred_dual,
    )
