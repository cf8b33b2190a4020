"""Hierarchical density clustering — HDBSCAN on the paper's substrates.

Section 2.1 notes that DBSCAN* (clusters of core points only) "serv[es]
as a basis for a new hierarchical HDBSCAN algorithm", and Section 6 lists
incorporating such variants as future work.  This package builds the full
HDBSCAN pipeline (Campello, Moulavi & Sander 2013; McInnes & Healy 2017)
on the repository's substrates:

``repro.bvh.knn``
    core distances (distance to the ``min_samples``-th neighbour): one
    batched BVH gather per query at its leaf-order window bound;

``mst``
    the minimum spanning tree of the *mutual reachability* graph
    (``max(core(a), core(b), dist(a, b))``), computed with a vectorised
    Prim's algorithm using on-demand distance rows — O(n²) time, O(n)
    memory, no materialised graph (the same memory discipline as the
    paper's framework);

``condense``
    single-linkage dendrogram → condensed tree (``min_cluster_size``) →
    cluster stabilities → excess-of-mass cluster selection;

``hdbscan``
    the user-facing driver, plus :func:`~repro.hierarchy.hdbscan.dbscan_star_cut`,
    which cuts the hierarchy at a fixed ``eps`` — by the minimax-path
    property of MSTs this reproduces DBSCAN* exactly, which the test
    suite exploits as a cross-validation between the hierarchical and the
    flat implementations.
"""

from repro.hierarchy.boruvka import mutual_reachability_mst_boruvka
from repro.hierarchy.condense import CondensedTree, condense_dendrogram, extract_eom_clusters
from repro.hierarchy.hdbscan import MST_ALGORITHMS, HDBSCANResult, dbscan_star_cut, hdbscan
from repro.hierarchy.mst import mutual_reachability_mst, single_linkage_dendrogram

__all__ = [
    "MST_ALGORITHMS",
    "CondensedTree",
    "HDBSCANResult",
    "condense_dendrogram",
    "dbscan_star_cut",
    "extract_eom_clusters",
    "hdbscan",
    "mutual_reachability_mst",
    "mutual_reachability_mst_boruvka",
    "single_linkage_dendrogram",
]
