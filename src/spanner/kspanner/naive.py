"""Cluster-by-cluster (2k-1)-spanner: k-1 clustering levels where centers
advance by winning the local-maxima election (``common.elect``, run over
the cluster trees) on their unmarked degree, losers' neighborhoods get
covered directly, and the last level connects every vertex to each
neighboring cluster."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..clustering import Clustering
from ..graph import Graph, Spanner
from ..primitives import grow_bfs_clusters
from ..results import SpannerRun
from ..sim import RoundLedger, SimConfig
from .common import cluster_steps, connect, elect, ipow_ceil, label_contacts, last_level

STEPS = ("ack", "deg", "deg-down", "tuples", "votes", "votes-up", "join-down",
         "join-announce")


def _iteration_cap(n: int, k: int, i: int) -> int:
    return 4 * ipow_ceil(n, k - i, k) + 2


def naive_spanner(g: Graph, k: int, cfg: Optional[SimConfig] = None) -> SpannerRun:
    """Build a (2k-1)-spanner level by level from singleton clusters."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if g.weighted:
        raise ValueError("weighted graphs are not supported by naive_spanner")
    cfg = (cfg or SimConfig()).resolved(g)
    H = Spanner(g)
    ledger, trace = _levels(g, k, cfg, H, Clustering.singletons(g.vertices))
    return SpannerRun(H, ledger, trace)


def _levels(g: Graph, k: int, cfg: SimConfig, H: Spanner,
            clustering: Clustering) -> Tuple[RoundLedger, Dict]:
    """The levels after ``clustering``'s, up to k-1, and the last level,
    their edges added to H: a run of many phases in a ledger of its own
    (the superclustered construction folds its tail in as one entry).
    Returns that ledger and the levels' trace."""
    ledger = RoundLedger()
    trace: Dict = {"k": k, "levels": {}, "iterations": {}, "si_records": []}
    for i in range(clustering.level + 1, k):
        clustering = _phase(g, cfg, ledger, trace, H, clustering, k, i)
        trace["levels"][i] = len(clustering.centers)

    last_level(g, cfg, ledger, H, clustering, ("announce:final", "final-edges"), "final")
    return ledger, trace


def _phase(g, cfg, ledger, trace, H, clustering, k, i) -> Clustering:
    near = label_contacts(g, cfg, ledger, f"announce:L{i}", clustering.membership)
    up, down = cluster_steps(g, cfg, ledger, clustering)
    joined, remaining, marked = elect(
        g, cfg, ledger, steps=[f"{s}:L{i}" for s in STEPS],
        labels=clustering.membership, near=near,
        remaining=clustering.centers, threshold=ipow_ceil(g.n, i, k),
        cap=_iteration_cap(g.n, k, i), up=up, down=down, self_report=False,
        bound=g.n, records=trace["si_records"], where="clusters", level=i,
    )
    trace["iterations"][i] = trace["si_records"][-1]["iteration"]

    # losers' unmarked neighborhoods: one edge per adjacent remaining cluster
    connect(g, cfg, ledger, H, f"cover:L{i}", (
        (v, u, f"uncovered:L{i}") for v in g.vertices if v not in marked
        for c, u in near.get(v, {}).items() if c in remaining
    ))

    new_clustering = grow_bfs_clusters(g, cfg, ledger, f"grow:L{i}", joined, i)
    for e in new_clustering.tree_edges():
        H.add(*e, f"tree:L{i}")
    return new_clustering
