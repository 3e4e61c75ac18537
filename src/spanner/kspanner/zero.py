"""Zero-level superclustering for arbitrary-diameter graphs.

Builds k/2 pre-clustering levels whose cluster diameters grow geometrically:
per level, clusters with enough closed-neighborhood expansion (counted by
the unmarked-degree step of ``common.elect``) nominate their centers, a
power-graph ruling set thins the nominees, and bounded BFS growth
re-clusters everything near a winner.  Low-expansion clusters' edges are
covered immediately, all of a level in one ``cover_low_expansion`` call
(bipartite spanner toward the outside plus recursion inside; a one-vertex
cluster needs no sub-run).  The final clusters, rebalanced by the
partitioning routine, become superclusters over singleton clusters.
"""

from __future__ import annotations

import math
from typing import Collection, Dict, List, Optional, Set, Tuple

from ..clustering import Clustering, Supercluster, Superclustering, WeightedTree
from ..graph import Graph, Spanner
from ..primitives import grow_bfs_clusters, partition_tree, ruling_set_power
from ..results import SpannerRun
from ..sim import RoundLedger, SimConfig, width
from ..spanner3 import Bipartition
from .common import cluster_steps, ipow_ceil, label_contacts, signal, unmarked_degree
from .starbip import sparser_bipartite_spanner


def _cluster_expansion(g, cfg, ledger, clustering, label) -> Dict[int, int]:
    """deg(C) = |C| + |Gamma(C) \\ C|: the election's unmarked-degree step
    with every cluster remaining, nothing marked and members self-reporting."""
    labels = clustering.membership
    near = label_contacts(g, cfg, ledger, f"zero-announce:{label}", labels)
    up, _down = cluster_steps(g, cfg, ledger, clustering)
    return unmarked_degree(
        g, cfg, ledger, (f"zero-acks:{label}", f"zero-deg:{label}"),
        labels, near, g.vertices, clustering.centers, up, self_report=True,
    )


def cover_low_expansion(g: Graph, k: int, cfg: SimConfig, ledger: RoundLedger, H: Spanner,
                        covers: List[List[int]], excluded: Set[int], tags: Tuple[str, str],
                        name: str) -> List[Collection[int]]:
    """Cover the edges of every low-expansion vertex set of a level, side
    by side: for each set of ``covers``, a bipartite spanner toward its
    outside neighbours (those in ``excluded`` left out), tagged
    ``tags[0]``, plus a recursive spanner on the inside, tagged
    ``tags[1]``.  Each instance's edges enter H once, in sorted order,
    and an edge keeps its first tag.  The instances' ledgers merge into
    ``ledger`` as one parallel phase ``name`` (none if no instance ran).
    Returns each set's outside vertices.

    A one-vertex set {a} needs no sub-run: its bipartite instance ends
    at star formation (``sparser_bipartite_spanner``), which keeps every
    cross edge and is one round, a message from each outside vertex to
    a at the instance's own ID width, charged through ``signal``."""
    from .improved import improved_spanner  # recursion

    ledgers: List[RoundLedger] = []
    outsides: List[Collection[int]] = []
    for members in covers:
        mset = set(members)
        if len(mset) == 1:
            (a,) = mset
            outside = [u for u in g.adj[a] if u not in excluded]
            outsides.append(outside)
            if outside:
                for u in outside:  # sorted, as g.adj is
                    H.add(a, u, tags[0])
                led = RoundLedger()
                signal(g, cfg, led, "star-formation", [(u, a) for u in outside],
                       width(0, 0, max(a, outside[-1])))
                ledgers.append(led)
            continue
        cross = [(v, u) for v in members for u in g.adj[v]
                 if u not in mset and u not in excluded]
        outside = {u for _v, u in cross}
        outsides.append(outside)
        if cross:
            bip = g.edge_subgraph(mset | outside, cross)
            res = sparser_bipartite_spanner(bip, Bipartition(mset, outside), k, cfg)
            for u, v in sorted(res.spanner.edges):
                H.add(u, v, tags[0])
            ledgers.append(res.ledger)
        if any(u in mset for v in members for u in g.adj[v]):
            res = improved_spanner(g.subgraph(mset), k, cfg)
            for u, v in sorted(res.spanner.edges):
                H.add(u, v, tags[1])
            ledgers.append(res.ledger)
    ledger.extend_parallel(ledgers, name=name)
    return outsides


def cons_zero_superclustering(
    g: Graph, k: int, cfg: Optional[SimConfig] = None
) -> SpannerRun:
    """Nice zero-level superclustering plus a partial spanner H' that takes
    care of every edge incident to a vertex left out of the superclusters.
    The run's trace holds ``levels`` (pre-clustering level -> centers) and
    ``superclusterings``, one record (clustering, superclustering): the
    level-0 singleton clusters of the covered vertices and their nice
    superclustering."""
    if k < 3:
        raise ValueError("k must be >= 3")
    if g.weighted:
        raise ValueError(
            "weighted graphs are not supported by cons_zero_superclustering"
        )
    cfg = (cfg or SimConfig()).resolved(g)
    n = g.n
    kp = k // 2
    H = Spanner(g)
    ledger = RoundLedger()
    trace: Dict = {"levels": {}}
    clustering = Clustering.singletons(g.vertices)
    radius = 0

    for i in range(1, kp + 1):
        t_i = 2 ** (4 * (i - 1))
        threshold = ipow_ceil(n, i, k)
        deg = _cluster_expansion(g, cfg, ledger, clustering, f"Z{i}")
        candidates = {c for c in clustering.centers if deg[c] >= threshold}
        low = sorted(c for c in clustering.centers if deg[c] < threshold)
        members = clustering.members()
        cover_low_expansion(g, k, cfg, ledger, H, [members[c] for c in low], set(),
                            ("zero-bip", "zero-recursion"), f"zero-cover:Z{i}")
        if not candidates:
            clustering = Clustering(level=i, membership={}, parents={}, depth_bound=0)
            trace["levels"][i] = 0
            break
        winners, led = ruling_set_power(g, candidates, t_i, cfg)
        ledger.extend_sequential(led, name=f"zero-ruling:Z{i}")
        radius = 4 * t_i + radius
        clustering = grow_bfs_clusters(g, cfg, ledger, f"zero-grow:Z{i}", winners, radius,
                                       level=i)
        trace["levels"][i] = len(winners)

    # turn the final clusters into superclusters over singleton clusters,
    # splitting clusters that grew past sqrt(n) vertices
    bound = max(1, math.ceil(math.sqrt(n)))
    members = clustering.members()
    trees = clustering.tree_edges_by_center()
    shapes = []  # (vertices, tree edges, root) of each supercluster, in order
    part_ledgers: List[RoundLedger] = []
    for c in sorted(members):
        vs = members[c]
        if len(vs) < bound:
            shapes.append((vs, trees[c], c))
            continue
        wt = WeightedTree(
            edges=trees[c], root=c, weights={v: 1 for v in vs}, bound=bound
        )
        led = RoundLedger()
        part_ledgers.append(led)
        shapes += [(p.owned, p.edges, p.root) for p in partition_tree(wt, cfg, led)
                   if p.owned]
    ledger.extend_parallel(part_ledgers, name="zero-balance")
    superclusters = [
        Supercluster(
            sc_id=max(vs),
            clusters=frozenset(vs),
            tree_edges=tree_edges,
            root=root,
        )
        for vs, tree_edges, root in shapes
    ]

    c0 = Clustering.singletons(sorted(clustering.membership))
    sc = Superclustering(
        level=0,
        superclusters=superclusters,
        vertex_bound=2 * bound + 1,
        cluster_bound=2 * bound + 1,
        count_bound=4 * bound + 4,
        depth_bound=max(1, 2 * radius),
    )
    trace["superclusterings"] = [(c0, sc)]
    return SpannerRun(H, ledger, trace)
