"""Superclustered (2k-1)-spanner: run the local-maxima election
(``common.elect``) over superclusters instead of clusters, cover
low-expansion superclusters with bipartite spanners outside and recursion
inside (all of a level in one ``zero.cover_low_expansion`` call), regroup
after every level with two balanced tree partitions, and finish with the
cluster-by-cluster construction once only O(sqrt n) clusters remain."""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from ..clustering import Supercluster, Superclustering, WeightedTree, orient_tree
from ..graph import Graph
from ..primitives import Forest, RoleTable, grow_bfs_clusters, partition_tree
from ..results import SpannerRun
from ..sim import RoundLedger, SimConfig
from ..spanner3 import improved_3_spanner
from .common import (
    cluster_steps, connect, elect, ipow_ceil, label_contacts,
)
from .naive import _levels, naive_spanner
from .zero import cons_zero_superclustering, cover_low_expansion

RECURSION_BASE = 64

STEPS = ("sc-ack", "sc-deg-up", "sc-deg-down", "sc-tuples", "sc-votes",
         "sc-votes-up", "sc-join-down", "sc-success")


def _sc_roles(scs: Sequence[Supercluster]) -> RoleTable:
    """Superclusters as a forest keyed by sc_id: every connecting tree,
    oriented from its root, gives each of its vertices a role whose parent
    is the vertex's parent there."""
    return {(v, sc.sc_id): p for sc in scs
            for v, (p, _ch) in orient_tree(sc.root, sc.tree_edges).items()}


def improved_spanner(
    g: Graph, k: int, cfg: Optional[SimConfig] = None
) -> SpannerRun:
    """(2k-1)-spanner with O(k n^{1+1/k}) edges in about n^{1/2-1/k} rounds
    (times a 2^{O(k)} factor).  Odd k runs one level less and leans on the
    odd-k bipartite spanner; k = 2 falls back to the 3-spanner pipeline."""
    cfg = (cfg or SimConfig()).resolved(g)
    if k < 2:
        raise ValueError("k must be >= 2")
    if k == 2:
        return improved_3_spanner(g, cfg)
    if g.weighted:
        raise ValueError("weighted graphs are only supported for k = 2")
    if g.n < RECURSION_BASE:
        return naive_spanner(g, k, cfg)

    zero = cons_zero_superclustering(g, k, cfg)
    H = zero.spanner
    ledger = zero.ledger
    trace: Dict = {
        "zero": {"levels": zero.trace["levels"]},
        "superclusterings": list(zero.trace["superclusterings"]),
        "si_records": [],
        "bipartite_instances": {},
    }
    clustering, superclustering = trace["superclusterings"][0]
    exp_threshold = ipow_ceil(g.n, k + 2, 2 * k)  # n^(1/2 + 1/k)

    for i in range(1, k // 2 + 1):
        clustering, superclustering = _phase(
            g, k, cfg, ledger, trace, H, clustering, superclustering,
            i, exp_threshold,
        )
        trace["superclusterings"].append((clustering, superclustering))

    tail = _levels(g, k, cfg, H, clustering)
    ledger.extend_sequential(tail.ledger, name="tail")
    trace["tail"] = tail.trace
    return SpannerRun(H, ledger, trace)


def _phase(g, k, cfg, ledger, trace, H, clustering, superclustering,
           i, exp_threshold):
    n = g.n
    scs = {sc.sc_id: sc for sc in superclustering.superclusters}
    vset = superclustering.vertex_sets(clustering)
    sc_of_vertex = {v: scid for scid, vs in vset.items() for v in vs}

    # announce supercluster membership once per phase
    near = label_contacts(g, cfg, ledger, f"sc-announce:P{i}", sc_of_vertex)
    # aggregate over the cluster trees, then over the supercluster trees;
    # broadcast the other way round
    cl_up, cl_down = cluster_steps(g, cfg, ledger, clustering)
    sc = Forest(g, cfg, ledger, _sc_roles(superclustering.superclusters), sc_of_vertex)
    centers = clustering.centers

    def up(name, values):
        stem, _, label = name.partition(":")
        return sc.aggregate(f"{stem}2:{label}", cl_up(f"{stem}1:{label}", values))

    def down(name, sc_values):
        stem, _, label = name.partition(":")
        at = sc.broadcast(f"{stem}2:{label}", sc_values)
        return cl_down(f"{stem}1:{label}", {c: at.get(c, 0) for c in centers})

    joined_sc, remaining, marked = elect(
        g, cfg, ledger, steps=[f"{s}:P{i}" for s in STEPS], labels=sc_of_vertex,
        near=near, remaining=scs, threshold=exp_threshold,
        cap=4 * ipow_ceil(n, k - 2, 2 * k) + 2,  # 4 n^(1/2-1/k) iterations
        up=up, down=down, self_report=True, bound=2 * n,
        records=trace["si_records"], where="superclusters", level=i,
        members=vset,
    )

    trace["bipartite_instances"][i] = _cover_remaining(
        g, k, cfg, ledger, H, scs, vset, sc_of_vertex, remaining, marked, i)

    # new clusters around all centers of the successful superclusters
    z_i = sorted({c for scid in joined_sc for c in scs[scid].clusters})
    new_clustering = grow_bfs_clusters(g, cfg, ledger, f"grow:P{i}", z_i, i)
    for e in new_clustering.tree_edges():
        H.add(*e, f"sc-tree:L{i}")

    new_sc = _regroup(
        g, k, cfg, ledger, new_clustering, [scs[s] for s in sorted(joined_sc)],
        superclustering.depth_bound, i,
    )
    return new_clustering, new_sc


def _cover_remaining(g, k, cfg, ledger, H, scs, vset, sc_of_vertex, remaining,
                     marked, i):
    """Low-expansion superclusters: direct edges into singletons, bipartite
    spanners toward the outside and recursion inside for the rest.
    Returns the (inside, outside) vertex sets of each bipartite instance."""
    singles = {s for s in remaining if len(scs[s].clusters) == 1}
    near = label_contacts(
        g, cfg, ledger, f"sc-uncov:P{i}",
        {v: scid for v, scid in sc_of_vertex.items() if scid in singles},
    )
    connect(g, cfg, ledger, H, f"sc-single-edges:P{i}", (
        (v, u, f"sc-single:L{i}") for v in g.vertices if v not in marked
        for u in near.get(v, {}).values()
    ))

    covers = [sorted(vset[scid]) for scid in sorted(remaining - singles)]
    outsides = cover_low_expansion(g, k, cfg, ledger, H, covers, marked,
                                   (f"sc-bip:L{i}", f"sc-rec:L{i}"), f"sc-cover:P{i}")
    return [(frozenset(m), frozenset(o)) for m, o in zip(covers, outsides) if o]


def _regroup(g, k, cfg, ledger, clustering, successful: List[Supercluster],
             depth_bound, i) -> Superclustering:
    """Re-group the new clusters into a nice superclustering: oversized
    clusters become singletons; each successful supercluster's tree is
    partitioned by cluster count and then by vertex count.  The depth
    bound is ``depth_bound``, the previous superclustering's (1 if no
    supercluster succeeded), raised to at least i."""
    n = g.n
    big_bound = max(1, math.ceil(math.sqrt(n)))
    up, _down = cluster_steps(g, cfg, ledger, clustering)
    sizes = up(f"sizes:P{i}", {v: 1 for v in clustering.membership})
    members = clustering.members()
    big = {c for c in clustering.centers if sizes[c] >= big_bound}
    superclusters: List[Supercluster] = []

    def add(cs, tree_edges, root):
        """One supercluster of the clusters ``cs``, named by their largest
        member vertex."""
        superclusters.append(Supercluster(
            sc_id=max(max(members[c]) for c in cs), clusters=frozenset(cs),
            tree_edges=tree_edges, root=root,
        ))

    for c in sorted(big):
        # a singleton supercluster's lone center needs no connecting tree;
        # intra-supercluster traffic rides its (vertex-disjoint) cluster tree
        add([c], frozenset(), c)

    b_clusters = ipow_ceil(n, k - 2 * i, 2 * k)  # n^(1/2 - i/k)
    b_vertices = big_bound
    part_ledgers: List[RoundLedger] = []
    for sc in successful:
        small_centers = [c for c in sorted(sc.clusters) if c not in big]
        if not small_centers:
            continue
        if not sc.tree_edges:
            # lone-vertex tree: the single center forms one supercluster
            if sc.root in small_centers:
                add([sc.root], frozenset(), sc.root)
            continue
        wt1 = WeightedTree(
            edges=sc.tree_edges,
            root=sc.root,
            weights={c: 1 for c in small_centers},
            bound=b_clusters,
        )
        led = RoundLedger()
        part_ledgers.append(led)
        for part in partition_tree(wt1, cfg, led):
            cs = [c for c in sorted(part.owned) if c in small_centers]
            if not cs:
                continue
            if not part.edges:
                add(cs, frozenset(), part.root)
                continue
            wt2 = WeightedTree(
                edges=part.edges,
                root=part.root,
                weights={c: sizes[c] for c in cs},
                bound=b_vertices,
            )
            led = RoundLedger()
            part_ledgers.append(led)
            for p2 in partition_tree(wt2, cfg, led):
                cs2 = [c for c in sorted(p2.owned) if c in cs]
                if cs2:
                    add(cs2, p2.edges, p2.root)
    ledger.extend_parallel(part_ledgers, name=f"regroup:P{i}")
    return Superclustering(
        level=i,
        superclusters=superclusters,
        vertex_bound=2 * big_bound + 1,
        cluster_bound=2 * b_clusters + 1,
        count_bound=4 * big_bound + 4,
        depth_bound=max(depth_bound if successful else 1, i),
    )
