"""Cluster-by-cluster (2k-1)-spanner: k-1 clustering levels where centers
advance by winning local-maxima elections on their unmarked degree, losers'
neighborhoods get covered directly, and the last level connects every
vertex to each neighboring cluster."""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..clustering import Clustering
from ..graph import Graph, Spanner
from ..primitives import grow_bfs_clusters
from ..results import SpannerRun
from ..sim import Msg, RoundLedger, SimConfig, SimTimeout, announce
from .common import clustering_aggregate, clustering_broadcast, exchange, ipow_ceil


TAG_ACK, TAG_TUPLE, TAG_VOTE, TAG_JOIN, TAG_EDGE = range(5)


def _iteration_cap(n: int, k: int, i: int) -> int:
    return 4 * ipow_ceil(n, k - i, k) + 2


def naive_spanner(
    g: Graph,
    k: int,
    cfg: Optional[SimConfig] = None,
    start_level: int = 1,
    initial: Optional[Clustering] = None,
    spanner: Optional[Spanner] = None,
) -> SpannerRun:
    """Build a (2k-1)-spanner level by level.

    ``start_level`` resumes from an existing clustering at level
    start_level-1 (the superclustered construction hands over its halfway
    clustering this way).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if g.weighted:
        raise ValueError("weighted graphs are only supported for k = 2")
    cfg = (cfg or SimConfig()).resolved(g)
    n = g.n
    ledger = RoundLedger()
    trace: Dict = {"k": k, "levels": {}, "iterations": {}, "start_level": start_level}
    H = spanner if spanner is not None else Spanner(g)
    clustering = initial if initial is not None else Clustering.singletons(g.vertices)
    if clustering.level != start_level - 1:
        raise ValueError("initial clustering level does not match start_level")

    for i in range(start_level, k):
        clustering = _phase(g, cfg, ledger, trace, H, clustering, k, i)
        trace["levels"][i] = len(clustering.centers)

    _final_phase(g, cfg, ledger, H, clustering)
    trace["size"] = H.size
    return SpannerRun(H, ledger, trace)


def _phase(g, cfg, ledger, trace, H, clustering, k, i) -> Clustering:
    n = g.n
    threshold = ipow_ceil(n, i, k)
    trace.setdefault("phase_clusterings", {})[i] = dict(clustering.membership)
    nbr_cluster = announce(
        g, cfg, ledger, f"announce:L{i}", clustering.membership, 8 + g.id_bits
    )

    marked: Set[int] = set()
    joined: Set[int] = set()           # centers that joined Z_i
    remaining = set(clustering.centers)
    centers_by_nbr: Dict[int, Dict[int, int]] = {}
    iterations = 0
    cap = _iteration_cap(n, k, i)
    id_bits = g.id_bits
    cbits = max(1, n.bit_length())

    while True:
        iterations += 1
        if iterations > cap:
            raise SimTimeout(f"phase {i} exceeded its iteration cap {cap}")
        # unmarked vertices acknowledge one member of each adjacent
        # remaining cluster; the per-cluster sums are the unmarked degrees
        out: Dict[int, Dict[int, Msg]] = {}
        for v in g.vertices:
            if v in marked:
                continue
            best: Dict[int, int] = {}
            for u, c in nbr_cluster[v].items():
                if c in remaining and (c not in best or u < best[c]):
                    best[c] = u
            if best:
                out[v] = {u: Msg(8, (TAG_ACK,)) for u in best.values()}
        got = exchange(g, cfg, ledger, f"ack:L{i}.{iterations}", out)
        acks = {v: sum(1 for _s, b in got[v] if b[0] == TAG_ACK) for v in g.vertices}
        deg = clustering_aggregate(
            g, cfg, ledger, f"deg:L{i}.{iterations}", clustering, acks
        )
        know_deg = clustering_broadcast(
            g, cfg, ledger, f"deg-down:L{i}.{iterations}", clustering,
            {c: deg[c] for c in remaining},
        )
        # members of remaining clusters advertise their cluster's tuple
        out = {}
        for v, c in clustering.membership.items():
            if c in remaining and know_deg.get(v) is not None:
                m = Msg(8 + id_bits + cbits, (TAG_TUPLE, know_deg[v], c))
                out[v] = {u: m for u in g.adj[v]}
        got = exchange(g, cfg, ledger, f"tuples:L{i}.{iterations}", out)
        # unmarked vertices vote for the strongest adjacent cluster
        out = {}
        for v in g.vertices:
            if v in marked:
                continue
            best = None
            best_sender = None
            for s, b in got[v]:
                if b[0] != TAG_TUPLE:
                    continue
                key = (b[1], b[2])
                if best is None or key > best:
                    best = key
                    best_sender = s
                elif key == best and s < best_sender:
                    best_sender = s
            if best is not None:
                out[v] = {best_sender: Msg(8, (TAG_VOTE,))}
        got = exchange(g, cfg, ledger, f"votes:L{i}.{iterations}", out)
        votes = {v: sum(1 for _s, b in got[v] if b[0] == TAG_VOTE) for v in g.vertices}
        vote_sum = clustering_aggregate(
            g, cfg, ledger, f"votes-up:L{i}.{iterations}", clustering, votes
        )
        new_joiners = {
            c
            for c in sorted(remaining)
            if deg[c] >= threshold and vote_sum[c] == deg[c] and deg[c] > 0
        }
        trace.setdefault("si_records", []).append(
            {
                "level": i,
                "iteration": iterations,
                "marked_before": frozenset(marked),
                "joined": sorted(new_joiners),
                "deg": {c: deg[c] for c in sorted(new_joiners)},
            }
        )
        if not new_joiners:
            break
        joined |= new_joiners
        remaining -= new_joiners
        know_join = clustering_broadcast(
            g, cfg, ledger, f"join-down:L{i}.{iterations}", clustering,
            {c: 1 for c in new_joiners},
        )
        out = {}
        newly_marked: Set[int] = set()
        for v, c in clustering.membership.items():
            if know_join.get(v):
                if v not in marked:
                    newly_marked.add(v)   # members of winning clusters
                m = Msg(8, (TAG_JOIN,))
                out[v] = {u: m for u in g.adj[v]}
        got = exchange(g, cfg, ledger, f"join-announce:L{i}.{iterations}", out)
        for v in g.vertices:
            if v not in marked and any(b[0] == TAG_JOIN for _s, b in got[v]):
                newly_marked.add(v)
        marked |= newly_marked

    trace["iterations"][i] = iterations

    # losers' unmarked neighborhoods: one edge per adjacent remaining cluster
    out = {}
    for v in g.vertices:
        if v in marked:
            continue
        best = {}
        for u, c in nbr_cluster[v].items():
            if c in remaining and (c not in best or u < best[c]):
                best[c] = u
        if best:
            out[v] = {u: Msg(8, (TAG_EDGE,)) for u in best.values()}
            for u in best.values():
                H.add(v, u, f"uncovered:L{i}")
    exchange(g, cfg, ledger, f"cover:L{i}", out)

    new_clustering, led = grow_bfs_clusters(g, joined, i, cfg, level=i)
    ledger.extend_sequential(led, name=f"grow:L{i}")
    for e in new_clustering.tree_edges():
        H.add(*e, f"tree:L{i}")
    return new_clustering


def _final_phase(g, cfg, ledger, H, clustering) -> None:
    nbr_cluster = announce(
        g, cfg, ledger, "announce:final", clustering.membership, 8 + g.id_bits
    )
    out = {}
    for v in g.vertices:
        best: Dict[int, int] = {}
        for u, c in nbr_cluster[v].items():
            if c not in best or u < best[c]:
                best[c] = u
        targets = {}
        for c, u in best.items():
            if c == clustering.membership.get(v):
                continue  # own tree already connects v to its cluster
            targets[u] = Msg(8, (TAG_EDGE,))
            H.add(v, u, "final")
        if targets:
            out[v] = targets
    exchange(g, cfg, ledger, "final-edges", out)
