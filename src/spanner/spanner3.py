"""3-spanner constructions: the two-round bipartite core, balanced
partitioning of high-degree vertices, the O(log n)-round spanner for
general (possibly weighted) graphs, and the two-round small-ID variant.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .clustering import WeightedTree
from .graph import Graph, Spanner
from .primitives import grow_bfs_clusters, partition_tree, ruling_set_log
from .results import SpannerRun
from .sim import NodeProgram, RoundLedger, SimConfig, SimError, announce, run


class Bipartition:
    """Two disjoint vertex sets; only A-to-B edges are ever considered."""

    def __init__(self, a: Iterable[int], b: Iterable[int]):
        self.a = frozenset(a)
        self.b = frozenset(b)
        if self.a & self.b:
            raise ValueError("bipartition sides overlap")


def high_degree_threshold(n: int) -> int:
    return math.ceil(math.sqrt(n))


class StarSpanner(NodeProgram):
    """The two-round star construction, run for every part in parallel.

    Every vertex outside part j that has a neighbor inside part j picks one
    such neighbor as its star center for instance j (the closest one on
    weighted graphs) and tells its part-j neighbors.  In the second round
    every part-j vertex picks, per star it heard about, one of the senders
    and notifies it of the selected edge.  Vertices of the same part add
    their connecting edges locally when ``internal`` is set.

    Private input, per vertex: ``part`` (its own part, or None),
    ``nbr_parts`` (neighbor -> part, for the neighbors that have one) and,
    on weighted graphs only, ``weights`` (neighbor -> incident edge weight).
    """

    name = "star-spanner"

    TAG_CHOSE, TAG_SELECTED = 0, 1

    def __init__(self, internal: bool):
        self.internal = internal

    def init(self, view):
        p = view.private
        mine = p["part"]
        of_nbr = p["nbr_parts"]
        w = p.get("weights")
        edges = []
        if self.internal and mine is not None:
            for u in view.neighbors:
                if of_nbr.get(u) == mine:
                    edges.append((view.vid, u, "internal"))
        return {
            "part": mine,
            "nbr_part": of_nbr,
            # closest first, ties toward the smaller ID
            "rank": (lambda u: (w[u], u)) if w else (lambda u: u),
            "edges": edges,
        }

    def on_round(self, state, view, rnd, inbox):
        out = {}
        rank = state["rank"]
        if rnd == 1:
            mine = state["part"]
            best: Dict[int, int] = {}
            for u in view.neighbors:
                j = state["nbr_part"].get(u)
                if j is None or j == mine:
                    continue
                cur = best.get(j)
                if cur is None or rank(u) < rank(cur):
                    best[j] = u
            for j, center in best.items():
                state["edges"].append((view.vid, center, "star"))
            for u in view.neighbors:
                j = state["nbr_part"].get(u)
                if j is not None and j != mine and j in best:
                    out[u] = view.bits.msg((self.TAG_CHOSE, best[j]), ids=1)
            return out, True
        if rnd == 2:
            mine = state["part"]
            if mine is not None:
                # per star heard about (own star included, duplicating its
                # star edge), pick one sender and keep that edge
                per_star: Dict[int, int] = {}
                for sender, (_tag, center) in inbox:
                    cur = per_star.get(center)
                    if cur is None or rank(sender) < rank(cur):
                        per_star[center] = sender
                for center, picked in sorted(per_star.items()):
                    tag = "star" if center == view.vid else "cross"
                    state["edges"].append((view.vid, picked, tag))
                    out[picked] = view.bits.msg((self.TAG_SELECTED,))
            return out, True
        return {}, True

    def on_finish(self, state, view):
        return state["edges"]


def _star_spanner(
    g: Graph,
    cfg: SimConfig,
    spanner: Spanner,
    part: Dict[int, int],
    internal: bool,
    nbr_parts: Optional[Dict[int, Dict[int, int]]] = None,
) -> RoundLedger:
    """Run StarSpanner over the parts ``part`` (vertex -> part index) and add
    its edges to ``spanner``.  Every vertex learns its neighbors' parts from
    ``nbr_parts`` (an earlier announce round) or, where that is None, from
    ``part`` itself.  Every edge lies in at most two star instances, so the
    parallel run uses congestion factor 2."""
    private = {}
    for v in g.vertices:
        nbrs = g.adj[v]
        if nbr_parts is None:
            heard = {u: part[u] for u in nbrs if u in part}
        else:
            heard = nbr_parts[v]
        p = {"part": part.get(v), "nbr_parts": heard}
        if g.weighted:
            p["weights"] = {u: g.weight(v, u) for u in nbrs}
        private[v] = p
    cfg = cfg.with_(congestion_factor=max(2, cfg.congestion_factor))
    outputs, ledger = run(g, StarSpanner(internal), cfg, private=private)
    for v in sorted(outputs):
        for u, w, tag in outputs[v]:
            spanner.add(u, w, tag)
    return ledger


def bipartite_3_spanner(
    g: Graph, part: Bipartition, cfg: Optional[SimConfig] = None
) -> SpannerRun:
    """Two-round 3-spanner of the A-to-B edges of a (possibly weighted)
    bipartite instance; at most |B| + |A|^2 edges.  Only B vertices hear
    of their A neighbors, so a vertex on neither side picks no star."""
    spanner = Spanner(g)
    heard = {
        v: {u: 0 for u in g.adj[v] if u in part.a} if v in part.b else {}
        for v in g.vertices
    }
    ledger = _star_spanner(
        g, cfg or SimConfig(), spanner, {v: 0 for v in part.a}, internal=False,
        nbr_parts=heard,
    )
    return SpannerRun(spanner, ledger, trace={"rounds": ledger.rounds_used})


def three_spanner_given_partition(
    g: Graph,
    parts: Sequence[Iterable[int]],
    cfg: Optional[SimConfig] = None,
) -> SpannerRun:
    """Two-round 3-spanner given a disjoint vertex partition: per part a
    bipartite instance (part vs. rest) plus all part-internal edges."""
    part_map: Dict[int, int] = {}
    for i, vs in enumerate(parts):
        for v in vs:
            if v in part_map:
                raise ValueError(f"vertex {v} appears in two parts")
            part_map[v] = i
    spanner = Spanner(g)
    ledger = _star_spanner(g, cfg or SimConfig(), spanner, part_map, internal=True)
    return SpannerRun(spanner, ledger, trace={"rounds": ledger.rounds_used})


def partition_high_degree(
    g: Graph, cfg: Optional[SimConfig] = None
) -> Tuple[List[Set[int]], RoundLedger, dict]:
    """Partition the high-degree vertices (deg >= ceil(sqrt n)) into
    disjoint sets of at most 2*floor(sqrt n) vertices each, O(sqrt n) sets
    in total: a ruling set, bounded-depth cluster growth around it, then a
    balanced partition of every cluster tree with unit weights."""
    cfg = cfg or SimConfig()
    thr = high_degree_threshold(g.n)
    vh = {v for v in g.vertices if g.degree(v) >= thr}
    ledger = RoundLedger()
    trace: dict = {"threshold": thr, "high_degree": len(vh)}
    if not vh:
        return [], ledger, trace
    ruling, led = ruling_set_log(g, vh, cfg)
    ledger.extend_sequential(led, name="ruling-set")
    depth = 3 * g.id_bits + 1
    clusters, led = grow_bfs_clusters(g, ruling, depth, cfg)
    ledger.extend_sequential(led, name="cluster-growth")
    uncovered = vh - clusters.clustered
    if uncovered:
        raise SimError(f"ruling set failed to dominate {sorted(uncovered)[:5]}")
    bound = max(1, math.isqrt(g.n))
    members = clusters.members()
    parts: List[Set[int]] = []
    part_ledgers = []
    for center in sorted(members):
        tree_edges = frozenset(
            e for e in clusters.tree_edges()
            if clusters.membership[e[0]] == center
        )
        wt = WeightedTree(
            edges=tree_edges,
            root=center,
            weights={v: 1 if v in vh else 0 for v in members[center]},
            bound=bound,
        )
        tp, led = partition_tree(wt, cfg)
        part_ledgers.append(led)
        for p in tp.parts:
            vs = {v for v in p.owned if v in vh}
            if vs:
                parts.append(vs)
    ledger.extend_parallel(part_ledgers, name="tree-partitions")
    trace["ruling_set"] = sorted(ruling)
    trace["num_parts"] = len(parts)
    trace["part_sizes"] = sorted(len(p) for p in parts)
    return parts, ledger, trace


def improved_3_spanner(g: Graph, cfg: Optional[SimConfig] = None) -> SpannerRun:
    """3-spanner with O(n^{3/2}) edges in O(log n)-dominated rounds: all
    edges of low-degree vertices, then the partitioned star construction
    over the high-degree vertices.  Supports weighted graphs."""
    cfg = cfg or SimConfig()
    spanner = Spanner(g)
    thr = high_degree_threshold(g.n)
    for v in g.vertices:
        if g.degree(v) < thr:
            for u in g.adj[v]:
                spanner.add(v, u, "low-degree")
    parts, ledger, trace = partition_high_degree(g, cfg)
    if parts:
        part_map = {v: i for i, vs in enumerate(parts) for v in vs}
        # one announce round so every vertex learns its neighbors' parts
        heard = announce(
            g, cfg, ledger, "part-announce", part_map, 8 + len(parts).bit_length()
        )
        led = _star_spanner(g, cfg, spanner, part_map, internal=True, nbr_parts=heard)
        ledger.extend_sequential(led, name="star-spanner")
    trace["size"] = spanner.size
    return SpannerRun(spanner, ledger, trace)


def small_id_3_spanner(g: Graph, cfg: Optional[SimConfig] = None) -> SpannerRun:
    """Two-round 3-spanner for graphs whose IDs fit in log(n)+O(1) bits
    (at most 4n): the low half of the ID bits is the part index."""
    cfg = cfg or SimConfig()
    limit = 4 * max(g.n, 1)
    for v in g.vertices:
        if v > limit:
            raise ValueError(
                f"vertex ID {v} exceeds 4*n={limit}; "
                "small-ID construction requires IDs in [1, O(n)]"
            )
    low = g.id_bits // 2
    mask = (1 << low) - 1
    part = {v: v & mask for v in g.vertices}
    spanner = Spanner(g)
    ledger = _star_spanner(g, cfg, spanner, part, internal=True)
    nparts = len(set(part.values()))
    return SpannerRun(spanner, ledger, trace={"num_parts": nparts, "low_bits": low})
