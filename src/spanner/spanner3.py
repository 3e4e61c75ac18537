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
from .sim import NodeProgram, RoundLedger, SimConfig, announce, run


class Bipartition:
    """Two disjoint vertex sets; only A-to-B edges are ever considered."""

    def __init__(self, a: Iterable[int], b: Iterable[int]):
        self.a = frozenset(a)
        self.b = frozenset(b)
        if self.a & self.b:
            raise ValueError("bipartition sides overlap")

    def side(self, v: int) -> Optional[str]:
        if v in self.a:
            return "A"
        if v in self.b:
            return "B"
        return None


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

    Part knowledge modes: "param" reads a global part map from the
    parameter block (the bipartite lemma's knowledge assumption), "private"
    reads each vertex's own part and its neighbors' parts collected by an
    earlier announce round, "idbits" derives parts from the low ID bits.
    """

    name = "star-spanner"

    TAG_CHOSE, TAG_SELECTED = 0, 1

    def __init__(self, mode: str, internal: bool, low_bits: int = 0):
        self.mode = mode
        self.internal = internal
        self.low_bits = low_bits

    def _part_of(self, view) -> Tuple[Optional[int], Dict[int, Optional[int]]]:
        if self.mode == "param":
            pm = view.params["part_map"]
            return pm.get(view.vid), {u: pm.get(u) for u in view.neighbors}
        if self.mode == "private":
            p = view.private
            return p.get("part"), {u: p["nbr_parts"].get(u) for u in view.neighbors}
        mask = (1 << self.low_bits) - 1
        return view.vid & mask, {u: u & mask for u in view.neighbors}

    def init(self, view):
        mine, of_nbr = self._part_of(view)
        edges = []
        if self.internal and mine is not None:
            for u in view.neighbors:
                if of_nbr[u] == mine:
                    edges.append((view.vid, u, "internal"))
        return {
            "part": mine,
            "nbr_part": of_nbr,
            "edges": edges,
            "chosen": {},  # instance j -> chosen center
        }

    def on_round(self, state, view, rnd, inbox):
        out = {}
        if rnd == 1:
            mine = state["part"]
            best: Dict[int, int] = {}
            for u in view.neighbors:
                j = state["nbr_part"][u]
                if j is None or j == mine:
                    continue
                cur = best.get(j)
                if cur is None or (view.weight(u), u) < (view.weight(cur), cur):
                    best[j] = u
            state["chosen"] = best
            for j, center in best.items():
                state["edges"].append((view.vid, center, "star"))
            for u in view.neighbors:
                j = state["nbr_part"][u]
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
                    if cur is None or (view.weight(sender), sender) < (view.weight(cur), cur):
                        per_star[center] = sender
                for center, picked in sorted(per_star.items()):
                    tag = "star" if center == view.vid else "cross"
                    state["edges"].append((view.vid, picked, tag))
                    out[picked] = view.bits.msg((self.TAG_SELECTED,))
            return out, True
        return {}, True

    def on_finish(self, state, view):
        return state["edges"]


def _collect_edges(spanner: Spanner, outputs: Dict[int, list]) -> None:
    for v in sorted(outputs):
        for u, w, tag in outputs[v]:
            spanner.add(u, w, tag)


def bipartite_3_spanner(
    g: Graph, part: Bipartition, cfg: Optional[SimConfig] = None
) -> SpannerRun:
    """Two-round 3-spanner of the A-to-B edges of a (possibly weighted)
    bipartite instance; at most |B| + |A|^2 edges."""
    cfg = (cfg or SimConfig()).with_(congestion_factor=max(2, (cfg or SimConfig()).congestion_factor))
    part_map = {v: 0 for v in part.a}
    program = StarSpanner(mode="param", internal=False)
    outputs, ledger = run(g, program, cfg, params={"part_map": part_map})
    spanner = Spanner(g)
    _collect_edges(spanner, outputs)
    return SpannerRun(spanner, ledger, trace={"rounds": ledger.rounds_used})


def three_spanner_given_partition(
    g: Graph,
    parts: Sequence[Iterable[int]],
    cfg: Optional[SimConfig] = None,
) -> SpannerRun:
    """Two-round 3-spanner given a disjoint vertex partition: per part a
    bipartite instance (part vs. rest) plus all part-internal edges.  Every
    edge lies in at most two instances, so the parallel run uses congestion
    factor 2."""
    part_map: Dict[int, int] = {}
    for i, vs in enumerate(parts):
        for v in vs:
            if v in part_map:
                raise ValueError(f"vertex {v} appears in two parts")
            part_map[v] = i
    cfg = (cfg or SimConfig()).with_(congestion_factor=max(2, (cfg or SimConfig()).congestion_factor))
    program = StarSpanner(mode="param", internal=True)
    outputs, ledger = run(g, program, cfg, params={"part_map": part_map})
    spanner = Spanner(g)
    _collect_edges(spanner, outputs)
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
        raise RuntimeError(f"ruling set failed to dominate {sorted(uncovered)[:5]}")
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
        star_private = {
            v: {"part": part_map.get(v), "nbr_parts": heard[v]} for v in g.vertices
        }
        scfg = cfg.with_(congestion_factor=max(2, cfg.congestion_factor))
        outputs, led = run(g, StarSpanner(mode="private", internal=True), scfg,
                           private=star_private)
        ledger.extend_sequential(led, name="star-spanner")
        _collect_edges(spanner, outputs)
    trace["size"] = spanner.size
    return SpannerRun(spanner, ledger, trace)


def small_id_3_spanner(
    g: Graph, cfg: Optional[SimConfig] = None, max_id_factor: int = 4
) -> SpannerRun:
    """Two-round 3-spanner for graphs whose IDs fit in log(n)+O(1) bits:
    the low half of the ID bits is the part index."""
    cfg = cfg or SimConfig()
    limit = max_id_factor * max(g.n, 1)
    for v in g.vertices:
        if v > limit:
            raise ValueError(
                f"vertex ID {v} exceeds {max_id_factor}*n={limit}; "
                "small-ID construction requires IDs in [1, O(n)]"
            )
    low = g.id_bits // 2
    scfg = cfg.with_(congestion_factor=max(2, cfg.congestion_factor))
    outputs, ledger = run(g, StarSpanner(mode="idbits", internal=True, low_bits=low), scfg)
    spanner = Spanner(g)
    _collect_edges(spanner, outputs)
    nparts = len({v & ((1 << low) - 1) for v in g.vertices})
    return SpannerRun(spanner, ledger, trace={"num_parts": nparts, "low_bits": low})
