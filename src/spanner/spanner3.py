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
from .sim import BitCost, Msg, RoundLedger, SimConfig, SimError, _cascade, announce


class Bipartition:
    """Two disjoint vertex sets; only A-to-B edges are ever considered."""

    def __init__(self, a: Iterable[int], b: Iterable[int]):
        self.a = frozenset(a)
        self.b = frozenset(b)
        if self.a & self.b:
            raise ValueError("bipartition sides overlap")


def high_degree_threshold(n: int) -> int:
    return math.ceil(math.sqrt(n))


TAG_CHOSE, TAG_SELECTED = 0, 1


def _star_spanner(
    g: Graph,
    cfg: SimConfig,
    spanner: Spanner,
    part: Dict[int, int],
    internal: bool,
    nbr_parts: Optional[Dict[int, Dict[int, int]]] = None,
) -> RoundLedger:
    """The two-round star construction over the parts ``part`` (vertex ->
    part index), run for every part in parallel; its edges go into
    ``spanner``.  A vertex knows its neighbors' parts from ``nbr_parts``
    (an earlier announce round) or, where that is None, from ``part``.

    Round 1: every vertex outside part j that has a neighbor inside part j
    picks one such neighbor as its star center for instance j (the closest
    one on weighted graphs, ties toward the smaller ID) and tells its part-j
    neighbors; with ``internal`` it also keeps its edges inside its own
    part.  Round 2: every part vertex picks, per star it heard about (its
    own star included, duplicating a star edge), one of the senders and
    notifies it of the selected edge.  Every outbox carries one message per
    edge, so the rounds need no congestion allowance.

    Edges enter ``spanner`` as the vertices decide them, every round-1 edge
    before any round-2 edge.  An edge that a part vertex tags ``cross`` in
    round 2 and someone tags ``star`` was already a round-1 star edge of
    that vertex, so it keeps ``star``."""
    if g.weighted:
        def rank(v, u):
            return (g.weight(v, u), u)
    else:
        def rank(v, u):
            return u
    chose_bits = BitCost.TAG + g.id_bits
    selected = Msg(BitCost.TAG, (TAG_SELECTED,))

    def step(v, inbox):
        if not inbox:
            mine = part.get(v)
            if nbr_parts is None:
                heard = {u: part[u] for u in g.adj[v] if u in part}
            else:
                heard = nbr_parts[v]
            best: Dict[int, int] = {}
            for u in g.adj[v]:
                j = heard.get(u)
                if j is None:
                    continue
                if j == mine:
                    if internal:
                        spanner.add(v, u, "internal")
                    continue
                cur = best.get(j)
                if cur is None or rank(v, u) < rank(v, cur):
                    best[j] = u
            msgs = {}
            for j, center in best.items():
                spanner.add(v, center, "star")
                msgs[j] = Msg(chose_bits, (TAG_CHOSE, center))
            return {u: msgs[heard[u]] for u in g.adj[v] if heard.get(u) in msgs}
        if inbox[0][1][0] == TAG_SELECTED:
            return None
        per_star: Dict[int, int] = {}
        for sender, (_tag, center) in inbox:
            cur = per_star.get(center)
            if cur is None or rank(v, sender) < rank(v, cur):
                per_star[center] = sender
        out = {}
        for center, picked in sorted(per_star.items()):
            spanner.add(v, picked, "star" if center == v else "cross")
            out[picked] = selected
        return out

    return _cascade(g, cfg, "star-spanner", g.vertices, step)


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
