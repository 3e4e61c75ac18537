"""3-spanner constructions: the two-round bipartite core, balanced
partitioning of high-degree vertices, the O(log n)-round spanner for
general (possibly weighted) graphs, and the two-round small-ID variant.
The two star rounds are charged as one phase through ``sim._charge``, so
they follow the simulator's one round-cap rule, and hold per-vertex state
only: each vertex's picks, never one container per message.  The part
announcement before them is a counted round to all neighbours
(``sim._to_all``).  Every step charges the ledger of the run that calls
it; only the partition's side-by-side tree partitions each get one of
their own, merged as one parallel phase.
"""

from __future__ import annotations

import math
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .clustering import WeightedTree
from .graph import Graph, Spanner
from .primitives import grow_bfs_clusters, partition_tree, ruling_set_log
from .results import SpannerRun
from .sim import RoundLedger, SimConfig, SimError, _charge, _to_all, width


class Bipartition:
    """Two disjoint vertex sets; only A-to-B edges are ever considered."""

    def __init__(self, a: Iterable[int], b: Iterable[int]):
        self.a = frozenset(a)
        self.b = frozenset(b)
        if self.a & self.b:
            raise ValueError("bipartition sides overlap")

    def check(self, g: Graph) -> None:
        """Raise ValueError naming the side and the smallest vertex of it
        that is not in g."""
        for side, vs in (("A", self.a), ("B", self.b)):
            strays = vs.difference(g.adj)
            if strays:
                raise ValueError(
                    f"bipartition side {side} names vertex {min(strays)}, "
                    "which is not in the graph"
                )


def high_degree_threshold(n: int) -> int:
    return math.ceil(math.sqrt(n))


def _star_spanner(
    g: Graph,
    cfg: SimConfig,
    ledger: RoundLedger,
    spanner: Spanner,
    part: Dict[int, int],
    internal: bool,
    listeners: Optional[Collection[int]] = None,
) -> None:
    """The two-round star construction over the parts ``part`` (vertex ->
    part index), run for every part in parallel; its edges go into
    ``spanner``.  The vertices of ``listeners`` know their neighbors'
    parts (from an earlier announce round, or from ``part``); None means
    every vertex does.  A vertex that does not listen sends nothing.

    Round 1: every listening vertex outside part j that has a neighbor
    inside part j picks one such neighbor as its star center for instance
    j (the closest one on weighted graphs, ties toward the smaller ID) and
    sends CHOSE (tag, center) to its part-j neighbors; with ``internal``
    it also keeps its edges inside its own part, each added by its smaller
    endpoint.  Each vertex keeps only its picks, part -> center.
    Round 2: every part vertex walks its neighbors in ID order, reads each
    listening sender's pick for its own part, picks per star one sender by
    the same rule and sends it a ``sim.TAG``-bit SELECTED.  It adds that
    edge as ``cross`` unless it is in its own star, where the edge is the
    sender's round-1 star edge, or the edge is already in ``spanner``
    (its own round-1 star edge where it picked the sender as a star
    center).  Edges enter ``spanner`` as the
    vertices decide them, in ID order, every round-1 edge before any
    round-2 edge, and the first tag of an edge stays.

    Both rounds are charged to ``ledger`` as one ``star-spanner`` phase
    of 0 or 2 rounds, in bulk, because neither can violate anything: CHOSE has
    exactly the one-ID floor width that ``cfg.check`` enforces, SELECTED
    is narrower, and every message goes to a neighbor, one per edge (a
    sender names one center per part, so it is picked at most once per
    receiver)."""
    weighted = g.weighted
    weight = g.weight
    adj = g.adj

    # round 1: each listening vertex's star centers, part -> center
    picks: Dict[int, Dict[int, int]] = {}
    sent = 0
    for v in g.vertices:
        if listeners is not None and v not in listeners:
            continue
        mine = part.get(v)
        best: Dict[int, int] = {}
        for u in adj[v]:
            j = part.get(u)
            if j is None:
                continue
            if j == mine:
                if internal and u > v:
                    spanner.add(v, u, "internal")
                continue
            sent += 1
            # neighbors come in ID order, so the first one wins ties
            if j not in best or (weighted and weight(v, u) < weight(v, best[j])):
                best[j] = u
        for center in best.values():
            spanner.add(v, center, "star")
        if best:
            picks[v] = best
    # round 2: one SELECTED per star a part vertex heard about
    picked = 0
    no_picks: Dict[int, int] = {}
    for v in g.vertices:
        j = part.get(v)
        if j is None:
            continue
        per_star: Dict[int, int] = {}
        for sender in adj[v]:
            # a sender's picks leave out its own part
            center = picks.get(sender, no_picks).get(j)
            if center is None:
                continue
            if center not in per_star or (
                weighted and weight(v, sender) < weight(v, per_star[center])
            ):
                per_star[center] = sender
        for center, sender in sorted(per_star.items()):
            if center != v:
                spanner.add(v, sender, "cross")
        picked += len(per_star)
    _charge(g, cfg, ledger, "star-spanner", 2 if sent else 0, sent + picked,
            width(g.id_bits, 1))


def bipartite_3_spanner(
    g: Graph, part: Bipartition, cfg: Optional[SimConfig] = None
) -> SpannerRun:
    """Two-round 3-spanner of the A-to-B edges of a (possibly weighted)
    bipartite instance; at most |B| + |A|^2 edges.  The A side is the one
    part, and only B vertices listen to their A neighbors, so a vertex on
    neither side picks no star."""
    part.check(g)
    spanner, ledger = Spanner(g), RoundLedger()
    _star_spanner(g, cfg or SimConfig(), ledger, spanner, {v: 0 for v in part.a},
                  internal=False, listeners=part.b)
    return SpannerRun(spanner, ledger)


def three_spanner_given_partition(
    g: Graph,
    parts: Sequence[Iterable[int]],
    cfg: Optional[SimConfig] = None,
) -> SpannerRun:
    """Two-round 3-spanner given disjoint parts of the vertex set: per part
    a bipartite instance (part vs. rest) plus all part-internal edges.  The
    parts need not cover the graph, but an edge between two vertices
    outside every part belongs to no instance and is not spanned."""
    part_map: Dict[int, int] = {}
    for i, vs in enumerate(parts):
        for v in vs:
            if v not in g.adj:
                raise ValueError(
                    f"part {i} names vertex {v}, which is not in the graph"
                )
            if v in part_map:
                raise ValueError(f"vertex {v} appears in two parts")
            part_map[v] = i
    spanner, ledger = Spanner(g), RoundLedger()
    _star_spanner(g, cfg or SimConfig(), ledger, spanner, part_map, internal=True)
    return SpannerRun(spanner, ledger)


def partition_high_degree(
    g: Graph, cfg: SimConfig, ledger: RoundLedger
) -> Tuple[List[Set[int]], dict]:
    """Partition the high-degree vertices (deg >= ceil(sqrt n)) into
    disjoint sets of at most 2*floor(sqrt n) vertices each, O(sqrt n) sets
    in total: a ruling set, bounded-depth cluster growth around it, then a
    balanced partition of every cluster tree with unit weights, charged
    to ``ledger`` as the phases ``ruling-set``, ``cluster-growth`` and
    ``tree-partitions`` (none without a high-degree vertex).  The config
    is resolved at g, so every tree's partition keeps g's budget."""
    cfg = cfg.resolved(g)
    thr = high_degree_threshold(g.n)
    vh = {v for v in g.vertices if g.degree(v) >= thr}
    trace: dict = {"threshold": thr, "high_degree": len(vh)}
    if not vh:
        return [], trace
    ruling = ruling_set_log(g, cfg, ledger, "ruling-set", vh)
    clusters = grow_bfs_clusters(g, cfg, ledger, "cluster-growth", ruling,
                                 3 * g.id_bits + 1)
    uncovered = vh - clusters.clustered
    if uncovered:
        raise SimError(f"ruling set failed to dominate {sorted(uncovered)[:5]}")
    bound = max(1, math.isqrt(g.n))
    members = clusters.members()
    trees = clusters.tree_edges_by_center()
    parts: List[Set[int]] = []
    part_ledgers = []
    for center in sorted(members):
        wt = WeightedTree(
            edges=trees[center],
            root=center,
            weights={v: 1 if v in vh else 0 for v in members[center]},
            bound=bound,
        )
        led = RoundLedger()
        part_ledgers.append(led)
        for p in partition_tree(wt, cfg, led):
            vs = {v for v in p.owned if v in vh}
            if vs:
                parts.append(vs)
    ledger.extend_parallel(part_ledgers, name="tree-partitions")
    trace["ruling_set"] = sorted(ruling)
    trace["num_parts"] = len(parts)
    return parts, trace


def improved_3_spanner(g: Graph, cfg: Optional[SimConfig] = None) -> SpannerRun:
    """3-spanner with O(n^{3/2}) edges in O(log n)-dominated rounds: all
    edges of low-degree vertices, then the partitioned star construction
    over the high-degree vertices.  Supports weighted graphs."""
    cfg = (cfg or SimConfig()).resolved(g)
    cfg.check(g)  # also where no vertex is of high degree and no round runs
    spanner = Spanner(g)
    thr = high_degree_threshold(g.n)
    for v in g.vertices:
        if g.degree(v) < thr:
            for u in g.adj[v]:
                spanner.add(v, u, "low-degree")
    ledger = RoundLedger()
    parts, trace = partition_high_degree(g, cfg, ledger)
    if parts:
        part_map = {v: i for i, vs in enumerate(parts) for v in vs}
        # one announce round so every vertex learns its neighbors' parts
        _to_all(g, cfg, ledger, "part-announce", part_map, width(g.id_bits, 0, len(parts)))
        _star_spanner(g, cfg, ledger, spanner, part_map, internal=True)
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
    spanner, ledger = Spanner(g), RoundLedger()
    _star_spanner(g, cfg, ledger, spanner, part, internal=True)
    nparts = len(set(part.values()))
    return SpannerRun(spanner, ledger, trace={"num_parts": nparts, "low_bits": low})
