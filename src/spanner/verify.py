"""Centralized, algorithm-independent oracles and structural auditors.

Everything here is computed solely from (graph, spanner) or from recorded
structures; nothing reaches into algorithm internals.  Unweighted stretch
checking counts the spanner's own edges at once (stretch 1) and looks only
at the graph edges the spanner leaves out: distances 2 and 3 by tests of
the spanner's neighbour tuples (the graph's own, rebuilt only where an edge
is missing) against one set per source, longer ones by a bidirectional
hop search.
Weighted checking runs a capped Dijkstra per source.  A Floyd-Warshall
all-pairs reference cross-validates both on small graphs.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from .clustering import Clustering, Superclustering
from .graph import Edge, Graph, Spanner

if TYPE_CHECKING:  # numpy loads only with the all-pairs oracle and the fits
    import numpy as np

REL_TOL = 1e-9


@dataclass
class StretchReport:
    bound: float
    max_stretch: float
    worst_edge: Optional[Edge]
    histogram: Dict[str, int]
    unreachable: int
    passed: bool
    edges_checked: int

    def to_json(self) -> dict:
        return {
            "bound": self.bound,
            "max_stretch": self.max_stretch if self.max_stretch != math.inf else "inf",
            "worst_edge": list(self.worst_edge) if self.worst_edge else None,
            "histogram": self.histogram,
            "unreachable": self.unreachable,
            "passed": self.passed,
            "edges_checked": self.edges_checked,
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _check_subgraph(g: Graph, h: Spanner) -> None:
    if h.base is not g and not (h.edges <= g.edge_set):
        raise ValueError("spanner is not a subgraph of the given graph")


def _hops(adj, s, t):
    """Exact hop distance from s to t != s over neighbour tuples, or None.

    Bidirectional search: grow the ball with the smaller frontier by one
    level until it touches the other frontier.  The two balls stay
    disjoint until then, so the first touch gives the distance."""
    seen, other_seen = {s}, {t}
    front, other = {s}, {t}
    d = 0
    while front and other:
        d += 1
        if len(front) > len(other):
            front, other = other, front
            seen, other_seen = other_seen, seen
        nxt = set()
        for v in front:
            nxt.update(adj[v])
        nxt -= seen
        if not nxt.isdisjoint(other):
            return d
        seen |= nxt
        front = nxt
    return None


def _dijkstra(adj, src, cap, wanted):
    """Distances from src over weighted adjacency v -> [(u, w)], stopping
    once every wanted vertex is settled; paths longer than cap are cut."""
    dist = {src: 0.0}
    pq = [(0.0, src)]
    remaining = set(wanted)
    while pq and remaining:
        d, v = heapq.heappop(pq)
        if d > dist.get(v, math.inf):
            continue
        remaining.discard(v)
        for u, w in adj[v]:
            nd = d + w
            if nd < dist.get(u, math.inf) and (cap is None or nd <= cap):
                dist[u] = nd
                heapq.heappush(pq, (nd, u))
    return dist


def _missing_hops(adj, near, s, t):
    """Hop distance in the spanner between the endpoints of a missing edge
    (s, t), where ``near`` is the set of s's neighbours: 2 and 3 by tests of
    t's and its neighbours' tuples against ``near``, beyond by search."""
    nt = adj[t]
    if not near.isdisjoint(nt):
        return 2
    for y in nt:
        if not near.isdisjoint(adj[y]):
            return 3
    return _hops(adj, s, t)


def verify_stretch(g: Graph, h: Spanner, t: float) -> StretchReport:
    """Exact per-edge stretch of g's edges inside the spanner h.

    Per spanner folklore, bounding the stretch of every graph edge bounds
    the stretch of every vertex pair, so the report quantifies over E(g).
    Since H is a subgraph of g, its edges count at once with stretch 1; the
    unweighted check visits only E(g) minus E(H), in sorted order.  H's
    neighbour tuples are g's own, rebuilt without the missing neighbours
    only at the endpoints of missing edges; no neighbour set is copied.
    One set of H-neighbours is built per source (the smaller endpoint):
    distance 2 tests it against the other endpoint's tuple, distance 3
    against that endpoint's neighbours' tuples, and only longer distances
    run the bidirectional search.  The histogram keeps the insertion order
    of a pass over the sorted edges of g: key "1" sits where the smallest
    spanner edge falls.
    """
    _check_subgraph(g, h)
    hist: Dict[str, int] = {}
    worst: Optional[Edge] = None
    worst_val = 0.0
    unreachable = 0
    checked = 0
    slack = 1.0 + REL_TOL

    if not g.weighted:
        missing = sorted(g.edge_set.difference(h.provenance))
        # H's neighbour tuples: g's, rebuilt without the missing neighbours
        # at each endpoint of a missing edge, from a list (a tuple grown
        # from an iterator is resized as it grows, which raised peak RSS)
        adj = dict(g.adj)
        ends = sorted(missing + [(v, u) for u, v in missing], key=itemgetter(0))
        for v, group in groupby(ends, itemgetter(0)):
            gone = {u for _v, u in group}
            adj[v] = tuple([u for u in adj[v] if u not in gone])
        src = near = None
        # the spanner edges all have stretch 1; the smallest one places key
        # "1" in the histogram and is the worst edge until a missing one
        first_kept = min(h.edges) if h.edges else None
        if first_kept is not None:
            worst_val, worst = 1.0, first_kept
        for e in missing:
            if first_kept is not None and e > first_kept:
                hist["1"] = len(h.edges)
                first_kept = None
            if e[0] != src:
                src, near = e[0], set(adj[e[0]])
            d = _missing_hops(adj, near, *e)
            if d is None:
                unreachable += 1
                hist["inf"] = hist.get("inf", 0) + 1
                if not math.isinf(worst_val):
                    worst, worst_val = e, math.inf
            else:
                hist[str(d)] = hist.get(str(d), 0) + 1
                if d > worst_val:
                    worst_val, worst = float(d), e
        if first_kept is not None:
            hist["1"] = len(h.edges)
        checked = g.m
    else:
        wadj: Dict[int, List[Tuple[int, float]]] = {v: [] for v in g.vertices}
        gw = g.weights
        for u, v in h.edges:
            w = gw[(u, v)]
            wadj[u].append((v, w))
            wadj[v].append((u, w))
        for src in g.vertices:
            targets = {u: g.weight(src, u) for u in g.adj[src] if u > src}
            if not targets:
                continue
            cap = max(targets.values()) * t * slack
            dist = _dijkstra(wadj, src, cap, set(targets))
            retry = {u for u in targets if u not in dist}
            if retry:
                dist.update(_dijkstra(wadj, src, None, retry))
            for u, w in sorted(targets.items()):
                checked += 1
                d = dist.get(u)
                ratio = math.inf if d is None else d / w
                if d is None:
                    unreachable += 1
                    hist["inf"] = hist.get("inf", 0) + 1
                    if not math.isinf(worst_val):
                        worst, worst_val = (src, u), math.inf
                else:
                    hist[f"{ratio:.3f}"] = hist.get(f"{ratio:.3f}", 0) + 1
                    if ratio > worst_val:
                        worst_val, worst = ratio, (src, u)
    passed = worst_val <= t * slack
    return StretchReport(
        bound=t,
        max_stretch=worst_val,
        worst_edge=worst,
        histogram=hist,
        unreachable=unreachable,
        passed=passed,
        edges_checked=checked,
    )


def floyd_warshall(g: Graph, edges: Iterable[Edge]) -> np.ndarray:
    """All-pairs distances over the given edge subset (min-plus squaring)."""
    import numpy as np

    idx = {v: i for i, v in enumerate(g.vertices)}
    n = g.n
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v in edges:
        w = g.weight(u, v)
        i, j = idx[u], idx[v]
        d[i, j] = min(d[i, j], w)
        d[j, i] = d[i, j]
    for k in range(n):
        np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :], out=d)
    return d


def verify_stretch_allpairs(g: Graph, h: Spanner, t: float) -> StretchReport:
    """All-pairs reference check via Floyd-Warshall; for n <= ~120."""
    _check_subgraph(g, h)
    d = floyd_warshall(g, h.edges)
    idx = {v: i for i, v in enumerate(g.vertices)}
    worst: Optional[Edge] = None
    worst_val = 0.0
    hist: Dict[str, int] = {}
    unreachable = 0
    checked = 0
    for u, v in g.edges():
        checked += 1
        w = g.weight(u, v)
        val = d[idx[u], idx[v]] / w
        if math.isinf(val):
            unreachable += 1
            hist["inf"] = hist.get("inf", 0) + 1
            if not math.isinf(worst_val):
                worst, worst_val = (u, v), math.inf
        else:
            key = str(int(round(val * w))) if not g.weighted else f"{val:.3f}"
            hist[key] = hist.get(key, 0) + 1
            if val > worst_val:
                worst_val, worst = val, (u, v)
    return StretchReport(
        bound=t,
        max_stretch=worst_val,
        worst_edge=worst,
        histogram=hist,
        unreachable=unreachable,
        passed=worst_val <= t * (1 + REL_TOL),
        edges_checked=checked,
    )


# ---------------------------------------------------------------------------
# Structural audits
# ---------------------------------------------------------------------------


@dataclass
class AuditReport:
    passed: bool
    findings: List[str] = field(default_factory=list)

    def note(self, msg: str) -> None:
        self.findings.append(msg)
        self.passed = False

    def to_json(self) -> dict:
        return {"passed": self.passed, "findings": self.findings}


def audit_superclustering(
    g: Graph, clustering: Clustering, sc: Superclustering
) -> AuditReport:
    """Check the nice-superclustering properties: the singleton rule (N0),
    cluster balance (N1), vertex balance (N2), and connectivity with
    pairwise edge-disjoint trees (N3), plus covering disjointness."""
    rep = AuditReport(passed=True)
    centers = clustering.centers
    seen: Set[int] = set()
    for s in sc.superclusters:
        if not s.clusters:
            rep.note(f"supercluster {s.sc_id} is empty")
            continue
        if s.clusters & seen:
            rep.note(f"supercluster {s.sc_id} overlaps another supercluster")
        seen |= s.clusters
        if not s.clusters <= centers:
            rep.note(f"supercluster {s.sc_id} references unknown clusters")
    if seen != centers:
        rep.note(
            f"superclustering covers {len(seen)} of {len(centers)} clusters"
        )
    if len(sc.superclusters) > sc.count_bound:
        rep.note(
            f"{len(sc.superclusters)} superclusters exceed bound {sc.count_bound}"
        )
    vsets = sc.vertex_sets(clustering)
    for s in sc.superclusters:
        nv = len(vsets[s.sc_id])
        nc = len(s.clusters)
        if nv >= sc.vertex_bound and nc != 1:
            rep.note(f"N0: supercluster {s.sc_id} has {nv} vertices but {nc} clusters")
        if nc > 1:
            if nc > sc.cluster_bound:
                rep.note(f"N1: supercluster {s.sc_id} has {nc} clusters")
            if nv > sc.vertex_bound:
                rep.note(f"N2: supercluster {s.sc_id} has {nv} vertices")
    used_edges: Set[Edge] = set()
    for s in sc.superclusters:
        for e in s.tree_edges:
            if e not in g.edge_set:
                rep.note(f"N3: tree edge {e} of {s.sc_id} not in graph")
            if e in used_edges:
                rep.note(f"N3: tree edge {e} shared between superclusters")
        used_edges |= s.tree_edges
        try:
            depth = s.tree_depth()
        except ValueError as exc:
            rep.note(f"N3: {exc}")
            continue
        if depth > s.depth_bound:
            rep.note(f"N3: supercluster {s.sc_id} tree depth {depth} > {s.depth_bound}")
        tv = s.tree_vertices()
        missing = {c for c in s.clusters if c not in tv}
        if missing:
            rep.note(f"N3: tree of {s.sc_id} misses centers {sorted(missing)[:4]}")
    return rep


def audit_ruling_set(
    g: Graph, candidates: Set[int], chosen: Set[int], alpha: int, beta: int
) -> AuditReport:
    """Exhaustive BFS check of alpha-separation and beta-domination."""
    from .graph import bfs_dist

    rep = AuditReport(passed=True)
    if not chosen <= candidates:
        rep.note("ruling set is not a subset of the candidates")
    dist_from: Dict[int, Dict[int, int]] = {u: bfs_dist(g, u) for u in chosen}
    for u in chosen:
        for v in chosen:
            if u < v and dist_from[u].get(v, math.inf) < alpha:
                rep.note(f"separation: dist({u},{v}) = {dist_from[u].get(v)}")
    for c in candidates:
        d = min((dist_from[u].get(c, math.inf) for u in chosen), default=math.inf)
        if d > beta:
            rep.note(f"domination: candidate {c} at distance {d}")
    return rep


# ---------------------------------------------------------------------------
# Bound fitting and regression pins
# ---------------------------------------------------------------------------


@dataclass
class BoundFit:
    """Constant of a fixed-form bound over a corpus: both the least-squares
    constant through the origin and the maximum observed ratio."""

    form: str
    lsq: float
    max_ratio: float
    points: int

    def to_json(self) -> dict:
        return {
            "form": self.form,
            "lsq": self.lsq,
            "max_ratio": self.max_ratio,
            "points": self.points,
        }


def fit_bounds(
    values: List[float], predictors: List[float], form: str = "a*f(x)"
) -> BoundFit:
    """Least-squares constant a for y ~ a * f(x), plus max(y/f)."""
    if len(values) != len(predictors) or not values:
        raise ValueError("need matching nonempty value/predictor lists")
    import numpy as np

    y = np.asarray(values, dtype=float)
    f = np.asarray(predictors, dtype=float)
    if np.any(f <= 0) or float(np.dot(f, f)) == 0.0:
        raise ValueError("degenerate corpus: non-positive predictors")
    a = float(np.dot(f, y) / np.dot(f, f))
    return BoundFit(
        form=form,
        lsq=a,
        max_ratio=float(np.max(y / f)),
        points=len(values),
    )


def fit_exponent(ns: List[float], ys: List[float]) -> Tuple[float, float]:
    """Log-log regression y ~ c * n^e; returns (e, c)."""
    if len(ns) < 2:
        raise ValueError("need at least two points")
    import numpy as np

    lx = np.log(np.asarray(ns, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    e, logc = np.polyfit(lx, ly, 1)
    return float(e), float(math.exp(logc))
