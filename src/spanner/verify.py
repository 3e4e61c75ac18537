"""Centralized, algorithm-independent oracles and structural auditors.

Everything here is computed solely from (graph, spanner) or from recorded
structures; nothing reaches into algorithm internals.  The stretch check
searches from each source only as far as that source's own edges need.
Unweighted, it counts the spanner's own edges at once (stretch 1) and
looks only at the graph edges the spanner leaves out: distances 2, 3 and 4
by tests of the spanner's neighbour tuples against one set per source and,
built only for a source that needs it, that source's distance-2 ball;
longer ones by a bidirectional hop search.  Weighted, it runs one Dijkstra
per source that stops once each target is settled within its own bound:
the weight of a spanner edge, or t times the weight of a missing one.  A
Floyd-Warshall all-pairs reference cross-validates both on small graphs.
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


def _bounded_search(adj, dist, s, bounds, direct):
    """Dijkstra from vertex index s over ``adj``, each vertex's list of
    (weight, neighbour index) pairs sorted by weight, for the targets of
    ``bounds`` (target index -> bound; every target has an edge).  Targets
    in ``direct`` (index -> weight) are s's neighbours and start at that
    weight.  Returns each target's tentative distance (inf if unreached):
    exact wherever it is at most the target's bound.

    A target stays open until it is popped; ``need`` maps each open target
    to min(bound, tentative), and ``cap`` is its largest value: a
    relaxation past it could bring no open target below that.  ``lo`` is the smallest edge weight at
    an open target, so a path into one through x costs at least
    fl(d(x) + lo): a non-target x is not pushed, and the search stops at a
    pop, once that reaches ``cap``.  Both rules are sound in floats because
    fl is monotone (cap - lo would not be).  They may cut a target at
    exactly its bound, which then comes back beyond it and costs the caller
    a rerun.  ``dist`` is all inf on entry and is reset on return through
    the touched indices."""
    push, pop = heapq.heappush, heapq.heappop
    need = dict(bounds)
    dist[s] = 0.0
    for j, w in direct.items():
        dist[j] = w
    touched = [s, *direct]
    heap = sorted([(0.0, s), *((w, j) for j, w in direct.items())])
    cap = max(need.values())
    lo = min(adj[j][0][0] for j in need)
    while heap:
        d, v = pop(heap)
        if d > dist[v]:
            continue
        if v in need:
            del need[v]
            if not need:
                break
            cap = max(need.values())
            lo = min(adj[j][0][0] for j in need)
        if d + lo >= cap:
            break
        for w, u in adj[v]:
            nd = d + w
            if nd > cap:
                break
            if nd < dist[u]:
                if u in need:
                    if nd < need[u]:
                        need[u] = nd
                        cap = max(need.values())
                elif nd + lo >= cap:
                    continue
                dist[u] = nd
                touched.append(u)
                push(heap, (nd, u))
    found = {j: dist[j] for j in bounds}
    for j in touched:
        dist[j] = math.inf
    return found


def verify_stretch(g: Graph, h: Spanner, t: float) -> StretchReport:
    """Exact per-edge stretch of g's edges inside the spanner h.

    Per spanner folklore, bounding the stretch of every graph edge bounds
    the stretch of every vertex pair, so the report quantifies over E(g).
    Each source (the smaller endpoint) searches only as far as its own
    edges need.

    Unweighted: since H is a subgraph of g, its edges count at once with
    stretch 1, and only E(g) minus E(H) is visited, in sorted order and so
    grouped by source.  H's neighbour tuples are g's own, rebuilt without
    the missing neighbours only at the endpoints of missing edges, so no
    neighbour set is copied; where most of g is missing, they are built
    from H's edges instead.  Per source, the set of its H-neighbours gives
    distance 2 against the other endpoint's tuple and distance 3 against
    that endpoint's neighbours' tuples.  A source with an edge beyond that
    builds its ball B2, the union of its neighbours' tuples: distance 4
    holds exactly when a neighbour's tuple of the other endpoint meets B2,
    and only distance 5 and beyond runs the bidirectional search.  The
    histogram keeps the insertion order of a pass over the sorted edges of
    g: key "1" sits where the smallest spanner edge falls.

    Weighted: one bounded Dijkstra per source over H, whose targets are
    the source's larger neighbours in g.  A target joined by an H edge of
    weight w is within w, the edge itself; a missing edge of weight w needs
    only w·t·(1+REL_TOL) to pass.  The search stops as soon as every
    target is settled within its bound (see ``_bounded_search``); targets
    beyond their bounds, and only they, take their distances from a second,
    uncapped search.
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
        if len(missing) > len(h.edges):
            # H is the smaller part of g: its neighbour lists from its edges
            adj = {v: [] for v in g.vertices}
            for u, v in h.edges:
                adj[u].append(v)
                adj[v].append(u)
        else:
            # H's neighbour tuples: g's, rebuilt without the missing
            # neighbours at each endpoint of a missing edge, from a list (a
            # tuple grown from an iterator is resized as it grows, which
            # raised peak RSS)
            adj = dict(g.adj)
            ends = sorted(missing + [(v, u) for u, v in missing], key=itemgetter(0))
            for v, group in groupby(ends, itemgetter(0)):
                gone = {u for _v, u in group}
                adj[v] = tuple([u for u in adj[v] if u not in gone])
        # the spanner edges all have stretch 1; the smallest one places key
        # "1" in the histogram and is the worst edge until a missing one
        first_kept = min(h.edges) if h.edges else None
        if first_kept is not None:
            worst_val, worst = 1.0, first_kept
        for src, group in groupby(missing, itemgetter(0)):
            near = set(adj[src])
            ball = None
            for e in group:
                if first_kept is not None and e > first_kept:
                    hist["1"] = len(h.edges)
                    first_kept = None
                nt = adj[e[1]]
                if not near.isdisjoint(nt):
                    d = 2
                else:
                    for y in nt:
                        if not near.isdisjoint(adj[y]):
                            d = 3
                            break
                    else:
                        if ball is None:
                            ball = set()
                            for x in near:
                                ball.update(adj[x])
                        for y in nt:
                            if not ball.isdisjoint(adj[y]):
                                d = 4
                                break
                        else:
                            d = _hops(adj, *e)
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
        index = {v: i for i, v in enumerate(g.vertices)}
        gw = g.weights
        kept = h.provenance
        # H's adjacency by vertex index: (weight, neighbour) sorted by weight
        wadj: List[List[Tuple[float, int]]] = [[] for _ in g.vertices]
        for e in h.edges:
            w = gw[e]
            i, j = index[e[0]], index[e[1]]
            wadj[i].append((w, j))
            wadj[j].append((w, i))
        for ns in wadj:
            ns.sort()
        dist = [math.inf] * g.n
        stretch = t * slack
        for src in g.vertices:
            ups = [u for u in g.adj[src] if u > src]
            if not ups:
                continue
            # a spanner edge bounds its target by its weight; a target
            # without spanner edges is unreachable and needs no search
            bounds, direct = {}, {}
            for u in ups:
                j = index[u]
                if wadj[j]:
                    w = gw[(src, u)]
                    if (src, u) in kept:
                        bounds[j] = direct[j] = w
                    else:
                        bounds[j] = w * stretch
            s = index[src]
            found = _bounded_search(wadj, dist, s, bounds, direct) if bounds else {}
            retry = {j: math.inf for j, d in found.items() if d > bounds[j]}
            if retry:
                # only the retried targets take the rerun's values: it stops
                # early, so its other entries may still be tentative
                found.update(_bounded_search(wadj, dist, s, retry, {}))
            for u in ups:
                checked += 1
                w = gw[(src, u)]
                d = found.get(index[u], math.inf)
                if math.isinf(d):
                    unreachable += 1
                    hist["inf"] = hist.get("inf", 0) + 1
                    if not math.isinf(worst_val):
                        worst, worst_val = (src, u), math.inf
                else:
                    ratio = d / w
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
