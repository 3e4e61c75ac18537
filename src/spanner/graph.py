"""Immutable undirected graphs, deterministic generators, and edge-list I/O.

Vertices carry arbitrary non-negative integer IDs.  Edges are canonical
``(u, v)`` tuples with ``u < v``.  Weighted graphs store one positive float
per edge; an unweighted graph behaves as if every weight were 1.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Edge = Tuple[int, int]


def canon(u: int, v: int) -> Edge:
    """Canonical (small, large) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


class GraphError(ValueError):
    pass


class Graph:
    """Undirected simple graph with sorted neighbor lists.

    Immutable after construction; safe to share across concurrent readers.
    """

    __slots__ = ("vertices", "adj", "weights", "edge_set", "_index", "id_bits")

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[Edge],
        weights: Optional[Dict[Edge, float]] = None,
    ):
        vs = sorted(set(int(v) for v in vertices))
        if vs and vs[0] < 0:
            raise GraphError("vertex IDs must be non-negative")
        vset = set(vs)
        adj: Dict[int, List[int]] = {v: [] for v in vs}
        eset = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at {u}")
            if u not in vset or v not in vset:
                raise GraphError(f"edge ({u},{v}) references unknown vertex")
            e = canon(u, v)
            if e in eset:
                continue
            eset.add(e)
            adj[e[0]].append(e[1])
            adj[e[1]].append(e[0])
        self.vertices: Tuple[int, ...] = tuple(vs)
        self.adj: Dict[int, Tuple[int, ...]] = {
            v: tuple(sorted(ns)) for v, ns in adj.items()
        }
        self.edge_set = frozenset(eset)
        if weights is not None:
            w = {}
            for e, wt in weights.items():
                e = canon(*e)
                if e not in eset:
                    raise GraphError(f"weight given for non-edge {e}")
                if not 0 < wt < math.inf:
                    raise GraphError(f"weight {wt} on {e} is not positive and finite")
                w[e] = float(wt)
            missing = eset - set(w)
            if missing:
                raise GraphError(f"missing weights for {sorted(missing)[:3]}...")
            self.weights: Optional[Dict[Edge, float]] = w
        else:
            self.weights = None
        self._index = {v: i for i, v in enumerate(vs)}
        # width of one vertex ID in bits: ceil(log2(max_id + 1)), at least 1
        self.id_bits: int = max(1, self.max_id.bit_length())

    # -- basic accessors -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edge_set)

    @property
    def max_id(self) -> int:
        return self.vertices[-1] if self.vertices else 0

    @property
    def weighted(self) -> bool:
        return self.weights is not None

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return canon(u, v) in self.edge_set

    def weight(self, u: int, v: int) -> float:
        if self.weights is None:
            return 1.0
        return self.weights[canon(u, v)]

    def edges(self) -> List[Edge]:
        return sorted(self.edge_set)

    def subgraph(self, keep: Iterable[int]) -> "Graph":
        """Induced subgraph on the given vertex set (IDs preserved)."""
        ks = set(keep)
        adj = self.adj
        es = [(v, u) for v in ks if v in adj for u in adj[v] if u > v and u in ks]
        w = {e: self.weights[e] for e in es} if self.weights else None
        return Graph(ks, es, w)

    def edge_subgraph(self, vertices: Iterable[int], edges: Iterable[Edge]) -> "Graph":
        """Subgraph with an explicit edge subset (all must exist in self)."""
        es = [canon(*e) for e in edges]
        for e in es:
            if e not in self.edge_set:
                raise GraphError(f"{e} is not an edge of the base graph")
        w = {e: self.weights[e] for e in es} if self.weights else None
        return Graph(vertices, es, w)

    def validate(self) -> None:
        """Assert structural invariants; raises GraphError on violation."""
        for v, ns in self.adj.items():
            if list(ns) != sorted(set(ns)):
                raise GraphError(f"neighbor list of {v} unsorted or duplicated")
            for u in ns:
                if v not in self.adj[u]:
                    raise GraphError(f"asymmetric adjacency {v}->{u}")
                if u == v:
                    raise GraphError(f"self-loop at {v}")
        if self.weights is not None:
            for e, w in self.weights.items():
                if not 0 < w < math.inf:
                    raise GraphError(f"weight {w} on {e} is not positive and finite")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edge_set == other.edge_set
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.vertices, self.edge_set))

    def __repr__(self):
        w = ", weighted" if self.weighted else ""
        return f"Graph(n={self.n}, m={self.m}{w})"


# -- spanner container ----------------------------------------------------


class Spanner:
    """A growing edge subset of a base graph with per-edge provenance tags."""

    __slots__ = ("base", "edges", "provenance")

    def __init__(self, base: Graph):
        self.base = base
        self.edges: set = set()
        self.provenance: Dict[Edge, str] = {}

    def add(self, u: int, v: int, tag: str) -> None:
        e = canon(u, v)
        if e not in self.base.edge_set:
            raise GraphError(f"spanner edge {e} not in base graph")
        if e not in self.edges:
            self.edges.add(e)
            self.provenance[e] = tag

    @property
    def size(self) -> int:
        return len(self.edges)

    def __repr__(self):
        return f"Spanner({self.size} edges of {self.base!r})"


# -- BFS ------------------------------------------------------------------


def bfs_dist(
    g: Graph, src: int, hop_cap: Optional[int] = None
) -> Dict[int, int]:
    """Exact hop distances from ``src``; vertices beyond ``hop_cap`` omitted."""
    if src not in g._index:
        raise GraphError(f"source {src} not in graph")
    dist = {src: 0}
    q = deque([src])
    while q:
        v = q.popleft()
        d = dist[v]
        if hop_cap is not None and d >= hop_cap:
            continue
        for u in g.adj[v]:
            if u not in dist:
                dist[u] = d + 1
                q.append(u)
    return dist


# -- deterministic generators ----------------------------------------------


def _path(n: int) -> Graph:
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    es = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Graph(range(n), es)


def _grid(rows: int, cols: int) -> Graph:
    es = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                es.append((v, v + 1))
            if r + 1 < rows:
                es.append((v, v + cols))
    return Graph(range(rows * cols), es)


def _complete(n: int) -> Graph:
    es = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(range(n), es)


def _complete_bipartite(a: int, b: int) -> Graph:
    es = [(i, a + j) for i in range(a) for j in range(b)]
    return Graph(range(a + b), es)


def _erdos_renyi(n: int, p: float, seed: int) -> Graph:
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"p={p} outside [0,1]")
    rng = random.Random(seed)
    es = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                es.append((i, j))
    return Graph(range(n), es)


def _random_bipartite(a: int, b: int, p: float, seed: int) -> Graph:
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"p={p} outside [0,1]")
    rng = random.Random(seed)
    es = []
    for i in range(a):
        for j in range(b):
            if rng.random() < p:
                es.append((i, a + j))
    return Graph(range(a + b), es)


def _hypercube(d: int) -> Graph:
    n = 1 << d
    es = []
    for v in range(n):
        for bit in range(d):
            u = v ^ (1 << bit)
            if u > v:
                es.append((v, u))
    return Graph(range(n), es)


def _bounded_id(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi structure with vertex IDs drawn from [1, 2n]."""
    base = _erdos_renyi(n, p, seed)
    rng = random.Random(seed ^ 0x5EED)
    ids = rng.sample(range(1, 2 * n + 1), n)
    relabel = {i: ids[i] for i in range(n)}
    es = [(relabel[u], relabel[v]) for u, v in base.edge_set]
    return Graph(ids, es)


GENERATORS = {
    "path": ("n",),
    "cycle": ("n",),
    "grid": ("rows", "cols"),
    "complete": ("n",),
    "complete-bipartite": ("a", "b"),
    "erdos-renyi": ("n", "p"),
    "random-bipartite": ("a", "b", "p"),
    "hypercube": ("d",),
    "bounded-id": ("n", "p"),
}


def generate(kind: str, params: Dict[str, object], seed: int = 0) -> Graph:
    """Deterministic graph generation; same (kind, params, seed) => same graph."""
    if kind not in GENERATORS:
        raise GraphError(f"unknown generator kind {kind!r}")
    p = dict(params)
    try:
        if kind == "path":
            return _path(int(p["n"]))
        if kind == "cycle":
            return _cycle(int(p["n"]))
        if kind == "grid":
            return _grid(int(p["rows"]), int(p["cols"]))
        if kind == "complete":
            return _complete(int(p["n"]))
        if kind == "complete-bipartite":
            return _complete_bipartite(int(p["a"]), int(p["b"]))
        if kind == "erdos-renyi":
            return _erdos_renyi(int(p["n"]), float(p["p"]), seed)
        if kind == "random-bipartite":
            return _random_bipartite(int(p["a"]), int(p["b"]), float(p["p"]), seed)
        if kind == "hypercube":
            return _hypercube(int(p["d"]))
        if kind == "bounded-id":
            return _bounded_id(int(p["n"]), float(p.get("p", 0.1)), seed)
    except KeyError as exc:
        raise GraphError(f"generator {kind} missing parameter {exc}") from exc
    raise AssertionError


def with_random_weights(g: Graph, seed: int, lo: int = 1, hi: int = 9) -> Graph:
    """Copy of g with deterministic small integer edge weights."""
    rng = random.Random(seed)
    w = {e: float(rng.randint(lo, hi)) for e in sorted(g.edge_set)}
    return Graph(g.vertices, g.edge_set, w)


# -- edge-list I/O ----------------------------------------------------------
#
# Format: optional header "n=<int>" (vertices 0..n-1), "#" comments, one edge
# per line "u v [w]".  Graphs whose vertex set is not contiguous from 0 save
# their vertex list in a comment the loader recognizes, and each weight is
# written as text that reads back as the same float, so save/load is the
# identity for every graph.

_VERTS_PREFIX = "# vertices:"


def _weight_text(w: float) -> str:
    """``:g`` text of w when it reads back as w, else the shortest that does."""
    text = f"{w:g}"
    return text if float(text) == w else repr(w)


def save(g: Graph, path: str, edges: Optional[Iterable[Edge]] = None) -> None:
    """Write g, or only the sorted canonical ``edges`` of g when given,
    line by line straight to the file."""
    weights = g.weights
    with open(path, "w") as fh:
        if g.vertices == tuple(range(g.n)):
            fh.write(f"n={g.n}\n")
        else:
            fh.write(_VERTS_PREFIX + " " + " ".join(map(str, g.vertices)) + "\n")
        for u, v in g.edges() if edges is None else edges:
            if weights is not None:
                fh.write(f"{u} {v} {_weight_text(weights[(u, v)])}\n")
            else:
                fh.write(f"{u} {v}\n")


def load(path: str) -> Graph:
    vertices: set = set()
    declared: Optional[Sequence[int]] = None
    edges: List[Edge] = []
    weights: Dict[Edge, float] = {}
    plain = False  # an unweighted edge line was seen
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith(_VERTS_PREFIX):
                declared = [int(t) for t in line[len(_VERTS_PREFIX):].split()]
                continue
            if line.startswith("#"):
                continue
            if line.startswith("n="):
                try:
                    declared = range(int(line[2:]))
                except ValueError:
                    raise GraphError(f"{path}:{lineno}: bad header {line!r}")
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphError(f"{path}:{lineno}: malformed line {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphError(f"{path}:{lineno}: bad vertex id in {line!r}")
            e = canon(u, v)
            vertices.update(e)
            edges.append(e)
            if len(parts) == 2:
                plain = True
                continue
            if e in weights:
                raise GraphError(f"{path}:{lineno}: repeated weighted edge {e}")
            try:
                weights[e] = float(parts[2])
            except ValueError:
                raise GraphError(f"{path}:{lineno}: bad weight in {line!r}")
    if declared is not None:
        vertices.update(declared)
    if weights and plain:
        raise GraphError(f"{path}: mixed weighted and unweighted lines")
    return Graph(vertices, edges, weights or None)
