"""Immutable undirected graphs, deterministic generators, and edge-list I/O.

Vertices carry arbitrary non-negative integer IDs.  Edges are canonical
``(u, v)`` tuples with ``u < v``.  Weighted graphs store one positive float
per edge; an unweighted graph behaves as if every weight were 1.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Dict, Iterable, KeysView, List, Optional, Sequence, Tuple

Edge = Tuple[int, int]


def canon(u: int, v: int) -> Edge:
    """Canonical (small, large) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


class GraphError(ValueError):
    pass


class Graph:
    """Undirected simple graph with sorted neighbor lists.

    A canonical input tuple is stored as it is (any other edge is
    canonicalized), so edges share the caller's tuples and vertex ints.
    Immutable after construction; safe to share across concurrent readers.
    """

    __slots__ = ("vertices", "adj", "weights", "edge_set", "id_bits")

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
        es: Dict[Edge, None] = {}  # a dict, so the frozenset is sized once
        for e in edges:
            u, v = e
            if u == v:
                raise GraphError(f"self-loop at {u}")
            if u not in vset or v not in vset:
                raise GraphError(f"edge ({u},{v}) references unknown vertex")
            es[e if u < v and type(e) is tuple else canon(u, v)] = None
        self.edge_set = eset = frozenset(es)
        adj: Dict[int, List[int]] = {v: [] for v in vs}
        for u, v in eset:
            adj[u].append(v)
            adj[v].append(u)
        self.vertices: Tuple[int, ...] = tuple(vs)
        self.adj: Dict[int, Tuple[int, ...]] = {
            v: tuple(sorted(ns)) for v, ns in adj.items()
        }
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
    """A growing edge subset of a base graph with per-edge provenance tags:
    ``provenance`` (edge -> first tag, in insertion order) is the one store,
    written only by ``add``; ``edges`` is a read-only view of its keys."""

    __slots__ = ("base", "provenance")

    def __init__(self, base: Graph):
        self.base = base
        self.provenance: Dict[Edge, str] = {}

    @property
    def edges(self) -> KeysView[Edge]:
        return self.provenance.keys()

    def add(self, u: int, v: int, tag: str) -> None:
        e = canon(u, v)
        if e not in self.provenance:
            if e not in self.base.edge_set:
                raise GraphError(f"spanner edge {e} not in base graph")
            self.provenance[e] = tag

    @property
    def size(self) -> int:
        return len(self.provenance)

    def __repr__(self):
        return f"Spanner({self.size} edges of {self.base!r})"


# -- BFS ------------------------------------------------------------------


def bfs_dist(
    g: Graph, src: int, hop_cap: Optional[int] = None
) -> Dict[int, int]:
    """Exact hop distances from ``src``; vertices beyond ``hop_cap`` omitted."""
    if src not in g.adj:
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
    """Pair u < v is an edge iff its ``random()`` draw is below p.  The draws
    go row by row in ID order, and each edge tuple holds the graph's own
    vertex objects, so no int is allocated per pair."""
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"p={p} outside [0,1]")
    rand = random.Random(seed).random
    ids = list(range(n))
    es: List[Edge] = []
    for i, u in enumerate(ids):
        es += [(u, v) for v in ids[i + 1:] if rand() < p]
    return Graph(ids, es)


def _random_bipartite(a: int, b: int, p: float, seed: int) -> Graph:
    """Sides [0, a) and [a, a + b); cross pairs drawn as in ``_erdos_renyi``."""
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"p={p} outside [0,1]")
    rand = random.Random(seed).random
    ids = list(range(a + b))
    right = ids[a:]
    es: List[Edge] = []
    for u in ids[:a]:
        es += [(u, v) for v in right if rand() < p]
    return Graph(ids, es)


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


# kind -> (builder, its parameters in order: sizes and ``p``, takes the seed)
GENERATORS = {
    "path": (_path, ("n",), False),
    "cycle": (_cycle, ("n",), False),
    "grid": (_grid, ("rows", "cols"), False),
    "complete": (_complete, ("n",), False),
    "complete-bipartite": (_complete_bipartite, ("a", "b"), False),
    "erdos-renyi": (_erdos_renyi, ("n", "p"), True),
    "random-bipartite": (_random_bipartite, ("a", "b", "p"), True),
    "hypercube": (_hypercube, ("d",), False),
    "bounded-id": (_bounded_id, ("n", "p"), True),
}


def generate(kind: str, params: Dict[str, object], seed: int = 0) -> Graph:
    """Deterministic graph generation; same (kind, params, seed) => same graph.
    A missing or unknown parameter and a negative size raise GraphError."""
    if kind not in GENERATORS:
        raise GraphError(f"unknown generator kind {kind!r}")
    build, keys, seeded = GENERATORS[kind]
    p = dict(params)
    unknown = sorted(set(p) - set(keys))
    if unknown:
        raise GraphError(f"generator {kind} has no parameter {unknown[0]!r}")
    if kind == "bounded-id":
        p.setdefault("p", 0.1)
    try:
        args = [float(p[key]) if key == "p" else int(p[key]) for key in keys]
    except KeyError as exc:
        raise GraphError(f"generator {kind} missing parameter {exc}") from exc
    for key, val in zip(keys, args):
        if key != "p" and val < 0:
            raise GraphError(f"generator {kind}: {key}={val} is negative")
    return build(*args, seed) if seeded else build(*args)


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
