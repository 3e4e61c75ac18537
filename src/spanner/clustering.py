"""Clustering, superclustering and tree-partition data structures.

A level-i clustering partitions a subset of the vertices into clusters,
each with a center and a BFS tree of depth <= i rooted at that center.
A superclustering groups clusters; each supercluster carries a connecting
tree in G, and the trees of distinct superclusters are edge-disjoint.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .graph import Edge, Graph, canon


def orient_tree(
    root: int, edges: Iterable[Edge]
) -> Dict[int, Tuple[Optional[int], Tuple[int, ...]]]:
    """Orient a tree from its root by BFS over sorted neighbors:
    vertex -> (parent, sorted children).  Vertices the root cannot reach
    are left out."""
    adj: Dict[int, List[int]] = {root: []}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    parent: Dict[int, Optional[int]] = {root: None}
    q = deque([root])
    while q:
        x = q.popleft()
        for y in sorted(adj[x]):
            if y not in parent:
                parent[y] = x
                q.append(y)
    children: Dict[int, List[int]] = {v: [] for v in parent}
    for v, p in parent.items():
        if p is not None:
            children[p].append(v)
    return {v: (p, tuple(sorted(children[v]))) for v, p in parent.items()}


def tree_span(root: int, edges: Iterable[Edge]) -> Set[int]:
    """The vertices of a tree given by its root and edges: the root and
    every edge endpoint."""
    vs = {root}
    for e in edges:
        vs.update(e)
    return vs


@dataclass
class Clustering:
    """Partition of a vertex subset into centered, tree-backed clusters."""

    level: int
    membership: Dict[int, int]        # vertex -> center
    parents: Dict[int, Optional[int]]  # vertex -> tree parent (None at center)
    depth_bound: int

    @property
    def centers(self) -> Set[int]:
        return {c for c in self.membership.values()}

    @property
    def clustered(self) -> Set[int]:
        return set(self.membership)

    def members(self) -> Dict[int, List[int]]:
        out: Dict[int, List[int]] = {}
        for v, c in self.membership.items():
            out.setdefault(c, []).append(v)
        return {c: sorted(vs) for c, vs in out.items()}

    def tree_edges(self) -> Set[Edge]:
        return {
            canon(v, p) for v, p in self.parents.items() if p is not None
        }

    def tree_edges_by_center(self) -> Dict[int, FrozenSet[Edge]]:
        """Each cluster's tree edges, keyed by its center, in one scan."""
        by_center: Dict[int, List[Edge]] = {c: [] for c in self.membership.values()}
        for v, p in self.parents.items():
            if p is not None:
                by_center[self.membership[v]].append(canon(v, p))
        return {c: frozenset(es) for c, es in by_center.items()}

    def depths(self) -> Dict[int, int]:
        d: Dict[int, int] = {}
        for c in self.centers:
            d[c] = 0
        pending = [v for v in self.membership if v not in d]
        # parents form trees, so repeated relaxation terminates
        while pending:
            nxt = []
            for v in pending:
                p = self.parents[v]
                if p in d:
                    d[v] = d[p] + 1
                else:
                    nxt.append(v)
            if len(nxt) == len(pending):
                raise ValueError("broken parent pointers in clustering")
            pending = nxt
        return d

    def validate(self, g: Graph) -> None:
        members = self.members()
        for c, vs in members.items():
            if c not in vs:
                raise ValueError(f"center {c} not inside its own cluster")
        for v, p in self.parents.items():
            if p is None:
                if self.membership[v] != v:
                    raise ValueError(f"non-center {v} lacks a parent")
                continue
            if self.membership.get(p) != self.membership[v]:
                raise ValueError(f"tree edge ({v},{p}) crosses clusters")
            if not g.has_edge(v, p):
                raise ValueError(f"tree edge ({v},{p}) not in graph")
        for v, d in self.depths().items():
            if d > self.depth_bound:
                raise ValueError(
                    f"vertex {v} at tree depth {d} > bound {self.depth_bound}"
                )

    @staticmethod
    def singletons(vertices) -> "Clustering":
        return Clustering(
            level=0,
            membership={v: v for v in vertices},
            parents={v: None for v in vertices},
            depth_bound=0,
        )


@dataclass
class Supercluster:
    """A group of cluster centers joined by a tree in G, whose depth its
    superclustering bounds."""

    sc_id: int                      # ID of the maximum-ID member vertex
    clusters: FrozenSet[int]        # member cluster centers
    tree_edges: FrozenSet[Edge]     # connecting tree T(SC) in G
    root: int

    def tree_vertices(self) -> Set[int]:
        return tree_span(self.root, self.tree_edges)

    def tree_depth(self) -> int:
        """Depth of the connecting tree from its root (0 for a lone vertex)."""
        tree = orient_tree(self.root, self.tree_edges)
        if len(tree) < len(self.tree_vertices()):
            raise ValueError(f"supercluster {self.sc_id} tree is disconnected")
        depth: Dict[int, int] = {}
        for v, (p, _children) in tree.items():  # parents come first
            depth[v] = 0 if p is None else depth[p] + 1
        return max(depth.values())


@dataclass
class Superclustering:
    """A covering, cluster-disjoint grouping of one clustering's clusters,
    at that clustering's level, with the bounds its superclusters share."""

    level: int
    superclusters: List[Supercluster]
    vertex_bound: int       # N0/N2 bound on N_V for non-singletons
    cluster_bound: int      # N1 bound on N_C for non-singletons
    count_bound: int        # bound on the number of superclusters
    depth_bound: int        # N3 bound on every connecting tree's depth

    def vertex_sets(self, clustering: Clustering) -> Dict[int, Set[int]]:
        members = clustering.members()
        out = {}
        for sc in self.superclusters:
            vs: Set[int] = set()
            for c in sc.clusters:
                vs.update(members.get(c, ()))
            out[sc.sc_id] = vs
        return out


@dataclass
class WeightedTree:
    """Vertex-weighted tree within G, input of the balanced partitioning."""

    edges: FrozenSet[Edge]
    root: int
    weights: Dict[int, int]
    bound: int  # B

    def vertices(self) -> Set[int]:
        return tree_span(self.root, self.edges)

    def validate(self) -> Dict[int, Tuple[Optional[int], Tuple[int, ...]]]:
        """Check the tree and its weights; returns the tree oriented from
        its root (:func:`orient_tree`)."""
        vs = self.vertices()
        if len(self.edges) != len(vs) - 1:
            raise ValueError("edge count does not match a tree")
        tree = orient_tree(self.root, self.edges)
        if set(tree) != vs:
            raise ValueError("tree is disconnected")
        for v in vs:
            w = self.weights.get(v, 0)
            if w < 0:
                raise ValueError(f"negative weight at {v}")
            if w > self.bound:
                raise ValueError(
                    f"vertex {v} weight {w} exceeds bound B={self.bound}"
                )
        return tree


@dataclass
class TreePart:
    root: int
    owned: FrozenSet[int]       # V-hat(T_j)
    edges: FrozenSet[Edge]      # subtree edges

    @property
    def tree_vertices(self) -> Set[int]:
        return tree_span(self.root, self.edges) | self.owned
