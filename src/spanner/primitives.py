"""Distributed building blocks shared by every spanner algorithm.

One rule takes every primitive into a ledger.  A primitive that charges
one phase (cluster growth, the log-round ruling set, the tree partition,
each pass of a ``Forest``, which holds the ledger it was built with)
charges the caller's ledger, under the phase name the caller passes
where the caller chooses one, and returns only its result; its records
and errors still name the primitive (``sim._charge``'s ``label``).  A
run of many phases, the power-graph ruling set's waves, returns its own
ledger, which the caller folds into one entry
(``RoundLedger.extend_sequential``).

Cluster growth, the power-graph min-flood and hop-flood and the
log-round ruling set are relay floods, run layer by layer on the host
(``_relay``, the broadcast floods through ``_flood``) without touching a
ledger.  The convergecast and the broadcast are the two methods of a
``Forest``, built from parent pointers, (vertex, tree key) -> parent,
and each member's tree key: it checks the table once and rejects a
non-vertex, a parent with no role in its child's tree, a tree edge
outside the graph or in two trees, and a role on or below a cycle; every
call over those trees maps member -> value to tree key -> aggregate or
tree key -> value to member -> value and is one walk over the roles.
The tree partition computes its two waves on the host from the oriented
tree.  Every phase of these enters its ledger through one ``sim._charge``
call, once its host code has run (a flood's through ``_charge_flood``):
accounted in bulk within the budget and message by message over it,
under the simulator's one round-cap rule: a phase whose last message
goes out in round R raises SimTimeout when R >= ``max_rounds``.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from typing import (
    Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple,
)

from .clustering import Clustering, TreePart, WeightedTree
from .graph import Graph, canon
from .sim import TAG, RoundLedger, Send, SimConfig, SimError, _charge, width

# ---------------------------------------------------------------------------
# Relay floods
# ---------------------------------------------------------------------------

# one round of a relay flood: (round, its senders in ID order, each
# sender's skipped neighbour or None -- None throughout when no sender
# skips one -- and the round's message count)
Layer = Tuple[int, List[int], Optional[List[Optional[int]]], int]


def _relay(g: Graph, name: str, first: Iterable[int], limit: int,
           skip: Dict[int, Optional[int]], deliver: Callable[[List[int]], Iterable[int]],
           offset: int = 0) -> List[Layer]:
    """A relay flood, run layer by layer on the host: in round ``offset +
    d + 1``, for ``d < limit``, every vertex v of the layer (``first``
    for d = 0) sends one message to each neighbour but ``skip.get(v)``,
    and ``deliver(layer)`` then acts for the receivers and returns the
    next layer.  The flood ends at the first round that would send
    nothing.  ``first`` must name vertices (SimError otherwise).

    Returns what it sent, one :data:`Layer` per round that carried a
    message, the skipped neighbours as they stood when the round went
    out; :func:`_charge_flood` charges it."""
    adj = g.adj
    layer = sorted(set(first))
    strays = [v for v in layer if v not in adj]
    if strays:
        raise SimError(f"{name}: active non-vertices {strays[:5]}")
    sent: List[Layer] = []
    while layer and len(sent) < limit:
        messages = sum(map(len, map(adj.__getitem__, layer)))
        skipped = [skip.get(v) for v in layer] if skip else None
        if skipped:
            messages -= len(skipped) - skipped.count(None)
        if not messages:
            break
        sent.append((offset + len(sent) + 1, layer, skipped, messages))
        layer = sorted(deliver(layer))
    return sent


def _flood(g: Graph, name: str, sources: Iterable[int], radius: int,
           offset: int = 0) -> Tuple[Set[int], List[Layer]]:
    """A multi-source BFS flood to ``radius``, a :func:`_relay` that skips
    no neighbour: in round ``offset + d + 1`` every vertex at distance
    ``d < radius`` from the sources sends one message to each of its
    neighbours.  Returns the vertices within ``radius`` of a source, the
    sources included, and what the flood sent."""
    adj = g.adj
    reached = set(sources)

    def deliver(layer):
        new = {u for v in layer for u in adj[v]} - reached
        reached.update(new)
        return new

    return reached, _relay(g, name, reached, radius, {}, deliver, offset)


def _charge_flood(g: Graph, cfg: SimConfig, ledger: RoundLedger, name: str,
                  sent: Sequence[Layer], bits: int, label: Optional[str] = None) -> None:
    """Charge the rounds a relay flood ``sent``, ``bits``-bit messages
    all, to ``ledger`` as phase ``name`` in one ``sim._charge``: its last
    sending round and its message count; over the budget its messages,
    round by round, senders in ID order and each one's receivers in ID
    order.  Records and errors name the flood ``label`` (default
    ``name``)."""
    adj = g.adj

    def sends():
        return [(rnd, v, u, bits) for rnd, layer, skipped, _m in sent
                for v, s in zip(layer, skipped or [None] * len(layer))
                for u in adj[v] if u != s]

    _charge(g, cfg, ledger, name, sent[-1][0] if sent else 0,
            sum(layer[3] for layer in sent), bits, sends, label)


# ---------------------------------------------------------------------------
# BFS cluster growth
# ---------------------------------------------------------------------------


def grow_bfs_clusters(
    g: Graph,
    cfg: SimConfig,
    ledger: RoundLedger,
    name: str,
    centers: Iterable[int],
    depth: int,
    level: Optional[int] = None,
) -> Clustering:
    """Grow depth-bounded BFS clusters around the given centers: every
    vertex within reach joins the cluster of its nearest center, breaking
    ties toward the larger center ID.

    A center offers ``(center, 1)`` to its neighbors in round 1, and a
    vertex that joins forwards the offer one hop further while the depth
    bound allows, one ``width(id_bits, 1, depth)``-bit message to every
    neighbor but its parent.  Offers a vertex receives in one round share
    one hop distance, so it joins the largest center ID heard that round,
    with the first (smallest-ID) neighbor that relayed it as parent.  The
    rounds run as a relay flood (:func:`_relay`), charged to ``ledger`` as
    phase ``name``, its records and errors naming ``grow-clusters``.
    """
    bits = width(g.id_bits, 1, depth)
    adj = g.adj
    center = {v: v for v in centers}
    parent: Dict[int, Optional[int]] = dict.fromkeys(center)

    def deliver(layer):
        offers: Dict[int, Tuple[int, int]] = {}  # v -> (center, sender)
        for v in layer:
            c = center[v]
            for u in adj[v]:
                if u not in center:
                    o = offers.get(u)
                    if o is None or c > o[0]:
                        offers[u] = (c, v)
        for u, (c, v) in offers.items():
            center[u] = c
            parent[u] = v
        return offers

    _charge_flood(g, cfg, ledger, name,
                  _relay(g, "grow-clusters", center, depth, parent, deliver), bits,
                  "grow-clusters")
    order = sorted(center)
    return Clustering(
        level=level if level is not None else depth,
        membership={v: center[v] for v in order},
        parents={v: parent[v] for v in order},
        depth_bound=depth,
    )


# ---------------------------------------------------------------------------
# Tree convergecast / broadcast over edge-disjoint forests
# ---------------------------------------------------------------------------
#
# A vertex may sit in several trees at once (e.g. supercluster connecting
# trees share vertices but never edges).  A role table maps each (vertex,
# tree key) role to the vertex's parent in that tree, None at a root: a
# clustering is one such forest keyed by center, a superclustering another
# keyed by sc_id.  A parent's role is (parent, tree key), and a role's
# children are the roles that name it.  Messages carry no tree identifier:
# the edge they travel on determines the tree.

RoleTable = Dict[Tuple[int, Hashable], Optional[int]]

COMBINERS = {"sum": operator.add, "max": max, "min": min}


def clustering_roles(clustering: Clustering) -> RoleTable:
    """A clustering as a forest keyed by center."""
    parents = clustering.parents
    return {(v, c): parents[v] for v, c in clustering.membership.items()}


class Forest:
    """The trees of one role table, checked once, for ``aggregate``, the
    convergecast, and ``broadcast`` to run over as often as needed, each
    pass charged to ``ledger`` under ``cfg``.  ``key_of`` maps each member
    vertex to its tree key: role (v, key) is a member's role when
    ``key_of.get(v) == key``, and any other role only relays.  The
    constructor raises SimError ("forest: ...") unless every role's
    vertex is a vertex of g, every parent has a role in its child's tree,
    every tree edge is an edge of g and lies in one tree only, and no
    role lies on or below a cycle.

    A pass sends one message over every tree edge, to a neighbour, and
    lasts as many rounds as the deepest role lies below its root, so it
    is one walk over the roles: the broadcast gives every member its
    tree's value, the convergecast folds every non-root role into its
    parent's, children first.  Each pass is charged whole
    (``sim._charge``, which checks the config first) to the ledger under
    the caller's phase name: within the budget at once, over it with its
    messages in (round, sender, receiver) order, each of which raises or
    leaves a violation record naming the pass ``forest-aggregate`` or
    ``forest-broadcast``; then the round cap applies to its last send
    round."""

    def __init__(self, g: Graph, cfg: SimConfig, ledger: RoundLedger, roles: RoleTable,
                 key_of: Dict[int, Hashable]):
        self.g, self.cfg, self.ledger = g, cfg, ledger
        keys = list(roles)  # role -> (vertex, key)
        number = dict(zip(keys, range(len(keys))))
        adj, edges = g.adj, g.edge_set
        strays = [v for v, _key in keys if v not in adj]
        if strays:
            raise SimError("forest: role table names non-vertices "
                           f"{sorted(set(strays))[:5]}")
        parent_of: List[Optional[int]] = []  # role -> its parent's role
        children: Dict[int, List[int]] = defaultdict(list)  # role -> its children's roles
        tree_of: Dict[Tuple[int, int], Hashable] = {}  # tree edge -> tree key
        for (v, key), p in roles.items():
            if p is None:
                parent_of.append(None)
                continue
            r = number.get((p, key))
            if r is None:
                raise SimError(f"forest: parent {p} of vertex {v} has no role in "
                               f"tree {key!r}")
            e = (v, p) if v < p else (p, v)
            if e not in edges:
                raise SimError(f"forest: tree edge ({v}, {p}) of tree {key!r} is "
                               "not an edge of the graph")
            # an edge named twice in one tree closes a cycle, rejected below
            if tree_of.setdefault(e, key) != key:
                raise SimError(f"forest: edge {e} lies in two roles' trees, "
                               f"{tree_of[e]!r} and {key!r}")
            children[r].append(len(parent_of))
            parent_of.append(r)
        self.parent_of = parent_of
        self.vertex_of = [v for v, _key in keys]
        roots = [r for r, p in enumerate(parent_of) if p is None]
        self.roots = [(r, keys[r][1]) for r in roots]
        # (role, vertex, tree key) of every member's role, in role order
        self.members = [(r, v, key) for r, (v, key) in enumerate(keys)
                        if key_of.get(v) == key]
        # every non-root role after its parent's, level by level from the
        # roots; a role is reached exactly when no cycle lies above it
        self.below: List[int] = []
        self.rounds = 0
        level = roots
        while True:
            level = [c for r in level if r in children for c in children[r]]
            if not level:
                break
            self.rounds += 1
            self.below += level
        self.edges = len(self.below)
        if len(roots) + self.edges < len(keys):
            seen = set(roots).union(self.below)
            stuck = sorted({keys[r][0] for r in range(len(keys)) if r not in seen})
            raise SimError(f"forest: roles of vertices {stuck[:5]} lie on or below "
                           "a cycle")

    def aggregate(self, name: str, values: Dict[int, int], combine: str = "sum",
                  bound: Optional[int] = None) -> Dict[Hashable, int]:
        """Tree key -> combine() over the tree's roles, a member's role
        contributing ``values`` of its vertex and every other role 0 (as
        does a member ``values`` leaves out), charged as phase ``name``.

        Convergecast: a leaf reports in round 1, and every other tree vertex
        sends its partial aggregate to its parent, one ``width(id_bits, 0,
        bound)``-bit message, in the round its last child's report
        arrives.  Runs in O(depth) rounds; trees aggregate in parallel
        because they are edge-disjoint.  ``bound`` caps the partial
        aggregates (default 2n+1).  The values are integers, so the order
        in which a role combines its children's reports does not matter.
        """
        fn = COMBINERS[combine]
        bound = bound if bound is not None else max(2 * self.g.n + 1, 2)
        bits = width(self.g.id_bits, 0, bound)
        parent_of, vertex_of, below = self.parent_of, self.vertex_of, self.below

        def sends():
            height = [0] * len(parent_of)  # a role's send round, less one
            for r in reversed(below):
                p = parent_of[r]
                if height[r] >= height[p]:
                    height[p] = height[r] + 1
            return sorted((height[r] + 1, vertex_of[r], vertex_of[parent_of[r]], bits)
                          for r in below)

        _charge(self.g, self.cfg, self.ledger, name, self.rounds, self.edges, bits,
                sends, "forest-aggregate")
        acc = [0] * len(parent_of)
        for r, v, _key in self.members:
            acc[r] = values.get(v, 0)
        for r in reversed(below):
            p = parent_of[r]
            acc[p] = fn(acc[p], acc[r])
        return {key: acc[r] for r, key in self.roots}

    def broadcast(self, name: str, tree_values: Dict[Hashable, int]) -> Dict[int, int]:
        """Member -> its tree's value in ``tree_values`` (0 where that
        leaves the key out), in role order, charged as phase ``name``; a
        vertex with no member's role has no entry.

        A root sends in round 1, and every other tree vertex forwards the
        value, one ``width(id_bits, 0, max(2n+1, 2))``-bit message per
        child, in the round it arrives."""
        bits = width(self.g.id_bits, 0, max(2 * self.g.n + 1, 2))
        parent_of, vertex_of, below = self.parent_of, self.vertex_of, self.below

        def sends():
            depth = [0] * len(parent_of)  # a role's receive round
            for r in below:
                depth[r] = depth[parent_of[r]] + 1
            return sorted((depth[r], vertex_of[parent_of[r]], vertex_of[r], bits)
                          for r in below)

        _charge(self.g, self.cfg, self.ledger, name, self.rounds, self.edges, bits,
                sends, "forest-broadcast")
        return {v: tree_values.get(key, 0) for _r, v, key in self.members}


# ---------------------------------------------------------------------------
# (4, O(log n)) ruling set
# ---------------------------------------------------------------------------


def ruling_set_log(
    g: Graph,
    cfg: SimConfig,
    ledger: RoundLedger,
    name: str,
    candidates: Iterable[int],
) -> Set[int]:
    """(4, O(log n))-ruling set of the candidate set with respect to g, by
    ID-bit descent.

    One level per ID bit, most significant first.  At each level the still
    active candidates whose current bit is 0 flood a radius-3 wave, a hop
    count in ``width(id_bits, 0, 3)`` bits; active candidates with bit 1
    that hear it drop out.  Survivors are pairwise at distance >= 4 and every
    candidate stays within 3 * id_bits of the result.  Level L occupies
    rounds 4L+1..4L+4 (3 hops + 1 receive-only), so the whole run is
    O(log n) rounds with one message per edge per round.

    Each level is one broadcast flood (:func:`_flood`) at offset 4L, and
    all levels are charged to ``ledger`` as one phase ``name``, its
    records and errors naming ``ruling-set-log``, so the round cap applies
    to the last round that sends.
    """
    label = "ruling-set-log"
    cand = set(candidates)
    if not cand:
        raise ValueError("candidate set must be nonempty")
    strays = sorted(cand.difference(g.adj))
    if strays:
        raise SimError(f"{label}: active non-vertices {strays[:5]}")
    levels = g.id_bits
    active = cand
    sent: List[Layer] = []
    for level in range(levels):
        bit = levels - 1 - level
        zeros = [v for v in active if not v >> bit & 1]
        heard, layers = _flood(g, label, zeros, 3, 4 * level)
        sent += layers
        active = {v for v in active if not (v >> bit & 1 and v in heard)}
    _charge_flood(g, cfg, ledger, name, sent, width(g.id_bits, 0, 3), label)
    return active


# ---------------------------------------------------------------------------
# Ruling set on a power graph
# ---------------------------------------------------------------------------


def ruling_set_power(
    g: Graph,
    candidates: Iterable[int],
    t: int,
    cfg: Optional[SimConfig] = None,
) -> Tuple[Set[int], RoundLedger]:
    """Ruling set with respect to the t-th power graph: the result is a
    subset of the candidates with pairwise distance >= 3t in g, and every
    candidate lies within 4t hops of it.

    The election runs in waves on g itself.  Each wave is a min-flood of
    radius 3t-1 from the still-active candidates (a candidate that hears no
    smaller ID joins), then a hop-flood of the same radius from the joiners
    that deactivates every active candidate it reaches.  So joiners are
    >= 3t apart and every candidate is within 3t-1 hops of one.  A wave
    costs at most 2(3t-1) rounds, and at least one candidate joins per
    wave; the ledger holds one power-min-flood and one power-deactivate
    phase per wave, whose records and errors name the floods min-flood
    and hop-flood.

    The min-flood forwards each improvement at once, ``(smallest ID, hop)``
    in ``width(id_bits, 1, 3t-1)`` bits to every neighbor but the one it
    came from, so it quiesces as soon as the minima stabilize.  Every
    message of a round carries the same hop, so a vertex keeps the
    smallest ID offered below its own and the first (smallest-ID) sender
    of it.  The hop-flood sends ``hop`` in ``width(id_bits, 0, 3t-1)``
    bits to every neighbor; a vertex forwards it once, in the round it
    first hears it.  Both run as relay floods (:func:`_relay`, the
    hop-flood through :func:`_flood`), each charged as one phase.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    cand = set(candidates)
    if not cand:
        raise ValueError("candidate set must be nonempty")
    cfg = cfg or SimConfig()
    radius = 3 * t - 1
    low_width = width(g.id_bits, 1, radius)
    hop_width = width(g.id_bits, 0, radius)
    adj = g.adj

    def deliver(layer):  # reads and updates this wave's low and came
        sends = [(v, low[v]) for v in layer]  # as they were before this round
        improved = set()
        for v, x in sends:
            for u in adj[v]:
                if x < low.get(u, x + 1):  # u has heard nothing as small
                    low[u] = x
                    came[u] = v
                    improved.add(u)
        return improved

    ledger = RoundLedger()
    active = cand
    chosen: Set[int] = set()
    while active:
        # the smallest source ID each vertex heard, and who told it last
        low, came = dict(zip(active, active)), {}
        _charge_flood(g, cfg, ledger, "power-min-flood",
                      _relay(g, "min-flood", active, radius, came, deliver), low_width,
                      "min-flood")
        joiners = {v for v in active if low[v] == v}
        chosen |= joiners
        heard, sent = _flood(g, "hop-flood", joiners, radius)
        _charge_flood(g, cfg, ledger, "power-deactivate", sent, hop_width, "hop-flood")
        active = active - heard
    return chosen, ledger


# ---------------------------------------------------------------------------
# Balanced tree partitioning
# ---------------------------------------------------------------------------


def partition_tree(t: WeightedTree, cfg: SimConfig, ledger: RoundLedger) -> List[TreePart]:
    """Partition a vertex-weighted tree into edge-disjoint parts whose owned
    weights all lie in [B, 2B] except for at most one light part rooted at
    the tree root.  Runs in O(diam) rounds on the tree's edges.  Part 0 is
    the root's part: it is rooted at the tree root, owns it, and is the
    only part that may be light.

    Bottom-up, every vertex receives from each child either the weight of
    the child's leftover set (``width(id_bits, 0, B)`` bits) or a
    no-leftover marker (``sim.TAG`` bits), groups leftover children (in
    increasing child ID) into parts of weight in (B, 2B], and keeps the
    light tail plus itself as its own root part.  A leaf reports in round
    1, every other vertex in the round after its last child's report.
    Top-down, every vertex that resolves a part identity pushes it,
    ``width(id_bits, 1, |T|)`` bits, into the leftover subtrees that
    merged into it: in the round it resolves the part, one hop further
    per round.

    Both waves are computed on the host from the oriented tree and charged
    to ``ledger`` as one ``tree-partition`` phase (``sim._charge``, on the
    tree's own graph), its messages at their own widths.
    """
    if t.bound < 1:
        raise ValueError("bound B must be >= 1")
    tree = t.validate()
    tree_graph = Graph(tree, t.edges)
    bound = t.bound
    left_width = width(tree_graph.id_bits, 0, bound)
    assign_width = width(tree_graph.id_bits, 1, len(tree))
    sends: List[Send] = []
    report: Dict[int, int] = {}  # v -> the round v reports to its parent
    left: Dict[int, int] = {}  # v -> the weight of v's leftover set, if reported
    tail: Dict[int, List[int]] = {}  # leftover children merged into v's root part
    part: Dict[int, Tuple[int, int]] = {}  # (root_id, idx)

    def assign(v, children, key, rnd):
        """v sends ``key`` to ``children`` in round ``rnd``; each forwards
        it to its own tail in the round it arrives."""
        todo = [(v, children, rnd)]
        for u, kids, r in todo:
            for c in kids:
                sends.append((r, u, c, assign_width))
                part[c] = key
                todo.append((c, tail[c], r + 1))

    for v in reversed(tree):  # BFS order reversed: children first
        parent, children = tree[v]
        rnd = report[v] = 1 + max((report[c] for c in children), default=0)
        acc: List[int] = []
        acc_w = 0
        idx = 0
        for c in children:  # sorted
            if c not in left:
                continue
            acc.append(c)
            acc_w += left[c]
            if acc_w > bound:
                idx += 1
                assign(v, acc, (v, idx), rnd)
                acc = []
                acc_w = 0
        tail[v] = acc
        tail_w = acc_w + t.weights.get(v, 0)
        if parent is not None and tail_w <= bound:
            left[v] = tail_w
            sends.append((rnd, v, parent, left_width))
            continue
        # the global root's part, or a heavy root part, resolves here
        if parent is not None:
            sends.append((rnd, v, parent, TAG))
        part[v] = (v, 0)
        assign(v, acc, part[v], rnd)

    _charge(tree_graph, cfg, ledger, "tree-partition",
            max((s[0] for s in sends), default=0), len(sends),
            max((s[3] for s in sends), default=0), lambda: sorted(sends))

    owned: Dict[Tuple[int, int], Set[int]] = {}
    for v in sorted(tree):
        owned.setdefault(part[v], set()).add(v)
    # part 0 is the (possibly light) part owned by the global root
    root_key = part[t.root]
    parts = []
    for key in sorted(owned, key=lambda k: (k != root_key, k)):
        vs = owned[key]
        # the part tree is exactly the parent edges of its owned vertices,
        # except the upward edge of a part whose root is itself owned
        edges = frozenset(
            canon(v, tree[v][0])
            for v in vs
            if tree[v][0] is not None and v != key[0]
        )
        parts.append(TreePart(root=key[0], owned=frozenset(vs), edges=edges))
    return parts
