"""Distributed building blocks shared by every spanner algorithm.

Cluster growth, the ruling sets and tree partitioning are NodePrograms
executed under the CONGEST engine.  The forest convergecast and broadcast,
whose messages follow from a role table and values the host holds, run as
host-scheduled rounds through the engine's send step instead.  Every
wrapper is a pure function of (graph, inputs) and returns the assembled
result together with the run's RoundLedger.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from .clustering import Clustering, TreePart, TreePartition, WeightedTree, orient_tree
from .graph import Graph, canon
from .sim import (
    BitCost,
    Msg,
    NodeProgram,
    RoundLedger,
    SimConfig,
    SimError,
    SimTimeout,
    _cascade,
    run,
)

# ---------------------------------------------------------------------------
# BFS cluster growth
# ---------------------------------------------------------------------------


class GrowClusters(NodeProgram):
    """Multi-source BFS to a depth bound: every vertex within reach joins the
    cluster of its nearest center, breaking ties toward the larger center ID.

    Offers received in the same round share one hop distance, so the winner
    is simply the largest center ID heard that round; the parent is the
    smallest-ID neighbor that relayed the winning offer.
    """

    name = "grow-clusters"

    def __init__(self, depth: int):
        self.depth = depth

    def init(self, view):
        is_center = bool(view.private and view.private.get("center"))
        return {
            "center": view.vid if is_center else None,
            "parent": None,
            "dist": 0 if is_center else None,
        }

    def on_round(self, state, view, rnd, inbox):
        out = {}
        if rnd == 1:
            if state["center"] is not None and self.depth >= 1:
                m = view.bits.msg((state["center"], 1), ids=1, counters=(self.depth,))
                out = {u: m for u in view.neighbors}
            return out, True
        if state["center"] is None and inbox:
            best_center = -1
            best_from = None
            dist = None
            for sender, (center, d) in inbox:
                if center > best_center:
                    best_center = center
                    best_from = sender
                    dist = d
                elif center == best_center and sender < best_from:
                    best_from = sender
            state["center"] = best_center
            state["parent"] = best_from
            state["dist"] = dist
            if dist < self.depth:
                m = view.bits.msg(
                    (best_center, dist + 1), ids=1, counters=(self.depth,)
                )
                out = {u: m for u in view.neighbors if u != best_from}
        return out, True

    def on_finish(self, state, view):
        if state["center"] is None:
            return None
        return (state["center"], state["parent"], state["dist"])


def grow_bfs_clusters(
    g: Graph,
    centers: Iterable[int],
    depth: int,
    cfg: Optional[SimConfig] = None,
    level: Optional[int] = None,
) -> Tuple[Clustering, RoundLedger]:
    """Grow depth-bounded BFS clusters around the given centers."""
    centers = set(centers)
    private = {v: {"center": True} for v in centers}
    outputs, ledger = run(g, GrowClusters(depth), cfg, private=private, active=centers)
    membership = {}
    parents = {}
    for v, outcome in outputs.items():
        if outcome is None:
            continue
        center, parent, _dist = outcome
        membership[v] = center
        parents[v] = parent
    clustering = Clustering(
        level=level if level is not None else depth,
        membership=membership,
        parents=parents,
        depth_bound=depth,
    )
    return clustering, ledger


# ---------------------------------------------------------------------------
# Tree convergecast / broadcast over edge-disjoint forests
# ---------------------------------------------------------------------------
#
# A vertex may participate in several trees at once (e.g. supercluster
# connecting trees share vertices but never edges).  A role table lists,
# per vertex, one (tree_key, parent, children) role per tree it sits in: a
# clustering is one such forest keyed by center, a superclustering another
# keyed by sc_id.  Messages carry no tree identifier: the edge they travel
# on determines the tree.

RoleTable = Dict[int, List[Tuple[Hashable, Optional[int], Tuple[int, ...]]]]

COMBINERS = {"sum": lambda a, b: a + b, "max": max, "min": min}
NO_ROUTES: Dict[int, int] = {}  # a vertex with one role routes all mail to it


def _check_roles(
    g: Graph, roles: RoleTable, name: str
) -> Tuple[Dict[int, Dict[int, int]], int]:
    """Check that the role table describes edge-disjoint trees whose edges
    both ends agree on; raises SimError otherwise.  Returns, for each
    vertex with several roles, neighbor -> index of the role whose tree
    holds the connecting edge (a vertex with one role needs no routing),
    and the number of tree edges."""
    strays = [v for v in roles if v not in g.adj]
    if strays:
        raise SimError(f"{name}: role table names non-vertices {sorted(strays)[:5]}")
    named = set()  # (child, parent, key) as the child names its parent
    listed = set()  # (child, parent, key) as the parent lists its child
    entries = 0
    routes: Dict[int, Dict[int, int]] = {}
    for v, rs in roles.items():
        for key, parent, children in rs:
            if parent is not None:
                named.add((v, parent, key))
            if children:
                listed.update([(c, v, key) for c in children])
                entries += len(children)
        if len(rs) > 1:
            by_edge = routes[v] = {}
            for i, (_key, parent, children) in enumerate(rs):
                for u in children if parent is None else (parent, *children):
                    if u in by_edge:
                        raise SimError(
                            f"{name}: edge ({v}, {u}) lies in two roles of vertex {v}"
                        )
                    by_edge[u] = i
    if named != listed:
        for v, rs in roles.items():
            for key, parent, children in rs:
                if parent is not None and (v, parent, key) not in listed:
                    raise SimError(
                        f"{name}: parent {parent} does not list child {v} "
                        f"under tree {key!r}"
                    )
                for c in children:
                    if (c, v, key) not in named:
                        raise SimError(
                            f"{name}: child {c} does not name parent {v} "
                            f"under tree {key!r}"
                        )
    if entries != len(listed):
        raise SimError(f"{name}: a vertex lists the same child twice")
    return routes, entries


def _stalled(name: str, stuck: List[int]) -> None:
    """The mail ran out before every tree edge carried its one message."""
    raise SimTimeout(
        f"program {name!r} stalled: {len(stuck)} vertices (e.g. {stuck[:5]}) "
        "wait for a tree message that never comes"
    )


def clustering_roles(clustering: Clustering) -> RoleTable:
    """A clustering as a forest keyed by center."""
    children = clustering.children()
    return {
        v: [(c, clustering.parents[v], tuple(children[v]))]
        for v, c in clustering.membership.items()
    }


def forest_aggregate(
    g: Graph,
    roles: RoleTable,
    values: Dict[int, Dict[Hashable, int]],
    combine: str = "sum",
    bound: Optional[int] = None,
    cfg: Optional[SimConfig] = None,
) -> Tuple[Dict[Hashable, int], RoundLedger]:
    """Every tree root learns combine() over values[vertex][tree_key] of its
    tree (0 where missing); returns tree_key -> aggregate.

    Convergecast: a leaf reports in round 1, and every other tree vertex
    sends its partial aggregate to its parent, one ``8 + counter(bound)``-bit
    message, in the round its last child's report arrives.  Runs in
    O(depth) rounds; trees aggregate in parallel because they are
    edge-disjoint.  ``bound`` caps the partial aggregates (default 2n+1).
    """
    name = "forest-aggregate"
    fn = COMBINERS[combine]
    bound = bound if bound is not None else max(2 * g.n + 1, 2)
    routes, edges = _check_roles(g, roles, name)
    width = BitCost.TAG + BitCost(g).counter(bound)
    acc = {}
    left = {}  # per role: children yet to report
    leaves = []  # vertices with a childless role, the ones that act first
    for v, rs in roles.items():
        own = values.get(v, {})
        acc[v] = [own.get(key, 0) for key, _p, _ch in rs]
        left[v] = counts = [len(ch) for _key, _p, ch in rs]
        if 0 in counts:
            leaves.append(v)

    def step(v, inbox):
        rs, partial = roles[v], acc[v]
        out = {}
        if not inbox:  # round 1, the only call without mail
            for i, (_key, parent, children) in enumerate(rs):
                if not children and parent is not None:
                    out[parent] = Msg(width, partial[i])
            return out
        count, by_edge = left[v], routes.get(v, NO_ROUTES)
        for sender, x in inbox:
            i = by_edge.get(sender, 0)
            partial[i] = fn(partial[i], x)
            count[i] -= 1
            parent = rs[i][1]
            if count[i] == 0 and parent is not None:
                out[parent] = Msg(width, partial[i])
        return out

    ledger = _cascade(g, cfg or SimConfig(), name, leaves, step)
    if ledger.messages_total < edges:
        _stalled(name, [v for v, count in left.items() if any(count)])
    result = {}
    for v, rs in roles.items():
        for (key, parent, _ch), x in zip(rs, acc[v]):
            if parent is None:
                result[key] = x
    return result, ledger


def forest_broadcast(
    g: Graph,
    roles: RoleTable,
    root_values: Dict[Hashable, int],
    bound: Optional[int] = None,
    cfg: Optional[SimConfig] = None,
) -> Tuple[Dict[int, Dict[Hashable, int]], RoundLedger]:
    """Every tree root pushes root_values[tree_key] (0 where missing) down
    its tree; returns vertex -> {tree_key: value}, {} for a vertex with no
    role.

    A root sends in round 1, and every other tree vertex forwards the
    value, one ``8 + counter(bound)``-bit message per child, in the round
    it arrives."""
    name = "forest-broadcast"
    bound = bound if bound is not None else max(2 * g.n + 1, 2)
    routes, edges = _check_roles(g, roles, name)
    width = BitCost.TAG + BitCost(g).counter(bound)
    got = {
        v: [root_values.get(key, 0) if p is None else None for key, p, _ch in rs]
        for v, rs in roles.items()
    }
    roots = [v for v, rs in roles.items() if any(r[1] is None for r in rs)]

    def step(v, inbox):
        rs, known = roles[v], got[v]
        out = {}
        if not inbox:  # round 1, the only call without mail
            for i, (_key, parent, children) in enumerate(rs):
                if parent is None and known[i] is not None:
                    m = Msg(width, known[i])
                    for c in children:
                        out[c] = m
            return out
        by_edge = routes.get(v, NO_ROUTES)
        for sender, x in inbox:
            i = by_edge.get(sender, 0)
            known[i] = x
            m = Msg(width, x)
            for c in rs[i][2]:
                out[c] = m
        return out

    ledger = _cascade(g, cfg or SimConfig(), name, roots, step)
    if ledger.messages_total < edges:
        _stalled(name, [v for v, known in got.items() if None in known])
    result: Dict[int, Dict[Hashable, int]] = {v: {} for v in g.vertices}
    for v, rs in roles.items():
        result[v] = {key: x for (key, _p, _ch), x in zip(rs, got[v])}
    return result, ledger


# ---------------------------------------------------------------------------
# (4, O(log n)) ruling set
# ---------------------------------------------------------------------------


class RulingSetLog(NodeProgram):
    """Deterministic ruling set by ID-bit descent.

    One level per ID bit, most significant first.  At each level the still
    active candidates whose current bit is 0 flood a radius-3 wave; active
    candidates with bit 1 that hear it drop out.  Survivors are pairwise at
    distance >= 4 and every candidate stays within 3 * id_bits of the result.
    Each level occupies 4 rounds (3 hops + 1 receive-only), so the whole run
    is O(log n) rounds with one message per edge per round.
    """

    name = "ruling-set-log"

    def __init__(self, id_bits: int):
        self.bits_total = id_bits

    def init(self, view):
        return {
            "candidate": bool(view.private and view.private.get("candidate")),
            "active": bool(view.private and view.private.get("candidate")),
            "forwarded_level": -1,
        }

    def level_of(self, rnd: int) -> int:
        return (rnd - 1) // 4

    def on_round(self, state, view, rnd, inbox):
        out = {}
        level = self.level_of(rnd)
        if level >= self.bits_total:
            return {}, True
        bit = self.bits_total - 1 - level
        for _sender, hop in inbox:
            if state["active"] and (view.vid >> bit) & 1 == 1:
                state["active"] = False
            if hop < 3 and state["forwarded_level"] < level:
                state["forwarded_level"] = level
                m = view.bits.msg(hop + 1, counters=(3,))
                for u in view.neighbors:
                    out[u] = m
        if rnd == 4 * level + 1:
            if state["active"] and (view.vid >> bit) & 1 == 0:
                state["forwarded_level"] = level
                m = view.bits.msg(1, counters=(3,))
                for u in view.neighbors:
                    out[u] = m
        # candidates stay awake for the full schedule; everyone else sleeps
        # between floods and is woken by arriving messages
        halt = not state["active"] or level >= self.bits_total - 1 and rnd >= 4 * self.bits_total
        return out, halt

    def on_finish(self, state, view):
        return state["active"]


def ruling_set_log(
    g: Graph,
    candidates: Iterable[int],
    cfg: Optional[SimConfig] = None,
) -> Tuple[Set[int], RoundLedger]:
    """(4, O(log n))-ruling set of the candidate set with respect to g."""
    cand = set(candidates)
    if not cand:
        raise ValueError("candidate set must be nonempty")
    private = {v: {"candidate": True} for v in cand}
    outputs, ledger = run(g, RulingSetLog(g.id_bits), cfg, private=private, active=cand)
    return {v for v, kept in outputs.items() if kept}, ledger


# ---------------------------------------------------------------------------
# Ruling set on a power graph
# ---------------------------------------------------------------------------


class MinFlood(NodeProgram):
    """Hop-limited minimum flood: every vertex learns the smallest source ID
    within the radius.  Improvements are forwarded immediately, so the run
    quiesces as soon as the minima stabilize."""

    name = "min-flood"

    def __init__(self, radius: int):
        self.R = radius

    def init(self, view):
        src = bool(view.private and view.private.get("source"))
        return {"m": view.vid if src else None, "source": src}

    def on_round(self, state, view, rnd, inbox):
        out: Dict[int, Msg] = {}
        best_h = None
        best_from = None
        for sender, (mid, hop) in inbox:
            if state["m"] is None or mid < state["m"]:
                state["m"] = mid
                best_h = hop
                best_from = sender
        if best_h is not None and best_h < self.R:
            m = view.bits.msg((state["m"], best_h + 1), ids=1, counters=(self.R,))
            for u in view.neighbors:
                if u != best_from:
                    out[u] = m
        if rnd == 1 and state["source"]:
            m = view.bits.msg((view.vid, 1), ids=1, counters=(self.R,))
            for u in view.neighbors:
                out[u] = m
        return out, True

    def on_finish(self, state, view):
        return state["m"]


class HopFlood(NodeProgram):
    """Hop-limited reachability flood; outputs whether the vertex heard it."""

    name = "hop-flood"

    def __init__(self, radius: int):
        self.R = radius

    def init(self, view):
        src = bool(view.private and view.private.get("source"))
        return {"heard": src, "forwarded": False, "source": src}

    def on_round(self, state, view, rnd, inbox):
        out: Dict[int, Msg] = {}
        best = None
        for _sender, hop in inbox:
            state["heard"] = True
            if best is None or hop < best:
                best = hop
        if rnd == 1 and state["source"]:
            state["forwarded"] = True
            m = view.bits.msg(1, counters=(self.R,))
            for u in view.neighbors:
                out[u] = m
        elif best is not None and best < self.R and not state["forwarded"]:
            state["forwarded"] = True
            m = view.bits.msg(best + 1, counters=(self.R,))
            for u in view.neighbors:
                out[u] = m
        return out, True

    def on_finish(self, state, view):
        return state["heard"]


def ruling_set_power(
    g: Graph,
    candidates: Iterable[int],
    t: int,
    cfg: Optional[SimConfig] = None,
) -> Tuple[Set[int], RoundLedger]:
    """Ruling set with respect to the t-th power graph: the result is a
    subset of the candidates with pairwise distance >= 3t in g, and every
    candidate lies within 4t hops of it.

    The election runs in waves on g itself.  Each wave is a MinFlood of
    radius 3t-1 from the still-active candidates (a candidate that hears no
    smaller ID joins), then a HopFlood of the same radius from the joiners
    that deactivates every active candidate it reaches.  So joiners are
    >= 3t apart and every candidate is within 3t-1 hops of one.  A wave
    costs at most 2(3t-1) rounds, and at least one candidate joins per
    wave; the ledger holds one power-min-flood and one power-deactivate
    phase per wave.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    cand = set(candidates)
    if not cand:
        raise ValueError("candidate set must be nonempty")
    ledger = RoundLedger()
    radius = 3 * t - 1
    active = set(cand)
    chosen: Set[int] = set()
    while active:
        private = {v: {"source": True} for v in active}
        minima, led = run(g, MinFlood(radius), cfg, private=private, active=active)
        ledger.extend_sequential(led, name="power-min-flood")
        joiners = {v for v in active if minima[v] == v}
        chosen |= joiners
        private = {v: {"source": True} for v in joiners}
        heard, led = run(g, HopFlood(radius), cfg, private=private, active=joiners)
        ledger.extend_sequential(led, name="power-deactivate")
        # a candidate the deactivation never reached was never woken
        active = {v for v in active if not heard.get(v, False)}
    return chosen, ledger


# ---------------------------------------------------------------------------
# Balanced tree partitioning
# ---------------------------------------------------------------------------


class TreePartitionProgram(NodeProgram):
    """Distributed balanced partitioning of a rooted vertex-weighted tree.

    Bottom-up, every vertex receives from each child either the weight of
    the child's leftover set or a no-leftover marker, groups leftover
    children (in increasing child ID) into parts of weight in (B, 2B], and
    keeps the light tail plus itself as its own root part.  Top-down, every
    vertex that resolves a part identity pushes it into the leftover
    subtrees that merged into it.
    """

    name = "tree-partition"

    TAG_LEFT, TAG_NOLEFT, TAG_ASSIGN = 0, 1, 2

    def __init__(self, bound: int, total_bound: int):
        self.B = bound
        self.total = total_bound

    def init(self, view):
        p = view.private
        return {
            "parent": p["parent"],
            "waiting": set(p["children"]),
            "w": p["weight"],
            "leftovers": [],          # (child, weight) reports
            "tail": [],               # children merged into own root part
            "groups": [],             # finalized groups [(idx, [children])]
            "part": None,             # (root_id, idx) once resolved
            "processed": False,
            "notify": [],             # queued (child, part) notifications
        }

    def _process(self, state, view):
        state["processed"] = True
        groups: List[List[int]] = []
        acc: List[int] = []
        acc_w = 0
        for child, w in sorted(state["leftovers"]):
            acc.append(child)
            acc_w += w
            if acc_w > self.B:
                groups.append(acc)
                acc = []
                acc_w = 0
        idx = 1
        for grp in groups:
            state["groups"].append((idx, grp))
            for c in grp:
                state["notify"].append((c, (view.vid, idx)))
            idx += 1
        state["tail"] = acc
        tail_w = acc_w + state["w"]
        if state["parent"] is None:
            # global root: own part always finalizes as part 0
            state["part"] = (view.vid, 0)
            for c in state["tail"]:
                state["notify"].append((c, state["part"]))
            return None
        if tail_w <= self.B:
            return (self.TAG_LEFT, tail_w)
        # heavy root part stays here, becomes a finalized part now
        state["part"] = (view.vid, 0)
        for c in state["tail"]:
            state["notify"].append((c, state["part"]))
        return (self.TAG_NOLEFT,)

    def on_round(self, state, view, rnd, inbox):
        out = {}
        for sender, body in inbox:
            tag = body[0]
            if tag == self.TAG_LEFT:
                state["leftovers"].append((sender, body[1]))
                state["waiting"].discard(sender)
            elif tag == self.TAG_NOLEFT:
                state["waiting"].discard(sender)
            else:
                state["part"] = (body[1], body[2])
                for c in state["tail"]:
                    state["notify"].append((c, state["part"]))
        if not state["waiting"] and not state["processed"]:
            report = self._process(state, view)
            if report is not None:
                counters = (self.B,) if report[0] == self.TAG_LEFT else ()
                out[state["parent"]] = view.bits.msg(report, counters=counters)
        while state["notify"]:
            child, (root, idx) = state["notify"].pop(0)
            out[child] = view.bits.msg(
                (self.TAG_ASSIGN, root, idx), ids=1, counters=(self.total,)
            )
        return out, state["processed"] and not state["notify"]

    def on_finish(self, state, view):
        return {"part": state["part"], "groups": state["groups"]}


def partition_tree(
    t: WeightedTree, cfg: Optional[SimConfig] = None
) -> Tuple[TreePartition, RoundLedger]:
    """Partition a vertex-weighted tree into edge-disjoint parts whose owned
    weights all lie in [B, 2B] except for at most one light part rooted at
    the tree root.  Runs in O(diam) rounds on the tree's edges."""
    if t.bound < 1:
        raise ValueError("bound B must be >= 1")
    t.validate()
    tree_graph = Graph(t.vertices(), t.edges)
    tree = orient_tree(t.root, t.edges)
    private = {
        v: {"parent": p, "children": ch, "weight": t.weights.get(v, 0)}
        for v, (p, ch) in tree.items()
    }
    program = TreePartitionProgram(t.bound, total_bound=len(tree))
    outputs, ledger = run(tree_graph, program, cfg, private=private)

    keys: List[Tuple[int, int]] = []
    owned: Dict[Tuple[int, int], Set[int]] = {}
    for v in sorted(tree):
        key = outputs[v]["part"]
        if key is None:
            raise SimError(f"vertex {v} left unassigned by tree partition")
        owned.setdefault(key, set()).add(v)
        if key not in keys:
            keys.append(key)
    # part 0 is the (possibly light) part owned by the global root
    root_key = outputs[t.root]["part"]
    keys.sort(key=lambda k: (k != root_key, k))
    parts = []
    for key in keys:
        vs = owned[key]
        # the part tree is exactly the parent edges of its owned vertices,
        # except the upward edge of a part whose root is itself owned
        edges = frozenset(
            canon(v, tree[v][0])
            for v in vs
            if tree[v][0] is not None and v != key[0]
        )
        parts.append(TreePart(root=key[0], owned=frozenset(vs), edges=edges))
    return TreePartition(parts=parts, leftover_index=0), ledger
