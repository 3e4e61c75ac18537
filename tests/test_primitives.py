import math
import random
from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanner import (
    Forest,
    Graph,
    SimConfig,
    WeightedTree,
    bfs_dist,
    clustering_roles,
    generate,
    grow_bfs_clusters,
    partition_tree,
    ruling_set_log,
    ruling_set_power,
)
from spanner import primitives
from spanner.clustering import Clustering, TreePart, orient_tree
from spanner.graph import canon
from spanner.kspanner.common import _charge_stream
from spanner import sim
from spanner.sim import (
    TAG, Msg, NodeProgram, RoundLedger, SimError, SimTimeout, _post, run, width,
)
from spanner.verify import audit_ruling_set

CFG = SimConfig(msg_bit_budget=64)


# -- cluster growth ----------------------------------------------------------


def test_grow_path5_tie_goes_to_larger_center():
    g = generate("path", {"n": 5})
    ledger = RoundLedger()
    cl = grow_bfs_clusters(g, SimConfig(), ledger, "grow", {0, 4}, 2)
    assert cl.membership == {0: 0, 1: 0, 2: 4, 3: 4, 4: 4}
    assert ledger.rounds_used <= 2
    cl.validate(g)


def test_grow_all_centers_depth0_singletons():
    g = generate("cycle", {"n": 6})
    ledger = RoundLedger()
    cl = grow_bfs_clusters(g, SimConfig(), ledger, "grow", set(range(6)), 0)
    assert cl.membership == {v: v for v in range(6)}
    assert ledger.rounds_used == 0


def test_grow_k4_single_center():
    g = generate("complete", {"n": 4})
    cl = grow_bfs_clusters(g, SimConfig(), RoundLedger(), "grow", {0}, 1)
    assert set(cl.membership) == {0, 1, 2, 3}
    assert set(cl.membership.values()) == {0}


def test_grow_in_the_callers_ledger_names_itself():
    """Cluster growth charged, in audit mode at the budget floor, to a
    ledger that already holds a phase adds exactly one ``per_phase`` entry,
    under the caller's name, and every record it leaves names the flood."""
    g = generate("path", {"n": 5})
    floor = width(g.id_bits, 1)
    ledger = RoundLedger()
    sim._charge(g, SimConfig(), ledger, "before", 3, 2, floor)
    audit = SimConfig(msg_bit_budget=floor, strict=False)
    # offers carry a hop counter besides the center: 13 bits over the 11-bit
    # floor, four messages in rounds 1 and 2
    cl = grow_bfs_clusters(g, audit, ledger, "grow:L1", {0, 4}, 2)
    assert cl.membership == {0: 0, 1: 0, 2: 4, 3: 4, 4: 4}
    assert ledger.per_phase == [("before", 3), ("grow:L1", 2)]
    assert (ledger.rounds_used, ledger.messages_total) == (5, 6)
    assert [(rec["program"], rec["bits"]) for rec in ledger.violations] \
        == [("grow-clusters", 13)] * 4


def _centralized_assignment(g, centers, depth):
    dists = {c: bfs_dist(g, c) for c in centers}
    out = {}
    for v in g.vertices:
        best = None
        for c in centers:
            d = dists[c].get(v)
            if d is not None and d <= depth:
                key = (-d, c)
                if best is None or key > best:
                    best = key
        if best is not None:
            out[v] = best[1]
    return out


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_grow_matches_centralized(seed):
    rng = random.Random(seed)
    n = rng.randint(5, 60)
    g = generate("erdos-renyi", {"n": n, "p": 4.0 / n}, seed=seed)
    centers = set(rng.sample(range(n), rng.randint(1, max(1, n // 4))))
    depth = rng.randint(0, 4)
    cl = grow_bfs_clusters(g, CFG, RoundLedger(), "grow", centers, depth)
    assert cl.membership == _centralized_assignment(g, centers, depth)
    cl.validate(g)


# -- forest convergecast / broadcast ----------------------------------------


def cluster_aggregate(g, cl, values, combine):
    ledger = RoundLedger()
    forest = Forest(g, SimConfig(), ledger, clustering_roles(cl), cl.membership)
    return forest.aggregate("forest-aggregate", values, combine), ledger


def test_aggregate_cluster_sizes():
    g = generate("path", {"n": 5})
    cl = grow_bfs_clusters(g, SimConfig(), RoundLedger(), "grow", {0, 4}, 2)
    agg, ledger = cluster_aggregate(g, cl, {v: 1 for v in range(5)}, "sum")
    assert agg == {0: 2, 4: 3}
    assert ledger.rounds_used <= cl.depth_bound


def test_aggregate_singletons_identity():
    g = generate("path", {"n": 4})
    from spanner.clustering import Clustering

    cl = Clustering.singletons(g.vertices)
    agg, ledger = cluster_aggregate(g, cl, {v: v + 7 for v in g.vertices}, "sum")
    assert agg == {v: v + 7 for v in g.vertices}
    assert ledger.rounds_used == 0


def test_forest_vertex_in_two_edge_disjoint_trees():
    # 3x3 grid; vertices 0 and 4 each sit in both trees "a" and "b", which
    # share no edge; "c" is a lone root.  0 is a member of "a" and relays
    # in "b", 4 the other way round (it is the root of "a")
    g = generate("grid", {"rows": 3, "cols": 3})
    trees = {
        "a": (4, [(3, 4), (4, 5), (0, 3), (5, 8)]),
        "b": (1, [(1, 4), (4, 7), (0, 1), (1, 2)]),
        "c": (6, []),
    }
    roles = {(v, key): p for key, (root, edges) in trees.items()
             for v, (p, _ch) in orient_tree(root, edges).items()}
    assert [key for v, key in roles if v == 0] == [key for v, key in roles if v == 4] \
        == ["a", "b"]
    key_of = {0: "a", 3: "a", 5: "a", 8: "a", 1: "b", 2: "b", 4: "b", 7: "b", 6: "c"}
    rng = random.Random(3)
    values = {v: rng.randint(1, 9) for v in g.vertices}
    # a relaying role contributes 0
    own = {key: [values[v] if key_of[v] == key else 0 for v, k in roles if k == key]
           for key in trees}
    ledger = RoundLedger()
    forest = Forest(g, SimConfig(), ledger, roles, key_of)
    for combine, fn in (("sum", sum), ("min", min)):
        agg = forest.aggregate("agg", values, combine, bound=100)
        assert agg == {key: fn(xs) for key, xs in own.items()}
    sums = forest.aggregate("agg", values, bound=100)
    got = forest.broadcast("down", sums)
    # every member gets its own tree's value, in role order
    assert list(got.items()) == [(v, sums[key]) for v, key in roles if key_of[v] == key]
    assert ledger.per_phase == [("agg", 2)] * 3 + [("down", 2)]


def test_forest_relay_role_and_roleless_vertex():
    # vertex 1 lies on tree "x"'s path 0-1-2 and is a member of tree "y"
    # (3 with children 1 and 4); vertex 5 has no role at all
    g = Graph(range(6), [(0, 1), (1, 2), (1, 3), (3, 4)])
    roles = {(0, "x"): None, (1, "x"): 0, (2, "x"): 1,
             (3, "y"): None, (1, "y"): 3, (4, "y"): 3}
    key_of = {0: "x", 2: "x", 1: "y", 3: "y", 4: "y"}
    forest = Forest(g, SimConfig(), RoundLedger(), roles, key_of)
    values = {0: 1, 1: 10, 2: 100, 3: 1000, 4: 10000, 5: 7}
    # 1's value counts for "y" only, and 5's for no tree
    assert forest.aggregate("agg", values) == {"x": 101, "y": 11010}
    got = forest.broadcast("down", {"x": 5, "y": 6})
    assert list(got.items()) == [(0, 5), (2, 5), (3, 6), (1, 6), (4, 6)]


class RefAggregate(NodeProgram):
    """Reference for ``Forest.aggregate``: the convergecast as a vertex
    program, one role per tree the vertex sits in."""

    name = "forest-aggregate"

    def __init__(self, combine, bound):
        self.fn = {"sum": lambda a, b: a + b, "min": min}[combine]
        self.bound = bound

    def init(self, view):
        p = view.private or {}
        rows = [{"key": key, "parent": parent, "waiting": set(children),
                "acc": p["value"] if key == p["key"] else 0, "sent": False}
               for key, parent, children in p.get("roles", ())]
        return {"roles": rows, "edge_role": _ref_edge_roles(p.get("roles", ()))}

    def on_round(self, state, view, rnd, inbox):
        for sender, value in inbox:
            role = state["roles"][state["edge_role"][sender]]
            role["acc"] = self.fn(role["acc"], value)
            role["waiting"].discard(sender)
        out = {}
        done = True
        for role in state["roles"]:
            if role["waiting"]:
                done = False
            elif role["parent"] is not None and not role["sent"]:
                out[role["parent"]] = Msg(width(view.id_bits, 0, self.bound), role["acc"])
                role["sent"] = True
        return out, done

    def on_finish(self, state, view):
        return {r["key"]: r["acc"] for r in state["roles"] if r["parent"] is None}


class RefBroadcast(NodeProgram):
    """Reference for ``Forest.broadcast``: each root pushes its value down
    as a vertex program."""

    name = "forest-broadcast"

    def __init__(self, bound):
        self.bound = bound

    def init(self, view):
        p = view.private or {}
        rows = [{"key": key, "parent": parent, "children": children,
                "value": p["values"][key] if parent is None else None, "sent": False}
               for key, parent, children in p.get("roles", ())]
        return {"roles": rows, "edge_role": _ref_edge_roles(p.get("roles", ()))}

    def on_round(self, state, view, rnd, inbox):
        for sender, value in inbox:
            role = state["roles"][state["edge_role"][sender]]
            if sender == role["parent"]:
                role["value"] = value
        out = {}
        done = True
        for role in state["roles"]:
            if role["value"] is None:
                done = False
                continue
            if not role["sent"]:
                role["sent"] = True
                m = Msg(width(view.id_bits, 0, self.bound), role["value"])
                for c in role["children"]:
                    out[c] = m
        return out, done

    def on_finish(self, state, view):
        return {r["key"]: r["value"] for r in state["roles"]}


def vertex_roles(roles):
    """A parent-pointer role table as each vertex sees it: vertex ->
    [(tree key, parent, sorted children)], in table order, the children
    being the roles that name the vertex as parent in the same tree."""
    children = defaultdict(list)
    for (v, key), p in roles.items():
        if p is not None:
            children[p, key].append(v)
    rows = {}
    for (v, key), p in roles.items():
        rows.setdefault(v, []).append((key, p, tuple(sorted(children[v, key]))))
    return rows


def _ref_edge_roles(roles):
    by_edge = {}
    for i, (_key, parent, children) in enumerate(roles):
        if parent is not None:
            by_edge[parent] = i
        for c in children:
            by_edge[c] = i
    return by_edge


def ref_forest_aggregate(g, roles, key_of, values, combine, bound, cfg):
    bound = bound if bound is not None else max(2 * g.n + 1, 2)
    private = {v: {"roles": rs, "key": key_of.get(v), "value": values.get(v, 0)}
               for v, rs in vertex_roles(roles).items()}
    outputs, ledger = run(g, RefAggregate(combine, bound), cfg, private=private)
    return {key: outputs[v][key] for (v, key), p in roles.items() if p is None}, ledger


def ref_forest_broadcast(g, roles, key_of, root_values, cfg):
    private = {v: {"roles": rs, "values": {key: root_values.get(key, 0)
                                           for key, p, _ch in rs if p is None}}
               for v, rs in vertex_roles(roles).items()}
    outputs, ledger = run(g, RefBroadcast(max(2 * g.n + 1, 2)), cfg, private=private)
    return {v: outputs[v][key] for v, key in roles if key_of.get(v) == key}, ledger


def random_forest(rng):
    """Up to four edge-disjoint trees that may share vertices, on sparse
    IDs (n <= 14, IDs up to 600) or on IDs 0..n-1, where the default bound
    2n+1 outgrows an ID and so overruns the budget floor; sometimes a
    cycle of roles with a tree hanging off it (a table the Forest
    rejects), plus extra graph edges, each vertex's tree key (mostly one
    of its roles' keys, sometimes a key it has no role under, sometimes
    none), random contributions, a value bound that may overrun the
    budget, and a config that is strict or audit, with a tight or default
    budget and a small or default round cap.  Sometimes tree edges are
    left out of the graph.  Also returns whether the table is acyclic."""
    n = rng.randint(1, 14)
    ids = list(range(n)) if rng.random() < 0.5 else sorted(rng.sample(range(601), n))
    used = set()
    roles = {}
    for key in rng.sample([0, 7, 99, "a", "bc"], rng.randint(1, 4)):
        members = [rng.choice(ids)]
        edges = []
        for _ in range(rng.randint(0, 2 * len(ids))):
            v = rng.choice(ids)
            e = canon(rng.choice(members), v)
            if v not in members and e not in used:
                used.add(e)
                members.append(v)
                edges.append(e)
        for v, (p, _ch) in orient_tree(members[0], edges).items():
            roles[v, key] = p
    acyclic = True
    for _attempt in range(8 if len(ids) >= 3 and rng.random() < 0.3 else 0):
        ring = rng.sample(ids, rng.randint(3, min(5, len(ids))))
        ring_edges = {canon(ring[i - 1], ring[i]) for i in range(len(ring))}
        if not ring_edges & used:
            acyclic = False
            used |= ring_edges
            hang = [v for v in ids if v not in ring and canon(v, ring[0]) not in used]
            hang = hang[:1] if rng.random() < 0.5 else []
            for i, v in enumerate(ring):
                roles[v, "ring"] = ring[i - 1]
            for v in hang:
                used.add(canon(v, ring[0]))
                roles[v, "ring"] = ring[0]
            break
    extra = {canon(u, v) for u, v in ((rng.choice(ids), rng.choice(ids))
                                      for _ in range(rng.randint(0, 10))) if u != v}
    missing = set(rng.sample(sorted(used), rng.randint(1, len(used)))) \
        if used and rng.random() < 0.15 else set()
    g = Graph(ids, (used | extra) - missing)
    tree_keys = sorted({key for _v, key in roles}, key=repr)
    key_of = {}
    for v in ids:
        own = [key for u, key in roles if u == v]
        pick = rng.random()
        if pick < 0.8:
            key_of[v] = rng.choice(own if own and pick < 0.6 else tree_keys)
    values, root_values = random_values(rng, roles)
    bound = rng.choice((None, 1, 2**8, 2**20, 2**20))
    budget = rng.choice((None, 8 + g.id_bits + rng.choice((0, rng.randint(0, 12)))))
    cfg = SimConfig(msg_bit_budget=budget, strict=rng.random() < 0.5)
    if rng.random() < 0.3:
        cfg.max_rounds = rng.randint(0, 6)
    return g, roles, key_of, values, root_values, bound, cfg, acyclic


def random_values(rng, roles):
    """Random contributions of the vertices of ``roles`` and random root
    values, each left out with probability 0.2."""
    values = {v: rng.randint(0, 40) for v in sorted({v for v, _key in roles})
              if rng.random() < 0.8}
    root_values = {key: rng.randint(0, 40)
                   for (_v, key), p in roles.items() if p is None and rng.random() < 0.8}
    return values, root_values


def _outcome(call):
    try:
        out, ledger = call()
    except (SimError, ValueError) as exc:
        return type(exc), str(exc)
    return repr(out), ledger.to_json()


def _fresh(step):
    """A call that runs ``step(ledger)`` on a fresh ledger and returns (its
    result, the ledger), the form of a reference program's run."""
    def call():
        ledger = RoundLedger()
        return step(ledger), ledger
    return call


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(("sum", "min")))
def test_forest_helpers_match_reference_programs(seed, combine):
    """A table with a cycle or a tree edge outside g is rejected by the
    Forest constructor.  On every other draw the scheduled convergecast
    and broadcast, each on a Forest and ledger of its own, return the
    same outputs (key order included), the same ledger with its
    violation records, and the same exception type and text as the
    vertex programs.  One more
    Forest runs each direction twice, on two value sets, and returns what
    the fresh ones do, so no call leaves state behind that the next one
    reads."""
    rng = random.Random(seed)
    g, roles, key_of, values, root_values, bound, cfg, acyclic = random_forest(rng)
    values2, root_values2 = random_values(rng, roles)
    in_g = all(g.has_edge(v, p) for (v, _key), p in roles.items() if p is not None)
    if not (acyclic and in_g):
        with pytest.raises(SimError, match="^forest: "):
            Forest(g, cfg, RoundLedger(), roles, key_of)
        return
    shared = Forest(g, cfg, RoundLedger(), roles, key_of)

    def fresh(helper, *args):
        ledger = RoundLedger()
        forest = Forest(g, cfg, ledger, roles, key_of)
        return getattr(forest, helper)(f"forest-{helper}", *args), ledger

    for vals in (values, values2):
        got = _outcome(lambda: fresh("aggregate", vals, combine, bound))
        assert got == _outcome(
            lambda: ref_forest_aggregate(g, roles, key_of, vals, combine, bound, cfg))
        if isinstance(got[0], str):  # the pass went through
            assert repr(shared.aggregate("again", vals, combine, bound)) == got[0]
    for vals in (root_values, root_values2):
        got = _outcome(lambda: fresh("broadcast", vals))
        assert got == _outcome(
            lambda: ref_forest_broadcast(g, roles, key_of, vals, cfg))
        if isinstance(got[0], str):
            assert repr(shared.broadcast("again", vals)) == got[0]


# case id -> (role table, what the error says)
BROKEN_TABLES = {
    # edge (0, 1) lies in tree "a" and in tree "b"
    "two roles": ({(0, "a"): None, (1, "a"): 0, (1, "b"): None, (0, "b"): 1}, "two roles"),
    # 1 names parent 0 in tree "b", but 0 has a role in tree "a" only, so
    # no role of 0 can take 1 as its child under "b"
    "does not list child 1 under tree 'b'": ({(1, "b"): 0, (0, "a"): None},
                                             "parent 0 of vertex 1 has no role in tree 'b'"),
    # the 3-path has no vertex 7
    "names non-vertices": ({(0, "a"): None, (7, "a"): None}, "names non-vertices"),
}


@pytest.mark.parametrize("text", sorted(BROKEN_TABLES))
@pytest.mark.parametrize("helper", ["aggregate", "broadcast"])
def test_forest_role_table_checked(helper, text, monkeypatch):
    """Building the Forest raises, before the helper could run a round."""
    g = generate("path", {"n": 3})

    def no_rounds(*args):
        raise AssertionError("a round ran over a broken role table")

    monkeypatch.setattr(primitives, "_charge", no_rounds)
    table, message = BROKEN_TABLES[text]
    with pytest.raises(SimError, match=f"^forest: .*{message}"):
        getattr(Forest(g, SimConfig(), RoundLedger(), table, {}), helper)("x", {})


def test_forest_rejects_cycles_and_tree_edges_outside_g():
    # a consistent table whose tree is a cycle: no role is a leaf or a
    # root, so no pass could ever deliver its messages
    g = generate("cycle", {"n": 3})
    roles = {(0, "a"): 2, (1, "a"): 0, (2, "a"): 1}
    with pytest.raises(SimError, match=r"^forest: roles of vertices \[0, 1, 2\] lie on "
                                       r"or below a cycle$"):
        Forest(g, SimConfig(), RoundLedger(), roles, {})
    # 0 and 1 name each other, so edge (0, 1) is named twice in tree "a":
    # a cycle of two roles, with 2 hanging below it
    roles = {(0, "a"): 1, (1, "a"): 0, (2, "a"): 1}
    with pytest.raises(SimError, match=r"^forest: roles of vertices \[0, 1, 2\] lie on "
                                       r"or below a cycle$"):
        Forest(g, SimConfig(), RoundLedger(), roles, {})
    # a path tree 0-1-2 over a graph that lacks its edge (1, 2)
    path = {(0, "a"): None, (1, "a"): 0, (2, "a"): 1}
    with pytest.raises(SimError, match=r"^forest: tree edge \(2, 1\) of tree 'a' is "
                                       r"not an edge of the graph$"):
        Forest(Graph(range(3), [(0, 1)]), SimConfig(), RoundLedger(), path, {})


def test_forest_overrun_records_in_round_sender_receiver_order():
    # vertex 1 is a leaf in tree "a" (parent 2), where it is a member,
    # and in tree "b" (parent 0), where it relays: over the budget its two
    # reports are recorded in receiver order, not in role order
    g = Graph(range(3), [(0, 1), (1, 2)])
    roles = {(1, "a"): 2, (1, "b"): 0, (2, "a"): None, (0, "b"): None}
    key_of = {1: "a", 2: "a", 0: "b"}
    cfg = SimConfig(strict=False, msg_bit_budget=8 + g.id_bits)
    up, down = RoundLedger(), RoundLedger()
    agg = Forest(g, cfg, up, roles, key_of).aggregate("up", {1: 1, 2: 3, 0: 4},
                                                       bound=2**20)
    # the broadcast's 11 bits at the default width are over the 10-bit floor
    got = Forest(g, cfg, down, roles, key_of).broadcast("down", {"a": 7, "b": 8})
    assert (agg, list(got.items())) == ({"a": 4, "b": 4}, [(1, 7), (2, 7), (0, 8)])
    for ledger, edges in ((up, [[1, 0], [1, 2]]), (down, [[0, 1], [2, 1]])):
        assert (ledger.rounds_used, ledger.messages_total) == (1, 2)
        assert [(rec["round"], rec["edge"]) for rec in ledger.violations] == \
            [(1, edge) for edge in edges]


@pytest.mark.parametrize("helper,label", [("aggregate", "forest-aggregate"),
                                          ("broadcast", "forest-broadcast")])
def test_forest_pass_in_the_callers_ledger_names_itself(helper, label):
    """A pass charged to the caller's ledger under the caller's phase name
    leaves exactly what a fresh ledger merged under that name would, and
    names itself in what it reports: over the budget each audit record
    and the strict BudgetError name the pass, as does the SimTimeout at
    the round cap, while ``per_phase`` carries the caller's phase."""
    g = generate("path", {"n": 5})
    chain = {(v, "t"): v - 1 if v else None for v in range(5)}
    members = dict.fromkeys(range(5), "t")
    values = {"aggregate": dict.fromkeys(range(5), 1), "broadcast": {"t": 1}}[helper]
    floor = 8 + g.id_bits

    def charge(cfg, ledger, name="sizes:P1"):
        # 12 bits at the default width, over the 11-bit floor
        getattr(Forest(g, cfg, ledger, chain, members), helper)(name, values)
        return ledger

    def earlier():
        ledger = RoundLedger()
        sim._charge(g, SimConfig(), ledger, "before", 3, 2, floor)
        return ledger

    audit = SimConfig(strict=False, msg_bit_budget=floor)
    ledger = charge(audit, earlier())
    # the same pass charged to a ledger of its own, merged under the name
    merged = earlier()
    merged.extend_sequential(charge(audit, RoundLedger(), label), name="sizes:P1")
    assert ledger.to_json() == merged.to_json()
    assert ledger.per_phase == [("before", 3), ("sizes:P1", 4)]
    assert [rec["program"] for rec in ledger.violations] == [label] * 4
    with pytest.raises(sim.BudgetError, match=f"'program': '{label}'"):
        charge(SimConfig(msg_bit_budget=floor), earlier())
    with pytest.raises(SimTimeout, match=f"^program '{label}' exceeded max_rounds=4$"):
        charge(SimConfig(max_rounds=4), earlier())


@pytest.mark.parametrize("extra", [None, 0, 1])
def test_id_chunks_boundaries(extra):
    g = Graph(range(40), [(0, v) for v in range(1, 40)])
    budget = SimConfig().budget_for(g)
    per_msg = (budget - 8) // g.id_bits
    ids = list(range(0 if extra is None else per_msg + extra))
    msgs = id_chunks(g.id_bits, budget, ids)
    assert len(msgs) == math.ceil(len(ids) / per_msg) + 1
    assert all(m.bits <= budget for m in msgs)
    assert msgs[-1].body == (TAG_END,)
    assert [i for m in msgs[:-1] if m.body[0] == TAG_IDS for i in m.body[1]] == ids
    # the same stream's bill: leaf 1 streams its list to the center
    ledger = RoundLedger()
    _charge_stream(g, SimConfig(), ledger, "gather", {1: {0: ids}})
    assert ledger.messages_total == len(msgs)
    assert ledger.rounds_used == len(msgs)
    assert ledger.max_bits_seen <= budget


TAG_IDS, TAG_END = range(2)


def id_chunks(id_bits, budget, ids):
    """Frame an ID list as budget-sized (TAG_IDS, ids) messages followed by
    one (TAG_END,) marker, to be sent over an edge one per round: the
    reference framing of the chunked streams."""
    ids = tuple(ids)
    per_msg = max(1, (budget - TAG) // id_bits)
    msgs = []
    for i in range(0, len(ids), per_msg):
        piece = ids[i : i + per_msg]
        msgs.append(Msg(width(id_bits, len(piece)), (TAG_IDS, piece)))
    msgs.append(Msg(width(id_bits), (TAG_END,)))
    return msgs


class RefGather(NodeProgram):
    """Reference for a gather over ``_charge_stream``: members stream their lists
    to the hub as a vertex program; hubs halt once every expected member
    ended."""

    name = "chunked-gather"

    def init(self, view):
        p = view.private or {}
        hub = p.get("hub")
        items = list(p.get("items", ()))
        sends = hub is not None and hub != view.vid
        return {
            "hub": hub,
            "self_items": items if hub == view.vid else [],
            "chunks": id_chunks(view.id_bits, view.budget, items) if sends else [],
            "cursor": 0,
            "waiting": set(p.get("expect", ())),
            "collected": {},
        }

    def on_round(self, state, view, rnd, inbox):
        for sender, body in inbox:
            if body[0] == TAG_IDS:
                state["collected"].setdefault(sender, []).extend(body[1])
            else:
                state["collected"].setdefault(sender, [])
                state["waiting"].discard(sender)
        out = {}
        if state["cursor"] < len(state["chunks"]):
            out[state["hub"]] = state["chunks"][state["cursor"]]
            state["cursor"] += 1
        done = state["cursor"] >= len(state["chunks"]) and not state["waiting"]
        return out, done

    def on_finish(self, state, view):
        got = {m: tuple(v) for m, v in state["collected"].items()}
        if state["self_items"]:
            got[view.vid] = tuple(state["self_items"])
        return got


class RefScatter(NodeProgram):
    """Reference for a scatter over ``_charge_stream``: hubs stream per-member
    lists as a vertex program; members halt once their hub's stream
    ended."""

    name = "chunked-scatter"

    def init(self, view):
        p = view.private or {}
        hub = p.get("hub")
        return {
            "queues": {u: id_chunks(view.id_bits, view.budget, ids)
                       for u, ids in p.get("plan", {}).items()},
            "done_recv": hub is None or hub == view.vid,
            "got": [],
        }

    def on_round(self, state, view, rnd, inbox):
        for _sender, body in inbox:
            if body[0] == TAG_IDS:
                state["got"].extend(body[1])
            else:
                state["done_recv"] = True
        out = {}
        for u, q in list(state["queues"].items()):
            out[u] = q.pop(0)
            if not q:
                del state["queues"][u]
        return out, not state["queues"] and state["done_recv"]

    def on_finish(self, state, view):
        return tuple(state["got"])


@st.composite
def star_streams(draw):
    """A star forest on sparse IDs (n <= 14, IDs up to 600), ID lists per
    vertex that are empty or span one chunk, a chunk boundary or several
    chunks, and a budget from just below the one-ID floor to four IDs."""
    ids = sorted(draw(st.sets(st.integers(0, 600), min_size=1, max_size=14)))
    hubs = draw(st.sets(st.sampled_from(ids), min_size=1))
    sometimes = st.sampled_from((True, True, True, False))
    hub_of = {h: h for h in hubs}
    for v in ids:
        if v not in hubs and draw(sometimes):
            hub_of[v] = draw(st.sampled_from(sorted(hubs)))
    g = Graph(ids, [(v, h) for v, h in hub_of.items() if v != h])
    floor = 8 + g.id_bits
    budget = floor - 1
    if draw(sometimes):
        budget = draw(st.integers(floor, floor + 3 * g.id_bits))
    per_msg = max(1, (budget - 8) // g.id_bits)
    length = st.sampled_from(
        [0, 1, per_msg - 1, per_msg, per_msg + 1, 2 * per_msg, 3 * per_msg + 2]
    )

    def id_list():
        n = draw(length)
        return draw(st.lists(st.integers(0, g.max_id), min_size=n, max_size=n))

    items = {v: id_list() for v in hub_of}
    plans = {h: {v: id_list() for v, hh in hub_of.items() if hh == h and v != h}
             for h in hubs}
    cfg = SimConfig(msg_bit_budget=budget, strict=draw(st.booleans()))
    return g, hub_of, items, plans, cfg


def _result(fn):
    ledger = RoundLedger()
    try:
        return fn(ledger), ledger.to_json()
    except SimError as exc:
        return type(exc).__name__, str(exc)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(star_streams())
def test_chunked_streams_match_reference_programs(case):
    g, hub_of, items, plans, cfg = case
    expect = {h: [v for v, hh in hub_of.items() if hh == h and v != h]
              for h in set(hub_of.values())}

    def ref_gather(ledger):
        private = {v: {"hub": hub_of.get(v), "items": items.get(v, ()),
                       "expect": expect.get(v, ())} for v in g.vertices}
        out, led = run(g, RefGather(), cfg, private=private)
        ledger.extend_sequential(led, name="up")
        # a stream delivers only what was streamed: no hub's own list, and
        # no entry for a vertex that received nothing
        return {v: [(m, ids) for m, ids in got.items() if m != v]
                for v, got in out.items() if set(got) - {v}}

    def ref_scatter(ledger):
        private = {v: {"plan": plans.get(v, {}), "hub": hub_of.get(v)}
                   for v in g.vertices}
        out, led = run(g, RefScatter(), cfg, private=private)
        ledger.extend_sequential(led, name="down")
        return {u: [(h, out[u])] for h, plan in plans.items() for u in plan}

    def charged(name, lists, read):
        # the streams' bill, next to the lists their receivers read on the
        # host instead of receiving them
        def call(ledger):
            _charge_stream(g, cfg, ledger, name, lists)
            return read
        return _result(call)

    gather = {v: {hub: items.get(v, ())} for v, hub in hub_of.items() if hub != v}
    # a hub reads its members' lists, in member order
    read_up = {h: [(v, tuple(items.get(v, ()))) for v in sorted(ms)]
               for h, ms in expect.items() if ms}
    # a member reads its hub's assignment for it
    read_down = {u: [(h, tuple(ids))] for h, plan in plans.items()
                 for u, ids in plan.items()}
    assert charged("up", gather, read_up) == _result(ref_gather)
    assert charged("down", plans, read_down) == _result(ref_scatter)


def test_chunked_streams_reject_non_neighbour_targets():
    # the first stray (sender, target) pair in ID order raises the send
    # step's error, and the caller's ledger stays untouched
    g = Graph(range(5), [(0, 1), (0, 2), (3, 4)])
    want = {}
    for v, u, name in ((3, 0, "up"), (0, 3, "down")):
        with pytest.raises(SimError) as exc:
            _post(g, SimConfig(), 16, RoundLedger(), name, 1, v,
                  {u: Msg(TAG, (TAG_END,))}, defaultdict(list))
        want[name] = str(exc.value)
    ledger = RoundLedger()
    with pytest.raises(SimError) as exc:
        _charge_stream(g, SimConfig(), ledger, "up",
                {1: {0: [2]}, 3: {0: [1, 2]}, 4: {0: [0]}})
    assert str(exc.value) == want["up"] == "up: vertex 3 sent to non-neighbor 0"
    with pytest.raises(SimError) as exc:
        _charge_stream(g, SimConfig(), ledger, "down",
                {0: {1: [4], 4: [], 3: [1]}, 3: {4: [0]}})
    assert str(exc.value) == want["down"] == "down: vertex 0 sent to non-neighbor 3"
    assert ledger.to_json() == RoundLedger().to_json()


# -- ruling sets -------------------------------------------------------------


def test_ruling_log_single_candidate():
    g = generate("cycle", {"n": 10})
    U = ruling_set_log(g, SimConfig(), RoundLedger(), "ruling", {3})
    assert U == {3}


def test_ruling_log_far_candidates_survive():
    g = generate("path", {"n": 11})
    U = ruling_set_log(g, SimConfig(), RoundLedger(), "ruling", {0, 10})
    assert U == {0, 10}


def test_ruling_log_path16_exhaustive():
    g = generate("path", {"n": 16})
    ledger = RoundLedger()
    U = ruling_set_log(g, SimConfig(), ledger, "ruling", set(range(16)))
    rep = audit_ruling_set(g, set(range(16)), U, alpha=4,
                           beta=3 * math.ceil(math.log2(16)))
    assert rep.passed, rep.findings
    # no message travels in a level's fourth round, the last one included
    assert ledger.rounds_used <= 4 * g.id_bits - 1


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_ruling_log_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 80)
    g = generate("erdos-renyi", {"n": n, "p": 3.0 / n}, seed=seed)
    cands = set(rng.sample(range(n), rng.randint(1, n)))
    ledger = RoundLedger()
    U = ruling_set_log(g, CFG, ledger, "ruling", cands)
    beta = 3 * g.id_bits
    rep = audit_ruling_set(g, cands, U, alpha=4, beta=beta)
    assert rep.passed, rep.findings
    assert ledger.rounds_used <= 4 * g.id_bits - 1


def test_ruling_power_cycle9():
    g = generate("cycle", {"n": 9})
    U, _ = ruling_set_power(g, set(range(9)), 1)
    rep = audit_ruling_set(g, set(range(9)), U, alpha=3, beta=4)
    assert rep.passed, rep.findings


def test_ruling_power_single_candidate():
    g = generate("grid", {"rows": 4, "cols": 4})
    U, _ = ruling_set_power(g, {7}, 2)
    assert U == {7}


def test_ruling_power_separated_candidates_all_join():
    g = generate("path", {"n": 30})
    cands = {0, 10, 20, 29}  # pairwise distance >= 3t for t = 3
    U, _ = ruling_set_power(g, cands, 3)
    assert U == cands


def test_ruling_power_rounds_are_its_election():
    # one wave: a radius-8 min flood, then a radius-8 deactivation flood
    g = generate("path", {"n": 30})
    U, ledger = ruling_set_power(g, {7}, 3)
    assert U == {7}
    assert ledger.rounds_used == 16
    assert {name for name, _r in ledger.per_phase} == {
        "power-min-flood", "power-deactivate"}


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_ruling_power_random(seed, t):
    rng = random.Random(seed)
    n = rng.randint(4, 50)
    g = generate("erdos-renyi", {"n": n, "p": 3.0 / n}, seed=seed)
    cands = set(rng.sample(range(n), rng.randint(1, n)))
    U, _ = ruling_set_power(g, cands, t, CFG)
    rep = audit_ruling_set(g, cands, U, alpha=3 * t, beta=4 * t)
    assert rep.passed, rep.findings


def test_ruling_power_round_cap():
    g = generate("path", {"n": 200})
    _, ledger = ruling_set_power(g, set(range(200)), 1, CFG)
    cap = 8 * 1 * 2 ** (2 * math.ceil(math.sqrt(math.log2(200))))
    assert ledger.rounds_used <= cap


# -- balanced tree partitioning ----------------------------------------------


def _check_partition(parts, weights, B, n):
    """Every tree checked here is rooted at 0."""
    owned_all = set()
    for p in parts:
        assert not (owned_all & set(p.owned)), "D1: overlap"
        owned_all |= set(p.owned)
    assert owned_all == set(range(n)), "D1: cover"
    assert parts[0].root == 0 and 0 in parts[0].owned, "part 0 is the root's part"
    for idx, p in enumerate(parts):
        w = sum(weights.get(v, 0) for v in p.owned)
        if idx == 0:
            assert w <= 2 * B, "D5/D2 leftover"
        else:
            assert B <= w <= 2 * B, "D2"
        assert p.tree_vertices <= set(p.owned) | {p.root}, "D3"
    seen = set()
    for p in parts:
        assert not (p.edges & seen), "D4: edge overlap"
        seen |= p.edges


def test_partition_7path_unit_weights():
    edges = frozenset((i, i + 1) for i in range(6))
    wt = WeightedTree(edges=edges, root=0, weights={i: 1 for i in range(7)}, bound=2)
    ledger = RoundLedger()
    parts = partition_tree(wt, CFG, ledger)
    _check_partition(parts, wt.weights, 2, 7)
    assert ledger.rounds_used <= 2 * 7


def test_partition_single_vertex():
    wt = WeightedTree(edges=frozenset(), root=0, weights={0: 0}, bound=3)
    ledger = RoundLedger()
    parts = partition_tree(wt, CFG, ledger)
    assert len(parts) == 1
    assert parts[0].owned == frozenset({0})
    assert ledger.rounds_used == 0


def test_partition_star_root_owned_once():
    edges = frozenset((0, i) for i in range(1, 6))
    weights = {0: 0, **{i: 1 for i in range(1, 6)}}
    wt = WeightedTree(edges=edges, root=0, weights=weights, bound=2)
    parts = partition_tree(wt, CFG, RoundLedger())
    _check_partition(parts, weights, 2, 6)
    owners = [p for p in parts if 0 in p.owned]
    assert len(owners) == 1
    rooted_at_zero = [p for p in parts if p.root == 0]
    assert len(rooted_at_zero) >= 2  # auxiliary root of several parts


def test_partition_rejects_overweight_vertex():
    # a weight of B passes, B + 1 does not
    wt = WeightedTree(
        edges=frozenset({(0, 1)}), root=0, weights={0: 2, 1: 1}, bound=2
    )
    wt.validate()
    wt.weights[0] = 3
    with pytest.raises(ValueError, match="vertex 0 weight 3 exceeds bound B=2"):
        partition_tree(wt, CFG, RoundLedger())
    # n - 1 edges, but a triangle away from the root leaves it disconnected
    wt = WeightedTree(edges=frozenset({(1, 2), (2, 3), (1, 3)}), root=0,
                      weights={}, bound=2)
    with pytest.raises(ValueError, match="tree is disconnected"):
        wt.validate()


def _random_tree(n, rng):
    return frozenset((rng.randrange(i), i) for i in range(1, n))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_partition_random_trees(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 100)
    B = rng.randint(1, 8)
    weights = {i: rng.randint(0, B) for i in range(n)}
    wt = WeightedTree(edges=_random_tree(n, rng), root=0, weights=weights, bound=B)
    parts = partition_tree(wt, CFG, RoundLedger())
    _check_partition(parts, weights, B, n)
    total = sum(weights.values())
    assert len(parts) <= math.ceil(max(total, 1) / B) + 1


# -- the wrappers' edge cases --------------------------------------------------


def test_ruling_power_candidate_never_woken():
    # radius 2: candidate 2 hears 0 and 4 hears 2, so only 0 joins in the
    # first wave, and its deactivation flood never reaches candidate 4
    g = generate("path", {"n": 6})
    U, ledger = ruling_set_power(g, {0, 2, 4}, 1, CFG)
    assert U == {0, 4}
    assert [name for name, _r in ledger.per_phase] == [
        "power-min-flood", "power-deactivate"] * 2


@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_wrappers_match_audit_mode(seed):
    """Within the budget, audit mode records nothing and raises nothing,
    so every wrapper returns the same result and ledger in both modes."""
    rng = random.Random(seed)
    n = rng.randint(2, 40)
    g = generate("erdos-renyi", {"n": n, "p": min(1.0, 3.0 / n)}, seed=seed)
    picked = set(rng.sample(range(n), rng.randint(1, max(1, n // 3))))
    audit = replace(CFG, strict=False)

    def builds(cfg):
        ledger = RoundLedger()
        cl = grow_bfs_clusters(g, cfg, ledger, "grow", picked, 2)
        forest = Forest(g, cfg, ledger, clustering_roles(cl), cl.membership)
        sizes = forest.aggregate("sizes", dict.fromkeys(cl.membership, 1))
        got = forest.broadcast("know", sizes)
        ruled = ruling_set_log(g, cfg, ledger, "ruling", picked)
        power, led = ruling_set_power(g, picked, 1, cfg)
        ledgers = [ledger.to_json(), led.to_json()]
        return cl.membership, cl.parents, sizes, got, ruled, power, ledgers

    assert builds(CFG) == builds(audit)


def test_wrappers_reject_non_vertices():
    g = generate("path", {"n": 4})
    with pytest.raises(SimError, match=r"^grow-clusters: active non-vertices \[99\]$"):
        grow_bfs_clusters(g, SimConfig(), RoundLedger(), "grow", {99}, 2)
    with pytest.raises(SimError, match=r"^min-flood: active non-vertices \[99\]$"):
        ruling_set_power(g, {99}, 1)
    with pytest.raises(SimError, match=r"^ruling-set-log: active non-vertices \[99\]$"):
        ruling_set_log(g, SimConfig(), RoundLedger(), "ruling", {1, 99})


# -- the mail-driven primitives against the vertex programs they replace ------


class RefGrowClusters(NodeProgram):
    """Reference for ``grow_bfs_clusters``: multi-source BFS as a vertex
    program; the largest center ID heard in a round wins, relayed by the
    smallest-ID sender."""

    name = "grow-clusters"

    def __init__(self, depth):
        self.depth = depth

    def init(self, view):
        is_center = bool(view.private and view.private.get("center"))
        return {"center": view.vid if is_center else None, "parent": None,
                "dist": 0 if is_center else None}

    def on_round(self, state, view, rnd, inbox):
        out = {}
        if rnd == 1:
            if state["center"] is not None and self.depth >= 1:
                m = Msg(width(view.id_bits, 1, self.depth), (state["center"], 1))
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
                m = Msg(width(view.id_bits, 1, self.depth), (best_center, dist + 1))
                out = {u: m for u in view.neighbors if u != best_from}
        return out, True

    def on_finish(self, state, view):
        if state["center"] is None:
            return None
        return (state["center"], state["parent"], state["dist"])


class RefMinFlood(NodeProgram):
    """Reference for the min-flood: every vertex learns the smallest
    source ID within the radius, forwarding each improvement."""

    name = "min-flood"

    def __init__(self, radius):
        self.R = radius

    def init(self, view):
        src = bool(view.private and view.private.get("source"))
        return {"m": view.vid if src else None, "source": src}

    def on_round(self, state, view, rnd, inbox):
        out = {}
        best_h = None
        best_from = None
        for sender, (mid, hop) in inbox:
            if state["m"] is None or mid < state["m"]:
                state["m"] = mid
                best_h = hop
                best_from = sender
        if best_h is not None and best_h < self.R:
            m = Msg(width(view.id_bits, 1, self.R), (state["m"], best_h + 1))
            for u in view.neighbors:
                if u != best_from:
                    out[u] = m
        if rnd == 1 and state["source"]:
            m = Msg(width(view.id_bits, 1, self.R), (view.vid, 1))
            for u in view.neighbors:
                out[u] = m
        return out, True

    def on_finish(self, state, view):
        return state["m"]


class RefHopFlood(NodeProgram):
    """Reference for the hop-flood: outputs whether the vertex heard it."""

    name = "hop-flood"

    def __init__(self, radius):
        self.R = radius

    def init(self, view):
        src = bool(view.private and view.private.get("source"))
        return {"heard": src, "forwarded": False, "source": src}

    def on_round(self, state, view, rnd, inbox):
        out = {}
        best = None
        for _sender, hop in inbox:
            state["heard"] = True
            if best is None or hop < best:
                best = hop
        if rnd == 1 and state["source"]:
            state["forwarded"] = True
            m = Msg(width(view.id_bits, 0, self.R), 1)
            for u in view.neighbors:
                out[u] = m
        elif best is not None and best < self.R and not state["forwarded"]:
            state["forwarded"] = True
            m = Msg(width(view.id_bits, 0, self.R), best + 1)
            for u in view.neighbors:
                out[u] = m
        return out, True

    def on_finish(self, state, view):
        return state["heard"]


class RefPartitionTree(NodeProgram):
    """Reference for ``partition_tree``: leftover reports bottom-up, part
    assignments top-down, as a vertex program."""

    name = "tree-partition"

    TAG_LEFT, TAG_NOLEFT, TAG_ASSIGN = 0, 1, 2

    def __init__(self, bound, total_bound):
        self.B = bound
        self.total = total_bound

    def init(self, view):
        p = view.private
        return {"parent": p["parent"], "waiting": set(p["children"]), "w": p["weight"],
                "leftovers": [], "tail": [], "part": None, "processed": False,
                "notify": []}

    def _process(self, state, view):
        state["processed"] = True
        groups = []
        acc = []
        acc_w = 0
        for child, w in sorted(state["leftovers"]):
            acc.append(child)
            acc_w += w
            if acc_w > self.B:
                groups.append(acc)
                acc = []
                acc_w = 0
        for idx, grp in enumerate(groups, 1):
            for c in grp:
                state["notify"].append((c, (view.vid, idx)))
        state["tail"] = acc
        tail_w = acc_w + state["w"]
        if state["parent"] is None:
            state["part"] = (view.vid, 0)
            for c in state["tail"]:
                state["notify"].append((c, state["part"]))
            return None
        if tail_w <= self.B:
            return (self.TAG_LEFT, tail_w)
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
                out[state["parent"]] = Msg(width(view.id_bits, 0, *counters), report)
        while state["notify"]:
            child, (root, idx) = state["notify"].pop(0)
            out[child] = Msg(width(view.id_bits, 1, self.total),
                             (self.TAG_ASSIGN, root, idx))
        return out, state["processed"] and not state["notify"]

    def on_finish(self, state, view):
        return state["part"]


def ref_grow_bfs_clusters(g, centers, depth, cfg):
    private = {v: {"center": True} for v in centers}
    outputs, ledger = run(g, RefGrowClusters(depth), cfg, private=private)
    membership = {}
    parents = {}
    for v, outcome in outputs.items():
        if outcome is not None:
            membership[v], parents[v], _dist = outcome
    return Clustering(level=depth, membership=membership, parents=parents,
                      depth_bound=depth), ledger


def ref_ruling_set_power(g, candidates, t, cfg):
    if t < 1:
        raise ValueError("t must be >= 1")
    if not candidates:
        raise ValueError("candidate set must be nonempty")
    ledger = RoundLedger()
    radius = 3 * t - 1
    active = set(candidates)
    chosen = set()
    while active:
        private = {v: {"source": True} for v in active}
        minima, led = run(g, RefMinFlood(radius), cfg, private=private)
        ledger.extend_sequential(led, name="power-min-flood")
        joiners = {v for v in active if minima[v] == v}
        chosen |= joiners
        private = {v: {"source": True} for v in joiners}
        heard, led = run(g, RefHopFlood(radius), cfg, private=private)
        ledger.extend_sequential(led, name="power-deactivate")
        active = {v for v in active if not heard[v]}
    return chosen, ledger


def ref_partition_tree(t, cfg):
    if t.bound < 1:
        raise ValueError("bound B must be >= 1")
    t.validate()
    tree = orient_tree(t.root, t.edges)
    private = {v: {"parent": p, "children": ch, "weight": t.weights.get(v, 0)}
               for v, (p, ch) in tree.items()}
    outputs, ledger = run(Graph(t.vertices(), t.edges),
                          RefPartitionTree(t.bound, len(tree)), cfg, private=private)
    keys = []
    owned = {}
    for v in sorted(tree):
        key = outputs[v]
        if key is None:
            raise SimError(f"vertex {v} left unassigned by tree partition")
        owned.setdefault(key, set()).add(v)
        if key not in keys:
            keys.append(key)
    root_key = outputs[t.root]
    keys.sort(key=lambda k: (k != root_key, k))
    parts = []
    for key in keys:
        vs = owned[key]
        edges = frozenset(canon(v, tree[v][0]) for v in vs
                          if tree[v][0] is not None and v != key[0])
        parts.append(TreePart(root=key[0], owned=frozenset(vs), edges=edges))
    return parts, ledger


def random_primitive_inputs(rng):
    """A graph with n <= 30 on sparse IDs, possibly disconnected and with
    isolated vertices; centers (possibly none) and candidates (possibly
    none) among its vertices; depth 0..4 and t 1..3; a random tree on
    sparse IDs with weights up to B in 1..5 (rarely one above); and a
    strict or audit config whose budget is the default or the floor plus
    0..8 bits, with max_rounds 0..6 or uncapped."""
    n = rng.randint(1, 30)
    ids = sorted(rng.sample(range(rng.choice((n, 4 * n, 1000))), n))
    p = rng.choice((0.0, 0.05, 0.15, 0.3, 0.6))
    g = Graph(ids, [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]
                    if rng.random() < p])
    centers = set(rng.sample(ids, rng.randint(0, min(n, 8))))
    cands = set(rng.sample(ids, rng.randint(0, n)))
    depth = rng.randint(0, 4)
    t = rng.randint(1, 3)
    size = rng.randint(1, 30)
    tids = rng.sample(range(rng.choice((size, 600))), size)
    B = rng.randint(1, 5)
    weights = {v: rng.randint(0, B) for v in tids if rng.random() < 0.9}
    if rng.random() < 0.05:
        weights[rng.choice(tids)] = B + 1
    tree = WeightedTree(
        edges=frozenset(canon(tids[rng.randrange(i)], tids[i]) for i in range(1, size)),
        root=rng.choice(tids), weights=weights, bound=B)
    pad = rng.choice((None, rng.randint(0, 8)))
    cfg = SimConfig(strict=rng.random() < 0.5)
    if rng.random() < 0.4:
        cfg.max_rounds = rng.randint(0, 6)
    return g, centers, cands, depth, t, tree, pad, cfg


def _at_floor(cfg, g, pad):
    """cfg with the budget ``pad`` bits above g's floor (None: default)."""
    return cfg if pad is None else replace(cfg, msg_bit_budget=width(g.id_bits, 1) + pad)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_primitives_match_reference_programs(seed):
    """Cluster growth, the power-graph ruling set and the tree partition
    return the same results (key order included), the same ledger with its
    violation records, and the same exception type and text as the vertex
    programs they replace."""
    g, centers, cands, depth, t, tree, pad, cfg = random_primitive_inputs(
        random.Random(seed))
    gcfg = _at_floor(cfg, g, pad)
    assert _outcome(_fresh(lambda led: grow_bfs_clusters(
        g, gcfg, led, "grow-clusters", centers, depth))) \
        == _outcome(lambda: ref_grow_bfs_clusters(g, centers, depth, gcfg))
    assert _outcome(lambda: ruling_set_power(g, cands, t, gcfg)) \
        == _outcome(lambda: ref_ruling_set_power(g, cands, t, gcfg))
    tcfg = _at_floor(cfg, Graph(tree.vertices(), tree.edges), pad)
    assert _outcome(_fresh(lambda led: partition_tree(tree, tcfg, led))) \
        == _outcome(lambda: ref_partition_tree(tree, tcfg))


PATH5 = generate("path", {"n": 5})
FLOOR5 = 8 + PATH5.id_bits  # the budget floor, below every flood message on PATH5
FLOOD_CFGS = {
    # the last message of a run arrives in the receive-only round 3 (round
    # 4 for "quiet-tail"), so a cap one lower stops exactly there
    "cap-at-receive": SimConfig(max_rounds=2),
    "cap-admits": SimConfig(max_rounds=3),
    "audit-over-budget": SimConfig(msg_bit_budget=FLOOR5, strict=False),
    "strict-over-budget": SimConfig(msg_bit_budget=FLOOR5),
}


def _pinned(outcome):
    """An outcome as (exception type, text) or (rounds, messages, the
    violations' rounds and edges)."""
    if isinstance(outcome[0], type):
        return outcome
    ledger = outcome[1]
    return ledger["rounds"], ledger["messages"], [
        (rec["round"], rec["edge"]) for rec in ledger["violations"]]


BITS5 = "{'kind': 'bits', 'round': 1, 'edge': [0, 1], 'bits': 13, 'budget': 11, "


@pytest.mark.parametrize("case, want", [
    ("cap-at-receive",
     (SimTimeout, "program 'grow-clusters' exceeded max_rounds=2")),
    ("cap-admits", (2, 4, [])),
    ("audit-over-budget", (2, 4, [(1, [0, 1]), (1, [4, 3]), (2, [1, 2]), (2, [3, 2])])),
    ("strict-over-budget", (sim.BudgetError, BITS5 + "'program': 'grow-clusters'}")),
])
def test_grow_clusters_layers_at_the_edges(case, want):
    """Centers 0 and 4 of the 5-path, depth 2: rounds 1 and 2 send, and
    vertex 2 joins center 4 (via 3) in the receive-only round 3.  The
    layered flood matches the vertex program on result, ledger with its
    violation records, and exception type and text."""
    cfg = FLOOD_CFGS[case]
    got = _outcome(_fresh(lambda led: grow_bfs_clusters(
        PATH5, cfg, led, "grow-clusters", {0, 4}, 2)))
    assert got == _outcome(lambda: ref_grow_bfs_clusters(PATH5, {0, 4}, 2, cfg))
    assert _pinned(got) == want
    if not isinstance(want[0], type):
        assert "parents={0: None, 1: 0, 2: 3, 3: 4, 4: None}" in got[0]


@pytest.mark.parametrize("case, want", [
    ("cap-at-receive", (SimTimeout, "program 'min-flood' exceeded max_rounds=2")),
    ("cap-admits", (4, 10, [])),
    ("audit-over-budget",
     (4, 10, [(1, [0, 1]), (1, [4, 3]), (2, [1, 2]), (2, [3, 2])])),
    ("strict-over-budget", (sim.BudgetError, BITS5 + "'program': 'min-flood'}")),
    ("quiet-tail", (SimTimeout, "program 'min-flood' exceeded max_rounds=3")),
])
def test_min_flood_layers_at_the_edges(case, want):
    """Candidates 0 and 4 of the 5-path, t=1 (radius 2): the min-flood
    sends in rounds 1 and 2 and vertex 2 takes 0 (from 1) in the
    receive-only round 3; both candidates join, and the hop-flood sends in
    rounds 1 and 2.  In "quiet-tail" (candidate 0 of the 4-path, t=2)
    round 3's sender 2 reaches the end of the path, whose improvement in
    round 4 has no neighbour left to tell.  The layered flood matches the
    vertex program as in the test above."""
    g, cands, t = PATH5, {0, 4}, 1
    cfg = FLOOD_CFGS.get(case)
    if case == "quiet-tail":
        g, cands, t, cfg = generate("path", {"n": 4}), {0}, 2, SimConfig(max_rounds=3)
    got = _outcome(lambda: ruling_set_power(g, cands, t, cfg))
    assert got == _outcome(lambda: ref_ruling_set_power(g, cands, t, cfg))
    assert _pinned(got) == want
    if not isinstance(want[0], type):
        assert got[0] == "{0, 4}"


# -- the log-round ruling set against the vertex program it replaces ---------


class RefRulingSetLog(NodeProgram):
    """Reference for ``ruling_set_log``: ID-bit descent as a vertex program
    on a phase clock, four rounds per ID bit.  Candidates stay awake for
    the whole schedule; every other vertex sleeps until mail arrives."""

    name = "ruling-set-log"

    def __init__(self, id_bits):
        self.bits_total = id_bits

    def init(self, view):
        return {
            "active": bool(view.private and view.private.get("candidate")),
            "forwarded_level": -1,
        }

    def on_round(self, state, view, rnd, inbox):
        out = {}
        level = (rnd - 1) // 4
        if level >= self.bits_total:
            return {}, True
        bit = self.bits_total - 1 - level
        for _sender, hop in inbox:
            if state["active"] and (view.vid >> bit) & 1 == 1:
                state["active"] = False
            if hop < 3 and state["forwarded_level"] < level:
                state["forwarded_level"] = level
                m = Msg(width(view.id_bits, 0, 3), hop + 1)
                for u in view.neighbors:
                    out[u] = m
        if rnd == 4 * level + 1:
            if state["active"] and (view.vid >> bit) & 1 == 0:
                state["forwarded_level"] = level
                m = Msg(width(view.id_bits, 0, 3), 1)
                for u in view.neighbors:
                    out[u] = m
        halt = not state["active"] or (
            level >= self.bits_total - 1 and rnd >= 4 * self.bits_total)
        return out, halt

    def on_finish(self, state, view):
        return state["active"]


def ref_ruling_set_log(g, candidates, cfg):
    cand = set(candidates)
    if not cand:
        raise ValueError("candidate set must be nonempty")
    strays = sorted(cand.difference(g.adj))
    if strays:
        raise SimError(f"ruling-set-log: active non-vertices {strays[:5]}")
    private = {v: {"candidate": True} for v in cand}
    outputs, ledger = run(g, RefRulingSetLog(g.id_bits), cfg, private=private)
    return {v for v, kept in outputs.items() if kept}, ledger


def random_ruling_inputs(rng):
    """An ER, path, cycle, grid or bounded-ID graph with n <= 40, or a
    graph on IDs {0, 1} (with or without its edge), where the 10-bit hop
    message exceeds the 9-bit floor budget; candidates (rarely none); and
    a strict or audit config at the floor budget 8 + id_bits."""
    kind = rng.choice(("er", "path", "cycle", "grid", "bounded-id", "pair"))
    n = rng.randint(3, 40)
    if kind == "er":
        g = generate("erdos-renyi", {"n": n, "p": rng.choice((0.05, 0.1, 0.3))},
                     seed=rng.randrange(10**6))
    elif kind == "grid":
        g = generate("grid", {"rows": rng.randint(1, 6), "cols": rng.randint(1, 6)})
    elif kind == "bounded-id":
        g = generate("bounded-id", {"n": n, "p": rng.choice((0.05, 0.2))},
                     seed=rng.randrange(10**6))
    elif kind == "pair":
        g = Graph([0, 1], [(0, 1)] if rng.random() < 0.8 else [])
    else:
        g = generate(kind, {"n": n})
    cands = set(rng.sample(g.vertices, rng.randint(0 if rng.random() < 0.05 else 1, g.n)))
    cfg = SimConfig(msg_bit_budget=8 + g.id_bits, strict=rng.random() < 0.5)
    return g, cands, cfg


def _ruling_outcome(call):
    try:
        out, ledger = call()
    except (SimError, ValueError) as exc:
        return type(exc), str(exc)
    return sorted(out), ledger.to_json()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_ruling_log_matches_reference_program(seed):
    """The layer-by-layer ruling set returns the same set, the same ledger
    with its violation records, and the same exception type and text as
    the vertex program it replaces, at the default round cap: the program
    keeps its phase clock to round 4 * id_bits, while the floods are
    capped at their last sending round (see ``tests/test_round_cap.py``)."""
    g, cands, cfg = random_ruling_inputs(random.Random(seed))
    assert _ruling_outcome(_fresh(lambda led: ruling_set_log(
        g, cfg, led, "ruling-set-log", cands))) \
        == _ruling_outcome(lambda: ref_ruling_set_log(g, cands, cfg))

