import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanner import (
    Graph,
    SimConfig,
    WeightedTree,
    bfs_dist,
    clustering_roles,
    forest_aggregate,
    forest_broadcast,
    generate,
    grow_bfs_clusters,
    partition_tree,
    ruling_set_log,
    ruling_set_power,
)
from spanner.clustering import Clustering, TreePart, TreePartition, orient_tree
from spanner.graph import canon
from spanner.kspanner.common import (
    TAG_END,
    TAG_IDS,
    chunked_gather,
    chunked_scatter,
    id_chunks,
)
from spanner.sim import BitCost, NodeProgram, RoundLedger, SimError, SimTimeout, run
from spanner.verify import audit_ruling_set

CFG = SimConfig(msg_bit_budget=64)


# -- cluster growth ----------------------------------------------------------


def test_grow_path5_tie_goes_to_larger_center():
    g = generate("path", {"n": 5})
    cl, ledger = grow_bfs_clusters(g, {0, 4}, 2)
    assert cl.membership == {0: 0, 1: 0, 2: 4, 3: 4, 4: 4}
    assert ledger.rounds_used <= 2
    cl.validate(g)


def test_grow_all_centers_depth0_singletons():
    g = generate("cycle", {"n": 6})
    cl, ledger = grow_bfs_clusters(g, set(range(6)), 0)
    assert cl.membership == {v: v for v in range(6)}
    assert ledger.rounds_used == 0


def test_grow_k4_single_center():
    g = generate("complete", {"n": 4})
    cl, _ = grow_bfs_clusters(g, {0}, 1)
    assert set(cl.membership) == {0, 1, 2, 3}
    assert set(cl.membership.values()) == {0}


def _centralized_assignment(g, centers, depth):
    dists = {c: bfs_dist(g, c, hop_cap=depth) for c in centers}
    out = {}
    for v in g.vertices:
        best = None
        for c in centers:
            d = dists[c].get(v)
            if d is not None:
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
    cl, _ = grow_bfs_clusters(g, centers, depth, CFG)
    assert cl.membership == _centralized_assignment(g, centers, depth)
    cl.validate(g)


# -- forest convergecast / broadcast ----------------------------------------


def cluster_aggregate(g, cl, values, combine):
    per_tree = {v: {cl.membership[v]: x} for v, x in values.items()}
    return forest_aggregate(g, clustering_roles(cl), per_tree, combine)


def test_aggregate_cluster_sizes():
    g = generate("path", {"n": 5})
    cl, _ = grow_bfs_clusters(g, {0, 4}, 2)
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


def test_aggregate_max():
    g = generate("complete", {"n": 6})
    cl, _ = grow_bfs_clusters(g, {5}, 1)
    agg, _ = cluster_aggregate(g, cl, {v: v for v in g.vertices}, "max")
    assert agg == {5: 5}


def test_forest_vertex_in_two_edge_disjoint_trees():
    # 3x3 grid; vertices 0 and 4 each sit in both trees "a" and "b", which
    # share no edge; "c" is a lone root
    g = generate("grid", {"rows": 3, "cols": 3})
    trees = {
        "a": (4, [(3, 4), (4, 5), (0, 3), (5, 8)]),
        "b": (1, [(1, 4), (4, 7), (0, 1), (1, 2)]),
        "c": (6, []),
    }
    roles = {}
    for key, (root, edges) in trees.items():
        for v, (p, ch) in orient_tree(root, edges).items():
            roles.setdefault(v, []).append((key, p, ch))
    assert len(roles[0]) == len(roles[4]) == 2
    rng = random.Random(3)
    values = {v: {key: rng.randint(0, 9) for key, _p, _ch in rs} for v, rs in roles.items()}
    members = {key: [v for v, rs in roles.items() if key in {r[0] for r in rs}]
               for key in trees}
    for combine, fn in (("sum", sum), ("max", max), ("min", min)):
        agg, ledger = forest_aggregate(g, roles, values, combine, bound=100)
        assert agg == {key: fn(values[v][key] for v in vs) for key, vs in members.items()}
        assert ledger.rounds_used <= 2
    sums, _ = forest_aggregate(g, roles, values, bound=100)
    got, ledger = forest_broadcast(g, roles, sums, bound=100)
    assert got == {v: {r[0]: sums[r[0]] for r in roles.get(v, ())} for v in g.vertices}
    assert ledger.rounds_used <= 2


class RefAggregate(NodeProgram):
    """Reference for ``forest_aggregate``: the convergecast as a vertex
    program, one role per tree the vertex sits in."""

    name = "forest-aggregate"

    def __init__(self, combine, bound):
        self.fn = {"sum": lambda a, b: a + b, "max": max, "min": min}[combine]
        self.bound = bound

    def init(self, view):
        p = view.private or {}
        rows = [{"key": key, "parent": parent, "waiting": set(children),
                "acc": p.get("values", {}).get(key, 0), "sent": False}
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
                out[role["parent"]] = view.bits.msg(role["acc"], counters=(self.bound,))
                role["sent"] = True
        return out, done

    def on_finish(self, state, view):
        return {r["key"]: r["acc"] for r in state["roles"] if r["parent"] is None}


class RefBroadcast(NodeProgram):
    """Reference for ``forest_broadcast``: each root pushes its value down
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
                m = view.bits.msg(role["value"], counters=(self.bound,))
                for c in role["children"]:
                    out[c] = m
        return out, done

    def on_finish(self, state, view):
        return {r["key"]: r["value"] for r in state["roles"]}


def _ref_edge_roles(roles):
    by_edge = {}
    for i, (_key, parent, children) in enumerate(roles):
        if parent is not None:
            by_edge[parent] = i
        for c in children:
            by_edge[c] = i
    return by_edge


def ref_forest_aggregate(g, roles, values, combine, bound, cfg):
    bound = bound if bound is not None else max(2 * g.n + 1, 2)
    private = {v: {"roles": rs, "values": values.get(v, {})} for v, rs in roles.items()}
    outputs, ledger = run(g, RefAggregate(combine, bound), cfg, private=private)
    result = {}
    for v in roles:
        result.update(outputs[v])
    return result, ledger


def ref_forest_broadcast(g, roles, root_values, bound, cfg):
    bound = bound if bound is not None else max(2 * g.n + 1, 2)
    private = {v: {"roles": rs, "values": {key: root_values.get(key, 0)
                                           for key, p, _ch in rs if p is None}}
               for v, rs in roles.items()}
    outputs, ledger = run(g, RefBroadcast(bound), cfg, private=private)
    result = {v: {} for v in g.vertices}
    result.update(outputs)
    return result, ledger


def random_forest(rng):
    """Up to four edge-disjoint trees on sparse IDs (n <= 14, IDs up to
    600) that may share vertices, plus extra graph edges, random
    contributions, a value bound that may overrun the budget, and a config
    that is strict or audit, with a tight or default budget and a small or
    default round cap."""
    ids = sorted(rng.sample(range(601), rng.randint(1, 14)))
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
        for v, (p, ch) in orient_tree(members[0], edges).items():
            roles.setdefault(v, []).append((key, p, ch))
    extra = [(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 10))]
    g = Graph(ids, used | {canon(u, v) for u, v in extra if u != v})
    values = {v: {key: rng.randint(0, 40) for key, _p, _ch in rs if rng.random() < 0.8}
              for v, rs in roles.items() if rng.random() < 0.8}
    root_values = {key: rng.randint(0, 40) for rs in roles.values()
                   for key, p, _ch in rs if p is None and rng.random() < 0.8}
    bound = rng.choice((None, 1, 2**8, 2**20, 2**20))
    budget = rng.choice((None, 8 + g.id_bits + rng.randint(0, 12)))
    cfg = SimConfig(msg_bit_budget=budget, strict=rng.random() < 0.5)
    if rng.random() < 0.25:
        cfg.max_rounds = rng.randint(0, 4)
    return g, roles, values, root_values, bound, cfg


def _outcome(call):
    try:
        out, ledger = call()
    except (SimError, ValueError) as exc:
        return type(exc), str(exc)
    return repr(out), ledger.to_json()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(("sum", "max", "min")))
def test_forest_helpers_match_reference_programs(seed, combine):
    """The host-scheduled convergecast and broadcast return the same
    outputs (key order included), the same ledger with its violation
    records, and the same exception type and text as the vertex programs
    they replace."""
    g, roles, values, root_values, bound, cfg = random_forest(random.Random(seed))
    assert _outcome(lambda: forest_aggregate(g, roles, values, combine, bound, cfg)) \
        == _outcome(lambda: ref_forest_aggregate(g, roles, values, combine, bound, cfg))
    assert _outcome(lambda: forest_broadcast(g, roles, root_values, bound, cfg)) \
        == _outcome(lambda: ref_forest_broadcast(g, roles, root_values, bound, cfg))


BROKEN_TABLES = {
    # edge (0, 1) lies in tree "a" and in tree "b"
    "two roles": {0: [("a", None, (1,)), ("b", 1, ())], 1: [("a", 0, ()), ("b", None, (0,))]},
    # 1 names parent 0, which does not list it
    "does not list child": {0: [("a", None, ())], 1: [("a", 0, ())]},
    # 0 lists child 1, which roots its own tree
    "does not name parent": {0: [("a", None, (1,))], 1: [("a", None, ())]},
    # 1 names parent 0, which lists it under another tree
    "does not list child 1 under tree 'b'": {1: [("b", 0, ())], 0: [("a", None, (1,))]},
    "lists the same child twice": {0: [("a", None, (1, 1))], 1: [("a", 0, ())]},
}


@pytest.mark.parametrize("text", sorted(BROKEN_TABLES))
@pytest.mark.parametrize("helper", ["aggregate", "broadcast"])
def test_forest_role_table_checked(helper, text):
    g = generate("path", {"n": 3})
    roles = BROKEN_TABLES[text]
    with pytest.raises(SimError, match=text):
        if helper == "aggregate":
            forest_aggregate(g, roles, {})
        else:
            forest_broadcast(g, roles, {})


def test_forest_stalls_once_mail_runs_out():
    # a consistent table whose tree is a cycle: no role is a leaf or a root,
    # so nothing is ever sent; the stall is reported before a round cap of 2
    g = generate("cycle", {"n": 3})
    roles = {0: [("a", 2, (1,))], 1: [("a", 0, (2,))], 2: [("a", 1, (0,))]}
    cfg = SimConfig(max_rounds=2)
    with pytest.raises(SimTimeout, match="'forest-aggregate' stalled"):
        forest_aggregate(g, roles, {}, cfg=cfg)
    with pytest.raises(SimTimeout, match="'forest-broadcast' stalled"):
        forest_broadcast(g, roles, {}, cfg=cfg)


@pytest.mark.parametrize("extra", [None, 0, 1])
def test_id_chunks_boundaries(extra):
    g = Graph(range(40), [(0, v) for v in range(1, 40)])
    budget = SimConfig().budget_for(g)
    per_msg = (budget - 8) // g.id_bits
    ids = list(range(0 if extra is None else per_msg + extra))
    msgs = id_chunks(BitCost(g), budget, ids)
    assert len(msgs) == math.ceil(len(ids) / per_msg) + 1
    assert all(m.bits <= budget for m in msgs)
    assert msgs[-1].body == (TAG_END,)
    assert [i for m in msgs[:-1] if m.body[0] == TAG_IDS for i in m.body[1]] == ids
    # the same stream end to end: leaf 1 gathers its list at the center
    ledger = RoundLedger()
    out = chunked_gather(g, SimConfig(), ledger, "gather", {1: 0}, {1: ids})
    assert out[0] == {1: tuple(ids)}
    assert ledger.messages_total == len(msgs)
    assert ledger.max_bits_seen <= budget


class RefGather(NodeProgram):
    """Reference for ``chunked_gather``: members stream their lists to the
    hub as a vertex program; hubs halt once every expected member ended."""

    name = "chunked-gather"

    def init(self, view):
        p = view.private or {}
        hub = p.get("hub")
        items = list(p.get("items", ()))
        sends = hub is not None and hub != view.vid
        return {
            "hub": hub,
            "self_items": items if hub == view.vid else [],
            "chunks": id_chunks(view.bits, view.budget, items) if sends else [],
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
    """Reference for ``chunked_scatter``: hubs stream per-member lists as a
    vertex program; members halt once their hub's stream ended."""

    name = "chunked-scatter"

    def init(self, view):
        p = view.private or {}
        hub = p.get("hub")
        return {
            "queues": {u: id_chunks(view.bits, view.budget, ids)
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
        return out

    def ref_scatter(ledger):
        private = {v: {"plan": plans.get(v, {}), "hub": hub_of.get(v)}
                   for v in g.vertices}
        out, led = run(g, RefScatter(), cfg, private=private)
        ledger.extend_sequential(led, name="down")
        return out

    assert _result(
        lambda led: chunked_gather(g, cfg, led, "up", hub_of, items)
    ) == _result(ref_gather)
    assert _result(
        lambda led: chunked_scatter(g, cfg, led, "down", plans)
    ) == _result(ref_scatter)


# -- ruling sets -------------------------------------------------------------


def test_ruling_log_single_candidate():
    g = generate("cycle", {"n": 10})
    U, _ = ruling_set_log(g, {3})
    assert U == {3}


def test_ruling_log_far_candidates_survive():
    g = generate("path", {"n": 11})
    U, _ = ruling_set_log(g, {0, 10})
    assert U == {0, 10}


def test_ruling_log_path16_exhaustive():
    g = generate("path", {"n": 16})
    U, ledger = ruling_set_log(g, set(range(16)))
    rep = audit_ruling_set(g, set(range(16)), U, alpha=4,
                           beta=3 * math.ceil(math.log2(16)))
    assert rep.passed, rep.findings
    assert ledger.rounds_used <= 4 * g.id_bits


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_ruling_log_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 80)
    g = generate("erdos-renyi", {"n": n, "p": 3.0 / n}, seed=seed)
    cands = set(rng.sample(range(n), rng.randint(1, n)))
    U, ledger = ruling_set_log(g, cands, CFG)
    beta = 3 * g.id_bits
    rep = audit_ruling_set(g, cands, U, alpha=4, beta=beta)
    assert rep.passed, rep.findings
    assert ledger.rounds_used <= 4 * g.id_bits + 1


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
    U, ledger = ruling_set_power(g, set(range(200)), 1, CFG)
    cap = 8 * 1 * 2 ** (2 * math.ceil(math.sqrt(math.log2(200))))
    assert ledger.rounds_used <= cap


# -- balanced tree partitioning ----------------------------------------------


def _check_partition(tp, weights, B, n):
    owned_all = set()
    for p in tp.parts:
        assert not (owned_all & set(p.owned)), "D1: overlap"
        owned_all |= set(p.owned)
    assert owned_all == set(range(n)), "D1: cover"
    for idx, p in enumerate(tp.parts):
        w = sum(weights.get(v, 0) for v in p.owned)
        if idx == tp.leftover_index:
            assert w <= 2 * B, "D5/D2 leftover"
        else:
            assert B <= w <= 2 * B, "D2"
        assert p.tree_vertices <= set(p.owned) | {p.root}, "D3"
    seen = set()
    for p in tp.parts:
        assert not (p.edges & seen), "D4: edge overlap"
        seen |= p.edges


def test_partition_7path_unit_weights():
    edges = frozenset((i, i + 1) for i in range(6))
    wt = WeightedTree(edges=edges, root=0, weights={i: 1 for i in range(7)}, bound=2)
    tp, ledger = partition_tree(wt, CFG)
    _check_partition(tp, wt.weights, 2, 7)
    assert ledger.rounds_used <= 2 * 7


def test_partition_single_vertex():
    wt = WeightedTree(edges=frozenset(), root=0, weights={0: 0}, bound=3)
    tp, ledger = partition_tree(wt, CFG)
    assert len(tp.parts) == 1
    assert tp.parts[0].owned == frozenset({0})
    assert ledger.rounds_used == 0


def test_partition_star_root_owned_once():
    edges = frozenset((0, i) for i in range(1, 6))
    weights = {0: 0, **{i: 1 for i in range(1, 6)}}
    wt = WeightedTree(edges=edges, root=0, weights=weights, bound=2)
    tp, _ = partition_tree(wt, CFG)
    _check_partition(tp, weights, 2, 6)
    owners = [p for p in tp.parts if 0 in p.owned]
    assert len(owners) == 1
    rooted_at_zero = [p for p in tp.parts if p.root == 0]
    assert len(rooted_at_zero) >= 2  # auxiliary root of several parts


def test_partition_rejects_overweight_vertex():
    wt = WeightedTree(
        edges=frozenset({(0, 1)}), root=0, weights={0: 5, 1: 1}, bound=2
    )
    with pytest.raises(ValueError):
        partition_tree(wt, CFG)


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
    tp, _ = partition_tree(wt, CFG)
    _check_partition(tp, weights, B, n)
    total = sum(weights.values())
    assert len(tp.parts) <= math.ceil(max(total, 1) / B) + 1


# -- the wrappers' edge cases --------------------------------------------------


def test_forest_broadcast_roleless_vertex_gets_empty_dict():
    g = generate("path", {"n": 6})
    cl, _ = grow_bfs_clusters(g, {1}, 1)  # clusters 0, 1, 2 only
    got, _ = forest_broadcast(g, clustering_roles(cl), {1: 5})
    assert list(got) == list(g.vertices)
    assert got == {0: {1: 5}, 1: {1: 5}, 2: {1: 5}, 3: {}, 4: {}, 5: {}}


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
    g = generate("erdos-renyi", {"n": n, "p": 3.0 / n}, seed=seed)
    picked = set(rng.sample(range(n), rng.randint(1, max(1, n // 3))))
    audit = CFG.with_(strict=False)

    def builds(cfg):
        cl, led1 = grow_bfs_clusters(g, picked, 2, cfg)
        roles = clustering_roles(cl)
        values = {v: {cl.membership[v]: 1} for v in cl.membership}
        sizes, led2 = forest_aggregate(g, roles, values, cfg=cfg)
        got, led3 = forest_broadcast(g, roles, sizes, cfg=cfg)
        ruled, led4 = ruling_set_log(g, picked, cfg)
        power, led5 = ruling_set_power(g, picked, 1, cfg)
        ledgers = [led.to_json() for led in (led1, led2, led3, led4, led5)]
        return cl.membership, cl.parents, sizes, got, ruled, power, ledgers

    assert builds(CFG) == builds(audit)


def test_wrappers_reject_non_vertices():
    g = generate("path", {"n": 4})
    with pytest.raises(SimError, match=r"^grow-clusters: active non-vertices \[99\]$"):
        grow_bfs_clusters(g, {99}, 2)
    with pytest.raises(SimError, match=r"^min-flood: active non-vertices \[99\]$"):
        ruling_set_power(g, {99}, 1)
    with pytest.raises(SimError, match=r"^ruling-set-log: active non-vertices \[99\]$"):
        ruling_set_log(g, {1, 99})


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
                m = view.bits.msg((best_center, dist + 1), ids=1, counters=(self.depth,))
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


class RefTreePartition(NodeProgram):
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
                out[state["parent"]] = view.bits.msg(report, counters=counters)
        while state["notify"]:
            child, (root, idx) = state["notify"].pop(0)
            out[child] = view.bits.msg((self.TAG_ASSIGN, root, idx), ids=1,
                                       counters=(self.total,))
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
                          RefTreePartition(t.bound, len(tree)), cfg, private=private)
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
    return TreePartition(parts=parts, leftover_index=0), ledger


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
    return cfg if pad is None else cfg.with_(msg_bit_budget=8 + g.id_bits + pad)


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
    got = _outcome(lambda: grow_bfs_clusters(g, centers, depth, gcfg))
    want = _outcome(lambda: ref_grow_bfs_clusters(g, centers, depth, gcfg))
    if not centers and gcfg.max_rounds == 0 and want[0] is SimTimeout:
        # with no centers nothing acts, so no round starts; a vertex
        # program is called in round 1 at every vertex and hits the cap
        assert want[1] == "program 'grow-clusters' exceeded max_rounds=0"
        empty = Clustering(level=depth, membership={}, parents={}, depth_bound=depth)
        assert got == (repr(empty), RoundLedger(per_phase=[("grow-clusters", 0)]).to_json())
    else:
        assert got == want
    assert _outcome(lambda: ruling_set_power(g, cands, t, gcfg)) \
        == _outcome(lambda: ref_ruling_set_power(g, cands, t, gcfg))
    tcfg = _at_floor(cfg, Graph(tree.vertices(), tree.edges), pad)
    assert _outcome(lambda: partition_tree(tree, tcfg)) \
        == _outcome(lambda: ref_partition_tree(tree, tcfg))
