import itertools
import math
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanner import sim
from spanner import (
    Bipartition,
    Graph,
    SimConfig,
    audit_superclustering,
    baswana_sen_baseline,
    cons_zero_superclustering,
    generate,
    improved_spanner,
    naive_spanner,
    sparser_bipartite_spanner,
    verify_stretch,
)
from spanner.cli import run_algorithm, stretch_bound
from spanner.graph import Spanner
from spanner.kspanner import starbip, zero
from spanner.graph import GraphError
from spanner.kspanner.common import (
    announce_join, cluster_steps, connect, contacts, elect, ipow_ceil, label_contacts,
    signal,
)
from spanner.primitives import grow_bfs_clusters
from spanner.sim import (
    BitCost, Msg, NodeProgram, NodeView, RoundLedger, SimError, SimTimeout,
    default_bit_budget,
)


def _crossing(g, a):
    return g.edge_subgraph(
        g.vertices, [e for e in g.edge_set if (e[0] in a) != (e[1] in a)]
    )


# -- NaiveSpanner -------------------------------------------------------------


def test_naive_k2_k33():
    g = generate("complete-bipartite", {"a": 3, "b": 3})
    res = naive_spanner(g, 2)
    assert verify_stretch(g, res.spanner, 3).passed


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize(
    "kind,params,seed",
    [
        ("erdos-renyi", {"n": 80, "p": 0.1}, 1),
        ("grid", {"rows": 7, "cols": 8}, 0),
        ("cycle", {"n": 41}, 0),
        ("erdos-renyi", {"n": 150, "p": 0.05}, 2),
    ],
)
def test_naive_stretch_oracle(k, kind, params, seed):
    g = generate(kind, params, seed=seed)
    res = naive_spanner(g, k)
    assert verify_stretch(g, res.spanner, 2 * k - 1).passed


def test_naive_disconnected_components():
    g1 = generate("cycle", {"n": 10})
    edges = list(g1.edge_set) + [(u + 20, v + 20) for u, v in g1.edge_set]
    g = Graph(list(range(10)) + list(range(20, 30)), edges)
    res = naive_spanner(g, 3)
    assert verify_stretch(g, res.spanner, 5).passed


def test_naive_center_counts_bounded():
    g = generate("erdos-renyi", {"n": 120, "p": 0.15}, seed=6)
    for k in (2, 3, 4):
        res = naive_spanner(g, k)
        for i, count in res.trace["levels"].items():
            assert count <= ipow_ceil(g.n, k - i, k), (k, i, count)


def test_naive_iteration_and_round_caps():
    g = generate("erdos-renyi", {"n": 100, "p": 0.1}, seed=8)
    for k in (2, 3):
        res = naive_spanner(g, k)
        for i, iters in res.trace["iterations"].items():
            assert iters <= 4 * ipow_ceil(g.n, k - i, k) + 2
        assert res.ledger.rounds_used <= 40 * k * g.n ** (1 - 1 / k)


def test_naive_iteration_cap_raises_sim_timeout(monkeypatch):
    from spanner.kspanner import naive

    monkeypatch.setattr(naive, "_iteration_cap", lambda n, k, i: 0)
    with pytest.raises(SimTimeout, match="iteration cap 0"):
        naive_spanner(generate("cycle", {"n": 6}), 3)


def test_naive_rejects_weighted_and_bad_k():
    from spanner import with_random_weights

    g = with_random_weights(generate("cycle", {"n": 6}), seed=0)
    with pytest.raises(ValueError):
        naive_spanner(g, 3)
    with pytest.raises(ValueError):
        naive_spanner(generate("cycle", {"n": 6}), 1)
    # the star-graph and zero-level constructions share the election and
    # its unweighted premise above k = 2
    bip = with_random_weights(
        generate("random-bipartite", {"a": 6, "b": 20, "p": 0.4}, seed=1), seed=0
    )
    part = Bipartition(range(6), range(6, 26))
    for k in (3, 4, 6):
        with pytest.raises(ValueError, match="weighted"):
            sparser_bipartite_spanner(bip, part, k)
        with pytest.raises(ValueError, match="weighted"):
            cons_zero_superclustering(bip, k)
    assert sparser_bipartite_spanner(bip, part, 2).ledger.rounds_used == 2


# -- SparserBipartiteSpanner --------------------------------------------------


def test_sparser_k4_oracle_and_size():
    g = generate("random-bipartite", {"a": 9, "b": 27, "p": 0.4}, seed=11)
    a = set(range(9))
    res = sparser_bipartite_spanner(g, Bipartition(a, set(range(9, 36))), 4)
    assert verify_stretch(_crossing(g, a), res.spanner, 7).passed
    assert res.spanner.size <= math.ceil(2 * (4 * 9**1.5 + 27))


def test_sparser_isolated_b_vertex():
    g = Graph(range(5), [(0, 2), (1, 2), (3, 4)])
    res = sparser_bipartite_spanner(g, Bipartition({0, 1}, {2, 4}), 4)
    assert verify_stretch(_crossing(g, {0, 1}), res.spanner, 7).passed


def test_sparser_odd_k5_oracle():
    g = generate("random-bipartite", {"a": 9, "b": 27, "p": 0.4}, seed=11)
    a = set(range(9))
    res = sparser_bipartite_spanner(g, Bipartition(a, set(range(9, 36))), 5)
    assert verify_stretch(_crossing(g, a), res.spanner, 9).passed


def test_sparser_k3_via_single_level():
    g = generate("random-bipartite", {"a": 12, "b": 50, "p": 0.3}, seed=2)
    a = set(range(12))
    res = sparser_bipartite_spanner(g, Bipartition(a, set(range(12, 62))), 3)
    assert verify_stretch(_crossing(g, a), res.spanner, 5).passed
    assert res.spanner.size <= 3 * 12**2 + 50


def test_sparser_k2_delegates_to_two_round_core():
    g = generate("random-bipartite", {"a": 6, "b": 20, "p": 0.4}, seed=3)
    a = set(range(6))
    res = sparser_bipartite_spanner(g, Bipartition(a, set(range(6, 26))), 2)
    assert res.ledger.rounds_used == 2
    assert verify_stretch(_crossing(g, a), res.spanner, 3).passed


def test_sparser_phase1_degree_is_2_approximation():
    g = generate("random-bipartite", {"a": 14, "b": 60, "p": 0.25}, seed=9)
    a = set(range(14))
    res = sparser_bipartite_spanner(g, Bipartition(a, set(range(14, 74))), 4)
    stars = res.trace["stars"]
    star_vertices = {s: {s, *ms} for s, ms in stars.items()}
    for rec in res.trace["approx"]:
        marked = rec["marked"]
        for s, dhat in rec["deg_hat"].items():
            true = _true_unmarked_star_degree(g, star_vertices, s, marked)
            assert true <= dhat <= 2 * true, (s, dhat, true)


def _true_unmarked_star_degree(g, star_vertices, s, marked):
    mine = star_vertices[s]
    count = 0
    for s2, vs in star_vertices.items():
        if s2 in marked:
            continue
        if s2 == s:
            count += 1
            continue
        if any(g.has_edge(x, y) for x in mine for y in vs):
            count += 1
    return count


def test_sparser_sqrt_instance_size_bound():
    # |A| ~ sqrt(n), |B| ~ n^(1/2 + 1/k): the bound collapses to O(B)
    n, k = 256, 4
    a = math.isqrt(n)
    b = math.ceil(n ** (0.5 + 1.0 / k))
    g = generate("random-bipartite", {"a": a, "b": b, "p": 0.2}, seed=4)
    res = sparser_bipartite_spanner(
        g, Bipartition(range(a), range(a, a + b)), k
    )
    bound = k * a ** (1 + 2.0 / k) + b
    assert res.spanner.size <= 2 * bound
    assert verify_stretch(_crossing(g, set(range(a))), res.spanner, 7).passed


def test_sparser_rejects_sides_outside_the_graph():
    g = generate("path", {"n": 6})
    with pytest.raises(ValueError, match="^bipartition side A names vertex 99, "):
        sparser_bipartite_spanner(g, Bipartition([0, 2, 4, 99], [1, 3, 5]), 4)
    with pytest.raises(ValueError, match="^bipartition side B names vertex 7, "):
        sparser_bipartite_spanner(g, Bipartition([0, 2, 4], [1, 3, 5, 8, 7]), 2)


@pytest.mark.parametrize("k", [3, 4, 6])
def test_sparser_one_vertex_a_side_ends_at_star_formation(k):
    # B = 1..7, of which 1..5 are next to the one A vertex; every B vertex
    # next to it sends its choice once, over its one edge
    g = Graph(range(9), [(0, b) for b in range(1, 6)] + [(6, 7)])
    res = sparser_bipartite_spanner(g, Bipartition({0}, range(1, 8)), k)
    assert res.ledger.rounds_used == 1
    assert res.ledger.per_phase == [("star-formation", 1)]
    assert res.ledger.messages_total == 5
    assert res.spanner.edges == {(0, b) for b in range(1, 6)}
    assert res.trace["size"] == 5
    # a zero-vertex A side sends nothing
    res = sparser_bipartite_spanner(g, Bipartition(set(), range(1, 8)), k)
    assert res.ledger.rounds_used == 0 and res.ledger.messages_total == 0
    assert res.spanner.size == res.trace["size"] == 0


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_sparser_at_most_one_a_vertex_keeps_exactly_the_cross_edges(data):
    """With |A| <= 1 the spanner is exactly the A-to-B edges, whatever the
    B side's own edges, at the budget floor in strict mode and in audit
    mode, with no violation recorded."""
    ids = data.draw(st.lists(st.integers(0, 300), min_size=1, max_size=14,
                             unique=True))
    a = set(ids[:data.draw(st.integers(0, 1))])
    b = [v for v in ids if v not in a]
    cross = [(u, v) for u in a for v in b if data.draw(st.booleans())]
    inner = [e for e in itertools.combinations(b, 2)
             if data.draw(st.integers(0, 3)) == 0]
    g = Graph(ids, cross + inner)
    k = data.draw(st.integers(3, 6))
    strict = data.draw(st.booleans())
    cfg = SimConfig(strict=strict, msg_bit_budget=8 + g.id_bits)
    res = sparser_bipartite_spanner(g, Bipartition(a, b), k, cfg)
    assert res.spanner.edges == {tuple(sorted(e)) for e in cross}
    assert res.ledger.rounds_used == (1 if cross else 0)
    assert not res.ledger.violations
    assert verify_stretch(_crossing(g, a), res.spanner, 2 * k - 1).passed


def test_improved_one_vertex_covers_end_at_star_formation(monkeypatch):
    # every one-vertex low-expansion cover of improved k=4 on a path and a
    # grid is billed one star-formation round, a message from each outside
    # vertex, without a sub-build; larger covers go on past star formation
    one, larger = [], []
    real_charge, real_sparser = zero._charge, zero.sparser_bipartite_spanner

    def charge(g, cfg, ledger, name, rounds, messages, *rest):
        real_charge(g, cfg, ledger, name, rounds, messages, *rest)
        one.append((ledger.to_json(), messages))

    def sparser(g, part, k, cfg=None):
        assert len(part.a) > 1
        res = real_sparser(g, part, k, cfg)
        larger.append([name for name, _r in res.ledger.per_phase])
        return res

    monkeypatch.setattr(zero, "_charge", charge)
    monkeypatch.setattr(zero, "sparser_bipartite_spanner", sparser)
    for kind, params in (("path", {"n": 100}), ("grid", {"rows": 10, "cols": 10})):
        g = generate(kind, params)
        assert verify_stretch(g, improved_spanner(g, 4).spanner, 7).passed
    assert one and larger
    for ledger, messages in one:
        assert ledger["per_phase"] == [{"name": "star-formation", "rounds": 1}]
        assert ledger["rounds"] == 1 and ledger["messages"] == messages >= 1
    for names in larger:
        assert names[0] == "star-formation" and len(names) > 1, names


# -- the star-graph BFS against the vertex program it replaces ---------------


class RefStarBFS(NodeProgram):
    """Reference for ``starbip._grow_star_clusters``: star-graph BFS from
    the new centers as a vertex program, three rounds per star hop
    (cluster vertices announce, star members relay the best offer to their
    leader, the leader adopts and broadcasts).  Ties prefer the larger
    cluster ID, then the smallest relay edge."""

    name = "star-bfs"

    TAG_OFFER, TAG_RELAY, TAG_ADOPT = 0, 1, 2

    def __init__(self, depth):
        self.depth = depth

    def init(self, view):
        p = view.private or {}
        return {
            "leader": p.get("leader"),      # None for non-star vertices
            "is_center": bool(p.get("center")),
            "cid": None,
            "hop": None,
            "uplink": None,
            "announced": False,
            "buffer": [],                   # buffered offers/relays
        }

    def on_round(self, state, view, rnd, inbox):
        out = {}
        phase = rnd % 3  # 1: adopt/broadcast, 2: announce, 0: relay
        for sender, body in inbox:
            tag = body[0]
            if tag == self.TAG_ADOPT and sender == state["leader"]:
                state["cid"] = body[1]
                state["hop"] = body[2]
            elif tag in (self.TAG_OFFER, self.TAG_RELAY):
                state["buffer"].append((sender, body))
        if rnd == 1 and state["is_center"]:
            state["cid"] = view.vid
            state["hop"] = 0
            m = Msg(8 + view.bits.id_bits + view.bits.counter(self.depth),
                    (self.TAG_ADOPT, view.vid, 0))
            for u in view.private.get("members", ()):
                out[u] = m
        if phase == 2 and state["cid"] is not None and not state["announced"]:
            state["announced"] = True
            m = Msg(8 + view.bits.id_bits, (self.TAG_OFFER, state["cid"]))
            for u in view.neighbors:
                out.setdefault(u, m)
        if phase == 0 and state["cid"] is None and state["buffer"]:
            if state["leader"] is not None and state["leader"] != view.vid:
                # member: relay the best offer heard to the leader
                best = None
                for sender, body in state["buffer"]:
                    if body[0] != self.TAG_OFFER:
                        continue
                    key = (body[1], -sender)
                    if best is None or key > best:
                        best = key
                if best is not None:
                    m = Msg(8 + 2 * view.bits.id_bits,
                            (self.TAG_RELAY, best[0], -best[1]))
                    out[state["leader"]] = m
                state["buffer"] = []
        if phase == 1 and rnd > 1 and state["cid"] is None \
                and state["leader"] == view.vid:
            hop = (rnd - 1) // 3
            if hop <= self.depth and state["buffer"]:
                best = None
                for sender, body in state["buffer"]:
                    if body[0] == self.TAG_RELAY:
                        key = (body[1], -sender, -body[2])
                    else:  # direct offer to the leader
                        key = (body[1], -view.vid, -sender)
                    if best is None or key > best:
                        best = key
                state["buffer"] = []
                if best is not None:
                    cid, rel, off = best[0], -best[1], -best[2]
                    state["cid"] = cid
                    state["hop"] = hop
                    state["uplink"] = (rel, off)
                    m = Msg(8 + view.bits.id_bits + view.bits.counter(self.depth),
                            (self.TAG_ADOPT, cid, hop))
                    for u in view.private.get("members", ()):
                        out[u] = m
        # stay awake only for what the next round brings without mail: the
        # announcement after an adoption, the adoption of buffered offers
        adopted = phase == 1 and state["cid"] is not None and not state["announced"]
        waiting = (phase == 0 and state["cid"] is None and bool(state["buffer"])
                   and state["leader"] == view.vid)
        return out, not (adopted or waiting)

    def on_finish(self, state, view):
        return {
            "cid": state["cid"],
            "hop": state["hop"],
            "uplink": state["uplink"],
        }


def ref_grow_star_clusters(g, cfg, ledger, st, centers, depth):
    """Runs ``RefStarBFS`` through the round loop on the schedule's clock:
    the centres in round 1, then the vertices with mail and those that did
    not vote halt, through round 3(depth+1).  A vertex stays awake only
    for work that comes without mail, so the loop calls the vertices that
    act.  The clock keeps every round of the schedule, so the loop applies
    the round cap through round 3·depth+2 even where nothing is sent."""
    private = {}
    for v in g.vertices:
        s = st.star_of.get(v)
        private[v] = {
            "leader": s,
            "center": v in centers,
            "members": tuple(st.members.get(v, ())) if v == s else (),
        }
    program, bits, budget = RefStarBFS(depth), BitCost(g), cfg.budget_for(g)
    views = {v: NodeView(v, g.adj[v], private[v], bits, budget) for v in g.vertices}
    states = {v: program.init(view) for v, view in views.items()}
    awake = set()
    last = 3 * (depth + 1)

    def step(v, rnd, inbox):
        outbox, halt = program.on_round(states[v], views[v], rnd, inbox)
        (awake.discard if halt else awake.add)(v)
        return outbox

    led = sim._cascade(g, cfg, program.name, centers, step,
                       lambda rnd: set(awake) if rnd <= last else None)
    outputs = {v: program.on_finish(states[v], views[v]) for v in g.vertices}
    ledger.extend_sequential(led, name=f"star-bfs:d{depth}")
    cluster_of = {}
    uplinks = {}
    for s in st.stars():
        res = outputs[s]
        cluster_of[s] = res["cid"]
        if res["uplink"] is not None:
            uplinks[s] = res["uplink"]
    return cluster_of, uplinks


def _last_send(g, cfg, st, centers, depth):
    """The reference's last sending round R, from an uncapped audit run."""
    probe = RoundLedger()
    ref_grow_star_clusters(g, cfg.with_(max_rounds=SimConfig.max_rounds, strict=False),
                           probe, st, centers, depth)
    return probe.rounds_used


def ref_capped_at_last_send(g, cfg, ledger, st, centers, depth):
    """``ref_grow_star_clusters`` under the library's round-cap rule, which
    applies the cap to R alone: uncapped when R lies below the cap."""
    if _last_send(g, cfg, st, centers, depth) < cfg.max_rounds:
        cfg = cfg.with_(max_rounds=SimConfig.max_rounds)
    return ref_grow_star_clusters(g, cfg, ledger, st, centers, depth)


def random_star_bfs_inputs(rng):
    """A graph on up to 40 sparse IDs with an A side, a larger B side and
    vertices on neither side, A-B edges at one of four densities plus a
    few within-side and outside edges; k = 3..8; a strict or audit config
    at a roomy budget or at the floor 8 + id_bits, where RELAY's
    8 + 2 * id_bits bits (and, in whole builds, the election's tuples)
    overrun it; and max_rounds 0..3(depth+1)+1 or uncapped for the deepest
    star BFS of a build with this k (at least depth 1).  Its last draws,
    which nothing reads, keep every seed's later draws as they were when
    they chose a stall limit."""
    ids = rng.sample(range(1, 400), rng.randint(2, 40))
    na = rng.randint(1, max(1, len(ids) // 3))
    a, rest = ids[:na], ids[na:]
    b = rest[:len(rest) - rng.randint(0, min(3, len(rest)))]
    p = rng.choice((0.1, 0.25, 0.5, 0.9))
    edges = {(u, v) for u in a for v in b if rng.random() < p}
    for _ in range(rng.randint(0, 4)):
        u, v = rng.sample(ids, 2)
        edges.add((u, v))
    g = Graph(sorted(ids), sorted(edges))
    k = rng.randint(3, 8)
    depth = max(1, k // 2 - 1)
    floor = 8 + g.id_bits
    budget = rng.choice((None, floor))
    if budget is None and default_bit_budget(g.n) < floor:
        budget = 2 * floor  # the default cannot carry a sparse ID here
    cfg = SimConfig(msg_bit_budget=budget, strict=rng.random() < 0.5)
    if rng.random() < 0.6:
        cfg.max_rounds = rng.randint(0, 3 * (depth + 1) + 1)
    if rng.random() < 0.5:
        rng.randint(0, 5)
    return g, Bipartition(a, b), k, cfg


def _star_bfs_outcome(call):
    """What the call returned, or the exception's type and text."""
    try:
        return "returned", call()
    except SimError as exc:
        return "raised", type(exc), str(exc)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_star_bfs_matches_reference_program(seed):
    """The host-scheduled star BFS returns the same clusters, uplinks and
    ledger with its violation records, and raises the same errors, as the
    vertex program it replaces: once from random centers on the stars of
    ``_form_stars``, and once inside a whole build.  The library applies
    the round cap to its last sending round R, while the reference's
    clock keeps every round through 3(depth+1) under it.  So at a cap in
    (R, 3·depth+2] the reference raises and the library returns the
    reference's uncapped result; elsewhere the two agree as they are."""
    rng = random.Random(seed)
    g, part, k, cfg = random_star_bfs_inputs(rng)
    state = starbip.StarState(g, set(part.a), set(part.b))
    # star formation is set-up here, so it runs uncapped
    starbip._form_stars(g, cfg.resolved(g).with_(max_rounds=SimConfig.max_rounds),
                        RoundLedger(), state, Spanner(g))
    stars = state.stars()
    centers = set(rng.sample(stars, rng.randint(0, len(stars))))
    depth = rng.randint(1, max(1, k // 2 - 1))

    def grow(impl):
        ledger = RoundLedger()
        cluster_of, uplinks = impl(g, cfg, ledger, state, centers, depth)
        return cluster_of, uplinks, ledger.to_json()

    def build():
        res = sparser_bipartite_spanner(g, part, k, cfg)
        return (sorted(res.spanner.edges), list(res.spanner.provenance.items()),
                res.ledger.to_json())

    got = _star_bfs_outcome(lambda: grow(starbip._grow_star_clusters))
    assert got == _star_bfs_outcome(lambda: grow(ref_capped_at_last_send))
    reference = _star_bfs_outcome(lambda: grow(ref_grow_star_clusters))
    if _last_send(g, cfg, state, centers, depth) < cfg.max_rounds <= 3 * depth + 2:
        assert reference[0] == "raised"
    else:
        assert got == reference
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(starbip, "_grow_star_clusters", ref_capped_at_last_send)
        want = _star_bfs_outcome(build)
    assert _star_bfs_outcome(build) == want


def test_star_bfs_without_centres_passes_a_cap_of_one():
    # K_{3,6} with no centres sends nothing, R = 0, so the BFS needs no
    # round to deliver anything and returns every star unclustered
    g = Graph(range(9), [(a, b) for a in range(3) for b in range(3, 9)])
    state = starbip.StarState(g, {0, 1, 2}, set(range(3, 9)))
    starbip._form_stars(g, SimConfig(), RoundLedger(), state, Spanner(g))
    ledger = RoundLedger()
    got = starbip._grow_star_clusters(g, SimConfig(max_rounds=1), ledger, state, set(), 2)
    assert (got, ledger.to_json()) \
        == (({0: None, 1: None, 2: None}, {}), RoundLedger().to_json()
            | {"per_phase": [{"name": "star-bfs:d2", "rounds": 0}]})


# -- zero superclustering -----------------------------------------------------


def test_zero_dense_vs_simple_both_nice():
    g = generate("erdos-renyi", {"n": 80, "p": 0.4}, seed=1)
    z = cons_zero_superclustering(g, 4)
    assert audit_superclustering(g, z.clustering, z.superclustering).passed


def test_zero_path_coverage():
    g = generate("path", {"n": 100})
    z = cons_zero_superclustering(g, 4)
    covered = set(z.clustering.membership)
    rep = verify_stretch(
        g.edge_subgraph(
            g.vertices,
            [e for e in g.edge_set if e[0] not in covered or e[1] not in covered],
        ),
        z.spanner,
        7,
    )
    assert rep.passed


def test_zero_bounded_degree_empty_superclustering():
    g = generate("cycle", {"n": 96})
    z = cons_zero_superclustering(g, 4)
    assert len(z.superclustering.superclusters) == 0
    # H' alone must cover every edge
    assert verify_stretch(g, z.spanner, 7).passed


def test_zero_cluster_count_bound():
    g = generate("erdos-renyi", {"n": 200, "p": 0.2}, seed=7)
    z = cons_zero_superclustering(g, 4)
    for i, rec in z.trace["levels"].items():
        if "centers" in rec:
            assert rec["centers"] <= 2 * ipow_ceil(g.n, 4 - i, 4)
    assert len(z.superclustering.superclusters) <= z.superclustering.count_bound


# -- ImprovedSpanner ----------------------------------------------------------


def test_improved_k4_er200_oracle():
    g = generate("erdos-renyi", {"n": 200, "p": 0.05}, seed=3)
    res = improved_spanner(g, 4)
    assert verify_stretch(g, res.spanner, 7).passed


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_improved_stretch_oracle(k):
    g = generate("erdos-renyi", {"n": 120, "p": 0.1}, seed=k)
    res = improved_spanner(g, k)
    assert verify_stretch(g, res.spanner, 2 * k - 1).passed


def test_improved_base_case_equals_naive():
    g = generate("erdos-renyi", {"n": 40, "p": 0.3}, seed=5)
    a = improved_spanner(g, 4)
    b = naive_spanner(g, 4)
    assert a.trace.get("base_case")
    assert a.spanner.edges == b.spanner.edges


def test_improved_k2_delegates():
    g = generate("erdos-renyi", {"n": 90, "p": 0.1}, seed=2)
    res = improved_spanner(g, 2)
    assert verify_stretch(g, res.spanner, 3).passed


def test_improved_superclustering_audits():
    g = generate("erdos-renyi", {"n": 150, "p": 0.15}, seed=9)
    res = improved_spanner(g, 4)
    audited = 0
    for level, clustering, sc in res.trace["superclusterings"]:
        rep = audit_superclustering(g, clustering, sc)
        assert rep.passed, (level, rep.findings)
        audited += 1
    assert audited >= 2


def test_improved_successful_neighborhoods_disjoint():
    g = generate("erdos-renyi", {"n": 150, "p": 0.15}, seed=9)
    res = improved_spanner(g, 4)
    checked = 0
    for rec in res.trace["si_records"]:
        if rec.get("where") != "superclusters" or len(rec["joined"]) < 2:
            continue
        unmarked = set(g.vertices) - set(rec["marked_before"])
        hoods = []
        for scid in rec["joined"]:
            vs = rec["sc_members"][scid]
            hood = set()
            for v in vs:
                if v in unmarked:
                    hood.add(v)
                hood.update(u for u in g.adj[v] if u in unmarked)
            hoods.append(hood)
        for i in range(len(hoods)):
            for j in range(i + 1, len(hoods)):
                assert not (hoods[i] & hoods[j])
                checked += 1
    # disjointness is vacuous unless some iteration joined two superclusters


def test_improved_center_counts():
    g = generate("erdos-renyi", {"n": 200, "p": 0.1}, seed=4)
    k = 4
    res = improved_spanner(g, k)
    for i, z in res.trace.get("z_sizes", {}).items():
        assert z <= 4 * ipow_ceil(g.n, k - i, k), (i, z)


def test_improved_edge_in_at_most_two_instances():
    g = generate("erdos-renyi", {"n": 150, "p": 0.1}, seed=12)
    res = improved_spanner(g, 4)
    for _phase, instances in res.trace.get("bipartite_instances", {}).items():
        load = {}
        for aset, bset in instances:
            for u, v in g.edge_set:
                if (u in aset and v in bset) or (v in aset and u in bset):
                    load[(u, v)] = load.get((u, v), 0) + 1
        assert all(c <= 2 for c in load.values())


def test_improved_odd_k_runs_reduced_levels():
    g = generate("erdos-renyi", {"n": 100, "p": 0.12}, seed=3)
    res = improved_spanner(g, 5)
    assert res.trace["phases"] == 2  # (k-1)/2
    assert verify_stretch(g, res.spanner, 9).passed


# -- the step helpers ---------------------------------------------------------


def test_signal_bills_one_round_iff_a_pair_exists():
    g = generate("path", {"n": 3})
    ledger = RoundLedger()
    got = signal(g, SimConfig(), ledger, "quiet", [])
    assert got == {}
    assert ledger.to_json()["per_phase"] == [{"name": "quiet", "rounds": 0}]
    assert (ledger.rounds_used, ledger.messages_total) == (0, 0)
    signal(g, SimConfig(), ledger, "token", [(1, 2)])
    assert ledger.per_phase[-1] == ("token", 1)
    assert (ledger.rounds_used, ledger.messages_total) == (1, 1)
    assert ledger.max_bits_seen == 8


def test_signal_sends_one_token_per_pair_in_sender_order():
    g = Graph(range(4), [(0, 1), (0, 2), (0, 3)])  # a star around 0
    ledger = RoundLedger()
    got = signal(g, SimConfig(), ledger, "acks",
                 [(3, 0), (1, 0), (3, 0), (0, 2), (2, 0)])
    assert got == {0: 3, 2: 1}  # the repeated (3, 0) counts once
    assert ledger.messages_total == 4


def test_signal_to_a_non_neighbour_raises_the_send_step_error():
    g = generate("path", {"n": 4})
    with pytest.raises(SimError, match=r"^acks: vertex 1 sent to non-neighbor 3$"):
        signal(g, SimConfig(), RoundLedger(), "acks", [(2, 0), (1, 3), (1, 2)])


def test_connect_adds_in_pick_order_then_signals():
    g = generate("path", {"n": 3})
    for picks, first in (([(0, 1, "a"), (1, 0, "b")], "a"),
                         ([(1, 0, "b"), (0, 1, "a")], "b")):
        H = Spanner(g)
        ledger = RoundLedger()
        connect(g, SimConfig(), ledger, H, "edges", picks + [(2, 1, "c")])
        assert H.provenance == {(0, 1): first, (1, 2): "c"}
        assert ledger.per_phase == [("edges", 1)]
        assert ledger.messages_total == 3


def test_connect_rejects_a_non_edge():
    g = generate("path", {"n": 3})
    ledger = RoundLedger()
    with pytest.raises(GraphError, match="not in base graph"):
        connect(g, SimConfig(), ledger, Spanner(g), "edges", [(0, 2, "a")])
    assert ledger.per_phase == []


def test_connect_needs_a_spanner_over_its_own_graph():
    # an equal graph is not enough: the picks' edges are checked against
    # H.base, and the tokens go over the edges of g
    g = generate("path", {"n": 3})
    H = Spanner(generate("path", {"n": 3}))
    ledger = RoundLedger()
    with pytest.raises(ValueError,
                       match=r"^edges: the spanner is not over the graph of the round$"):
        connect(g, SimConfig(), ledger, H, "edges", [(0, 1, "a")])
    assert (H.provenance, ledger.per_phase) == ({}, [])


def test_connect_adds_before_it_checks_the_config():
    g = generate("path", {"n": 3})
    low = SimConfig(msg_bit_budget=8 + g.id_bits - 1)
    H = Spanner(g)
    with pytest.raises(GraphError, match="not in base graph"):
        connect(g, low, RoundLedger(), H, "edges", [(0, 1, "a"), (0, 2, "b")])
    with pytest.raises(SimError, match="below minimum"):
        connect(g, low, RoundLedger(), H, "edges", [(1, 2, "c")])
    assert H.provenance == {(0, 1): "a", (1, 2): "c"}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_connect_charges_as_signal_did(seed):
    """``connect`` charges its distinct picks without ``signal``; on
    graphs with n <= 10 and sparse IDs, picks in both directions with
    repeats and the odd non-edge, strict and audit configs at the budget
    floor, below it and at the default, and round caps that stop the
    round, it leaves the same spanner (provenance in insertion order) and
    ledger, or raises the same error after the same adds, as adding the
    picks and charging them through ``signal``."""
    rng = random.Random(seed)
    ids = sorted(rng.sample(range(50), rng.randint(1, 10)))
    p = rng.random()
    g = Graph(ids, [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]
                    if rng.random() < p])
    edges = sorted(g.edge_set)
    picks = []
    for _ in range(rng.randint(0, 12)):
        if edges and rng.random() < 0.95:
            v, u = rng.choice(edges)
            if rng.random() < 0.5:
                v, u = u, v
        else:
            v, u = rng.choice(ids), rng.choice(ids)
        picks.append((v, u, rng.choice("ab")))
    picks += rng.sample(picks, min(len(picks), rng.randint(0, 4)))
    rng.shuffle(picks)
    cfg = SimConfig(msg_bit_budget=rng.choice((None, 8 + g.id_bits, 7 + g.id_bits)),
                    strict=rng.random() < 0.5, max_rounds=rng.choice((1, 10**6)))

    def by_signal(H, ledger):
        for v, u, tag in picks:
            H.add(v, u, tag)
        signal(g, cfg, ledger, "edges", [(v, u) for v, u, _tag in picks])

    def outcome(call):
        H = Spanner(g)
        ledger = RoundLedger(rounds_used=2, messages_total=4, per_phase=[("before", 2)])
        try:
            call(H, ledger)
        except (GraphError, SimError) as exc:
            return type(exc), str(exc), list(H.provenance.items())
        return list(H.provenance.items()), ledger.to_json()

    assert outcome(lambda H, led: connect(g, cfg, led, H, "edges", picks)) \
        == outcome(by_signal)


def _exchange_all_vertices(g, cfg, ledger, name, out):
    """Reference for the scripted round: every vertex's outbox through the
    send step in ID order, with an inbox for every vertex."""
    cfg.check(g)
    budget = cfg.budget_for(g)
    inboxes = {v: [] for v in g.vertices}
    sent_before = ledger.messages_total
    for v in g.vertices:
        outbox = out.get(v)
        if outbox:
            sim._post(g, cfg, budget, ledger, name, 1, v, outbox, inboxes)
    rounds = 1 if ledger.messages_total > sent_before else 0
    ledger.rounds_used += rounds
    ledger.per_phase.append((name, rounds))
    return inboxes


def ref_announce(g, cfg, ledger, name, labels, bits):
    """Reference for ``exchange`` to all neighbours: one Msg per sender
    to every neighbour, posted message by message; a label keyed by a
    non-vertex sends nothing."""
    out = {}
    for v, label in labels.items():
        if v in g.adj:
            m = Msg(bits, label)
            out[v] = {u: m for u in g.adj[v]}
    got = _exchange_all_vertices(g, cfg, ledger, name, out)
    return {v: dict(inbox) for v, inbox in got.items()}


def ref_signal(g, cfg, ledger, name, pairs):
    """Reference for ``signal``: one tag-only Msg per distinct pair, posted
    message by message."""
    token = Msg(8, None)
    out = {}
    for v, u in pairs:
        out.setdefault(v, {})[u] = token
    return _exchange_all_vertices(g, cfg, ledger, name, out)


def ref_exchange(g, cfg, ledger, name, bodies, bits, to):
    """Reference for ``exchange`` with chosen receivers: one Msg per sender
    to each of its receivers, posted message by message."""
    out = {}
    for v, body in bodies.items():
        if v in to:
            m = Msg(bits, body)
            out[v] = {u: m for u in to[v]}
    got = _exchange_all_vertices(g, cfg, ledger, name, out)
    return {v: dict(inbox) for v, inbox in got.items()}


def _round_outcome(call, reference=False):
    """The entries in receiver order, each in its own order, and the
    ledger; or the exception's type and text.  A reference's empty
    entries are left out."""
    ledger = RoundLedger(rounds_used=3, max_bits_seen=3, messages_total=5,
                         per_phase=[("before", 3)])
    try:
        got = call(ledger)
    except SimError as exc:
        return type(exc), str(exc)
    entries = [(v, list(x.items()) if isinstance(x, dict) else list(x))
               for v, x in sorted(got.items()) if x or not reference]
    return entries, ledger.to_json()


def _count_outcome(call):
    """The counts in receiver order and the ledger, or the exception's
    type and text."""
    ledger = RoundLedger(rounds_used=3, max_bits_seen=3, messages_total=5,
                         per_phase=[("before", 3)])
    try:
        got = call(ledger)
    except SimError as exc:
        return type(exc), str(exc)
    return sorted(got.items()), ledger.to_json()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_announce_and_signal_match_posted_rounds(seed):
    """``exchange`` to all neighbours (the label shape) and with chosen
    receivers (the star-relay shape) return what the posted rounds
    return, minus the vertices that received nothing, and ``signal``
    returns each receiver's count of the senders the posted round delivers
    to it, with the same ledger or the same exception type and text: on
    graphs with n <= 12 and sparse IDs, in strict and audit mode, at the budget floor and one bit below it, with
    labels and bodies narrower and wider than the budget, labels keyed by
    non-vertices, pairs and receiver lists with repeats, non-vertex
    senders and non-neighbour receivers."""
    rng = random.Random(seed)
    ids = sorted(rng.sample(range(70), rng.randint(1, 12)))
    p = rng.random()
    g = Graph(ids, [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]
                    if rng.random() < p])
    floor = 8 + g.id_bits
    cfg = SimConfig(msg_bit_budget=floor - (rng.random() < 0.15),
                    strict=rng.random() < 0.5)
    labels = {v: rng.choice((v, (v, 1), None, "x")) for v in ids if rng.random() < 0.7}
    for _ in range(2 if rng.random() < 0.15 else 0):
        labels[rng.choice((70, 71, ids[0] + 0.5))] = 0
    labels = dict(rng.sample(sorted(labels.items(), key=repr), len(labels)))
    bits = rng.randint(1, floor + 2)
    assert _round_outcome(lambda led: sim.exchange(g, cfg, led, "ann", labels, bits)) \
        == _round_outcome(lambda led: ref_announce(g, cfg, led, "ann", labels, bits), True)
    pairs = []
    for _ in range(rng.randint(0, 3 * len(ids))):
        v = rng.choice(ids) if rng.random() < 0.95 else 99
        nbrs = g.adj.get(v, ())
        if nbrs and rng.random() < 0.93:
            u = rng.choice(nbrs)
        else:
            u = rng.choice(ids + [98])
        pairs.append((v, u))

    def ref_counts(led):
        return {v: len(inbox) for v, inbox in
                ref_signal(g, cfg, led, "sig", pairs).items() if inbox}

    assert _count_outcome(lambda led: signal(g, cfg, led, "sig", pairs)) \
        == _count_outcome(ref_counts)
    bodies = {v: rng.choice((v, (v, 2), "y")) for v in ids + [99] if rng.random() < 0.7}
    to = {}
    for v in ids + [99]:
        if rng.random() < 0.8:
            nbrs = g.adj.get(v, ())
            to[v] = [rng.choice(nbrs) if nbrs and rng.random() < 0.95
                     else rng.choice(ids + [98]) for _ in range(rng.randint(0, 3))]
    width = rng.randint(1, floor + 2)
    assert _round_outcome(lambda led: sim.exchange(g, cfg, led, "rel", bodies, width, to)) \
        == _round_outcome(
            lambda led: ref_exchange(g, cfg, led, "rel", bodies, width, to), True)


def _announce_join_by_exchange(g, cfg, ledger, names, joiners, down):
    """The join step as one ``exchange``: the told members send an empty
    body to all their neighbours, and the inboxes' keys join the set."""
    know = down(names[0], {c: 1 for c in joiners})
    told = [v for v, x in know.items() if x]
    got = sim.exchange(g, cfg, ledger, names[1], dict.fromkeys(told), BitCost.TAG)
    return set(told).union(got)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_announce_join_matches_the_exchange_it_replaced(seed):
    """``announce_join`` charges its token round without building inboxes;
    on random graphs, clusterings and joiner sets it returns the same set
    and leaves the same ledger, or raises the same error, as the
    ``exchange`` round it replaced, under strict and audit budgets and
    under round caps that stop the broadcast or the token round."""
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    g = generate("erdos-renyi", {"n": n, "p": rng.uniform(0.02, 0.4)}, seed=seed)
    centers = rng.sample(g.vertices, rng.randint(1, n))
    clustering, _ = grow_bfs_clusters(g, centers, rng.randint(0, 3))
    heads = sorted(clustering.centers)
    joiners = rng.sample(heads, rng.randint(0, len(heads)))
    cfg = SimConfig(msg_bit_budget=rng.choice((None, 8 + g.id_bits)),
                    strict=rng.random() < 0.5,
                    max_rounds=rng.choice((1, 2, 4, 10**6)))
    outcomes = []
    for join in (announce_join, _announce_join_by_exchange):
        ledger = RoundLedger()
        _up, down = cluster_steps(g, cfg, ledger, clustering)
        try:
            hit = join(g, cfg, ledger, ("join-down", "join-announce"), joiners, down)
        except SimError as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append((hit, ledger.to_json()))
    assert outcomes[0] == outcomes[1]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_label_contacts_match_the_exchange_they_replace(seed):
    """The label round returns, for every vertex that heard a label,
    ``contacts`` of the inbox ``exchange(labels, 8 + id_bits)`` delivers
    (keys in the same order), and leaves the same ledger JSON, violation
    records included, or raises the same exception type and text: on
    graphs with n <= 12 and sparse IDs, labels from a BFS clustering,
    some on vertices outside every tree and a few keyed by non-vertices,
    strict and audit configs at the budget floor, below it and roomy, and
    round caps that stop the round."""
    rng = random.Random(seed)
    ids = sorted(rng.sample(range(70), rng.randint(1, 12)))
    p = rng.choice((0.15, 0.3, 0.6))
    g = Graph(ids, [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]
                    if rng.random() < p])
    floor = 8 + g.id_bits
    centers = rng.sample(ids, rng.randint(1, len(ids)))
    clustering, _led = grow_bfs_clusters(g, centers, rng.randint(0, 2),
                                         SimConfig(msg_bit_budget=4 * floor))
    labels = dict(clustering.membership)
    for v in ids:
        if v not in labels and rng.random() < 0.5:
            labels[v] = rng.choice(centers)
    for _ in range(2 if rng.random() < 0.15 else 0):
        labels[rng.choice((70, 71, ids[0] + 0.5))] = rng.choice(centers)
    labels = dict(rng.sample(sorted(labels.items()), len(labels)))
    cfg = SimConfig(msg_bit_budget=rng.choice((floor, floor - 1, 4 * floor)),
                    strict=rng.random() < 0.5, max_rounds=rng.choice((1, 10**6)))

    def outcome(call):
        ledger = RoundLedger(rounds_used=3, max_bits_seen=3, messages_total=5,
                             per_phase=[("before", 3)],
                             violations=[{"kind": "bits", "program": "before"}])
        try:
            got = call(ledger)
        except SimError as exc:
            return type(exc), str(exc)
        return [(v, list(near.items())) for v, near in sorted(got.items())], \
            ledger.to_json()

    def by_exchange(ledger):
        got = sim.exchange(g, cfg, ledger, "ann", labels, 8 + g.id_bits)
        return {v: contacts(inbox) for v, inbox in got.items()}

    assert outcome(lambda led: label_contacts(g, cfg, led, "ann", labels)) \
        == outcome(by_exchange)


def test_contacts_smallest_neighbour_per_tree():
    heard = {5: "a", 3: "a", 7: "b", 9: "c", 8: "b"}
    assert list(contacts(heard).items()) == [("a", 3), ("b", 7), ("c", 9)]
    assert contacts(heard, keep={"b", "c"}) == {"b": 7, "c": 9}
    assert contacts(heard, skip="a") == {"b": 7, "c": 9}
    assert contacts(heard, keep={"a", "b"}, skip="b") == {"a": 3}
    assert contacts({}) == {}


# -- the election against a copy that recomputes contacts every iteration ---


def ref_token_inboxes(g, cfg, ledger, name, pairs):
    """A token round that returns inboxes, v -> {sender: None}: one
    ``exchange`` round with one token per distinct pair."""
    to = defaultdict(dict)
    for v, u in pairs:
        to[v][u] = None
    return sim.exchange(g, cfg, ledger, name, dict.fromkeys(to), BitCost.TAG, to)


def ref_unmarked_degree(g, cfg, ledger, names, labels, nbr_labels, remaining,
                        marked, up, self_report):
    """Reference ack step: every unmarked vertex's contacts are computed
    over the remaining trees in every call, and the acks are counted from
    the inboxes."""
    got = ref_token_inboxes(g, cfg, ledger, names[0], (
        (v, u) for v in g.vertices if v not in marked
        for u in contacts(nbr_labels.get(v, {}), remaining,
                          labels.get(v) if self_report else None).values()
    ))
    counts = {v: len(inbox) for v, inbox in got.items()}
    if self_report:
        for v in labels:
            if v not in marked:
                counts[v] = counts.get(v, 0) + 1
    return up(names[1], counts)


def ref_elect(g, cfg, ledger, *, steps, labels, nbr_labels, remaining, threshold,
              cap, up, down, self_report, cbits, records, where, level, members=None):
    """Reference election: scans every vertex for the unmarked ones in
    each step and reads the tuples, the votes and the join tokens from
    inboxes."""
    remaining = set(remaining)
    joined, marked = set(), set()
    for it in itertools.count(1):
        if it > cap:
            raise SimTimeout(f"{where} phase {level} exceeded its iteration cap {cap}")
        names = [f"{s}.{it}" for s in steps]
        deg = ref_unmarked_degree(g, cfg, ledger, names[0:2], labels, nbr_labels,
                                  remaining, marked, up, self_report)
        know = down(names[2], {c: deg.get(c, 0) for c in remaining})
        got = sim.exchange(g, cfg, ledger, names[3], {
            v: (know.get(v, 0), c) for v, c in labels.items() if c in remaining
        }, 8 + g.id_bits + cbits)
        ballots, votes = [], {}
        for v in g.vertices:
            if v in marked:
                continue
            own = labels.get(v)
            best = sender = None
            if self_report and own in remaining:
                best = (know.get(v, 0), own)
            for s, (d, c) in got.get(v, {}).items():
                if best is None or (d, c) > best:
                    best, sender = (d, c), s
                elif (d, c) == best and sender is not None and s < sender:
                    sender = s
            if best is None:
                continue
            if self_report and best[1] == own:
                votes[v] = 1
            else:
                ballots.append((v, sender))
        for v, inbox in ref_token_inboxes(g, cfg, ledger, names[4], ballots).items():
            votes[v] = votes.get(v, 0) + len(inbox)
        vote_sum = up(names[5], votes)
        new = {c for c in remaining if deg.get(c, 0) >= max(threshold, 1)
               and vote_sum.get(c, 0) == deg.get(c, 0)}
        record = {"where": where, "level": level, "iteration": it,
                  "marked_before": frozenset(marked), "joined": sorted(new),
                  "deg": {c: deg.get(c, 0) for c in sorted(new)}}
        if members is not None:
            record["sc_members"] = {c: frozenset(members[c]) for c in new}
        records.append(record)
        if not new:
            return joined, remaining, marked
        joined |= new
        remaining -= new
        know = down(names[6], {c: 1 for c in new})
        told = [v for v, x in know.items() if x]
        heard = ref_token_inboxes(g, cfg, ledger, names[7],
                                  ((v, u) for v in told for u in g.adj[v]))
        marked |= set(told).union(heard)


def ref_cluster_expansion(g, cfg, ledger, clustering, label):
    """Reference for ``zero._cluster_expansion`` over the reference ack step."""
    nbr_cluster = sim.exchange(g, cfg, ledger, f"zero-announce:{label}",
                               clustering.membership, 8 + g.id_bits)
    up, _down = cluster_steps(g, cfg, ledger, clustering)
    return ref_unmarked_degree(
        g, cfg, ledger, (f"zero-acks:{label}", f"zero-deg:{label}"),
        clustering.membership, nbr_cluster, clustering.centers, set(), up, True)


def random_election_inputs(rng):
    """A graph on up to 14 sparse IDs; a BFS clustering of depth 0..2
    around random centres, whose labels sometimes also name a few vertices
    outside every tree (the join broadcast never reaches them, so their
    neighbours can stay unmarked next to a joined tree); a random subset
    of the trees remaining; and a strict or audit config at the budget
    floor, where the tuples overrun it, or at a roomy budget."""
    ids = sorted(rng.sample(range(60), rng.randint(1, 14)))
    p = rng.choice((0.15, 0.3, 0.6))
    g = Graph(ids, [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]
                    if rng.random() < p])
    floor = 8 + g.id_bits
    centers = rng.sample(ids, rng.randint(1, len(ids)))
    clustering, _led = grow_bfs_clusters(g, centers, rng.randint(0, 2),
                                         SimConfig(msg_bit_budget=4 * floor))
    labels = dict(clustering.membership)
    if rng.random() < 0.4:
        for v in ids:
            if v not in labels and rng.random() < 0.5:
                labels[v] = rng.choice(centers)
    trees = sorted(clustering.centers)
    remaining = rng.sample(trees, rng.randint(len(trees) // 2, len(trees)))
    cfg = SimConfig(msg_bit_budget=rng.choice((floor, 4 * floor)),
                    strict=rng.random() < 0.5)
    return g, clustering, labels, remaining, cfg


def _election_outcome(elect_impl, g, cfg, clustering, labels, kw):
    """Joined, remaining and marked, the records and the ledger; or the
    exception's type and text."""
    ledger, records = RoundLedger(), []
    try:
        up, down = cluster_steps(g, cfg, ledger, clustering)
        if elect_impl is elect:
            heard = {"near": label_contacts(g, cfg, ledger, "ann", labels)}
        else:
            heard = {"nbr_labels": sim.exchange(g, cfg, ledger, "ann", labels,
                                                8 + g.id_bits)}
        joined, remaining, marked = elect_impl(
            g, cfg, ledger, labels=labels, up=up, down=down, records=records,
            **heard, **kw)
    except SimError as exc:
        return type(exc), str(exc)
    return sorted(joined), sorted(remaining), sorted(marked), records, ledger.to_json()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_election_matches_per_iteration_contacts(seed):
    """``elect``, which reads the contacts of the label round, walks a
    shrinking list of unmarked vertices and counts its token and tuple
    rounds without inboxes, and ``zero._cluster_expansion`` give the same
    joined, remaining and marked sets, records and ledger, or the same
    exception, as a copy that reads the labels, tuples and tokens from
    ``exchange`` inboxes, recomputes the contacts over the remaining trees
    and scans every vertex in every iteration: members self-reporting or
    not, with and without ``members``, iteration caps that are hit and
    ones that are not."""
    rng = random.Random(seed)
    g, clustering, labels, remaining, cfg = random_election_inputs(rng)
    kw = dict(steps=[f"step{i}" for i in range(8)], remaining=remaining,
              threshold=rng.randint(0, 4), cap=rng.randint(0, 6),
              self_report=rng.random() < 0.5, cbits=max(1, g.n.bit_length()),
              where="test", level=1,
              members=clustering.members() if rng.random() < 0.5 else None)
    assert _election_outcome(elect, g, cfg, clustering, labels, kw) \
        == _election_outcome(ref_elect, g, cfg, clustering, labels, kw)

    def expansion(impl):
        ledger = RoundLedger()
        try:
            deg = impl(g, cfg, ledger, clustering, "Z1")
        except SimError as exc:
            return type(exc), str(exc)
        return deg, ledger.to_json()

    assert expansion(zero._cluster_expansion) == expansion(ref_cluster_expansion)


# -- baseline -----------------------------------------------------------------


def test_baseline_k2_k4():
    g = generate("complete", {"n": 4})
    res = baswana_sen_baseline(g, 2, seed=0)
    assert verify_stretch(g, res.spanner, 3).passed


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_baseline_stretch(seed):
    g = generate("erdos-renyi", {"n": 90, "p": 0.12}, seed=7)
    for k in (2, 3, 4):
        res = baswana_sen_baseline(g, k, seed=seed)
        assert verify_stretch(g, res.spanner, 2 * k - 1).passed


def test_baseline_deterministic_per_seed():
    g = generate("erdos-renyi", {"n": 60, "p": 0.15}, seed=1)
    a = baswana_sen_baseline(g, 3, seed=5)
    b = baswana_sen_baseline(g, 3, seed=5)
    assert a.spanner.edges == b.spanner.edges


def test_baseline_status_round_over_the_budget():
    # (cluster, sampled flag) is one bit wider than the floor: at the floor
    # every singleton's status to every neighbour is one record, senders
    # then receivers in ID order, and strict mode raises at the first
    g = generate("erdos-renyi", {"n": 40, "p": 0.2}, seed=1)
    floor = BitCost.TAG + g.id_bits
    res = baswana_sen_baseline(g, 3, 0, SimConfig(msg_bit_budget=floor, strict=False))
    assert [r for r in res.ledger.violations if r["program"] == "bs-status:L1"] == [
        {"kind": "bits", "round": 1, "edge": [v, u], "bits": floor + 1,
         "budget": floor, "program": "bs-status:L1"}
        for v in g.vertices for u in g.adj[v]
    ]
    with pytest.raises(SimError, match="bs-status:L1"):
        baswana_sen_baseline(g, 3, 0, SimConfig(msg_bit_budget=floor))


def test_improved_disconnected():
    g1 = generate("erdos-renyi", {"n": 60, "p": 0.15}, seed=1)
    edges = list(g1.edge_set) + [
        (u + 100, v + 100) for u, v in generate("cycle", {"n": 40}).edge_set
    ]
    g = Graph(list(range(60)) + list(range(100, 140)), edges)
    res = improved_spanner(g, 4)
    assert verify_stretch(g, res.spanner, 7).passed


def test_improved_extreme_star():
    g = generate("complete-bipartite", {"a": 1, "b": 100})
    res = improved_spanner(g, 4)
    assert verify_stretch(g, res.spanner, 7).passed


@pytest.mark.parametrize(
    "alg,k",
    [(alg, 2) for alg in ("bip3", "imp3", "smallid3")]
    + [(alg, k) for alg in ("naive", "sparserbip", "improved", "bs-baseline")
       for k in (2, 3, 4, 5, 6)],
)
def test_single_edge_builds_under_default_budget(alg, k):
    g = generate("complete", {"n": 2})
    res = run_algorithm(alg, g, k, SimConfig(), 0, "complete-bipartite",
                        {"a": 1, "b": 1})
    assert verify_stretch(g, res.spanner, stretch_bound(alg, k)).passed
