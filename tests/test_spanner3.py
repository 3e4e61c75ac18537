import math
import random
from typing import Dict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanner import (
    Bipartition,
    Graph,
    RoundLedger,
    SimConfig,
    SimTimeout,
    bipartite_3_spanner,
    generate,
    improved_3_spanner,
    partition_high_degree,
    small_id_3_spanner,
    three_spanner_given_partition,
    verify_stretch,
    verify_stretch_allpairs,
    with_random_weights,
)
from spanner.graph import Spanner
from spanner.sim import TAG, Msg, SimError, run, width
from spanner.spanner3 import _star_spanner
from step_program import StepProgram


def _crossing(g, a):
    return g.edge_subgraph(
        g.vertices, [e for e in g.edge_set if (e[0] in a) != (e[1] in a)]
    )


def test_bipartite_k24():
    g = generate("complete-bipartite", {"a": 2, "b": 4})
    part = Bipartition(range(2), range(2, 6))
    res = bipartite_3_spanner(g, part)
    assert res.spanner.size <= 4 + 2 * 2
    assert res.ledger.rounds_used == 2
    assert verify_stretch(g, res.spanner, 3).passed


def test_bipartite_k24_round_cap():
    # round 2 carries the SELECTED replies, so a third round delivers them
    g = generate("complete-bipartite", {"a": 2, "b": 4})
    part = Bipartition(range(2), range(2, 6))
    with pytest.raises(SimTimeout) as exc:
        bipartite_3_spanner(g, part, SimConfig(max_rounds=2))
    assert str(exc.value) == "program 'star-spanner' exceeded max_rounds=2"
    res = bipartite_3_spanner(g, part, SimConfig(max_rounds=3))
    assert res.ledger.rounds_used == 2
    assert res.ledger.to_json()["per_phase"] == [{"name": "star-spanner", "rounds": 2}]


def test_bipartite_vertex_without_a_neighbor():
    # B vertex 5 is isolated from A; no obligation arises
    g = Graph(range(6), [(0, 2), (0, 3), (1, 3), (4, 5)])
    part = Bipartition({0, 1}, {2, 3, 5})
    res = bipartite_3_spanner(g, part)
    assert verify_stretch(_crossing(g, {0, 1}), res.spanner, 3).passed


def test_bipartite_vertex_on_neither_side_picks_no_star():
    # vertex 2 is in neither A nor B, so edge (0, 2) is outside the instance
    g = Graph(range(3), [(0, 1), (0, 2)])
    part = Bipartition({0}, {1})
    res = bipartite_3_spanner(g, part)
    assert (0, 2) not in res.spanner.edges
    assert all(
        (u in part.a and w in part.b) or (u in part.b and w in part.a)
        for u, w in res.spanner.edges
    )
    assert res.spanner.edges == {(0, 1)}


def test_bipartite_rejects_sides_outside_the_graph():
    g = generate("path", {"n": 6})
    with pytest.raises(ValueError, match="^bipartition side A names vertex 99, "):
        bipartite_3_spanner(g, Bipartition([0, 2, 4, 99], [1, 3, 5]))
    with pytest.raises(ValueError, match="^bipartition side B names vertex 6, "):
        bipartite_3_spanner(g, Bipartition([0, 2, 4], [1, 3, 5, 9, 6]))


def test_bipartite_weighted_picks_closest():
    g = Graph(
        range(3),
        [(0, 2), (1, 2)],
        weights={(0, 2): 5.0, (1, 2): 2.0},
    )
    part = Bipartition({0, 1}, {2})
    res = bipartite_3_spanner(g, part)
    assert (1, 2) in res.spanner.edges  # weight-2 neighbor wins


def test_bipartite_weighted_tie_smaller_id():
    g = Graph(range(3), [(0, 2), (1, 2)], weights={(0, 2): 2.0, (1, 2): 2.0})
    res = bipartite_3_spanner(g, Bipartition({0, 1}, {2}))
    assert (0, 2) in res.spanner.edges


def test_bipartite_random_oracle():
    g = generate("random-bipartite", {"a": 10, "b": 60, "p": 0.3}, seed=3)
    a = set(range(10))
    res = bipartite_3_spanner(g, Bipartition(a, set(range(10, 70))))
    assert res.ledger.rounds_used == 2
    assert res.spanner.size <= 60 + 100
    assert verify_stretch(_crossing(g, a), res.spanner, 3).passed


def test_bipartite_weighted_random_oracle():
    g = with_random_weights(
        generate("random-bipartite", {"a": 8, "b": 40, "p": 0.3}, seed=5), seed=9
    )
    a = set(range(8))
    res = bipartite_3_spanner(g, Bipartition(a, set(range(8, 48))))
    assert verify_stretch(_crossing(g, a), res.spanner, 3).passed


def test_bipartite_edge_bound_exact_counting():
    for seed in range(5):
        g = generate("random-bipartite", {"a": 7, "b": 30, "p": 0.4}, seed=seed)
        res = bipartite_3_spanner(g, Bipartition(range(7), range(7, 37)))
        assert res.spanner.size <= 30 + 49


# -- high-degree partitioning -------------------------------------------------


def test_partition_all_low_degree_empty():
    g = generate("cycle", {"n": 30})
    parts, _ = partition_high_degree(g, SimConfig(), RoundLedger())
    assert parts == []


def test_partition_k16_bounds():
    g = generate("complete", {"n": 16})
    parts, _ = partition_high_degree(g, SimConfig(), RoundLedger())
    covered = set().union(*parts)
    assert covered == set(range(16))
    assert all(len(p) <= 2 * math.isqrt(16) for p in parts)
    assert len(parts) <= 3 * math.ceil(math.sqrt(16))
    flat = [v for p in parts for v in p]
    assert len(flat) == len(set(flat))


def test_partition_star_center_only():
    g = generate("complete-bipartite", {"a": 1, "b": 100})
    parts, _ = partition_high_degree(g, SimConfig(), RoundLedger())
    assert parts == [{0}]


# -- partitioned 3-spanner ----------------------------------------------------


def test_given_partition_single_part_is_whole_graph():
    g = generate("complete", {"n": 6})
    res = three_spanner_given_partition(g, [set(range(6))])
    assert res.spanner.size == g.m  # all internal edges
    assert verify_stretch(g, res.spanner, 3).passed


def test_given_partition_two_parts_k4():
    g = generate("complete", {"n": 4})
    res = three_spanner_given_partition(g, [{0, 1}, {2, 3}])
    assert res.ledger.rounds_used == 2
    assert verify_stretch(g, res.spanner, 3).passed


def test_given_partition_overlap_rejected():
    g = generate("complete", {"n": 4})
    with pytest.raises(ValueError):
        three_spanner_given_partition(g, [{0, 1}, {1, 2}])


def test_given_partition_rejects_non_vertex():
    g = generate("path", {"n": 6})
    with pytest.raises(ValueError) as exc:
        three_spanner_given_partition(g, [[0, 1, 999], [2, 3]])
    assert str(exc.value) == "part 0 names vertex 999, which is not in the graph"


def test_given_partition_weighted_oracle():
    g = with_random_weights(
        generate("erdos-renyi", {"n": 50, "p": 0.2}, seed=8), seed=3
    )
    parts = [[v for v in g.vertices if v % 4 == i] for i in range(4)]
    res = three_spanner_given_partition(g, parts)
    assert res.ledger.rounds_used == 2
    assert res.spanner.size < g.m
    a = verify_stretch(g, res.spanner, 3)
    b = verify_stretch_allpairs(g, res.spanner, 3)
    assert a.passed and b.passed
    assert a.worst_edge == b.worst_edge
    assert abs(a.max_stretch - b.max_stretch) < 1e-9


def test_given_partition_random_pinned_size():
    g = generate("erdos-renyi", {"n": 60, "p": 0.2}, seed=13)
    parts, _ = partition_high_degree(g, SimConfig(), RoundLedger())
    res = three_spanner_given_partition(g, parts)
    assert verify_stretch(
        g.edge_subgraph(
            g.vertices,
            [e for e in g.edge_set
             if any(e[0] in p or e[1] in p for p in parts)],
        ),
        res.spanner,
        3,
    ).passed
    assert res.spanner.size <= math.ceil(1.5 * 60**1.5)


# -- general 3-spanner --------------------------------------------------------


def test_improved3_tree_keeps_everything():
    g = generate("path", {"n": 40})
    res = improved_3_spanner(g)
    assert res.spanner.size == g.m
    assert verify_stretch(g, res.spanner, 3).max_stretch == 1


def test_improved3_k16():
    g = generate("complete", {"n": 16})
    res = improved_3_spanner(g)
    assert verify_stretch(g, res.spanner, 3).passed
    assert res.spanner.size <= 2 * 16**1.5


def test_improved3_weighted_oracle():
    g = with_random_weights(
        generate("erdos-renyi", {"n": 50, "p": 0.3}, seed=21), seed=4
    )
    res = improved_3_spanner(g)
    assert verify_stretch(g, res.spanner, 3).passed


def test_improved3_round_cap():
    g = generate("erdos-renyi", {"n": 200, "p": 0.1}, seed=2)
    res = improved_3_spanner(g)
    assert verify_stretch(g, res.spanner, 3).passed
    cap = 8 * math.ceil(math.log2(200)) ** 2
    assert res.ledger.rounds_used <= cap


# -- small-ID variant ---------------------------------------------------------


# 64 vertices with 20-bit IDs and one star of 8 leaves: the star's tree
# partition runs on a 9-vertex tree, whose own default budget (26 bits)
# is below the one-ID floor of 28
WIDE_IDS = Graph(range(1 << 19, (1 << 19) + 64),
                 [(1 << 19, (1 << 19) + i) for i in range(1, 9)])


def test_improved3_keeps_the_budget_of_g_in_small_partitions():
    default = improved_3_spanner(WIDE_IDS)
    resolved = improved_3_spanner(WIDE_IDS, SimConfig(msg_bit_budget=48))
    assert default.ledger.to_json() == resolved.ledger.to_json()
    assert list(default.spanner.provenance.items()) \
        == list(resolved.spanner.provenance.items())
    assert (default.ledger.rounds_used, default.ledger.max_bits_seen) == (84, 34)
    ledger, at_48 = RoundLedger(), RoundLedger()
    parts, _trace = partition_high_degree(WIDE_IDS, SimConfig(), ledger)
    partition_high_degree(WIDE_IDS, SimConfig(msg_bit_budget=48), at_48)
    assert parts == [{1 << 19}] and ledger.to_json() == at_48.to_json()


def test_smallid_parts_for_ids_1_to_64():
    g = Graph(range(1, 65), [(i, i + 1) for i in range(1, 64)])
    res = small_id_3_spanner(g)
    assert res.trace["num_parts"] == 8
    low = res.trace["low_bits"]
    sizes = {}
    for v in g.vertices:
        sizes.setdefault(v & ((1 << low) - 1), []).append(v)
    assert all(len(vs) == 8 for vs in sizes.values())


def test_smallid_exactly_two_rounds():
    for seed in range(3):
        g = generate("bounded-id", {"n": 80, "p": 0.1}, seed=seed)
        res = small_id_3_spanner(g)
        assert res.ledger.rounds_used == 2


def test_smallid_oracle_bounded_id():
    g = generate("bounded-id", {"n": 100, "p": 0.15}, seed=4)
    res = small_id_3_spanner(g)
    assert verify_stretch(g, res.spanner, 3).passed


def test_smallid_rejects_large_ids():
    g = Graph([1, 2, 10**6], [(1, 2), (2, 10**6)])
    with pytest.raises(ValueError, match="1000000"):
        small_id_3_spanner(g)


# -- the star rounds against a reference copy of their posted rounds --------


def _ref_star_spanner(g, cfg, spanner, part, internal, listeners=None):
    """Reference for ``_star_spanner``: the two star rounds as one
    mail-driven step under ``sim.run`` that posts CHOSE and SELECTED
    messages through the send step, each vertex hearing its neighbours'
    parts when it is among ``listeners`` (None: every vertex)."""
    if g.weighted:
        def rank(v, u):
            return (g.weight(v, u), u)
    else:
        def rank(v, u):
            return u
    chose_bits = width(g.id_bits, 1)
    selected = Msg(TAG, (1,))

    def step(v, rnd, inbox):
        if not inbox:
            mine = part.get(v)
            heard = {}
            if listeners is None or v in listeners:
                heard = {u: part[u] for u in g.adj[v] if u in part}
            best: Dict[int, int] = {}
            for u in g.adj[v]:
                j = heard.get(u)
                if j is None:
                    continue
                if j == mine:
                    if internal:
                        spanner.add(v, u, "internal")
                    continue
                cur = best.get(j)
                if cur is None or rank(v, u) < rank(v, cur):
                    best[j] = u
            msgs = {}
            for j, center in best.items():
                spanner.add(v, center, "star")
                msgs[j] = Msg(chose_bits, (0, center))
            return {u: msgs[heard[u]] for u in g.adj[v] if heard.get(u) in msgs}
        if inbox[0][1][0] == 1:
            return None
        per_star: Dict[int, int] = {}
        for sender, (_tag, center) in inbox:
            cur = per_star.get(center)
            if cur is None or rank(v, sender) < rank(v, cur):
                per_star[center] = sender
        out = {}
        for center, picked in sorted(per_star.items()):
            spanner.add(v, picked, "star" if center == v else "cross")
            out[picked] = selected
        return out

    return run(g, StepProgram("star-spanner", g.vertices, step), cfg)[1]


@st.composite
def star_cases(draw):
    """A graph with n <= 30 on sparse IDs (maybe empty, maybe with isolated
    vertices), unweighted or with weights from {1, 2, 3} so that ties are
    common; a partial partition that every vertex hears, by default or as
    explicit ``listeners``, or a bipartition whose B side listens, with
    vertices on neither side; the budget at the one-ID floor or one bit
    below it, strict or audit mode, and a round cap of 0-3 or none."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    ids = sorted(rng.sample(range(901), rng.choice((0, 1, 4, 12, 20, 30, 30))))
    p = rng.choice((0.0, 0.1, 0.2, 0.35, 0.6, 0.9))
    edges = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]
             if rng.random() < p]
    weights = None
    if rng.random() < 0.5:
        weights = {e: float(rng.choice((1, 2, 3))) for e in edges}
    g = Graph(ids, edges, weights=weights)
    shape = rng.choice(("part", "announced", "bipartite"))
    if shape == "bipartite":
        sides = {v: rng.choice("abn") for v in ids}
        part = {v: 0 for v in ids if sides[v] == "a"}
        listeners = {v for v in ids if sides[v] == "b"}
        internal = False
    else:
        nparts = rng.randint(1, 5)
        part = {v: rng.randrange(nparts) for v in ids if rng.random() < 0.8}
        listeners = set(ids) if shape == "announced" else None
        internal = rng.random() < 0.5
    floor = width(g.id_bits, 1)
    cfg = SimConfig(
        msg_bit_budget=rng.choice((floor, floor, floor, floor - 1)),
        strict=rng.random() < 0.5,
        max_rounds=rng.choice((SimConfig.max_rounds, SimConfig.max_rounds, 0, 1, 2, 3)),
    )
    return g, cfg, part, internal, listeners


def _charged_star_spanner(g, cfg, spanner, part, internal, listeners):
    """``_star_spanner`` charged to a fresh ledger, which it returns."""
    ledger = RoundLedger()
    _star_spanner(g, cfg, ledger, spanner, part, internal, listeners)
    return ledger


def _star_outcome(build, g, cfg, part, internal, listeners):
    spanner = Spanner(g)
    try:
        ledger = build(g, cfg, spanner, part, internal, listeners)
    except SimError as exc:
        return type(exc).__name__, str(exc)
    return ledger.to_json(), sorted(spanner.edges), list(spanner.provenance.items())


@settings(derandomize=True, max_examples=300, deadline=None)
@given(star_cases())
def test_star_spanner_matches_cascade_reference(case):
    # the bulk-accounted star rounds build the same edges, in the same
    # order, with the same ledger and errors as rounds posted message by
    # message through the send step
    want = _star_outcome(_ref_star_spanner, *case)
    assert _star_outcome(_charged_star_spanner, *case) == want
