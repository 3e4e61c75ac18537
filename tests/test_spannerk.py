import math

import pytest

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
from spanner.kspanner.common import ipow_ceil


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
    from spanner.sim import SimTimeout

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
