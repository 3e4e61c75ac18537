import hashlib
import heapq
import json
import math
import pickle
import random
from collections import deque
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanner import (
    Graph,
    SimConfig,
    Spanner,
    StretchReport,
    Supercluster,
    Superclustering,
    audit_ruling_set,
    audit_superclustering,
    baswana_sen_baseline,
    bfs_dist,
    fit_bounds,
    fit_exponent,
    generate,
    improved_3_spanner,
    improved_spanner,
    verify_stretch,
    verify_stretch_allpairs,
    with_random_weights,
)
from spanner import cli, verify
from spanner.clustering import Clustering
from spanner.pins import corpus, weighted_corpus
from spanner.verify import REL_TOL


def _full_spanner(g):
    h = Spanner(g)
    for u, v in g.edges():
        h.add(u, v, "all")
    return h


def test_identity_spanner_stretch_one():
    g = generate("erdos-renyi", {"n": 40, "p": 0.2}, seed=1)
    rep = verify_stretch(g, _full_spanner(g), 3)
    assert rep.max_stretch == 1 and rep.passed


def test_cycle9_spanning_tree_worst_stretch_8():
    g = generate("cycle", {"n": 9})
    h = Spanner(g)
    for i in range(8):
        h.add(i, i + 1, "tree")
    rep = verify_stretch(g, h, 3)
    assert not rep.passed
    assert rep.max_stretch == 8
    assert rep.worst_edge == (0, 8)


def test_weighted_boundary_exactly_three_passes():
    g = Graph(
        range(4),
        [(0, 1), (1, 2), (2, 3), (0, 3)],
        weights={(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 1.0},
    )
    h = Spanner(g)
    for e in [(0, 1), (1, 2), (2, 3)]:
        h.add(*e, "tree")
    rep = verify_stretch(g, h, 3)
    assert rep.passed and abs(rep.max_stretch - 3.0) < 1e-12


def test_unreachable_reported():
    g = Graph(range(4), [(0, 1), (2, 3)])
    h = Spanner(g)
    h.add(0, 1, "x")
    rep = verify_stretch(g, h, 3)
    assert not rep.passed and rep.unreachable == 1


def test_subgraph_precondition():
    g = generate("path", {"n": 5})
    other = generate("cycle", {"n": 5})
    h = Spanner(other)
    h.add(0, 4, "cycle-edge")
    with pytest.raises(ValueError):
        verify_stretch(g, h, 3)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_floyd_warshall(weighted, seed):
    g = generate("erdos-renyi", {"n": 60, "p": 0.12}, seed=seed)
    if weighted:
        g = with_random_weights(g, seed=seed)
    h = Spanner(g)
    # half the edges, deterministic choice
    for idx, (u, v) in enumerate(g.edges()):
        if idx % 2 == 0:
            h.add(u, v, "half")
    a = verify_stretch(g, h, 5)
    b = verify_stretch_allpairs(g, h, 5)
    assert a.passed == b.passed
    assert a.worst_edge == b.worst_edge
    if not math.isinf(a.max_stretch):
        assert abs(a.max_stretch - b.max_stretch) < 1e-9
    else:
        assert math.isinf(b.max_stretch)


def test_oracle_report_dumps_like_the_fast_checks(tmp_path):
    # the oracle reads its distance matrix as Python rows, so its report
    # holds a Python bool and float and dumps as JSON
    g = generate("erdos-renyi", {"n": 30, "p": 0.2}, seed=1)
    h = improved_3_spanner(g).spanner
    rep = verify_stretch_allpairs(g, h, 3)
    assert (type(rep.passed), type(rep.max_stretch)) == (bool, float)
    rep.dump(tmp_path / "oracle.json")
    dumped = json.loads((tmp_path / "oracle.json").read_text())
    assert dumped == verify_stretch(g, h, 3).to_json()


def test_verify_is_read_only():
    g = generate("erdos-renyi", {"n": 30, "p": 0.2}, seed=3)
    h = _full_spanner(g)
    before = hashlib.sha256(pickle.dumps((g.adj, sorted(h.edges)))).hexdigest()
    verify_stretch(g, h, 3)
    after = hashlib.sha256(pickle.dumps((g.adj, sorted(h.edges)))).hexdigest()
    assert before == after


# -- superclustering audit ----------------------------------------------------


def _toy_clustering():
    return Clustering(
        level=0,
        membership={v: v for v in range(6)},
        parents={v: None for v in range(6)},
        depth_bound=0,
    )


def test_audit_detects_shared_tree_edge():
    g = generate("path", {"n": 6})
    cl = _toy_clustering()
    sc = Superclustering(
        level=0,
        superclusters=[
            Supercluster(2, frozenset({0, 1, 2}), frozenset({(0, 1), (1, 2)}), 0),
            Supercluster(5, frozenset({3, 4, 5}), frozenset({(1, 2), (3, 4), (4, 5)}), 3),
        ],
        vertex_bound=10,
        cluster_bound=10,
        count_bound=10,
        depth_bound=5,
    )
    rep = audit_superclustering(g, cl, sc)
    assert not rep.passed
    assert any("shared" in f for f in rep.findings)


def test_audit_large_singleton_allowed():
    g = generate("complete", {"n": 6})
    cl = Clustering(
        level=1,
        membership={v: 0 for v in range(6)},
        parents={0: None, **{v: 0 for v in range(1, 6)}},
        depth_bound=1,
    )
    sc = Superclustering(
        level=1,
        superclusters=[Supercluster(5, frozenset({0}), frozenset(), 0)],
        vertex_bound=3,  # N_V = 6 >= 3, but it is a singleton: N0 holds
        cluster_bound=3,
        count_bound=5,
        depth_bound=2,
    )
    rep = audit_superclustering(g, cl, sc)
    assert rep.passed, rep.findings


def test_audit_nonsingleton_vertex_balance_violation():
    g = generate("complete", {"n": 6})
    cl = _toy_clustering()
    sc = Superclustering(
        level=0,
        superclusters=[
            Supercluster(5, frozenset(range(6)),
                         frozenset({(i, i + 1) for i in range(5)}), 0)
        ],
        vertex_bound=3,
        cluster_bound=10,
        count_bound=5,
        depth_bound=6,
    )
    rep = audit_superclustering(g, cl, sc)
    assert not rep.passed
    assert any(f.startswith("N2") for f in rep.findings)


def _path_audit(groups, vertex_bound, cluster_bound, count_bound, depth_bound):
    """Audit singleton clusters on the path 0..n-1 grouped into
    superclusters of consecutive vertices, each tree the path through its
    group rooted at its smallest vertex."""
    n = max(v for vs in groups for v in vs) + 1
    cl = Clustering(level=0, membership={v: v for v in range(n)},
                    parents={v: None for v in range(n)}, depth_bound=0)
    sc = Superclustering(
        level=0,
        superclusters=[
            Supercluster(max(vs), frozenset(vs),
                         frozenset((v, v + 1) for v in vs[:-1]), vs[0])
            for vs in groups
        ],
        vertex_bound=vertex_bound,
        cluster_bound=cluster_bound,
        count_bound=count_bound,
        depth_bound=depth_bound,
    )
    return audit_superclustering(generate("path", {"n": n}), cl, sc)


def test_audit_superclustering_passes_at_its_bounds():
    # 3 clusters and 3 vertices against N1's 3 and N0's 4, depth 2, 3 superclusters
    rep = _path_audit([[0, 1, 2], [3, 4, 5], [6, 7]], vertex_bound=4,
                      cluster_bound=3, count_bound=3, depth_bound=2)
    assert rep.passed, rep.findings


@pytest.mark.parametrize("groups, bounds, finding", [
    ([[0, 1]], (2, 9, 9, 9), "N0: supercluster 1 has 2 vertices"),
    ([[0, 1, 2, 3]], (9, 3, 9, 9), "N1: supercluster 3 has 4 clusters"),
    ([[0, 1, 2]], (2, 9, 9, 9), "N2: supercluster 2 has 3 vertices"),
    ([[0, 1, 2, 3]], (9, 9, 9, 2), "N3: supercluster 3 tree depth 3 > 2"),
    ([[0], [1], [2]], (9, 9, 2, 9), "3 superclusters exceed bound 2"),
    ([[0, 1], [1, 2]], (9, 9, 9, 9), "supercluster 2 overlaps another supercluster"),
], ids=["N0-at-bound", "N1-over", "N2-over", "N3-deeper", "count-over", "shared-cluster"])
def test_audit_superclustering_flags_one_past_each_bound(groups, bounds, finding):
    rep = _path_audit(groups, *bounds)
    assert not rep.passed
    assert any(f.startswith(finding) for f in rep.findings), rep.findings


def test_audit_ruling_set_boundaries():
    g = generate("path", {"n": 6})
    # separation: distance alpha passes, alpha - 1 does not
    assert audit_ruling_set(g, {0, 4}, {0, 4}, alpha=4, beta=0).passed
    rep = audit_ruling_set(g, {0, 3}, {0, 3}, alpha=4, beta=0)
    assert rep.findings == ["separation: dist(0,3) = 3"]
    # domination: distance beta passes, beta + 1 does not
    assert audit_ruling_set(g, {0, 4}, {0}, alpha=1, beta=4).passed
    rep = audit_ruling_set(g, {0, 4}, {0}, alpha=1, beta=3)
    assert rep.findings == ["domination: candidate 4 at distance 4"]


# -- bound fitting ------------------------------------------------------------


def test_fit_constant_exact():
    lsq, max_ratio = fit_bounds([2.0, 4.0], [1.0, 2.0])
    assert abs(lsq - 2.0) < 1e-12
    assert abs(max_ratio - 2.0) < 1e-12
    # (2*1 + 6*2) / (1 + 4) = 2.8 through the origin, while 6/2 = 3 is the max
    lsq, max_ratio = fit_bounds([2.0, 6.0], [1.0, 2.0])
    assert abs(lsq - 2.8) < 1e-12 and abs(max_ratio - 3.0) < 1e-12


def test_fit_rejects_degenerate():
    with pytest.raises(ValueError):
        fit_bounds([], [])
    with pytest.raises(ValueError):
        fit_bounds([1.0], [0.0])


def test_fit_exponent_recovers_power_law():
    ns = [64, 128, 256, 512]
    ys = [3.0 * n**0.25 for n in ns]
    e, c = fit_exponent(ns, ys)
    assert abs(e - 0.25) < 1e-9
    assert abs(c - 3.0) < 1e-9


# -- stretch oracle -------------------------------------------------------------


def _ref_hop_bfs(adj, src, cap, wanted):
    dist = {src: 0}
    q = deque([src])
    remaining = set(wanted)
    while q and remaining:
        v = q.popleft()
        d = dist[v]
        if cap is not None and d >= cap:
            break
        for u in adj[v]:
            if u not in dist:
                dist[u] = d + 1
                remaining.discard(u)
                q.append(u)
    return dist


def _ref_dijkstra(g, adj, src, cap, wanted):
    dist = {src: 0.0}
    pq = [(0.0, src)]
    remaining = set(wanted)
    while pq and remaining:
        d, v = heapq.heappop(pq)
        if d > dist.get(v, math.inf):
            continue
        remaining.discard(v)
        for u in adj[v]:
            nd = d + g.weight(v, u)
            if nd < dist.get(u, math.inf) and (cap is None or nd <= cap):
                dist[u] = nd
                heapq.heappush(pq, (nd, u))
    return dist


def _sorted_adjacency(h):
    """Spanner adjacency over all base vertices, neighbours in ID order."""
    adj = {v: [] for v in h.base.vertices}
    for u, v in sorted(h.edges):
        adj[u].append(v)
        adj[v].append(u)
    return adj


def ref_verify_stretch(g, h, t):
    """Reference: per-source capped BFS (weighted: Dijkstra) over the
    spanner, rerun uncapped for the targets beyond the cap."""
    adj = _sorted_adjacency(h)
    hist, worst, worst_val, unreachable, checked = {}, None, 0.0, 0, 0
    slack = 1.0 + REL_TOL
    for src in g.vertices:
        if not g.weighted:
            targets = {u: 1.0 for u in g.adj[src] if u > src}
            if not targets:
                continue
            dist = _ref_hop_bfs(adj, src, int(t), set(targets))
            retry = [u for u in targets if u not in dist]
            if retry:
                dist.update(_ref_hop_bfs(adj, src, None, set(retry)))
        else:
            targets = {u: g.weight(src, u) for u in g.adj[src] if u > src}
            if not targets:
                continue
            dist = _ref_dijkstra(g, adj, src, max(targets.values()) * t * slack,
                                 set(targets))
            retry = {u for u in targets if u not in dist}
            if retry:
                dist.update(_ref_dijkstra(g, adj, src, None, retry))
        for u, w in sorted(targets.items()):
            checked += 1
            d = dist.get(u)
            if d is None:
                unreachable += 1
                hist["inf"] = hist.get("inf", 0) + 1
                if not math.isinf(worst_val):
                    worst, worst_val = (src, u), math.inf
                continue
            ratio = d / w
            key = f"{ratio:.3f}" if g.weighted else str(d)
            hist[key] = hist.get(key, 0) + 1
            if ratio > worst_val:
                worst_val, worst = float(ratio), (src, u)
    return StretchReport(t, worst_val, worst, hist, unreachable,
                         worst_val <= t * slack, checked)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from((1, 3, 5, 7)), st.booleans())
def test_verify_stretch_matches_reference_and_allpairs(seed, t, weighted):
    """Sparse-ID graphs with n <= 30, integer weights with ties, and
    spanner subsets that leave edges unreachable or beyond the cap: the
    report equals the reference field by field (histogram order included)
    and equals the Floyd-Warshall report."""
    rng = random.Random(seed)
    ids = rng.sample(range(200), rng.randint(1, 30))
    p = rng.choice((0.1, 0.2, 0.4))
    edges = [(u, v) for u in ids for v in ids if u < v and rng.random() < p]
    weights = {e: float(rng.choice((1, 1, 2, 3))) for e in edges} if weighted else None
    g = Graph(ids, edges, weights)
    h = Spanner(g)
    keep = rng.choice((0.0, 0.3, 0.6, 0.9, 1.0))
    for u, v in g.edges():
        if rng.random() < keep:
            h.add(u, v, "kept")
    rep = verify_stretch(g, h, t)
    ref = ref_verify_stretch(g, h, t)
    assert rep == ref
    assert list(rep.histogram.items()) == list(ref.histogram.items())
    assert rep == verify_stretch_allpairs(g, h, t)


FRACTIONAL_WEIGHTS = (0.1, 0.2, 0.3, 0.7, 1.1, 2.5)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from((1, 3, 5, 7)))
def test_verify_stretch_fractional_weights(seed, t):
    """Non-integer weights, whose path sums round: the report equals the
    reference exactly (histogram order included), and the Floyd-Warshall
    report, which sums in another order, agrees on passing and on the
    maximum stretch within 1e-9.  Spanners are random subsets of g, kept
    whole, or imp3's (with a budget wide enough for the sparse IDs)."""
    rng = random.Random(seed)
    ids = rng.sample(range(200), rng.randint(1, 30))
    p = rng.choice((0.1, 0.2, 0.4))
    edges = [(u, v) for u in ids for v in ids if u < v and rng.random() < p]
    g = Graph(ids, edges, {e: rng.choice(FRACTIONAL_WEIGHTS) for e in edges})
    keep = rng.choice((0.0, 0.3, 0.6, 0.9, 1.0, "imp3"))
    if keep == "imp3":
        h = improved_3_spanner(g, SimConfig(msg_bit_budget=64)).spanner
    else:
        h = _spanner_of(g, [e for e in g.edges() if rng.random() < keep])
    rep = verify_stretch(g, h, t)
    ref = ref_verify_stretch(g, h, t)
    assert rep == ref
    assert list(rep.histogram.items()) == list(ref.histogram.items())
    fw = verify_stretch_allpairs(g, h, t)
    assert rep.passed == fw.passed
    assert rep.max_stretch == fw.max_stretch or abs(rep.max_stretch - fw.max_stretch) < 1e-9


def _sparse_unweighted_case(seed):
    """A path-like random forest H (each vertex hangs off one of the last
    three, so hop distances grow long) in g with random chords, some of
    them between the trees, so that missing edges reach distances 4, 5 and
    beyond and some are unreachable."""
    rng = random.Random(seed)
    ids = rng.sample(range(200), rng.randint(2, 30))
    tree = []
    for i in range(1, len(ids)):
        if rng.random() < 0.9:
            tree.append((ids[rng.randint(max(0, i - 3), i - 1)], ids[i]))
    chords = [(u, v) for u in ids for v in ids if u < v and rng.random() < 0.08]
    g = Graph(ids, tree + chords)
    return g, _spanner_of(g, tree), rng.choice((1, 3, 5, 7))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_verify_stretch_sparse_spanners_far_and_unreachable(seed):
    """Unweighted sparse spanners: the report equals the reference and the
    Floyd-Warshall report field by field, histogram order included."""
    g, h, t = _sparse_unweighted_case(seed)
    _assert_reports_agree(g, h, t)


def test_sparse_spanner_family_reaches_far_distances():
    """The family above covers what the distance-2/3 tests and the ball do
    not settle: distances 4, 5 and beyond, and unreachable pairs."""
    keys = set()
    for seed in range(40):
        g, h, t = _sparse_unweighted_case(seed)
        keys |= set(verify_stretch(g, h, t).histogram)
    assert {"4", "5", "6", "inf"} <= keys, sorted(keys)


def _assert_reports_agree(g, h, t, allpairs=True):
    """verify_stretch equals the reference (and the Floyd-Warshall report),
    field by field with the histogram's insertion order."""
    rep = verify_stretch(g, h, t)
    refs = [ref_verify_stretch(g, h, t)]
    if allpairs:
        refs.append(verify_stretch_allpairs(g, h, t))
    for ref in refs:
        assert rep == ref
        assert list(rep.histogram.items()) == list(ref.histogram.items())
    return rep


def _spanner_of(g, edges):
    h = Spanner(g)
    for u, v in edges:
        h.add(u, v, "kept")
    return h


@pytest.mark.parametrize("edges, kept, first_key", [
    # triangle without its smallest edge: distance 2
    ([(0, 1), (0, 2), (1, 2)], [(0, 2), (1, 2)], "2"),
    # 4-cycle without its smallest edge: distance 3
    ([(0, 1), (1, 2), (2, 3), (0, 3)], [(1, 2), (2, 3), (0, 3)], "3"),
    # two components, the smaller edge left out: unreachable
    ([(0, 1), (2, 3)], [(2, 3)], "inf"),
])
def test_smallest_edge_missing_orders_its_key_before_one(edges, kept, first_key):
    g = Graph(range(4), edges)
    rep = _assert_reports_agree(g, _spanner_of(g, kept), 3)
    assert list(rep.histogram) == [first_key, "1"]
    assert rep.worst_edge == (0, 1)


def test_empty_spanner_every_edge_unreachable():
    g = generate("cycle", {"n": 6})
    rep = _assert_reports_agree(g, Spanner(g), 3)
    assert rep.histogram == {"inf": 6} and rep.unreachable == 6
    assert rep.worst_edge == (0, 1) and not rep.passed


@pytest.mark.parametrize("n", [0, 1, 5])
def test_graph_without_edges(n):
    g = Graph(range(n), [])
    rep = _assert_reports_agree(g, Spanner(g), 3)
    assert rep.histogram == {} and rep.edges_checked == 0
    assert rep.worst_edge is None and rep.max_stretch == 0.0 and rep.passed


def test_spanner_equal_to_graph():
    g = generate("erdos-renyi", {"n": 30, "p": 0.2}, seed=4)
    rep = _assert_reports_agree(g, _full_spanner(g), 3)
    assert rep.histogram == {"1": g.m}
    assert rep.worst_edge == min(g.edge_set) and rep.max_stretch == 1.0


def test_missing_edge_beyond_distance_three():
    # 6-cycle without (2, 3): the detour 2-1-0-5-4-3 has five hops
    g = generate("cycle", {"n": 6})
    h = _spanner_of(g, [e for e in g.edges() if e != (2, 3)])
    rep = _assert_reports_agree(g, h, 3)
    assert list(rep.histogram.items()) == [("1", 5), ("5", 1)]
    assert rep.worst_edge == (2, 3) and not rep.passed


def test_rerun_gives_only_its_own_targets():
    """Source 0 has two targets.  (0, 1) is a spanner edge of weight 10
    with a shortcut 0-10-1 of length 8 through vertex 10 at distance 6;
    (0, 2) is a missing edge of weight 1 at spanner distance 5 > 3, so it
    is searched again without a cap.  That rerun stops once vertex 2 is
    settled at 5, before it pops vertex 10, so its entry for vertex 1 is
    still the direct edge's 10: taking it would report 1.000, not 0.800."""
    kept = {(0, 1): 10.0, (0, 10): 6.0, (1, 10): 2.0,
            (0, 3): 1.0, (3, 4): 1.0, (4, 5): 1.0, (5, 6): 1.0, (2, 6): 1.0}
    g = Graph(range(11), [*kept, (0, 2)], {**kept, (0, 2): 1.0})
    rep = _assert_reports_agree(g, _spanner_of(g, kept), 3)
    assert rep.histogram == {"0.800": 1, "5.000": 1, "1.000": 7}
    assert rep.worst_edge == (0, 2) and rep.max_stretch == 5.0


def test_weighted_search_pushes_nothing_past_its_targets_bounds(monkeypatch):
    """Counting guard on the imp3 spanners of the weighted corpus (ER
    graphs with n = 60..168, p = 0.12, weights 1..9): no distance a
    source's search pushes exceeds the largest bound among that source's
    targets, w for a spanner edge and 3w(1 + REL_TOL) for a missing one,
    and no source searches twice.  A static cap of 3(1 + REL_TOL) times the
    source's heaviest edge pushes past it."""
    pushed = []
    searches = []
    real_search = verify._bounded_search

    def push(heap, item):
        pushed.append(item[0])
        heapq.heappush(heap, item)

    def search(adj, dist, s, *targets):
        pushed.clear()
        found = real_search(adj, dist, s, *targets)
        searches.append((s, max(pushed, default=0.0)))
        return found

    monkeypatch.setattr(verify, "heapq", SimpleNamespace(heappush=push, heappop=heapq.heappop))
    monkeypatch.setattr(verify, "_bounded_search", search)
    total = 0
    for name, g in weighted_corpus():
        h = improved_3_spanner(g).spanner
        searches.clear()
        assert verify_stretch(g, h, 3).passed, name
        assert len({s for s, _ in searches}) == len(searches), name
        for s, top in searches:
            src = g.vertices[s]
            bound = max(g.weight(src, u) * (1.0 if (src, u) in h.edges else 3 * (1 + REL_TOL))
                        for u in g.adj[src] if u > src)
            assert top <= bound, (name, src, top, bound)
        total += len(searches)
    assert total > 1000


@pytest.mark.parametrize("args", [
    ["--alg", "bip3", "--gen", "bip:a=8,b=30,p=0.3"],
    ["--alg", "sparserbip", "--k", "4", "--gen", "bip:a=8,b=30,p=0.3"],
])
def test_bipartite_cli_checks_the_crossing_subgraph(tmp_path, monkeypatch, args):
    """The CLI verifies a bipartite spanner against the crossing subgraph,
    a different Graph object than the spanner's base."""
    calls = []

    def checked(g, h, t):
        calls.append((g, h))
        return _assert_reports_agree(g, h, t)

    monkeypatch.setattr(cli, "verify_stretch", checked)
    assert cli.main(["run", *args, "--out", str(tmp_path / "b")]) == 0
    [(g, h)] = calls
    assert h.base is not g and h.edges <= g.edge_set


@pytest.fixture(scope="module")
def large_spanners():
    """Graphs above the Floyd-Warshall size: the corpus graph with n >= 300
    and a denser one on which imp3 leaves edges out, each with imp3,
    improved k=3 and the Baswana-Sen baseline at k=4."""
    graphs = [
        ("er02-300", dict(corpus())["er02-300"]),
        ("er05-400", generate("erdos-renyi", {"n": 400, "p": 0.05}, seed=0)),
    ]
    out = []
    for name, g in graphs:
        out.append((f"imp3:{name}", g, improved_3_spanner(g).spanner, 3))
        out.append((f"improved-k3:{name}", g, improved_spanner(g, 3).spanner, 5))
        out.append((f"bs-k4:{name}", g, baswana_sen_baseline(g, 4, seed=0).spanner, 7))
    return out


def test_large_spanners_match_reference(large_spanners):
    far = 0
    for label, g, h, t in large_spanners:
        assert g.n >= 300, label
        rep = _assert_reports_agree(g, h, t, allpairs=False)
        far += sum(c for key, c in rep.histogram.items() if key != "inf" and int(key) >= 4)
    assert far > 0  # some missing edge needs the search beyond distance 3


def test_hops_runs_only_for_missing_edges_beyond_distance_four(
    large_spanners, monkeypatch
):
    """Counting guard: the bidirectional search runs once per missing edge
    at distance >= 5 or unreachable, never for a spanner edge and never for
    distances 2 to 4, which the per-source set and ball settle.  Besides
    the large spanners: the path 0-1-2-3-4-5 and the edge (6, 7) in a graph
    that adds the chords (0, 2) to (0, 5) and the edge (5, 6), one missing
    edge at each distance from 2 to 5 and one unreachable."""
    calls = []
    real = verify._hops

    def counted(adj, s, t):
        calls.append((s, t))
        return real(adj, s, t)

    monkeypatch.setattr(verify, "_hops", counted)
    g = Graph(range(8), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 7),
                         (0, 2), (0, 3), (0, 4), (0, 5), (5, 6)])
    h = _spanner_of(g, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 7)])
    cases = [*large_spanners, ("path-chords", g, h, 3)]
    far = 0
    for label, g, h, t in cases:
        hg = Graph(g.vertices, h.edges)
        expected = []
        for u, v in sorted(g.edge_set - h.edges):
            d = bfs_dist(hg, u).get(v)
            if d is None or d >= 5:
                expected.append((u, v))
        calls.clear()
        verify_stretch(g, h, t)
        assert calls == expected, label
        assert not set(calls) & h.edges
        far += len(expected)
    assert calls == [(0, 5), (5, 6)]
    assert far > len(calls)  # the large spanners also reach distance 5


def test_verify_stretch_copies_no_neighbour_sets():
    """Traced peak of ``verify_stretch`` above the live g and H, for imp3 on
    ``er:n=1000,p=0.06`` (seed 0: 29,824 edges, 4,243 missing from H).  A
    copy of every neighbour set of g takes 2.28 MiB there; the check peaked
    at 2.31 MiB above the live graphs when it made that copy, and at
    0.75 MiB with g's neighbour tuples shared and rebuilt only at the
    endpoints of missing edges.  The guard is half of the copy."""
    import gc
    import tracemalloc

    g = generate("erdos-renyi", {"n": 1000, "p": 0.06}, 0)
    h = improved_3_spanner(g).spanner
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        gc.collect()
        before, _ = tracemalloc.get_traced_memory()
        copy = {v: set(ns) for v, ns in g.adj.items()}
        copied = tracemalloc.get_traced_memory()[0] - before
        del copy
        gc.collect()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        rep = verify_stretch(g, h, 3)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert rep.passed and g.m - h.size == 4243
    assert copied > 2**20
    assert peak < copied / 2, (peak, copied)
