import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanner import Graph, bfs_dist, generate, load, save
from spanner.graph import GraphError, _weight_text, with_random_weights

ROOT = Path(__file__).resolve().parent.parent


def test_complete_edge_count():
    g = generate("complete", {"n": 4}, seed=0)
    assert g.m == 6
    g.validate()


def test_complete_bipartite_edge_count():
    g = generate("complete-bipartite", {"a": 2, "b": 4})
    assert g.m == 8
    g.validate()


def test_erdos_renyi_pinned_edge_count():
    # regression value recorded from the first deterministic run
    g = generate("erdos-renyi", {"n": 100, "p": 0.1}, seed=7)
    assert g.m == 495


def test_generate_determinism():
    a = generate("erdos-renyi", {"n": 60, "p": 0.2}, seed=3)
    b = generate("erdos-renyi", {"n": 60, "p": 0.2}, seed=3)
    assert a == b
    c = generate("erdos-renyi", {"n": 60, "p": 0.2}, seed=4)
    assert a != c


def test_invalid_probability_rejected():
    with pytest.raises(GraphError):
        generate("erdos-renyi", {"n": 10, "p": 1.5}, seed=0)


def test_unknown_kind_rejected():
    with pytest.raises(GraphError):
        generate("mystery", {}, seed=0)


@pytest.mark.parametrize("kind, params", [
    ("erdos-renyi", {"n": -5, "p": 0.1}),
    ("path", {"n": -3}),
    ("grid", {"rows": -2, "cols": 3}),
    ("complete", {"n": -2}),
    ("hypercube", {"d": -1}),
    ("path", {"n": 8, "bogus": 3}),
    ("bounded-id", {"n": 8, "q": 0.1}),
    ("complete-bipartite", {"a": 2}),
])
def test_bad_generator_parameters_rejected(kind, params):
    # a negative size, an unknown key or a missing key builds no graph
    with pytest.raises(GraphError):
        generate(kind, params, seed=0)


def test_bounded_id_p_is_optional():
    assert generate("bounded-id", {"n": 30}, seed=4) == generate(
        "bounded-id", {"n": 30, "p": 0.1}, seed=4)


def test_bounded_id_range():
    g = generate("bounded-id", {"n": 50, "p": 0.1}, seed=2)
    assert g.n == 50
    assert all(1 <= v <= 100 for v in g.vertices)
    g.validate()


def test_hypercube_structure():
    g = generate("hypercube", {"d": 4})
    assert g.n == 16 and g.m == 32
    assert all(g.degree(v) == 4 for v in g.vertices)


@pytest.mark.parametrize(
    "kind,params",
    [
        ("path", {"n": 9}),
        ("cycle", {"n": 12}),
        ("grid", {"rows": 3, "cols": 5}),
        ("complete", {"n": 7}),
        ("erdos-renyi", {"n": 40, "p": 0.2}),
        ("random-bipartite", {"a": 5, "b": 9, "p": 0.4}),
        ("bounded-id", {"n": 30, "p": 0.2}),
    ],
)
def test_generator_invariants(kind, params):
    g = generate(kind, params, seed=11)
    g.validate()


def test_save_load_roundtrip_k4(tmp_path):
    g = generate("complete", {"n": 4})
    path = str(tmp_path / "k4.edges")
    save(g, path)
    assert load(path) == g


def test_header_only_isolated_vertices(tmp_path):
    path = str(tmp_path / "iso.edges")
    with open(path, "w") as fh:
        fh.write("n=3\n")
    g = load(path)
    assert g.n == 3 and g.m == 0
    assert g.vertices == (0, 1, 2)


def test_weighted_line_format(tmp_path):
    path = str(tmp_path / "w.edges")
    with open(path, "w") as fh:
        fh.write("0 1 2.5\n")
    g = load(path)
    assert g.weighted and g.weight(0, 1) == 2.5


def test_noncontiguous_ids_roundtrip(tmp_path):
    g = generate("bounded-id", {"n": 20, "p": 0.15}, seed=5)
    path = str(tmp_path / "b.edges")
    save(g, path)
    assert load(path) == g


def test_weighted_roundtrip(tmp_path):
    g = with_random_weights(generate("cycle", {"n": 8}), seed=1)
    path = str(tmp_path / "wc.edges")
    save(g, path)
    assert load(path) == g


def test_weights_roundtrip_exactly(tmp_path):
    # six significant digits would turn these into 1.23457e+06 and 1.23457
    ws = [1234567.0, 1.2345678, 0.1, 1e-7, 2.0 ** 60, 1 / 3, 3.0]
    g = Graph(range(len(ws) + 1), [(i, i + 1) for i in range(len(ws))],
              {(i, i + 1): w for i, w in enumerate(ws)})
    path = str(tmp_path / "exact.edges")
    save(g, path)
    assert load(path) == g
    with open(path) as fh:
        assert fh.read().splitlines()[-1] == "6 7 3"  # integers keep their text


def _joined_save(g, path, edges=None):
    """The writer ``save`` replaced: every line built first, then joined."""
    lines = []
    if g.vertices == tuple(range(g.n)):
        lines.append(f"n={g.n}")
    else:
        lines.append("# vertices: " + " ".join(str(v) for v in g.vertices))
    for u, v in g.edges() if edges is None else edges:
        if g.weights is not None:
            lines.append(f"{u} {v} {_weight_text(g.weights[(u, v)])}")
        else:
            lines.append(f"{u} {v}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_save_writes_the_bytes_of_the_joined_writer(tmp_path):
    # unweighted and weighted (weights that need ``repr``), contiguous and
    # sparse IDs, an empty graph and an edge subset
    bid = generate("bounded-id", {"n": 20, "p": 0.2}, seed=5)
    odd = Graph(range(4), [(0, 1), (1, 2), (2, 3)],
                {(0, 1): 1 / 3, (1, 2): 1234567.0, (2, 3): 2.0})
    cases = [
        (generate("erdos-renyi", {"n": 30, "p": 0.2}, seed=2), None),
        (with_random_weights(generate("grid", {"rows": 3, "cols": 4}), seed=1), None),
        (odd, None),
        (Graph(bid.vertices, bid.edge_set, {e: 0.1 * (e[0] + 1) for e in bid.edge_set}),
         None),
        (Graph([], []), None),
        (Graph([3, 9], []), None),
        (bid, bid.edges()[::3]),
        (odd, [(1, 2)]),
        (bid, []),
    ]
    for i, (g, edges) in enumerate(cases):
        got, want = tmp_path / f"got{i}.edges", tmp_path / f"want{i}.edges"
        save(g, str(got), edges)
        _joined_save(g, str(want), edges)
        assert got.read_bytes() == want.read_bytes(), i


def test_malformed_line_reports_lineno(tmp_path):
    path = str(tmp_path / "bad.edges")
    with open(path, "w") as fh:
        fh.write("0 1\nx y z w\n")
    with pytest.raises(GraphError, match=":2"):
        load(path)


def test_bfs_path_distances():
    g = generate("path", {"n": 4})
    assert bfs_dist(g, 0) == {0: 0, 1: 1, 2: 2, 3: 3}


def test_bfs_hop_cap():
    g = generate("path", {"n": 4})
    d = bfs_dist(g, 0, hop_cap=2)
    assert 3 not in d and d[2] == 2


def test_bfs_bipartite():
    g = generate("complete-bipartite", {"a": 2, "b": 4})
    d = bfs_dist(g, 0)
    assert all(d[b] == 1 for b in range(2, 6))
    assert d[1] == 2


def _reference_distances(g, src):
    # naive O(n*m) relaxation
    dist = {v: math.inf for v in g.vertices}
    dist[src] = 0
    for _ in range(g.n):
        changed = False
        for u, v in g.edges():
            for a, b in ((u, v), (v, u)):
                if dist[a] + 1 < dist[b]:
                    dist[b] = dist[a] + 1
                    changed = True
        if not changed:
            break
    return {v: d for v, d in dist.items() if d < math.inf}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(5, 60))
def test_bfs_matches_naive_reference(seed, n):
    g = generate("erdos-renyi", {"n": n, "p": 3.0 / n}, seed=seed)
    src = g.vertices[0]
    assert bfs_dist(g, src) == _reference_distances(g, src)


def test_subgraph_induced():
    g = generate("complete", {"n": 5})
    sub = g.subgraph({0, 1, 2})
    assert sub.n == 3 and sub.m == 3


def _subgraph_by_edge_scan(g, keep):
    """Reference for ``Graph.subgraph``: every edge of g with both ends kept."""
    ks = set(keep)
    es = [e for e in g.edge_set if e[0] in ks and e[1] in ks]
    w = {e: g.weights[e] for e in es} if g.weights else None
    return Graph(ks, es, w)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_subgraph_matches_edge_scan(seed, weighted):
    """The induced subgraph built from the kept vertices' neighbours equals
    the one built by scanning every edge, weights included, also when the
    kept set names vertices that are not in g."""
    rng = random.Random(seed)
    g = generate("erdos-renyi", {"n": rng.randint(1, 30), "p": rng.random()}, seed=seed)
    g = Graph([3 * v + 1 for v in g.vertices], [(3 * u + 1, 3 * v + 1) for u, v in g.edge_set])
    if weighted:
        g = with_random_weights(g, seed)
    keep = [v for v in g.vertices if rng.random() < 0.6] + rng.sample(range(100), 2)
    sub = g.subgraph(keep)
    ref = _subgraph_by_edge_scan(g, keep)
    assert sub == ref
    assert sub.adj == ref.adj and sub.weighted == ref.weighted


def test_library_import_leaves_numpy_unloaded():
    """numpy loads only with the all-pairs oracle and the fit helpers."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    code = "import sys, spanner, spanner.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_spanner_rejects_foreign_edge():
    from spanner import Spanner

    g = generate("path", {"n": 4})
    h = Spanner(g)
    with pytest.raises(GraphError):
        h.add(0, 3, "bogus")


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 0.0])
def test_weight_must_be_positive_and_finite(bad):
    with pytest.raises(GraphError, match="not positive and finite"):
        Graph([0, 1, 2], [(0, 1), (1, 2)], {(0, 1): bad, (1, 2): 1.0})
    g = Graph([0, 1], [(0, 1)], {(0, 1): 1.0})
    g.weights[(0, 1)] = bad
    with pytest.raises(GraphError, match="not positive and finite"):
        g.validate()


def _write(tmp_path, text):
    path = str(tmp_path / "g.edges")
    with open(path, "w") as fh:
        fh.write(text)
    return path


@pytest.mark.parametrize("text,match", [
    # an infinite weight would make the edge unreachable in verify_stretch
    ("0 1 inf\n1 2 1\n", "not positive and finite"),
    # the second line would silently overwrite the first weight
    ("0 1 2\n1 0 5\n", ":2: repeated weighted edge"),
    # the unweighted repeat hid the mix from a count of distinct edges
    ("0 1 2\n0 1\n", "mixed weighted and unweighted"),
    ("0 1\n1 2 3\n", "mixed weighted and unweighted"),
])
def test_load_rejects_malformed_weights(tmp_path, text, match):
    with pytest.raises(GraphError, match=match):
        load(_write(tmp_path, text))


def test_cli_rejects_malformed_weights(tmp_path):
    from spanner.cli import main

    for text in ("0 1 inf\n", "0 1 2\n1 0 5\n", "0 1 2\n0 1\n"):
        path = _write(tmp_path, text)
        assert main(["run", "--alg", "imp3", "--graph", path,
                     "--out", str(tmp_path / "r")]) == 2, text
