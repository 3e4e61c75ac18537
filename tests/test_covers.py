"""The low-expansion covers of a level run in one helper,
``zero.cover_low_expansion``.  It must build what the per-cluster path it
replaced built, a bipartite instance and a recursion per cluster, each
merged into its own parallel phase: the same ledger (``per_phase``
included), edges, provenance in insertion order and bipartite-instance
trace, in strict mode, in audit mode at the budget floor and under a
round cap."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanner import Bipartition, SimConfig, generate, improved_spanner
from spanner.graph import Spanner
from spanner.kspanner import improved, starbip, zero
from spanner.pins import CORPUS_SPEC
from spanner.sim import RoundLedger, SimError

SRC = Path(__file__).resolve().parent.parent / "src" / "spanner"


def per_cluster_covers(g, k, cfg, ledger, H, covers, excluded, tags, name):
    """The per-cluster path: every cover builds its bipartite instance
    graph and runs ``sparser_bipartite_spanner`` on it (a one-vertex
    cover included), recurses inside, and re-adds every kept edge
    through ``Spanner.add``; the covers' ledgers merge into one parallel
    phase."""
    sub_ledgers, outsides = [], []
    for members in covers:
        mset = set(members)
        cross = [(v, u) for v in members for u in g.adj[v]
                 if u not in mset and u not in excluded]
        outside = {u for _v, u in cross}
        if cross:
            bip = g.edge_subgraph(mset | outside, cross)
            res = starbip.sparser_bipartite_spanner(
                bip, Bipartition(mset, outside), k, cfg)
            for e in sorted(res.spanner.edges):
                H.add(*e, tags[0])
            sub_ledgers.append(res.ledger)
        if any(u in mset for v in members for u in g.adj[v]):
            res = improved.improved_spanner(g.subgraph(mset), k, cfg)
            for e in sorted(res.spanner.edges):
                H.add(*e, tags[1])
            sub_ledgers.append(res.ledger)
        outsides.append(outside)
    if sub_ledgers:
        ledger.extend_parallel(sub_ledgers, name=name)
    return outsides


def _outcome(g, k, cfg=None, per_cluster=False):
    """What ``improved_spanner`` builds, with the helper or with the
    per-cluster path (also in its recursions): the ledger JSON, the edges,
    the provenance in insertion order and the bipartite instances, or the
    error it raises."""
    with pytest.MonkeyPatch.context() as mp:
        if per_cluster:
            mp.setattr(zero, "cover_low_expansion", per_cluster_covers)
            mp.setattr(improved, "cover_low_expansion", per_cluster_covers)
        try:
            res = improved_spanner(g, k, cfg)
        except SimError as exc:
            return type(exc).__name__, str(exc)
    return (res.ledger.to_json(), sorted(res.spanner.edges),
            list(res.spanner.provenance.items()),
            res.trace.get("bipartite_instances"))


def _same(g, k, cfg=None):
    got = _outcome(g, k, cfg)
    assert got == _outcome(g, k, cfg, per_cluster=True)
    return got


@pytest.mark.parametrize("name, kind, params, seed", CORPUS_SPEC,
                         ids=[spec[0] for spec in CORPUS_SPEC])
def test_helper_matches_the_per_cluster_path_on_the_corpus(name, kind, params, seed):
    g = generate(kind, params, seed)
    for k in (3, 4, 5, 6):
        _same(g, k)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(n=st.integers(64, 110), p=st.sampled_from([0.02, 0.04, 0.08, 0.15]),
       seed=st.integers(0, 10 ** 6), k=st.integers(3, 5))
def test_helper_matches_the_per_cluster_path_on_random_graphs(n, p, seed, k):
    _same(generate("erdos-renyi", {"n": n, "p": p}, seed), k)


def test_helper_matches_the_per_cluster_path_in_audit_mode():
    # at the budget floor the larger instances overrun it, and their
    # violation records reach the ledger in cover order
    g = generate("erdos-renyi", {"n": 300, "p": 0.02}, 13)
    ledger = _same(g, 4, SimConfig(strict=False, msg_bit_budget=8 + g.id_bits))[0]
    assert ledger["violations"]
    assert any(name.startswith("sc-cover:") for name in
               (phase["name"] for phase in ledger["per_phase"]))


def test_helper_matches_the_per_cluster_path_under_a_round_cap():
    # a cap of 5 passes every phase before the covers and stops a larger
    # instance's star-graph BFS inside them; a cap of 32 passes the build
    g = generate("grid", {"rows": 12, "cols": 16})
    assert _same(g, 4, SimConfig(max_rounds=5)) == (
        "SimTimeout", "program 'star-bfs' exceeded max_rounds=5")
    ledger = _same(g, 4, SimConfig(max_rounds=32))[0]
    assert any(phase["name"] == "sc-cover:P1" for phase in ledger["per_phase"])


def test_one_vertex_cover_is_its_star_formation_round():
    # on the path 0..9 with 3 excluded, the covers {4} and {1} need no
    # sub-build, and {6, 7} runs one: the helper and the per-cluster path
    # agree on all three
    g = generate("path", {"n": 10})
    cfg = SimConfig().resolved(g)
    got = []
    for run in (zero.cover_low_expansion, per_cluster_covers):
        H, ledger = Spanner(g), RoundLedger()
        outsides = run(g, 3, cfg, ledger, H, [[4], [6, 7], [1]], {3},
                       ("bip", "rec"), "cover")
        got.append((ledger.to_json(), list(H.provenance.items()),
                    [set(o) for o in outsides]))
    assert got[0] == got[1]
    assert got[0][2] == [{5}, {5, 8}, {0, 2}]
    # the one-vertex covers alone: one round, a message from each outside
    # vertex, at the widest instance's own ID width ({4, 5}: 3 bits)
    H, ledger = Spanner(g), RoundLedger()
    zero.cover_low_expansion(g, 3, cfg, ledger, H, [[4], [1]], {3},
                             ("bip", "rec"), "cover")
    assert ledger.to_json() == RoundLedger(
        rounds_used=1, max_bits_seen=8 + 3, per_round_edge_load=1,
        messages_total=1 + 2, per_phase=[("cover", 1)]).to_json()
    assert list(H.provenance.items()) == [
        ((4, 5), "bip"), ((0, 1), "bip"), ((1, 2), "bip")]
    # a cover with every neighbour excluded sends nothing, and no phase
    # is merged when no instance ran
    ledger = RoundLedger()
    assert zero.cover_low_expansion(g, 3, cfg, ledger, Spanner(g), [[4]], {3, 5},
                                    ("bip", "rec"), "cover") == [[]]
    assert ledger.per_phase == []


# -- one helper for every cover ----------------------------------------------


COVER_CALLS = {"sparser_bipartite_spanner", "edge_subgraph"}


def _calls(fn):
    """Names of the functions ``fn`` calls, by name or as an attribute,
    with the ``name`` argument of each ``extend_parallel`` call."""
    names, parallel = set(), []
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            names.add(called)
            if called == "extend_parallel":
                parallel += [ast.unparse(kw.value) for kw in node.keywords
                             if kw.arg == "name"] + [ast.unparse(a) for a in node.args[1:]]
    return names, parallel


def _cover_callers(source):
    """The top-level functions of ``source`` that build a cover: call
    ``sparser_bipartite_spanner`` or ``edge_subgraph``, or merge a
    parallel phase whose name mentions a cover."""
    callers = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            names, parallel = _calls(node)
            if names & COVER_CALLS or any("cover" in p for p in parallel):
                callers.add(node.name)
    return callers


def test_only_the_helper_builds_covers():
    # a second per-cluster cover loop would call the bipartite spanner or
    # build an instance graph itself, or merge its own cover phase
    assert _cover_callers(
        "def a(g):\n    return g.edge_subgraph(vs, es)\n"
        "def b(g):\n    ledger.extend_parallel(leds, name=f'sc-cover:P{i}')\n"
        "def c(g):\n    ledger.extend_parallel(leds, name='regroup')\n"
        "def d(g):\n    return starbip.sparser_bipartite_spanner(g, part, 3)\n"
    ) == {"a", "b", "d"}
    found = {path.name: _cover_callers(path.read_text())
             for path in sorted((SRC / "kspanner").glob("*.py"))}
    assert {"zero.py", "improved.py", "starbip.py"} <= set(found)
    assert {name: fns for name, fns in found.items() if fns} == {
        "zero.py": {"cover_low_expansion"}}
