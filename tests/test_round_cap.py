"""One round-cap rule for every host-scheduled phase: a phase whose last
message goes out in round R needs round R + 1 to deliver it, so it passes
at ``max_rounds = R + 1`` and raises SimTimeout at ``max_rounds = R``.
Only ``sim`` applies the rule, and the cap is the one round limit a
``SimConfig`` carries."""

import ast
from pathlib import Path

import pytest

from spanner import Bipartition, SimConfig, generate
from spanner.clustering import WeightedTree
from spanner.graph import Spanner, canon
from spanner.kspanner import starbip
from spanner.kspanner.common import _charge_stream, connect, label_contacts, signal
from spanner.primitives import (
    Forest,
    grow_bfs_clusters,
    partition_tree,
    ruling_set_log,
    ruling_set_power,
)
from spanner.sim import RoundLedger, SimError, SimTimeout
from spanner.spanner3 import bipartite_3_spanner

SRC = Path(__file__).resolve().parent.parent / "src" / "spanner"

# the 5-path 0-1-2-3-4: id_bits 3, default budget 19 bits, so a chunk
# of an ID stream holds 3 IDs
PATH5 = generate("path", {"n": 5})
# the 5-path as one tree "t" rooted at 0, every vertex a member
CHAIN = {(v, "t"): v - 1 if v else None for v in range(5)}
IN_CHAIN = dict.fromkeys(range(5), "t")
# stars 0: [1], 2: [3] and 4: [] on the 5-path
STARS5 = starbip.StarState({0, 2, 4}, {1, 3})
starbip._form_stars(PATH5, SimConfig(), RoundLedger(), STARS5, Spanner(PATH5))
TREE5 = WeightedTree(edges=frozenset(canon(v, v + 1) for v in range(4)), root=0,
                     weights=dict.fromkeys(range(5), 1), bound=2)


def _fresh(step):
    """Run ``step(cfg, ledger)`` on a fresh ledger and return the ledger."""
    def call(cfg):
        ledger = RoundLedger()
        step(cfg, ledger)
        return ledger
    return call


# helper -> (a call with the config that returns the run's ledger, the
# phase that sends last, its last sending round R)
CHARGED = {
    "label_contacts": (_fresh(lambda cfg, led: label_contacts(
        PATH5, cfg, led, "labels", {2: 7, 4: 7})), "labels", 1),
    "signal": (_fresh(lambda cfg, led: signal(
        PATH5, cfg, led, "sig", [(0, 1), (2, 1)])), "sig", 1),
    "connect": (_fresh(lambda cfg, led: connect(
        PATH5, cfg, led, Spanner(PATH5), "con", [(3, 4, "pick")])), "con", 1),
    # 7 IDs: three chunks and the end marker
    "_charge_stream.gather": (_fresh(lambda cfg, led: _charge_stream(
        PATH5, cfg, led, "gather", {1: {0: list(range(7))}})), "gather", 4),
    "_charge_stream.scatter": (_fresh(lambda cfg, led: _charge_stream(
        PATH5, cfg, led, "scatter", {2: {1: [4], 3: list(range(4))}})), "scatter", 3),
    # a pass charged under its caller's phase name still names itself
    "Forest.aggregate": (_fresh(lambda cfg, led: Forest(
        PATH5, cfg, led, CHAIN, IN_CHAIN).aggregate("sizes", dict.fromkeys(range(5), 1))),
        "forest-aggregate", 4),
    "Forest.broadcast": (_fresh(lambda cfg, led: Forest(
        PATH5, cfg, led, CHAIN, IN_CHAIN).broadcast("sizes", {"t": 1})),
        "forest-broadcast", 4),
    "bipartite_3_spanner": (lambda cfg: bipartite_3_spanner(
        PATH5, Bipartition({0, 2, 4}, {1, 3}), cfg).ledger, "star-spanner", 2),
    "grow_bfs_clusters": (_fresh(lambda cfg, led: grow_bfs_clusters(
        PATH5, cfg, led, "grow", {0}, 4)), "grow-clusters", 4),
    # radius 2: the min-flood and the hop-flood each send in rounds 1 and 2
    "ruling_set_power": (lambda cfg: ruling_set_power(PATH5, {0}, 1, cfg)[1],
                         "min-flood", 2),
    # bit 2: candidate 1 floods rounds 1-3 and knocks out 4; bit 1: rounds
    # 5-7; bit 0: 1 has the bit set and nobody floods
    "ruling_set_log": (_fresh(lambda cfg, led: ruling_set_log(
        PATH5, cfg, led, "ruling", {1, 4})), "ruling-set-log", 7),
    # the BFS from star 0 reaches star 2 in hop 1 and star 4 in hop 2, whose
    # leader announces in round 8; hop 3 of the schedule sends nothing
    "star-bfs": (_fresh(lambda cfg, led: starbip._grow_star_clusters(
        PATH5, cfg, led, STARS5, {0}, 3)), "star-bfs", 8),
    # reports climb in rounds 1-4, and root 0 assigns its part in round 5
    "partition_tree": (_fresh(lambda cfg, led: partition_tree(TREE5, cfg, led)),
                       "tree-partition", 5),
}


@pytest.mark.parametrize("cfg, text", [
    pytest.param(SimConfig(msg_bit_budget=2), "msg_bit_budget 2 below minimum 11",
                 id="budget"),
    pytest.param(SimConfig(max_rounds=0), "max_rounds 0 below 1", id="cap"),
])
@pytest.mark.parametrize("helper", sorted(CHARGED))
def test_helper_rejects_an_invalid_config(helper, cfg, text):
    # ``sim._charge`` checks the config of every phase it charges; the
    # one-ID floor on the 5-path is 8 + 3 bits
    with pytest.raises(SimError) as exc:
        CHARGED[helper][0](cfg)
    assert (type(exc.value), str(exc.value)) == (SimError, text)


@pytest.mark.parametrize("helper", sorted(CHARGED))
def test_phase_needs_the_round_after_its_last_send(helper):
    call, name, last = CHARGED[helper]
    ledger = call(SimConfig(max_rounds=last + 1))
    assert max(rounds for _name, rounds in ledger.per_phase) == last
    with pytest.raises(SimTimeout) as exc:
        call(SimConfig(max_rounds=last))
    assert str(exc.value) == f"program {name!r} exceeded max_rounds={last}"


def test_silent_phases_pass_at_a_cap_of_one():
    # nothing sent, no round to deliver: R = 0 < 1
    cfg = SimConfig(max_rounds=1)
    ledger = RoundLedger()
    signal(PATH5, cfg, ledger, "sig", [])
    _charge_stream(PATH5, cfg, ledger, "scatter", {})
    grow_bfs_clusters(PATH5, cfg, ledger, "grow", (), 3)
    assert ledger.to_json() == RoundLedger(
        per_phase=[("sig", 0), ("scatter", 0), ("grow", 0)]).to_json()


RULE_HELPERS = {"_admit", "_overrun", "_cap"}
# the vertex-program round loop and what only it uses
ROUND_LOOP = {"run", "_post", "STALL_LIMIT", "Msg"}


def test_guarded_names_exist_in_sim():
    # a guard over a name sim no longer defines guards nothing, so a
    # rename must fail here rather than leave the guards below vacuous
    from spanner import sim

    assert [name for name in sorted(RULE_HELPERS | ROUND_LOOP)
            if not hasattr(sim, name)] == []


def test_only_sim_applies_the_rule():
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "sim.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                named = {alias.name for alias in node.names}
                assert not named & RULE_HELPERS, (path.name, sorted(named & RULE_HELPERS))


def test_only_sim_runs_the_round_loop():
    # every library phase is host-scheduled and enters the ledger through
    # ``_charge``; the package root re-exports ``run`` and the ``Msg`` that
    # a NodeProgram run by it sends, and nothing else of the loop
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "sim.py":
            continue
        used = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        allowed = {"Msg", "run"} if path == SRC / "__init__.py" else set()
        assert not used & ROUND_LOOP - allowed, (path.name, sorted(used & ROUND_LOOP))


def test_only_the_entry_points_check_the_config():
    # ``sim._charge`` checks the config of every phase; outside sim only
    # the CLI and the 3-spanner, which may charge no phase at all, check it
    callers = set()
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "sim.py":
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "check"
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "cfg"):
                    callers.add((path.name, top.name))
    assert callers == {("cli.py", "cmd_run"), ("spanner3.py", "improved_3_spanner")}


def _is_tag(node):
    return ((isinstance(node, ast.Name) and node.id == "TAG")
            or (isinstance(node, ast.Attribute) and node.attr == "TAG")
            or (isinstance(node, ast.Constant) and type(node.value) is int
                and node.value == 8))


def test_only_sim_builds_a_message_width():
    # ``sim.width`` is the one formula for a message's bits: outside sim,
    # and graph, which sizes ``id_bits``, no module names ``BitCost``,
    # adds to the tag or to a literal 8, or sizes a counter itself
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name in ("sim.py", "graph.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                hit = _is_tag(node.left) or _is_tag(node.right)
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
                hit = _is_tag(node.target) or _is_tag(node.value)
            elif isinstance(node, ast.Call):
                hit = (isinstance(node.func, ast.Attribute)
                       and node.func.attr == "bit_length")
            elif isinstance(node, ast.ImportFrom):
                hit = any(alias.name == "BitCost" for alias in node.names)
            else:
                hit = (isinstance(node, ast.Name) and node.id == "BitCost"
                       or isinstance(node, ast.Attribute) and node.attr == "BitCost")
            if hit:
                found.append((path.name, node.lineno))
    assert found == []


def test_sim_config_fields():
    tree = ast.parse((SRC / "sim.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "SimConfig")
    fields = [node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)]
    assert fields == ["msg_bit_budget", "max_rounds", "strict"]


LEDGER_FIELDS = {"rounds_used", "per_phase", "messages_total", "max_bits_seen",
                 "per_round_edge_load", "violations"}


def test_only_sim_writes_the_ledger():
    # every library phase enters its ledger through ``sim._charge``; only
    # sim (that helper, the vertex-program loop and the RoundLedger
    # merges) assigns to, appends to or extends a ledger field
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "sim.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                written = [t.attr for t in targets if isinstance(t, ast.Attribute)]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("append", "extend")
                  and isinstance(node.func.value, ast.Attribute)):
                written = [node.func.value.attr]
            else:
                continue
            assert not LEDGER_FIELDS.intersection(written), (path.name, node.lineno)


@pytest.mark.parametrize("helper", ["grow_bfs_clusters", "ruling_set_log",
                                    "ruling_set_power"])
def test_each_flood_phase_is_one_charge(helper, monkeypatch):
    import spanner.primitives as primitives

    charged = []
    real = primitives._charge

    def spy(g, cfg, ledger, name, *rest):
        charged.append(name)
        real(g, cfg, ledger, name, *rest)

    monkeypatch.setattr(primitives, "_charge", spy)
    ledger = CHARGED[helper][0](SimConfig())
    assert charged == [name for name, _rounds in ledger.per_phase]
