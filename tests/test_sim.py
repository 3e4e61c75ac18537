from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanner import BudgetError, Graph, Msg, NodeProgram, SimConfig, generate, run, sim
from spanner.primitives import _charge_flood, _flood
from spanner.sim import (
    FloodMax,
    NodeView,
    RoundLedger,
    SimError,
    SimTimeout,
    _post,
    default_bit_budget,
)


class HaltNow(NodeProgram):
    name = "halt-now"

    def on_round(self, state, view, rnd, inbox):
        return {}, True


def test_flood_max_path4():
    g = generate("path", {"n": 4})
    out, ledger = run(g, FloodMax())
    assert out == {v: 3 for v in range(4)}
    assert ledger.rounds_used == 3


def test_immediate_halt_zero_rounds():
    g = generate("path", {"n": 4})
    out, ledger = run(g, HaltNow())
    assert out == {v: {} for v in range(4)}  # every vertex keeps its initial state
    assert ledger.rounds_used == 0
    assert ledger.messages_total == 0


class OverBudget(NodeProgram):
    name = "over-budget"

    def __init__(self, bits):
        self.bits = bits

    def on_round(self, state, view, rnd, inbox):
        if rnd == 1:
            return {view.neighbors[0]: Msg(self.bits, "x")}, True
        return {}, True


def test_budget_violation_audit_mode():
    g = generate("complete", {"n": 4})
    budget = default_bit_budget(4)
    cfg = SimConfig(strict=False)
    _, ledger = run(g, OverBudget(budget + 1), cfg)
    assert len(ledger.violations) == 4
    assert ledger.violations[0]["kind"] == "bits"
    assert ledger.max_bits_seen == budget + 1


def test_budget_violation_strict_mode():
    g = generate("complete", {"n": 4})
    with pytest.raises(BudgetError):
        run(g, OverBudget(default_bit_budget(4) + 1), SimConfig(strict=True))


class DoubleSend(NodeProgram):
    name = "double-send"

    def on_round(self, state, view, rnd, inbox):
        if rnd == 1 and view.vid == 0:
            return {view.neighbors[0]: [Msg(8, "a"), Msg(8, "b")]}, True
        return {}, True


def test_congestion_enforced():
    g = generate("path", {"n": 3})
    with pytest.raises(BudgetError):
        run(g, DoubleSend(), SimConfig())


class EchoOnce(NodeProgram):
    """Sends its ID in round 1; records the round each message arrived."""

    name = "echo-once"

    def init(self, view):
        return {"arrivals": []}

    def on_round(self, state, view, rnd, inbox):
        for s, _body in inbox:
            state["arrivals"].append((rnd, s))
        if rnd == 1:
            m = Msg(sim.width(view.id_bits, 1), view.vid)
            return {u: m for u in view.neighbors}, True
        return {}, True

    def on_finish(self, state, view):
        return state["arrivals"]


def test_synchrony_messages_arrive_next_round():
    g = generate("path", {"n": 3})
    out, _ = run(g, EchoOnce())
    assert all(rnd == 2 for arr in out.values() for rnd, _ in arr)


def test_determinism_bit_identical():
    g = generate("erdos-renyi", {"n": 30, "p": 0.2}, seed=5)
    out1, led1 = run(g, FloodMax())
    out2, led2 = run(g, FloodMax())
    assert out1 == out2
    assert led1.to_json() == led2.to_json()


class Scripted(NodeProgram):
    """Sends the outbox its private input holds in round 1 and outputs
    its inbox."""

    def __init__(self, name):
        self.name = name

    def init(self, view):
        return {"out": view.private or {}, "got": []}

    def on_round(self, state, view, rnd, inbox):
        state["got"].extend(inbox)
        return (dict(state["out"]) if rnd == 1 else {}), True

    def on_finish(self, state, view):
        return state["got"]


class Remember(NodeProgram):
    """Outputs the private input its ``init`` read, after a silent round."""

    name = "remember"

    def init(self, view):
        return view.private

    def on_round(self, state, view, rnd, inbox):
        return {}, True


def test_phase_outputs_visible_in_next_init():
    # phase 1 announces labels; phase 2's init reads each vertex's phase-1
    # output through ``private``
    g = generate("path", {"n": 3})
    labels = {v: {u: Msg(8 + g.id_bits, v * 10) for u in g.adj[v]} for v in g.vertices}
    heard, first = run(g, Scripted("announce"), private=labels)
    assert heard[1] == [(0, 0), (2, 20)] and first.rounds_used == 1
    out, second = run(g, Remember(), private=heard)
    assert out == heard
    assert second.rounds_used == 0 and second.messages_total == 0


def _outcome(fn):
    try:
        return fn()
    except SimError as exc:
        return type(exc).__name__, str(exc)


class Sleeper(NodeProgram):
    name = "sleeper"

    def on_round(self, state, view, rnd, inbox):
        return {}, False  # never halts, never sends


def test_stall_guard_raises(monkeypatch):
    monkeypatch.setattr(sim, "STALL_LIMIT", 50)
    g = generate("path", {"n": 3})
    with pytest.raises(SimTimeout):
        run(g, Sleeper(), SimConfig())


def test_stall_counts_only_rounds_that_call_a_vertex(monkeypatch):
    # awake vertices that never send stall; every round of a run calls
    # some vertex, since the run ends at the first round that would not
    monkeypatch.setattr(sim, "STALL_LIMIT", 3)
    g = generate("path", {"n": 3})
    with pytest.raises(SimTimeout, match=r"^program 'sleeper' stalled: 3 vertices "):
        run(g, Sleeper(), SimConfig())


def test_max_rounds_names_program():
    g = generate("path", {"n": 3})
    with pytest.raises(SimTimeout, match="sleeper"):
        run(g, Sleeper(), SimConfig(max_rounds=10))


def test_budget_floor_validated():
    g = generate("complete", {"n": 16})
    with pytest.raises(Exception):
        run(g, HaltNow(), SimConfig(msg_bit_budget=3))


def test_width_is_a_tag_ids_and_one_counter_per_bound():
    # a bound of 0 or 1 takes one bit, 7 takes three and 8 four; an ID
    # field sized by its own largest ID is such a counter
    assert (sim.TAG, sim.width(5), sim.width(5, 2)) == (8, 8, 18)
    assert sim.width(5, 1, 0, 1, 7, 8) == 8 + 5 + 1 + 1 + 3 + 4
    assert sim.width(0, 0, (1 << 19) + 63) == 8 + 20


def test_default_budget_formula():
    assert default_bit_budget(256) == 64
    assert default_bit_budget(4) == 16


def test_ledger_json_shape():
    g = generate("path", {"n": 4})
    _, ledger = run(g, FloodMax())
    j = ledger.to_json()
    assert set(j) >= {"rounds", "max_bits", "per_phase", "violations"}
    assert j["rounds"] == 3


def test_max_rounds_below_one_rejected():
    # a cap below 1 would stop a phase before its first round
    g = generate("path", {"n": 6})
    for cap in (0, -1):
        want = rf"^max_rounds {cap} below 1$"
        with pytest.raises(SimError, match=want):
            SimConfig(max_rounds=cap).check(g)
        with pytest.raises(SimError, match=want):
            run(g, FloodMax(), SimConfig(max_rounds=cap))


# -- the engine against a reference copy of its per-message loop -------------


def _reference_post(g, cfg, budget, ledger, name, rnd, v, outbox, inboxes):
    """Reference send step: every message checked one by one."""
    nbrs = g.adj[v]
    for u in sorted(outbox):
        if u not in g.adj or u not in nbrs:
            raise SimError(f"{name}: vertex {v} sent to non-neighbor {u}")
        msgs = outbox[u]
        if isinstance(msgs, Msg):
            msgs = (msgs,)
        load = len(msgs)
        if load > ledger.per_round_edge_load:
            ledger.per_round_edge_load = load
        if load > 1:
            rec = {"kind": "congestion", "round": rnd, "edge": [v, u],
                   "load": load, "program": name}
            if cfg.strict:
                raise BudgetError(str(rec))
            ledger.violations.append(rec)
        inbox = inboxes.setdefault(u, [])
        for m in msgs:
            if m.bits > budget:
                rec = {"kind": "bits", "round": rnd, "edge": [v, u],
                       "bits": m.bits, "budget": budget, "program": name}
                if cfg.strict:
                    raise BudgetError(str(rec))
                ledger.violations.append(rec)
            if m.bits > ledger.max_bits_seen:
                ledger.max_bits_seen = m.bits
            ledger.messages_total += 1
            inbox.append((v, m.body))


def _reference_run(g, program, cfg):
    """Reference engine loop: all vertices are rescanned every round."""
    cfg.check(g)
    budget = cfg.budget_for(g)
    ledger = RoundLedger()
    views = {}
    states = {}
    for v in g.vertices:
        views[v] = NodeView(v, g.adj[v], None, g.id_bits, budget)
        states[v] = program.init(views[v])
    inboxes = {v: [] for v in g.vertices}
    halted = {v: False for v in g.vertices}
    rnd = 0
    silent = 0
    while True:
        callees = [v for v in g.vertices if not halted[v] or inboxes[v]]
        if not callees:
            break
        rnd += 1
        if rnd > cfg.max_rounds:
            raise SimTimeout(
                f"program {program.name!r} exceeded max_rounds={cfg.max_rounds}"
            )
        if silent > sim.STALL_LIMIT:
            raise SimTimeout(
                f"program {program.name!r} stalled: {len(callees)} vertices "
                f"(e.g. {callees[:5]}) neither halt nor communicate"
            )
        next_in = {}
        sent_before = ledger.messages_total
        for v in callees:
            inbox = inboxes[v]
            if inbox:
                inboxes[v] = []
            outbox, halt = program.on_round(states[v], views[v], rnd, inbox)
            halted[v] = bool(halt)
            if outbox:
                _reference_post(g, cfg, budget, ledger, program.name, rnd, v,
                                outbox, next_in)
        sent_any = ledger.messages_total > sent_before
        if sent_any:
            ledger.rounds_used = rnd
            silent = 0
        else:
            silent += 1
        inboxes.update(next_in)
        if not sent_any and all(halted.values()):
            break
    outputs = {v: program.on_finish(states[v], views[v]) for v in g.vertices}
    ledger.per_phase.append((program.name, ledger.rounds_used))
    return outputs, ledger


class Script(NodeProgram):
    """Vertex v returns ``script[v][r - 1]`` in round r, then halts silently;
    outputs the non-empty inboxes it got, with their rounds."""

    name = "script"

    def __init__(self, script):
        self.script = script

    def init(self, view):
        return []

    def on_round(self, state, view, rnd, inbox):
        if inbox:
            state.append((rnd, list(inbox)))
        steps = self.script.get(view.vid, ())
        return steps[rnd - 1] if rnd <= len(steps) else ({}, True)

    def on_finish(self, state, view):
        return state


@st.composite
def scripts(draw):
    """A graph with n <= 12 and sparse IDs, and up to three scripted rounds
    per vertex: broadcasts of one message, outboxes to a shuffled subset of
    neighbours holding single messages, message lists (loads above one
    message per edge) or empty lists, over-budget bits, sometimes a
    message to a non-neighbour, and halt votes of both kinds."""
    ids = sorted(draw(st.sets(st.integers(0, 40), min_size=1, max_size=12)))
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    g = Graph(ids, [e for e in pairs if draw(st.booleans())])
    msg = st.builds(Msg, st.integers(1, 28), st.integers(0, 9))
    payload = msg | msg | st.lists(msg, max_size=3)
    script = {}
    for v in ids:
        steps = []
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(("quiet", "quiet", "broadcast", "subset")))
            out = {}
            if kind == "broadcast":
                m = draw(msg)
                out = {u: m for u in g.adj[v]}
            elif kind == "subset" and g.adj[v]:
                targets = draw(st.lists(st.sampled_from(g.adj[v]), unique=True))
                out = {u: draw(payload) for u in targets}
            if draw(st.integers(0, 19)) == 0:
                stray = draw(st.integers(0, 41).filter(lambda u: u not in g.adj[v]))
                out[stray] = draw(msg)
            steps.append((out, draw(st.sampled_from((True, True, False)))))
        script[v] = steps
    cfg = SimConfig(msg_bit_budget=draw(st.sampled_from((None, 16, 24))))
    return g, script, cfg


@settings(derandomize=True, max_examples=120, deadline=None)
@given(scripts())
def test_engine_matches_reference_loop(case):
    g, script, base_cfg = case
    for strict in (False, True):
        cfg = replace(base_cfg, strict=strict)

        def reference():
            out, ledger = _reference_run(g, Script(script), cfg)
            return list(out.items()), ledger.to_json()

        def engine():
            out, ledger = run(g, Script(script), cfg)
            return list(out.items()), ledger.to_json()

        assert _outcome(engine) == _outcome(reference)


# -- the broadcast flood -----------------------------------------------------


def _flood_by_post(g, cfg, name, sources, radius, width, offset):
    """Reference for ``_flood`` charged by ``_charge_flood``: every layer
    posted vertex by vertex through the send step, the next layer read
    off the inboxes, once the config passes its check."""
    cfg.check(g)
    ledger = RoundLedger()
    budget = cfg.budget_for(g)
    reached = set(sources)
    layer = sorted(reached)
    sent = 0
    for d in range(radius):
        inboxes = defaultdict(list)
        for v in layer:
            if g.adj[v]:
                outbox = {u: Msg(width, d + 1) for u in g.adj[v]}
                _post(g, cfg, budget, ledger, name, offset + d + 1, v, outbox, inboxes)
        if not inboxes:
            break
        sent += 1
        ledger.rounds_used = offset + sent
        layer = sorted(set(inboxes) - reached)
        reached.update(layer)
    ledger.per_phase.append((name, ledger.rounds_used))
    return reached, sent, ledger


def _charged_flood(g, cfg, name, sources, radius, width, offset):
    """``_flood`` charged to a fresh ledger: the vertices reached, the
    number of rounds that sent and the ledger."""
    ledger = RoundLedger()
    reached, sent = _flood(g, name, sources, radius, offset)
    _charge_flood(g, cfg, ledger, name, sent, width)
    return reached, len(sent), ledger


@st.composite
def broadcast_cases(draw):
    """A graph with n <= 12 (sparse IDs, maybe isolated vertices), sources
    (maybe none), radius 0..4, a round offset, a width from two bits below
    the one-ID floor to ten above it, and a config with a message budget
    at, below or above the width (so sometimes below the floor, which the
    config check rejects), strict or audit."""
    ids = sorted(draw(st.sets(st.integers(0, 300), min_size=1, max_size=12)))
    rng = draw(st.randoms(use_true_random=False))
    p = rng.choice((0.0, 0.15, 0.3, 0.6))
    g = Graph(ids, [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]
                    if rng.random() < p])
    sources = set(rng.sample(ids, rng.randint(0, len(ids))))
    strict = draw(st.booleans())
    width = sim.width(g.id_bits, 1) + draw(st.integers(-2, 10))
    budget = draw(st.sampled_from((width - 1, width, width + 3)))
    cfg = SimConfig(msg_bit_budget=budget, strict=strict)
    return g, cfg, sources, draw(st.integers(0, 4)), width, draw(st.integers(0, 8))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(broadcast_cases())
def test_flood_matches_posting_each_layer(case):
    # the flood's accounting premise: a flood charged whole gets the same
    # messages, rounds, bits, edge load and violations as one posted
    # sender by sender
    g, cfg, sources, radius, width, offset = case

    def charged():
        reached, sent, ledger = _charged_flood(g, cfg, "flood", sources, radius,
                                               width, offset)
        return sorted(reached), sent, ledger.to_json()

    def by_post():
        reached, sent, ledger = _flood_by_post(g, cfg, "flood", sources,
                                               radius, width, offset)
        return sorted(reached), sent, ledger.to_json()

    assert _outcome(charged) == _outcome(by_post)


def test_flood_isolated_source_sends_nothing():
    g = Graph([0, 1, 2], [(1, 2)])
    assert _flood(g, "flood", {0}, 3, 4) == ({0}, [])
    for budget in (16, 11):  # within and over the 12-bit width
        cfg = SimConfig(msg_bit_budget=budget)
        reached, sent, ledger = _charged_flood(g, cfg, "flood", {0}, 3, 12, 4)
        assert (reached, sent) == ({0}, 0)
        assert ledger.to_json() == RoundLedger(per_phase=[("flood", 0)]).to_json()


def test_flood_layers_and_rounds():
    g = generate("path", {"n": 6})
    # round 9: the two ends, one edge each; round 10: vertices 1 and 4
    assert _flood(g, "flood", {0, 5}, 2, 8) == (
        set(range(6)), [(9, [0, 5], None, 2), (10, [1, 4], None, 4)])
    cfg = SimConfig(msg_bit_budget=16)
    reached, sent, ledger = _charged_flood(g, cfg, "flood", {0, 5}, 2, 10, 8)
    assert (reached, sent) == (set(range(6)), 2)
    assert (ledger.rounds_used, ledger.messages_total) == (10, 2 + 4)
    assert (ledger.max_bits_seen, ledger.per_round_edge_load) == (10, 1)
    assert ledger.per_phase == [("flood", 10)]


def test_flood_over_budget_strict_raises_as_post():
    g = Graph(range(5), [(0, u) for u in range(1, 5)])
    outbox = {u: Msg(12, 1) for u in g.adj[0]}
    with pytest.raises(BudgetError) as want:
        _post(g, SimConfig(), 11, RoundLedger(), "flood", 3, 0, outbox, defaultdict(list))
    with pytest.raises(BudgetError) as got:
        _charged_flood(g, SimConfig(msg_bit_budget=11), "flood", {0}, 1, 12, 2)
    assert str(got.value) == str(want.value)


def test_flood_over_budget_audit_records_each_edge():
    g = Graph(range(5), [(0, u) for u in range(1, 5)])
    cfg = SimConfig(msg_bit_budget=11, strict=False)
    ledger = _charged_flood(g, cfg, "flood", {0}, 1, 12, 2)[2]
    assert ledger.violations == [
        {"kind": "bits", "round": 3, "edge": [0, u], "bits": 12, "budget": 11,
         "program": "flood"}
        for u in range(1, 5)
    ]
    assert (ledger.messages_total, ledger.max_bits_seen, ledger.rounds_used) == (4, 12, 3)


def test_library_node_programs():
    # every protocol runs as host-scheduled rounds through the send step;
    # only the demo's FloodMax remains a vertex program
    import importlib
    import pkgutil

    import spanner

    for mod in pkgutil.walk_packages(spanner.__path__, "spanner."):
        importlib.import_module(mod.name)
    found = set()
    stack = [NodeProgram]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.split(".")[0] == "spanner":
                found.add(sub.__name__)
    assert found == {"FloodMax"}


def test_export_lists_resolve():
    # every exported name exists, and the forest helpers are exported as
    # the one Forest class
    import spanner
    import spanner.kspanner

    for pkg in (spanner, spanner.kspanner):
        missing = [name for name in pkg.__all__ if not hasattr(pkg, name)]
        assert missing == [], pkg.__name__
        assert len(set(pkg.__all__)) == len(pkg.__all__)
    assert spanner.Forest is spanner.primitives.Forest
    assert "Forest" in spanner.__all__
