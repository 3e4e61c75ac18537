import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanner import BudgetError, Graph, Msg, NodeProgram, SimConfig, generate, run
from spanner.sim import (
    BitCost,
    FloodMax,
    NodeView,
    RoundLedger,
    SimError,
    SimTimeout,
    _cascade,
    announce,
    default_bit_budget,
    exchange,
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
    out, ledger = run(g, OverBudget(budget + 1), cfg)
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
        run(g, DoubleSend(), SimConfig(congestion_factor=1))
    out, ledger = run(g, DoubleSend(), SimConfig(congestion_factor=2))
    assert ledger.per_round_edge_load == 2


class EchoOnce(NodeProgram):
    """Sends its ID in round 1; records the round each message arrived."""

    name = "echo-once"

    def init(self, view):
        return {"arrivals": []}

    def on_round(self, state, view, rnd, inbox):
        for s, body in inbox:
            state["arrivals"].append((rnd, s))
        if rnd == 1:
            m = view.bits.msg(view.vid, ids=1)
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


def test_phase_outputs_visible_in_next_init():
    g = generate("path", {"n": 3})
    labels = {v: v * 10 for v in g.vertices}
    out = announce(g, SimConfig(), RoundLedger(), "announce", labels, 8 + g.id_bits)
    assert out[1] == {0: 0, 2: 20}


class Scripted(NodeProgram):
    """Reference for ``exchange``: send the precomputed outbox in round 1,
    output the inbox."""

    def __init__(self, name):
        self.name = name

    def init(self, view):
        return {"out": view.private or {}, "got": []}

    def on_round(self, state, view, rnd, inbox):
        state["got"].extend(inbox)
        return (dict(state["out"]) if rnd == 1 else {}), True

    def on_finish(self, state, view):
        return state["got"]


@st.composite
def scripted_rounds(draw):
    """A graph with n <= 12 (sparse IDs), per-vertex outboxes with several
    messages per edge, over-budget bits and empty outboxes, sometimes one
    message to a non-neighbour, and sometimes a budget below the floor."""
    ids = sorted(draw(st.sets(st.integers(0, 40), min_size=1, max_size=12)))
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    g = Graph(ids, [e for e in pairs if draw(st.booleans())])
    budget = default_bit_budget(max(g.n, 2))
    msg = st.builds(Msg, st.integers(1, budget + 4), st.integers(0, 9))
    sometimes = st.sampled_from((True, True, True, False))
    out = {}
    for v in ids:
        if g.adj[v] and draw(sometimes):
            targets = draw(st.lists(st.sampled_from(g.adj[v]), unique=True))
            out[v] = {u: draw(msg | st.lists(msg, max_size=3)) for u in targets}
    stray = not draw(sometimes)
    if stray:
        v = draw(st.sampled_from(ids))
        u = draw(st.integers(0, 41).filter(lambda u: u not in g.adj[v]))
        out.setdefault(v, {})[u] = draw(msg)
    cfg = SimConfig(
        congestion_factor=draw(st.integers(1, 2)),
        msg_bit_budget=None if draw(sometimes) else 4,
    )
    return g, out, cfg, stray


def _outcome(fn):
    try:
        return fn()
    except SimError as exc:
        return type(exc).__name__, str(exc)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(scripted_rounds())
def test_exchange_matches_scripted_run(case):
    g, out, base_cfg, stray = case
    for strict in (False, True):
        cfg = base_cfg.with_(strict=strict)

        def via_exchange():
            ledger = RoundLedger()
            got = exchange(g, cfg, ledger, "scripted", out)
            return got, ledger.to_json()

        def via_run():
            got, ledger = run(g, Scripted("scripted"), cfg, private=out)
            return got, ledger.to_json()

        result = _outcome(via_exchange)
        assert result == _outcome(via_run)
        if (stray or base_cfg.msg_bit_budget) and not strict:
            assert result[0] == "SimError"


class PaddedFloodMax(FloodMax):
    """FloodMax whose messages carry ``pad`` extra bits (0: FloodMax)."""

    def __init__(self, pad):
        self.pad = pad

    def on_round(self, state, view, rnd, inbox):
        out, halt = super().on_round(state, view, rnd, inbox)
        return {u: Msg(m.bits + self.pad, m.body) for u, m in out.items()}, halt


def _flood_max_cascade(g, cfg, pad):
    """FloodMax as a ``_cascade`` step: round 1 calls every vertex, later
    rounds only those with mail, and a vertex forwards an improvement to
    every neighbour but the one it came from."""
    best = {v: v for v in g.vertices}
    bits = BitCost.TAG + g.id_bits + pad

    def step(v, inbox):
        src = None
        improved = not inbox
        for s, body in inbox:
            if body > best[v]:
                best[v], src, improved = body, s, True
        if improved:
            m = Msg(bits, best[v])
            return {u: m for u in g.adj[v] if u != src}
        return None

    ledger = _cascade(g, cfg, PaddedFloodMax.name, g.vertices, step)
    return best, ledger


@st.composite
def flood_cases(draw):
    """A graph with n <= 12 (sparse IDs), a message padding, a budget that
    is the default, below one tagged ID, exactly one or one padded message,
    strict or audit mode, and a round cap of 1-4 or none."""
    ids = sorted(draw(st.sets(st.integers(0, 300), min_size=2, max_size=12)))
    rng = draw(st.randoms(use_true_random=False))
    p = rng.choice((0.2, 0.4, 0.7))
    g = Graph(ids, [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]
                    if rng.random() < p])
    pad = draw(st.sampled_from((3, 0)))
    floor = BitCost.TAG + g.id_bits
    budgets = (floor, floor + pad, None, floor - 1)
    cfg = SimConfig(
        msg_bit_budget=draw(st.sampled_from(budgets)),
        strict=draw(st.booleans()),
        max_rounds=draw(st.sampled_from((SimConfig.max_rounds, 1, 2, 3, 4))),
    )
    return g, pad, cfg


@settings(derandomize=True, max_examples=150, deadline=None)
@given(flood_cases())
def test_cascade_matches_run(case):
    # _cascade's accounting premise: a protocol in which only vertices with
    # mail act gets the same outputs, ledger and errors as under run
    g, pad, cfg = case

    def via_run():
        out, ledger = run(g, PaddedFloodMax(pad), cfg)
        return out, ledger.to_json()

    def via_cascade():
        out, ledger = _flood_max_cascade(g, cfg, pad)
        return out, ledger.to_json()

    assert _outcome(via_cascade) == _outcome(via_run)


class Sleeper(NodeProgram):
    name = "sleeper"

    def on_round(self, state, view, rnd, inbox):
        return {}, False  # never halts, never sends


def test_stall_guard_raises():
    g = generate("path", {"n": 3})
    with pytest.raises(SimTimeout):
        run(g, Sleeper(), SimConfig(stall_limit=50))


def test_max_rounds_names_program():
    g = generate("path", {"n": 3})
    with pytest.raises(SimTimeout, match="sleeper"):
        run(g, Sleeper(), SimConfig(max_rounds=10))


def test_budget_floor_validated():
    g = generate("complete", {"n": 16})
    with pytest.raises(Exception):
        run(g, HaltNow(), SimConfig(msg_bit_budget=3))


def test_default_budget_formula():
    assert default_bit_budget(256) == 64
    assert default_bit_budget(4) == 16


def test_ledger_json_shape():
    g = generate("path", {"n": 4})
    _, ledger = run(g, FloodMax())
    j = ledger.to_json()
    assert set(j) >= {"rounds", "max_bits", "per_phase", "violations"}
    assert j["rounds"] == 3


def test_congestion_factor_below_one_rejected():
    g = generate("path", {"n": 3})
    with pytest.raises(SimError, match="congestion_factor 0"):
        run(g, FloodMax(), SimConfig(congestion_factor=0))
    with pytest.raises(SimError):
        exchange(g, SimConfig(congestion_factor=0), RoundLedger(), "x", {})


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
        if load > cfg.congestion_factor:
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
    bits = BitCost(g)
    ledger = RoundLedger()
    views = {}
    states = {}
    for v in g.vertices:
        views[v] = NodeView(v, g.adj[v], None, bits, budget)
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
        if silent > cfg.stall_limit:
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
    neighbours holding single messages, message lists (loads above the
    congestion factor) or empty lists, over-budget bits, sometimes a
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
    cfg = SimConfig(
        congestion_factor=draw(st.integers(1, 2)),
        msg_bit_budget=draw(st.sampled_from((None, 16, 24))),
    )
    return g, script, cfg


@settings(derandomize=True, max_examples=120, deadline=None)
@given(scripts())
def test_engine_matches_reference_loop(case):
    g, script, base_cfg = case
    for strict in (False, True):
        cfg = base_cfg.with_(strict=strict)

        def reference():
            out, ledger = _reference_run(g, Script(script), cfg)
            return list(out.items()), ledger.to_json()

        def engine():
            out, ledger = run(g, Script(script), cfg)
            return list(out.items()), ledger.to_json()

        assert _outcome(engine) == _outcome(reference)


def test_active_set_must_name_vertices():
    g = generate("path", {"n": 3})
    with pytest.raises(SimError, match=r"^cascade: active non-vertices \[7, 9\]$"):
        _cascade(g, SimConfig(), "cascade", {0, 9, 7}, lambda v, inbox: None)
