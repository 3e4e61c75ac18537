import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanner import BudgetError, Graph, Msg, NodeProgram, SimConfig, generate, run
from spanner.sim import (
    FloodMax,
    RoundLedger,
    SimError,
    SimTimeout,
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
