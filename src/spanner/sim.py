"""Round-synchronous CONGEST execution engine.

Per round every vertex may send at most one bounded-size message over each
incident edge; a message sent in round r is delivered in round r+1.
Execution is bit-deterministic: vertices act in ID order, so every inbox
arrives sorted by sender.  ``rounds_used`` is the last round that carried
a message.

One round-cap rule holds for every phase (``_cap``): a phase whose last
message goes out in round R needs round R+1 to deliver it, so it raises
SimTimeout when R >= ``max_rounds``.  One helper, ``_admit``, holds the
per-message send rules (neighbours only, one message per edge and round,
the bit budget), raising or recording each violation.  One formula,
:func:`width`, gives every message its bits.

:func:`run` is the reference engine: it executes a :class:`NodeProgram`
(hooks ``init(view)``, ``on_round(state, view, rnd, inbox) -> (outbox,
halt_vote)`` and ``on_finish(state, view)``) round by round and posts
every outbox through the send step, ``_post``.  Demo 01 and the tests'
reference programs use it; no library phase does.  Each of those is
scheduled on the host and enters its ledger through one helper,
``_charge``, once its host code has run: it checks the config
(``SimConfig.check``) before anything else.  No module but this one
writes a ledger field: ``_charge``, ``run`` and the ``RoundLedger``
merges are the only writers.  No library phase builds inboxes: the
receivers read what was sent on the host.  Each phase charges one entry
to the ledger its caller passes, under the caller's phase name where
the caller picks one, its records and errors naming the step itself
(``_charge``'s ``label``).  A run of many phases (the power-graph ruling
set's waves, a whole construction) keeps a ledger of its own, which its
caller folds into one entry: ``RoundLedger.extend_sequential`` after its
own phases, ``extend_parallel`` for runs side by side.

Every library phase sends one message per edge and round, to
neighbours, so within the budget it can violate nothing and handles no
message objects: ``_charge`` folds each phase into the ledger at once,
at its widest message.  Over the budget ``_overrun`` first checks its messages
one by one, each at its own width.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import (
    Any, Callable, Collection, Dict, List, Optional, Sequence, Tuple,
)

from .graph import Graph


class SimError(RuntimeError):
    pass


class BudgetError(SimError):
    """Strict-mode message budget or congestion violation."""


class SimTimeout(SimError):
    """max_rounds exceeded before global halt."""


STALL_LIMIT = 20_000  # consecutive silent rounds before run reports a deadlock


def default_bit_budget(n: int) -> int:
    """ceil(8 * log2 n); 16 bits for n <= 2, where that leaves no room for
    a tagged ID plus a counter."""
    if n <= 2:
        return 16
    return math.ceil(8 * math.log2(n))


@dataclass
class SimConfig:
    msg_bit_budget: Optional[int] = None  # None => ceil(8 log2 n) at run time
    max_rounds: int = 1_000_000
    strict: bool = True

    def budget_for(self, g: Graph) -> int:
        if self.msg_bit_budget is not None:
            return self.msg_bit_budget
        return default_bit_budget(g.n)

    def check(self, g: Graph) -> int:
        """Every budget must fit one tagged vertex ID, and the round cap
        must let round 1 run.  Returns the budget it checked."""
        b = self.budget_for(g)
        floor = width(g.id_bits, 1)
        if b < floor:
            raise SimError(f"msg_bit_budget {b} below minimum {floor}")
        if self.max_rounds < 1:
            raise SimError(f"max_rounds {self.max_rounds} below 1")
        return b

    def resolved(self, g: Graph) -> "SimConfig":
        """Freeze the bit budget at this graph's size so sub-simulations on
        smaller pieces keep the global budget."""
        if self.msg_bit_budget is not None:
            return self
        return replace(self, msg_bit_budget=self.budget_for(g))


class Msg:
    """A message: payload body plus its accounted bit size."""

    __slots__ = ("bits", "body")

    def __init__(self, bits: int, body: Any):
        self.bits = bits
        self.body = body

    def __repr__(self):
        return f"Msg({self.bits}b, {self.body!r})"


TAG = 8  # the bits of a message's kind tag


def width(id_bits: int, ids: int = 0, *bounds: int) -> int:
    """The one formula for a message's bits: a ``TAG``-bit tag, ``ids``
    vertex IDs of ``id_bits`` bits each, and per value bound one counter
    of ``max(1, bound.bit_length())`` bits.  An ID field the run's
    ``id_bits`` does not size is a counter bounded by the largest ID."""
    bits = TAG + ids * id_bits
    for bound in bounds:
        bits += bound.bit_length() or 1
    return bits


@dataclass
class RoundLedger:
    """Per-run accounting of rounds, message bits, and per-edge congestion."""

    rounds_used: int = 0
    max_bits_seen: int = 0
    per_round_edge_load: int = 0
    messages_total: int = 0
    violations: List[dict] = field(default_factory=list)
    per_phase: List[Tuple[str, int]] = field(default_factory=list)

    def extend_sequential(self, other: "RoundLedger", name: str):
        """Fold a run of many phases, held in a ledger of its own, that ran
        after this ledger's phases into one entry ``name``."""
        self.extend_parallel([other], name)

    def extend_parallel(self, others: List["RoundLedger"], name: str):
        """Merge ledgers of simulations that ran side by side (rounds = max)."""
        if not others:
            return
        worst = max(o.rounds_used for o in others)
        self.rounds_used += worst
        for o in others:
            self.max_bits_seen = max(self.max_bits_seen, o.max_bits_seen)
            self.per_round_edge_load = max(
                self.per_round_edge_load, o.per_round_edge_load
            )
            self.messages_total += o.messages_total
            self.violations.extend(o.violations)
        self.per_phase.append((name, worst))

    def to_json(self) -> dict:
        return {
            "rounds": self.rounds_used,
            "max_bits": self.max_bits_seen,
            "max_edge_load": self.per_round_edge_load,
            "messages": self.messages_total,
            "per_phase": [{"name": n, "rounds": r} for n, r in self.per_phase],
            "violations": self.violations,
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


class NodeView:
    """Everything a vertex knows when a run starts: its ID, its sorted
    neighbor IDs, its private input (carry-over state from earlier
    phases), the run's ID width (``id_bits``, for :func:`width`) and its
    per-message bit budget.  Nothing else of the graph is reachable from
    here."""

    __slots__ = ("vid", "neighbors", "private", "id_bits", "budget")

    def __init__(self, vid: int, neighbors, private, id_bits: int, budget: int):
        self.vid = vid
        self.neighbors = neighbors
        self.private = private
        self.id_bits = id_bits
        self.budget = budget


class NodeProgram:
    """Base class; subclasses override the three hooks."""

    name = "program"

    def init(self, view: NodeView) -> Any:
        return {}

    def on_round(self, state, view: NodeView, rnd: int, inbox) -> Tuple[dict, bool]:
        raise NotImplementedError

    def on_finish(self, state, view: NodeView) -> Any:
        return state


Send = Tuple[int, int, int, int]  # (round, sender, receiver, bits)


def _admit(g: Graph, cfg: SimConfig, ledger: RoundLedger, name: str, rnd: int,
           v: int, u: int, widths: Sequence[int], budget: int) -> None:
    """The send rules for the messages, of ``widths`` bits each, that
    vertex v sends u in round ``rnd``, in this order: a receiver that is
    not v's neighbour raises SimError; more than one message over the
    edge is congestion, and each message above ``budget`` is a bits
    violation, each of them raising BudgetError (strict) or recorded."""
    if u not in g.adj or u not in g.adj[v]:
        raise SimError(f"{name}: vertex {v} sent to non-neighbor {u}")
    recs = [{"kind": "congestion", "round": rnd, "edge": [v, u],
             "load": len(widths), "program": name}] if len(widths) > 1 else []
    recs += [{"kind": "bits", "round": rnd, "edge": [v, u], "bits": bits,
              "budget": budget, "program": name} for bits in widths if bits > budget]
    for rec in recs:
        if cfg.strict:
            raise BudgetError(str(rec))
        ledger.violations.append(rec)


def _overrun(
    g: Graph,
    cfg: SimConfig,
    ledger: RoundLedger,
    name: str,
    sends: Sequence[Send],
    budget: int,
) -> int:
    """The send rules over the (round, sender, receiver, bits) messages
    of ``sends``, one message at a time and in that order: a message in a
    round past the cap raises SimTimeout (:func:`_cap` on the round
    before it), then :func:`_admit` applies.  Returns the widest
    message's bits (0: none)."""
    cap = cfg.max_rounds
    widest = 0
    for rnd, v, u, bits in sends:
        if rnd > cap:
            _cap(cfg, name, rnd - 1)
        _admit(g, cfg, ledger, name, rnd, v, u, (bits,), budget)
        if bits > widest:
            widest = bits
    return widest


def _cap(cfg: SimConfig, name: str, last: int) -> None:
    """The round cap: a phase whose last message goes out in round
    ``last`` needs round ``last + 1`` to deliver it, so it raises
    SimTimeout when ``last >= cfg.max_rounds``."""
    if last >= cfg.max_rounds:
        raise SimTimeout(f"program {name!r} exceeded max_rounds={cfg.max_rounds}")


def _charge(g: Graph, cfg: SimConfig, ledger: RoundLedger, name: str, rounds: int,
            messages: int, width: int,
            sends: Optional[Callable[[], Sequence[Send]]] = None,
            label: Optional[str] = None) -> None:
    """Charge a host-scheduled phase of ``messages`` messages, the widest
    of ``width`` bits, whose last message goes out in round ``rounds`` (0:
    none), to ``ledger`` as phase ``name``.  Every library phase enters
    its ledger here, and only here, so this is where its config is
    checked (``cfg.check(g)``), before anything else.  Violation records
    and SimTimeout or BudgetError texts name the program ``label``
    (default ``name``), so a pass charged under its caller's phase name
    still names itself.

    Within the budget the phase can violate nothing: every message goes
    to a neighbour, one per edge and round, so the messages are folded in
    at once, at the widest, with an edge load of 1.  Over it they are
    checked one by one first, ``sends()`` as :func:`_overrun` takes them
    (a caller that never exceeds the budget passes none), and then folded
    in the same way.  Then the round cap applies (:func:`_cap`), and the
    phase adds ``rounds`` to ``rounds_used`` and one ``per_phase``
    entry."""
    budget = cfg.check(g)
    label = label or name
    if width > budget:
        sent = sends()
        messages, width = len(sent), _overrun(g, cfg, ledger, label, sent, budget)
    if messages:
        ledger.messages_total += messages
        if width > ledger.max_bits_seen:
            ledger.max_bits_seen = width
        if ledger.per_round_edge_load < 1:
            ledger.per_round_edge_load = 1
    _cap(cfg, label, rounds)
    ledger.rounds_used += rounds
    ledger.per_phase.append((name, rounds))


def _post(
    g: Graph,
    cfg: SimConfig,
    budget: int,
    ledger: RoundLedger,
    name: str,
    rnd: int,
    v: int,
    outbox: Dict[int, Any],
    inboxes: Dict[int, List[Tuple[int, Any]]],
) -> None:
    """The send step: check (:func:`_admit`) and account vertex v's
    non-empty outbox ``{neighbor: Msg or [Msg, ...]}`` for round ``rnd``,
    receivers in ID order, and queue ``(v, body)`` in the receivers'
    ``inboxes`` (which hold every vertex or default to an empty list).  A
    vertex posts once per round, so an edge's load is its message count
    here, and inbox order is sender order."""
    for u in sorted(outbox):
        msgs = outbox[u]
        if isinstance(msgs, Msg):
            msgs = (msgs,)
        _admit(g, cfg, ledger, name, rnd, v, u, [m.bits for m in msgs], budget)
        if len(msgs) > ledger.per_round_edge_load:
            ledger.per_round_edge_load = len(msgs)
        for m in msgs:
            if m.bits > ledger.max_bits_seen:
                ledger.max_bits_seen = m.bits
            ledger.messages_total += 1
            inboxes[u].append((v, m.body))


def run(
    g: Graph,
    program: NodeProgram,
    cfg: Optional[SimConfig] = None,
    private: Optional[Dict[int, Any]] = None,
) -> Tuple[Dict[int, Any], RoundLedger]:
    """Execute one program on g until global halt; returns per-vertex
    outputs in ID order and a fresh ledger with one phase, the program's
    name.  Every vertex gets its view, ``init`` and a round-1 callback;
    each later round calls, in ID order, the vertices that are awake (did
    not vote halt) or have mail, inbox in sender order, and posts every
    returned outbox through the send step.  The run ends at the first
    round that would call nobody.  Not knowing which round sends last,
    it applies the round cap before each round ``rnd`` to round ``rnd -
    1``, and raises SimTimeout after more than ``STALL_LIMIT`` rounds in
    a row that carry no message."""
    cfg = cfg or SimConfig()
    budget = cfg.check(g)
    name = program.name
    private = private or {}
    views = {v: NodeView(v, g.adj[v], private.get(v), g.id_bits, budget)
             for v in g.vertices}
    states = {v: program.init(view) for v, view in views.items()}
    ledger = RoundLedger()
    awake = set(g.vertices)
    inboxes: Dict[int, List[Tuple[int, Any]]] = {}
    rnd = silent = 0
    while awake or inboxes:
        rnd += 1
        callees = sorted(awake.union(inboxes))
        _cap(cfg, name, rnd - 1)
        if silent > STALL_LIMIT:
            raise SimTimeout(
                f"program {name!r} stalled: {len(callees)} vertices "
                f"(e.g. {callees[:5]}) neither halt nor communicate"
            )
        next_in: Dict[int, List[Tuple[int, Any]]] = defaultdict(list)
        for v in callees:
            outbox, halt = program.on_round(states[v], views[v], rnd, inboxes.get(v, ()))
            (awake.discard if halt else awake.add)(v)
            if outbox:
                _post(g, cfg, budget, ledger, name, rnd, v, outbox, next_in)
        if next_in:
            ledger.rounds_used = rnd
            silent = 0
        else:
            silent += 1
        inboxes = next_in
    ledger.per_phase.append((name, ledger.rounds_used))
    outputs = {v: program.on_finish(states[v], views[v]) for v in g.vertices}
    return outputs, ledger


def _to_all(g: Graph, cfg: SimConfig, ledger: RoundLedger, name: str,
            senders: Collection, bits: int) -> None:
    """Charge the round in which every vertex of g among ``senders`` sends
    one ``bits``-bit message to all its neighbours, without building
    inboxes (each receiver reads what it needs off its sorted neighbour
    list on the host): Σ deg(sender) messages, one round iff any, and
    over the budget the same messages, senders in ID order and each
    one's neighbours in ID order, checked one by one (:func:`_charge`)."""
    adj = g.adj
    messages = sum(map(len, map(adj.get, senders, repeat(()))))
    _charge(g, cfg, ledger, name, 1 if messages else 0, messages, bits, lambda: [
        (1, v, u, bits) for v in sorted(senders) if v in adj for u in adj[v]
    ])


# -- small generally useful programs ---------------------------------------


class FloodMax(NodeProgram):
    """Every vertex learns the maximum vertex ID in its component."""

    name = "flood-max"

    def init(self, view):
        return {"best": view.vid, "from": None}

    def on_round(self, state, view, rnd, inbox):
        improved = False
        src = None
        for s, body in inbox:
            if body > state["best"]:
                state["best"] = body
                src = s
                improved = True
        out = {}
        if rnd == 1 or improved:
            m = Msg(width(view.id_bits, 1), state["best"])
            for u in view.neighbors:
                if u != src:
                    out[u] = m
        return out, True

    def on_finish(self, state, view):
        return state["best"]
