"""Round-synchronous CONGEST execution engine.

Per round every vertex may send at most one bounded-size message over each
incident edge; a message sent in round r is delivered in round r+1.
Execution is bit-deterministic: vertices act in ID order, so every inbox
arrives sorted by sender.  ``rounds_used`` is the last round that carried
a message.

One round-cap rule holds for every phase, run or scripted (``_cap``): a
phase whose last message goes out in round R needs round R+1 to deliver
it, so it raises SimTimeout when R >= ``max_rounds``, and a cap below 1
is rejected up front.

The send step, ``_post``, checks and accounts one vertex's outbox (bits,
congestion, neighbours) message by message, recording or raising each
violation.  One round loop calls it, ``_cascade``: it calls ``step(v,
rnd, inbox)`` in ID order for the vertices with mail, those the caller
names (round 1) and those an optional clock wakes, and before every
round it runs it applies the round cap and a guard against
``STALL_LIMIT`` silent rounds.
:func:`run` adapts a :class:`NodeProgram` to it (hooks ``init(view)``,
``on_round(state, view, rnd, inbox) -> (outbox, halt_vote)`` and
``on_finish(state, view)``), with the vertices that have not voted halt
as the clock.  The library's own phases do not use this loop: each is
scheduled on the host and enters its ledger through one helper,
``_charge``, the only code besides this loop and the ``RoundLedger``
merges that writes a ledger.  It takes a phase whole, once its host
code has run, and no library phase builds inboxes: the receivers read
what was sent on the host.  Its callers are ``_to_all``, the rounds to
all neighbours (the label round of ``kspanner.common.label_contacts``,
the 3-spanner's part announcement, the comparator's status round, the
elections' tuples and join tokens, the star graph's marked-star
tokens), the rounds to chosen neighbours of ``kspanner.common.signal``
(tokens, and the star graph's relays) and those that count their
tokens themselves (``kspanner.common.connect``, the election's acks
and votes), the chunked ID streams (``kspanner.common._charge_stream``),
every ``primitives.Forest`` pass (charged
to its caller's ledger under the caller's phase name, its records and
errors naming the pass: ``_charge``'s ``label``),
``primitives.partition_tree``, the relay floods of ``primitives`` (cluster
growth, the power-graph min-flood and hop-flood, the log-round ruling
set), the star-graph BFS of ``kspanner.starbip`` and the star rounds of
the 3-spanners.

All of these send one message per edge and round, to neighbours, so
within the budget they can violate nothing and handle no message
objects: ``_charge`` folds each phase into the ledger at once, at its
widest message.  Over the budget ``_overrun`` first checks its messages
one by one, each at its own width.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import (
    Any, Callable, Collection, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from .graph import Graph


class SimError(RuntimeError):
    pass


class BudgetError(SimError):
    """Strict-mode message budget or congestion violation."""


class SimTimeout(SimError):
    """max_rounds exceeded before global halt."""


STALL_LIMIT = 20_000  # consecutive silent rounds before _cascade reports a deadlock


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

    def check(self, g: Graph) -> None:
        """Every budget must fit one tagged vertex ID, and the round cap
        must let round 1 run."""
        b = self.budget_for(g)
        floor = BitCost.TAG + g.id_bits
        if b < floor:
            raise SimError(f"msg_bit_budget {b} below minimum {floor}")
        if self.max_rounds < 1:
            raise SimError(f"max_rounds {self.max_rounds} below 1")

    def resolved(self, g: Graph) -> "SimConfig":
        """Freeze the bit budget at this graph's size so sub-simulations on
        smaller pieces keep the global budget."""
        if self.msg_bit_budget is not None:
            return self
        return self.with_(msg_bit_budget=self.budget_for(g))

    def with_(self, **kw) -> "SimConfig":
        return replace(self, **kw)


class Msg:
    """A message: payload body plus its accounted bit size."""

    __slots__ = ("bits", "body")

    def __init__(self, bits: int, body: Any):
        self.bits = bits
        self.body = body

    def __repr__(self):
        return f"Msg({self.bits}b, {self.body!r})"


class BitCost:
    """Fixed-width field accounting used by every program's messages.

    Widths per run: tag 8 bits, vertex ID ceil(log2(max_id+1)) bits, counter
    fields ceil(log2(bound+1)) bits for a declared value bound.  Degrees,
    hop counts and sizes are bounded by 2n+1 unless a program declares
    otherwise.
    """

    TAG = 8

    def __init__(self, g: Graph):
        self.id_bits = g.id_bits

    def counter(self, bound: int) -> int:
        return max(1, int(bound).bit_length())

    def msg(self, body: Any, ids: int = 0, counters: Tuple[int, ...] = ()) -> Msg:
        bits = self.TAG + ids * self.id_bits
        for bound in counters:
            bits += self.counter(bound)
        return Msg(bits, body)


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
        self.rounds_used += other.rounds_used
        self.max_bits_seen = max(self.max_bits_seen, other.max_bits_seen)
        self.per_round_edge_load = max(
            self.per_round_edge_load, other.per_round_edge_load
        )
        self.messages_total += other.messages_total
        self.violations.extend(other.violations)
        self.per_phase.append((name, other.rounds_used))

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
    phases), the run's field widths and its per-message bit budget.
    Nothing else of the graph is reachable from here."""

    __slots__ = ("vid", "neighbors", "private", "bits", "budget")

    def __init__(self, vid: int, neighbors, private, bits: BitCost, budget: int):
        self.vid = vid
        self.neighbors = neighbors
        self.private = private
        self.bits = bits
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


def _overrun(
    g: Graph,
    cfg: SimConfig,
    ledger: RoundLedger,
    name: str,
    sends: Sequence[Send],
    budget: int,
) -> int:
    """The send step's per-message checks over the (round, sender,
    receiver, bits) messages of ``sends``, in that order: a message in a
    round past the cap raises SimTimeout (:func:`_cap` on the round before
    it), a non-neighbour receiver raises SimError, and each message above
    the ``budget`` raises BudgetError (strict) or is recorded.  Returns
    the widest message's bits (0: none)."""
    adj = g.adj
    cap = cfg.max_rounds
    widest = 0
    for rnd, v, u, bits in sends:
        if rnd > cap:
            _cap(cfg, name, rnd - 1)
        if u not in adj or u not in adj[v]:
            raise SimError(f"{name}: vertex {v} sent to non-neighbor {u}")
        if bits > budget:
            rec = {"kind": "bits", "round": rnd, "edge": [v, u],
                   "bits": bits, "budget": budget, "program": name}
            if cfg.strict:
                raise BudgetError(str(rec))
            ledger.violations.append(rec)
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
    its ledger here, and only here.  Violation records and SimTimeout or
    BudgetError texts name the program ``label`` (default ``name``), so
    a pass charged under its caller's phase name still names itself.

    Within the budget the phase can violate nothing: every message goes
    to a neighbour, one per edge and round, so the messages are folded in
    at once, at the widest, with an edge load of 1.  Over it they are
    checked one by one first, ``sends()`` as :func:`_overrun` takes them
    (a caller that never exceeds the budget passes none), and then folded
    in the same way.  Then the round cap applies (:func:`_cap`), and the
    phase adds ``rounds`` to ``rounds_used`` and one ``per_phase``
    entry."""
    budget = cfg.budget_for(g)
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
    """The send step: check and account vertex v's non-empty outbox
    ``{neighbor: Msg or [Msg, ...]}`` for round ``rnd`` and queue
    ``(v, body)`` in the receivers' ``inboxes`` (which hold every vertex or
    default to an empty list).  Congestion and bit-budget overruns raise in
    strict mode and are recorded otherwise, receivers in ID order
    (:func:`_overrun` does the same for the host-scheduled phases).  A
    vertex posts once per round, so an edge's load is its message count
    here, and inbox order is sender order."""
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
            inboxes[u].append((v, m.body))


def run(
    g: Graph,
    program: NodeProgram,
    cfg: Optional[SimConfig] = None,
    private: Optional[Dict[int, Any]] = None,
) -> Tuple[Dict[int, Any], RoundLedger]:
    """Execute one program on g until global halt; returns per-vertex
    outputs in ID order.  Every vertex gets its view, ``init`` and a
    round-1 callback; later rounds call the vertices that are awake (did
    not vote halt) or have mail.  The rounds run through :func:`_cascade`,
    whose clock is the awake set."""
    cfg = cfg or SimConfig()
    cfg.check(g)
    budget = cfg.budget_for(g)
    bits = BitCost(g)
    private = private or {}
    views = {v: NodeView(v, g.adj[v], private.get(v), bits, budget) for v in g.vertices}
    states = {v: program.init(view) for v, view in views.items()}
    awake = set(g.vertices)

    def step(v, rnd, inbox):
        outbox, halt = program.on_round(states[v], views[v], rnd, inbox)
        if halt:
            awake.discard(v)
        else:
            awake.add(v)
        return outbox

    ledger = _cascade(g, cfg, program.name, (), step, lambda rnd: awake or None)
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


def _cascade(
    g: Graph,
    cfg: SimConfig,
    name: str,
    first: Iterable[int],
    step: Callable[[int, int, Sequence[Tuple[int, Any]]], Optional[Dict[int, Any]]],
    wake: Optional[Callable[[int], Optional[Iterable[int]]]] = None,
) -> RoundLedger:
    """The round loop: calls ``step(v, rnd, inbox)`` for the vertices of
    round ``rnd``, in ascending ID order with the inbox in sender order,
    and posts each returned outbox through the send step.  Round 1 calls
    ``first`` with an empty inbox, and every round calls the vertices that
    received mail.  The clock ``wake(rnd)`` names the vertices to call
    besides those, or returns None: the run ends at the first round that
    has no mail and for which the clock returns None (without a clock:
    once the mail runs out).  Not knowing which round sends last, it
    applies the round cap before each round ``rnd`` to round ``rnd - 1``,
    and raises SimTimeout after more than ``STALL_LIMIT`` silent rounds:
    rounds that called some vertex and in which none of them sent (the
    idle rounds a clock keeps on schedule, which call nobody, do not
    count).  Returns a fresh ledger with one phase ``name``;
    ``rounds_used`` is the last round that carried a message."""
    cfg.check(g)
    budget = cfg.budget_for(g)
    ledger = RoundLedger()
    inboxes: Dict[int, Sequence[Tuple[int, Any]]] = dict.fromkeys(first, ())
    strays = sorted(v for v in inboxes if v not in g.adj)
    if strays:
        raise SimError(f"{name}: active non-vertices {strays[:5]}")
    rnd = silent = 0
    while True:
        rnd += 1
        woken = wake(rnd) if wake else None
        if woken is not None:
            callees = sorted(inboxes.keys() | woken)
        elif inboxes:
            callees = sorted(inboxes)
        else:
            break
        _cap(cfg, name, rnd - 1)
        if silent > STALL_LIMIT:
            raise SimTimeout(
                f"program {name!r} stalled: {len(callees)} vertices "
                f"(e.g. {callees[:5]}) neither halt nor communicate"
            )
        next_in: Dict[int, List[Tuple[int, Any]]] = defaultdict(list)
        for v in callees:
            outbox = step(v, rnd, inboxes.get(v, ()))
            if outbox:
                _post(g, cfg, budget, ledger, name, rnd, v, outbox, next_in)
        if next_in:
            ledger.rounds_used = rnd
            silent = 0
        elif callees:
            silent += 1
        inboxes = next_in
    ledger.per_phase.append((name, ledger.rounds_used))
    return ledger


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
            m = view.bits.msg(state["best"], ids=1)
            for u in view.neighbors:
                if u != src:
                    out[u] = m
        return out, True

    def on_finish(self, state, view):
        return state["best"]
