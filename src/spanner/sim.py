"""Round-synchronous CONGEST execution engine.

Per round every vertex may send at most ``congestion_factor`` bounded-size
messages over each incident edge.  A message sent in round r is delivered in
round r+1.  Execution is bit-deterministic: vertices are processed in ID
order, so every inbox arrives sorted by sender.

A :class:`NodeProgram` supplies three hooks:

* ``init(view)``       -> per-vertex local state
* ``on_round(state, view, rnd, inbox)`` -> (outbox, halt_vote)
* ``on_finish(state, view)`` -> local output

The engine is the referee for global termination: a run ends once every
vertex votes halt and no message is in flight.  ``rounds_used`` counts
communication rounds, i.e. the index of the last round that carried at
least one message.

Every vertex of a run is set up and called in round 1; after that only
vertices that have not voted halt or have mail are called.  The send step
checks a whole outbox at once and, if that check fails, falls back to a
per-message loop that alone records or raises violations.

Rounds whose messages follow from state the host already tracks skip the
vertex programs but not the send step: ``exchange`` posts one precomputed
round, and ``_cascade`` runs rounds in which only the vertices with mail
act (in ``primitives`` cluster growth, the power-graph floods, the tree
partition and the forest convergecast and broadcast; in ``spanner3`` the
two star rounds of the 3-spanners).  Both post through ``_post``, so
bits, congestion, neighbours and rounds are accounted exactly as for a
program.  Only protocols that act on a phase clock, in rounds where a
vertex has no mail, remain NodePrograms.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .graph import Graph


class SimError(RuntimeError):
    pass


class BudgetError(SimError):
    """Strict-mode message budget or congestion violation."""


class SimTimeout(SimError):
    """max_rounds exceeded before global halt."""


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
    congestion_factor: int = 1
    strict: bool = True
    stall_limit: int = 20_000  # consecutive silent rounds before deadlock error

    def budget_for(self, g: Graph) -> int:
        if self.msg_bit_budget is not None:
            return self.msg_bit_budget
        return default_bit_budget(g.n)

    def check(self, g: Graph) -> None:
        """Every budget must fit one tagged vertex ID, and every edge must
        carry at least one message per round."""
        b = self.budget_for(g)
        floor = BitCost.TAG + g.id_bits
        if b < floor:
            raise SimError(f"msg_bit_budget {b} below minimum {floor}")
        if self.congestion_factor < 1:
            raise SimError(f"congestion_factor {self.congestion_factor} below 1")

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

    def extend_sequential(self, other: "RoundLedger", name: Optional[str] = None):
        self.rounds_used += other.rounds_used
        self.max_bits_seen = max(self.max_bits_seen, other.max_bits_seen)
        self.per_round_edge_load = max(
            self.per_round_edge_load, other.per_round_edge_load
        )
        self.messages_total += other.messages_total
        self.violations.extend(other.violations)
        if name is not None:
            self.per_phase.append((name, other.rounds_used))
        else:
            self.per_phase.extend(other.per_phase)

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
    strict mode and are recorded otherwise.  A vertex posts once per round,
    so an edge's load is its message count here.

    An outbox of single in-budget messages to neighbours can violate
    nothing (``congestion_factor`` is at least 1), so it is checked in bulk
    and accounted at once; any other outbox takes the per-message loop,
    the only code that records violations or raises.  Each receiver gets
    one entry per sender either way, so inbox order is sender order."""
    nbrs = g.adj[v]
    # bulk check: one Msg per edge, all within budget, all to neighbours
    top = 0
    for m in outbox.values():
        if m.__class__ is not Msg:
            break
        if m.bits > top:
            top = m.bits
    else:
        if top <= budget and (tuple(outbox) == nbrs or set(nbrs).issuperset(outbox)):
            if top > ledger.max_bits_seen:
                ledger.max_bits_seen = top
            if ledger.per_round_edge_load < 1:
                ledger.per_round_edge_load = 1
            ledger.messages_total += len(outbox)
            for u, m in outbox.items():
                inboxes[u].append((v, m.body))
            return
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
    round-1 callback; later rounds call the vertices that are awake or
    have mail."""
    cfg = cfg or SimConfig()
    cfg.check(g)
    budget = cfg.budget_for(g)
    bits = BitCost(g)
    private = private or {}
    ledger = RoundLedger()
    views: Dict[int, NodeView] = {}
    states: Dict[int, Any] = {}
    for v in g.vertices:
        views[v] = view = NodeView(v, g.adj[v], private.get(v), bits, budget)
        states[v] = program.init(view)

    awake = set(g.vertices)  # called next round even with an empty inbox
    inboxes: Dict[int, List[Tuple[int, Any]]] = {}
    rnd = 0
    silent = 0
    while awake or inboxes:
        rnd += 1
        if rnd > cfg.max_rounds:
            raise SimTimeout(
                f"program {program.name!r} exceeded max_rounds={cfg.max_rounds}"
            )
        callees = sorted(awake.union(inboxes))
        if silent > cfg.stall_limit:
            waiting = [v for v in callees[:5]]
            raise SimTimeout(
                f"program {program.name!r} stalled: {len(callees)} vertices "
                f"(e.g. {waiting}) neither halt nor communicate"
            )
        next_in: Dict[int, List[Tuple[int, Any]]] = defaultdict(list)
        sent_before = ledger.messages_total
        for v in callees:
            outbox, halt = program.on_round(states[v], views[v], rnd, inboxes.pop(v, []))
            if halt:
                awake.discard(v)
            else:
                awake.add(v)
            if outbox:
                _post(g, cfg, budget, ledger, program.name, rnd, v, outbox, next_in)
        if ledger.messages_total > sent_before:
            ledger.rounds_used = rnd
            silent = 0
        else:
            silent += 1
        inboxes = next_in

    outputs = {v: program.on_finish(states[v], views[v]) for v in g.vertices}
    ledger.per_phase.append((program.name, ledger.rounds_used))
    return outputs, ledger


def exchange(
    g: Graph,
    cfg: SimConfig,
    ledger: RoundLedger,
    name: str,
    out: Dict[int, Dict[int, Any]],
) -> Dict[int, List[Tuple[int, Any]]]:
    """One scripted round whose outgoing messages were precomputed from each
    vertex's tracked local state: post every outbox ``out[v]`` through the
    send step, fold the round into ``ledger`` as phase ``name`` (one round
    iff anything was sent) and return v -> [(sender, body)]."""
    cfg.check(g)
    budget = cfg.budget_for(g)
    inboxes: Dict[int, List[Tuple[int, Any]]] = {v: [] for v in g.vertices}
    sent_before = ledger.messages_total
    for v in g.vertices:
        outbox = out.get(v)
        if outbox:
            _post(g, cfg, budget, ledger, name, 1, v, outbox, inboxes)
    rounds = 1 if ledger.messages_total > sent_before else 0
    ledger.rounds_used += rounds
    ledger.per_phase.append((name, rounds))
    return inboxes


def _cascade(
    g: Graph,
    cfg: SimConfig,
    name: str,
    first: Iterable[int],
    step: Callable[[int, Sequence[Tuple[int, Any]]], Optional[Dict[int, Any]]],
) -> RoundLedger:
    """Scripted rounds until the mail runs out, for protocols whose
    messages follow from state the caller tracks.  Round 1 calls
    ``step(v, ())`` for each v in ``first``; every later round calls
    ``step(v, inbox)`` only for the vertices that received mail, with the
    inbox in sender order.  Vertices go in ascending ID order and each
    returned outbox is posted through the send step under its round index.
    Returns a fresh ledger with one phase ``name``; ``rounds_used`` is the
    last round that carried a message, as in :func:`run`."""
    cfg.check(g)
    budget = cfg.budget_for(g)
    ledger = RoundLedger()
    callees = sorted(first)
    strays = [v for v in callees if v not in g.adj]
    if strays:
        raise SimError(f"{name}: active non-vertices {strays[:5]}")
    inboxes: Dict[int, List[Tuple[int, Any]]] = {}
    rnd = 0
    while callees:
        rnd += 1
        if rnd > cfg.max_rounds:
            raise SimTimeout(f"program {name!r} exceeded max_rounds={cfg.max_rounds}")
        next_in: Dict[int, List[Tuple[int, Any]]] = defaultdict(list)
        for v in callees:
            outbox = step(v, inboxes.get(v, ()))
            if outbox:
                _post(g, cfg, budget, ledger, name, rnd, v, outbox, next_in)
        if next_in:
            ledger.rounds_used = rnd
        inboxes = next_in
        callees = sorted(next_in)
    ledger.per_phase.append((name, ledger.rounds_used))
    return ledger


def announce(
    g: Graph,
    cfg: SimConfig,
    ledger: RoundLedger,
    name: str,
    labels: Dict[int, Any],
    bits: int,
) -> Dict[int, Dict[int, Any]]:
    """One scripted round: every vertex in ``labels`` sends its label to all
    its neighbors as one ``bits``-bit message; returns v -> {neighbor: label}."""
    out = {}
    for v, label in labels.items():
        m = Msg(bits, label)
        out[v] = {u: m for u in g.adj[v]}
    got = exchange(g, cfg, ledger, name, out)
    return {v: dict(inbox) for v, inbox in got.items()}


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
