"""Protocol helpers shared by the k-spanner constructions.

Four kinds of step carry every scripted step of the constructions:

* ``forest_steps`` (``cluster_steps`` over a clustering): the convergecast
  and broadcast over cluster or supercluster trees;
* ``label_contacts``, the label round: every labelled vertex sends its
  tree key to all its neighbours, and each receiver keeps its contacts,
  the smallest-ID neighbour in each adjacent tree;
* ``exchange``, the simulator's one scripted round, re-exported here: each
  sender sends one message to all its neighbours or to receivers it
  names, and each receiver gets {sender: body}.  Only ``starbip`` calls
  it, for the rounds whose receivers read the bodies or the senders: its
  star relays and tuples and the token rounds that tell who sent;
* ``signal``, bare tokens to chosen neighbours for receivers that only
  count them: it returns receiver -> number of distinct senders.

Token rounds whose receivers are neighbours by construction count their
tokens themselves and are charged as ``signal`` would charge them:
``connect`` (one edge per pick enters the spanner, and the picking end
tells the other one with a token: the Baswana-Sen step) and the ack and
vote rounds of the election, whose receivers are contacts or entries of
``g.adj``.  ``contacts`` picks the smallest-ID sender in each tree from an
inbox.  None of these steps, nor the floods of ``primitives`` run between
them (cluster growth, the power-graph ruling set), sends per-vertex
messages when it cannot violate anything: a ``Forest`` pass is one walk
over its roles, the label round, the election's tuple round, the join
announcement and the comparator's status round count their messages
without building inboxes (``sim._to_all``), and every step, the chunked ID streams included, is
charged to the ledger whole by ``sim._charge``, under the simulator's one
round-cap rule.  A scripted round returns only the vertices that
received something, so readers use ``.get``.  The local-maxima election
that the cluster-by-cluster and the superclustered constructions run (and
whose ack and join steps the zero-level and star-graph constructions
reuse) is built from these steps, over the contacts of one label round.
``_stream``, the one budget-sized ID-list stream (each list in chunks and
an end marker, one message per edge and round), lives here too;
``starbip`` gathers its representatives with it and charges their
scatter, which no receiver reads, by ``_charge_stream``."""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import count
from typing import (
    Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple,
)

from ..clustering import Clustering
from ..graph import Graph, Spanner
from ..primitives import Forest, RoleTable, clustering_roles
from ..sim import (
    BitCost, RoundLedger, SimConfig, SimError, SimTimeout, _charge, _to_all, exchange,
)


def ipow_ceil(n: int, num: int, den: int) -> int:
    """ceil(n^(num/den)) with float-noise protection."""
    if n <= 0:
        return 0
    return max(1, math.ceil(n ** (num / den) - 1e-9))


def forest_steps(g, cfg, ledger, roles: RoleTable,
                 key_of: Dict[int, Hashable]) -> Tuple[Callable, Callable]:
    """``up(name, values, combine="sum", bound=None)``, the convergecast of
    the members' values to tree key -> aggregate, and ``down(name,
    tree_values, bound=None)``, the broadcast of one value per tree key to
    member -> value, over one Forest, so the table is checked once for
    every call.  ``key_of`` maps each member to its tree key (a member
    with no role there is left out, and ``down`` lists the members in
    role order); each call charges its pass to
    ``ledger`` as one phase ``name``."""
    forest = Forest(g, roles)
    roots = forest.root_roles
    # role -> its vertex if that is a member of the role's tree, else None
    member = [v if key_of.get(v) == key else None for v, key in forest.role_keys]
    role_of = {v: r for r, v in enumerate(member) if v is not None}

    def up(name, values, combine="sum", bound=None):
        own = [values.get(v, 0) for v in member]
        got = forest.aggregate(own, ledger, name, combine, bound, cfg)
        return {key: got[r] for r, key in roots}

    def down(name, tree_values, bound=None):
        at_roots = [0] * len(member)
        for r, key in roots:
            at_roots[r] = tree_values.get(key, 0)
        got = forest.broadcast(at_roots, ledger, name, bound, cfg)
        return {v: got[r] for v, r in role_of.items()}

    return up, down


def cluster_steps(g, cfg, ledger, clustering: Clustering) -> Tuple[Callable, Callable]:
    """The ``up``/``down`` pair over a clustering's trees, keyed by center."""
    return forest_steps(g, cfg, ledger, clustering_roles(clustering),
                        clustering.membership)


# -- scripted rounds ---------------------------------------------------------


def signal(g: Graph, cfg: SimConfig, ledger: RoundLedger, name: str,
           pairs: Iterable[Tuple[int, int]]) -> Dict[int, int]:
    """One round of bare tokens: each distinct (sender, receiver) pair of
    ``pairs`` carries one ``BitCost.TAG``-bit message, and a sender that
    is not a vertex of g sends nothing.  The round is charged to
    ``ledger`` as phase ``name``, one round iff a pair was sent.  Returns
    receiver -> number of distinct senders, in no particular order; a
    vertex that received nothing has no entry.  Rounds whose receivers
    read who sent call :func:`exchange` instead.

    ``cfg.check`` guarantees a budget of at least ``BitCost.TAG`` plus one
    ID, so a token never exceeds it, and each pair is one message over its
    edge: once the receivers are known to be neighbours the round can
    violate nothing and is charged in bulk (``sim._charge``).  A receiver
    that is not the sender's neighbour raises the send step's SimError, at
    the first such sender in ID order (its smallest such receiver), before
    the round is charged."""
    cfg.check(g)
    adj, edges = g.adj, g.edge_set
    counts: Dict[int, int] = {}
    bad = []
    for v, u in set(pairs):
        if v not in adj:
            continue
        if ((v, u) if v < u else (u, v)) not in edges:
            bad.append((v, u))
        counts[u] = counts.get(u, 0) + 1
    if bad:
        v, u = min(bad)
        raise SimError(f"{name}: vertex {v} sent to non-neighbor {u}")
    messages = sum(counts.values())
    _charge(g, cfg, ledger, name, 1 if messages else 0, messages, BitCost.TAG)
    return counts


def label_contacts(g: Graph, cfg: SimConfig, ledger: RoundLedger, name: str,
                   labels: Dict[int, Hashable]) -> Dict[int, Dict[Hashable, int]]:
    """The label round: every vertex of g in ``labels`` sends its tree key
    to all its neighbours in one ``8 + id_bits``-bit message, charged to
    ``ledger`` as phase ``name`` (:func:`_to_all`).  Returns, for each
    vertex that heard a label, {tree key: its smallest-ID neighbour that
    sent it} in the order the keys are first heard, senders walked in ID
    order: :func:`contacts` of the inbox :func:`exchange` would deliver.
    A label keyed by a non-vertex sends nothing; the receivers are
    neighbours by construction, and ``cfg.check`` guarantees the budget
    holds the message."""
    cfg.check(g)
    _to_all(g, cfg, ledger, name, labels, BitCost.TAG + g.id_bits)
    near: Dict[int, Dict[Hashable, int]] = defaultdict(dict)
    for v in sorted(labels):
        c = labels[v]
        for u in g.adj.get(v, ()):
            near[u].setdefault(c, v)
    return dict(near)


def connect(g: Graph, cfg: SimConfig, ledger: RoundLedger, H: Spanner, name: str,
            picks: Iterable[Tuple[int, int, str]]) -> None:
    """The Baswana-Sen edge step: every pick (v, u, tag) adds the edge
    {v, u} to ``H`` under ``tag`` (the first tag of an edge stays), in
    the given order, and v tells u with a ``BitCost.TAG``-bit token, one
    per distinct (v, u), in one round ``name``.  The receivers are
    neighbours by construction: ``H`` must span g itself (ValueError
    otherwise), and ``H.add`` rejects every non-edge of g before the
    round is charged, so no token can go to a non-neighbour."""
    if H.base is not g:
        raise ValueError(f"{name}: the spanner is not over the graph of the round")
    picks = list(picks)
    for v, u, tag in picks:
        H.add(v, u, tag)
    cfg.check(g)
    messages = len({(v, u) for v, u, _tag in picks})
    _charge(g, cfg, ledger, name, 1 if messages else 0, messages, BitCost.TAG)


def last_level(g: Graph, cfg: SimConfig, ledger: RoundLedger, H: Spanner,
               clustering: Clustering, names: Sequence[str], tag: str) -> None:
    """The last level of the cluster-by-cluster constructions: every
    vertex announces its cluster to all its neighbours (the label round
    ``names[0]``), then adds one edge to each adjacent cluster but its
    own, which its tree already reaches, under ``tag`` (the ``connect``
    round ``names[1]``)."""
    own = clustering.membership
    near = label_contacts(g, cfg, ledger, names[0], own)
    connect(g, cfg, ledger, H, names[1], (
        (v, u, tag) for v in g.vertices
        for c, u in near.get(v, {}).items() if c != own.get(v)
    ))


def contacts(nbr_labels: Dict[int, Hashable], keep=None, skip=None) -> Dict[Hashable, int]:
    """The smallest-ID neighbour in each adjacent tree, of those whose key
    is in ``keep`` (None: every tree), leaving out ``skip``: tree key ->
    neighbour, in the order the trees are first seen."""
    best: Dict[Hashable, int] = {}
    for u, c in nbr_labels.items():
        if (keep is None or c in keep) and c != skip and (c not in best or u < best[c]):
            best[c] = u
    return best


# -- the local-maxima election -----------------------------------------------


def unmarked_degree(g, cfg, ledger, names: Sequence[str], labels, near, unmarked,
                    remaining, up: Callable, self_report: bool):
    """Ack step: every vertex of ``unmarked`` acknowledges one neighbour
    in each adjacent remaining tree, its contact there (``near``: vertex
    -> {tree key: smallest neighbour in it}, as :func:`label_contacts`
    returns it; its own tree left out when members self-report), and
    ``up`` sums per tree the acknowledgements its members received, plus
    1 per unmarked member when they self-report.  ``names`` are the ack
    round's and the convergecast's phases.

    The ack round sends one ``BitCost.TAG``-bit token per acknowledgement
    and is charged as :func:`signal` charges it: the contacts were read
    off the label round, so every receiver is a neighbour, and a vertex
    has one contact per tree, so no pair repeats."""
    cfg.check(g)
    counts: Dict[int, int] = {}
    for v in unmarked:
        own = labels.get(v) if self_report else None
        for c, u in near.get(v, {}).items():
            if c in remaining and c != own:
                counts[u] = counts.get(u, 0) + 1
    acks = sum(counts.values())
    _charge(g, cfg, ledger, names[0], 1 if acks else 0, acks, BitCost.TAG)
    if self_report:
        for v in unmarked:
            if v in labels:
                counts[v] = counts.get(v, 0) + 1
    return up(names[1], counts)


def announce_join(g, cfg, ledger, names: Sequence[str], joiners: Iterable,
                  down: Callable) -> Set[int]:
    """Join step: ``down`` tells the joiners' members, and each sends a
    token to all its neighbours.  Returns those members and every vertex
    that heard one.  The token round is the ``exchange`` of an empty body
    from every told member to all its neighbours, charged without
    building its inboxes (:func:`_to_all`); the budget floor always
    admits a token."""
    know = down(names[0], {c: 1 for c in joiners})
    told = [v for v, x in know.items() if x]
    _to_all(g, cfg, ledger, names[1], told, BitCost.TAG)
    return set(told).union(*map(g.adj.__getitem__, told))


def elect(g: Graph, cfg: SimConfig, ledger: RoundLedger, *, steps: Sequence[str],
          labels: Dict[int, Hashable], near: Dict[int, Dict[Hashable, int]],
          remaining: Iterable, threshold: int, cap: int, up: Callable, down: Callable,
          self_report: bool, cbits: int, records: List[dict], where: str,
          level: int, members: Optional[Dict] = None):
    """The local-maxima election over the trees of ``labels`` (member ->
    tree key; ``near`` holds each vertex's contacts, as the label round
    :func:`label_contacts` returns them).  Every iteration runs the
    unmarked-degree, tuple and vote steps; each remaining tree whose
    degree reaches ``threshold`` and whose every acknowledgement came back
    as a vote joins, and its members and their neighbours become marked.
    The first iteration without joiners ends the election; iteration
    ``cap + 1`` raises SimTimeout.

    ``steps`` names the eight phases (ack, degree up, degree down, tuples,
    votes, votes up, join down, join announce); each is suffixed by
    ``.{iteration}``.  With ``self_report`` a member leaves its own tree
    out of its acknowledgements, counts itself while unmarked and lets its
    own tree's tuple compete in its vote.  Every iteration appends one
    record to ``records`` (with ``sc_members`` of the joiners when
    ``members`` maps tree keys to vertices).  Returns the joined keys, the
    remaining keys and the marked vertices.

    The tuple step: ``down`` tells every member its remaining tree's
    degree, and the member sends (degree, tree key) to all its neighbours
    in one ``8 + id_bits + cbits``-bit message, charged as ``exchange``
    charges it (:func:`_to_all`).  Each unmarked vertex then votes for its
    smallest-ID neighbour with the largest tuple; a self-reporting member
    of a remaining tree votes for its own tree instead when no neighbour's
    tuple is larger or the largest is its own tree's.  The vote round's
    one token per voter goes to a neighbour, read off ``g.adj``, so it is
    charged as :func:`signal` charges it, without a neighbour check."""
    remaining = set(remaining)
    joined: Set[Hashable] = set()
    marked: Set[int] = set()
    unmarked = list(g.vertices)
    adj = g.adj
    width = 8 + g.id_bits + cbits
    for it in count(1):
        if it > cap:
            raise SimTimeout(f"{where} phase {level} exceeded its iteration cap {cap}")
        names = [f"{s}.{it}" for s in steps]
        deg = unmarked_degree(g, cfg, ledger, names[0:2], labels, near, unmarked,
                              remaining, up, self_report)
        know = down(names[2], {c: deg.get(c, 0) for c in remaining})
        tuples = {v: (know.get(v, 0), c) for v, c in labels.items() if c in remaining}
        _to_all(g, cfg, ledger, names[3], tuples, width)
        has, tuple_of = tuples.__contains__, tuples.__getitem__
        votes: Dict[int, int] = {}
        ballots = 0
        for v in unmarked:
            u = max(filter(has, adj[v]), key=tuple_of, default=None)
            if self_report:
                own = labels.get(v)
                if own in remaining and (u is None or tuples[u][1] == own
                                         or tuples[u] <= (know.get(v, 0), own)):
                    votes[v] = votes.get(v, 0) + 1
                    continue
            if u is not None:
                votes[u] = votes.get(u, 0) + 1
                ballots += 1
        _charge(g, cfg, ledger, names[4], 1 if ballots else 0, ballots, BitCost.TAG)
        vote_sum = up(names[5], votes)
        new = {
            c for c in remaining
            if deg.get(c, 0) >= max(threshold, 1)
            and vote_sum.get(c, 0) == deg.get(c, 0)
        }
        record = {
            "where": where,
            "level": level,
            "iteration": it,
            "marked_before": frozenset(marked),
            "joined": sorted(new),
            "deg": {c: deg.get(c, 0) for c in sorted(new)},
        }
        if members is not None:
            record["sc_members"] = {c: frozenset(members[c]) for c in new}
        records.append(record)
        if not new:
            return joined, remaining, marked
        joined |= new
        remaining -= new
        marked |= announce_join(g, cfg, ledger, names[6:8], new, down)
        unmarked = [v for v in unmarked if v not in marked]


# -- chunked ID streams ------------------------------------------------------


def _charge_stream(g: Graph, cfg: SimConfig, ledger: RoundLedger, name: str,
                   lists: Dict[int, Dict[int, Sequence[int]]]) -> None:
    """Charge the streams of every ID list ``lists[v][u]`` from vertex v
    to its neighbor u, as chunks of per_msg IDs, as many as fit the
    budget after the tag (at least one), followed by one end marker,
    message r of every stream in round r, to ``ledger`` as one phase
    ``name``.

    The phase lasts as long as the longest stream, and a stream of L IDs
    costs ceil(L / per_msg) + 1 messages.  They are charged in bulk
    (``sim._charge``), because no round can violate anything: each chunk
    fits the budget by construction, and every edge carries one message
    per round.  A target that is not a neighbor raises the send step's
    SimError, at the first such (sender, target) pair in ID order; a
    sender that is not a vertex of g sends nothing."""
    cfg.check(g)
    per_msg = max(1, (cfg.budget_for(g) - BitCost.TAG) // g.id_bits)
    messages = rounds = longest = 0
    for v in sorted(lists):
        per_nbr = lists[v]
        if not per_nbr or v not in g.adj:
            continue
        strays = [u for u in per_nbr if u not in g.adj[v]]
        if strays:
            raise SimError(f"{name}: vertex {v} sent to non-neighbor {min(strays)}")
        for ids in per_nbr.values():
            sent = -(-len(ids) // per_msg) + 1
            messages += sent
            rounds = max(rounds, sent)
            longest = max(longest, len(ids))
    _charge(g, cfg, ledger, name, rounds, messages,
            BitCost.TAG + min(longest, per_msg) * g.id_bits)


def _stream(g: Graph, cfg: SimConfig, ledger: RoundLedger, name: str,
            lists: Dict[int, Dict[int, Sequence[int]]]) -> Dict[int, Dict[int, Tuple[int, ...]]]:
    """The ID streams of :func:`_charge_stream`, charged as it charges
    them.  Returns the receivers' inboxes, u -> {sender: the IDs it
    streamed, as a tuple} in sender order; an empty list arrives as
    ``()``, and a vertex that received nothing has no entry."""
    _charge_stream(g, cfg, ledger, name, lists)
    got: Dict[int, Dict[int, Tuple[int, ...]]] = defaultdict(dict)
    for v in sorted(lists):
        if v in g.adj:
            for u, ids in lists[v].items():
                got[u][v] = tuple(ids)
    return dict(got)
