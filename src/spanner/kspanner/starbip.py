"""Sparser (2k-1)-spanner for unbalanced bipartite graphs.

The B side joins stars around A-side centers, and the cluster-by-cluster
election then runs on the star graph with k' = k/2 levels (odd k: (k-1)/2),
marking whole stars instead of vertices.  It shares the join step of
``common.elect``, sends the same (degree, cluster) tuples and replaces the
vote by a per-edge maximum test relayed through each star.  Star-level
clusters are realized as vertex-disjoint trees in the original graph
(member - leader - uplink chains), so intra-cluster traffic costs O(1)
rounds per star hop.  Phase 1 uses the two-sided 2-approximation of the
unmarked star-degree; later phases count exactly through per-cluster
representatives and maintain the count by marked-star deltas.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

from ..clustering import Clustering
from ..graph import Graph, Spanner
from ..results import SpannerRun
from ..sim import (
    TAG, RoundLedger, SimConfig, SimError, SimTimeout, _charge, _to_all, width,
)
from ..spanner3 import bipartite_3_spanner
from .common import (
    _charge_stream,
    announce_join,
    cluster_steps,
    connect,
    contacts,
    ipow_ceil,
    label_contacts,
    signal,
)


class StarState:
    """Host-tracked mirror of the per-vertex local knowledge."""

    def __init__(self, a_side: Set[int], b_side: Set[int]):
        self.a = a_side
        self.b = b_side
        self.star_of: Dict[int, Optional[int]] = {}
        self.members: Dict[int, List[int]] = {}
        self.nbr_star: Dict[int, Dict[int, int]] = {}

    def star_vertices(self, s: int) -> List[int]:
        return [s] + self.members.get(s, [])

    def stars(self) -> List[int]:
        return sorted(self.members)


def _form_stars(g, cfg, ledger, st: StarState, H: Spanner) -> None:
    """One round: every B vertex with an A neighbor picks its smallest-ID
    one as its star center and tells all its neighbors in a label round,
    charged as ``label_contacts`` charges it (no receiver reads contacts);
    star edges enter the spanner.  The graph is unweighted here
    (``sparser_bipartite_spanner`` sends weighted ones to
    ``bipartite_3_spanner``).  What each vertex heard, the star of each
    neighbour that chose one and of each A neighbour (its own), is
    ``st.nbr_star``, which ``sparser_bipartite_spanner`` fills only when
    k' > 1, the one case in which a later phase reads it."""
    for v in sorted(st.b):
        c = next((u for u in g.adj[v] if u in st.a), None)
        if c is None:
            continue
        st.star_of[v] = c
        H.add(v, c, "star")
    _to_all(g, cfg, ledger, "star-formation", st.star_of, width(g.id_bits, 1))
    for a in sorted(st.a):
        st.star_of[a] = a
        st.members[a] = []
    for v in sorted(st.b):
        c = st.star_of.get(v)
        if c is not None:
            st.members[c].append(v)


def _star_gtree(st: StarState, cluster_of: Dict[int, Optional[int]],
                uplinks: Dict[int, Tuple[int, int]], level: int) -> Clustering:
    """Realize the star-level clustering as vertex trees in g: members hang
    off their leader, each non-root star hangs off its uplink edge."""
    membership = {}
    parents: Dict[int, Optional[int]] = {}
    for s in st.stars():
        c = cluster_of.get(s)
        if c is None:
            continue
        for v in st.star_vertices(s):
            membership[v] = c
        if s == c:
            parents[s] = None
            for v in st.members[s]:
                parents[v] = s
        else:
            rel, off = uplinks[s]
            parents[rel] = off
            if rel != s:
                parents[s] = rel
            for v in st.members[s]:
                if v != rel:
                    parents[v] = s
    return Clustering(
        level=level,
        membership=membership,
        parents=parents,
        depth_bound=3 * level + 2,
    )


def _grow_star_clusters(
    g, cfg, ledger, st: StarState, centers: Set[int], depth: int
) -> Tuple[Dict[int, Optional[int]], Dict[int, Tuple[int, int]]]:
    """Star-graph BFS from the new centers, ``depth`` star hops; returns
    each star's cluster (None: not reached) and, for each star reached by
    an offer, its uplink edge (relaying star vertex, offering vertex).

    Three rounds per star hop h = 0..depth.  In round 3h+1 a leader
    adopts a cluster and sends ADOPT (cluster, h) to its members: in
    round 1 every center adopts its own ID, later a leader without a
    cluster adopts the best of its members' relays and the offers it
    buffered itself.  In round 3h+2 the leader and its members announce
    OFFER (cluster) to all their neighbours.  In round 3h+3 a member of a
    star without a cluster relays the best offer it heard, RELAY
    (cluster, offerer), to its leader, and such a leader buffers the best
    offer it heard.  Ties prefer the larger cluster ID, then the smallest
    relaying vertex, then the smallest offerer.

    The rounds run as host loops over the stars, and the phase is charged
    whole (``sim._charge``) to ``ledger`` as ``star-bfs:d{depth}``, its
    records and errors naming ``star-bfs``, its messages at their own
    widths: the round cap applies to its last sending round, which may
    come before round 3(depth+1) or be round 0."""
    strays = sorted(v for v in centers if v not in g.adj)
    if strays:
        raise SimError(f"star-bfs: active non-vertices {strays[:5]}")
    adopt_bits = width(g.id_bits, 1, depth)
    offer_bits = width(g.id_bits, 1)
    relay_bits = width(g.id_bits, 2)
    cid: Dict[int, int] = {}  # vertex -> cluster, once it knows one
    uplinks: Dict[int, Tuple[int, int]] = {}
    sent: List[Tuple[int, int, List[int], int]] = []  # (round, sender, receivers, bits)
    adopted = {s: (s, None) for s in centers}  # leader -> (cluster, uplink)
    for hop in range(depth + 1):
        rnd = 3 * hop + 1
        announce = []
        for s in sorted(adopted):
            c, uplink = adopted[s]
            if uplink:
                uplinks[s] = uplink
            members = sorted(st.members[s])
            if members:
                sent.append((rnd, s, members, adopt_bits))
            for v in (s, *members):
                cid[v] = c
                announce.append(v)
        heard: Dict[int, Tuple[int, int]] = {}  # v -> its best (cluster, -offerer)
        for v in sorted(announce):
            if g.adj[v]:
                sent.append((rnd + 1, v, list(g.adj[v]), offer_bits))
            key = (cid[v], -v)
            for u in g.adj[v]:
                if u not in heard or key > heard[u]:
                    heard[u] = key
        offers: Dict[int, Tuple[int, int, int]] = {}  # leader -> (cid, -relay, -offerer)
        for v in sorted(heard):
            s = st.star_of.get(v)
            if s is None or v in cid:
                continue
            if v != s:
                sent.append((rnd + 2, v, [s], relay_bits))
            key = (heard[v][0], -v, heard[v][1])
            if s not in offers or key > offers[s]:
                offers[s] = key
        adopted = {s: (c, (-rel, -off)) for s, (c, rel, off) in offers.items()}
    _charge(g, cfg, ledger, f"star-bfs:d{depth}", sent[-1][0] if sent else 0,
            sum(len(to) for _r, _v, to, _b in sent),
            max((bits for _r, _v, _to, bits in sent), default=0),
            lambda: [(r, v, u, bits) for r, v, to, bits in sent for u in to], "star-bfs")
    return {s: cid.get(s) for s in st.stars()}, uplinks


def sparser_bipartite_spanner(
    g: Graph,
    part,
    k: int,
    cfg: Optional[SimConfig] = None,
) -> SpannerRun:
    """(2k-1)-spanner of the A-to-B edges with O(k|A|^{1+2/k} + |B|) edges
    (odd k: exponent 1 + 2/(k-1)).  Within-side edges are ignored.

    With at most one A vertex the build ends after star formation, in one
    round.  Every B vertex then has exactly one A neighbour, so
    ``_form_stars`` already puts every A-to-B edge into H; the edges a
    later phase could still add are within-side edges, which the spanner
    ignores (a low-expansion cover's instance holds none); and the phase
    thresholds already read |A|, so every vertex of the instance is
    assumed to know it.  The size bound is then just |B|.  Only when
    k' > 1 do star-graph phases run and read the filled ``st.nbr_star``."""
    if k < 2:
        raise ValueError("k must be >= 2")
    cfg = (cfg or SimConfig()).resolved(g)
    if k == 2:
        return bipartite_3_spanner(g, part, cfg)
    part.check(g)
    if g.weighted:
        raise ValueError("weighted graphs are only supported for k = 2")
    kp = k // 2
    H = Spanner(g)
    ledger = RoundLedger()
    approx: List[Dict] = []
    st = StarState(set(part.a), set(part.b))
    _form_stars(g, cfg, ledger, st, H)
    A = len(st.stars())
    if A <= 1:
        return SpannerRun(H, ledger, {"approx": approx})
    # every neighbour's star, heard in star formation: the phases read it
    if kp > 1:
        for v in g.vertices:
            st.nbr_star[v] = {u: st.star_of[u] for u in g.adj[v] if u in st.star_of}

    cluster_of: Dict[int, Optional[int]] = {s: s for s in st.stars()}
    gtree = _star_gtree(st, cluster_of, {}, 0)
    for i in range(1, kp):
        cluster_of, gtree = _phase(
            g, cfg, ledger, approx, H, st, cluster_of, gtree, A, kp, i
        )
    _last_phase(g, cfg, ledger, H, st, cluster_of, gtree)
    return SpannerRun(H, ledger, {"approx": approx})


def _phase(g, cfg, ledger, approx, H, st, cluster_of, gtree, A, kp, i):
    """One clustering level of the star-graph election; level 1 appends
    its degree estimates to ``approx``."""
    threshold = ipow_ceil(A, i, kp)
    cap = 4 * ipow_ceil(A, kp - i, kp) + 2
    stars = st.stars()
    remaining = {c for c in set(cluster_of.values()) if c is not None}
    marked: Set[int] = set()        # marked stars
    nbr_marked: Dict[int, Set[int]] = {v: set() for v in g.vertices}

    near = label_contacts(g, cfg, ledger, f"bip-announce:L{i}", gtree.membership)
    up, down = cluster_steps(g, cfg, ledger, gtree)

    # level 1 estimates the degrees; later levels count them exactly
    # through per-cluster representatives inside each star
    if i == 1:
        deg = _approx_degree(
            g, cfg, ledger, approx, st, cluster_of, marked, nbr_marked, f"L{i}.0"
        )
    else:
        reps = _compute_reps(g, cfg, ledger, st, near, f"L{i}")
        acks = signal(g, cfg, ledger, f"bip-count:L{i}",
                      (pair for s in stars for pair in reps[s].values()))
        deg = up(f"bip-deg:L{i}", acks)

    joined: Set[int] = set()
    iterations = 0
    while True:
        iterations += 1
        if iterations > cap:
            raise SimTimeout(f"bipartite phase {i} exceeded cap {cap}")
        new_joiners = _election(
            g, cfg, ledger, st, gtree, up, down, remaining, marked,
            nbr_marked, deg, threshold, f"L{i}.{iterations}"
        )
        if not new_joiners:
            break
        joined |= new_joiners
        remaining -= new_joiners
        newly_marked = _mark_after_join(
            g, cfg, ledger, st, down, new_joiners, marked, f"L{i}.{iterations}"
        )
        # the vertices of newly marked stars send a token to all neighbours
        senders = [v for s in sorted(newly_marked) for v in st.star_vertices(s)]
        _to_all(g, cfg, ledger, f"bip-marked:L{i}.{iterations}", senders, TAG)
        for v in senders:
            for u in g.adj[v]:
                nbr_marked[u].add(v)
        if i == 1:
            deg = _approx_degree(
                g, cfg, ledger, approx, st, cluster_of, marked, nbr_marked,
                f"L{i}.{iterations}"
            )
        else:
            # deltas: each newly marked star retracts one unit per cluster
            dec = signal(g, cfg, ledger, f"bip-delta:L{i}.{iterations}",
                         (pair for s in sorted(newly_marked) for pair in reps[s].values()))
            drop = up(f"bip-deg-delta:L{i}.{iterations}", dec)
            for c in remaining:
                deg[c] -= drop.get(c, 0)

    # uncovered stars: one edge per (unmarked star, remaining cluster)
    # pair, from the star's smallest vertex next to the cluster
    picks = []
    for s in stars:
        if s in marked:
            continue
        reached: Set[int] = set()
        for v in sorted(st.star_vertices(s)):
            for c, u in near.get(v, {}).items():
                if c in remaining and c not in reached:
                    reached.add(c)
                    picks.append((v, u, f"star-uncovered:L{i}"))
    connect(g, cfg, ledger, H, f"bip-cover:L{i}", picks)

    new_cluster_of, uplinks = _grow_star_clusters(g, cfg, ledger, st, joined, i)
    for s, (rel, off) in sorted(uplinks.items()):
        H.add(rel, off, f"star-tree:L{i}")
    return new_cluster_of, _star_gtree(st, new_cluster_of, uplinks, i)


def _approx_degree(g, cfg, ledger, approx, st, cluster_of, marked, nbr_marked,
                   label):
    """Phase-1 unmarked star-degree 2-approximation: stars seen by the
    leader's own edges, plus one ACK per unmarked star sent leader-to-star.
    Each estimate is appended to ``approx`` with the stars marked then."""
    pairs = []
    for leader in st.stars():
        if leader in marked:
            continue
        unmarked = {u: s2 for u, s2 in st.nbr_star[leader].items()
                    if u not in nbr_marked[leader]}
        pairs.extend((leader, u) for u in contacts(unmarked, skip=leader).values())
    acks = signal(g, cfg, ledger, f"bip-type2:{label}", pairs)
    # members pass their ACK counts up to the leader (radius-1 gather)
    signal(g, cfg, ledger, f"bip-type2-up:{label}", (
        (v, s) for s in st.stars() for v in st.members[s] if v in acks),
        width(g.id_bits, 0, g.n))
    deg = {}
    for s in st.stars():
        if cluster_of.get(s) is None or s in marked:
            continue
        type2 = sum(acks.get(v, 0) for v in st.star_vertices(s))
        seen = {s}
        for u, s2 in st.nbr_star[s].items():
            if u not in nbr_marked[s]:
                seen.add(s2)
        deg[s] = len(seen) + type2  # type 1: the stars seen directly
    approx.append({"deg_hat": deg, "marked": frozenset(marked)})
    return deg


def _compute_reps(g, cfg, ledger, st, near, label):
    """Leaders learn which member can reach which cluster and assign one
    representative per neighboring cluster: every member streams its
    sorted adjacent clusters (the keys of its contacts ``near``, from the
    label round) to its leader, which adds its own, and the leader
    streams each member its (possibly empty) assignment back.  The host
    already holds every list a leader gathers, so the leader reads them
    directly and both streams are only charged (``_charge_stream``)."""
    adjacent = {v: sorted(near.get(v, {}))
                for s in st.stars() for v in st.star_vertices(s)}
    _charge_stream(g, cfg, ledger, f"bip-reps-up:{label}", {
        v: {s: adjacent[v]} for s in st.stars() for v in st.members[s]
    })
    reps: Dict[int, Dict[int, Tuple[int, int]]] = {}
    plans: Dict[int, Dict[int, List[int]]] = {}
    for s in st.stars():
        per_cluster: Dict[int, int] = {}
        for member in sorted(st.star_vertices(s)):
            for c in adjacent[member]:
                per_cluster.setdefault(c, member)
        reps[s] = {}
        # every member gets a (possibly empty) assignment stream
        plan: Dict[int, List[int]] = {v: [] for v in st.members[s]}
        for c, member in sorted(per_cluster.items()):
            reps[s][c] = (member, near[member][c])
            if member != s:
                plan[member].append(c)
        if plan:
            plans[s] = plan
    # this stream tells each member its assignment; the host reads the
    # same assignments from ``reps``, so it is only charged
    _charge_stream(g, cfg, ledger, f"bip-reps-down:{label}", plans)
    return reps


def _election(g, cfg, ledger, st, gtree, up, down, remaining, marked,
              nbr_marked, deg, threshold, label):
    """Approximate local-maxima test by per-edge acknowledgements.  The
    tuples go to all neighbours (``sim._to_all``), the star relays and
    acknowledgements to chosen neighbours (``common.signal``), and every
    receiver reads what it was sent on the host."""
    tuple_bits = width(g.id_bits, 1, 2 * g.n)
    # tuple step: members of remaining clusters send (degree, cluster) to all
    know = down(f"bip-tuple-down:{label}", {c: deg.get(c, 0) for c in remaining})
    tuples = {v: (know.get(v, 0), c) for v, c in gtree.membership.items()
              if c in remaining}
    _to_all(g, cfg, ledger, f"bip-tuples:{label}", tuples, tuple_bits)
    heard: Dict[int, Dict[int, Tuple]] = defaultdict(dict)  # v -> {sender: tuple}
    for v in sorted(tuples):
        for u in g.adj[v]:
            heard[u][v] = tuples[v]
    # edges on which a member of a remaining cluster is owed an
    # acknowledgement back: neighbors in stars not known to be marked
    tuple_sent = {
        v: [u for u in g.adj[v] if u in st.nbr_star[v] and u not in nbr_marked[v]]
        for v, c in gtree.membership.items() if c in remaining
    }
    # members of unmarked stars relay their best tuple to the leader
    best = {v: max(heard[v].values()) for s in st.stars() if s not in marked
            for v in st.members[s] if v in heard}
    signal(g, cfg, ledger, f"bip-star-max-up:{label}",
           ((v, st.star_of[v]) for v in best), tuple_bits)
    star_max: Dict[int, Tuple] = {}
    for s in st.stars():
        if s in marked:
            continue
        got = [*heard.get(s, {}).values(), *(best[v] for v in st.members[s] if v in best)]
        if got:
            star_max[s] = max(got)
    signal(g, cfg, ledger, f"bip-star-max-down:{label}",
           ((s, v) for s in star_max for v in st.members[s]), tuple_bits)
    known_max: Dict[int, Tuple] = dict(star_max)
    for s, t in star_max.items():
        known_max.update(dict.fromkeys(st.members[s], t))
    # ACK every neighbor whose tuple equals the star's maximum
    acks: Dict[int, Set[int]] = {}
    for v in g.vertices:
        s = st.star_of.get(v)
        if s is None or s in marked or v not in known_max:
            continue
        acks[v] = {u for u, t in heard.get(v, {}).items() if t == known_max[v]}
    signal(g, cfg, ledger, f"bip-vacks:{label}",
           ((v, u) for v, acked in acks.items() for u in acked))
    ok = {}
    for v, owed in tuple_sent.items():
        ok[v] = 1 if all(v in acks.get(u, ()) for u in owed) else 0
    is_max = up(f"bip-maxima:{label}", ok, combine="min", bound=2)
    return {
        c for c in sorted(remaining)
        if deg.get(c, 0) >= threshold and is_max.get(c, 0) == 1
    }


def _mark_after_join(g, cfg, ledger, st, down, new_joiners, marked, label):
    """Winning clusters' vertices announce success; every star that hears it
    (or belongs to a winner) marks itself, leader included."""
    hit = announce_join(
        g, cfg, ledger, (f"bip-join-down:{label}", f"bip-success:{label}"),
        new_joiners, down,
    )
    # members relay the hit to their leader, leaders mark the star
    got2 = signal(g, cfg, ledger, f"bip-mark-up:{label}", (
        (v, st.star_of[v]) for v in sorted(hit)
        if st.star_of.get(v) not in (None, v)
    ))
    newly = {s for s in st.stars() if s not in marked and (s in hit or s in got2)}
    # leaders tell members the star is marked
    signal(g, cfg, ledger, f"bip-mark-down:{label}",
           ((s, v) for s in sorted(newly) for v in st.members[s]))
    marked |= newly
    return newly


def _last_phase(g, cfg, ledger, H, st, cluster_of, gtree):
    """Every star adds one edge toward each of its neighboring clusters."""
    near = label_contacts(g, cfg, ledger, "bip-announce:last", gtree.membership)
    reps = _compute_reps(g, cfg, ledger, st, near, "last")
    connect(g, cfg, ledger, H, "bip-final-edges", (
        (rep, contact, "star-final") for s in st.stars()
        for c, (rep, contact) in reps[s].items() if c != cluster_of.get(s)
    ))
