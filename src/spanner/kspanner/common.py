"""Protocol helpers shared by the k-spanner constructions.  ``exchange``,
the one-round scripted step, is the simulator's own and is re-exported here."""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..clustering import Clustering
from ..graph import Graph
from ..primitives import clustering_roles, forest_aggregate, forest_broadcast
from ..sim import BitCost, Msg, RoundLedger, SimConfig, exchange


def ipow_ceil(n: int, num: int, den: int) -> int:
    """ceil(n^(num/den)) with float-noise protection."""
    if n <= 0:
        return 0
    return max(1, math.ceil(n ** (num / den) - 1e-9))


def clustering_aggregate(
    g: Graph,
    cfg: SimConfig,
    ledger: RoundLedger,
    name: str,
    clustering: Clustering,
    values: Dict[int, int],
    combine: str = "sum",
    bound: Optional[int] = None,
) -> Dict[int, int]:
    """Convergecast per cluster tree; returns center -> aggregate."""
    member = clustering.membership
    per_tree = {v: {member[v]: x} for v, x in values.items() if v in member}
    result, led = forest_aggregate(
        g, clustering_roles(clustering), per_tree, combine, bound, cfg
    )
    ledger.extend_sequential(led, name=name)
    return result


def clustering_broadcast(
    g: Graph,
    cfg: SimConfig,
    ledger: RoundLedger,
    name: str,
    clustering: Clustering,
    center_values: Dict[int, int],
    bound: Optional[int] = None,
) -> Dict[int, int]:
    """Push one value per center down its tree; returns vertex -> value."""
    got, led = forest_broadcast(
        g, clustering_roles(clustering), center_values, bound, cfg
    )
    ledger.extend_sequential(led, name=name)
    return {v: got[v][c] for v, c in clustering.membership.items()}


# -- chunked ID streams ------------------------------------------------------

TAG_IDS, TAG_END = 0, 1


def id_chunks(bits: BitCost, budget: int, ids) -> List[Msg]:
    """Frame an ID list as budget-sized (TAG_IDS, ids) messages followed by
    one (TAG_END,) marker, to be sent over an edge one per round."""
    ids = tuple(ids)
    per_msg = max(1, (budget - 8) // bits.id_bits)
    msgs = []
    for i in range(0, len(ids), per_msg):
        piece = ids[i : i + per_msg]
        msgs.append(bits.msg((TAG_IDS, piece), ids=len(piece)))
    msgs.append(bits.msg((TAG_END,)))
    return msgs


def _stream(
    g: Graph,
    cfg: SimConfig,
    ledger: RoundLedger,
    name: str,
    lists: Dict[int, Dict[int, List[int]]],
) -> Dict[int, List[Tuple[int, tuple]]]:
    """Stream every ID list ``lists[v][u]`` from v to its neighbor u as
    ``id_chunks`` messages, message r of every stream in scripted round r,
    and fold the rounds into ``ledger`` as one phase ``name``.  Chunks fit
    the budget and every edge carries one message per round, so no round
    can overrun.  Returns v -> [(sender, body)] in round, then sender
    order."""
    cfg.check(g)
    bits, budget = BitCost(g), cfg.budget_for(g)
    queues = {
        v: {u: id_chunks(bits, budget, ids) for u, ids in per_nbr.items()}
        for v, per_nbr in lists.items()
    }
    depth = max((len(q) for qs in queues.values() for q in qs.values()), default=0)
    sub = RoundLedger()
    got: Dict[int, List[Tuple[int, tuple]]] = {v: [] for v in g.vertices}
    for rnd in range(1, depth + 1):
        out = {
            v: {u: q[rnd - 1] for u, q in qs.items() if rnd <= len(q)}
            for v, qs in queues.items()
        }
        for v, inbox in exchange(g, cfg, sub, name, out).items():
            got[v].extend(inbox)
    ledger.extend_sequential(sub, name=name)
    return got


def chunked_gather(
    g: Graph,
    cfg: SimConfig,
    ledger: RoundLedger,
    name: str,
    hub_of: Dict[int, int],
    items: Dict[int, List[int]],
) -> Dict[int, Dict[int, Tuple[int, ...]]]:
    """Radius-1 gather: every vertex streams ``items[v]`` to its hub
    ``hub_of[v]``.  Returns, per vertex, {sender: ids} of the lists it
    received, plus its own items under its own ID when it is its own hub."""
    lists = {
        v: {hub: items.get(v, ())}
        for v, hub in hub_of.items()
        if hub is not None and hub != v
    }
    got = _stream(g, cfg, ledger, name, lists)
    outputs = {}
    for v in g.vertices:
        collected: Dict[int, List[int]] = {}
        for sender, body in got[v]:
            ids = collected.setdefault(sender, [])
            if body[0] == TAG_IDS:
                ids.extend(body[1])
        own = {m: tuple(ids) for m, ids in collected.items()}
        if hub_of.get(v) == v and items.get(v):
            own[v] = tuple(items[v])
        outputs[v] = own
    return outputs


def chunked_scatter(
    g: Graph,
    cfg: SimConfig,
    ledger: RoundLedger,
    name: str,
    plans: Dict[int, Dict[int, List[int]]],
) -> Dict[int, Tuple[int, ...]]:
    """Radius-1 scatter: every hub h streams ``plans[h][u]`` to each member
    u.  Returns, per vertex, the IDs it received."""
    got = _stream(g, cfg, ledger, name, plans)
    return {
        v: tuple(i for _s, body in got[v] if body[0] == TAG_IDS for i in body[1])
        for v in g.vertices
    }
