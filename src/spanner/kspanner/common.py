"""Protocol helpers shared by the k-spanner constructions.  ``exchange``,
the one-round scripted step, is the simulator's own and is re-exported here."""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..clustering import Clustering
from ..graph import Graph
from ..primitives import (
    TAG_IDS,
    clustering_roles,
    forest_aggregate,
    forest_broadcast,
    id_chunks,
)
from ..sim import NodeProgram, RoundLedger, SimConfig, exchange, run


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


class ChunkedGather(NodeProgram):
    """Radius-1 gather: members stream ID lists to their hub over as many
    rounds as the bit budget requires; hubs output {member: [ids]}."""

    name = "chunked-gather"

    def init(self, view):
        p = view.private or {}
        hub = p.get("hub")
        items = list(p.get("items", ()))
        sends = hub is not None and hub != view.vid
        return {
            "hub": hub,
            "self_items": items if hub == view.vid else [],
            "chunks": id_chunks(view, items) if sends else [],
            "cursor": 0,
            "waiting": set(p.get("expect", ())),
            "collected": {},
        }

    def on_round(self, state, view, rnd, inbox):
        for sender, body in inbox:
            if body[0] == TAG_IDS:
                state["collected"].setdefault(sender, []).extend(body[1])
            else:
                state["collected"].setdefault(sender, [])
                state["waiting"].discard(sender)
        out = {}
        if state["cursor"] < len(state["chunks"]):
            out[state["hub"]] = state["chunks"][state["cursor"]]
            state["cursor"] += 1
        done = state["cursor"] >= len(state["chunks"]) and not state["waiting"]
        return out, done

    def on_finish(self, state, view):
        got = {m: tuple(v) for m, v in state["collected"].items()}
        if state["self_items"]:
            got[view.vid] = tuple(state["self_items"])
        return got


def chunked_gather(
    g: Graph,
    cfg: SimConfig,
    ledger: RoundLedger,
    name: str,
    hub_of: Dict[int, int],
    items: Dict[int, List[int]],
    expect: Dict[int, List[int]],
) -> Dict[int, Dict[int, Tuple[int, ...]]]:
    private = {
        v: {
            "hub": hub_of.get(v),
            "items": items.get(v, ()),
            "expect": expect.get(v, ()),
        }
        for v in g.vertices
    }
    outputs, led = run(g, ChunkedGather(), cfg, private=private)
    ledger.extend_sequential(led, name=name)
    return outputs


class ChunkedScatter(NodeProgram):
    """Radius-1 scatter: hubs stream per-member ID lists out; members output
    the list addressed to them."""

    name = "chunked-scatter"

    def init(self, view):
        p = view.private or {}
        hub = p.get("hub")
        return {
            "queues": {u: id_chunks(view, ids) for u, ids in p.get("plan", {}).items()},
            "done_recv": hub is None or hub == view.vid,
            "got": [],
        }

    def on_round(self, state, view, rnd, inbox):
        for _sender, body in inbox:
            if body[0] == TAG_IDS:
                state["got"].extend(body[1])
            else:
                state["done_recv"] = True
        out = {}
        empty = []
        for u, q in state["queues"].items():
            out[u] = q.pop(0)
            if not q:
                empty.append(u)
        for u in empty:
            del state["queues"][u]
        return out, not state["queues"] and state["done_recv"]

    def on_finish(self, state, view):
        return tuple(state["got"])


def chunked_scatter(
    g: Graph,
    cfg: SimConfig,
    ledger: RoundLedger,
    name: str,
    plans: Dict[int, Dict[int, List[int]]],
    hub_of: Dict[int, int],
) -> Dict[int, Tuple[int, ...]]:
    private = {
        v: {"plan": plans.get(v, {}), "hub": hub_of.get(v)} for v in g.vertices
    }
    outputs, led = run(g, ChunkedScatter(), cfg, private=private)
    ledger.extend_sequential(led, name=name)
    return outputs
