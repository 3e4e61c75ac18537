"""(2k-1)-spanner constructions: the cluster-by-cluster baseline, the
star-graph bipartite spanner, the superclustered construction with its
zero-level superclustering, and the randomized comparator.  The
cluster-by-cluster and the superclustered constructions run one
local-maxima election, ``common.elect``; the star graph reuses only its
join step (``common.announce_join``) and the zero level only its
unmarked-degree step (``common.unmarked_degree``).

Every scripted step runs through a ``primitives.Forest`` (the convergecast
and broadcast over cluster or supercluster trees), through
``common.label_contacts``, the label round (a tree key to all neighbours;
each receiver keeps the smallest-ID sender of each key), through
``common.signal`` (one message per chosen (sender, receiver) pair: bare
tokens, or at their width the star graph's relays and the zero level's
one-vertex star formation), through
``sim._to_all`` (the other rounds to all neighbours: the comparator's
status round, the elections' tuples and join tokens, the star graph's
marked-star tokens) or, for the star graph's ID lists, through
``common._charge_stream``, the one chunked ID stream.  No round builds
inboxes: the host already holds what every receiver reads, and only
charges the round.  ``common.connect`` (the Baswana-Sen edge step: one
edge per pick, and a token that tells the other end) and the election's
ack and vote rounds count their tokens themselves, because their
receivers are neighbours by construction.  Forest passes, scripted
rounds and streams are accounted without per-vertex sends: in bulk
within the budget, message by message over it.

One rule takes every step into a ledger: a step or primitive that runs
one phase (each of the above, cluster growth, a tree partition) charges
the construction's ledger under the phase name the construction picks,
and returns only its result.  A run of many phases keeps a ledger of its
own and is folded in as one entry: the power-graph ruling set's waves
(``zero-ruling:Z*``) and the cluster-by-cluster tail of ``improved``
(``tail``) in sequence (``extend_sequential``), sub-constructions and
tree partitions side by side (``extend_parallel``)."""

from .naive import naive_spanner
from .starbip import sparser_bipartite_spanner
from .improved import improved_spanner
from .zero import cons_zero_superclustering
from .baseline import baswana_sen_baseline

__all__ = [
    "naive_spanner",
    "sparser_bipartite_spanner",
    "improved_spanner",
    "cons_zero_superclustering",
    "baswana_sen_baseline",
]
