"""Deterministic distributed spanner constructions on a CONGEST simulator.

The library has three layers: the round-synchronous simulation engine
(`sim`), distributed building blocks (`primitives`), and the spanner
constructions (`spanner3`, `kspanner`), with an independent verification
harness (`verify`) and a command-line front end (`cli`).
"""

from .graph import (
    Graph,
    Spanner,
    bfs_dist,
    generate,
    load,
    save,
    with_random_weights,
)
from .sim import (
    BudgetError,
    Msg,
    NodeProgram,
    RoundLedger,
    SimConfig,
    SimTimeout,
    run,
)
from .clustering import (
    Clustering,
    Supercluster,
    Superclustering,
    WeightedTree,
)
from .primitives import (
    Forest,
    clustering_roles,
    grow_bfs_clusters,
    partition_tree,
    ruling_set_log,
    ruling_set_power,
)
from .spanner3 import (
    Bipartition,
    bipartite_3_spanner,
    improved_3_spanner,
    partition_high_degree,
    small_id_3_spanner,
    three_spanner_given_partition,
)
from .kspanner import (
    baswana_sen_baseline,
    cons_zero_superclustering,
    improved_spanner,
    naive_spanner,
    sparser_bipartite_spanner,
)
from .results import SpannerRun
from .verify import (
    StretchReport,
    audit_ruling_set,
    audit_superclustering,
    fit_bounds,
    fit_exponent,
    verify_stretch,
    verify_stretch_allpairs,
)

__all__ = [
    "Graph", "Spanner", "bfs_dist", "generate", "load", "save",
    "with_random_weights",
    "BudgetError", "Msg", "NodeProgram", "RoundLedger", "SimConfig",
    "SimTimeout", "run",
    "Clustering", "Supercluster", "Superclustering", "WeightedTree",
    "Forest", "clustering_roles",
    "grow_bfs_clusters", "partition_tree",
    "ruling_set_log", "ruling_set_power",
    "Bipartition", "bipartite_3_spanner", "improved_3_spanner",
    "partition_high_degree", "small_id_3_spanner",
    "three_spanner_given_partition",
    "baswana_sen_baseline", "cons_zero_superclustering", "improved_spanner",
    "naive_spanner", "sparser_bipartite_spanner",
    "SpannerRun",
    "StretchReport", "audit_ruling_set", "audit_superclustering",
    "fit_bounds", "fit_exponent", "verify_stretch", "verify_stretch_allpairs",
]
