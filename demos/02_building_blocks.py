"""The distributed building blocks every spanner construction leans on:
bounded-depth cluster growth, tree aggregation, ruling sets (plain and on
power graphs), and the balanced tree partitioning."""

from spanner import (
    Forest,
    RoundLedger,
    SimConfig,
    WeightedTree,
    bfs_dist,
    clustering_roles,
    generate,
    grow_bfs_clusters,
    partition_tree,
    ruling_set_log,
    ruling_set_power,
)

# -- growing clusters around centers -------------------------------------------

# every primitive that runs one phase charges the ledger it is given,
# under the phase name its caller picks, and returns only its result
g = generate("path", {"n": 5})
cfg, ledger = SimConfig(), RoundLedger()
clusters = grow_bfs_clusters(g, cfg, ledger, "grow", centers={0, 4}, depth=2)
print("5-path, centers {0, 4}, depth 2 ->", clusters.membership)
print("vertex 2 is equidistant and joins the larger center ID (4)")
print("rounds:", ledger.rounds_used)

# a clustering is a forest keyed by center: one role per member, (member,
# center) -> its tree parent.  A Forest checks that table once (vertices,
# parents' roles, tree edges in g and in one tree only, no cycles) and then
# runs any number of convergecasts and broadcasts over those trees, each
# charged to the ledger it was built with under the phase name it is
# given.  The convergecast takes member -> value and returns center ->
# aggregate: each member contributes 1, so each center learns its
# cluster's size.
forest = Forest(g, cfg, ledger, clustering_roles(clusters), clusters.membership)
sizes = forest.aggregate("sizes", dict.fromkeys(clusters.membership, 1))
print("cluster sizes via convergecast:", sizes)
print("the ledger's phases, (name, rounds):", ledger.per_phase)

# -- ruling sets ----------------------------------------------------------------

g = generate("path", {"n": 16})
ledger = RoundLedger()
ruling = ruling_set_log(g, cfg, ledger, "ruling-set", candidates=set(range(16)))
print("\n(4, O(log n))-ruling set of the 16-path:", sorted(ruling))
dists = {u: bfs_dist(g, u) for u in ruling}
print("pairwise distances all >= 4:",
      all(dists[u][v] >= 4 for u in ruling for v in ruling if u != v))
print("rounds:", ledger.rounds_used, "(one 3-hop wave per ID bit)")

g = generate("cycle", {"n": 30})
# a run of many phases returns a ledger of its own, which a caller folds
# into its ledger as one entry (RoundLedger.extend_sequential)
ruling, waves = ruling_set_power(g, candidates=set(range(30)), t=2)
print("\npower-graph ruling set on C30 with t=2:", sorted(ruling))
print("pairwise >= 6 apart, every candidate within 8 hops")
print("phases:", len(waves.per_phase), "(a min-flood and a deactivation per wave)")

# -- balanced tree partitioning ---------------------------------------------------

edges = frozenset((0, i) for i in range(1, 6))
tree = WeightedTree(edges=edges, root=0,
                    weights={0: 0, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}, bound=2)
parts = partition_tree(tree, cfg, RoundLedger())
print("\nstar with five unit-weight leaves, B=2:")
for i, p in enumerate(parts):
    tag = " (the root's part, which may be light)" if i == 0 else ""
    print(f"  part rooted at {p.root}: owns {sorted(p.owned)}{tag}")
print("the root serves as auxiliary root of several parts but is owned once")
