"""(2k-1)-spanners three ways: the slow cluster-by-cluster construction, the
superclustered one, and the randomized comparator, plus the structural
audits that certify a run."""

from spanner import (
    audit_superclustering,
    baswana_sen_baseline,
    cons_zero_superclustering,
    generate,
    improved_spanner,
    naive_spanner,
    verify_stretch,
)

g = generate("erdos-renyi", {"n": 200, "p": 0.08}, seed=5)
k = 4
print(f"G({g.n}, 0.08): {g.m} edges, k={k} (stretch bound {2*k-1})\n")

rows = []
res_naive = naive_spanner(g, k)
rows.append(("cluster-by-cluster", res_naive))
res_improved = improved_spanner(g, k)
rows.append(("superclustered", res_improved))
res_bs = baswana_sen_baseline(g, k, seed=1)
rows.append(("sampled baseline", res_bs))

for name, res in rows:
    rep = verify_stretch(g, res.spanner, 2 * k - 1)
    print(f"{name:20s} |H|={res.spanner.size:4d} rounds={res.ledger.rounds_used:4d} "
          f"stretch<={rep.max_stretch:.0f}")

print("\nthe superclustered run iterates over supercluster elections instead")
print("of clusters; its per-level center counts:")
for clustering, sc in res_improved.trace["superclusterings"][1:]:
    print(f"  level {sc.level}: {len(clustering.centers)} new centers")

# -- audits --------------------------------------------------------------------

print("\nnice-superclustering audit per recorded level:")
for clustering, sc in res_improved.trace["superclusterings"]:
    rep = audit_superclustering(g, clustering, sc)
    print(f"  level {sc.level}: {len(sc.superclusters):3d} superclusters -> "
          f"{'ok' if rep.passed else rep.findings[:2]}")

# -- the zero level on its own ---------------------------------------------------

z = cons_zero_superclustering(g, k)
[(clustering, sc)] = z.trace["superclusterings"]
print(f"\nzero-level superclustering alone: {len(sc.superclusters)} "
      f"superclusters covering {len(clustering.membership)}/{g.n} vertices,")
print(f"partial spanner of {z.spanner.size} edges covers everyone left out")
