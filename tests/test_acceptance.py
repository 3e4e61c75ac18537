"""Acceptance criteria, one test per criterion, each printing a verdict line.

Regression constants come from spanner/pins.json (regenerate only via
``python -m spanner.pins --write``).  All runs execute in strict budget
mode, so any message over ceil(8 log2 n) bits would abort the run.
"""

import math
import random
import statistics
import time

import pytest

from spanner import (
    Bipartition,
    RoundLedger,
    SimConfig,
    WeightedTree,
    audit_ruling_set,
    audit_superclustering,
    baswana_sen_baseline,
    bipartite_3_spanner,
    generate,
    improved_3_spanner,
    improved_spanner,
    partition_tree,
    ruling_set_log,
    ruling_set_power,
    small_id_3_spanner,
    sparser_bipartite_spanner,
    verify_stretch,
    verify_stretch_allpairs,
)
from spanner.kspanner.common import ipow_ceil
from spanner.pins import (
    BASELINE_K,
    BASELINE_SEEDS,
    CORPUS_SPEC,
    ROUND_SERIES,
    SCALING_DIMS,
    SCALING_K,
    bipartite_corpus,
    corpus,
    load_pins,
    weighted_corpus,
)
from spanner.verify import fit_exponent

SIZE_SLACK = 1.01


@pytest.fixture(scope="module")
def pins():
    return load_pins()


@pytest.fixture(scope="module")
def graphs():
    return corpus()


@pytest.fixture(scope="module")
def improved_runs(graphs):
    t0 = time.time()
    runs = {}
    for name, g in graphs:
        for k in (2, 3, 4, 5, 6):
            runs[(name, k)] = improved_spanner(g, k)
    runs["__elapsed__"] = time.time() - t0
    return runs


@pytest.fixture(scope="module")
def imp3_runs(graphs):
    return {name: improved_3_spanner(g) for name, g in graphs}


@pytest.fixture(scope="module")
def weighted_imp3_runs():
    return {name: (g, improved_3_spanner(g)) for name, g in weighted_corpus()}


def test_criterion_1_stretch_correctness(graphs, improved_runs):
    failures = []
    for name, g in graphs:
        for k in (2, 3, 4, 5, 6):
            bound = 3 if k == 2 else 2 * k - 1
            rep = verify_stretch(g, improved_runs[(name, k)].spanner, bound)
            if not rep.passed:
                failures.append((name, k, rep.worst_edge, rep.max_stretch))
    elapsed = improved_runs["__elapsed__"]
    verdict = "PASS" if not failures and elapsed < 300 else "FAIL"
    print(
        f"\nACCEPT-1 stretch (2k-1) on {len(graphs)} graphs x k=2..6, "
        f"build time {elapsed:.0f}s: {verdict} {failures[:3]}"
    )
    assert not failures, failures[:5]
    assert elapsed < 300


def test_criterion_2_three_spanner_size(graphs, imp3_runs, pins):
    pin = pins["three_spanner"]
    bad = []
    for name, g in graphs:
        size = imp3_runs[name].spanner.size
        if size > SIZE_SLACK * pin["max_ratio"] * g.n**1.5:
            bad.append((name, size))
        if size != pin["sizes"][name]:
            bad.append((name, size, "drifted from pin", pin["sizes"][name]))
    print(f"\nACCEPT-2 |H| <= {pin['max_ratio']:.3f} n^1.5 (pinned): "
          f"{'PASS' if not bad else 'FAIL'} {bad[:3]}")
    assert not bad, bad[:5]


def test_criterion_3_two_round_claims(graphs):
    bad = []
    for name, g, a, b in bipartite_corpus():
        res = bipartite_3_spanner(g, Bipartition(range(a), range(a, a + b)))
        if res.ledger.rounds_used != 2:
            bad.append(("bip3", name, res.ledger.rounds_used))
    for name, g in graphs:
        if g.m == 0:
            continue
        res = small_id_3_spanner(g)
        if res.ledger.rounds_used != 2:
            bad.append(("smallid3", name, res.ledger.rounds_used))
    print(f"\nACCEPT-3 exact two-round constructions: "
          f"{'PASS' if not bad else 'FAIL'} {bad[:3]}")
    assert not bad, bad


def test_criterion_4_weighted_three_spanner(weighted_imp3_runs):
    bad = []
    for name, (g, res) in weighted_imp3_runs.items():
        rep = verify_stretch(g, res.spanner, 3)
        if not rep.passed:
            bad.append((name, rep.max_stretch))
    print(f"\nACCEPT-4 weighted stretch <= 3 on 10 graphs: "
          f"{'PASS' if not bad else 'FAIL'} {bad}")
    assert not bad, bad


def test_criterion_5_bipartite_size_pins(pins):
    bad = []
    for k in (4, 5, 6):
        pin = pins["bipartite"][str(k)]
        expo = 1 + 2 / k if k % 2 == 0 else 1 + 2 / (k - 1)
        for name, g, a, b in bipartite_corpus():
            res = sparser_bipartite_spanner(
                g, Bipartition(range(a), range(a, a + b)), k
            )
            bound = k * a**expo + b
            if res.spanner.size > SIZE_SLACK * pin["max_ratio"] * bound:
                bad.append((k, name, res.spanner.size))
            if res.spanner.size != pin["sizes"][name]:
                bad.append((k, name, "drifted from pin"))
    print(f"\nACCEPT-5 bipartite size pins k in {{4,5,6}}: "
          f"{'PASS' if not bad else 'FAIL'} {bad[:3]}")
    assert not bad, bad[:5]


def test_criterion_6_improved_size(graphs, improved_runs, pins):
    pin = pins["improved"]
    bad = []
    gmap = dict(graphs)
    for name, g in graphs:
        for k in (2, 3, 4, 5, 6):
            size = improved_runs[(name, k)].spanner.size
            if size > SIZE_SLACK * pin["max_ratio"] * k * g.n ** (1 + 1 / k):
                bad.append((name, k, size, "bound"))
            if size != pin["sizes"][f"{name}:k{k}"]:
                bad.append((name, k, size, "pin drift"))
    # sanity comparator: improved is never 3x worse than the sampled baseline
    for name, g in graphs:
        if g.m == 0:
            continue
        means = statistics.mean(
            baswana_sen_baseline(g, BASELINE_K, seed=s).spanner.size
            for s in range(BASELINE_SEEDS)
        )
        size = improved_runs[(name, BASELINE_K)].spanner.size
        if size > 3 * means:
            bad.append((name, "baseline", size, means))
    print(f"\nACCEPT-6 |H| <= {pin['max_ratio']:.3f} k n^(1+1/k) and <= 3x "
          f"baseline: {'PASS' if not bad else 'FAIL'} {bad[:3]}")
    assert not bad, bad[:5]


def test_criterion_7_round_scaling(pins):
    pin = pins["round_scaling"]
    rounds = {}
    for d in SCALING_DIMS:
        g = generate("hypercube", {"d": d})
        res = improved_spanner(g, SCALING_K)
        rounds[g.n] = res.ledger.rounds_used
    drift = [
        (n, r, pin["rounds"][str(n)])
        for n, r in rounds.items()
        if r != pin["rounds"][str(n)]
    ]
    ns = sorted(rounds)
    exponent, _ = fit_exponent(ns, [rounds[n] for n in ns])
    cap = pin["cap_constant"] * SIZE_SLACK
    over_cap = [
        (n, r)
        for n, r in rounds.items()
        if r > cap * 2 ** (4 * SCALING_K) * n ** (0.5 - 1 / SCALING_K)
    ]
    ok = not drift and not over_cap and 0.15 <= exponent <= 0.35
    print(f"\nACCEPT-7 rounds {dict(sorted(rounds.items()))} exponent "
          f"{exponent:.3f} in [0.15,0.35]: {'PASS' if ok else 'FAIL'}")
    assert not drift, drift
    assert not over_cap, over_cap
    assert 0.15 <= exponent <= 0.35, exponent


def test_criterion_8_message_budget(graphs, improved_runs, imp3_runs, pins):
    # every construction above ran in strict mode: an over-budget message or
    # congestion overload would have raised.  Check the recorded audit pins.
    bad = []
    worst = 0
    for name, g in graphs:
        for k in (2, 3, 4, 5, 6):
            led = improved_runs[(name, k)].ledger
            if led.violations:
                bad.append((name, k, led.violations[:1]))
            worst = max(worst, led.max_bits_seen)
            pinned = pins["max_bits"].get(f"improved:k{k}:{name}")
            if pinned is not None and led.max_bits_seen != pinned:
                bad.append((name, k, "bit audit drift"))
        worst = max(worst, imp3_runs[name].ledger.max_bits_seen)
    if worst > pins["max_bits_overall"]:
        bad.append(("overall", worst))
    print(f"\nACCEPT-8 strict budget, max bits used {worst} "
          f"(pinned {pins['max_bits_overall']}): "
          f"{'PASS' if not bad else 'FAIL'} {bad[:3]}")
    assert not bad, bad[:5]


def test_criterion_9_structural_invariants(graphs, improved_runs):
    findings = []
    gmap = dict(graphs)

    # nice-superclustering audits on every recorded level of every k=4 run
    audited = 0
    for name, g in graphs:
        res = improved_runs[(name, 4)]
        for level, clustering, sc in res.trace.get("superclusterings", []):
            rep = audit_superclustering(g, clustering, sc)
            if not rep.passed:
                findings.append((name, level, rep.findings[:2]))
            audited += 1

    # successful-supercluster unmarked neighborhoods are pairwise disjoint
    for name, g in graphs:
        res = improved_runs[(name, 4)]
        for rec in res.trace.get("si_records", []):
            if rec.get("where") != "superclusters" or len(rec["joined"]) < 2:
                continue
            unmarked = set(g.vertices) - set(rec["marked_before"])
            hoods = []
            for scid in rec["joined"]:
                hood = set()
                for v in rec["sc_members"][scid]:
                    if v in unmarked:
                        hood.add(v)
                    hood.update(u for u in g.adj[v] if u in unmarked)
                hoods.append((scid, hood))
            for i in range(len(hoods)):
                for j in range(i + 1, len(hoods)):
                    if hoods[i][1] & hoods[j][1]:
                        findings.append((name, "overlap", hoods[i][0], hoods[j][0]))

    # center counts: |Z_i| <= 4 n^(1-i/k) at every recorded level,
    # including the zero pre-clustering and the tail levels
    for name, g in graphs:
        for k in (3, 4, 5, 6):
            res = improved_runs[(name, k)]
            for i, z in res.trace.get("z_sizes", {}).items():
                if z > 4 * ipow_ceil(g.n, k - i, k):
                    findings.append((name, k, i, z))
            zero_levels = res.trace.get("zero", {}).get("levels", {})
            for i, rec in zero_levels.items():
                if rec.get("centers", 0) > 4 * ipow_ceil(g.n, k - i, k):
                    findings.append((name, k, "zero", i, rec["centers"]))
            tail_levels = res.trace.get("tail", {}).get("levels", {})
            for i, z in tail_levels.items():
                if z > 4 * ipow_ceil(g.n, k - i, k):
                    findings.append((name, k, "tail", i, z))

    # balanced partition properties on 1000 random weighted trees
    rng = random.Random(20260810)
    part_checked = 0
    cfg = SimConfig(msg_bit_budget=64)
    for _ in range(1000):
        n = rng.randint(1, 100)
        B = rng.randint(1, 8)
        weights = {i: rng.randint(0, B) for i in range(n)}
        edges = frozenset((rng.randrange(i), i) for i in range(1, n))
        parts = partition_tree(
            WeightedTree(edges=edges, root=0, weights=weights, bound=B), cfg, RoundLedger()
        )
        owned = [v for p in parts for v in p.owned]
        if sorted(owned) != list(range(n)):
            findings.append(("partition", "D1", n))
            continue
        # part 0 is the root's part, the one that may be light
        if parts[0].root != 0 or 0 not in parts[0].owned:
            findings.append(("partition", "root-part", n))
        used = set()
        for idx, p in enumerate(parts):
            w = sum(weights.get(v, 0) for v in p.owned)
            if idx != 0 and not (B <= w <= 2 * B):
                findings.append(("partition", "D2", n, idx, w))
            if idx == 0 and w > 2 * B:
                findings.append(("partition", "D2-leftover", n, w))
            if not (p.tree_vertices <= set(p.owned) | {p.root}):
                findings.append(("partition", "D3", n))
            if p.edges & used:
                findings.append(("partition", "D4", n))
            used |= p.edges
        part_checked += 1

    # ruling sets: exhaustive separation/domination checks, n <= 200
    ruling_checked = 0
    for g, cand in [
        (generate("path", {"n": 200}), set(range(200))),
        (generate("cycle", {"n": 180}), set(range(0, 180, 2))),
        (generate("grid", {"rows": 10, "cols": 15}), set(range(150))),
        (generate("erdos-renyi", {"n": 160, "p": 0.04}, seed=77), set(range(0, 160, 3))),
    ]:
        U = ruling_set_log(g, cfg, RoundLedger(), "ruling-set", cand)
        rep = audit_ruling_set(g, cand, U, alpha=4, beta=3 * g.id_bits)
        if not rep.passed:
            findings.append(("ruling-log", rep.findings[:2]))
        for t in (1, 2):
            U, _ = ruling_set_power(g, cand, t, cfg)
            rep = audit_ruling_set(g, cand, U, alpha=3 * t, beta=4 * t)
            if not rep.passed:
                findings.append(("ruling-power", t, rep.findings[:2]))
        ruling_checked += 1

    ok = not findings
    print(f"\nACCEPT-9 structural invariants ({audited} superclustering "
          f"audits, {part_checked} trees, {ruling_checked} ruling graphs): "
          f"{'PASS' if ok else 'FAIL'} {findings[:3]}")
    assert ok, findings[:5]


def test_criterion_10_oracle_cross_validation(graphs, imp3_runs):
    bad = []
    checked = 0
    for name, g in graphs:
        if g.n > 120 or g.m == 0:
            continue
        h = imp3_runs[name].spanner
        a = verify_stretch(g, h, 3)
        b = verify_stretch_allpairs(g, h, 3)
        same = (
            a.passed == b.passed
            and a.worst_edge == b.worst_edge
            and (
                math.isinf(a.max_stretch) and math.isinf(b.max_stretch)
                or abs(a.max_stretch - b.max_stretch) < 1e-9
            )
        )
        if not same:
            bad.append((name, a.max_stretch, b.max_stretch))
        checked += 1
    print(f"\nACCEPT-10 per-edge oracle vs Floyd-Warshall on {checked} "
          f"graphs: {'PASS' if not bad else 'FAIL'} {bad}")
    assert checked >= 10
    assert not bad, bad


def round_bound(n, k):
    """The paper's round bound without its constant: 2^k n^(1/2-1/k) for
    even k, 2^k n^(1/2-1/(2k)) for odd k."""
    return 2**k * n ** (0.5 - 1 / (k if k % 2 == 0 else 2 * k))


def test_criterion_11_round_claims(graphs, improved_runs, imp3_runs,
                                   weighted_imp3_runs, pins):
    pin = pins["round_claim"]
    family = {name: kind for name, kind, _params, _seed in CORPUS_SPEC}
    drift = []
    ratios = {}
    for name, g in graphs:
        for k in (2, 3, 4, 5, 6):
            rounds = improved_runs[(name, k)].ledger.rounds_used
            if rounds != pin["improved"][f"{name}:k{k}"]:
                drift.append(("improved", name, k, rounds))
            # k=2 is the 3-spanner, whose claim is O(log n) rounds
            claim = math.log2(g.n) if k == 2 else round_bound(g.n, k)
            if claim > 0:
                key = (family[name], k)
                ratios[key] = max(ratios.get(key, 0.0), rounds / claim)
    per_log = {}
    runs3 = [("imp3", name, family[name], g, imp3_runs[name]) for name, g in graphs]
    runs3 += [("imp3_weighted", name, "weighted", g, res)
              for name, (g, res) in weighted_imp3_runs.items()]
    for section, name, fam, g, res in runs3:
        rounds = res.ledger.rounds_used
        if rounds != pin[section][name]:
            drift.append((section, name, rounds))
        if g.n > 1:
            per_log[fam] = max(per_log.get(fam, 0.0), rounds / math.log2(g.n))
    series = {}
    for name, kind, n, k in ROUND_SERIES:
        rounds = improved_spanner(generate(kind, {"n": n}), k).ledger.rounds_used
        if rounds != pin["series"][f"{name}:k{k}"]:
            drift.append(("series", name, k, rounds))
        series.setdefault((kind, k), []).append(
            f"n={n} {rounds}/{rounds / round_bound(n, k):.3f}")
    print("\nACCEPT-11 max rounds / claim (k=2: log2 n; k>=3: 2^k n^(1/2-1/k), "
          "odd k n^(1/2-1/(2k))):")
    for fam in sorted({f for f, _k in ratios}):
        print(f"  {fam:20s} " + " ".join(
            f"k{k}={ratios.get((fam, k), 0.0):.3f}" for k in (2, 3, 4, 5, 6)))
    print("  imp3 max rounds / log2 n: " + ", ".join(
        f"{fam} {r:.2f}" for fam, r in sorted(per_log.items())))
    print("  improved series, rounds/ratio to claim:")
    for (kind, k), row in series.items():
        print(f"  {kind:5s} k{k} " + "  ".join(row))
    print(f"ACCEPT-11 exact round pins on {len(graphs)} graphs x k=2..6, "
          f"{len(runs3)} imp3 builds and {len(ROUND_SERIES)} series builds: "
          f"{'PASS' if not drift else 'FAIL'} {drift[:3]}")
    assert not drift, drift[:5]
