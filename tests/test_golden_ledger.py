"""Golden ledgers: a refactor of the constructions must leave the full
ledger JSON (every ``per_phase`` name and round count included), the edge
set and the edge provenance byte-identical.  Each build is hashed as
sha256 over one JSON document of the three."""

import hashlib
import json

import pytest

from spanner import sim

from spanner import (
    Bipartition,
    SimConfig,
    baswana_sen_baseline,
    bipartite_3_spanner,
    cons_zero_superclustering,
    generate,
    improved_3_spanner,
    improved_spanner,
    naive_spanner,
    small_id_3_spanner,
    sparser_bipartite_spanner,
    three_spanner_given_partition,
    with_random_weights,
)
from spanner.pins import CORPUS_SPEC

SPECS = {name: (kind, params, seed) for name, kind, params, seed in CORPUS_SPEC}


def _graph(name):
    kind, params, seed = SPECS[name]
    return generate(kind, params, seed)


def _build(alg, k, name):
    g = _graph(name)
    if alg.endswith("-audit"):
        # audit mode at the budget floor: every overrun is a violation
        # record in the ledger instead of an error
        cfg = SimConfig(strict=False, msg_bit_budget=8 + g.id_bits)
        if alg == "sparserbip-audit":
            return sparser_bipartite_spanner(
                g, Bipartition(range(16), range(16, g.n)), k, cfg)
        build = improved_spanner if alg == "improved-audit" else cons_zero_superclustering
        return build(g, k, cfg)
    if alg == "naive":
        return naive_spanner(g, k)
    if alg == "bs-baseline":
        return baswana_sen_baseline(g, k, seed=0)
    if alg == "improved":
        return improved_spanner(g, k)
    if alg == "sparserbip":
        return sparser_bipartite_spanner(g, Bipartition(range(16), range(16, g.n)), k)
    if alg == "zerosc":
        return cons_zero_superclustering(g, k)
    # the 3-spanners (k = 2)
    if alg == "imp3":
        return improved_3_spanner(g)
    if alg == "imp3-weighted":
        return improved_3_spanner(with_random_weights(g, 7))
    if alg == "bip3":
        return bipartite_3_spanner(g, Bipartition(range(16), range(16, g.n)))
    if alg == "smallid3":
        return small_id_3_spanner(g)
    return three_spanner_given_partition(g, [g.vertices[i::3] for i in range(3)])


# (construction, k, corpus graph) -> digest at the commit before the
# election was shared.  improved runs on n >= 64, so its supercluster
# election runs and has joiners; naive runs on n < 64.
GOLDEN = {
    ("naive", 3, "er10-60"):
        "35c2af2bde19d21f69cf2ec94610271929261a8a2b4631d64fd8b436a6856c85",
    ("naive", 4, "grid-6x8"):
        "133cd1ddb3e5fa380ed67e36f16a2fca8ffa826df44c9990200f1a562f6201b4",
    ("improved", 4, "er10-100"):
        "1c38427ae70cd0e53844dd337d8ae8f98cc228f5b5175896f12c384bb123fb21",
    ("improved", 6, "hyper-64"):
        "e109df26b4cd01d56b7d7d6c630cfaabe7be4628aaa5a70c4453e2d609a3e45f",
    ("sparserbip", 4, "rbip-16x80"):
        "ac97352fc47d04455d0c543599743bcdea02fce2626e5609a49009da62c8115a",
    ("sparserbip", 6, "rbip-16x80"):
        "0dd90ef5f8202ce1b78c66cb4861ab12176372a602ec609fa39e6650657d05d3",
    ("zerosc", 4, "er10-100"):
        "207adbfb0ea9c7ab84010e9bd50ea50a61f3f8f29f8154a5ead85dd3f63ed493",
    # digests at the commit before the star rounds left the NodeProgram
    # engine: the partitioned, bipartite, small-ID and given-partition
    # star constructions, unweighted and weighted
    ("imp3", 2, "er30-80"):
        "7abc2c75ca93f704674e1e22db23d0071483b0b2c1a58268a548570c247deba8",
    ("imp3-weighted", 2, "er30-80"):
        "6e74a41214e785d7b07fe7f95387a6f1b1020b4e69eb9d1597a5f416110372c3",
    ("bip3", 2, "rbip-16x80"):
        "869fe85ee8a389283f45e74906c43fb084c5322c4dbb09df79f0c712ae6a980a",
    ("smallid3", 2, "bid-120"):
        "c6f18fb07a09e78f516aad3afbefde71143468061b50a411672e827e12e28393",
    ("given", 2, "grid-10x10"):
        "42dc70ea3ef7e8183eb448534daa728c489229155b39c0af0edc1bce8dec6df8",
    # digests at the commit before cluster growth, the power-graph floods
    # and the tree partition left the NodeProgram engine; their ledgers
    # hold the violation records of all four (hyper-64: 2,742
    # grow-clusters, 2,990 min-flood, 384 hop-flood, 128 tree-partition;
    # er10-100: 1,803, 5,119, 0 and 98)
    ("improved-audit", 6, "hyper-64"):
        "5b67bd8fa9110f38d1dfef6d3610c38d506098d553187058b55bc6d5520d3cbe",
    ("zerosc-audit", 4, "er10-100"):
        "dec4d87032c7f54c90d317dd6b1fce171961ef26e56b93f671addfeb01fe918d",
    # digest from before the star graph's scripted rounds were charged by
    # shared helpers, unchanged now that its tuples go through
    # ``sim._to_all`` and its star relays through ``common.signal``; the
    # ledger holds the over-budget records of the tuple announcements and
    # the star relays (1,379 bip-tuples, 158 each bip-star-max-up and
    # bip-star-max-down)
    ("sparserbip-audit", 6, "rbip-16x80"):
        "4da961c4640f0ae7756a2663af2368be84c69f67d9f3a4b7ef8845725f5cac02",
    # digests after one-vertex bipartite covers end at star formation:
    # the low-expansion covers of paths and cycles are mostly one-vertex
    # instances (path-100 takes 3 rounds, cycle-120 3; both took 24
    # before, with the same edges)
    ("improved", 4, "path-100"):
        "04d29528f16163f20e95d3714ff3247afde27065a3ffc697cdb8abf7253dfcdc",
    ("improved", 4, "cycle-120"):
        "6407805a797fa7944b6e43f5b9ccfaa4d74e021c442ca384bc762a92ebe58f9a",
    # digests of the randomized comparator (seed 0) at the commit before
    # its scripted rounds moved onto the shared step helpers
    ("bs-baseline", 3, "er10-100"):
        "628abe39357bdbb1ccff69a97228baa5a84d0b1c1745f455c99ce6015a8407fa",
    ("bs-baseline", 4, "grid-10x10"):
        "80d67159064d9f4c431ee9dbc10a5c79442f16bf5a054c446d25893fb7a672d9",
}


def ledger_digest(res) -> str:
    doc = {
        "ledger": res.ledger.to_json(),
        "edges": sorted(res.spanner.edges),
        "provenance": sorted(res.spanner.provenance.items()),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("alg,k,name", list(GOLDEN))
def test_golden_ledger(alg, k, name):
    assert ledger_digest(_build(alg, k, name)) == GOLDEN[(alg, k, name)]


@pytest.mark.parametrize("name", ["er30-80", "rbip-16x80", "kbip-6x20", "er10-100"])
def test_star_rounds_and_id_streams_never_violate(name):
    # the star rounds and the chunked ID streams are accounted in bulk on
    # the premise that they cannot overrun the budget or the congestion
    # limit: audit mode at the budget floor records nothing for them,
    # although it does for other phases of imp3
    g = _graph(name)
    cfg = SimConfig(strict=False, msg_bit_budget=8 + g.id_bits)
    bip = Bipartition(range(16), range(16, g.n))
    builds = {
        "imp3": improved_3_spanner(g, cfg),
        "smallid3": small_id_3_spanner(g, cfg),
        "bip3": bipartite_3_spanner(g, bip, cfg),
        "sparserbip": sparser_bipartite_spanner(g, bip, 3, cfg),
    }
    for alg, res in builds.items():
        ledger = res.ledger.to_json()
        ran = [p for p in ledger["per_phase"]
               if p["name"] == "star-spanner" or p["name"].startswith("bip-reps-")]
        assert ran and all(p["rounds"] > 0 for p in ran), alg
        assert not [v for v in ledger["violations"]
                    if v["program"] == "star-spanner"
                    or v["program"].startswith("bip-reps-")], alg
    assert builds["imp3"].ledger.violations


def test_only_the_round_loop_posts(monkeypatch):
    # the send step serves only ``sim.run``'s round loop: every over-budget
    # round of the improved-audit build, whose ledger holds thousands of
    # violation records (the tree partition's at three widths among them),
    # is accounted through ``sim._overrun``
    def spy(*args):
        raise AssertionError("a library phase posted through the send step")

    monkeypatch.setattr(sim, "_post", spy)
    _build("improved-audit", 6, "hyper-64")
