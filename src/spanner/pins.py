"""The fixed evaluation corpus and the regression pins derived from it.

The asymptotic size and round claims are checked as fitted-constant
regressions: the constants are computed once from deterministic runs over
this corpus, stored in pins.json, and every later run must reproduce them
(1% slack on sizes, exact on round counts and bit audits).  Refitting only
happens by explicitly rewriting the file with ``python -m spanner.pins``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

from .graph import Graph, generate, with_random_weights
from .kspanner import baswana_sen_baseline, improved_spanner
from .results import SpannerRun
from .spanner3 import Bipartition, improved_3_spanner
from .verify import fit_bounds, fit_exponent

PINS_PATH = os.path.join(os.path.dirname(__file__), "pins.json")

CORPUS_SPEC: List[Tuple[str, str, dict, int]] = [
    ("path-40", "path", {"n": 40}, 0),
    ("path-100", "path", {"n": 100}, 0),
    ("path-220", "path", {"n": 220}, 0),
    ("cycle-48", "cycle", {"n": 48}, 0),
    ("cycle-120", "cycle", {"n": 120}, 0),
    ("cycle-260", "cycle", {"n": 260}, 0),
    ("grid-6x8", "grid", {"rows": 6, "cols": 8}, 0),
    ("grid-10x10", "grid", {"rows": 10, "cols": 10}, 0),
    ("grid-12x16", "grid", {"rows": 12, "cols": 16}, 0),
    ("er02-100", "erdos-renyi", {"n": 100, "p": 0.02}, 11),
    ("er02-200", "erdos-renyi", {"n": 200, "p": 0.02}, 12),
    ("er02-240", "erdos-renyi", {"n": 240, "p": 0.02}, 14),
    ("er02-300", "erdos-renyi", {"n": 300, "p": 0.02}, 13),
    ("er10-60", "erdos-renyi", {"n": 60, "p": 0.1}, 21),
    ("er10-100", "erdos-renyi", {"n": 100, "p": 0.1}, 22),
    ("er10-160", "erdos-renyi", {"n": 160, "p": 0.1}, 23),
    ("er30-40", "erdos-renyi", {"n": 40, "p": 0.3}, 31),
    ("er30-80", "erdos-renyi", {"n": 80, "p": 0.3}, 32),
    ("er30-120", "erdos-renyi", {"n": 120, "p": 0.3}, 33),
    ("kbip-6x20", "complete-bipartite", {"a": 6, "b": 20}, 0),
    ("rbip-10x40", "random-bipartite", {"a": 10, "b": 40, "p": 0.3}, 41),
    ("rbip-16x80", "random-bipartite", {"a": 16, "b": 80, "p": 0.2}, 42),
    ("rbip-20x120", "random-bipartite", {"a": 20, "b": 120, "p": 0.15}, 43),
    ("bid-60", "bounded-id", {"n": 60, "p": 0.1}, 51),
    ("bid-120", "bounded-id", {"n": 120, "p": 0.1}, 52),
    ("bid-200", "bounded-id", {"n": 200, "p": 0.08}, 53),
    ("complete-24", "complete", {"n": 24}, 0),
    ("complete-48", "complete", {"n": 48}, 0),
    ("hyper-64", "hypercube", {"d": 6}, 0),
    ("hyper-128", "hypercube", {"d": 7}, 0),
]

K_RANGE = (2, 3, 4, 5, 6)

BIPARTITE_SPEC: List[Tuple[str, dict, int]] = [
    ("bip-8x40", {"a": 8, "b": 40, "p": 0.35}, 61),
    ("bip-12x70", {"a": 12, "b": 70, "p": 0.25}, 62),
    ("bip-16x100", {"a": 16, "b": 100, "p": 0.2}, 63),
    ("bip-20x140", {"a": 20, "b": 140, "p": 0.15}, 64),
    ("bip-25x180", {"a": 25, "b": 180, "p": 0.12}, 65),
    ("bip-30x220", {"a": 30, "b": 220, "p": 0.1}, 66),
    ("bip-14x60", {"a": 14, "b": 60, "p": 0.3}, 67),
    ("bip-18x120", {"a": 18, "b": 120, "p": 0.18}, 68),
    ("bip-22x160", {"a": 22, "b": 160, "p": 0.14}, 69),
    ("bip-10x90", {"a": 10, "b": 90, "p": 0.25}, 70),
]

# paths and cycles of growing n for the round claims of improved at even k
ROUND_SERIES = [(f"{kind}-{n}", kind, n, k) for kind in ("path", "cycle")
                for n in (110, 220, 440, 880) for k in (4, 6)]
SCALING_DIMS = (6, 7, 8, 9)  # hypercubes with n = 64..512
SCALING_K = 4
BASELINE_SEEDS = 20
BASELINE_K = 4


def corpus() -> List[Tuple[str, Graph]]:
    return [(name, generate(kind, params, seed))
            for name, kind, params, seed in CORPUS_SPEC]


def bipartite_corpus() -> List[Tuple[str, Graph, int, int]]:
    out = []
    for name, params, seed in BIPARTITE_SPEC:
        g = generate("random-bipartite", params, seed)
        out.append((name, g, params["a"], params["b"]))
    return out


def weighted_corpus() -> List[Tuple[str, Graph]]:
    out = []
    for i in range(10):
        base = generate("erdos-renyi", {"n": 60 + 12 * i, "p": 0.12}, seed=100 + i)
        out.append((f"wer-{i}", with_random_weights(base, seed=200 + i)))
    return out


def run_improved_corpus(ks=K_RANGE) -> Dict[Tuple[str, int], SpannerRun]:
    runs = {}
    for name, g in corpus():
        for k in ks:
            runs[(name, k)] = improved_spanner(g, k)
    return runs


def compute_pins(verbose: bool = True) -> dict:
    pins: dict = {}

    def log(msg):
        if verbose:
            print(msg, file=sys.stderr)

    log("running 3-spanner corpus ...")
    sizes3 = {}
    maxbits = {}
    rounds3 = {}
    for name, g in corpus():
        res = improved_3_spanner(g)
        sizes3[name] = res.spanner.size
        maxbits[f"imp3:{name}"] = res.ledger.max_bits_seen
        rounds3[name] = res.ledger.rounds_used
    lsq3, max_ratio3 = fit_bounds(
        [float(s) for s in sizes3.values()],
        [g.n ** 1.5 for _n, g in corpus()],
    )
    pins["three_spanner"] = {
        "sizes": sizes3,
        "lsq": lsq3,
        "max_ratio": max_ratio3,
    }

    log("running improved spanner corpus (all k) ...")
    runs = run_improved_corpus()
    sizes = {f"{name}:k{k}": r.spanner.size for (name, k), r in runs.items()}
    ratios = {}
    for (name, k), r in runs.items():
        g = dict(corpus())[name]
        ratios[f"{name}:k{k}"] = r.spanner.size / (k * g.n ** (1 + 1 / k))
        maxbits[f"improved:k{k}:{name}"] = r.ledger.max_bits_seen
    pins["improved"] = {
        "sizes": sizes,
        "max_ratio": max(ratios.values()),
    }
    pins["round_claim"] = {
        "improved": {f"{name}:k{k}": r.ledger.rounds_used for (name, k), r in runs.items()},
        "imp3": rounds3,
        "imp3_weighted": {name: improved_3_spanner(g).ledger.rounds_used
                          for name, g in weighted_corpus()},
        "series": {f"{name}:k{k}": improved_spanner(generate(kind, {"n": n}), k)
                   .ledger.rounds_used for name, kind, n, k in ROUND_SERIES},
    }

    log("running bipartite corpus ...")
    from .kspanner import sparser_bipartite_spanner

    bip = {}
    for k in (4, 5, 6):
        expo = 1 + 2 / k if k % 2 == 0 else 1 + 2 / (k - 1)
        entries = {}
        worst = 0.0
        for name, g, a, b in bipartite_corpus():
            res = sparser_bipartite_spanner(
                g, Bipartition(range(a), range(a, a + b)), k
            )
            bound = k * a**expo + b
            entries[name] = res.spanner.size
            worst = max(worst, res.spanner.size / bound)
            maxbits[f"sparserbip:k{k}:{name}"] = res.ledger.max_bits_seen
        bip[str(k)] = {"sizes": entries, "max_ratio": worst}
    pins["bipartite"] = bip

    log("running round-scaling series ...")
    rounds = {}
    for d in SCALING_DIMS:
        g = generate("hypercube", {"d": d})
        res = improved_spanner(g, SCALING_K)
        rounds[str(g.n)] = res.ledger.rounds_used
    ns = [int(x) for x in rounds]
    exponent, _ = fit_exponent(ns, [rounds[str(n)] for n in ns])
    cap_ratios = [
        rounds[str(n)] / (2 ** (4 * SCALING_K) * n ** (0.5 - 1 / SCALING_K))
        for n in ns
    ]
    pins["round_scaling"] = {
        "family": "hypercube",
        "k": SCALING_K,
        "rounds": rounds,
        "exponent": exponent,
        "cap_constant": max(cap_ratios),
    }

    log("running baseline comparison ...")
    base_means = {}
    for name, g in corpus():
        sizes_b = [
            baswana_sen_baseline(g, BASELINE_K, seed=s).spanner.size
            for s in range(BASELINE_SEEDS)
        ]
        base_means[name] = statistics.mean(sizes_b)
    pins["baseline_means"] = {"k": BASELINE_K, "means": base_means}

    pins["max_bits"] = maxbits
    pins["max_bits_overall"] = max(maxbits.values())
    return pins


def load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


def write_pins(path: str = PINS_PATH) -> dict:
    pins = compute_pins()
    with open(path, "w") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return pins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="regenerate regression pins")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    if not args.write:
        print(json.dumps(load_pins(), indent=2, sort_keys=True))
        return 0
    write_pins()
    print(f"wrote {PINS_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
