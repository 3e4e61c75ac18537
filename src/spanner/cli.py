"""Command-line entry point: generate or load a graph, run a named spanner
construction under the simulator, verify the result, and emit reports.

    spanner run --alg imp3 --gen er:n=100,p=0.1 --seed 1 --out report
    spanner verify --graph g.edges --spanner h.edges --t 3

Exit codes: 0 pass, 1 verification failure, 2 usage error, 3 I/O error,
4 simulator error (a budget below one tagged ID, budget or congestion
overrun in strict mode, a message to a non-neighbour, a round or iteration
cap exceeded).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from typing import Dict, Optional

from . import graph as graphmod
from .graph import Graph, Spanner, generate, load, save, with_random_weights
from .kspanner import (
    baswana_sen_baseline,
    cons_zero_superclustering,
    improved_spanner,
    naive_spanner,
    sparser_bipartite_spanner,
)
from .results import SpannerRun
from .sim import SimConfig, SimError
from .spanner3 import Bipartition, bipartite_3_spanner, improved_3_spanner, small_id_3_spanner
from .verify import verify_stretch

EXIT_OK, EXIT_VERIFY, EXIT_USAGE, EXIT_IO, EXIT_SIM = 0, 1, 2, 3, 4

FIXED_K = {"bip3": 2, "imp3": 2, "smallid3": 2}
ALGORITHMS = ("bip3", "imp3", "smallid3", "naive", "sparserbip", "improved", "zerosc", "bs-baseline")

GEN_ALIASES = {
    "er": "erdos-renyi",
    "bip": "random-bipartite",
    "kbip": "complete-bipartite",
}


class UsageError(Exception):
    pass


def parse_gen_spec(spec: str):
    """Compact generator grammar: kind:key=val,key=val (e.g. er:n=100,p=0.1)."""
    kind, _, rest = spec.partition(":")
    kind = GEN_ALIASES.get(kind, kind)
    if kind not in graphmod.GENERATORS:
        raise UsageError(f"unknown generator kind {kind!r}")
    params: Dict[str, object] = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not key or not val:
                raise UsageError(f"bad generator parameter {item!r}")
            params[key] = val
    return kind, params


def _bipartition_for(gen_kind: Optional[str], params) -> Bipartition:
    if gen_kind in ("random-bipartite", "complete-bipartite"):
        a = int(params["a"])
        b = int(params["b"])
        return Bipartition(range(a), range(a, a + b))
    raise UsageError(
        "bip3/sparserbip need a bipartite generator (bip:... or kbip:...)"
    )


def run_algorithm(alg: str, g: Graph, k: int, cfg: SimConfig, seed: int,
                  gen_kind=None, gen_params=None) -> SpannerRun:
    if alg == "bip3":
        return bipartite_3_spanner(g, _bipartition_for(gen_kind, gen_params), cfg)
    if alg == "imp3":
        return improved_3_spanner(g, cfg)
    if alg == "smallid3":
        return small_id_3_spanner(g, cfg)
    if alg == "naive":
        return naive_spanner(g, k, cfg)
    if alg == "sparserbip":
        return sparser_bipartite_spanner(
            g, _bipartition_for(gen_kind, gen_params), k, cfg
        )
    if alg == "improved":
        return improved_spanner(g, k, cfg)
    if alg == "zerosc":
        return cons_zero_superclustering(g, k, cfg)
    if alg == "bs-baseline":
        return baswana_sen_baseline(g, k, seed, cfg)
    raise UsageError(f"unknown algorithm {alg!r}")


def stretch_bound(alg: str, k: int) -> int:
    if alg in FIXED_K:
        return 3
    return 2 * k - 1


def emit_report(out_base: str, g: Graph, result: SpannerRun, report, k: int,
                alg: str) -> None:
    """Write the spanner edge list, stretch report, ledger, and a CSV row."""
    os.makedirs(os.path.dirname(os.path.abspath(out_base)), exist_ok=True)
    save(result.spanner.base, out_base + ".spanner.edges", sorted(result.spanner.edges))
    report.dump(out_base + ".stretch.json")
    result.ledger.dump(out_base + ".ledger.json")
    row = {
        "n": g.n,
        "m": g.m,
        "k": k,
        "alg": alg,
        "spanner_edges": result.spanner.size,
        "rounds": result.ledger.rounds_used,
        "max_bits": result.ledger.max_bits_seen,
        "max_stretch": report.max_stretch,
    }
    with open(out_base + ".csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(row))
        w.writeheader()
        w.writerow(row)


def cmd_run(args) -> int:
    alg = args.alg
    if alg not in ALGORITHMS:
        raise UsageError(f"unknown algorithm {alg!r} (choose from {ALGORITHMS})")
    k = args.k
    if alg in FIXED_K:
        if k is not None and k != FIXED_K[alg]:
            print(
                f"warning: --k {k} ignored; {alg} is a fixed k=2 construction",
                file=sys.stderr,
            )
        k = FIXED_K[alg]
    elif k is None:
        raise UsageError(f"--k is required for {alg}")
    elif k < 2:
        raise UsageError("--k must be >= 2")

    gen_kind = gen_params = None
    if args.gen:
        gen_kind, gen_params = parse_gen_spec(args.gen)
        try:
            g = generate(gen_kind, gen_params, seed=args.seed)
        except graphmod.GraphError as exc:
            raise UsageError(str(exc))
    else:
        try:
            g = load(args.graph)
        except OSError as exc:
            raise UsageError(f"cannot read graph: {exc}")
    if args.weighted and not g.weighted:
        g = with_random_weights(g, seed=args.seed)

    cfg = SimConfig(
        msg_bit_budget=args.msg_bits,
        strict=not args.audit,
        max_rounds=args.max_rounds,
    )
    cfg.check(g)  # also where a construction would run no round
    result = run_algorithm(alg, g, k, cfg, args.seed, gen_kind, gen_params)
    # the bipartite constructions span only the crossing edges; zerosc's
    # partial spanner only covers edges at excluded vertices, so its
    # stretch report is informational
    base = _crossing_subgraph(g, gen_params) if alg in ("bip3", "sparserbip") else g
    report = verify_stretch(base, result.spanner, stretch_bound(alg, k))
    passed = (report.passed or alg == "zerosc") and not result.ledger.violations
    emit_report(args.out, g, result, report, k, alg)
    print(
        f"{alg}: n={g.n} m={g.m} k={k} |H|={result.spanner.size} "
        f"rounds={result.ledger.rounds_used} max_bits={result.ledger.max_bits_seen} "
        f"max_stretch={report.max_stretch} -> {'pass' if passed else 'FAIL'}"
    )
    return EXIT_OK if passed else EXIT_VERIFY


def _crossing_subgraph(g: Graph, gen_params) -> Graph:
    a = int(gen_params["a"])
    cross = [e for e in g.edge_set if (e[0] < a) != (e[1] < a)]
    return g.edge_subgraph(g.vertices, cross)


def cmd_verify(args) -> int:
    try:
        g = load(args.graph)
        hgraph = load(args.spanner)
    except OSError as exc:
        raise UsageError(f"cannot read input: {exc}")
    h = Spanner(g)
    for u, v in hgraph.edges():
        h.add(u, v, "loaded")
    report = verify_stretch(g, h, args.t)
    if args.out:
        report.dump(args.out)
    print(
        f"verify: edges={report.edges_checked} max_stretch={report.max_stretch} "
        f"bound={args.t} -> {'pass' if report.passed else 'FAIL'}"
    )
    return EXIT_OK if report.passed else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spanner",
        description="Distributed graph spanner constructions on a CONGEST simulator",
    )
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("run", help="construct a spanner and verify it")
    r.add_argument("--alg", required=True, help=f"one of {', '.join(ALGORITHMS)}")
    r.add_argument("--k", type=int, default=None)
    src = r.add_mutually_exclusive_group(required=True)
    src.add_argument("--gen", help="generator spec kind:key=val,... (er:n=100,p=0.1)")
    src.add_argument("--graph", help="edge-list file")
    r.add_argument("--weighted", action="store_true",
                   help="attach deterministic small integer weights")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--msg-bits", type=int, default=None)
    r.add_argument("--audit", action="store_true",
                   help="record budget violations instead of failing")
    r.add_argument("--max-rounds", type=int, default=1_000_000,
                   help="round cap of every phase: a phase whose last message goes "
                        "out in round R needs R < MAX_ROUNDS (at least 1; exit 4 "
                        "otherwise)")
    r.add_argument("--out", required=True, help="output path base")
    r.set_defaults(fn=cmd_run)

    v = sub.add_parser("verify", help="check a spanner file against a graph")
    v.add_argument("--graph", required=True)
    v.add_argument("--spanner", required=True)
    v.add_argument("--t", type=float, required=True)
    v.add_argument("--out", default=None)
    v.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IOError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIM


if __name__ == "__main__":
    sys.exit(main())
