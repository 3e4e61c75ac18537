"""Benchmark workloads: inputs generated from a seed and a fixed list of
build+verify operations over them.

Seed 0 regenerates the pinned corpus of ``spanner.pins`` exactly; any other
seed shifts every random family (Erdos-Renyi, random-bipartite, bounded-ID,
edge weights, comparator coins, CLI graph seed) to fresh instances of the
same shape.  Deterministic families (paths, cycles, grids, complete graphs,
hypercubes) are the same for every seed.

Every operation returns an :class:`Outcome`.  The spanner functions are
looked up on the ``spanner`` package at call time, so a traced run sees its
wrapped aliases.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, List, Tuple

import spanner
import spanner.cli
from spanner.pins import BIPARTITE_SPEC, CORPUS_SPEC

BASELINE_K = 4
COMPARATOR_SEEDS = 10  # half of the pins' 20, so one pass stays near 9 s
FIXTURE_MAX_N = 100  # 17 of the 30 corpus graphs; all 30 take ~50 s per pass
FIXTURE_K = (2, 3, 4, 5, 6)
ORACLE_MAX_N = 120


def reseed(pinned: int, seed: int) -> int:
    """The generator seed used for a pinned seed under benchmark seed ``seed``."""
    return pinned + 10_007 * seed


@dataclass
class Outcome:
    """What one build+verify operation produced."""

    edges: List[Tuple[int, int]]
    rounds: int
    messages: int
    max_bits: int
    max_edge_load: int
    violations: list
    ok: bool
    note: str = ""

    def signature_material(self) -> bytes:
        doc = {
            "edges": self.edges,
            "rounds": self.rounds,
            "messages": self.messages,
            "max_bits": self.max_bits,
            "max_edge_load": self.max_edge_load,
            "violations": self.violations,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _outcome(run, ok: bool, note: str = "") -> Outcome:
    led = run.ledger
    ok = ok and not led.violations
    return Outcome(
        edges=sorted(run.spanner.edges),
        rounds=led.rounds_used,
        messages=led.messages_total,
        max_bits=led.max_bits_seen,
        max_edge_load=led.per_round_edge_load,
        violations=list(led.violations),
        ok=ok,
        note=note if not ok else "",
    )


def _verified(g, run, bound) -> Outcome:
    rep = spanner.verify_stretch(g, run.spanner, bound)
    return _outcome(run, rep.passed, f"max stretch {rep.max_stretch} > {bound}")


Op = Tuple[str, Callable[[], Outcome]]


class Workload:
    """A named workload: ``inputs(seed)`` builds the graphs (part of set-up),
    ``ops(inputs, seed, scratch)`` lists the measured operations, and
    ``warmup`` is the operation run once during set-up."""

    name = ""

    def inputs(self, seed: int):
        raise NotImplementedError

    def ops(self, inputs, seed: int, scratch: str) -> List[Op]:
        raise NotImplementedError

    def warmup(self, inputs, seed: int, scratch: str) -> Op:
        return self.ops(inputs, seed, scratch)[0]


def corpus(seed: int, max_n: float = math.inf):
    out = []
    for name, kind, params, pinned in CORPUS_SPEC:
        g = spanner.generate(kind, params, reseed(pinned, seed))
        if g.n <= max_n:
            out.append((name, g))
    return out


def weighted_corpus(seed: int):
    out = []
    for i in range(10):
        base = spanner.generate(
            "erdos-renyi", {"n": 60 + 12 * i, "p": 0.12}, reseed(100 + i, seed)
        )
        out.append((f"wer-{i}", spanner.with_random_weights(base, reseed(200 + i, seed))))
    return out


def bipartite_corpus(seed: int):
    out = []
    for name, params, pinned in BIPARTITE_SPEC:
        g = spanner.generate("random-bipartite", params, reseed(pinned, seed))
        out.append((name, g, params["a"], params["b"]))
    return out


class Fixture(Workload):
    """improved_spanner for k=2..6 on the corpus graphs with n <= 100."""

    name = "fixture"

    def inputs(self, seed):
        return corpus(seed, FIXTURE_MAX_N)

    def ops(self, inputs, seed, scratch):
        def build(g, k):
            bound = 3 if k == 2 else 2 * k - 1
            return lambda: _verified(g, spanner.improved_spanner(g, k), bound)

        return [(f"improved:k{k}:{name}", build(g, k))
                for name, g in inputs for k in FIXTURE_K]


class ShortRuns(Workload):
    """The Baswana-Sen comparator and the two-round 3-spanners: thousands of
    one- and two-round simulations."""

    name = "short-runs"

    def inputs(self, seed):
        return corpus(seed), weighted_corpus(seed), bipartite_corpus(seed)

    def ops(self, inputs, seed, scratch):
        graphs, weighted, bipartite = inputs
        bound_bs = 2 * BASELINE_K - 1

        def baseline(g, s):
            return lambda: _verified(
                g, spanner.baswana_sen_baseline(g, BASELINE_K, seed=s), bound_bs
            )

        def imp3(g):
            def op():
                run = spanner.improved_3_spanner(g)
                rep = spanner.verify_stretch(g, run.spanner, 3)
                if g.n > ORACLE_MAX_N or g.m == 0:
                    return _outcome(run, rep.passed, f"max stretch {rep.max_stretch}")
                ref = spanner.verify_stretch_allpairs(g, run.spanner, 3)
                agree = (
                    rep.passed == ref.passed
                    and rep.worst_edge == ref.worst_edge
                    and (rep.max_stretch == ref.max_stretch
                         or abs(rep.max_stretch - ref.max_stretch) < 1e-9)
                )
                return _outcome(run, rep.passed and agree,
                                f"oracle {rep.max_stretch} vs {ref.max_stretch}")
            return op

        def two_round(g, build):
            def op():
                run = build()
                rep = spanner.verify_stretch(g, run.spanner, 3)
                rounds = run.ledger.rounds_used
                return _outcome(run, rep.passed and rounds == 2,
                                f"stretch {rep.max_stretch}, {rounds} rounds")
            return op

        ops: List[Op] = []
        for name, g in graphs:
            if g.m == 0:
                continue
            for i in range(COMPARATOR_SEEDS):
                s = reseed(i, seed)
                ops.append((f"bs-baseline:k{BASELINE_K}:s{s}:{name}", baseline(g, s)))
        for name, g in graphs + weighted:
            ops.append((f"imp3:{name}", imp3(g)))
        for name, g in graphs:
            if g.m == 0:
                continue
            ops.append((f"smallid3:{name}",
                        two_round(g, lambda g=g: spanner.small_id_3_spanner(g))))
        for name, g, a, b in bipartite:
            part = spanner.Bipartition(range(a), range(a, a + b))
            ops.append((f"bip3:{name}", two_round(
                g, lambda g=g, part=part: spanner.bipartite_3_spanner(g, part))))
        return ops


def _read_edges(path: str) -> List[Tuple[int, int]]:
    # parsed here, not with spanner.load, so the check adds no graph-layer time
    edges = []
    with open(path) as fh:
        for line in fh:
            if line.startswith(("#", "n=")) or not line.strip():
                continue
            u, v = line.split()[:2]
            edges.append((int(u), int(v)))
    return sorted(edges)


def cli_op(args: List[str], seed: int, out_base: str) -> Outcome:
    """Run ``spanner run <args>`` in-process and read its reports back."""
    argv = ["run", *args, "--seed", str(seed), "--out", out_base]
    # the benchmark's result must stay the last line of standard output
    with contextlib.redirect_stdout(sys.stderr):
        code = spanner.cli.main(argv)
    if code != 0:
        return Outcome([], 0, 0, 0, 0, [], False, f"exit code {code}")
    with open(out_base + ".ledger.json") as fh:
        led = json.load(fh)
    with open(out_base + ".stretch.json") as fh:
        stretch = json.load(fh)
    ok = stretch["passed"] and not led["violations"]
    return Outcome(
        edges=_read_edges(out_base + ".spanner.edges"),
        rounds=led["rounds"],
        messages=led["messages"],
        max_bits=led["max_bits"],
        max_edge_load=led["max_edge_load"],
        violations=led["violations"],
        ok=ok,
        note="" if ok else f"stretch report {stretch['max_stretch']}",
    )


class CliEr2000(Workload):
    """The command line on n=2000 Erdos-Renyi graphs, larger than the corpus."""

    name = "cli-er2000"

    RUNS = (
        ("imp3", ["--alg", "imp3", "--gen", "er:n=2000,p=0.03"]),
        ("improved-k3", ["--alg", "improved", "--k", "3", "--gen", "er:n=2000,p=0.005"]),
    )
    WARMUP = ["--alg", "imp3", "--gen", "er:n=200,p=0.1"]

    def inputs(self, seed):
        return None  # the command line generates its own graphs

    def ops(self, inputs, seed, scratch):
        s = reseed(0, seed)
        return [
            (f"cli:{label}", lambda args=args, label=label:
                cli_op(args, s, os.path.join(scratch, label)))
            for label, args in self.RUNS
        ]

    def warmup(self, inputs, seed, scratch):
        s = reseed(0, seed)
        return ("cli:warmup", lambda: cli_op(self.WARMUP, s, os.path.join(scratch, "warmup")))


WORKLOADS = {w.name: w for w in (Fixture(), ShortRuns(), CliEr2000())}
