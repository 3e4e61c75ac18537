"""Benchmark of the spanner library, run from the repository root:

    python3 bench/run.py --workload fixture --seed 0 --seconds 30 --trace 0

Imports the library from ``src/`` of the checkout, generates the
workload's inputs from ``--seed`` (seed 0 is the pinned corpus), sets up
``SETUP_REPS`` times, then repeats passes over the workload's fixed list of
build+verify operations until another pass would overrun ``--seconds``.
Every operation is checked: an exception, a failed stretch or round-count
check, a budget violation, or an output signature that differs between
passes counts it as failed.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  Times are in reference seconds (see
``refclock.py``); the host seconds are printed above it.  With
``--trace 1`` the run makes one untraced and one traced pass (see
``layers.py``), checks that both produce the same signatures, writes the
spans to ``.bench_out/`` and reports the per-layer metrics in host seconds.
Exit status 0 means every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from refclock import RefClock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("fixture", "short-runs", "cli-er2000")
SETUP_REPS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "peak_rss_mb": "MB",
    "sim_rounds": "rounds",
    "sim_messages": "messages",
    "spanner_edges": "edges",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


Stamp = Tuple[float, float]


@dataclass
class Pass:
    """One pass over the operation list."""

    stamps: List[Stamp] = field(default_factory=list)  # host clock per operation
    sigs: Dict[str, str] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    rounds: int = 0
    messages: int = 0
    edges: int = 0

    def host_s(self) -> float:
        return sum(t1 - t0 for t0, t1 in self.stamps)


def run_pass(ops, reference: Optional[Pass] = None, tracer=None) -> Pass:
    """Run every operation once, sign and check its output.  With a
    reference pass, an operation whose signature differs from it fails."""
    gc.collect()
    p = Pass()
    for label, fn in ops:
        t0 = perf_counter()
        try:
            if tracer is None:
                out = fn()
            else:
                with tracer.span(f"op.{label}"):
                    out = fn()
        except Exception as exc:  # any error fails the operation, not the run
            p.stamps.append((t0, perf_counter()))
            p.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        p.stamps.append((t0, perf_counter()))
        sig = hashlib.sha256(out.signature_material()).hexdigest()
        p.sigs[label] = sig
        if not out.ok:
            p.failures.append(f"{label}: {out.note}")
        elif reference is not None and reference.sigs.get(label) != sig:
            p.failures.append(f"{label}: signature differs from the first pass")
        p.rounds += out.rounds
        p.messages += out.messages
        p.edges += len(out.edges)
    return p


def set_up(wl, seed: int, scratch: str):
    """Generate the inputs and run the warm-up operation, SETUP_REPS times;
    returns the operation list, the stamp of each repetition and failures."""
    stamps: List[Stamp] = []
    failures: List[str] = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        inputs = wl.inputs(seed)
        label, fn = wl.warmup(inputs, seed, scratch)
        out = fn()
        stamps.append((t0, perf_counter()))
        if not out.ok:
            failures.append(f"warm-up {label}: {out.note}")
    return wl.ops(inputs, seed, scratch), stamps, failures


def digest(p: Pass) -> str:
    lines = "".join(f"{label} {sig}\n" for label, sig in p.sigs.items())
    return hashlib.sha256(lines.encode()).hexdigest()


def emit(failures: List[str], attempted: int, metrics: Dict[str, tuple]) -> int:
    for line in failures:
        print(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    doc = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(doc))
    return 0 if not failures else 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description="spanner benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spanner", "__init__.py")):
        print(f"error: no spanner package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        if args.trace:
            return traced_run(args, scratch)
        return measured_run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measured_run(args, scratch: str) -> int:
    with RefClock() as clock:
        t0 = perf_counter()
        import workloads  # imports the spanner package

        import_stamp = (t0, perf_counter())
        wl = workloads.WORKLOADS[args.workload]
        ops, setup_stamps, failures = set_up(wl, args.seed, scratch)
        passes: List[Pass] = []
        deadline = perf_counter() + args.seconds
        while True:
            t = perf_counter()
            passes.append(run_pass(ops, passes[0] if passes else None))
            now = perf_counter()
            if now + (now - t) > deadline:
                break

    def ref_s(stamps):
        return sum(clock.measure(*s)[1] for s in stamps)

    def host_s(stamps):
        return sum(clock.measure(*s)[0] for s in stamps)

    setup = ref_s([import_stamp]) + statistics.median(ref_s([s]) for s in setup_stamps)
    setup_host = host_s([import_stamp]) + statistics.median(host_s([s]) for s in setup_stamps)
    first = passes[0]
    for label, sig in first.sigs.items():
        print(f"sig {label} {sig}")
    for p in passes:
        failures.extend(p.failures)
    op_ref = [clock.measure(*s)[1] for p in passes for s in p.stamps]
    print(f"workload {wl.name} seed {args.seed}: {len(ops)} operations per pass, "
          f"digest {digest(first)}")
    print(f"set-up {setup_host:.3f} host s; passes "
          f"{', '.join(f'{host_s(p.stamps):.3f}' for p in passes)} host s = "
          f"{', '.join(f'{ref_s(p.stamps):.3f}' for p in passes)} reference s; "
          f"{len(op_ref)} operation samples")
    metrics = {
        "setup_s": setup,
        "wall_s": statistics.median(ref_s(p.stamps) for p in passes),
        "op_s.p50": statistics.median(op_ref),
        "op_s.p90": statistics.quantiles(op_ref, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_rounds": first.rounds,
        "sim_messages": first.messages,
        "spanner_edges": first.edges,
    }
    return emit(failures, len(op_ref),
                {n: (v, END_TO_END_UNITS[n]) for n, v in metrics.items()})


def traced_run(args, scratch: str) -> int:
    import layers
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    ops, _stamps, failures = set_up(wl, args.seed, scratch)
    base = run_pass(ops)
    tracer = layers.Tracer(extra_modules=[workloads])
    try:
        with tracer.span("setup"):
            inputs = wl.inputs(args.seed)
        traced = run_pass(wl.ops(inputs, args.seed, scratch), reference=base, tracer=tracer)
    finally:
        tracer.close()
    failures += base.failures + traced.failures
    print(f"workload {wl.name} seed {args.seed}: digest {digest(base)} untraced, "
          f"{digest(traced)} traced; {len(tracer.spans)} spans")
    metrics = tracer.metrics(traced.host_s() - base.host_s())
    path = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{args.seed}.json")
    tracer.write(path, metrics)
    print(f"spans written to {os.path.relpath(path, ROOT)}")
    return emit(failures, len(base.stamps) + len(traced.stamps),
                {n: (metrics[n], per_layer_unit(n)) for n in layers.per_layer_names()})


if __name__ == "__main__":
    sys.exit(main())
