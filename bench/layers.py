"""Per-layer tracing for the benchmark's traced runs.

The tracer wraps the public entry points of each library layer from the
outside and records one span per call: name, parent, start and end.  It
also wraps the ``init``/``on_round``/``on_finish`` hooks of every
``NodeProgram`` subclass and counts callbacks, idle callbacks, hook time and
stepped rounds per ``sim.run`` invocation.  Spans stay in memory until
:meth:`Tracer.write`.

Modules bind these functions by name (``from .sim import run``), so
installing a wrapper rebinds every module-level alias of the original in
the ``spanner`` package and in the extra modules given.  A hook that fires
outside a traced ``sim.run`` means some alias was missed; it raises.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Dict, Iterable, List, Optional

from spanner.sim import NodeProgram

# layer -> (module, attribute); "Class.method" names a method.
ENTRY_POINTS = {
    "sim": [("spanner.sim", "run")],
    "primitives": [
        ("spanner.primitives", name)
        for name in ("grow_bfs_clusters", "ruling_set_log", "ruling_set_power",
                     "partition_tree", "cluster_aggregate")
    ],
    "spanner3": [
        ("spanner.spanner3", name)
        for name in ("bipartite_3_spanner", "three_spanner_given_partition",
                     "partition_high_degree", "improved_3_spanner",
                     "small_id_3_spanner")
    ],
    "kspanner": [
        ("spanner.kspanner.common", name)
        for name in ("exchange", "clustering_aggregate", "clustering_broadcast",
                     "chunked_gather", "chunked_scatter")
    ] + [
        ("spanner.kspanner.naive", "naive_spanner"),
        ("spanner.kspanner.starbip", "sparser_bipartite_spanner"),
        ("spanner.kspanner.improved", "improved_spanner"),
        ("spanner.kspanner.zero", "cons_zero_superclustering"),
        ("spanner.kspanner.zero", "simple_zero_superclustering"),
        ("spanner.kspanner.baseline", "baswana_sen_baseline"),
    ],
    "verify": [
        ("spanner.verify", "verify_stretch"),
        ("spanner.verify", "verify_stretch_allpairs"),
    ],
    "graph": [
        ("spanner.graph", "generate"),
        ("spanner.graph", "with_random_weights"),
        ("spanner.graph", "Graph.subgraph"),
        ("spanner.graph", "Graph.edge_subgraph"),
    ],
    "cli": [
        ("spanner.cli", "main"),
        ("spanner.cli", "emit_report"),
    ],
}

HOOKS = ("init", "on_round", "on_finish")

# The NodeProgram subclasses reported by name; any other subclass still
# counts towards the sim.* totals.
PROGRAMS = (
    "Announce", "ChunkedGather", "ChunkedScatter", "FloodMax", "ForestAggregate",
    "ForestBroadcast", "GrowClusters", "HaltNow", "HopFlood", "MinFlood",
    "NeighborhoodExchange", "RulingSetLog", "ScriptedExchange", "StarBFS",
    "StarSpanner", "TreePartitionProgram",
)


def per_layer_names() -> List[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = [
        "sim.run.calls", "sim.run.s", "sim.engine_self.s", "sim.hooks.s",
        "sim.views", "sim.callbacks", "sim.idle_callbacks",
        "sim.useful_callback_ratio", "sim.host_rounds",
    ]
    for cls in PROGRAMS:
        names += [f"program.{cls}.s", f"program.{cls}.calls", f"program.{cls}.callbacks"]
    names += [f"primitives.{f}.s" for f in
              ("ruling_set_power", "grow_bfs_clusters", "partition_tree", "ruling_set_log")]
    names += [
        "kspanner.exchange.calls", "kspanner.exchange.s",
        "kspanner.clustering_aggregate.s", "kspanner.clustering_broadcast.s",
        "kspanner.chunked.s", "kspanner.driver_self.s",
        "spanner3.partition_high_degree.s", "spanner3.driver_self.s",
        "verify.verify_stretch.s", "verify.allpairs.s", "verify.edges_checked",
        "graph.generate.s", "graph.subgraph.s",
        "cli.emit_report.s",
        "trace.overhead_s",
    ]
    return names


def _all_subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class _RunStats:
    """Counters of one sim.run invocation."""

    __slots__ = ("callbacks", "idle", "hook_s", "rounds")

    def __init__(self):
        self.callbacks = 0
        self.idle = 0
        self.hook_s = 0.0
        self.rounds = 0


class Tracer:
    """Installs wrappers on construction; :meth:`close` restores the originals."""

    def __init__(self, extra_modules: Iterable[object] = ()):
        # span: [name, parent index or -1, start, end]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._run: Optional[_RunStats] = None
        self.programs: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "calls": 0, "callbacks": 0, "idle": 0,
                     "hook_s": 0.0, "rounds": 0, "views": 0})
        self.edges_checked = 0
        self._undo: List[tuple] = []
        self._extra = list(extra_modules)
        try:
            self._install()
        except BaseException:
            self.close()
            raise

    # -- installation ------------------------------------------------------

    def _modules(self):
        for name, mod in list(sys.modules.items()):
            if name == "spanner" or name.startswith("spanner."):
                yield mod
        yield from self._extra

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install(self):
        wrappers = {}
        for layer, entries in ENTRY_POINTS.items():
            for modname, attr in entries:
                mod = importlib.import_module(modname)
                if "." in attr:
                    clsname, meth = attr.split(".")
                    cls = getattr(mod, clsname)
                    orig = cls.__dict__.get(meth)
                    if orig is not None:
                        self._set(cls, meth, self._span(f"{layer}.{meth}", orig))
                    continue
                orig = getattr(mod, attr, None)
                if orig is None:
                    continue  # entry point removed by a later refactor
                if attr == "run" and layer == "sim":
                    wrapped = self._sim_run(orig)
                else:
                    wrapped = self._span(f"{layer}.{attr}", orig)
                wrappers[id(orig)] = (orig, wrapped)
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
        for cls in _all_subclasses(NodeProgram):
            for hook in HOOKS:
                fn = cls.__dict__.get(hook)
                if fn is not None:
                    self._set(cls, hook, self._hook(hook, fn))

    def close(self) -> None:
        """Restore every original binding (in reverse order)."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- wrappers ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close_span(sid)

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1,
                           perf_counter(), 0.0])
        self._stack.append(sid)
        return sid

    def _close_span(self, sid: int) -> None:
        self.spans[sid][3] = perf_counter()
        self._stack.pop()

    def _span(self, name: str, fn):
        tracer = self
        count_edges = name.startswith("verify.")

        def wrapper(*args, **kwargs):
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close_span(sid)
            if count_edges:
                tracer.edges_checked += result.edges_checked
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _sim_run(self, fn):
        tracer = self

        def run(g, program, *args, **kwargs):
            outer, stats = tracer._run, _RunStats()
            tracer._run = stats
            sid = tracer._open("sim.run")
            try:
                return fn(g, program, *args, **kwargs)
            finally:
                tracer._close_span(sid)
                tracer._run = outer
                span = tracer.spans[sid]
                rec = tracer.programs[type(program).__name__]
                rec["s"] += span[3] - span[2]
                rec["calls"] += 1
                rec["callbacks"] += stats.callbacks
                rec["idle"] += stats.idle
                rec["hook_s"] += stats.hook_s
                rec["rounds"] += stats.rounds
                rec["views"] += g.n

        run.__wrapped__ = fn
        return run

    def _hook(self, hook: str, fn):
        tracer = self

        def current() -> _RunStats:
            stats = tracer._run
            if stats is None:
                raise RuntimeError(
                    f"{fn.__qualname__} called outside a traced sim.run: "
                    "an alias of spanner.sim.run was not rebound")
            return stats

        if hook == "on_round":
            def on_round(self_, state, view, rnd, inbox):
                stats = current()
                quiet_in = not inbox
                t0 = perf_counter()
                outbox, halt = fn(self_, state, view, rnd, inbox)
                stats.hook_s += perf_counter() - t0
                stats.callbacks += 1
                if quiet_in and halt and not outbox:
                    stats.idle += 1
                if rnd > stats.rounds:
                    stats.rounds = rnd
                return outbox, halt
            wrapped = on_round
        else:
            def other(self_, *args):
                stats = current()
                t0 = perf_counter()
                result = fn(self_, *args)
                stats.hook_s += perf_counter() - t0
                stats.callbacks += 1
                return result
            wrapped = other
        wrapped.__wrapped__ = fn
        wrapped.__name__ = hook
        return wrapped

    # -- reporting -----------------------------------------------------------

    def metrics(self, overhead_s: float) -> Dict[str, float]:
        """The per-layer metrics over everything recorded so far."""
        incl: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        child: List[float] = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            incl[name] += t1 - t0
            calls[name] += 1
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: Dict[str, float] = defaultdict(float)
        for (name, _parent, t0, t1), kids in zip(self.spans, child):
            self_s[name.split(".")[0]] += (t1 - t0) - kids

        progs = self.programs.values()
        callbacks = sum(p["callbacks"] for p in progs)
        idle = sum(p["idle"] for p in progs)
        hooks_s = sum(p["hook_s"] for p in progs)
        m: Dict[str, float] = {
            "sim.run.calls": calls["sim.run"],
            "sim.run.s": incl["sim.run"],
            "sim.engine_self.s": self_s["sim"] - hooks_s,
            "sim.hooks.s": hooks_s,
            "sim.views": sum(p["views"] for p in progs),
            "sim.callbacks": callbacks,
            "sim.idle_callbacks": idle,
            "sim.useful_callback_ratio": (callbacks - idle) / callbacks if callbacks else 0.0,
            "sim.host_rounds": sum(p["rounds"] for p in progs),
        }
        for cls in PROGRAMS:
            rec = self.programs.get(cls, {"s": 0.0, "calls": 0, "callbacks": 0})
            m[f"program.{cls}.s"] = rec["s"]
            m[f"program.{cls}.calls"] = rec["calls"]
            m[f"program.{cls}.callbacks"] = rec["callbacks"]
        for f in ("ruling_set_power", "grow_bfs_clusters", "partition_tree", "ruling_set_log"):
            m[f"primitives.{f}.s"] = incl[f"primitives.{f}"]
        m.update({
            "kspanner.exchange.calls": calls["kspanner.exchange"],
            "kspanner.exchange.s": incl["kspanner.exchange"],
            "kspanner.clustering_aggregate.s": incl["kspanner.clustering_aggregate"],
            "kspanner.clustering_broadcast.s": incl["kspanner.clustering_broadcast"],
            "kspanner.chunked.s": incl["kspanner.chunked_gather"] + incl["kspanner.chunked_scatter"],
            "kspanner.driver_self.s": self_s["kspanner"],
            "spanner3.partition_high_degree.s": incl["spanner3.partition_high_degree"],
            "spanner3.driver_self.s": self_s["spanner3"],
            "verify.verify_stretch.s": incl["verify.verify_stretch"],
            "verify.allpairs.s": incl["verify.verify_stretch_allpairs"],
            "verify.edges_checked": self.edges_checked,
            "graph.generate.s": incl["graph.generate"],
            "graph.subgraph.s": incl["graph.subgraph"] + incl["graph.edge_subgraph"],
            "cli.emit_report.s": incl["cli.emit_report"],
            "trace.overhead_s": overhead_s,
        })
        return m

    def write(self, path: str, metrics: Dict[str, float]) -> None:
        """Write spans, per-program counters and metrics as one JSON file."""
        doc = {
            "span_fields": ["name", "parent", "start_s", "end_s"],
            "spans": self.spans,
            "programs": dict(self.programs),
            "metrics": metrics,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
