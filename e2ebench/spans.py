"""Span recorder and layer wrappers for the traced benchmark run.

The traced run wraps the public entry points of each ``repro`` layer
from here, so the program itself carries no benchmark hooks.  Each
wrapped call records a span (name, start, end, parent, thread) in
memory; spans are written out once, when the run ends.  Hot per-packet
entry points (``Link.send``, ``next_hop``) get counters only.

A span's *self time* is its duration minus the part of its interval
covered by its direct children.  A wrapped call made while a span of
the same kind is open on the same thread records no second span (so
``solve`` -> ``solve_outcome`` counts one solve).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
import weakref
from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]


# ----------------------------------------------------------------------
# Interval arithmetic
# ----------------------------------------------------------------------
def union_length(intervals: Iterable[Interval]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Interval, children: Sequence[Interval]) -> float:
    """``span``'s duration minus the union of its children, clipped to it."""
    start, end = span
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return (end - start) - union_length((s, e) for s, e in clipped if e > s)


# ----------------------------------------------------------------------
# Recorder
# ----------------------------------------------------------------------
class Recorder:
    """In-memory spans and counters of one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        # [kind, name, start, end, parent_index, thread_ident]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.values: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.open = Counter()
        return stack

    def is_open(self, kind: str) -> bool:
        self._stack()
        return self._local.open[kind] > 0

    def open(self, kind: str, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        record = [kind, name, time.perf_counter(), None, parent, threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
            self.counts[kind] += 1
        stack.append(index)
        self._local.open[kind] += 1
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[3] = time.perf_counter()
        self._stack().pop()
        self._local.open[span[0]] -= 1

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.values[key] += amount

    # -- derived ---------------------------------------------------------
    def closed(self) -> List[list]:
        return [s for s in self.spans if s[3] is not None]

    def kind_time(self, kind: str) -> float:
        """Busy time of one kind (summed over threads)."""
        return sum(s[3] - s[2] for s in self.closed() if s[0] == kind)

    def layer_self_time(self, layer: str) -> float:
        spans = self.closed()
        children: Dict[int, List[Interval]] = {}
        for s in spans:
            if s[4] >= 0:
                children.setdefault(s[4], []).append((s[2], s[3]))
        total = 0.0
        for i, s in enumerate(self.spans):
            if s[3] is not None and s[0].split(".")[0] == layer:
                total += self_time((s[2], s[3]), children.get(i, []))
        return total

    def root_coverage(self, start: float, end: float) -> float:
        """Wall inside [start, end] covered by at least one root span."""
        roots = [(max(s[2], start), min(s[3], end)) for s in self.closed() if s[4] < 0]
        return union_length((a, b) for a, b in roots if b > a)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for i, (kind, name, start, end, parent, thread) in enumerate(self.spans):
                f.write(json.dumps({
                    "run_id": self.run_id, "id": i, "kind": kind, "name": name,
                    "start": start, "end": end, "parent": parent, "thread": thread,
                }) + "\n")


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
Hook = Callable[[Recorder, tuple, dict, Any, Any], None]


def spanned(rec: Recorder, kind: str, name: str, fn: Callable,
            before: Optional[Callable[[tuple], Any]] = None,
            after: Optional[Hook] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.is_open(kind):
            return fn(*args, **kwargs)
        state = before(args) if before is not None else None
        index = rec.open(kind, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if after is not None:
            after(rec, args, kwargs, result, state)
        return result

    return wrapper


def counted(rec: Recorder, key: str, fn: Callable) -> Callable:
    values = rec.values

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        values[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _repro_modules() -> List[Any]:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))]


def _replace_everywhere(orig: Callable, new: Callable) -> None:
    """Rebind every ``repro`` module global that names ``orig``."""
    for module in _repro_modules():
        for key, value in list(vars(module).items()):
            if value is orig:
                setattr(module, key, new)


def _resolve(module_name: str, qualname: str) -> Tuple[Any, str, Any]:
    module = importlib.import_module(module_name)
    owner: Any = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def _outcomes(result: Any) -> List[Any]:
    return list(result) if isinstance(result, (list, tuple)) else [result]


def _after_solve(rec, args, kwargs, result, state) -> None:
    for outcome in _outcomes(result):
        rec.add("solvers.solves")
        rec.add("solvers.iterations", int(getattr(outcome, "iterations", 0) or 0))
        rec.add("solvers.warm_started", int(bool(getattr(outcome, "warm_started", False))))
        if not getattr(outcome, "ok", False):
            rec.add("solvers.nonoptimal")


def _after_generate(rec, args, kwargs, result, state) -> None:
    rec.add("traffic.flows_generated", len(result))


def _before_sim_run(args) -> int:
    return args[0].engine.events_processed


def _after_sim_run(rec, args, kwargs, result, state) -> None:
    rec.add("sim.events", args[0].engine.events_processed - state)


def _after_flowsim(rec, args, kwargs, result, state) -> None:
    flows = args[1] if len(args) > 1 else kwargs.get("flows", ())
    rec.add("flowsim.flows", len(flows))


def _after_design(rec, args, kwargs, result, state) -> None:
    counters = getattr(result, "counters", {}) or {}
    evaluated = len(getattr(result, "evaluated", ()))
    pruned = len(getattr(result, "pruned", ()))
    rec.add("design.candidates", evaluated + pruned)
    rec.add("design.pruned", pruned)
    rec.add("design.lp_solves", int(counters.get("lp_solves", evaluated)))


def _path_cache_hook() -> Hook:
    seen: "weakref.WeakSet" = weakref.WeakSet()

    def after(rec, args, kwargs, result, state) -> None:
        rec.add("perf.lookups")
        try:
            if result in seen:
                rec.add("perf.hits")
            else:
                seen.add(result)
        except TypeError:  # not weak-referenceable: count as a miss
            pass

    return after


# (kind, module, qualified attribute, hooks).  Entries whose module or
# attribute does not exist are skipped and reported as such.
SPAN_ENTRIES: Tuple[Tuple[str, str, str, dict], ...] = (
    ("harness.run", "repro.harness.runner", "Runner.run", {}),
    ("harness.batch", "repro.harness.execute", "execute_lp_batch", {}),
    ("harness.point", "repro.harness.execute", "execute_spec", {}),
    *(("topologies.build", f"repro.topologies.{mod}", fn, {}) for mod, fn in (
        ("fattree", "fattree"), ("fattree", "oversubscribed_fattree"),
        ("jellyfish", "jellyfish"), ("xpander", "xpander"),
        ("slimfly", "slimfly"), ("longhop", "longhop"))),
    *(("traffic.tm", "repro.traffic.patterns", fn, {}) for fn in (
        "longest_matching_tm", "permutation_tm", "all_to_all_tm",
        "many_to_one_tm", "one_to_many_tm", "a2a_pair_distribution",
        "permute_pair_distribution", "skew_pair_distribution",
        "projector_like_pair_distribution")),
    ("traffic.workload", "repro.traffic.workload", "Workload.generate",
     {"after": _after_generate}),
    *(("perf.pathcache", "repro.perf.pathcache", f"PathCache.{fn}", {}) for fn in (
        "distances", "distances_from", "ecmp_next_hops", "ecmp_tables",
        "k_shortest_paths", "diameter", "average_path_length",
        "hop_distance_distribution")),
    ("throughput.bound", "repro.throughput.bounds", "tm_throughput_upper_bound", {}),
    ("solvers.solve", "repro.solvers.base", "solve_outcome", {"after": _after_solve}),
    ("solvers.solve", "repro.solvers.colgen", "colgen_solve_outcome", {"after": _after_solve}),
    ("solvers.solve", "repro.solvers.incremental", "incremental_solve_outcome",
     {"after": _after_solve}),
    ("sim.setup", "repro.sim.simulation", "PacketSimulation.__init__", {}),
    ("sim.setup", "repro.sim.simulation", "PacketSimulation.inject", {}),
    ("sim.run", "repro.sim.simulation", "PacketSimulation.run",
     {"before": _before_sim_run, "after": _after_sim_run}),
    ("flowsim.run", "repro.flowsim.simulator", "FlowLevelSimulation.run",
     {"after": _after_flowsim}),
    ("resilience.degrade", "repro.topologies.base", "Topology.degrade", {}),
    ("design.search", "repro.design.search", "DesignEngine.search",
     {"after": _after_design}),
    ("api.dispatch", "repro.api.service", "ApiService.dispatch", {}),
)


def solver_backend_classes() -> List[type]:
    """Every class in ``repro.solvers`` with a string ``name`` and ``solve``."""
    importlib.import_module("repro.solvers")
    found = []
    for module in _repro_modules():
        if not module.__name__.startswith("repro.solvers"):
            continue
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and isinstance(getattr(value, "name", None), str)
                    and callable(getattr(value, "solve", None))):
                found.append(value)
    return found


def install(rec: Recorder) -> Dict[str, List[str]]:
    """Wrap every layer entry point for ``rec``; returns wrapped/skipped."""
    importlib.import_module("repro")
    wrapped: List[str] = []
    skipped: List[str] = []
    entries = list(SPAN_ENTRIES)
    for cls in solver_backend_classes():
        for meth in ("solve", "solve_many"):
            if meth in vars(cls):
                entries.append(("solvers.solve", cls.__module__,
                                f"{cls.__qualname__}.{meth}", {"after": _after_solve}))
    entries.append(("perf.pathcache", "repro.perf.pathcache", "shared_path_cache",
                    {"after": _path_cache_hook()}))
    for kind, module_name, qualname, hooks in entries:
        label = f"{module_name}.{qualname}"
        try:
            owner, attr, orig = _resolve(module_name, qualname)
        except (ImportError, AttributeError):
            skipped.append(label)
            continue
        new = spanned(rec, kind, qualname, orig, **hooks)
        if isinstance(owner, type):
            setattr(owner, attr, new)
        else:
            _replace_everywhere(orig, new)
        wrapped.append(label)
    for module_name, qualname, key in _counter_entries():
        try:
            owner, attr, orig = _resolve(module_name, qualname)
        except (ImportError, AttributeError):
            skipped.append(f"{module_name}.{qualname}")
            continue
        setattr(owner, attr, counted(rec, key, orig))
        wrapped.append(f"{module_name}.{qualname}")
    _reload_registries()
    return {"wrapped": wrapped, "skipped": skipped}


def _counter_entries() -> List[Tuple[str, str, str]]:
    entries = [("repro.sim.link", "Link.send", "sim.link_sends")]
    routing = importlib.import_module("repro.sim.routing")
    for value in vars(routing).values():
        if isinstance(value, type) and "next_hop" in vars(value):
            entries.append(("repro.sim.routing", f"{value.__qualname__}.next_hop",
                            "sim.next_hop_calls"))
    return entries


def _reload_registries() -> None:
    """Re-run loaded registries' loaders so factories capture the wrappers."""
    registry = importlib.import_module("repro.registry")
    for value in vars(registry).values():
        loader = getattr(value, "_loader", None)
        if getattr(value, "_loaded", False) and callable(loader):
            loader()


# ----------------------------------------------------------------------
# Layer metrics
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, start: float, end: float) -> Dict[str, float]:
    """The traced run's per-layer metrics; [start, end] is the timed window."""
    v = rec.values
    c = rec.counts
    events = v["sim.events"]
    sim_run = rec.kind_time("sim.run")
    return {
        "harness.run_s": rec.kind_time("harness.run"),
        "harness.self_s": rec.layer_self_time("harness"),
        "harness.batches": c["harness.batch"],
        "topologies.build_s": rec.kind_time("topologies.build"),
        "topologies.builds": c["topologies.build"],
        "traffic.tm_s": rec.kind_time("traffic.tm"),
        "traffic.tms": c["traffic.tm"],
        "traffic.workload_s": rec.kind_time("traffic.workload"),
        "traffic.flows_generated": v["traffic.flows_generated"],
        "perf.pathcache_s": rec.kind_time("perf.pathcache"),
        "perf.pathcache_hit_ratio": _ratio(v["perf.hits"], v["perf.lookups"]),
        "throughput.bound_s": rec.kind_time("throughput.bound"),
        "solvers.solve_s": rec.kind_time("solvers.solve"),
        "solvers.solves": v["solvers.solves"],
        "solvers.iterations": v["solvers.iterations"],
        "solvers.warm_started_ratio": _ratio(v["solvers.warm_started"], v["solvers.solves"]),
        "solvers.nonoptimal": v["solvers.nonoptimal"],
        "sim.setup_s": rec.kind_time("sim.setup"),
        "sim.run_s": sim_run,
        "sim.events": events,
        "sim.link_sends": v["sim.link_sends"],
        "sim.next_hop_calls": v["sim.next_hop_calls"],
        "sim.events_per_link_send": _ratio(events, v["sim.link_sends"]),
        "sim.host_us_per_event": _ratio(sim_run * 1e6, events),
        "flowsim.run_s": rec.kind_time("flowsim.run"),
        "flowsim.flows": v["flowsim.flows"],
        "resilience.degrade_s": rec.kind_time("resilience.degrade"),
        "resilience.degrades": c["resilience.degrade"],
        "design.search_s": rec.kind_time("design.search"),
        "design.self_s": rec.layer_self_time("design"),
        "design.candidates": v["design.candidates"],
        "design.pruned_ratio": _ratio(v["design.pruned"], v["design.candidates"]),
        "design.lp_solves": v["design.lp_solves"],
        "api.dispatch_s": rec.kind_time("api.dispatch"),
        "api.self_s": rec.layer_self_time("api"),
        "unattributed_s": (end - start) - rec.root_coverage(start, end),
    }
