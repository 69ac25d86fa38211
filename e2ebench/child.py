"""One workload process of the e2e benchmark.

Started by ``run.py`` as ``python3 e2ebench/child.py '<config json>'``.
The child imports what its workload needs from ``src/``, prints
``READY {...}`` (``run.py``'s set-up clock stops there), then reads one
command line from stdin: ``exit``, or a JSON object that starts the
work.  It prints ``RESULT {...}`` and exits.

Roles:

* ``setup`` -- import, report ready, exit (set-up time samples);
* ``run`` -- the workload's calls for ``command["seconds"]`` (at least
  one of each part), each timed, then checked;
* ``pin`` -- one call of each part, reporting the values the gates
  compare;
* ``inproc`` -- ``api_mixed`` only: the request schedule through
  ``ReproClient.in_process()`` (traced, for layer attribution);
* ``reference`` -- ``api_mixed`` only: in-process reference values for
  the requests the stdin command lists.

With ``"trace": 1`` the layer wrappers of ``spans.py`` are installed
after READY and the spans are written to ``.e2ebench/`` at the end.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

import common

# The package each workload's user imports; set-up ends once it is loaded.
_IMPORTS = {
    "fluid_sweep": "repro.harness",
    "packet_fct": "repro.harness",
    "design_search": "repro.design",
    "api_mixed": "repro.api",
}


def emit(tag: str, payload: dict) -> None:
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


# ----------------------------------------------------------------------
# Solver resolution probe (records which backend actually ran)
# ----------------------------------------------------------------------
def probe_solvers() -> set:
    """Record the ``name`` of every solver backend that solves."""
    import spans

    names: set = set()

    def probe(fn):
        def wrapper(self, *args, **kwargs):
            names.add(self.name)
            return fn(self, *args, **kwargs)
        return wrapper

    for cls in spans.solver_backend_classes():
        for meth in ("solve", "solve_many"):
            if meth in vars(cls):
                setattr(cls, meth, probe(vars(cls)[meth]))
    return names


def probe_events() -> list:
    """Collect each packet simulation's event count, in call order."""
    from repro.sim.simulation import PacketSimulation

    counts: list = []
    run = PacketSimulation.run

    def wrapper(self, *args, **kwargs):
        before = self.engine.events_processed
        try:
            return run(self, *args, **kwargs)
        finally:
            counts.append(self.engine.events_processed - before)

    PacketSimulation.run = wrapper
    return counts


# ----------------------------------------------------------------------
# Calls: one part (a topology's sweep, a packet point, a design search)
# of one input variant each
# ----------------------------------------------------------------------
def _fluid(seed: int, part: str, pins: dict, check: bool) -> dict:
    from repro.harness import ExperimentSpec, Runner

    specs = [ExperimentSpec.from_dict(s) for s in common.fluid_inputs(seed)
             if s["name"].split()[0] == part]
    t0 = time.perf_counter()
    result = Runner(inline=True).run(specs)
    wall = time.perf_counter() - t0
    values = {r.name: (r.metrics.get("per_server_throughput") if r.ok else None)
              for r in result.records}
    errors = [f"{r.name}: {r.status} {r.error}" for r in result.records if not r.ok]
    if len(result.records) != len(specs):
        errors.append(f"{len(specs) - len(result.records)} points without a record")
    if check:
        rel = pins["tolerance"]
        want = pins["variants"][str(common.variant(seed))]["values"]
        for spec in specs:
            got, expected = values.get(spec.name), want[spec.name]
            if got is None or not common.values_match(got, expected, rel):
                errors.append(f"{spec.name}: per_server_throughput {got} != pinned {expected}")
    return {"wall_s": wall, "work": len(specs), "attempted": len(specs),
            "failed": _failed(errors, len(specs)), "errors": errors, "values": values}


def _failed(errors: list, attempted: int) -> int:
    return min(len(errors), attempted)


def _packet(seed: int, part: str, pins: dict, check: bool) -> dict:
    from repro.harness import ExperimentSpec, Runner

    spec = ExperimentSpec.from_dict(
        next(s for s in common.packet_inputs(seed) if s["name"] == part))
    t0 = time.perf_counter()
    records = Runner(inline=True).run([spec]).records
    wall = time.perf_counter() - t0
    keys = ("flows", "unfinished", "avg_fct_ms", "short_p99_fct_ms",
            "long_avg_throughput_gbps")
    values = {r.name: ({k: r.metrics.get(k) for k in keys} if r.ok else None)
              for r in records}
    errors = [f"{r.name}: {r.status} {r.error}" for r in records if not r.ok]
    got = values.get(part)
    if check:
        expected = pins["variants"][str(common.variant(seed))]["values"][part]
        if got is None:
            errors.append(f"{part}: no result")
        elif got["flows"] != expected["generated_in_window"]:
            errors.append(f"{part}: {got['flows']} flows measured, "
                          f"{expected['generated_in_window']} generated")
        elif got["unfinished"] != 0:
            errors.append(f"{part}: {got['unfinished']} flows unfinished")
        elif not common.values_match(got, expected["metrics"], pins["tolerance"]):
            errors.append(f"{part}: metrics {got} != pinned {expected['metrics']}")
    return {"wall_s": wall, "work": int(got["flows"]) if got else 0,
            "attempted": 1, "failed": _failed(errors, 1), "errors": errors,
            "values": values}


def _design(seed: int, part: str, pins: dict, check: bool) -> dict:
    from repro.design import DesignTarget, design_search

    target = DesignTarget.from_dict(common.design_inputs(seed))
    t0 = time.perf_counter()
    report = design_search(target)
    wall = time.perf_counter() - t0
    best = report.best
    values = {"best": best.spec if best else None,
              "cost": best.cost if best else None,
              "statuses": sorted({e.status for e in report.evaluated})}
    errors = []
    if values["statuses"] != ["optimal"]:
        errors.append(f"LP statuses {values['statuses']}")
    if check:
        want = pins["variants"][str(common.variant(seed))]["values"]
        if values["best"] != want["best"] or not common.values_match(
                values["cost"], want["cost"], pins["tolerance"]):
            errors.append(f"best {values['best']} at {values['cost']} != pinned "
                          f"{want['best']} at {want['cost']}")
    return {"wall_s": wall, "work": 1, "attempted": 1, "failed": _failed(errors, 1),
            "errors": errors, "values": values}


UNITS = {"fluid_sweep": _fluid, "packet_fct": _packet, "design_search": _design}


def run_calls(workload: str, seed: int, pins: dict, check: bool, seconds: float,
              calibrate: bool) -> dict:
    """Calls in a closed loop: at least one of every part, then more until
    ``seconds`` have passed.

    Call ``k`` runs part ``k % len(parts)`` of input variant
    ``seed + k // len(parts)``.  The program's shared path caches are
    dropped before each call, so every call starts as cold as in a fresh
    process (its imports aside).  With ``calibrate`` the calibration
    kernel (``common.speed_probe``) runs before every call and after the
    last, outside the calls' timing.
    """
    from repro.perf.pathcache import clear_shared_caches

    parts = common.unit_parts(workload)
    events = probe_events() if workload == "packet_fct" else []
    calls, probes = [], []
    t0 = time.perf_counter()
    while len(calls) < len(parts) or time.perf_counter() - t0 < seconds:
        k = len(calls)
        call_seed, part = seed + k // len(parts), parts[k % len(parts)]
        if calibrate:
            probes.append(common.speed_probe())
        clear_shared_caches()
        seen = len(events)
        call = UNITS[workload](call_seed, part, pins, check)
        call.update(seed=call_seed, part=part, events=sum(events[seen:]))
        calls.append(call)
    if calibrate:
        probes.append(common.speed_probe())
    wall = time.perf_counter() - t0
    values = {}
    for call in calls[:len(parts)]:
        values.update(call.pop("values"))
    return {
        "start": t0, "wall_s": wall, "calls": calls, "values": values, "probes": probes,
        "attempted": sum(c["attempted"] for c in calls),
        "failed": sum(c["failed"] for c in calls),
        "errors": [e for c in calls for e in c["errors"]],
    }


def _inproc(seed: int, command: dict) -> dict:
    """The api schedule through the in-process service (2 client threads)."""
    from repro.api import ReproClient

    service_client = ReproClient.in_process()
    clients = [ReproClient(service_client.transport) for _ in range(common.API_CLIENTS)]
    for body in common.api_hot_set():
        service_client.throughput(body["topology"], fractions=body["fractions"],
                                  seed=body["seed"])
    before = service_client.context().caches
    schedule = common.api_schedule(seed, command["blocks"])
    t0 = time.perf_counter()
    results = common.closed_loop(clients, schedule, limit=command["limit"])
    wall = time.perf_counter() - t0
    after = service_client.context().caches
    return {"start": t0, "wall_s": wall, "results": results,
            "caches_before": before, "caches_after": after}


def _reference(command: dict) -> dict:
    from repro.api import ReproClient

    client = ReproClient.in_process()
    return {"values": [common.api_call(client, r) for r in command["requests"]]}


UNITS = {"fluid_sweep": _fluid, "packet_fct": _packet, "design_search": _design}


def main() -> int:
    config = json.loads(sys.argv[1])
    workload, role = config["workload"], config["role"]
    t0 = time.perf_counter()
    modules_before = len(sys.modules)
    sys.path.insert(0, common.SRC)
    importlib.import_module(_IMPORTS[workload])
    emit("READY", {"import_s": time.perf_counter() - t0,
                   "modules": len(sys.modules) - modules_before,
                   "version": sys.modules["repro"].__version__})
    line = sys.stdin.readline().strip()
    if not line or line == "exit":
        return 0
    command = json.loads(line)
    seed = int(config["seed"])

    rec = None
    if config.get("trace"):
        import spans

        rec = spans.Recorder(config["run_id"])
        installed = spans.install(rec)
    solvers = probe_solvers()
    if role == "reference":
        out = _reference(command)
    elif role == "inproc":
        out = _inproc(seed, command)
    else:
        pins = {}
        if role == "run":
            with open(common.PINS_PATH) as f:
                pins = json.load(f)[workload]
        out = run_calls(workload, seed, pins, role == "run", float(command["seconds"]),
                        bool(command.get("calibrate")))
    out["peak_rss_mb"] = common.read_vm_hwm_mb()
    out["solvers"] = sorted(solvers)
    if rec is not None:
        out["layers"] = spans.layer_metrics(rec, out["start"], out["start"] + out["wall_s"])
        out["wrapped"] = installed
        path = os.path.join(common.OUT_DIR, f"{config['run_id']}.spans.jsonl")
        rec.write(path)
        out["spans_path"] = os.path.relpath(path, common.ROOT)
    emit("RESULT", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
