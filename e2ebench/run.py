"""End-to-end benchmark: one workload run, one JSON result line.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload fluid_sweep --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --workload all --seed 1   # every workload, a table

Every workload runs in fresh child processes (``child.py``) started
from this single parent process; ``api_mixed`` starts a ``python -m repro
serve`` child and drives it with closed-loop client threads.  With
``--trace 0`` the last stdout line carries the end-to-end metrics of an
untraced run; with ``--trace 1`` it carries the per-layer metrics of a
traced run (plus the tracing overhead against an untraced run of the
same work).  A failed correctness gate makes ``correct`` false and the
exit code 1.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import queue
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import common

CHILD = os.path.join(common.HERE, "child.py")
SETUP_SAMPLES = 3
API_SETUP_SAMPLES = 3
READY_TIMEOUT_S = 60.0
RESULT_TIMEOUT_S = 150.0


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = common.SRC
    env.pop("PYTHONSTARTUP", None)
    return env


class Child:
    """One workload child process and its line protocol."""

    def __init__(self, workload: str, role: str, seed: int,
                 trace: bool = False, run_id: str = "") -> None:
        config = {"workload": workload, "role": role, "seed": seed,
                  "trace": int(trace), "run_id": run_id}
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, CHILD, json.dumps(config)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=common.ROOT, env=_child_env(),
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._pump = threading.Thread(target=self._read, daemon=True)
        self._pump.start()
        self.setup_s = 0.0

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def expect(self, tag: str, timeout: float) -> Dict[str, Any]:
        deadline = time.perf_counter() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                raise common.BenchError(f"child timed out waiting for {tag}") from None
            if line is None:
                raise common.BenchError(
                    f"child exited with {self.proc.wait()} before {tag}")
            if line.startswith(tag + " "):
                return json.loads(line[len(tag) + 1:])

    def ready(self) -> Dict[str, Any]:
        payload = self.expect("READY", READY_TIMEOUT_S)
        self.setup_s = time.perf_counter() - self.started
        return payload

    def run(self, command: Dict[str, Any]) -> Dict[str, Any]:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        return self.expect("RESULT", RESULT_TIMEOUT_S)

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write("exit\n")
                self.proc.stdin.flush()
        except OSError:
            pass
        _stop(self.proc, graceful_s=30.0)
        self._pump.join(timeout=5.0)

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _stop(proc: subprocess.Popen, graceful_s: float) -> None:
    try:
        proc.wait(timeout=graceful_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()


def run_child(workload: str, role: str, seed: int, command: Dict[str, Any],
              trace: bool = False, run_id: str = "") -> Dict[str, Any]:
    """Start a child, wait for READY, run ``command``; returns its result."""
    with Child(workload, role, seed, trace, run_id) as child:
        ready = child.ready()
        result = child.run(command)
    result["setup_s"] = child.setup_s
    result["ready"] = ready
    return result


def setup_sample(workload: str, seed: int) -> float:
    with Child(workload, "setup", seed) as child:
        child.ready()
    return child.setup_s


# ----------------------------------------------------------------------
# fluid_sweep / packet_fct / design_search
# ----------------------------------------------------------------------
def run_units(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced: one fresh child runs the workload's calls for ``seconds``.

    Call ``k`` runs part ``k % P`` of input variant ``seed + k // P``
    (``common.unit_parts``), so a run covers every part and averages
    over consecutive variants.  Figures are those of one *balanced unit*
    (every part once), assembled per part, so a run that stops part-way
    through a cycle weighs no part twice: ``work_per_s`` is the unit's
    work over the sum of the parts' mean call latencies, ``call_p50_ms``
    the sum of the parts' median call latencies.

    Where the pins carry per-call work weights (``packet_fct``: the
    simulation events each point took when pinned), work is counted in
    those fixed units and each call's latency is scaled to the part's
    pool-mean call, so heavier or lighter flow draws do not move the
    figures.

    The times are reported at reference host speed (``common.host_factor``
    of the calibration kernel run between calls); the measured ones go
    to the info line as ``raw_metrics``.
    """
    pins = _load_pins(workload)
    parts = common.unit_parts(workload)
    with Child(workload, "run", seed) as child:
        ready = child.ready()
        out = child.run({"seconds": seconds, "calibrate": True})
    setups = [child.setup_s]
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(workload, seed))
    calls = out["calls"]
    if "reference_call_work" in pins:
        weights = [pins["variants"][str(common.variant(c["seed"]))]["call_work"][
            parts.index(c["part"])] for c in calls]
    else:
        weights = [c["work"] for c in calls]
    unit_work, mean_ms, p50_ms = common.balanced_unit(
        parts, calls, weights, pins.get("reference_call_work"))
    busy = sum(c["wall_s"] for c in calls)
    done = sum(c["work"] for c in calls)
    named = {"fluid_sweep": {"lp_points_per_s": done / busy},
             "packet_fct": {"packet_flows_per_s": done / busy},
             "design_search": {"design_search_s": common.median(
                 [c["wall_s"] for c in calls])}}[workload]
    raw = {"setup_s": common.median(setups), "work_per_s": unit_work / (mean_ms / 1e3),
           "call_p50_ms": p50_ms}
    factor = common.host_factor(out["probes"])
    out.update({
        "metrics": _at_reference_speed(raw, factor, out["peak_rss_mb"]),
        "raw": raw,
        "host_factor": factor,
        "version": ready["version"],
        "named": named,
        "setup_samples": setups,
        "call_walls_s": [round(c["wall_s"], 4) for c in calls],
        "variants": [common.variant(c["seed"]) for c in calls[::len(parts)]],
        "events": [c["events"] for c in calls] if workload == "packet_fct" else None,
    })
    return out


def _at_reference_speed(raw: Dict[str, float], factor: float,
                        peak_rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics: measured times divided (rates multiplied)
    by the run's host factor, so runs on a faster or slower moment of a
    shared host compare."""
    return {
        "setup_s": raw["setup_s"] / factor,
        "peak_rss_mb": peak_rss_mb,
        "work_per_s": raw["work_per_s"] * factor,
        "call_p50_ms": raw["call_p50_ms"] / factor,
    }


def trace_units(workload: str, seed: int, run_id: str) -> Dict[str, Any]:
    """Traced: one untraced and one traced unit (every part once) of
    identical work."""
    command = {"seconds": 0}
    plain = run_child(workload, "run", seed, command)
    traced = run_child(workload, "run", seed, command, trace=True, run_id=run_id)
    layers = dict(traced["layers"])
    layers["import.repro_s"] = traced["ready"]["import_s"]
    layers["import.modules"] = traced["ready"]["modules"]
    layers["trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]
    out = {key: plain[key] + traced[key] for key in ("attempted", "failed", "errors")}
    out.update({"layers": layers, "solvers": sorted(set(plain["solvers"]) | set(traced["solvers"])),
                "spans_path": traced.get("spans_path"), "version": plain["ready"]["version"]})
    return out


# ----------------------------------------------------------------------
# api_mixed
# ----------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _healthy(port: int) -> bool:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=2.0)
    try:
        conn.request("GET", "/v1/healthz")
        return conn.getresponse().status == 200
    except OSError:
        return False
    finally:
        conn.close()


class Server:
    """A ``python -m repro serve`` child with the hot set warmed."""

    def __init__(self, client_cls: Any, pins: Dict[str, Any]) -> None:
        self.port = _free_port()
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", str(self.port), "--workers", str(common.API_SERVER_WORKERS),
             "--quiet"],
            stdout=subprocess.DEVNULL, cwd=common.ROOT, env=_child_env(),
        )
        self.client_cls = client_cls
        self.errors: List[str] = []
        try:
            deadline = started + READY_TIMEOUT_S
            while not _healthy(self.port):
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    raise common.BenchError("api server did not become healthy")
                time.sleep(0.01)
            warm = self.client()
            for request in ({"kind": "hit", "body": b} for b in common.api_hot_set()):
                value = common.api_call(warm, request)
                if not common.values_match(value, pins["hot"][request["body"]["topology"]],
                                           pins["tolerance"]):
                    self.errors.append(f"hot set {request['body']['topology']}: {value}")
            warm.close()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def client(self) -> Any:
        return self.client_cls.http("127.0.0.1", self.port)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        _stop(self.proc, graceful_s=10.0)


def _api_client_cls() -> Any:
    sys.path.insert(0, common.SRC)
    from repro.api import ReproClient

    return ReproClient


def _load_pins(workload: str) -> Dict[str, Any]:
    with open(common.PINS_PATH) as f:
        return json.load(f)[workload]


def _wire_window(server: Server, seed: int, seconds: float) -> Dict[str, Any]:
    """The closed-loop request window against a warmed server."""
    clients = [server.client() for _ in range(common.API_CLIENTS)]
    try:
        schedule = common.api_schedule(seed, _blocks(seconds))
        t0 = time.perf_counter()
        results = common.closed_loop(clients, schedule, deadline=t0 + seconds)
        elapsed = time.perf_counter() - t0
    finally:
        for c in clients:
            c.close()
    return {"results": results, "elapsed_s": elapsed,
            "peak_rss_mb": common.read_vm_hwm_mb(server.proc.pid)}


def _blocks(seconds: float) -> int:
    """Schedule length: more requests than the window can complete."""
    return max(60, int(seconds * 40))


def _bad_requests(results: List[Dict[str, Any]], expected: Dict[int, Any],
                  rel: float) -> List[str]:
    """Requests that failed or whose reply differs from its reference."""
    bad = []
    for r in results:
        want = expected.get(r["index"])
        if r["error"] is not None:
            bad.append(f"request {r['index']} ({r['kind']}): {r['error']}")
        elif want is None or not common.values_match(r["value"], want, rel):
            bad.append(f"request {r['index']} ({r['kind']}): {r['value']} != {want}")
    return bad


def _pinned_hits(results: List[Dict[str, Any]], schedule: List[Dict[str, Any]],
                 pins: Dict[str, Any]) -> Dict[int, Any]:
    return {r["index"]: pins["hot"][schedule[r["index"]]["body"]["topology"]]
            for r in results if r["kind"] == "hit"}


def _api_summary(results: List[Dict[str, Any]], elapsed: float) -> Dict[str, Any]:
    lat = [r["ms"] for r in results]
    pct, tail, n = common.tail_percentile(lat)
    by_kind = {k: [r["ms"] for r in results if r["kind"] == k]
               for k in ("hit", "miss", "simulate")}
    return {
        "api_rps": len(results) / elapsed,
        "api_p50_ms": common.median(lat),
        "api_tail_ms": tail,
        "api_tail_percentile": pct,
        "api_samples": n,
        "median_ms": {k: common.median(v) for k, v in by_kind.items()},
        "planned_hit_ratio": common.API_BLOCK.count("hit") / len(common.API_BLOCK),
        "realized_hit_ratio": len(by_kind["hit"]) / len(results) if results else 0.0,
    }


def _served_solvers(results: List[Dict[str, Any]]) -> List[str]:
    return sorted({r["value"]["solver"] for r in results
                   if r["value"] and "solver" in r["value"]})


def run_api(seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced: server set-ups, then the closed-loop window on the last."""
    pins = _load_pins("api_mixed")
    client_cls = _api_client_cls()
    setups: List[float] = []
    errors: List[str] = []
    server = None
    try:
        for i in range(API_SETUP_SAMPLES):
            server = Server(client_cls, pins)
            setups.append(server.setup_s)
            errors.extend(server.errors)
            if i < API_SETUP_SAMPLES - 1:
                server.stop()
                server = None
        window = _wire_window(server, seed, seconds)
    finally:
        if server is not None:
            server.stop()
    results = window["results"]
    schedule = common.api_schedule(seed, _blocks(seconds))
    expected = _pinned_hits(results, schedule, pins)
    with open(common.API_PINS_PATH) as f:
        api_pins = json.load(f)
    pinned = api_pins["variants"][str(common.variant(seed))]
    others = [r["index"] for r in results if r["kind"] != "hit"]
    expected.update({i: common.unpack_reply(schedule[i], pinned[str(i)], api_pins["solver"])
                     for i in others if str(i) in pinned})
    unpinned = [i for i in others if str(i) not in pinned]
    if unpinned:
        ref = run_child("api_mixed", "reference", seed,
                        {"requests": [schedule[i] for i in unpinned]})
        expected.update(zip(unpinned, ref["values"]))
    bad = _bad_requests(results, expected, pins["tolerance"])
    summary = _api_summary(results, window["elapsed_s"])
    return {
        "attempted": len(results),
        "failed": len(bad),
        "errors": errors + bad,
        "metrics": {
            "setup_s": common.median(setups),
            "peak_rss_mb": window["peak_rss_mb"],
            "work_per_s": summary["api_rps"],
            "call_p50_ms": summary["api_p50_ms"],
        },
        "named": {k: summary[k] for k in ("api_rps", "api_p50_ms", "api_tail_ms")},
        "summary": summary,
        "solvers": _served_solvers(results),
        "setup_samples": setups,
        "version": sys.modules["repro"].__version__,
    }


def _cache_delta(before: Dict[str, Any], after: Dict[str, Any], lru: str, key: str) -> int:
    return int(after.get(lru, {}).get(key, 0)) - int(before.get(lru, {}).get(key, 0))


def trace_api(seed: int, seconds: float, run_id: str) -> Dict[str, Any]:
    """Traced: a wire window, then the same requests in-process twice
    (untraced and traced); the in-process replies are the reference."""
    pins = _load_pins("api_mixed")
    server = Server(_api_client_cls(), pins)
    try:
        window = _wire_window(server, seed, seconds)
    finally:
        server.stop()
    wire = window["results"]
    command = {"blocks": _blocks(seconds), "limit": len(wire)}
    plain = run_child("api_mixed", "inproc", seed, command)
    traced = run_child("api_mixed", "inproc", seed, command, trace=True, run_id=run_id)
    schedule = common.api_schedule(seed, command["blocks"])
    expected = _pinned_hits(wire, schedule, pins)
    expected.update({r["index"]: r["value"] for r in plain["results"] if r["kind"] != "hit"})
    rel = pins["tolerance"]
    bad = _bad_requests(wire, expected, rel) + _bad_requests(traced["results"], expected, rel)
    wire_ms = _api_summary(wire, window["elapsed_s"])["median_ms"]
    inproc_ms = _api_summary(plain["results"], plain["wall_s"])["median_ms"]
    before, after = traced["caches_before"], traced["caches_after"]
    hits = _cache_delta(before, after, "results", "hits")
    misses = _cache_delta(before, after, "results", "misses")
    evictions = sum(_cache_delta(before, after, lru, "evictions") for lru in after
                    if isinstance(after[lru], dict) and "evictions" in after[lru])
    layers = dict(traced["layers"])
    layers.update({
        "import.repro_s": traced["ready"]["import_s"],
        "import.modules": traced["ready"]["modules"],
        "trace_overhead_s": traced["wall_s"] - plain["wall_s"],
        "api.hit_ms": wire_ms["hit"],
        "api.miss_ms": wire_ms["miss"],
        "api.simulate_ms": wire_ms["simulate"],
        "api.inproc_hit_ms": inproc_ms["hit"],
        "api.transport_ms": wire_ms["hit"] - inproc_ms["hit"],
        "api.result_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "api.evictions": evictions,
    })
    return {"attempted": len(wire) + len(traced["results"]), "failed": len(bad),
            "errors": server.errors + bad, "layers": layers,
            "solvers": _served_solvers(wire), "spans_path": traced.get("spans_path"),
            "summary": _api_summary(wire, window["elapsed_s"]),
            "version": plain["ready"]["version"]}


# ----------------------------------------------------------------------
# One workload run -> the result object
# ----------------------------------------------------------------------
def _metric_units() -> Tuple[List[str], List[str], Dict[str, str]]:
    """End-to-end names, per-layer names, and every metric's unit."""
    with open(common.LAYERS_PATH) as f:
        doc = json.load(f)
    units = {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}
    return ([m["name"] for m in doc["end_to_end"]],
            [m["name"] for m in doc["per_layer"]], units)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run one workload; returns the result object plus an info record."""
    run_id = f"{workload}-s{seed}-{os.getpid()}-{int(time.time() * 1e3)}"
    if workload == "api_mixed":
        out = trace_api(seed, seconds, run_id) if trace else run_api(seed, seconds)
    else:
        out = trace_units(workload, seed, run_id) if trace else run_units(workload, seed, seconds)
    end_to_end, per_layer, units = _metric_units()
    raw, names = (out["layers"], per_layer) if trace else (out["metrics"], end_to_end)
    metrics = {n: {"value": float(raw.get(n, 0.0)), "unit": units[n]} for n in names}
    result = {
        "correct": not out["errors"],
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }
    info = {
        "workload": workload,
        "run_id": run_id,
        "trace": int(trace),
        "resolved": {
            "seed": seed,
            "input_variant": common.variant(seed),
            "packet_events": out.get("events"),
            "repro_version": out.get("version"),
            "solver_backends": out.get("solvers", []),
            "server_workers": common.API_SERVER_WORKERS if workload == "api_mixed" else None,
            "planned_hit_ratio": out.get("summary", {}).get("planned_hit_ratio"),
            "realized_hit_ratio": out.get("summary", {}).get("realized_hit_ratio"),
            "api_tail_percentile": out.get("summary", {}).get("api_tail_percentile"),
            "api_samples": out.get("summary", {}).get("api_samples"),
        },
        "named_metrics": out.get("named", {}),
        "host_factor": out.get("host_factor"),
        "raw_metrics": out.get("raw"),
        "setup_samples": out.get("setup_samples"),
        "unit_variants": out.get("variants"),
        "call_walls_s": out.get("call_walls_s"),
        "spans": out.get("spans_path"),
        "errors": out["errors"][:20],
    }
    return {"result": result, "info": info}


def _print_table(runs: List[Dict[str, Any]]) -> None:
    for run in runs:
        info, result = run["info"], run["result"]
        print(f"== {info['workload']}  correct={result['correct']}  "
              f"attempted={result['attempted']}  failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"   {name:28s} {m['value']:14.6g} {m['unit']}")
        for name, value in info["named_metrics"].items():
            print(f"   {name:28s} {value:14.6g} {_named_unit(name)}")
        resolved = info["resolved"]
        if resolved.get("api_samples"):
            print(f"   (api_tail_ms is p{resolved['api_tail_percentile']:.1f} "
                  f"of {resolved['api_samples']} requests)")


def _named_unit(name: str) -> str:
    if name.endswith(("_per_s", "_rps")):
        return "1/s"
    return "ms" if name.endswith("_ms") else "s"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(common.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.require_program()
        names = common.WORKLOADS if args.workload == "all" else (args.workload,)
        runs = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except common.BenchError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2
    for run in runs:
        print("e2ebench " + json.dumps(run["info"], sort_keys=True))
    if len(runs) > 1:
        _print_table(runs)
        final = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": {f"{r['info']['workload']}.{k}": v for r in runs
                        for k, v in r["result"]["metrics"].items()},
        }
    else:
        final = runs[0]["result"]
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
