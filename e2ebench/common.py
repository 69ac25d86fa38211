"""Paths, seeded input generation and statistics for the e2e benchmark.

Nothing here imports ``repro``: ``run.py`` builds every workload input
as plain JSON-ready data from the benchmark seed, and only the workload
children (and the API client threads) load the program.

Seeds select one of :data:`VARIANTS` pinned input variants
(``seed % VARIANTS``): the correctness gates compare outputs against
values pinned from the program for each variant (``pins.json``), so
seeds that agree modulo :data:`VARIANTS` share their inputs, and seeds
that differ modulo :data:`VARIANTS` get different inputs.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".e2ebench")
PINS_PATH = os.path.join(HERE, "pins.json")
API_PINS_PATH = os.path.join(HERE, "api_pins.json")
LAYERS_PATH = os.path.join(HERE, "layers.json")
DESIGN_TARGET_PATH = os.path.join(ROOT, "examples", "design_target.json")

WORKLOADS = ("fluid_sweep", "packet_fct", "design_search", "api_mixed")
VARIANTS = 8

# Scaled packet-sim conventions of the figure benches (1 Gbps links,
# pFabric sizes scaled to a 200 KB mean, short-flow and HYB thresholds
# scaled by the same factor).
LINK_RATE = 1e9
MEAN_FLOW_BYTES = 200_000
SHORT_FLOW_BYTES = int(100_000 * 200_000 / 2_400_000)
HYB_Q_BYTES = SHORT_FLOW_BYTES
PACKET_LOAD = 0.30

# api_mixed: hot-set size and the per-block request mix (10 requests:
# 7 hits, 2 misses, 1 simulate, shuffled per block by the seed).
API_HOT = 8
API_BLOCK = ("hit",) * 7 + ("miss",) * 2 + ("simulate",)
API_CLIENTS = 2
API_SERVER_WORKERS = 2
# Schedule blocks whose miss and simulate replies are pinned per variant
# (api_pins.json); a window that gets further is checked in-process.
API_PINNED_BLOCKS = 100


# Host-speed calibration.  The CPU speed a shared host gives a run drifts
# by 15-70% over minutes.  A fixed pure-Python kernel (no ``repro``
# code) timed between a run's calls tracks that drift (correlation 0.9
# with packet_fct's per-call rates over 30 s windows, 2-vCPU host), so
# every end-to-end time is reported at the kernel's reference speed:
# seconds scaled by PROBE_REFERENCE_S over the run's mean kernel time.
PROBE_REFERENCE_S = 0.25
PROBE_ITERATIONS = 1_000_000


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, bad input)."""


def require_program() -> None:
    """Fail unless the program's source tree sits beside the benchmark."""
    for path in (os.path.join(SRC, "repro", "__init__.py"), DESIGN_TARGET_PATH):
        if not os.path.isfile(path):
            raise BenchError(f"required program file missing: {path}")


def variant(seed: int) -> int:
    return int(seed) % VARIANTS


def canonical(data: Any) -> str:
    """Byte-stable JSON (the form inputs are compared and hashed in)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def fluid_inputs(seed: int) -> List[Dict[str, Any]]:
    """ExperimentSpec dicts of the Fig 2-style fluid sweep.

    The solver is left unset so the harness default is what runs.
    """
    v = variant(seed)
    topologies = (
        ("jellyfish", {"family": "jellyfish", "switches": 32, "degree": 6,
                       "servers": 3, "seed": 100 + v}),
        ("xpander", {"family": "xpander", "degree": 5, "lift": 6, "servers": 3}),
        ("fattree", {"family": "fattree", "k": 8}),
    )
    return [
        {
            "name": f"{name} x={x}",
            "topology": topo,
            "workload": {"pattern": "longest_matching", "fraction": x,
                         "pattern_seed": 200 + v},
            "engine": "lp",
            "seed": 200 + v,
        }
        for name, topo in topologies
        for x in (0.2, 0.4, 0.6, 0.8, 1.0)
    ]


def packet_inputs(seed: int) -> List[Dict[str, Any]]:
    """ExperimentSpec dicts of three Fig 10 Permute(x) packet points."""
    v = variant(seed)
    xpander = {"family": "xpander", "degree": 4, "lift": 6, "servers": 2}
    points = (
        ("xpander-hyb x=1.0", xpander, "hyb", 1.0, False),
        ("xpander-ecmp x=0.4", xpander, "ecmp", 0.4, False),
        ("fattree-ecmp x=1.0", {"family": "fattree", "k": 6}, "ecmp", 1.0, True),
    )
    return [
        {
            "name": name,
            "topology": topo,
            "routing": routing,
            "engine": "packet",
            "seed": 300 + v,
            "workload": {"pattern": "permute", "fraction": x,
                         "pattern_seed": 400 + v, "take_first": take_first,
                         "load": PACKET_LOAD, "sizes": "pfabric",
                         "mean_flow_bytes": MEAN_FLOW_BYTES},
            "measure_start": 0.02,
            "measure_end": 0.05,
            "link_rate_bps": LINK_RATE,
            "server_link_rate_bps": LINK_RATE,
            "hyb_threshold_bytes": HYB_Q_BYTES,
            "short_flow_bytes": SHORT_FLOW_BYTES,
        }
        for name, topo, routing, x, take_first in points
    ]


def unit_parts(workload: str) -> Tuple[str, ...]:
    """The parts one call of a unit workload runs, in call order.

    ``fluid_sweep``: one topology's five-fraction sweep per call;
    ``packet_fct``: one packet point per call; ``design_search``: the
    whole search.
    """
    if workload == "fluid_sweep":
        return ("jellyfish", "xpander", "fattree")
    if workload == "packet_fct":
        return tuple(s["name"] for s in packet_inputs(0))
    if workload == "design_search":
        return ("search",)
    raise BenchError(f"{workload!r} has no unit parts")


def design_inputs(seed: int) -> Dict[str, Any]:
    """The example design target with the variant's seed, sensitivity on."""
    with open(DESIGN_TARGET_PATH) as f:
        doc = json.load(f)
    doc["seed"] = 500 + variant(seed)
    doc["sensitivity"] = True
    return doc


def api_hot_set() -> List[Dict[str, Any]]:
    """The throughput requests warmed during set-up (seed-independent)."""
    return [
        {"topology": f"jellyfish:switches={16 + 2 * (i % 3)},degree=5,servers=3,seed={900 + i}",
         "fractions": [0.5, 1.0], "seed": i}
        for i in range(API_HOT)
    ]


def api_schedule(seed: int, blocks: int) -> List[Dict[str, Any]]:
    """``blocks`` x 10 seeded requests: exact 7/2/1 hit/miss/simulate mix.

    Misses name fresh jellyfish topologies (16-20 switches, a new
    construction seed each); simulate requests are flow-engine Permute
    points with a unique seed each.
    """
    v = variant(seed)
    rng = random.Random(f"api-{v}")
    hot = api_hot_set()
    out: List[Dict[str, Any]] = []
    for b in range(blocks):
        kinds = list(API_BLOCK)
        rng.shuffle(kinds)
        for j, kind in enumerate(kinds):
            uid = 10_000 * (v + 1) + 10 * b + j
            if kind == "hit":
                body = hot[rng.randrange(len(hot))]
            elif kind == "miss":
                body = {
                    "topology": f"jellyfish:switches={rng.choice((16, 18, 20))},"
                                f"degree=5,servers=3,seed={uid}",
                    "fractions": [0.5, 1.0],
                    "seed": uid,
                }
            else:
                body = {
                    "name": f"sim-{uid}",
                    "topology": {"family": "fattree", "k": 4},
                    "workload": {"pattern": "permute", "fraction": 0.5,
                                 "pattern_seed": uid, "load": 0.3,
                                 "sizes": "pfabric",
                                 "mean_flow_bytes": MEAN_FLOW_BYTES},
                    "routing": "ecmp",
                    "engine": "flow",
                    "seed": uid,
                    "measure_start": 0.01,
                    "measure_end": 0.03,
                }
            out.append({"kind": kind, "body": body})
    return out


def workload_inputs(workload: str, seed: int) -> Any:
    """Every generated input of one workload run (for hashing/tests)."""
    if workload == "fluid_sweep":
        return fluid_inputs(seed)
    if workload == "packet_fct":
        return packet_inputs(seed)
    if workload == "design_search":
        return design_inputs(seed)
    if workload == "api_mixed":
        return {"hot": api_hot_set(), "schedule": api_schedule(seed, 60)}
    raise BenchError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail_percentile(samples: Sequence[float], min_beyond: int = 10) -> Tuple[float, float, int]:
    """The highest percentile with at least ``min_beyond`` samples above it.

    Returns ``(percentile, value, n)``. With ``n`` sorted samples the
    sample at index ``i`` has ``n - 1 - i`` samples beyond it, so the
    tail is the sample at ``i = n - 1 - min_beyond``; by nearest rank it
    is the ``100 * (i + 1) / n`` th percentile.
    With ``min_beyond`` or fewer samples there is no such percentile and
    ``(0.0, median, n)`` is returned.
    """
    n = len(samples)
    if n <= min_beyond:
        return 0.0, median(samples), n
    ordered = sorted(samples)
    i = n - 1 - min_beyond
    pct = 100.0 * (i + 1) / n
    return pct, float(ordered[i]), n


def balanced_unit(parts: Sequence[str], calls: Sequence[Dict[str, Any]],
                  weights: Sequence[float],
                  reference: Optional[Sequence[float]] = None) -> Tuple[float, float, float]:
    """``(work, mean_ms, p50_ms)`` of one balanced unit: every part once.

    ``calls`` carry ``part`` and ``wall_s``; ``weights`` is each call's
    work.  A part's reference work is ``reference[i]`` (or the mean
    weight of its calls), and each call's latency is scaled by reference
    over own weight.  ``work`` sums the parts' reference work, ``mean_ms``
    their mean scaled latencies and ``p50_ms`` their median ones, so
    however many calls each part got, every part counts once.
    """
    work = mean_ms = p50_ms = 0.0
    for i, part in enumerate(parts):
        mine = [(c, w) for c, w in zip(calls, weights) if c["part"] == part]
        if not mine:
            raise BenchError(f"no call of part {part!r}")
        ref = reference[i] if reference else statistics.mean(w for _, w in mine)
        scaled = [c["wall_s"] * 1e3 * ref / w for c, w in mine]
        work += ref
        mean_ms += statistics.mean(scaled)
        p50_ms += median(scaled)
    return work, mean_ms, p50_ms


def speed_probe() -> float:
    """Seconds the fixed calibration kernel takes on this host, now."""
    t0 = time.perf_counter()
    table: Dict[int, Tuple[int, int]] = {}
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc = (acc * 31 + i) % 1_000_003
        table[acc & 4095] = (acc, i)
    total = sum(a * b for a, b in sorted(table.values()))
    elapsed = time.perf_counter() - t0
    if total <= 0:
        raise BenchError("calibration kernel gave no result")
    return elapsed


def host_factor(probes: Sequence[float]) -> float:
    """How much slower than the reference speed the host ran: the mean
    kernel time over :data:`PROBE_REFERENCE_S`.  Divide a measured time
    by it (multiply a rate) to get the reference-speed figure."""
    if not probes:
        raise BenchError("no calibration samples")
    return statistics.mean(probes) / PROBE_REFERENCE_S


def read_vm_hwm_mb(pid: Any = "self") -> float:
    """Peak resident set (``VmHWM``) of one process, in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return math.nan


# ----------------------------------------------------------------------
# API request loop (shared by the wire clients and the in-process run)
# ----------------------------------------------------------------------
def api_call(client: Any, request: Dict[str, Any]) -> Dict[str, Any]:
    """Send one scheduled request through a ``ReproClient``; its values."""
    body = request["body"]
    if request["kind"] == "simulate":
        record = client.simulate(body).record
        return {"status": record["status"], "metrics": record["metrics"]}
    ev = client.throughput(body["topology"], fractions=body["fractions"],
                           seed=body["seed"])
    return {
        "solver": ev.solver,
        "results": [[r["fraction"], r["status"], r.get("per_server_throughput")]
                    for r in ev.results],
    }


def closed_loop(clients: Sequence[Any], schedule: Sequence[Dict[str, Any]],
                deadline: float = math.inf, limit: int = 0) -> List[Dict[str, Any]]:
    """Run ``schedule`` closed-loop: one thread per client, each taking the
    next request only after its previous reply arrived.

    Stops at ``deadline`` (``time.perf_counter`` value), after ``limit``
    requests (0 = the whole schedule) or when the schedule runs out.
    Returns one entry per request started, in schedule order.
    """
    end = min(len(schedule), limit) if limit else len(schedule)
    lock = threading.Lock()
    cursor = [0]
    results: List[Dict[str, Any]] = [{} for _ in range(end)]

    def worker(client: Any) -> None:
        while True:
            with lock:
                i = cursor[0]
                if i >= end or time.perf_counter() >= deadline:
                    return
                cursor[0] += 1
            request = schedule[i]
            t0 = time.perf_counter()
            try:
                value, error = api_call(client, request), None
            except Exception as exc:  # noqa: BLE001 - a failed request is a result
                value, error = None, f"{type(exc).__name__}: {exc}"
            results[i] = {"index": i, "kind": request["kind"],
                          "ms": (time.perf_counter() - t0) * 1e3,
                          "value": value, "error": error}

    threads = [threading.Thread(target=worker, args=(c,)) for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results[:cursor[0]]


SIM_METRICS = ("flows", "unfinished", "avg_fct_ms", "short_p99_fct_ms",
               "long_avg_throughput_gbps")


def _rounded(x: Any, digits: int = 10) -> Any:
    return float(f"{x:.{digits}g}") if isinstance(x, float) else x


def pack_reply(request: Dict[str, Any], value: Dict[str, Any]) -> List[Any]:
    """The pinned form of a miss or simulate reply (``api_pins.json``):
    its numbers only, floats cut to 10 significant digits.  Statuses
    ("optimal" per fraction, "ok" per simulation) and the solver name
    are implied."""
    if request["kind"] == "simulate":
        return [_rounded(value["metrics"][k]) for k in SIM_METRICS]
    return [_rounded(r[2]) for r in value["results"]]


def unpack_reply(request: Dict[str, Any], packed: List[Any], solver: str) -> Dict[str, Any]:
    """The reply :func:`pack_reply` pinned, in :func:`api_call`'s form."""
    if request["kind"] == "simulate":
        return {"status": "ok", "metrics": dict(zip(SIM_METRICS, packed))}
    return {"solver": solver,
            "results": [[f, "optimal", t] for f, t in zip(request["body"]["fractions"], packed)]}


def values_match(got: Any, want: Any, rel: float) -> bool:
    """Structural equality with a relative tolerance on floats."""
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return False
        return abs(got - want) <= rel * max(1.0, abs(want))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(values_match(got[k], want[k], rel) for k in want))
    if isinstance(want, (list, tuple)):
        return (isinstance(got, (list, tuple)) and len(got) == len(want)
                and all(values_match(g, w, rel) for g, w in zip(got, want)))
    return got == want
