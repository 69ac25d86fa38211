"""Regenerate ``pins.json`` and ``api_pins.json``: the reference values
the correctness gates use.

Run from the repository root (takes a few minutes)::

    python3 e2ebench/pin.py [--workload fluid_sweep ...]

For every input variant it runs the workload unit once in a fresh
process without checks and stores what the gates compare.  The packet
flow count is cross-checked against an independent regeneration of the
workload's flows through the public traffic API.  Only re-pin when the
program's results are meant to change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Any, Dict

import common

TOLERANCE = {"fluid_sweep": 1e-9, "packet_fct": 1e-6, "design_search": 1e-9,
             "api_mixed": 1e-9}


def generated_in_window(spec: Dict[str, Any]) -> int:
    """Flows the spec's workload starts inside its measurement window."""
    from repro import registry
    from repro.traffic import PoissonArrivals, Workload, pfabric_web_search

    topology = registry.topology(spec["topology"])
    wl = spec["workload"]
    pairs = registry.TRAFFIC.build("permute", topology, fraction=wl["fraction"],
                                   seed=wl["pattern_seed"], take_first=wl["take_first"])
    active = sum(topology.servers_at(t) for t in pairs.active_racks())
    rate = wl["load"] * active * spec["server_link_rate_bps"] / 8.0 / wl["mean_flow_bytes"]
    start, end = spec["measure_start"], spec["measure_end"]
    flows = Workload(pairs, pfabric_web_search(wl["mean_flow_bytes"]),
                     PoissonArrivals(rate), seed=spec["seed"]).generate(
        horizon=end + (end - start))
    return sum(1 for f in flows if start <= f.start_time < end)


def _pinned_values(workload: str, v: int, values: Dict[str, Any]) -> Dict[str, Any]:
    if workload == "packet_fct":
        specs = {s["name"]: s for s in common.packet_inputs(v)}
        pinned = {}
        for name, metrics in values.items():
            generated = generated_in_window(specs[name])
            if generated != metrics["flows"]:
                raise SystemExit(f"{name}: {metrics['flows']} measured, {generated} generated")
            pinned[name] = {"generated_in_window": generated, "metrics": metrics}
        return pinned
    if workload == "design_search":
        return {"best": values["best"], "cost": values["cost"]}
    return values


def pin_units(workload: str) -> Dict[str, Any]:
    """Gate values of every variant (and packet event counts).

    Each variant runs every part once in a fresh process.  For
    ``packet_fct`` the events each point's simulation processed are
    stored as that call's fixed work weight (in ``unit_parts`` order):
    ``run.py`` reports packet work and latency in these units, so runs
    on heavier or lighter flow draws compare.
    """
    import run

    variants: Dict[str, Any] = {}
    for v in range(common.VARIANTS):
        out = run.run_child(workload, "pin", v, {"seconds": 0})
        if out["errors"]:
            raise SystemExit(f"{workload} variant {v} failed: {out['errors']}")
        variants[str(v)] = {"values": _pinned_values(workload, v, out["values"])}
        if workload == "packet_fct":
            variants[str(v)]["call_work"] = [c["events"] for c in out["calls"]]
        print(f"{workload} variant {v}: {out['wall_s']:.2f}s", file=sys.stderr)
    pinned = {"tolerance": TOLERANCE[workload], "variants": variants}
    if workload == "packet_fct":
        pinned["reference_call_work"] = [
            statistics.mean(c) for c in zip(*(p["call_work"] for p in variants.values()))]
    return pinned


def pin_api() -> Dict[str, Any]:
    """Hot-set values, and (written to ``api_pins.json``) the miss and
    simulate replies of the first ``API_PINNED_BLOCKS`` schedule blocks
    of every variant, computed in a fresh in-process service each."""
    import run
    from repro.api import ReproClient

    client = ReproClient.in_process()
    hot = {b["topology"]: common.api_call(client, {"kind": "hit", "body": b})
           for b in common.api_hot_set()}
    solver = next(iter(hot.values()))["solver"]
    variants: Dict[str, Any] = {}
    for v in range(common.VARIANTS):
        schedule = common.api_schedule(v, common.API_PINNED_BLOCKS)
        others = [i for i, r in enumerate(schedule) if r["kind"] != "hit"]
        ref = run.run_child("api_mixed", "reference", v,
                            {"requests": [schedule[i] for i in others]})
        packed = {}
        for i, value in zip(others, ref["values"]):
            packed[str(i)] = common.pack_reply(schedule[i], value)
            if not common.values_match(common.unpack_reply(schedule[i], packed[str(i)], solver),
                                       value, TOLERANCE["api_mixed"]):
                raise SystemExit(f"api_mixed variant {v} request {i}: unexpected reply {value}")
        variants[str(v)] = packed
        print(f"api_mixed variant {v}: {len(others)} replies", file=sys.stderr)
    with open(common.API_PINS_PATH, "w") as f:
        json.dump({"blocks": common.API_PINNED_BLOCKS, "solver": solver,
                   "variants": variants}, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")
    return {"tolerance": TOLERANCE["api_mixed"], "hot": hot}


def _write(pins: Dict[str, Any]) -> None:
    with open(common.PINS_PATH, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=common.WORKLOADS)
    args = parser.parse_args()
    common.require_program()
    sys.path.insert(0, common.SRC)
    try:
        with open(common.PINS_PATH) as f:
            pins = json.load(f)
    except FileNotFoundError:
        pins = {}
    for workload in args.workload or common.WORKLOADS:
        pins[workload] = pin_api() if workload == "api_mixed" else pin_units(workload)
        _write(pins)
    return 0


if __name__ == "__main__":
    sys.exit(main())
