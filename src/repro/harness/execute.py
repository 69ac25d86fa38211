"""Execution of one :class:`ExperimentSpec` → one :class:`RunRecord`.

This is the single place where a declarative spec is turned into real
library objects — topology, pair distribution, flow sizes, workload —
and evaluated by the requested engine:

* ``packet`` — :class:`repro.sim.PacketSimulation` (discrete-event,
  DCTCP), with a link-telemetry summary attached;
* ``flow``   — :class:`repro.flowsim.FlowLevelSimulation` (fluid
  max-min fair);
* ``lp``     — the fluid-flow throughput LP over a longest-matching TM
  (the Fig 2/5/6 engine).

Everything here is deterministic given the spec (wall-clock time is
recorded but kept out of ``metrics``), which is what makes the
content-addressed cache sound: see the determinism test in
``tests/harness/test_determinism.py``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from .. import registry
from ..flowsim import FlowLevelSimulation
from ..obs import emit_network_report
from ..sim import NetworkParams, PacketSimulation
from ..sim.stats import FlowStats
from ..topologies import Topology
from ..traffic import PoissonArrivals, Workload, pareto_hull, pfabric_web_search
from .records import RunRecord, provenance
from .spec import ExperimentSpec, SpecError

__all__ = ["execute_spec", "execute_lp_batch"]


def _build_topology(topo_spec: Mapping[str, Any]) -> Topology:
    try:
        return registry.topology(topo_spec)
    except registry.RegistryError as exc:
        raise SpecError(str(exc)) from exc


def _build_pairs(spec: ExperimentSpec, topology: Topology):
    wl = spec.workload
    pattern = wl.get("pattern", "permute")
    params: Dict[str, Any] = {"seed": wl.get("pattern_seed", spec.seed)}
    if pattern in ("a2a", "permute"):
        params["fraction"] = wl.get("fraction", 1.0)
        params["take_first"] = bool(wl.get("take_first", False))
    elif pattern == "skew":
        params["theta"] = wl.get("theta", 0.04)
        params["phi"] = wl.get("phi", 0.77)
    try:
        return registry.TRAFFIC.build(pattern, topology, **params)
    except registry.RegistryError as exc:
        raise SpecError(str(exc)) from exc


def _build_sizes(spec: ExperimentSpec):
    wl = spec.workload
    kind = wl.get("sizes", "pfabric")
    mean = wl.get("mean_flow_bytes")
    if kind == "pfabric":
        return pfabric_web_search(mean) if mean else pfabric_web_search()
    if kind == "hull":
        kwargs: Dict[str, Any] = {}
        if mean:
            kwargs["mean_bytes"] = mean
        if "cap_bytes" in wl:
            kwargs["cap_bytes"] = wl["cap_bytes"]
        return pareto_hull(**kwargs)
    raise SpecError(f"unknown size distribution {kind!r} (pfabric/hull)")


def _resolve_rate(spec: ExperimentSpec, topology: Topology, pairs, sizes) -> float:
    """The aggregate flow arrival rate (flows/s) for the workload.

    ``rate`` is taken verbatim.  ``load`` is the offered fraction of the
    *active* servers' access capacity: racks with positive sampling
    weight contribute their servers, each assumed to inject at the
    server link rate.
    """
    wl = spec.workload
    if wl.get("rate") is not None:
        return float(wl["rate"])
    load = float(wl["load"])
    active_racks = getattr(pairs, "active_racks", None)
    if active_racks is not None:
        active_servers = sum(topology.servers_at(t) for t in active_racks())
    else:
        active_servers = topology.num_servers
    rate_bps = spec.server_link_rate_bps or spec.link_rate_bps
    mean_bytes = wl.get("mean_flow_bytes") or sizes.mean()
    return (load * active_servers * rate_bps / 8.0) / mean_bytes


def _lp_solver_backend(spec: ExperimentSpec):
    """The :data:`repro.registry.SOLVERS` backend an lp spec selects.

    Knobs follow the backend the name resolves to, so aliases get the
    same ones: the paths bound takes ``k_paths``; column generation
    (``highs-colgen`` and its aliases) takes ``k_paths`` (seed paths per
    demand), ``max_rounds`` and ``solver_mode``.
    """
    from ..solvers.backends import HighsColgenBackend, HighsPathsBackend

    wl = spec.workload
    name = spec.lp_solver
    params: Dict[str, Any] = {}
    try:
        factory = registry.SOLVERS.get(name)
        if factory is HighsPathsBackend:
            params["k"] = wl.get("k_paths", 8)
        elif factory is HighsColgenBackend:
            for key, param in (
                ("k_paths", "k"), ("max_rounds", "max_rounds"),
                ("solver_mode", "mode"),
            ):
                if key in wl:
                    params[param] = wl[key]
        return registry.SOLVERS.build(name, **params)
    except registry.RegistryError as exc:
        raise SpecError(str(exc)) from exc


def _lp_tm(spec: ExperimentSpec, topology: Topology):
    """The longest-matching TM an lp spec describes (plus its fraction)."""
    wl = spec.workload
    fraction = wl.get("fraction", 1.0)
    pattern_seed = wl.get("pattern_seed", spec.seed)
    tm = registry.TRAFFIC.build(
        "longest_matching", topology, fraction=fraction, seed=pattern_seed
    )
    return tm, fraction


def _lp_metrics(result, fraction) -> Dict[str, float]:
    return {
        "per_server_throughput": result.per_server,
        "fraction": float(fraction),
        "disconnected_pairs": float(result.disconnected_pairs),
    }


def _run_lp(spec: ExperimentSpec, topology: Topology) -> Dict[str, float]:
    tm, fraction = _lp_tm(spec, topology)
    backend = _lp_solver_backend(spec)
    outcome = backend.solve(topology, tm)
    # Non-optimal outcomes re-raise the typed SolverFailure: the Runner
    # turns it into a (non-retryable) failure record, so infeasible
    # points degrade a sweep instead of aborting it.
    outcome.raise_for_status()
    return _lp_metrics(outcome.result, fraction)


def _run_packet(
    spec: ExperimentSpec, topology: Topology, flows
) -> Tuple[FlowStats, Dict[str, float]]:
    defaults: Dict[str, Any] = {"seed": spec.seed}
    if registry.parse_spec(spec.routing, key="name")[0] == "hyb":
        defaults["hyb_threshold_bytes"] = spec.hyb_threshold_bytes
    policy = registry.routing(spec.routing, topology, **defaults)
    sim = PacketSimulation(
        topology,
        routing=policy,
        network_params=NetworkParams(
            link_rate_bps=spec.link_rate_bps,
            server_link_rate_bps=spec.server_link_rate_bps,
        ),
        seed=spec.seed,
    )
    sim.inject(flows)
    stats = sim.run(
        spec.measure_start, spec.measure_end, max_sim_time=spec.max_sim_time
    )
    report = emit_network_report(sim.network)
    telemetry = {
        "total_drops": report.total_drops,
        "total_marks": report.total_marks,
        "max_utilization": report.max_utilization,
        "mean_utilization": report.mean_utilization,
        "num_links": len(report.links),
    }
    return stats, telemetry


def _run_flow(spec: ExperimentSpec, topology: Topology, flows) -> FlowStats:
    sim = FlowLevelSimulation(
        topology,
        routing=spec.routing,
        link_rate_bps=spec.link_rate_bps,
        server_link_rate_bps=spec.server_link_rate_bps,
        hyb_threshold_bytes=spec.hyb_threshold_bytes,
        seed=spec.seed,
    )
    return sim.run(
        flows,
        measure_start=spec.measure_start,
        measure_end=spec.measure_end,
        max_sim_time=spec.max_sim_time if spec.max_sim_time else 1e9,
    )


def _apply_failures(
    spec: ExperimentSpec, topology: Topology
) -> Tuple[Topology, Dict[str, float]]:
    """Degrade ``topology`` per ``spec.failures`` (no-op when healthy)."""
    if spec.failures is None:
        return topology, {}
    scenario = registry.failure(spec.failures)
    topology = topology.degrade(scenario)
    return topology, {
        "connectivity": topology.connectivity(),
        "failed_links": float(len(topology.failed_links)),
        "failed_switches": float(len(topology.failed_switches)),
        "links_retained": topology.links_retained,
        "switches_retained": topology.switches_retained,
    }


def execute_spec(spec: ExperimentSpec) -> RunRecord:
    """Run one spec to completion and return its successful record.

    Exceptions propagate to the caller; the :class:`~repro.harness.runner.Runner`
    converts them into failure records.
    """
    spec.validate()
    start = time.perf_counter()
    topology = _build_topology(spec.topology)

    topology, degraded_telemetry = _apply_failures(spec, topology)
    if spec.failures is not None:
        if spec.engine != "lp":
            # The simulators need every generated flow to be routable;
            # the LP engines report disconnected pairs instead.
            from ..topologies import largest_connected_component

            topology = largest_connected_component(topology)

    if spec.engine == "lp":
        metrics = _run_lp(spec, topology)
        telemetry: Dict[str, float] = {}
    else:
        pairs = _build_pairs(spec, topology)
        sizes = _build_sizes(spec)
        rate = _resolve_rate(spec, topology, pairs, sizes)
        workload = Workload(pairs, sizes, PoissonArrivals(rate), seed=spec.seed)
        horizon = spec.workload.get(
            "horizon",
            spec.measure_end + (spec.measure_end - spec.measure_start),
        )
        flows = workload.generate(horizon=horizon)
        if spec.engine == "packet":
            stats, telemetry = _run_packet(spec, topology, flows)
        else:
            stats = _run_flow(spec, topology, flows)
            telemetry = {}
        if spec.short_flow_bytes is not None:
            stats.short_flow_bytes = spec.short_flow_bytes
        metrics = stats.summary()
    telemetry.update(degraded_telemetry)

    return RunRecord(
        spec=spec.to_dict(),
        spec_hash=spec.content_hash(),
        status="ok",
        metrics=metrics,
        telemetry=telemetry,
        wall_clock_s=time.perf_counter() - start,
        provenance=provenance(spec.engine),
    )


def execute_lp_batch(specs: Sequence[ExperimentSpec]) -> List[RunRecord]:
    """Run a group of lp specs sharing one topology through ``solve_many``.

    The caller (the Runner's batch grouping) guarantees the specs agree
    on ``topology``, ``failures``, and solver selection; the topology is
    built and degraded once and the backend amortizes its per-topology
    structure across the whole batch.  Returns one record per spec, in
    order: per-record ``metrics`` agree with what :func:`execute_spec`
    would produce for the same spec (within 1e-9: the batch shares one
    warm path pool), while non-optimal solves become
    failure records carrying the typed error — one infeasible point
    never takes down the rest of the batch.
    """
    first = specs[0]
    setup_start = time.perf_counter()
    topology = _build_topology(first.topology)
    topology, degraded_telemetry = _apply_failures(first, topology)
    backend = _lp_solver_backend(first)

    tms = []
    fractions = []
    for spec in specs:
        spec.validate()
        tm, fraction = _lp_tm(spec, topology)
        tms.append(tm)
        fractions.append(fraction)
    setup_s = (time.perf_counter() - setup_start) / len(specs)

    # All registry backends honor the SolverBackend warm contract; a
    # workload can force every point cold with {"warm": false}.
    outcomes = backend.solve_many(
        topology, tms, warm=bool(first.workload.get("warm", True))
    )
    records: List[RunRecord] = []
    for spec, outcome, fraction in zip(specs, outcomes, fractions):
        common = dict(
            spec=spec.to_dict(),
            spec_hash=spec.content_hash(),
            wall_clock_s=setup_s + outcome.wall_time_s,
            provenance=provenance(spec.engine),
        )
        if outcome.ok:
            records.append(
                RunRecord(
                    status="ok",
                    metrics=_lp_metrics(outcome.result, fraction),
                    telemetry=dict(degraded_telemetry),
                    **common,
                )
            )
        else:
            error = outcome.error
            records.append(
                RunRecord(
                    status="failed",
                    error=f"{type(error).__name__}: {error}",
                    attempts=1,
                    **common,
                )
            )
    return records
