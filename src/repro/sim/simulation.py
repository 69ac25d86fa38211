"""Packet-level experiment runner (paper §6.4 methodology).

Flows are injected according to a workload; statistics are computed over
the flows *started* within a measurement window, and the simulation runs
until every measured flow completes (or a safety cap is reached, in which
case unfinished flows are reported).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Union

from .. import obs, registry
from ..topologies.base import Topology
from ..traffic.workload import FlowSpec, Workload
from .engine import Engine
from .network import NetworkParams, SimulatedNetwork
from .routing import RoutingPolicy
from .stats import FlowRecord, FlowStats
from .tcp import TransportParams

__all__ = [
    "PacketSimulation",
    "run_packet_experiment",
]

class PacketSimulation:
    """One packet-level experiment on one topology."""

    def __init__(
        self,
        topology: Topology,
        routing: Union[str, RoutingPolicy] = "ecmp",
        network_params: Optional[NetworkParams] = None,
        transport_params: Optional[TransportParams] = None,
        transport: str = "dctcp",
        mptcp_subflows: int = 4,
        seed: int = 0,
    ) -> None:
        if transport not in ("dctcp", "mptcp"):
            raise ValueError(f"unknown transport {transport!r}")
        self.engine = Engine()
        if isinstance(routing, str):
            routing = registry.routing(routing, topology, seed=seed)
        self.routing = routing
        self.network = SimulatedNetwork(
            topology, routing, self.engine, params=network_params
        )
        bind = getattr(routing, "bind_network", None)
        if bind is not None:
            bind(self.network)
        self.transport = transport_params or TransportParams()
        self.transport_kind = transport
        self.mptcp_subflows = mptcp_subflows
        self.records: Dict[int, FlowRecord] = {}
        self._pending_measured = 0
        self._measure_start = 0.0
        self._measure_end = math.inf

    def inject(self, flows: Sequence[FlowSpec]) -> None:
        """Schedule every flow's start."""
        for spec in flows:
            if spec.src_server == spec.dst_server:
                raise ValueError(f"flow {spec.flow_id} has identical endpoints")
            record = FlowRecord(
                flow_id=spec.flow_id,
                src_server=spec.src_server,
                dst_server=spec.dst_server,
                size_bytes=spec.size_bytes,
                start_time=spec.start_time,
            )
            self.records[spec.flow_id] = record
            self.engine.schedule_at(
                spec.start_time, self._starter(spec)
            )

    def _starter(self, spec: FlowSpec):
        def start() -> None:
            src = self.network.hosts[spec.src_server]
            dst = self.network.hosts[spec.dst_server]
            record = self.records[spec.flow_id]

            def complete(when: float) -> None:
                record.completion_time = when
                dst.drop_receiver(spec.flow_id)
                if self._measure_start <= record.start_time < self._measure_end:
                    self._pending_measured -= 1

            if self.transport_kind == "mptcp":
                from .mptcp import MptcpFlow

                flow = MptcpFlow(
                    engine=self.engine,
                    params=self.transport,
                    routing=self.routing,
                    flow_id=spec.flow_id,
                    src_host=src,
                    dst_host=dst,
                    size_bytes=spec.size_bytes,
                    num_subflows=self.mptcp_subflows,
                    on_complete=complete,
                )
                flow.start()
            else:
                src.start_flow(
                    params=self.transport,
                    routing=self.routing,
                    flow_id=spec.flow_id,
                    dst_host=dst,
                    size_bytes=spec.size_bytes,
                    on_complete=complete,
                )

        return start

    def run(
        self,
        measure_start: float,
        measure_end: float,
        max_sim_time: Optional[float] = None,
        chunk: float = 0.01,
    ) -> FlowStats:
        """Run until all flows started in [measure_start, measure_end) finish.

        ``max_sim_time`` caps the simulated clock (unfinished flows are
        then reported in the stats); ``chunk`` is the completion-check
        granularity.
        """
        self._measure_start = measure_start
        self._measure_end = measure_end
        measured = [
            r
            for r in self.records.values()
            if measure_start <= r.start_time < measure_end
        ]
        self._pending_measured = len(measured)
        if max_sim_time is None:
            max_sim_time = measure_end * 50 + 10.0
        # Per-run instrumentation only: the span wraps the whole event
        # loop and the counters flush once as deltas, so the per-event
        # hot path stays untouched (obs disabled costs nothing here).
        events_before = self.engine.events_processed
        compactions_before = self.engine.heap_compactions
        with obs.span(
            "sim.run", flows=len(self.records), measured=len(measured)
        ):
            # Process at least through the injection horizon, then drain.
            while self._pending_measured > 0 and self.engine.now < max_sim_time:
                processed = self.engine.run(until=self.engine.now + chunk)
                if processed == 0 and self.engine.pending == 0:
                    break
        obs.add(
            "sim.events_processed", self.engine.events_processed - events_before
        )
        obs.add(
            "sim.heap_compactions",
            self.engine.heap_compactions - compactions_before,
        )
        stats = FlowStats(records=measured)
        return stats


def run_packet_experiment(
    topology: Topology,
    workload: Union[Workload, Sequence[FlowSpec]],
    routing: Union[str, RoutingPolicy] = "ecmp",
    measure_start: float = 0.05,
    measure_end: float = 0.15,
    inject_until: Optional[float] = None,
    network_params: Optional[NetworkParams] = None,
    transport_params: Optional[TransportParams] = None,
    max_sim_time: Optional[float] = None,
    seed: int = 0,
) -> FlowStats:
    """End-to-end convenience wrapper: build, inject, run, aggregate.

    Parameters
    ----------
    workload:
        Either a :class:`Workload` (flows are generated up to
        ``inject_until``, default ``measure_end + (measure_end -
        measure_start)``) or an explicit flow list.
    measure_start, measure_end:
        The window whose flows define the statistics; background flows
        keep arriving beyond it to sustain load while measured flows
        drain (paper §6.4).
    """
    if isinstance(workload, Workload):
        horizon = inject_until
        if horizon is None:
            horizon = measure_end + (measure_end - measure_start)
        flows: Sequence[FlowSpec] = workload.generate(horizon=horizon)
    else:
        flows = workload
    sim = PacketSimulation(
        topology,
        routing=routing,
        network_params=network_params,
        transport_params=transport_params,
        seed=seed,
    )
    sim.inject(flows)
    return sim.run(measure_start, measure_end, max_sim_time=max_sim_time)
