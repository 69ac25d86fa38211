"""Degraded topologies: the low-level surface behind failure scenarios.

The expander-topology literature the paper builds on (Jellyfish, Xpander)
evaluates resilience to random link and switch failures — expanders
degrade gracefully (no structural cut-points), fat-trees lose whole
subtrees.  This module owns the *mechanics* of degradation: a
:class:`DegradedTopology` is a :class:`Topology` copy with elements
removed that additionally records *which* links and switches failed and
the :class:`~repro.resilience.FailureScenario` that selected them, so
every downstream consumer (routing, path cache, harness records, obs)
can see that — and how — a failure happened.

Selection policy (random fractions, correlated pod/meta-node wipeouts,
bisection cuts) lives in :mod:`repro.resilience.scenario`; the idiomatic
entry point is ``topology.degrade(scenario)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

import networkx as nx

from .base import Topology, TopologyError

__all__ = [
    "DegradedTopology",
    "degrade_topology",
    "largest_connected_component",
]


@dataclass
class DegradedTopology(Topology):
    """A :class:`Topology` copy with failed elements removed — and recorded.

    Attributes
    ----------
    failed_links:
        The switch-to-switch cables removed, as sorted ``(u, v)`` pairs
        with ``u < v``; for switch failures this includes every incident
        cable that died with its switch.
    failed_switches:
        The switches (and their servers) removed, sorted.
    scenario:
        The :class:`~repro.resilience.FailureScenario` that selected the
        failures (``None`` when elements were named explicitly through
        :func:`degrade_topology`).
    base_switches / base_links / base_servers:
        Size of the *original* (pre-degradation) topology, preserved
        across chained degradations and LCC restriction so retention
        ratios stay anchored to the healthy network.
    """

    failed_links: Tuple[Tuple[int, int], ...] = ()
    failed_switches: Tuple[int, ...] = ()
    scenario: Optional[Any] = None
    base_switches: int = 0
    base_links: int = 0
    base_servers: int = 0

    # ------------------------------------------------------------------
    # Retention ratios (the obs `connectivity` gauge family)
    # ------------------------------------------------------------------
    @property
    def links_retained(self) -> float:
        """Fraction of the original cables still present."""
        return self.num_links / self.base_links if self.base_links else 1.0

    @property
    def switches_retained(self) -> float:
        """Fraction of the original switches still present."""
        return (
            self.num_switches / self.base_switches if self.base_switches else 1.0
        )

    @property
    def servers_retained(self) -> float:
        """Fraction of the original servers still attached."""
        return self.num_servers / self.base_servers if self.base_servers else 1.0

    def connectivity(self) -> float:
        """Largest-component switch count over the original switch count.

        1.0 means every surviving switch sits in one component and no
        switch failed; the value drops both when switches die and when
        the surviving graph fragments.
        """
        if not self.base_switches:
            return 1.0
        giant = max(
            (len(c) for c in nx.connected_components(self.graph)), default=0
        )
        return giant / self.base_switches

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DegradedTopology({self.name!r}, switches={self.num_switches}, "
            f"links={self.num_links}, servers={self.num_servers}, "
            f"failed_links={len(self.failed_links)}, "
            f"failed_switches={len(self.failed_switches)})"
        )


def _copy_graph(topology: Topology) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(topology.graph.nodes(data=True))
    g.add_edges_from(topology.graph.edges(data=True))
    return g


def _base_counts(topology: Topology) -> Tuple[int, int, int]:
    """Original-network sizes, carried through chained degradations."""
    if isinstance(topology, DegradedTopology):
        return (
            topology.base_switches,
            topology.base_links,
            topology.base_servers,
        )
    return topology.num_switches, topology.num_links, topology.num_servers


def degrade_topology(
    topology: Topology,
    links: Sequence[Tuple[int, int]] = (),
    switches: Sequence[int] = (),
    scenario: Optional[Any] = None,
) -> DegradedTopology:
    """Remove the given cables and switches; record what was lost.

    The workhorse behind :meth:`FailureScenario.apply`.  A missing link
    or switch raises :class:`TopologyError` (failing the same element
    twice is a selection bug, not a degraded network), as does removing
    every switch.  The name gets the suffix ``-swfail(N)`` when switches
    fail, else ``-linkfail(N)``.
    """
    base_sw, base_ln, base_srv = _base_counts(topology)
    suffix = (
        f"-swfail({len(switches)})" if switches else f"-linkfail({len(links)})"
    )
    g = _copy_graph(topology)
    servers = dict(topology.servers_per_switch)

    dead_links = set(
        tuple(topology.failed_links)
        if isinstance(topology, DegradedTopology)
        else ()
    )
    for u, v in links:
        if not g.has_edge(u, v):
            raise TopologyError(f"link {u}-{v} not present")
        g.remove_edge(u, v)
        dead_links.add((u, v) if u <= v else (v, u))
    for s in switches:
        if s not in g:
            raise TopologyError(f"switch {s} not present")
        for nbr in g.neighbors(s):
            dead_links.add((s, nbr) if s <= nbr else (nbr, s))
        g.remove_node(s)
        servers.pop(s, None)
    if g.number_of_nodes() == 0:
        raise TopologyError("all switches failed")

    dead_switches = set(
        tuple(topology.failed_switches)
        if isinstance(topology, DegradedTopology)
        else ()
    )
    dead_switches.update(switches)

    return DegradedTopology(
        name=topology.name + suffix,
        graph=g,
        servers_per_switch=servers,
        failed_links=tuple(sorted(dead_links)),
        failed_switches=tuple(sorted(dead_switches)),
        scenario=scenario,
        base_switches=base_sw,
        base_links=base_ln,
        base_servers=base_srv,
    )


def largest_connected_component(topology: Topology) -> Topology:
    """Restrict a (possibly disconnected) degraded topology to its largest
    component, dropping stranded switches and their servers.

    Simulations and the LP require a connected graph; after heavy failures
    this models the operational network (stranded racks are simply down).
    Degradation provenance (failed elements, scenario, base sizes) is
    preserved when the input is a :class:`DegradedTopology`.
    """
    if topology.is_connected():
        return topology
    giant = max(nx.connected_components(topology.graph), key=len)
    g = _copy_graph(topology)
    g.remove_nodes_from(set(g.nodes()) - giant)
    servers = {
        s: n for s, n in topology.servers_per_switch.items() if s in giant
    }
    if isinstance(topology, DegradedTopology):
        return DegradedTopology(
            name=topology.name + "-lcc",
            graph=g,
            servers_per_switch=servers,
            failed_links=topology.failed_links,
            failed_switches=topology.failed_switches,
            scenario=topology.scenario,
            base_switches=topology.base_switches,
            base_links=topology.base_links,
            base_servers=topology.base_servers,
        )
    return Topology(
        name=topology.name + "-lcc",
        graph=g,
        servers_per_switch=servers,
    )
