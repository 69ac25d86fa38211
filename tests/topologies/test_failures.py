"""Tests for failure injection."""

import pytest

from repro.topologies import (
    TopologyError,
    degrade_topology,
    jellyfish,
    largest_connected_component,
    xpander,
)


@pytest.fixture()
def xp():
    return xpander(4, 6, 2)


class TestFailLinks:
    def test_removes_exactly_given_links(self, xp):
        edges = list(xp.graph.edges())[:3]
        degraded = degrade_topology(xp, links=edges)
        assert degraded.num_links == xp.num_links - 3
        for u, v in edges:
            assert not degraded.graph.has_edge(u, v)

    def test_original_untouched(self, xp):
        before = xp.num_links
        degrade_topology(xp, links=list(xp.graph.edges())[:2])
        assert xp.num_links == before

    def test_missing_link_rejected(self, xp):
        with pytest.raises(TopologyError):
            degrade_topology(xp, links=[(0, 0)])


class TestFailSwitches:
    def test_removes_switch_and_servers(self, xp):
        victim = xp.switches[0]
        degraded = degrade_topology(xp, switches=[victim])
        assert victim not in degraded.graph
        assert degraded.num_servers == xp.num_servers - xp.servers_at(victim)

    def test_missing_switch_rejected(self, xp):
        with pytest.raises(TopologyError):
            degrade_topology(xp, switches=[10**9])

    def test_all_failed_rejected(self, xp):
        with pytest.raises(TopologyError):
            degrade_topology(xp, switches=xp.switches)


class TestRandomFailures:
    def test_fraction_of_links(self, xp):
        degraded = xp.degrade("links:fraction=0.2,seed=1")
        assert degraded.num_links == xp.num_links - round(0.2 * xp.num_links)

    def test_deterministic(self, xp):
        a = xp.degrade("links:fraction=0.3,seed=5")
        b = xp.degrade("links:fraction=0.3,seed=5")
        assert sorted(a.graph.edges()) == sorted(b.graph.edges())

    def test_fraction_of_switches(self, xp):
        degraded = xp.degrade("switches:fraction=0.25,seed=2")
        assert degraded.num_switches == xp.num_switches - round(0.25 * 30)

    def test_invalid_fraction(self, xp):
        with pytest.raises(TopologyError):
            xp.degrade("links:fraction=1.0")
        with pytest.raises(TopologyError):
            xp.degrade("switches:fraction=-0.1")


class TestLargestComponent:
    def test_noop_when_connected(self, xp):
        assert largest_connected_component(xp) is xp

    def test_strands_removed(self):
        jf = jellyfish(12, 3, 2, seed=0)
        victim = jf.switches[0]
        # Cut off one switch completely.
        degraded = degrade_topology(
            jf, links=[tuple(e) for e in jf.graph.edges(victim)]
        )
        lcc = largest_connected_component(degraded)
        assert lcc.is_connected()
        assert victim not in lcc.graph
        assert lcc.num_servers == jf.num_servers - jf.servers_at(victim)


class TestResilienceShape:
    def test_expander_degrades_gracefully(self):
        """Expanders stay connected and near-full-throughput under random
        link failures — the resilience property the paper's §3 topologies
        are known for."""
        from repro.throughput import max_concurrent_throughput
        from repro.traffic import permutation_tm

        xp = xpander(5, 8, 3)
        tm = permutation_tm(xp.tors, 3, 0.3, seed=0)
        base = max_concurrent_throughput(xp, tm).per_server
        degraded = largest_connected_component(
            xp.degrade("links:fraction=0.1,seed=3")
        )
        assert degraded.is_connected()
        after = max_concurrent_throughput(degraded, tm).per_server
        assert after >= 0.6 * base
