"""LP engines on disconnected degraded topologies.

Instead of crashing on a stale traffic matrix (demands naming racks
that failures cut off or removed), every engine pre-filters the
disconnected pairs, solves the feasible remainder, and reports
``disconnected_pairs`` on the result.
"""

import pytest

from repro.throughput import (
    max_concurrent_throughput,
    path_colgen_throughput,
    path_throughput,
)
from repro.topologies import fattree, xpander
from repro.traffic import TrafficMatrix, permutation_tm

ENGINES = [
    max_concurrent_throughput,
    path_throughput,
    path_colgen_throughput,
]


@pytest.fixture()
def healthy():
    return xpander(4, 6, 2)


@pytest.mark.parametrize("engine", ENGINES)
def test_connected_topology_reports_zero_disconnected(healthy, engine):
    tm = permutation_tm(healthy.tors, 2, fraction=0.5, seed=0)
    res = engine(healthy, tm)
    assert res.disconnected_pairs == 0
    assert res.throughput > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_stale_tm_pairs_dropped_not_fatal(engine):
    """Demands naming switches the failure removed must not crash."""
    ft = fattree(4).topology
    tm = permutation_tm(ft.tors, 2, fraction=1.0, seed=0)
    degraded = ft.degrade("switches:fraction=0.4,seed=2,lcc=true")
    res = engine(degraded, tm)
    assert res.disconnected_pairs > 0
    # The surviving demands still get a finite answer.
    assert res.throughput >= 0


@pytest.mark.parametrize("engine", ENGINES)
def test_fragmented_topology_pairs_dropped(healthy, engine):
    """A demand across components is dropped; same-component pairs solve."""
    degraded = healthy.degrade("bisection:fraction=1,seed=0")
    if degraded.is_connected():
        pytest.skip("bisection cut did not fragment this instance")
    tm = permutation_tm(healthy.tors, 2, fraction=1.0, seed=1)
    res = engine(degraded, tm)
    assert res.disconnected_pairs > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_all_pairs_disconnected_yields_zero(engine):
    ft = fattree(4).topology
    degraded = ft.degrade("switches:fraction=0.4,seed=2,lcc=true")
    dead = [t for t in ft.tors if t not in degraded.graph]
    assert len(dead) >= 2
    tm = TrafficMatrix({(dead[0], dead[1]): 1.0})
    res = engine(degraded, tm)
    assert res.throughput == 0.0
    assert res.per_server == 0.0
    assert res.disconnected_pairs == 1
