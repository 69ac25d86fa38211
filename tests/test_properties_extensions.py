"""Property-based tests for the extension modules (failures, cabling,
adversarial TMs, MPTCP chunking)."""


import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.mptcp import MptcpFlow
from repro.throughput.adversarial import random_hose_tm
from repro.topologies import (
    FloorPlan,
    largest_connected_component,
    xpander,
)

slow_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestFailureProperties:
    @slow_settings
    @given(
        fraction=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=500),
    )
    def test_link_failures_remove_exact_count(self, fraction, seed):
        xp = xpander(4, 5, 2)
        degraded = xp.degrade(f"links:fraction={fraction},seed={seed}")
        assert degraded.num_links == xp.num_links - round(fraction * xp.num_links)
        # Node set unchanged (only switch failures remove nodes).
        assert set(degraded.graph.nodes()) == set(xp.graph.nodes())

    @slow_settings
    @given(seed=st.integers(min_value=0, max_value=500))
    def test_lcc_always_connected(self, seed):
        xp = xpander(3, 4, 2)
        degraded = xp.degrade(f"links:fraction=0.45,seed={seed}")
        lcc = largest_connected_component(degraded)
        assert lcc.is_connected()
        assert lcc.num_switches <= xp.num_switches


class TestFloorPlanProperties:
    @slow_settings
    @given(
        n=st.integers(min_value=1, max_value=100),
        a=st.integers(min_value=0, max_value=99),
        b=st.integers(min_value=0, max_value=99),
    )
    def test_distance_metric_properties(self, n, a, b):
        a, b = a % n, b % n
        plan = FloorPlan.grid(n)
        # Symmetry and slack-only lower bound.
        assert plan.distance_m(a, b) == plan.distance_m(b, a)
        assert plan.distance_m(a, b) >= 4.0
        if a == b:
            assert plan.distance_m(a, b) == pytest.approx(4.0)


class TestHoseTmProperties:
    @slow_settings
    @given(
        n=st.integers(min_value=3, max_value=20),
        s=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=500),
    )
    def test_sinkhorn_hose_feasible(self, n, s, seed):
        tors = list(range(n))
        tm = random_hose_tm(tors, s, seed=seed)
        tm.validate_hose({t: s for t in tors})

    @slow_settings
    @given(seed=st.integers(min_value=0, max_value=100))
    def test_rows_and_columns_saturated(self, seed):
        tors = list(range(8))
        tm = random_hose_tm(tors, 3, seed=seed)
        for t in tors:
            assert tm.egress(t) == pytest.approx(3.0, rel=1e-2)
            assert tm.ingress(t) == pytest.approx(3.0, rel=1e-2)


class TestMptcpChunkingProperties:
    @slow_settings
    @given(
        size=st.integers(min_value=1, max_value=10_000_000),
        subflows=st.integers(min_value=1, max_value=8),
        chunk=st.integers(min_value=1460, max_value=1_000_000),
    )
    def test_initial_chunks_cover_at_most_size(self, size, subflows, chunk):
        chunks = MptcpFlow._initial_chunks(size, subflows, chunk)
        assert sum(chunks) <= size
        assert all(c >= 1 for c in chunks)
        assert len(chunks) <= subflows

    @slow_settings
    @given(
        size=st.integers(min_value=1460, max_value=10_000_000),
        subflows=st.integers(min_value=1, max_value=8),
    )
    def test_initial_chunks_nonempty(self, size, subflows):
        chunks = MptcpFlow._initial_chunks(size, subflows, 64 * 1460)
        assert chunks
        # The remainder (pool) is what's left to schedule dynamically.
        assert size - sum(chunks) >= 0
