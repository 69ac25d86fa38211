"""``highs-incremental``: the retired warm-started edge-LP backend's name.

The name now resolves to :class:`~repro.solvers.HighsColgenBackend`,
whose persistent path pool is the warm start.  Across 50 random
jellyfish/xpander instances and multi-point load grids, solves naming
it must match the edge-LP oracle
(:func:`repro.throughput.max_concurrent_throughput`) within 1e-9.  Plus
the warm-start contract the name always promised: any topology change
between calls — including a capacity-only change the structural content
hash ignores — must start a fresh context, never reuse a stale one.
"""

import random

import pytest

from repro import registry
from repro.solvers import (
    HighsColgenBackend,
    reset_warm_start_stats,
    topology_fingerprint,
    warm_start_stats,
)
from repro.throughput import max_concurrent_throughput, skew_sweep
from repro.topologies import jellyfish, xpander
from repro.traffic import longest_matching_tm

LOAD_GRID = (0.5, 0.8, 1.0, 1.4)


def _incremental():
    return registry.solver("highs-incremental")


def _random_instances(count, seed=20260808):
    """≥``count`` seeded random small jellyfish/xpander instances."""
    rng = random.Random(seed)
    builders = []
    for i in range(count):
        if i % 2 == 0:
            switches = rng.randint(8, 14)
            degree = rng.randint(3, 4)
            if (switches * degree) % 2:  # r-regular needs n*r even
                switches += 1
            servers = rng.randint(1, 2)
            s = rng.randint(0, 10_000)
            builders.append(
                pytest.param(
                    lambda sw=switches, d=degree, sv=servers, s=s: jellyfish(
                        sw, d, sv, seed=s
                    ),
                    id=f"jellyfish-{i}",
                )
            )
        else:
            degree = rng.randint(3, 5)
            lift = rng.randint(2, 3)
            servers = rng.randint(1, 2)
            s = rng.randint(0, 10_000)
            builders.append(
                pytest.param(
                    lambda d=degree, lf=lift, sv=servers, s=s: xpander(
                        d, d + 1, sv, seed=s
                    ),
                    id=f"xpander-{i}",
                )
            )
    return builders


INSTANCES = _random_instances(50)


@pytest.mark.parametrize("build", INSTANCES)
def test_warm_objectives_match_exact_within_1e9(build):
    """Property test: warm solves track the edge LP to 1e-9 everywhere."""
    topo = build()
    base = longest_matching_tm(topo, 1.0, seed=1)
    tms = [base.scaled(s) for s in LOAD_GRID]
    outcomes = _incremental().solve_many(topo, tms)
    for tm, outcome in zip(tms, outcomes):
        assert outcome.ok
        exact = max_concurrent_throughput(topo, tm)
        assert abs(outcome.result.throughput - exact.throughput) <= 1e-9
        assert abs(outcome.result.per_server - exact.per_server) <= 1e-9
    # The first point built the path pool; the rest warm-started off it.
    assert [o.warm_started for o in outcomes] == [False, True, True, True]


def test_topology_change_mid_batch_forces_refactorization():
    """A different topology between calls must rebuild, not reuse."""
    backend = _incremental()
    topo_a = jellyfish(12, 4, 2, seed=3)
    topo_b = xpander(4, 6, 2, seed=0)
    tm_a = longest_matching_tm(topo_a, 1.0, seed=1)
    tm_b = longest_matching_tm(topo_b, 1.0, seed=1)

    first = backend.solve_many(topo_a, [tm_a, tm_a])
    assert [o.warm_started for o in first] == [False, True]
    switched = backend.solve_many(topo_b, [tm_b, tm_b])
    assert switched[0].warm_started is False  # rebuilt for topo_b
    assert switched[1].warm_started is True
    exact_b = max_concurrent_throughput(topo_b, tm_b)
    assert switched[0].result.throughput == exact_b.throughput


def test_capacity_change_forces_refactorization():
    """Same graph structure, different capacities → different fingerprint
    → rebuild.  (The perf path cache's content hash ignores capacities;
    the LP fingerprint must not.)"""
    import copy

    topo = jellyfish(10, 4, 2, seed=5)
    scaled = copy.deepcopy(topo)
    for _u, _v, data in scaled.graph.edges(data=True):
        data["capacity"] *= 2.0
    assert topology_fingerprint(topo) != topology_fingerprint(scaled)

    backend = _incremental()
    tm = longest_matching_tm(topo, 1.0, seed=1)
    cold = backend.solve_many(topo, [tm])
    recap = backend.solve_many(scaled, [tm])
    assert recap[0].warm_started is False
    exact = max_concurrent_throughput(scaled, tm)
    assert recap[0].result.throughput == exact.throughput
    assert cold[0].result.throughput != recap[0].result.throughput


def test_warm_false_forces_every_point_cold():
    topo = jellyfish(12, 4, 2, seed=3)
    tm = longest_matching_tm(topo, 1.0, seed=1)
    backend = _incremental()
    outcomes = backend.solve_many(topo, [tm, tm, tm], warm=False)
    assert [o.warm_started for o in outcomes] == [False, False, False]
    exact = max_concurrent_throughput(topo, tm)
    for o in outcomes:
        assert o.result.throughput == exact.throughput


def test_warm_start_counters_and_context_stats():
    reset_warm_start_stats()
    topo = jellyfish(12, 4, 2, seed=3)
    base = longest_matching_tm(topo, 1.0, seed=1)
    backend = _incremental()
    backend.solve_many(topo, [base.scaled(s) for s in (0.5, 1.0, 1.5)])
    stats = warm_start_stats()
    assert stats["miss"] == 1
    assert stats["hit"] == 2
    assert stats["context_miss"] == 1
    ctx = backend.context_stats()
    assert ctx["solves"] == 3
    assert ctx["warm_solves"] == 2
    assert ctx["pool_pairs"] == base.num_flows
    # A second solve_many on the same topology reuses the live context.
    backend.solve_many(topo, [base])
    assert warm_start_stats()["context_hit"] == 1


def test_degenerate_conventions_match_backend_contract():
    """Empty and fully disconnected TMs follow the documented
    conventions (cf. tests/throughput/test_bounds.py)."""
    topo = jellyfish(10, 4, 2, seed=5)
    empty = longest_matching_tm(topo, 1.0, seed=1).restricted_to_pairs([])
    result = _incremental().solve(topo, empty).result
    assert result.throughput == float("inf")
    assert result.per_server == 1.0


def test_mode_validation():
    with pytest.raises(ValueError, match="auto/core/fallback"):
        registry.solver("highs-incremental:mode=bogus")
    # The highspy engine (and its [perf] extra) is gone.
    with pytest.raises(ValueError, match="auto/core/fallback"):
        registry.solver("highs-incremental:mode=highspy")


def test_registry_exposes_incremental():
    assert "highs-incremental" in registry.SOLVERS
    backend = registry.solver("highs-incremental")
    assert isinstance(backend, HighsColgenBackend)
    assert backend.supports_batching is True
    backend = registry.solver("highs-incremental:mode=fallback")
    assert backend.mode == "fallback"


def test_skew_sweep_routes_through_incremental_backend():
    topo = jellyfish(12, 4, 2, seed=3)
    fractions = [0.4, 0.7, 1.0]
    warm = skew_sweep(topo, fractions, solver="highs-incremental", seed=1)
    exact = skew_sweep(topo, fractions, solver="exact", seed=1)
    assert warm.ok and exact.ok
    assert warm.throughput == exact.throughput

    # warm=False is accepted and still exact.
    cold = skew_sweep(
        topo, fractions, solver="highs-incremental", seed=1, warm=False
    )
    assert cold.throughput == exact.throughput
