"""The library-wide default throughput solver.

Every front end that solves an LP without a named solver — lp sweep
specs, ``repro throughput``, ``skew_sweep`` and ``DesignTarget`` —
resolves to :data:`repro.registry.DEFAULT_SOLVER` (``highs-colgen``).
The ``/v1`` throughput endpoints name ``highs-batched``, an alias of it.
The default must reproduce the edge-LP oracle
(:func:`repro.throughput.max_concurrent_throughput`) within 1e-9 and
batch a fixed-topology sweep through one ``solve_many``.
"""

import inspect

import pytest

from repro import registry
from repro.api import ReproClient
from repro.cli import main
from repro.design import DesignTarget
from repro.harness import ExperimentSpec, Runner
from repro.perf import clear_shared_caches
from repro.solvers import DEFAULT_SOLVER
from repro.throughput import max_concurrent_throughput, skew_sweep

FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)
TOPOLOGIES = (
    {"family": "jellyfish", "switches": 16, "degree": 4, "servers": 2,
     "seed": 1},
    {"family": "xpander", "degree": 4, "lift": 4, "servers": 2},
    {"family": "fattree", "k": 4},
)


def _sweep(topology, solver=None, seed=3):
    specs = []
    for f in FRACTIONS:
        workload = {"pattern": "longest_matching", "fraction": f}
        if solver is not None:
            workload["solver"] = solver
        specs.append(ExperimentSpec(
            name=f"{topology['family']}-{f}", engine="lp",
            topology=dict(topology), workload=workload, seed=seed,
        ))
    return specs


def test_default_is_column_generation():
    assert DEFAULT_SOLVER == registry.DEFAULT_SOLVER == "highs-colgen"
    assert DEFAULT_SOLVER in registry.SOLVERS


def test_spec_without_solver_resolves_to_default():
    spec = _sweep(TOPOLOGIES[0])[0]
    spec.validate()
    assert "solver" not in spec.workload
    assert spec.lp_solver == DEFAULT_SOLVER


def test_design_target_default():
    target = DesignTarget(servers=48, throughput_per_server=0.3)
    assert target.solver == DEFAULT_SOLVER
    assert DesignTarget.from_dict(
        {"servers": 48, "throughput_per_server": 0.3}
    ).solver == DEFAULT_SOLVER


def test_skew_sweep_default():
    default = inspect.signature(skew_sweep).parameters["solver"].default
    assert default == DEFAULT_SOLVER


def test_cli_throughput_default(monkeypatch):
    import repro.throughput as throughput

    seen = {}

    def fake_skew_sweep(topology, fractions, solver, **_):
        seen["solver"] = solver
        return throughput.SkewSweepResult(
            name=topology.name, fractions=list(fractions),
            throughput=[1.0] * len(fractions),
        )

    monkeypatch.setattr(throughput, "skew_sweep", fake_skew_sweep)
    code = main([
        "throughput", "jellyfish", "--switches", "8", "--degree", "3",
        "--servers", "1", "--fractions", "1.0",
    ])
    assert code == 0
    assert seen["solver"] == DEFAULT_SOLVER


def test_default_lp_spec_batches():
    key = Runner._batch_key(_sweep(TOPOLOGIES[0])[0])
    assert key is not None
    assert key[2] == DEFAULT_SOLVER


def test_api_throughput_default_stays_batched():
    # The /v1 default name is pinned by the end-to-end benchmark's
    # recorded replies (e2ebench/api_pins.json); it is an alias of the
    # library default.
    clear_shared_caches()
    try:
        ev = ReproClient.in_process().throughput(
            "jellyfish:switches=12,degree=4,servers=2"
        )
    finally:
        clear_shared_caches()
    assert ev.solver == ev.raw["solver"] == "highs-batched"


@pytest.mark.parametrize(
    "topology", TOPOLOGIES, ids=[t["family"] for t in TOPOLOGIES]
)
def test_default_matches_edge_lp_oracle(topology):
    default = Runner(inline=True, retries=0).run(_sweep(topology))
    assert default.ok
    topo = registry.topology(topology)
    for record in default.records:
        fraction = record.spec["workload"]["fraction"]
        tm = registry.TRAFFIC.build(
            "longest_matching", topo, fraction=fraction, seed=3
        )
        oracle = max_concurrent_throughput(topo, tm)
        assert record.metrics["per_server_throughput"] == pytest.approx(
            oracle.per_server, abs=1e-9
        )


def test_pool_and_inline_runners_agree_on_default_sweep():
    specs = [s for t in TOPOLOGIES for s in _sweep(t)]
    pooled = Runner(jobs=2, retries=0).run(specs)
    inline = Runner(inline=True, retries=0).run(specs)
    assert pooled.ok and inline.ok
    assert len(pooled.records) == len(inline.records) == len(specs)
    for a, b in zip(pooled.records, inline.records):
        assert a.spec_hash == b.spec_hash
        assert a.status == b.status == "ok"
        assert a.metrics == b.metrics
