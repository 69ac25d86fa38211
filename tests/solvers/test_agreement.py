"""Alias agreement: the retired exact-backend names are ``highs-colgen``.

``exact``, ``highs-exact``, ``highs-batched`` and ``highs-incremental``
resolve to :class:`~repro.solvers.HighsColgenBackend`, so naming any of
them gives exactly what ``highs-colgen`` gives — in a solve, a harness
sweep, ``repro throughput`` and ``skew_sweep`` — and the colgen knobs
reach the backend whatever the name.  Results match the edge-LP oracle
(:func:`repro.throughput.max_concurrent_throughput`) within 1e-9.
``mcf-approx`` is gone outright.
"""

import pytest

from repro import registry
from repro.cli import main
from repro.harness import ExperimentSpec, Runner, SpecError
from repro.harness.execute import _lp_solver_backend
from repro.solvers import HighsColgenBackend
from repro.solvers.backends import EXACT_ALIASES
from repro.throughput import max_concurrent_throughput, skew_sweep
from repro.topologies import fattree, jellyfish, xpander
from repro.traffic import longest_matching_tm

INSTANCES = [
    pytest.param(lambda: jellyfish(12, 4, 2, seed=3), id="jellyfish"),
    pytest.param(lambda: xpander(4, 6, 3, seed=0), id="xpander"),
    pytest.param(lambda: fattree(4).topology, id="fattree"),
]
FRACTIONS = [0.5, 1.0]
TOPOLOGY = {"family": "jellyfish", "switches": 12, "degree": 4,
            "servers": 2, "seed": 1}


@pytest.mark.parametrize("build", INSTANCES)
@pytest.mark.parametrize("fraction", FRACTIONS)
class TestBackendAgreement:
    def test_batched_byte_identical_to_exact(self, build, fraction):
        topo = build()
        tm = longest_matching_tm(topo, fraction, seed=1)
        (exact,) = registry.solver("highs-exact").solve_many(topo, [tm])
        (batched,) = registry.solver("highs-batched").solve_many(topo, [tm])
        assert batched.ok and exact.ok
        # One engine behind both names: every field matches bit for bit.
        assert batched.result == exact.result
        oracle = max_concurrent_throughput(topo, tm)
        assert batched.result.throughput == pytest.approx(
            oracle.throughput, abs=1e-9
        )


@pytest.mark.parametrize("alias", EXACT_ALIASES)
def test_alias_resolves_to_colgen(alias):
    assert registry.SOLVERS.get(alias) is HighsColgenBackend
    assert registry.SOLVERS.describe(alias) == "alias of highs-colgen"


def _sweep(solver, **knobs):
    return [
        ExperimentSpec(
            name=f"p{f}", engine="lp", topology=dict(TOPOLOGY),
            workload={"solver": solver, "fraction": f, **knobs}, seed=1,
        )
        for f in (0.4, 0.7, 1.0)
    ]


@pytest.mark.parametrize("alias", EXACT_ALIASES)
def test_alias_sweep_records_match_colgen(alias):
    got = Runner(inline=True, retries=0).run(_sweep(alias))
    want = Runner(inline=True, retries=0).run(_sweep("highs-colgen"))
    assert got.ok and want.ok
    for a, b in zip(got.records, want.records):
        assert a.metrics == b.metrics
        assert a.spec["workload"]["solver"] == alias


def test_alias_reaches_colgen_knobs():
    knobs = {"k_paths": 4, "max_rounds": 50, "solver_mode": "fallback"}
    backend = _lp_solver_backend(_sweep("exact", **knobs)[0])
    assert isinstance(backend, HighsColgenBackend)
    assert (backend.k, backend.max_rounds, backend.mode) == (
        4, 50, "fallback"
    )
    got = Runner(inline=True, retries=0).run(_sweep("exact", **knobs))
    want = Runner(inline=True, retries=0).run(_sweep("highs-colgen", **knobs))
    assert [r.metrics for r in got.records] == [
        r.metrics for r in want.records
    ]


def test_sweep_batches_split_by_colgen_knobs():
    specs = _sweep("exact") + _sweep("exact", k_paths=4)
    assert len({Runner._batch_key(s) for s in specs}) == 2


@pytest.mark.parametrize("alias", EXACT_ALIASES)
def test_alias_skew_sweep_matches_colgen(alias):
    topo = jellyfish(12, 4, 2, seed=3)
    fractions = [0.4, 0.7, 1.0]
    got = skew_sweep(topo, fractions, solver=alias, seed=1)
    want = skew_sweep(topo, fractions, solver="highs-colgen", seed=1)
    assert got.ok and want.ok
    assert got.throughput == want.throughput


@pytest.mark.parametrize("alias", EXACT_ALIASES)
def test_alias_cli_throughput_matches_colgen(alias, capsys):
    argv = ["throughput", "jellyfish", "--switches", "10", "--degree", "4",
            "--servers", "2", "--fractions", "0.5,1.0", "--solver"]
    assert main(argv + [alias]) == 0
    got = capsys.readouterr().out
    assert main(argv + ["highs-colgen"]) == 0
    assert got == capsys.readouterr().out


def test_mcf_approx_is_rejected_everywhere(capsys):
    with pytest.raises(registry.RegistryError, match="valid choices"):
        registry.solver("mcf-approx")
    with pytest.raises(SpecError, match="unknown lp solver"):
        _sweep("mcf-approx")[0].validate()
    with pytest.raises(SystemExit):
        main(["throughput", "jellyfish", "--solver", "mcf-approx"])
    assert "invalid choice" in capsys.readouterr().err
