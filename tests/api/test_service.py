"""Happy-path endpoint behaviour through the typed client facade.

These tests drive :class:`ReproClient` over the in-process transport —
the exact dispatch path the HTTP server uses minus the socket — so both
the typed result objects and (via ``.raw``) the wire payload shapes are
what a network client receives.  Error-contract details live in
``test_errors.py``; the raw transport is exercised directly only where
the facade deliberately adds nothing (request-id plumbing).
"""

import pytest

import repro
from repro.api import ApiService, InProcessClient, ReproClient
from repro.harness.spec import ExperimentSpec
from repro.perf import clear_shared_caches

JELLYFISH = "jellyfish:switches=12,degree=4,servers=2"
XPANDER = "xpander:degree=4,lift=3,servers=2"


@pytest.fixture()
def client():
    clear_shared_caches()
    yield ReproClient.in_process()
    clear_shared_caches()


def test_healthz(client):
    resp = client.transport.get("/v1/healthz")
    assert resp.status == 200
    assert resp.json["ok"] is True
    assert resp.request_id


def test_context_manifest(client):
    ctx = client.context()
    assert ctx.service == "repro.api/2"
    assert ctx.library_version == repro.__version__
    assert ctx.raw["spec_hash_version"] == repro.SPEC_HASH_VERSION
    for registry_name in ("topologies", "traffic", "routings", "failures",
                          "solvers", "designs"):
        assert ctx.registries[registry_name], registry_name
    assert "POST /v1/throughput" in ctx.raw["endpoints"]
    assert set(ctx.caches) == {
        "topologies", "results", "path_cache", "colgen_contexts",
        "warm_start",
    }
    assert set(ctx.caches["warm_start"]) >= {"hit", "miss"}
    assert ctx.limits["max_body_bytes"] > 0
    assert ctx.limits["max_design_candidates"] > 0
    assert ctx.raw["result_cache"] is None
    # The request counters include this very request.
    again = client.context()
    assert again.raw["requests"]["by_endpoint"]["GET /v1/context"] >= 1


def test_schema_endpoint(client):
    schemas = client.schema()
    assert schemas["schema"]["title"] == "ExperimentSpec"
    assert schemas["design"]["title"] == "DesignTarget"


def test_throughput_single_fraction(client):
    ev = client.throughput(JELLYFISH)
    assert ev.topology["switches"] == 12
    assert ev.topology["connected"] is True
    assert ev.topology["diameter"] >= 1
    assert ev.topology["avg_path_length"] > 1
    (point,) = ev.results
    assert point["status"] == "optimal"
    assert 0 < ev.per_server() <= 1.0
    assert point["fraction"] == 1.0
    assert ev.warm["enabled"] is True


def test_throughput_multiple_fractions_monotone(client):
    ev = client.throughput(JELLYFISH, fractions=[0.3, 0.6, 1.0])
    values = [r["per_server_throughput"] for r in ev.results]
    assert len(values) == 3
    # Fewer participating servers → no less per-server throughput.
    assert values[0] >= values[1] >= values[2]
    assert ev.per_server(0.3) == values[0]


def test_throughput_with_failures(client):
    from repro.api import ApiError

    try:
        degraded = client.throughput(
            JELLYFISH, failures="links:fraction=0.1,seed=3"
        )
    except ApiError as exc:
        assert exc.status == 422  # degraded may disconnect pairs
        return
    healthy = client.throughput(JELLYFISH)
    assert degraded.per_server() <= healthy.per_server() + 1e-9


def test_throughput_alternate_solver(client):
    exact = client.throughput(XPANDER, solver="highs-exact")
    batched = client.throughput(XPANDER)
    assert exact.per_server() == pytest.approx(batched.per_server())
    # Both names resolve to highs-colgen and share its warm context.
    assert exact.warm["context"] == "miss"
    assert batched.warm["context"] == "hit"


def test_throughput_non_context_solver(client):
    paths = client.throughput(XPANDER, solver="highs-paths")
    assert paths.solver == "highs-paths"
    assert paths.warm["context"] is None  # no path pool involved
    exact = client.throughput(XPANDER)
    # The fixed-k paths LP is a lower bound on the exact optimum.
    assert paths.per_server() <= exact.per_server() + 1e-9
    assert paths.per_server() == pytest.approx(exact.per_server(), rel=0.15)


def test_default_solver_is_a_colgen_alias(client):
    from repro import registry
    from repro.throughput import max_concurrent_throughput

    fractions = [0.5, 1.0]
    first = client.throughput(JELLYFISH, fractions=fractions, seed=2)
    # The reply echoes the /v1 default name; highs-colgen computes it.
    assert first.solver == first.raw["solver"] == "highs-batched"
    assert first.warm["context"] == "miss"
    topo = registry.topology(JELLYFISH)
    for point in first.results:
        tm = registry.TRAFFIC.build(
            "longest_matching", topo, fraction=point["fraction"], seed=2
        )
        oracle = max_concurrent_throughput(topo, tm)
        assert point["per_server_throughput"] == pytest.approx(
            oracle.per_server, abs=1e-9
        )
    again = client.throughput(JELLYFISH, fractions=[0.75], seed=2)
    assert again.warm["context"] == "hit"


def test_context_lists_solver_aliases(client):
    solvers = client.context().registries["solvers"]
    for alias in ("exact", "highs-exact", "highs-batched",
                  "highs-incremental"):
        assert solvers[alias] == "alias of highs-colgen"
    assert "mcf-approx" not in solvers


def test_removed_mcf_approx_is_bad_spec(client):
    from repro.api import ApiError

    with pytest.raises(ApiError) as info:
        client.throughput(XPANDER, solver="mcf-approx")
    assert info.value.status == 400
    assert info.value.code == "bad_spec"
    assert "highs-colgen" in str(info.value)


def test_simulate_lp_engine(client):
    body = {
        "topology": {"family": "jellyfish", "switches": 10, "degree": 4,
                     "servers": 2},
        "workload": {"pattern": "longest_matching", "fraction": 0.5},
        "engine": "lp",
    }
    sim = client.simulate(body)
    assert sim.ok
    assert 0 < sim.metrics["per_server_throughput"] <= 1.0
    assert sim.spec_hash == ExperimentSpec.from_dict(body).content_hash()


def test_sweep_grid(client):
    sw = client.sweep(
        defaults={
            "topology": {"family": "jellyfish", "switches": 10,
                         "degree": 4, "servers": 2},
            "workload": {"pattern": "longest_matching"},
            "engine": "lp",
        },
        grid={"workload.fraction": [0.4, 0.8]},
    )
    assert sw.counts["total"] == 2
    assert sw.counts["failed"] == 0
    # Memo-vs-computed split rides on every sweep response.
    assert sw.computed == 2
    assert sw.cached == 0
    assert len(sw.records) == 2
    fractions = sorted(
        r["spec"]["workload"]["fraction"] for r in sw.records
    )
    assert fractions == [0.4, 0.8]


def test_compare_ranks_topologies(client):
    cmp_ = client.compare([JELLYFISH, XPANDER], fraction=0.7)
    assert len(cmp_.results) == 2
    names = [e["topology"]["name"] for e in cmp_.results]
    assert cmp_.best in names
    assert cmp_.ranking()[0] == cmp_.best
    best_entry = next(
        e for e in cmp_.results if e["topology"]["name"] == cmp_.best
    )
    assert best_entry["relative_to_best"] == pytest.approx(1.0)
    for entry in cmp_.results:
        assert entry["mean_per_server_throughput"] > 0
        assert entry["relative_to_best"] <= 1.0 + 1e-9


def test_request_id_echoed():
    raw = InProcessClient(ApiService())
    resp = raw.get("/v1/healthz", request_id="abc-123")
    assert resp.json["request_id"] == "abc-123"


def test_request_id_generated_when_missing():
    raw = InProcessClient(ApiService())
    first = raw.get("/v1/healthz").request_id
    second = raw.get("/v1/healthz").request_id
    assert first and second and first != second
