"""Retired entry points stay retired.

Each name below was a thin wrapper over its replacement (noted inline);
the replacement is the one construction path.  The unversioned API
paths answer 404 ``not_found`` like any other unknown path.
"""

import importlib

import pytest

from repro.api import ApiServer, ApiService, HttpClient, InProcessClient

RETIRED = [
    # Topology.degrade / degrade_topology
    ("repro.topologies", "fail_links"),
    ("repro.topologies", "fail_switches"),
    ("repro.topologies", "random_link_failures"),
    ("repro.topologies", "random_switch_failures"),
    ("repro.topologies.failures", "fail_links"),
    ("repro.topologies.failures", "fail_switches"),
    ("repro.topologies.failures", "random_link_failures"),
    ("repro.topologies.failures", "random_switch_failures"),
    # registry.build_topology / registry.topology
    ("repro.cli", "build_topology"),
    ("repro.harness", "build_topology"),
    ("repro.harness.execute", "build_topology"),
    # registry.routing / registry.ROUTINGS
    ("repro.sim", "make_routing"),
    ("repro.sim", "ROUTING_CHOICES"),
    ("repro.sim.simulation", "make_routing"),
    ("repro.sim.simulation", "ROUTING_CHOICES"),
    # repro.solvers.solve_outcome (the one SolveOutcome builder)
    ("repro.solvers", "colgen_solve_outcome"),
    ("repro.solvers.colgen", "colgen_solve_outcome"),
]

RETIRED_ATTRIBUTES = [
    # registry.solver(...).solve_many owns the colgen context
    ("repro.solvers", "HighsColgenBackend", "build_context"),
    # WarmState.backend caches warm backends instead
    ("repro.api", "WarmState", "colgen"),
]


@pytest.mark.parametrize("module, name", RETIRED, ids=lambda x: x)
def test_retired_name_is_gone(module, name):
    owner = importlib.import_module(module)
    assert not hasattr(owner, name)
    assert name not in owner.__all__


@pytest.mark.parametrize(
    "module, owner, name", RETIRED_ATTRIBUTES, ids=lambda x: x
)
def test_retired_attribute_is_gone(module, owner, name):
    cls = getattr(importlib.import_module(module), owner)
    assert not hasattr(cls, name)


def test_path_colgen_throughput_has_no_path_cache_parameter():
    # It always solved on the shared PathCache.
    import inspect

    from repro.throughput import path_colgen_throughput

    assert "path_cache" not in inspect.signature(
        path_colgen_throughput
    ).parameters


def test_sim_telemetry_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.sim.telemetry")


def test_solve_outcome_has_no_basis_reused():
    # No backend ever re-solved from a previous simplex basis.
    from repro.solvers import SolveOutcome

    assert "basis_reused" not in SolveOutcome.__dataclass_fields__


def _assert_not_found(resp):
    assert resp.status == 404
    assert resp.json["error"]["code"] == "not_found"
    assert "/v1/healthz" in resp.json["error"]["details"]["paths"]
    assert "Deprecation" not in resp.headers
    assert "Link" not in resp.headers


def _unversioned_requests(client):
    yield client.get("/healthz")
    yield client.post("/throughput", {"topology": "jellyfish:switches=8"})


def test_unversioned_paths_are_not_found_in_process():
    service = ApiService()
    client = InProcessClient(service)
    for resp in _unversioned_requests(client):
        _assert_not_found(resp)
    assert not hasattr(service, "deprecated_counts")
    context = client.get("/v1/context").raise_for_status().json
    assert set(context["requests"]) == {"by_endpoint", "errors"}


def test_unversioned_paths_are_not_found_over_the_wire():
    with ApiServer(ApiService(), port=0) as server:
        client = HttpClient(server.host, server.port)
        try:
            for resp in _unversioned_requests(client):
                _assert_not_found(resp)
        finally:
            client.close()
