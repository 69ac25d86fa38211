"""The /v1 mount: every endpoint lives under ``/v1``.

Unversioned paths answer 404 ``not_found``; ``tests/test_retired_surface.py``
pins that, in process and over the wire.
"""

import pytest

from repro import registry
from repro.api import ApiService, InProcessClient


@pytest.fixture()
def client():
    return InProcessClient(ApiService())


def test_v1_paths_are_canonical(client):
    resp = client.get("/v1/healthz").raise_for_status()
    assert "Deprecation" not in resp.headers


def test_trailing_slash_normalized(client):
    assert client.get("/v1/healthz/").status == 200
    assert client.get("/v1/healthz?probe=1").status == 200


def test_context_registry_filter(client):
    resp = client.get("/v1/context?registry=solvers").raise_for_status()
    assert resp.json["registry"] == "solvers"
    assert set(resp.json["entries"]) == set(registry.SOLVERS.available())
    assert "registries" not in resp.json  # the manifest is not included


def test_context_registry_filter_unknown_name(client):
    resp = client.get("/v1/context?registry=widgets")
    assert resp.status == 400
    assert resp.json["error"]["code"] == "bad_spec"
    assert "solvers" in resp.json["error"]["details"]["registries"]


def test_schema_documents_jobs(client):
    body = client.get("/v1/schema").raise_for_status().json
    assert body["api_version"] == "v1"
    jobs = body["jobs"]
    assert jobs["states"] == [
        "pending", "running", "completed", "failed", "cancelled",
    ]
    assert "POST /v1/jobs" in jobs["endpoints"]
    assert "DELETE /v1/jobs/<id>" in jobs["endpoints"]


def test_404_lists_v1_paths(client):
    resp = client.get("/v1/frobnicate")
    assert resp.status == 404
    paths = resp.json["error"]["details"]["paths"]
    assert "/v1/sweep" in paths
    assert "/v1/jobs/<id>" in paths
