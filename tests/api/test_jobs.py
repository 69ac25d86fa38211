"""The async jobs layer: submit → poll → result, cancellation, limits.

The acceptance contract from the sharding work: a completed job's
records match the synchronous ``/v1/sweep`` output for the same
document (modulo volatile timing fields), and cancellation leaves a
resumable result cache behind.
"""

import time

import pytest

from repro.api import ApiService, InProcessClient

SWEEP_DOC = {
    "defaults": {
        "topology": {"family": "jellyfish", "switches": 8, "degree": 3,
                     "servers": 2, "seed": 1},
        "workload": {"pattern": "longest_matching", "solver": "highs-paths"},
        "engine": "lp",
        "seed": 1,
    },
    "grid": {"workload.fraction": [0.4, 0.7, 1.0]},
}

TERMINAL = ("completed", "failed", "cancelled")


@pytest.fixture()
def client():
    return InProcessClient(ApiService())


def _poll(client, job_id, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        job = client.get(f"/v1/jobs/{job_id}").raise_for_status().json["job"]
        if job["state"] in TERMINAL:
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not settle in {timeout_s}s")


def _volatile_pinned(record):
    return {**record, "wall_clock_s": 0.0, "attempts": 1, "cached": False}


def test_job_completes_and_matches_sync_sweep(client):
    resp = client.post("/v1/jobs", {**SWEEP_DOC, "options": {"shards": 2}})
    assert resp.status == 202
    job = resp.json["job"]
    assert job["state"] in ("pending", "running")
    assert job["points"] == 3
    assert job["shards"] == 2
    assert job["counts"] is None  # not terminal yet

    done = _poll(client, job["id"])
    assert done["state"] == "completed"
    assert done["counts"]["total"] == 3
    assert done["counts"]["failed"] == 0
    assert done["progress"]["done"] == 3
    assert done["finished_at_unix"] >= done["started_at_unix"]
    assert done["cached"] + done["computed"] == 3

    sync = client.post("/v1/sweep", dict(SWEEP_DOC)).raise_for_status().json
    assert [_volatile_pinned(r) for r in done["records"]] == [
        _volatile_pinned(r) for r in sync["records"]
    ]


def test_job_listing_and_poll_without_records(client):
    job_id = client.post("/v1/jobs", dict(SWEEP_DOC)).json["job"]["id"]
    listed = client.get("/v1/jobs").raise_for_status().json["jobs"]
    assert job_id in [j["id"] for j in listed]
    assert all("records" not in j for j in listed)
    _poll(client, job_id)
    slim = client.get(f"/v1/jobs/{job_id}?records=false").json["job"]
    assert slim["state"] == "completed"
    assert "records" not in slim


def test_unknown_job_is_404(client):
    for resp in (client.get("/v1/jobs/nope"), client.delete("/v1/jobs/nope")):
        assert resp.status == 404
        assert resp.json["error"]["code"] == "not_found"


def test_job_detail_unsupported_method_is_405(client):
    resp = client.request("PUT", "/v1/jobs/anything")
    assert resp.status == 405
    assert resp.json["error"]["details"]["allowed"] == ["DELETE", "GET"]


def test_malformed_submission_creates_no_job(client):
    resp = client.post("/v1/jobs", {"defaults": {"engine": "warp"}})
    assert resp.status == 400
    assert resp.json["error"]["code"] == "bad_spec"
    assert client.get("/v1/jobs").json["jobs"] == []
    resp = client.post("/v1/jobs", {**SWEEP_DOC, "options": "fast"})
    assert resp.status == 400


def test_job_point_limit():
    client = InProcessClient(ApiService(max_job_points=2))
    resp = client.post("/v1/jobs", dict(SWEEP_DOC))
    assert resp.status == 400
    assert resp.json["error"]["code"] == "too_many_points"
    assert resp.json["error"]["details"]["max_job_points"] == 2


def test_cancel_leaves_resumable_cache(tmp_path):
    service = ApiService(cache_dir=str(tmp_path / "cache"))
    client = InProcessClient(service)
    doc = {
        **SWEEP_DOC,
        "grid": {
            "workload.fraction": [round(0.3 + 0.05 * i, 2) for i in range(8)]
        },
    }
    job_id = client.post(
        "/v1/jobs", {**doc, "options": {"shards": 1}}
    ).json["job"]["id"]
    # Wait for at least one completed point, then cancel.
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        job = client.get(f"/v1/jobs/{job_id}?records=false").json["job"]
        if job["state"] in TERMINAL or job["progress"].get("done", 0) >= 1:
            break
        time.sleep(0.02)
    cancelled = client.delete(f"/v1/jobs/{job_id}").raise_for_status()
    assert cancelled.json["job"]["cancel_requested"] is True
    settled = _poll(client, job_id)
    assert settled["state"] in ("cancelled", "completed")

    # Every point that DID finish is in the shared result cache, so a
    # re-submission resumes instead of recomputing.
    finished = settled["counts"]["done"]
    assert len(service.cache) >= settled["counts"]["ok"]
    rerun = _poll(
        client, client.post("/v1/jobs", dict(doc)).json["job"]["id"]
    )
    assert rerun["state"] == "completed"
    assert rerun["counts"]["total"] == 8
    assert rerun["counts"]["failed"] == 0
    if finished and settled["counts"]["ok"]:
        assert rerun["cached"] >= 1


def test_idempotent_cancel_after_completion(client):
    job_id = client.post("/v1/jobs", dict(SWEEP_DOC)).json["job"]["id"]
    _poll(client, job_id)
    resp = client.delete(f"/v1/jobs/{job_id}").raise_for_status()
    assert resp.json["job"]["state"] == "completed"


def test_context_reports_job_stats(client):
    job_id = client.post("/v1/jobs", dict(SWEEP_DOC)).json["job"]["id"]
    _poll(client, job_id)
    stats = client.get("/v1/context").json["jobs"]
    assert stats["jobs"] >= 1
    assert stats["by_state"].get("completed", 0) >= 1
