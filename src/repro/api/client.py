"""Clients for the topology-evaluation service.

Three layers, lowest first:

* :class:`InProcessClient` drives :meth:`ApiService.dispatch` directly —
  no sockets — so tests exercise the exact dispatcher the HTTP server
  uses (status codes, error bodies, warm-state behaviour) without port
  management.
* :class:`HttpClient` is a thin ``http.client`` wrapper for talking to
  a real server (the CI smoke job and the load bench use it); it is
  stdlib-only like everything else in :mod:`repro.api`, and retries
  *idempotent GETs* a bounded number of times with backoff when the
  connection fails transiently.
* :class:`ReproClient` is the recommended entry point: a typed facade
  over either transport whose methods (``context()``, ``throughput()``,
  ``simulate()``, ``sweep()``, ``compare()``, ``design()``,
  ``submit_job()`` / ``wait_job()`` / ``cancel_job()``) take keyword
  arguments instead of hand-built paths and bodies, raise the typed
  :class:`~repro.api.errors.ApiError` (full error envelope: status,
  stable code, details, request id) on failure, and return typed result
  objects.

Raw transports return :class:`ApiResponse`, which deliberately mirrors
the shape of popular HTTP clients (``status``, ``json``, ``ok``,
``raise_for_status``) without depending on any.
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from ..design import DesignReport, DesignTarget
from .errors import ApiError
from .service import ApiService

__all__ = [
    "ApiResponse",
    "InProcessClient",
    "HttpClient",
    "ReproClient",
    "ServiceContext",
    "ThroughputEvaluation",
    "SimulationResult",
    "SweepResult",
    "CompareResult",
    "JobHandle",
]


@dataclass
class ApiResponse:
    """One service response: HTTP status + parsed JSON payload.

    ``headers`` holds the response headers when the reply came over the
    wire (:class:`HttpClient`); in-process replies have none.
    """

    status: int
    json: Dict[str, Any]
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def request_id(self) -> str:
        return str(self.json.get("request_id", ""))

    def raise_for_status(self) -> "ApiResponse":
        """Raise the typed :class:`ApiError` carried by an error body.

        The raised error holds the full envelope — HTTP status, stable
        machine-readable ``code``, ``details``, and the server-assigned
        ``request_id`` — so callers can branch on ``exc.code`` instead
        of parsing a message string.
        """
        if not self.ok:
            error = self.json.get("error", {})
            raise ApiError(
                self.status,
                str(error.get("code", "unknown")),
                str(error.get("message", f"API request failed with {self.status}")),
                details=error.get("details"),
                request_id=error.get("request_id") or self.request_id or None,
            )
        return self


class InProcessClient:
    """Drives an :class:`ApiService` without a network round-trip.

    ``body`` may be a mapping (the common case) or raw ``bytes``/``str``
    to exercise the JSON/size validation exactly as the wire path does.
    """

    def __init__(self, service: Optional[ApiService] = None) -> None:
        self.service = service or ApiService()

    def request(
        self,
        method: str,
        path: str,
        body: Union[Dict[str, Any], bytes, str, None] = None,
        request_id: Optional[str] = None,
    ) -> ApiResponse:
        status, payload = self.service.dispatch(
            method, path, body, request_id=request_id
        )
        return ApiResponse(status=status, json=payload)

    def get(self, path: str, **kwargs: Any) -> ApiResponse:
        return self.request("GET", path, **kwargs)

    def post(
        self,
        path: str,
        body: Union[Dict[str, Any], bytes, str, None] = None,
        **kwargs: Any,
    ) -> ApiResponse:
        return self.request("POST", path, body, **kwargs)

    def delete(self, path: str, **kwargs: Any) -> ApiResponse:
        return self.request("DELETE", path, **kwargs)

    def close(self) -> None:
        """Symmetry with :class:`HttpClient`; nothing to release."""


class HttpClient:
    """A minimal stdlib HTTP client for a running :class:`ApiServer`.

    One persistent keep-alive connection per instance — callers doing
    concurrent load use one ``HttpClient`` per thread.

    Transient connection failures (a closed keep-alive socket, a
    refused/reset connection while the server restarts) are retried
    with exponential backoff — but only for **idempotent GETs**, up to
    ``get_retries`` extra attempts.  Non-GET requests get exactly one
    reconnect-and-resend when the *request* could not be sent on a
    stale pooled connection; a POST that died mid-response is never
    blindly repeated.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        get_retries: int = 3,
        backoff_s: float = 0.05,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.get_retries = max(0, int(get_retries))
        self.backoff_s = float(backoff_s)
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def _reconnect(self) -> None:
        self._conn.close()
        self._conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def _read_response(self) -> ApiResponse:
        raw = self._conn.getresponse()
        data = raw.read()
        return ApiResponse(
            status=raw.status,
            json=json.loads(data.decode()) if data else {},
            headers=dict(raw.headers.items()),
        )

    def request(
        self,
        method: str,
        path: str,
        body: Union[Dict[str, Any], bytes, str, None] = None,
        request_id: Optional[str] = None,
    ) -> ApiResponse:
        if isinstance(body, dict):
            body = json.dumps(body).encode()
        elif isinstance(body, str):
            body = body.encode()
        headers = {"Content-Type": "application/json"}
        if request_id:
            headers["X-Request-Id"] = request_id
        attempts = 1 + (self.get_retries if method == "GET" else 1)
        for attempt in range(attempts):
            # The send and the response read fail differently: a send
            # that never went out is safe to repeat for any method, but
            # once the request is on the wire the server may already
            # have acted on it, so only idempotent GETs retry past
            # getresponse()/read() failures.
            try:
                self._conn.request(method, path, body=body, headers=headers)
            except (http.client.HTTPException, OSError):
                self._reconnect()
                if attempt + 1 >= attempts:
                    raise
                if method == "GET" and self.backoff_s:
                    time.sleep(self.backoff_s * (2 ** attempt))
                continue
            try:
                return self._read_response()
            except (http.client.HTTPException, OSError):
                self._reconnect()
                if method != "GET" or attempt + 1 >= attempts:
                    raise
                if self.backoff_s:
                    time.sleep(self.backoff_s * (2 ** attempt))
        raise AssertionError("unreachable")  # pragma: no cover

    def get(self, path: str, **kwargs: Any) -> ApiResponse:
        return self.request("GET", path, **kwargs)

    def post(
        self,
        path: str,
        body: Union[Dict[str, Any], bytes, str, None] = None,
        **kwargs: Any,
    ) -> ApiResponse:
        return self.request("POST", path, body, **kwargs)

    def delete(self, path: str, **kwargs: Any) -> ApiResponse:
        return self.request("DELETE", path, **kwargs)

    def close(self) -> None:
        self._conn.close()


# ----------------------------------------------------------------------
# Typed results for the facade
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServiceContext:
    """The ``GET /v1/context`` manifest, typed at the top level."""

    service: str
    api_version: str
    library_version: str
    registries: Dict[str, Dict[str, str]]
    caches: Dict[str, Any]
    limits: Dict[str, Any]
    raw: Dict[str, Any]


@dataclass(frozen=True)
class ThroughputEvaluation:
    """One topology's longest-matching throughput evaluation."""

    topology: Dict[str, Any]
    solver: str
    seed: int
    results: List[Dict[str, Any]]
    warm: Dict[str, Any]
    raw: Dict[str, Any]

    def per_server(self, fraction: Optional[float] = None) -> float:
        """Per-server throughput at ``fraction`` (default: the first)."""
        for entry in self.results:
            if fraction is None or entry["fraction"] == fraction:
                return float(entry["per_server_throughput"])
        raise KeyError(f"no result at fraction {fraction!r}")


@dataclass(frozen=True)
class SimulationResult:
    """One ``POST /v1/simulate`` run."""

    record: Dict[str, Any]
    spec_hash: str
    raw: Dict[str, Any]

    @property
    def ok(self) -> bool:
        return self.record.get("status") == "ok"

    @property
    def metrics(self) -> Dict[str, Any]:
        return dict(self.record.get("metrics", {}))


@dataclass(frozen=True)
class SweepResult:
    """One inline ``POST /v1/sweep`` execution."""

    counts: Dict[str, int]
    records: List[Dict[str, Any]]
    cached: int
    computed: int
    wall_clock_s: float
    raw: Dict[str, Any]


@dataclass(frozen=True)
class CompareResult:
    """A ranked multi-topology comparison."""

    best: str
    solver: str
    results: List[Dict[str, Any]]
    raw: Dict[str, Any]

    def ranking(self) -> List[str]:
        """Topology names, best first (unsolved entries last)."""
        def sort_key(entry: Dict[str, Any]):
            value = entry.get("mean_per_server_throughput")
            return (value is None, -(value or 0.0))

        return [
            e["topology"]["name"] for e in sorted(self.results, key=sort_key)
        ]


@dataclass(frozen=True)
class JobHandle:
    """One job's summary snapshot (id + state + progress)."""

    id: str
    kind: str
    state: str
    summary: Dict[str, Any]

    @property
    def terminal(self) -> bool:
        return self.state in ("completed", "failed", "cancelled")


class ReproClient:
    """The typed, recommended front door to the ``/v1`` API.

    Wraps either transport (in-process service or live HTTP server)
    behind keyword-argument methods returning typed results; every
    non-2xx response raises :class:`~repro.api.errors.ApiError` with
    the full error envelope.

    ::

        client = ReproClient.in_process()            # tests, notebooks
        client = ReproClient.http("localhost", 8070) # a live server

        ctx = client.context()
        ev = client.throughput("jellyfish:switches=16,degree=5,servers=4",
                               fractions=[0.4, 1.0])
        report = client.design({"servers": 48, "throughput_per_server": 0.3,
                                "max_switches": 24, "radix": 10})
        job = client.submit_job(kind="design", target={...})
        report = client.wait_job(job.id)["report"]
    """

    def __init__(self, transport: Union[InProcessClient, HttpClient]) -> None:
        self.transport = transport

    @classmethod
    def in_process(cls, service: Optional[ApiService] = None) -> "ReproClient":
        """A client over a fresh (or given) in-process service."""
        return cls(InProcessClient(service))

    @classmethod
    def http(cls, host: str, port: int, **kwargs: Any) -> "ReproClient":
        """A client over a live HTTP server."""
        return cls(HttpClient(host, port, **kwargs))

    def close(self) -> None:
        self.transport.close()

    # -- plumbing ------------------------------------------------------
    def _get(self, path: str) -> Dict[str, Any]:
        return self.transport.get(path).raise_for_status().json

    def _post(self, path: str, body: Dict[str, Any]) -> Dict[str, Any]:
        return self.transport.post(path, body).raise_for_status().json

    @staticmethod
    def _body(
        *, fractions: Optional[Sequence[float]], fraction: Optional[float],
        solver: Optional[str], seed: int, per_server_demand: float,
        failures: Any, warm: bool,
    ) -> Dict[str, Any]:
        body: Dict[str, Any] = {"seed": seed, "warm": warm}
        if fractions is not None:
            body["fractions"] = list(fractions)
        elif fraction is not None:
            body["fraction"] = fraction
        if solver is not None:
            body["solver"] = solver
        if per_server_demand != 1.0:
            body["per_server_demand"] = per_server_demand
        if failures is not None:
            body["failures"] = failures
        return body

    # -- typed endpoints -----------------------------------------------
    def context(self) -> ServiceContext:
        """The service manifest (versions, registries, caches, limits)."""
        raw = self._get("/v1/context")
        return ServiceContext(
            service=raw.get("service", ""),
            api_version=raw.get("api_version", ""),
            library_version=raw.get("library_version", ""),
            registries=raw.get("registries", {}),
            caches=raw.get("caches", {}),
            limits=raw.get("limits", {}),
            raw=raw,
        )

    def schema(self) -> Dict[str, Any]:
        """The ExperimentSpec/DesignTarget schemas + the jobs contract."""
        return self._get("/v1/schema")

    def throughput(
        self,
        topology: Any,
        fractions: Optional[Sequence[float]] = None,
        fraction: Optional[float] = None,
        solver: Optional[str] = None,
        seed: int = 0,
        per_server_demand: float = 1.0,
        failures: Any = None,
        warm: bool = True,
    ) -> ThroughputEvaluation:
        """Longest-matching throughput of one topology spec."""
        body = self._body(
            fractions=fractions, fraction=fraction, solver=solver,
            seed=seed, per_server_demand=per_server_demand,
            failures=failures, warm=warm,
        )
        body["topology"] = topology
        raw = self._post("/v1/throughput", body)
        return ThroughputEvaluation(
            topology=raw["topology"],
            solver=raw["solver"],
            seed=raw["seed"],
            results=raw["results"],
            warm=raw["warm"],
            raw=raw,
        )

    def simulate(
        self, spec: Mapping[str, Any], warm: bool = True
    ) -> SimulationResult:
        """One ExperimentSpec run (packet / flow / lp engine)."""
        body = dict(spec)
        body["options"] = {**body.get("options", {}), "warm": warm}
        raw = self._post("/v1/simulate", body)
        return SimulationResult(
            record=raw["record"], spec_hash=raw["spec_hash"], raw=raw
        )

    def sweep(
        self,
        defaults: Optional[Mapping[str, Any]] = None,
        grid: Optional[Mapping[str, Any]] = None,
        points: Optional[Sequence[Mapping[str, Any]]] = None,
        warm: bool = True,
    ) -> SweepResult:
        """An inline defaults/grid/points sweep (size-capped)."""
        body: Dict[str, Any] = {"options": {"warm": warm}}
        if defaults is not None:
            body["defaults"] = dict(defaults)
        if grid is not None:
            body["grid"] = dict(grid)
        if points is not None:
            body["points"] = [dict(p) for p in points]
        raw = self._post("/v1/sweep", body)
        return SweepResult(
            counts=raw["counts"],
            records=raw["records"],
            cached=raw["cached"],
            computed=raw["computed"],
            wall_clock_s=raw["wall_clock_s"],
            raw=raw,
        )

    def compare(
        self,
        topologies: Sequence[Any],
        fractions: Optional[Sequence[float]] = None,
        fraction: Optional[float] = None,
        solver: Optional[str] = None,
        seed: int = 0,
        per_server_demand: float = 1.0,
        failures: Any = None,
        warm: bool = True,
    ) -> CompareResult:
        """Throughput across several topology specs, ranked."""
        body = self._body(
            fractions=fractions, fraction=fraction, solver=solver,
            seed=seed, per_server_demand=per_server_demand,
            failures=failures, warm=warm,
        )
        body["topologies"] = list(topologies)
        raw = self._post("/v1/compare", body)
        return CompareResult(
            best=raw["best"], solver=raw["solver"],
            results=raw["results"], raw=raw,
        )

    def design(
        self, target: Union[DesignTarget, Mapping[str, Any]]
    ) -> DesignReport:
        """The cheapest design meeting ``target`` (sync, point-capped)."""
        doc = (
            target.to_dict()
            if isinstance(target, DesignTarget)
            else dict(target)
        )
        raw = self._post("/v1/design", {"target": doc})
        return DesignReport.from_dict(raw["report"])

    # -- jobs ----------------------------------------------------------
    @staticmethod
    def _handle(summary: Dict[str, Any]) -> JobHandle:
        return JobHandle(
            id=summary["id"],
            kind=summary.get("kind", "sweep"),
            state=summary["state"],
            summary=summary,
        )

    def submit_job(
        self,
        doc: Optional[Mapping[str, Any]] = None,
        *,
        kind: str = "sweep",
        target: Union[DesignTarget, Mapping[str, Any], None] = None,
        shards: Optional[int] = None,
        warm: bool = True,
    ) -> JobHandle:
        """Submit an async job: a sweep document or a design target."""
        if kind == "design":
            if target is None:
                raise ValueError("design jobs need a target")
            body: Dict[str, Any] = {
                "kind": "design",
                "target": (
                    target.to_dict()
                    if isinstance(target, DesignTarget)
                    else dict(target)
                ),
            }
        else:
            body = dict(doc or {})
            options = dict(body.get("options", {}))
            options["warm"] = warm
            if shards is not None:
                options["shards"] = shards
            body["options"] = options
        raw = self._post("/v1/jobs", body)
        return self._handle(raw["job"])

    def job(self, job_id: str, records: bool = True) -> Dict[str, Any]:
        """One job's full payload (terminal jobs carry their results)."""
        suffix = "" if records else "?records=false"
        return self._get(f"/v1/jobs/{job_id}{suffix}")["job"]

    def jobs(self) -> List[JobHandle]:
        """Summaries of every known job."""
        raw = self._get("/v1/jobs")
        return [self._handle(s) for s in raw["jobs"]]

    def wait_job(
        self,
        job_id: str,
        timeout_s: float = 60.0,
        poll_interval_s: float = 0.05,
    ) -> Dict[str, Any]:
        """Poll until the job is terminal; returns its full payload.

        Raises ``TimeoutError`` (carrying the last-seen state) when the
        job is still live after ``timeout_s``.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            payload = self.job(job_id)
            if payload["state"] in ("completed", "failed", "cancelled"):
                return payload
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {payload['state']!r} "
                    f"after {timeout_s}s"
                )
            time.sleep(poll_interval_s)

    def cancel_job(self, job_id: str) -> JobHandle:
        """Request cooperative cancellation; idempotent when terminal."""
        raw = self.transport.delete(
            f"/v1/jobs/{job_id}"
        ).raise_for_status().json
        return self._handle(raw["job"])
