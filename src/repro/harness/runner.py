"""Parallel sweep execution across a pool of worker processes.

The :class:`Runner` fans a list of :class:`ExperimentSpec` points out
over ``jobs`` worker processes (one process per in-flight point, at
most ``jobs`` alive at a time — which is what gives us hard per-task
timeouts: a stuck worker is simply terminated).  Failure semantics are
*graceful degradation*: a worker exception, crash, or timeout becomes a
structured failure :class:`RunRecord` after bounded retries with
exponential backoff; the remaining points always complete and the sweep
never raises.

Failure records are built from the worker's exception; *fatal*
exceptions — :class:`~repro.harness.spec.SpecError` and the typed
:class:`~repro.throughput.errors.SolverFailure` taxonomy, both
deterministic functions of the spec — skip the retry loop entirely.

Completed points are served from / written to the content-addressed
:class:`~repro.harness.cache.ResultCache` when one is attached, so
re-running a sweep only computes new or changed points.

LP points that select a batching-capable solver (``highs-colgen`` —
the default — or any of its aliases) and share topology + failures are
peeled off before the pool and solved in-process through one
``solve_many`` batch per group (see
:func:`~repro.harness.execute.execute_lp_batch`): no per-point worker
fork, topology and path pool built once.

``Runner(inline=True)`` executes every point sequentially in the
calling process instead.  That trades away parallelism and hard
timeouts (``timeout_s`` is not enforced inline) but keeps the process's
observability run live across the whole sweep, so ``python -m repro
profile`` sees the engine/flowsim/LP/pathcache spans of every point —
in worker processes those spans would die with the worker.

Either way the sweep itself is observed when a run is active: a
``runner.sweep`` span wraps the whole thing, each task lands as a
retrospective ``runner.task`` span with its name/attempt/status, and
``runner.tasks`` / ``runner.failures`` / ``runner.cache_hits`` count
the lifecycle.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..throughput.errors import SolverFailure
from .cache import ResultCache
from .records import ResultsStore, RunRecord, provenance
from .spec import ExperimentSpec, SpecError

__all__ = ["Runner", "SweepResult"]

#: Exceptions that are deterministic outcomes of the spec itself —
#: re-running the identical point cannot succeed, so retrying only
#: burns backoff delay.  They settle as failure records on attempt 1.
_FATAL_ERRORS = (SpecError, SolverFailure)


def _task_main(conn, spec_data: dict) -> None:
    """Worker entry point: execute one spec, ship the record back."""
    try:
        from .execute import execute_spec

        record = execute_spec(ExperimentSpec.from_dict(spec_data))
        conn.send(("ok", record.to_dict()))
    except _FATAL_ERRORS as exc:
        conn.send(("fatal", f"{type(exc).__name__}: {exc}"))
    except BaseException as exc:  # noqa: BLE001 - becomes a failure record
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


@dataclass
class SweepResult:
    """All records of a sweep (in spec-submission order) plus counters."""

    records: List[RunRecord]
    wall_clock_s: float = 0.0

    @property
    def counts(self) -> Dict[str, int]:
        cached = sum(1 for r in self.records if r.cached)
        ok = sum(1 for r in self.records if r.ok and not r.cached)
        failed = sum(1 for r in self.records if not r.ok)
        return {
            "total": len(self.records),
            "ok": ok,
            "cached": cached,
            "failed": failed,
        }

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)


@dataclass
class _Task:
    proc: multiprocessing.process.BaseProcess
    conn: object
    index: int
    attempt: int
    started: float


@dataclass
class Runner:
    """Orchestrates one sweep.

    Parameters
    ----------
    jobs:
        Worker-process pool width (default: CPU count, capped at 8).
    cache:
        Optional :class:`ResultCache`; hits skip execution entirely and
        successful records are written back.
    store:
        Optional :class:`ResultsStore`; every record (cached included)
        is appended, in spec order, when the sweep finishes.
    timeout_s:
        Per-attempt wall-clock limit; an overrunning worker is
        terminated (None = unlimited).
    retries:
        Extra attempts after the first for failed/timed-out points.
    backoff_base_s:
        Delay before retry ``n`` is ``backoff_base_s * 2**(n-1)``.
    progress:
        Optional callback receiving ``{total, done, ok, cached, failed,
        running}`` whenever the sweep state changes.
    inline:
        Execute points sequentially in this process instead of in
        worker processes.  Keeps the active observability run's spans;
        ``timeout_s`` is not enforced and ``jobs`` is ignored.
    should_stop:
        Optional cooperative cancellation flag, polled *between* points
        (inline) or before launching new workers (pool).  When it
        returns True the sweep stops starting work: in-flight workers
        settle, unstarted points yield no record, and the partial
        result is returned — with a cache attached, completed points
        are persisted, so re-running the sweep resumes where the
        cancellation landed.
    """

    jobs: Optional[int] = None
    cache: Optional[ResultCache] = None
    store: Optional[ResultsStore] = None
    timeout_s: Optional[float] = None
    retries: int = 1
    backoff_base_s: float = 0.25
    progress: Optional[Callable[[Dict[str, int]], None]] = None
    inline: bool = False
    should_stop: Optional[Callable[[], bool]] = None
    mp_start_method: str = field(default="", repr=False)

    def __post_init__(self) -> None:
        if self.jobs is None:
            self.jobs = min(multiprocessing.cpu_count(), 8)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        method = self.mp_start_method
        if not method:
            # fork keeps worker start cheap (no re-import of scipy et al.)
            # where available; everywhere else use the platform default.
            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else None
        self._ctx = multiprocessing.get_context(method)

    def _stopped(self) -> bool:
        return self.should_stop is not None and self.should_stop()

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[ExperimentSpec]) -> SweepResult:
        """Execute every spec; one record per spec unless cancelled."""
        t0 = time.perf_counter()
        with obs.span("runner.sweep", points=len(specs), inline=self.inline):
            records = self._prepare(specs)
            self._run_batches(specs, records)
            if self.inline:
                self._run_inline(specs, records)
            else:
                self._run_pool(specs, records)
        final = [r for r in records if r is not None]
        if self.store is not None:
            self.store.extend(final)
        return SweepResult(records=final, wall_clock_s=time.perf_counter() - t0)

    def _prepare(
        self, specs: Sequence[ExperimentSpec]
    ) -> List[Optional[RunRecord]]:
        """Validate specs and settle cache hits; ``None`` = still to run."""
        records: List[Optional[RunRecord]] = [None] * len(specs)
        for i, spec in enumerate(specs):
            try:
                spec.validate()
            except SpecError as exc:
                records[i] = self._failure(spec, "failed", str(exc), 1, 0.0)
                obs.add("runner.failures")
                continue
            if self.cache is not None:
                hit = self.cache.get(spec)
                if hit is not None:
                    records[i] = hit
                    obs.add("runner.cache_hits")
        return records

    @staticmethod
    def _batch_key(
        spec: ExperimentSpec,
    ) -> Optional[Tuple[str, str, str, str]]:
        """Group key for batchable lp points; ``None`` = not batchable.

        Points batch together when they share topology, failures, and a
        solver whose backend advertises ``supports_batching``, plus every
        other workload field that shapes the solve (solver knobs,
        ``warm``) — the TM (fraction / seed) is the only thing that
        varies inside a group, which is exactly what ``solve_many``
        amortizes over.
        """
        if spec.engine != "lp":
            return None
        name = spec.lp_solver
        from ..registry import SOLVERS, RegistryError

        try:
            factory = SOLVERS.get(name)
        except RegistryError:
            return None
        if not getattr(factory, "supports_batching", False):
            return None
        solve = {
            key: value
            for key, value in spec.workload.items()
            if key not in ("pattern", "fraction", "pattern_seed", "solver")
        }
        return (
            json.dumps(spec.topology, sort_keys=True),
            json.dumps(spec.failures, sort_keys=True),
            name,
            json.dumps(solve, sort_keys=True),
        )

    def _run_batches(self, specs, records) -> None:
        """Solve fixed-topology lp groups in-process via ``solve_many``.

        Pending points whose solver supports batching are grouped by
        (topology, failures, solver) and executed here — no worker
        forks, topology/ArcTable built once per group.  ``timeout_s``
        is not enforced for batched points (they run in this process);
        a group that fails wholesale (e.g. the topology itself cannot
        be built) falls back to per-point execution with its usual
        retry semantics.
        """
        groups: Dict[Tuple[str, str, str, str], List[int]] = {}
        for i, spec in enumerate(specs):
            if records[i] is not None:
                continue
            key = self._batch_key(spec)
            if key is not None:
                groups.setdefault(key, []).append(i)
        if not groups:
            return
        from .execute import execute_lp_batch

        for key, indices in groups.items():
            if self._stopped():
                return
            started = time.perf_counter()
            try:
                batch = execute_lp_batch([specs[i] for i in indices])
            except Exception as exc:  # noqa: BLE001 - fall back to per-point path
                # The fallback is correct but silent failure is not: a
                # batch that dies here (solver bug, topology build error)
                # re-runs every point individually, which can silently
                # cost the entire batching speedup.  Count it and carry
                # the exception so sweeps can see why.
                obs.add("harness.batch_fallback")
                obs.event(
                    "harness.batch_fallback",
                    solver=key[2],
                    points=len(indices),
                    error=f"{type(exc).__name__}: {exc}",
                )
                continue
            obs.add("runner.batched_points", len(indices))
            for i, record in zip(indices, batch):
                record.attempts = 1
                records[i] = record
                self._note_task(
                    specs[i], 1, record.status, started, record.wall_clock_s
                )
                if record.ok:
                    if self.cache is not None:
                        self.cache.put(specs[i], record)
                else:
                    obs.add("runner.failures")
            self._emit(records, [])

    def _run_pool(self, specs, records) -> None:
        queue: deque = deque()  # (index, attempt, not_before)
        for i in range(len(specs)):
            if records[i] is None:
                queue.append((i, 1, 0.0))

        active: List[_Task] = []
        self._emit(records, active)
        while queue or active:
            now = time.perf_counter()
            if queue and self._stopped():
                # Cancelled: stop launching, let in-flight work settle.
                queue.clear()
                if not active:
                    break
            launched = self._launch_ready(specs, queue, active, now)
            settled = self._poll_active(specs, records, queue, active, now)
            if launched or settled:
                self._emit(records, active)
            else:
                time.sleep(0.005)

    def _run_inline(self, specs, records) -> None:
        from .execute import execute_spec

        self._emit(records, [])
        for i, spec in enumerate(specs):
            if records[i] is not None:
                continue
            if self._stopped():
                break
            attempt = 1
            while True:
                started = time.perf_counter()
                obs.event("runner.task_start", name=spec.name, attempt=attempt)
                error: Optional[str] = None
                fatal = False
                try:
                    record = execute_spec(spec)
                except _FATAL_ERRORS as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    fatal = True
                except Exception as exc:  # noqa: BLE001 - failure record
                    error = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - started
                status = "failed" if error is not None else "ok"
                self._note_task(spec, attempt, status, started, elapsed)
                if error is None:
                    record.attempts = attempt
                    records[i] = record
                    if self.cache is not None:
                        self.cache.put(spec, record)
                    break
                if fatal or attempt > self.retries:
                    records[i] = self._failure(
                        spec, "failed", error, attempt, elapsed
                    )
                    obs.add("runner.failures")
                    break
                time.sleep(self.backoff_base_s * 2 ** (attempt - 1))
                attempt += 1
            self._emit(records, [])

    # ------------------------------------------------------------------
    def _launch_ready(self, specs, queue, active, now) -> bool:
        launched = False
        scanned = 0
        pending = len(queue)
        while len(active) < self.jobs and scanned < pending:
            index, attempt, not_before = queue.popleft()
            scanned += 1
            if not_before > now:
                queue.append((index, attempt, not_before))
                continue
            parent_conn, child_conn = self._ctx.Pipe(duplex=False)
            proc = self._ctx.Process(
                target=_task_main,
                args=(child_conn, specs[index].to_dict()),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            active.append(
                _Task(proc=proc, conn=parent_conn, index=index,
                      attempt=attempt, started=now)
            )
            launched = True
        return launched

    def _poll_active(self, specs, records, queue, active, now) -> bool:
        settled = False
        for task in list(active):
            outcome = None  # (status, payload)
            if task.conn.poll():
                try:
                    outcome = task.conn.recv()
                except (EOFError, OSError):
                    outcome = ("error", "worker died without a result")
            elif (
                self.timeout_s is not None
                and now - task.started > self.timeout_s
            ):
                task.proc.terminate()
                outcome = (
                    "timeout",
                    f"timed out after {self.timeout_s:.1f}s",
                )
            elif not task.proc.is_alive():
                # Died between polls; drain any result that raced in.
                if task.conn.poll(0.01):
                    try:
                        outcome = task.conn.recv()
                    except (EOFError, OSError):
                        outcome = ("error", "worker died without a result")
                else:
                    outcome = (
                        "error",
                        f"worker exited with code {task.proc.exitcode}",
                    )
            if outcome is None:
                continue
            task.proc.join()
            task.conn.close()
            active.remove(task)
            settled = True
            status, payload = outcome
            spec = specs[task.index]
            self._note_task(
                spec, task.attempt, status, task.started, now - task.started
            )
            if status == "ok":
                record = RunRecord.from_dict(payload)
                record.attempts = task.attempt
                records[task.index] = record
                if self.cache is not None:
                    self.cache.put(spec, record)
            elif status != "fatal" and task.attempt <= self.retries:
                delay = self.backoff_base_s * 2 ** (task.attempt - 1)
                queue.append((task.index, task.attempt + 1, now + delay))
            else:
                records[task.index] = self._failure(
                    spec,
                    "timeout" if status == "timeout" else "failed",
                    str(payload),
                    task.attempt,
                    now - task.started,
                )
                obs.add("runner.failures")
        return settled

    @staticmethod
    def _note_task(
        spec: ExperimentSpec,
        attempt: int,
        status: str,
        started: float,
        elapsed: float,
    ) -> None:
        """Record one settled task attempt onto the active obs run.

        Tasks finish asynchronously (or, inline, after the fact), so the
        span is recorded retrospectively from explicit perf-counter
        timings rather than through a context manager.
        """
        run = obs.current()
        if run is None:
            return
        run.record_span(
            "runner.task",
            started,
            elapsed,
            attrs={"name": spec.name, "attempt": attempt, "status": status},
            parent="runner.sweep",
        )
        run.record_event(
            "runner.task_end",
            {"name": spec.name, "attempt": attempt, "status": status},
        )
        run.metrics.counter("runner.tasks").add(1)

    def _failure(
        self,
        spec: ExperimentSpec,
        status: str,
        error: str,
        attempts: int,
        elapsed: float,
    ) -> RunRecord:
        return RunRecord(
            spec=spec.to_dict(),
            spec_hash=spec.content_hash(),
            status=status,
            error=error,
            attempts=attempts,
            wall_clock_s=elapsed,
            provenance=provenance(spec.engine),
        )

    def _emit(self, records, active) -> None:
        if self.progress is None:
            return
        done = [r for r in records if r is not None]
        self.progress(
            {
                "total": len(records),
                "done": len(done),
                "ok": sum(1 for r in done if r.ok and not r.cached),
                "cached": sum(1 for r in done if r.cached),
                "failed": sum(1 for r in done if not r.ok),
                "running": len(active),
            }
        )
