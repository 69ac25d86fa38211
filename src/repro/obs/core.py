"""The observability run state: spans, events, sink, and module API.

One process has at most one active :class:`ObsRun`.  When none is active
(the default), every instrumentation entry point — :func:`span`,
:func:`add`, :func:`observe`, :func:`set_gauge`, :func:`event` — is a
single global read plus a ``None`` check, so instrumented hot paths pay
effectively nothing.  When a run is active, spans and events accumulate
in memory and are flushed once at :func:`disable` time: the JSONL trace
and the ``manifest.json`` summary are both written atomically through
:mod:`repro.ioutils`, so a killed run never leaves a truncated file.

The run is process-wide; the span stack is per thread (a
:class:`contextvars.ContextVar`), so spans opened on API handler and job
threads nest under their own thread's enclosing span.  Worker processes
run unobserved unless they enable their own run.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import platform
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..ioutils import atomic_write_json, atomic_write_text
from .metrics import MetricsRegistry

__all__ = [
    "SCHEMA",
    "ObsRun",
    "Span",
    "enable",
    "disable",
    "enabled",
    "current",
    "session",
    "span",
    "add",
    "set_gauge",
    "observe",
    "event",
    "snapshot",
]

#: Manifest/trace schema identifier; bump on incompatible layout changes.
SCHEMA = "repro.obs/1"


class _NullSpan:
    """The span handed out while observability is disabled: all no-ops."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def annotate(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()

#: Names of the spans open in this thread (or task), innermost last.
_STACK: "contextvars.ContextVar[Tuple[str, ...]]" = contextvars.ContextVar(
    "repro_obs_span_stack", default=()
)


class Span:
    """A timed section of work; records itself on exit.

    Nesting is tracked through the calling thread's span stack, so a
    trace line carries the enclosing span's name (``parent``) and
    per-stage breakdowns can attribute child time.
    """

    __slots__ = ("name", "attrs", "_run", "_start", "_parent", "_token")

    def __init__(self, run: "ObsRun", name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self._run = run
        self._start = 0.0
        self._parent: Optional[str] = None
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> "Span":
        stack = _STACK.get()
        self._parent = stack[-1] if stack else None
        self._token = _STACK.set(stack + (self.name,))
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        end = time.perf_counter()
        _STACK.reset(self._token)
        self._run.record_span(
            self.name,
            self._start,
            end - self._start,
            attrs=self.attrs,
            parent=self._parent,
        )
        return False

    def annotate(self, **attrs: Any) -> None:
        """Add attributes known only once the work has run."""
        self.attrs.update(attrs)


class ObsRun:
    """All observability state of one run.

    Parameters
    ----------
    run_dir:
        Directory the trace and manifest are written to at
        :meth:`finalize` (``None`` keeps everything in memory — metrics
        and spans are still queryable through :meth:`manifest`).
    run_id:
        Stable identifier recorded in the manifest; defaults to a
        wall-clock stamp plus the PID.
    meta:
        Free-form mapping stored verbatim in the manifest (e.g. the
        sweep file a profile run came from).
    """

    def __init__(
        self,
        run_dir: Optional[str] = None,
        run_id: Optional[str] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.run_dir = run_dir
        self.run_id = run_id or time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
        self.meta = dict(meta or {})
        self.metrics = MetricsRegistry()
        self.spans: List[Dict[str, Any]] = []
        self.events: List[Dict[str, Any]] = []
        self._t0 = time.perf_counter()
        self.started_at = time.time()
        self.finalized = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_span(
        self,
        name: str,
        start: float,
        duration_s: float,
        attrs: Optional[Dict[str, Any]] = None,
        parent: Optional[str] = None,
    ) -> None:
        """Record a finished span.

        ``start`` is a ``time.perf_counter`` reading, so retrospective
        spans (e.g. a runner task observed from the parent process) can
        be recorded with explicit timing.
        """
        self.spans.append(
            {
                "type": "span",
                "name": name,
                "start_s": round(start - self._t0, 9),
                "duration_s": round(max(duration_s, 0.0), 9),
                "parent": parent,
                "attrs": attrs or {},
            }
        )
        self.metrics.histogram(f"span.{name}").observe(max(duration_s, 0.0))

    def record_event(self, kind: str, payload: Dict[str, Any]) -> None:
        self.events.append(
            {
                "type": "event",
                "kind": kind,
                "t_s": round(time.perf_counter() - self._t0, 9),
                **payload,
            }
        )

    # ------------------------------------------------------------------
    # Aggregation and output
    # ------------------------------------------------------------------
    def span_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-name aggregates of every recorded span."""
        summary: Dict[str, Dict[str, float]] = {}
        for rec in self.spans:
            agg = summary.get(rec["name"])
            dur = rec["duration_s"]
            if agg is None:
                summary[rec["name"]] = {
                    "count": 1,
                    "total_s": dur,
                    "min_s": dur,
                    "max_s": dur,
                }
            else:
                agg["count"] += 1
                agg["total_s"] += dur
                agg["min_s"] = min(agg["min_s"], dur)
                agg["max_s"] = max(agg["max_s"], dur)
        return {name: summary[name] for name in sorted(summary)}

    def manifest(self) -> Dict[str, Any]:
        """The JSON-ready run summary (what ``manifest.json`` holds)."""
        return {
            "schema": SCHEMA,
            "run_id": self.run_id,
            "started_at_unix": self.started_at,
            "duration_s": round(time.perf_counter() - self._t0, 6),
            "meta": self.meta,
            "library_version": _library_version(),
            "spec_hash_version": _spec_hash_version(),
            "python_version": platform.python_version(),
            "metrics": self.metrics.snapshot(),
            "spans": {
                "count": len(self.spans),
                "by_name": self.span_summary(),
            },
            "events": len(self.events),
            "trace_file": "trace.jsonl" if self.run_dir else None,
        }

    def trace_lines(self) -> List[str]:
        """Every span and event as a JSON line, in start-time order."""
        import json

        records = sorted(
            self.spans + self.events,
            key=lambda r: r.get("start_s", r.get("t_s", 0.0)),
        )
        return [json.dumps(r, sort_keys=True) for r in records]

    def finalize(self) -> Optional[str]:
        """Write the trace and manifest; returns the manifest path.

        Idempotent; a ``None`` :attr:`run_dir` skips the writes (and
        returns ``None``) but still marks the run finalized.
        """
        if self.finalized:
            return self._manifest_path()
        self.finalized = True
        if self.run_dir is None:
            return None
        os.makedirs(self.run_dir, exist_ok=True)
        atomic_write_text(
            os.path.join(self.run_dir, "trace.jsonl"),
            "\n".join(self.trace_lines()) + "\n",
        )
        path = self._manifest_path()
        atomic_write_json(path, self.manifest(), sort_keys=True, indent=2)
        return path

    def _manifest_path(self) -> Optional[str]:
        if self.run_dir is None:
            return None
        return os.path.join(self.run_dir, "manifest.json")


def _library_version() -> str:
    from ..version import __version__

    return __version__


def _spec_hash_version() -> str:
    from ..version import SPEC_HASH_VERSION

    return SPEC_HASH_VERSION


# ----------------------------------------------------------------------
# Module-level state and API
# ----------------------------------------------------------------------
_RUN: Optional[ObsRun] = None


def enable(
    run_dir: Optional[str] = None,
    run_id: Optional[str] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> ObsRun:
    """Start observing; returns the new active :class:`ObsRun`.

    Raises :class:`RuntimeError` if a run is already active — nested
    enables would silently interleave two runs' spans.
    """
    global _RUN
    if _RUN is not None:
        raise RuntimeError(
            f"observability already enabled (run {_RUN.run_id}); "
            "call disable() first"
        )
    _RUN = ObsRun(run_dir=run_dir, run_id=run_id, meta=meta)
    return _RUN


def disable() -> Optional[str]:
    """Stop observing and finalize; returns the manifest path (or None)."""
    global _RUN
    run = _RUN
    if run is None:
        return None
    _RUN = None
    return run.finalize()


def enabled() -> bool:
    """Whether an :class:`ObsRun` is currently active."""
    return _RUN is not None


def current() -> Optional[ObsRun]:
    """The active run, or ``None``."""
    return _RUN


@contextlib.contextmanager
def session(
    run_dir: Optional[str] = None,
    run_id: Optional[str] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Iterator[ObsRun]:
    """``with obs.session(dir) as run:`` — enable now, finalize on exit."""
    run = enable(run_dir=run_dir, run_id=run_id, meta=meta)
    try:
        yield run
    finally:
        if _RUN is run:
            disable()


def span(name: str, **attrs: Any) -> Union[Span, _NullSpan]:
    """A context manager timing one section of work.

    Free when disabled: the shared no-op span is returned without
    allocating anything.
    """
    run = _RUN
    if run is None:
        return _NULL_SPAN
    return Span(run, name, attrs)


def add(name: str, amount: Union[int, float] = 1) -> None:
    """Increment counter ``name`` (no-op while disabled)."""
    run = _RUN
    if run is not None:
        run.metrics.counter(name).add(amount)


def set_gauge(name: str, value: Union[int, float]) -> None:
    """Set gauge ``name`` (no-op while disabled)."""
    run = _RUN
    if run is not None:
        run.metrics.gauge(name).set(value)


def observe(name: str, value: Union[int, float]) -> None:
    """Record ``value`` into histogram ``name`` (no-op while disabled)."""
    run = _RUN
    if run is not None:
        run.metrics.histogram(name).observe(value)


def event(kind: str, **payload: Any) -> None:
    """Append a structured event to the trace (no-op while disabled)."""
    run = _RUN
    if run is not None:
        run.record_event(kind, payload)


def snapshot() -> Dict[str, Dict[str, float]]:
    """The active run's metrics snapshot (``{}`` while disabled)."""
    run = _RUN
    return run.metrics.snapshot() if run is not None else {}
