"""Solver-backend protocol: typed outcomes instead of raw exceptions.

A :class:`SolverBackend` turns ``(topology, traffic matrix)`` into a
:class:`SolveOutcome` — a status enum plus the
:class:`~repro.throughput.lp.ThroughputResult` when the solve reached an
optimum.  Non-optimal solves do not raise out of ``solve``: the typed
:class:`~repro.throughput.errors.SolverFailure` is caught, classified,
and carried on the outcome so sweeps and campaigns can record the point
and continue.  Callers that want the exception back (e.g. the harness,
whose failure records are built from exceptions) call
:meth:`SolveOutcome.raise_for_status`.

Every solve is observed: a ``solver.solve`` span per call and a
``solver.status.<status>`` counter per outcome.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Optional, Sequence

from .. import obs
from ..throughput.errors import InfeasibleError, SolverFailure, UnboundedError
from ..throughput.lp import ThroughputResult

__all__ = [
    "SolveStatus",
    "SolveOutcome",
    "SolverBackend",
    "solve_outcome",
]


class SolveStatus(str, Enum):
    """Terminal state of one solve (string-valued: JSON/counter ready)."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NUMERICAL = "numerical"


def _status_of(exc: SolverFailure) -> SolveStatus:
    if isinstance(exc, InfeasibleError):
        return SolveStatus.INFEASIBLE
    if isinstance(exc, UnboundedError):
        return SolveStatus.UNBOUNDED
    return SolveStatus.NUMERICAL


@dataclass
class SolveOutcome:
    """One solve, classified.

    Attributes
    ----------
    status:
        Terminal :class:`SolveStatus`.
    backend:
        Name of the backend that produced this outcome.
    result:
        The :class:`ThroughputResult` when ``status`` is optimal, else
        ``None``.
    iterations:
        Solver iterations spent.
    wall_time_s:
        Wall-clock time of this solve, including assembly.
    message:
        Failure message (empty on optimal outcomes).
    error:
        The caught :class:`SolverFailure` for non-optimal outcomes.
    warm_started:
        True when the solve was seeded from earlier solves (the
        ``highs-colgen`` path pool covered every demand pair); always
        False for cold paths.
    """

    status: SolveStatus
    backend: str
    result: Optional[ThroughputResult] = None
    iterations: int = 0
    wall_time_s: float = 0.0
    message: str = ""
    error: Optional[SolverFailure] = field(default=None, repr=False)
    warm_started: bool = False

    @property
    def ok(self) -> bool:
        return self.status is SolveStatus.OPTIMAL

    def raise_for_status(self) -> "SolveOutcome":
        """Re-raise the typed failure for non-optimal outcomes; else self."""
        if self.ok:
            return self
        if self.error is not None:
            raise self.error
        raise SolverFailure(
            self.message or f"solver reported {self.status.value}",
            context={"backend": self.backend},
        )


def solve_outcome(
    backend: str, call: Callable[[], ThroughputResult]
) -> SolveOutcome:
    """Run one solve callable under observability and classify the result.

    ``call`` either returns a :class:`ThroughputResult` (→ optimal) or
    raises a :class:`SolverFailure` subclass (→ the matching non-optimal
    status).  Non-solver exceptions propagate untouched — a bug in the
    formulation should not masquerade as a solver outcome.
    """
    t0 = time.perf_counter()
    status = SolveStatus.OPTIMAL
    result: Optional[ThroughputResult] = None
    message = ""
    error: Optional[SolverFailure] = None
    iterations = 0
    with obs.span("solver.solve", backend=backend):
        try:
            result = call()
            iterations = result.iterations
        except SolverFailure as exc:
            status = _status_of(exc)
            message = str(exc)
            error = exc
            iterations = exc.iterations
    obs.add(f"solver.status.{status.value}")
    return SolveOutcome(
        status=status,
        backend=backend,
        result=result,
        iterations=iterations,
        wall_time_s=time.perf_counter() - t0,
        message=message,
        error=error,
    )


class SolverBackend:
    """Base class for throughput solver backends.

    Subclasses set :attr:`name`, implement :meth:`_solve_result`
    (returning a ``ThroughputResult`` or raising ``SolverFailure``), and
    may override :meth:`solve_many` to amortize per-topology work across
    a batch — setting :attr:`supports_batching` so the harness
    :class:`~repro.harness.runner.Runner` knows it can group
    fixed-topology sweep points through one backend instance.
    """

    name: str = "abstract"
    #: True when solve_many amortizes shared structure across a batch
    #: (the Runner batches fixed-topology lp points through it).
    supports_batching: bool = False

    def _solve_result(self, topology, tm, per_server_demand: float) -> ThroughputResult:
        raise NotImplementedError

    def solve(self, topology, tm, per_server_demand: float = 1.0) -> SolveOutcome:
        """Solve one TM on one topology; never raises on solver failure."""
        return solve_outcome(
            self.name, lambda: self._solve_result(topology, tm, per_server_demand)
        )

    def solve_many(
        self,
        topology,
        tms: Sequence,
        per_server_demand: float = 1.0,
        warm: bool = True,
    ) -> List[SolveOutcome]:
        """Solve many TMs on one topology (default: sequential solves).

        ``warm=True`` permits the backend to reuse state from earlier
        points or earlier calls (``highs-colgen``'s path pool); cold
        backends ignore it.  ``warm=False`` demands every point be
        solved from scratch — the contract equivalence tests and cold
        baselines rely on.
        """
        del warm  # sequential per-point solves carry no reusable state
        return [self.solve(topology, tm, per_server_demand) for tm in tms]
