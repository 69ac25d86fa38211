"""Multi-backend throughput solving behind the fluid-flow engine.

The throughput engine historically hard-wired two code paths (exact /
paths LP) and raised bare exceptions on failure.  This package puts a
backend abstraction in front of it:

* :class:`SolverBackend` — ``solve(topology, tm)`` →
  :class:`SolveOutcome` (status enum: optimal / infeasible / unbounded /
  numerical, iterations, wall time), plus ``solve_many`` for batches;
* ``highs-colgen`` (:data:`DEFAULT_SOLVER`, the one exact engine; also
  reachable as ``exact`` / ``highs-exact`` / ``highs-batched`` /
  ``highs-incremental``) and ``highs-paths`` (the fixed-k lower bound) —
  the built-in backends (see :mod:`repro.solvers.backends`);
* registry integration — backends live in
  :data:`repro.registry.SOLVERS` and are selectable from
  ``ExperimentSpec`` (``workload.solver``), sweep JSON, and the CLI
  (``--solver``); ``repro.registry.solver("highs-paths:k=4")`` builds
  one from a compact spec string.

``highs-colgen`` solves the path formulation by column generation and
matches the edge LP (:func:`repro.throughput.max_concurrent_throughput`,
the test oracle) within 1e-9: a duality certificate ends its pricing
loop.  Its per-topology path pool warm-starts repeat solves.  See
``docs/solvers.md`` and the warm-start section of
``docs/performance.md``.
"""

from .backends import (
    HighsColgenBackend,
    HighsPathsBackend,
    register_builtin_solvers,
)
from ..registry import DEFAULT_SOLVER
from .base import SolveOutcome, SolveStatus, SolverBackend, solve_outcome
from .colgen import (
    ColgenTopologyContext,
    colgen_solve_outcome,
    reset_warm_start_stats,
    topology_fingerprint,
    warm_start_stats,
)

__all__ = [
    "DEFAULT_SOLVER",
    "SolveStatus",
    "SolveOutcome",
    "SolverBackend",
    "solve_outcome",
    "HighsColgenBackend",
    "HighsPathsBackend",
    "ColgenTopologyContext",
    "colgen_solve_outcome",
    "topology_fingerprint",
    "warm_start_stats",
    "reset_warm_start_stats",
    "register_builtin_solvers",
]
