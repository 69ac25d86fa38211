"""Multi-backend throughput solving behind the fluid-flow engine.

The throughput engine historically hard-wired two code paths (exact /
paths LP) and raised bare exceptions on failure.  This package puts a
backend abstraction in front of it:

* :class:`SolverBackend` — ``solve(topology, tm)`` →
  :class:`SolveOutcome` (status enum: optimal / infeasible / unbounded /
  numerical, iterations, wall time), plus ``solve_many`` for batches;
* ``highs-colgen`` (the default, :data:`DEFAULT_SOLVER`) /
  ``highs-exact`` / ``highs-batched`` / ``highs-incremental`` /
  ``highs-paths`` / ``mcf-approx`` — the built-in backends (see
  :mod:`repro.solvers.backends`);
* registry integration — backends live in
  :data:`repro.registry.SOLVERS` and are selectable from
  ``ExperimentSpec`` (``workload.solver``), sweep JSON, and the CLI
  (``--solver``); ``repro.registry.solver("mcf-approx:epsilon=0.1")``
  builds one from a compact spec string.

``highs-colgen`` solves the path formulation by column generation and
matches the ``highs-exact`` edge LP within 1e-9 (a duality certificate
ends its pricing loop); ``exact``/``highs-exact`` stay the edge-LP
oracle.  ``highs-batched`` is byte-identical to ``highs-exact`` (same
linprog calls on the same matrices), and so is ``highs-incremental``'s
pure-scipy fallback (patched cached matrices equal fresh assembly);
with the optional ``highspy`` dependency (the ``[perf]`` extra)
``highs-incremental`` re-solves each sweep point with dual simplex from
the previous basis.  ``mcf-approx`` is guaranteed within its
(1 - O(epsilon)) bound and never above the exact optimum.  See
``docs/solvers.md`` and the warm-start section of
``docs/performance.md``.
"""

from .backends import (
    HighsBatchedBackend,
    HighsColgenBackend,
    HighsExactBackend,
    HighsIncrementalBackend,
    HighsPathsBackend,
    McfApproxBackend,
    register_builtin_solvers,
)
from ..registry import DEFAULT_SOLVER
from .base import SolveOutcome, SolveStatus, SolverBackend, solve_outcome
from .batched import BatchedTopologyContext
from .colgen import (
    ColgenTopologyContext,
    colgen_solve_outcome,
)
from .incremental import (
    IncrementalTopologyContext,
    have_highspy,
    incremental_solve_outcome,
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
    "HighsExactBackend",
    "HighsBatchedBackend",
    "HighsIncrementalBackend",
    "HighsColgenBackend",
    "HighsPathsBackend",
    "McfApproxBackend",
    "BatchedTopologyContext",
    "IncrementalTopologyContext",
    "ColgenTopologyContext",
    "incremental_solve_outcome",
    "colgen_solve_outcome",
    "have_highspy",
    "topology_fingerprint",
    "warm_start_stats",
    "reset_warm_start_stats",
    "register_builtin_solvers",
]
