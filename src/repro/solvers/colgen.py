"""The ``highs-colgen`` backend: exact throughput by column generation.

Wraps :mod:`repro.throughput.colgen` in the solver-backend contract
(:class:`~repro.solvers.base.SolveOutcome`, ``solve_many`` batching,
registry knobs) and adds the cross-solve warm start the formulation
makes natural: a per-topology **path pool**.  Columns generated for one
TM are remembered per ``(src, dst)`` pair; a later solve over the same
pairs seeds its first master from the stored pool, skips the
multiplicative-weights pool-building sweep entirely, and typically
converges in one or two pricing rounds.

The context is keyed on a **capacity-aware** topology fingerprint
(:func:`topology_fingerprint`): a changed capacity changes the
optimum's support, so the pool (whose arc ids are also table-specific)
must not survive any topology change.

Every warm/cold decision is observed: ``solver.warm_start.hit`` /
``solver.warm_start.miss`` count per-solve pool coverage,
``solver.warm_start.context_hit`` / ``context_miss`` count per-batch
context reuse, and each solve's ``solver.solve`` span carries
``warm_started`` (pool covered every demand pair).  The same counts
are mirrored into process-global :func:`warm_start_stats` so
long-lived services (:mod:`repro.api`) can surface them without an obs
session.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..throughput.colgen import ColgenStats, colgen_solve, have_highs_core
from ..throughput.arcs import ArcTable
from ..throughput.lp import (
    ThroughputResult,
    _component_labels,
    _drop_by_labels,
)
from .base import SolverBackend, solve_outcome

__all__ = [
    "ColgenTopologyContext",
    "HighsColgenBackend",
    "topology_fingerprint",
    "warm_start_stats",
    "reset_warm_start_stats",
]


# ----------------------------------------------------------------------
# Process-global warm-start counters (mirrored to obs)
# ----------------------------------------------------------------------
_STATS_LOCK = threading.Lock()
_STATS_KEYS = ("hit", "miss", "context_hit", "context_miss")
_STATS: Dict[str, int] = {k: 0 for k in _STATS_KEYS}


def _note(key: str) -> None:
    with _STATS_LOCK:
        _STATS[key] += 1
    obs.add(f"solver.warm_start.{key}")


def warm_start_stats() -> Dict[str, int]:
    """Process-wide ``solver.warm_start.*`` counts (JSON-ready copy)."""
    with _STATS_LOCK:
        return dict(_STATS)


def reset_warm_start_stats() -> None:
    """Zero the process-wide counters (tests)."""
    with _STATS_LOCK:
        for k in _STATS_KEYS:
            _STATS[k] = 0


def topology_fingerprint(topology) -> str:
    """A stable content hash of a topology's LP-relevant structure.

    Unlike :func:`repro.perf.topology_content_hash` (hop counts only,
    capacities deliberately ignored), this covers nodes, edges, *and*
    per-edge capacities — everything the ArcTable bakes in.  Two
    topologies with equal fingerprints produce identical ArcTables;
    anything else must force a fresh context.
    """
    g = topology.graph
    h = hashlib.sha256()
    for v in sorted(g.nodes()):
        h.update(repr(v).encode())
        h.update(b";")
    h.update(b"|")
    for u, v, cap in sorted(
        (min(u, v), max(u, v), data.get("capacity"))
        for u, v, data in g.edges(data=True)
    ):
        h.update(repr((u, v, cap)).encode())
        h.update(b";")
    return h.hexdigest()


class ColgenTopologyContext:
    """Prepared per-topology state for warm-started colgen solves.

    Hoists the :class:`~repro.throughput.arcs.ArcTable` and the shared
    :class:`~repro.perf.PathCache`, and persists the generated column
    pool across solves (``(src, dst) -> [arc-id paths]``, bounded per
    pair by :data:`~repro.throughput.colgen.POOL_CAP_PER_PAIR`).

    Thread-safe: solves serialize on a per-context lock (they mutate the
    shared pool and the cached CSR weights).
    """

    def __init__(
        self,
        topology,
        k: int = 2,
        phases: Optional[int] = None,
        passes: int = 4,
        max_rounds: int = 200,
        use_core: Optional[bool] = None,
    ):
        from ..perf import shared_path_cache

        self.topology = topology
        self.fingerprint = topology_fingerprint(topology)
        self.table = ArcTable.from_topology(topology)
        self.labels: Dict[int, int] = _component_labels(topology.graph)
        self.cache = shared_path_cache(topology.graph)
        self.k = int(k)
        self.phases = phases
        self.passes = int(passes)
        self.max_rounds = int(max_rounds)
        self.use_core = use_core
        self._pool: Dict[Tuple[int, int], List[Tuple[int, ...]]] = {}
        self._lock = threading.RLock()
        self.solves = 0
        self.warm_solves = 0
        self.pricing_rounds = 0
        self.columns_added = 0
        self.last_stats: Optional[ColgenStats] = None

    # ------------------------------------------------------------------
    def solve(
        self,
        tm,
        per_server_demand: float = 1.0,
        reuse_pool: bool = True,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> ThroughputResult:
        """Solve one TM, seeding the master from the persistent pool.

        Degenerate conventions and the failure taxonomy are exactly
        those of
        :func:`~repro.throughput.lp.max_concurrent_throughput`.  With
        ``reuse_pool=False`` the solve neither reads nor extends the
        pool (the cold-bypass contract of ``warm=False``).  ``attrs``,
        if given, receives ``warm_started`` (the pool covered every
        demand pair) and ``pricing_rounds`` of a successful solve.
        """
        with self._lock:
            return self._solve_locked(tm, per_server_demand, reuse_pool, attrs)

    def _solve_locked(
        self, tm, per_server_demand: float, reuse_pool: bool, attrs
    ) -> ThroughputResult:
        if tm.num_flows == 0:
            return ThroughputResult(throughput=float("inf"), per_server=1.0)
        tm, dropped = _drop_by_labels(tm, self.labels)
        if tm.num_flows == 0:
            return ThroughputResult(
                throughput=0.0, per_server=0.0, disconnected_pairs=dropped
            )
        result, stats = colgen_solve(
            self.table,
            self.cache,
            tm,
            per_server_demand=per_server_demand,
            dropped=dropped,
            k=self.k,
            phases=self.phases,
            passes=self.passes,
            max_rounds=self.max_rounds,
            pool_store=self._pool if reuse_pool else None,
            use_core=self.use_core,
            context={
                "topology": self.topology.name,
                "demands": tm.num_flows,
            },
        )
        self.solves += 1
        self.pricing_rounds += stats.rounds
        self.columns_added += stats.columns_added
        self.last_stats = stats
        if attrs is not None:
            attrs.update(warm_started=stats.pool_warm, pricing_rounds=stats.rounds)
        if stats.pool_warm:
            self.warm_solves += 1
            _note("hit")
        else:
            _note("miss")
        return result

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """JSON-ready per-context counters (for ``/context`` surfacing)."""
        with self._lock:
            return {
                "pool_pairs": len(self._pool),
                "solves": self.solves,
                "warm_solves": self.warm_solves,
                "pricing_rounds": self.pricing_rounds,
                "columns_added": self.columns_added,
                "engine": (
                    self.last_stats.engine
                    if self.last_stats is not None
                    else ("highs-core" if have_highs_core() else "linprog")
                ),
            }


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------
class HighsColgenBackend(SolverBackend):
    """Exact path LP by column generation, with a persistent path pool.

    Holds one :class:`ColgenTopologyContext` for the most recent
    topology (capacity-aware :func:`topology_fingerprint`).
    ``solve_many(..., warm=True)`` reuses the context — and its column
    pool — across calls; ``warm=False`` solves every point cold and
    caches nothing.

    ``mode`` selects the engine: ``"auto"`` uses the scipy-bundled
    HiGHS core when importable (warm ``addCols`` re-solves) and the
    pure-``linprog`` loop otherwise; ``"core"`` requires the bundled
    core; ``"fallback"`` forces ``linprog`` (tests, portability).
    """

    name = "highs-colgen"
    supports_batching = True

    def __init__(
        self,
        k: int = 2,
        phases: Optional[int] = None,
        passes: int = 4,
        max_rounds: int = 200,
        mode: str = "auto",
    ):
        if mode not in ("auto", "core", "fallback"):
            raise ValueError(
                f"mode must be auto/core/fallback, got {mode!r}"
            )
        if mode == "core" and not have_highs_core():
            raise ValueError(
                "mode='core' needs scipy's bundled HiGHS core "
                "(scipy.optimize._highspy), which this scipy build lacks; "
                "use mode='auto' or 'fallback'"
            )
        if int(k) < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if int(max_rounds) < 1:
            raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
        self.k = int(k)
        self.phases = None if phases is None else int(phases)
        self.passes = int(passes)
        self.max_rounds = int(max_rounds)
        self.mode = mode
        self._context: Optional[ColgenTopologyContext] = None
        self._lock = threading.Lock()

    @property
    def _use_core(self) -> Optional[bool]:
        if self.mode == "auto":
            return None
        return self.mode == "core"

    def knobs(self) -> Dict[str, Any]:
        return {
            "k": self.k,
            "phases": self.phases,
            "passes": self.passes,
            "max_rounds": self.max_rounds,
            "mode": self.mode,
        }

    def _build_context(self, topology) -> ColgenTopologyContext:
        """A fresh context (empty pool) carrying this backend's knobs."""
        return ColgenTopologyContext(
            topology,
            k=self.k,
            phases=self.phases,
            passes=self.passes,
            max_rounds=self.max_rounds,
            use_core=self._use_core,
        )

    def context_for(
        self, topology, warm: bool = True
    ) -> Tuple[ColgenTopologyContext, bool]:
        """The (possibly reused) context for ``topology``.

        Returns ``(context, was_reused)``.  Reuse requires ``warm`` and
        a matching capacity-aware fingerprint; anything else builds (and
        with ``warm``, installs) a fresh context with an empty pool.
        """
        with self._lock:
            context = self._context
            if (
                warm
                and context is not None
                and context.fingerprint == topology_fingerprint(topology)
            ):
                _note("context_hit")
                return context, True
            _note("context_miss")
            context = self._build_context(topology)
            if warm:
                self._context = context
            return context, False

    def context_stats(self) -> Optional[Dict[str, Any]]:
        """Stats of the live context (``None`` before the first solve)."""
        with self._lock:
            return None if self._context is None else self._context.stats()

    def solve(self, topology, tm, per_server_demand: float = 1.0):
        """Solve one TM; the pool warm-starts repeat calls on the topology."""
        return self.solve_many(topology, [tm], per_server_demand)[0]

    def solve_many(
        self,
        topology,
        tms: Sequence,
        per_server_demand: float = 1.0,
        warm: bool = True,
    ) -> List:
        """Solve many TMs, sharing one context (and pool) per topology.

        With ``warm=False`` every point runs cold: no pool is read or
        written, matching the cold-bypass contract of the other warm
        backends.
        """
        context, reused = self.context_for(topology, warm=warm)
        with obs.span(
            "solver.solve_many",
            backend=self.name,
            points=len(tms),
            context_reused=reused,
        ):
            return [
                self._solve_one(context, tm, per_server_demand, warm)
                for tm in tms
            ]

    def _solve_one(self, context, tm, per_server_demand, warm):
        attrs: Dict[str, Any] = {"warm_started": False, "pricing_rounds": 0}
        return solve_outcome(
            self.name,
            lambda: context.solve(tm, per_server_demand, warm, attrs),
            attrs,
        )
