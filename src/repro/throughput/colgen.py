"""Path-based column generation for the exact max-concurrent-flow LP.

The destination-aggregated edge formulation (:mod:`repro.throughput.lp`)
carries ``#destinations x #arcs`` variables, which stops scaling near 64
switches.  This module solves the *same* problem — to the same optimum —
through its path formulation instead: a **restricted master problem**
over a pool of candidate paths, grown by a **pricing loop** until no
path anywhere in the graph could improve the optimum.

Master (variables: one flow per pooled path, plus the concurrency ``t``)::

    max  t
    s.t. sum(flows on demand i's paths) - t * d_i  = 0     (per demand)
         sum(flows crossing arc a)               <= cap_a  (per arc)

Pricing: at a master optimum, the duals price the network — ``lam_i``
per demand row and a nonnegative congestion price ``w_a`` per arc.  A
path for demand ``i`` has negative reduced cost iff its ``w``-length is
below ``lam_i``, so one multi-source Dijkstra over the arc prices finds
the best candidate column for *every* demand at once.  When no demand
has such a path, LP duality certifies the restricted optimum equals the
full-formulation optimum — the result is exact, not a bound, unlike
:func:`~repro.throughput.lp.path_throughput`'s fixed-k restriction.

Three tricks keep the loop short and the endgame honest:

* the pool is warm-started with k shortest paths per demand (served by
  the shared :class:`~repro.perf.PathCache`) plus a multiplicative-
  weights sweep (Garg–Könemann-style length inflation) that routes every
  demand over progressively congestion-averse trees — so the first
  master already contains a near-optimal support and pricing only has to
  patch the tail;
* the master runs at the solver's default tolerances while columns are
  still arriving, and only after pricing dries up are the feasibility
  tolerances tightened to 1e-10 for a **polish** re-solve from the
  current basis (cheap) followed by a final pricing pass that must come
  back clean — tight tolerances during the loop would pay a large
  simplex tax for duals that are about to change anyway;
* a duality-gap certificate is tracked every round: the master objective
  is a valid lower bound, and for *any* nonnegative arc prices ``w``,
  ``sum(cap * w) / sum(d_i * dist_w(s_i, t_i))`` bounds the optimum from
  above.

Two engines share the formulation:

* the scipy-bundled HiGHS core (``scipy.optimize._highspy._core``) —
  model built once, new columns appended with ``addCols`` and re-solved
  warm from the previous basis;
* a pure ``linprog`` fallback (used when the private module is absent)
  that re-assembles the restricted master each round — same pool, same
  pricing, same stop rule, just without warm re-solves.

Degenerate conventions, the failure taxonomy, and the result type are
exactly those of :func:`~repro.throughput.lp.max_concurrent_throughput`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csgraph

from .. import obs
from ..topologies.base import Topology
from ..traffic.matrix import TrafficMatrix
from .arcs import ArcTable
from .errors import SolverNumericalError, raise_for_linprog
from .lp import (
    ThroughputResult,
    _component_labels,
    _drop_by_labels,
)

__all__ = [
    "ColgenStats",
    "have_highs_core",
    "path_colgen_throughput",
    "colgen_solve",
]

#: Pricing threshold: a path improves iff dist_w < lam - TOL.
_PRICE_TOL = 1e-10
#: Relative duality-gap certificate below which the loop may polish.
_GAP_TOL = 1e-10
#: Multiplicative-weights inflation rate for the pool-building sweep.
_MWU_EPS = 0.25
#: Persistent-pool bound per demand pair (warm contexts; the optimum's
#: support rarely needs more than a few dozen paths per demand).
POOL_CAP_PER_PAIR = 64

# ----------------------------------------------------------------------
# Optional scipy-bundled HiGHS core (no new dependency: scipy ships it)
# ----------------------------------------------------------------------
_CORE: Optional[Any] = None
_CORE_CHECKED = False
_CORE_LOCK = threading.Lock()


def have_highs_core() -> bool:
    """Whether scipy's bundled HiGHS core bindings import.

    This is scipy's own private ``_highspy`` module (present in every
    scipy build that ships the HiGHS ``linprog`` methods), not the
    standalone ``highspy`` package — no extra install involved.  When it
    is absent the column-generation loop falls back to re-assembled
    ``linprog`` masters: same optimum, no warm re-solves.
    """
    return _highs_core() is not None


def _highs_core() -> Optional[Any]:
    global _CORE, _CORE_CHECKED
    with _CORE_LOCK:
        if not _CORE_CHECKED:
            _CORE_CHECKED = True
            try:
                from scipy.optimize._highspy import _core  # type: ignore

                # The surface we need; older/newer layouts fall back.
                for attr in ("_Highs", "HighsLp", "kHighsInf",
                             "MatrixFormat", "HighsModelStatus"):
                    if not hasattr(_core, attr):
                        raise ImportError(f"missing {attr}")
                _CORE = _core
            except ImportError:
                _CORE = None
        return _CORE


@dataclass
class ColgenStats:
    """Per-solve column-generation telemetry (JSON-ready).

    Attributes
    ----------
    engine:
        ``"highs-core"`` (warm ``addCols`` loop) or ``"linprog"``
        (re-assembled fallback masters).
    rounds:
        Pricing rounds run (each = one master optimum priced).
    columns:
        Columns in the final restricted master (excluding ``t``).
    columns_added:
        Columns the pricing loop added beyond the initial pool.
    phases:
        Multiplicative-weights pool-building sweeps run.
    polishes:
        Tight-tolerance endgame re-solves (highs-core engine only).
    pool_warm:
        True when a persistent pool already covered every demand pair
        (warm context re-solve: the MWU sweep is skipped).
    """

    engine: str = "highs-core"
    rounds: int = 0
    columns: int = 0
    columns_added: int = 0
    phases: int = 0
    polishes: int = 0
    pool_warm: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "engine": self.engine,
            "rounds": self.rounds,
            "columns": self.columns,
            "columns_added": self.columns_added,
            "phases": self.phases,
            "polishes": self.polishes,
            "pool_warm": self.pool_warm,
        }


# ----------------------------------------------------------------------
# Shared per-solve machinery
# ----------------------------------------------------------------------
class _Trees(NamedTuple):
    """One Dijkstra's shortest-path trees, decoded per demand."""

    #: Demand i's tree path as an arc-id tuple (``None``: unreachable).
    columns: List[Optional[Tuple[int, ...]]]
    #: Raw distance matrix over the pricer's unique sources.
    dist: np.ndarray
    #: Every column's arcs, concatenated in demand order.
    arcs: np.ndarray
    #: Arcs per demand (0 when unreachable).
    hops: np.ndarray


class _Pricer:
    """Demand arrays + shortest-path-tree column extraction.

    One multi-source Dijkstra (over the unique demand sources) prices
    every demand at once; tree paths are decoded into arc-id tuples via
    a dense (tail, head) -> arc lookup table.
    """

    def __init__(self, table: ArcTable, demands) -> None:
        self.table = table
        self.csr, self.perm = table.csr_structure()
        node_index = table.node_index
        self.nd = len(demands)
        self.dem_vals = np.asarray([v for _, v in demands], dtype=float)
        self.srcs = np.asarray(
            [node_index[s] for (s, _), _ in demands], dtype=np.intp
        )
        self.dsts = np.asarray(
            [node_index[d] for (_, d), _ in demands], dtype=np.intp
        )
        self.unique_srcs, self.inv = np.unique(self.srcs, return_inverse=True)
        n = table.num_nodes
        self._n = n
        lut = np.full(n * n, -1, dtype=np.int64)
        lut[table.tails.astype(np.int64) * n + table.heads.astype(np.int64)] = (
            np.arange(table.num_arcs)
        )
        self.arc_lut = lut

    def tree_paths(self, lengths: np.ndarray) -> _Trees:
        """Shortest path per demand under per-arc ``lengths``.

        One multi-source Dijkstra, then every reachable demand's
        predecessor chain is walked in lockstep: step k yields the k-th
        arc back from each still-walking demand's destination.
        """
        self.csr.data = lengths[self.perm]
        dist, pred = csgraph.dijkstra(
            self.csr, directed=True, indices=self.unique_srcs,
            return_predecessors=True,
        )
        n = self._n
        rows, srcs, dsts = self.inv, self.srcs, self.dsts
        reach = np.isfinite(dist[rows, dsts])
        hops = np.zeros(self.nd, dtype=np.int64)
        live = np.flatnonzero(reach & (dsts != srcs))
        v = dsts[live].astype(np.int64)
        steps: List[Tuple[np.ndarray, np.ndarray]] = []
        while live.size:
            u = pred[rows[live], v].astype(np.int64)
            steps.append((live, self.arc_lut[u * n + v]))
            hops[live] += 1
            walking = u != srcs[live]
            live = live[walking]
            v = u[walking]
        # Lay the arcs out source-to-destination, demand after demand.
        ends = np.cumsum(hops)
        arcs = np.empty(int(ends[-1]) if self.nd else 0, dtype=np.int64)
        for k, (ids, step_arcs) in enumerate(steps):
            arcs[ends[ids] - 1 - k] = step_arcs
        arc_list = arcs.tolist()
        columns: List[Optional[Tuple[int, ...]]] = []
        start = 0
        for ok, end in zip(reach.tolist(), ends.tolist()):
            columns.append(tuple(arc_list[start:end]) if ok else None)
            start = end
        return _Trees(columns, dist, arcs, hops)

    def demand_dists(self, dist: np.ndarray) -> np.ndarray:
        """Per-demand source->destination distances from a Dijkstra run."""
        return dist[self.inv, self.dsts]


class _Pool:
    """The restricted master's column pool: arc-id tuples per demand."""

    def __init__(self, nd: int) -> None:
        self.cols: List[Tuple[int, ...]] = []
        self.owners: List[int] = []
        self._sets: List[set] = [set() for _ in range(nd)]

    def add(self, di: int, col: Tuple[int, ...]) -> bool:
        if col in self._sets[di]:
            return False
        self._sets[di].add(col)
        self.cols.append(col)
        self.owners.append(di)
        return True

    def __len__(self) -> int:
        return len(self.cols)


def _upper_bound(
    pricer: _Pricer, caps: np.ndarray, w: np.ndarray, dists: np.ndarray
) -> float:
    """Rigorous dual bound: valid for ANY nonnegative arc prices ``w``."""
    denom = float(
        np.dot(pricer.dem_vals, np.where(np.isfinite(dists), dists, 0.0))
    )
    if denom <= 0:
        return float("inf")
    return float(np.dot(caps, w)) / denom


def _inflate(
    lengths: np.ndarray, trees: _Trees, dem_vals: np.ndarray, caps: np.ndarray
) -> None:
    """Multiplicative-weights step: stretch every arc the trees route
    over by ``1 + eps * demand / capacity`` per traversing demand."""
    arcs = trees.arcs
    vals = np.repeat(dem_vals, trees.hops)
    np.multiply.at(lengths, arcs, 1.0 + _MWU_EPS * vals / caps[arcs])


def _mwu_sweep(
    pricer: _Pricer, pool: _Pool, caps: np.ndarray, phases: int
) -> None:
    """Garg–Könemann-style pool builder: route every demand on a
    shortest tree, inflate traversed arc lengths by demand/capacity,
    repeat — the visited trees approximate the optimal support."""
    if phases <= 0:
        return
    lengths = 1.0 / caps
    for _ in range(phases):
        trees = pricer.tree_paths(lengths)
        if not trees.arcs.size:
            return
        for i, col in enumerate(trees.columns):
            if col is not None:
                pool.add(i, col)
        _inflate(lengths, trees, pricer.dem_vals, caps)


def _price_round(
    pricer: _Pricer,
    pool: _Pool,
    caps: np.ndarray,
    lam: np.ndarray,
    w: np.ndarray,
    passes: int,
) -> Tuple[int, bool, float]:
    """One pricing round at duals ``(lam, w)``.

    Pass 1 uses the true arc prices (its tree certifies/violates
    optimality and feeds the dual bound); the remaining ``passes - 1``
    sweeps inflate the prices multiplicatively to collect *diverse*
    candidate columns near the congested arcs.  Returns
    ``(new_columns, improving, upper_bound)`` — ``improving`` reflects
    the true-dual pass only.
    """
    trees = pricer.tree_paths(w)
    paths = trees.columns
    dists = pricer.demand_dists(trees.dist)
    ub = _upper_bound(pricer, caps, w, dists)
    added = 0
    improving = False
    for i in range(pricer.nd):
        if lam[i] <= _PRICE_TOL:
            continue
        if dists[i] < lam[i] - _PRICE_TOL:
            improving = True
            if paths[i] is not None and pool.add(i, paths[i]):
                added += 1
    if improving and passes > 1:
        wl = w.copy()
        for _ in range(passes - 1):
            _inflate(wl, trees, pricer.dem_vals, caps)
            trees = pricer.tree_paths(wl)
            for i, col in enumerate(trees.columns):
                if col is not None and pool.add(i, col):
                    added += 1
    return added, improving, ub


def _master_arrays(
    pool: _Pool, dem_vals: np.ndarray, nd: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized column-wise master assembly.

    Returns ``(starts, idx, val, counts, flat)`` for the ``len(pool)``
    path columns followed by the ``t`` column (entry ``-d_i`` in every
    demand row).  Rows: ``[0, nd)`` demand equalities, ``[nd, nd+m)``
    arc capacities.
    """
    nv = len(pool)
    counts = np.asarray([len(c) for c in pool.cols], dtype=np.int64)
    flat = (
        np.concatenate([np.asarray(c, dtype=np.int64) for c in pool.cols])
        if nv
        else np.empty(0, dtype=np.int64)
    )
    col_nnz = counts + 1  # the owner-row entry plus one entry per arc
    starts = np.zeros(nv + 2, dtype=np.int64)
    starts[1:nv + 1] = np.cumsum(col_nnz)
    starts[nv + 1] = starts[nv] + nd
    total = int(starts[-1])
    idx = np.empty(total, dtype=np.int32)
    val = np.ones(total)
    idx[starts[:nv]] = np.asarray(pool.owners, dtype=np.int32)
    arc_pos = np.repeat(starts[:nv] + 1, counts) + (
        np.concatenate([np.arange(c) for c in counts])
        if nv
        else np.empty(0, dtype=np.int64)
    )
    idx[arc_pos] = (nd + flat).astype(np.int32)
    idx[starts[nv]:] = np.arange(nd, dtype=np.int32)
    val[starts[nv]:] = -dem_vals
    return starts, idx, val, counts, flat


def _raise_for_core_status(hcore, h, context) -> None:
    status = h.getModelStatus()
    if status == hcore.HighsModelStatus.kOptimal:
        return
    from .errors import InfeasibleError, UnboundedError

    name = h.modelStatusToString(status)
    kinds = {
        getattr(hcore.HighsModelStatus, "kInfeasible", None): InfeasibleError,
        getattr(hcore.HighsModelStatus, "kUnbounded", None): UnboundedError,
    }
    raise kinds.get(status, SolverNumericalError)(
        f"colgen master failed: HiGHS reported {name}",
        formulation="colgen",
        context=context,
    )


# ----------------------------------------------------------------------
# Engine 1: warm addCols loop on the scipy-bundled HiGHS core
# ----------------------------------------------------------------------
def _solve_core(
    pricer: _Pricer,
    pool: _Pool,
    caps: np.ndarray,
    passes: int,
    max_rounds: int,
    stats: ColgenStats,
    context: Optional[Dict[str, Any]],
) -> Tuple[float, np.ndarray, int]:
    """Column-generation loop with warm re-solves; returns
    ``(t, per-column flows in pool order, iterations)``."""
    hcore = _highs_core()
    nd = pricer.nd
    m = caps.size
    inf = hcore.kHighsInf
    dem_vals = pricer.dem_vals

    nv0 = len(pool)
    starts, idx, val, _counts, _flat = _master_arrays(pool, dem_vals, nd)
    h = hcore._Highs()
    h.setOptionValue("output_flag", False)
    h.setOptionValue("threads", 1)
    lp = hcore.HighsLp()
    lp.num_col_ = nv0 + 1
    lp.num_row_ = nd + m
    cost = np.zeros(nv0 + 1)
    cost[nv0] = -1.0
    lp.col_cost_ = cost
    lp.col_lower_ = np.zeros(nv0 + 1)
    lp.col_upper_ = np.full(nv0 + 1, inf)
    row_lower = np.full(nd + m, -inf)
    row_lower[:nd] = 0.0
    row_upper = np.empty(nd + m)
    row_upper[:nd] = 0.0
    row_upper[nd:] = caps
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    lp.a_matrix_.format_ = hcore.MatrixFormat.kColwise
    lp.a_matrix_.start_ = starts.astype(np.int32)
    lp.a_matrix_.index_ = idx
    lp.a_matrix_.value_ = val
    h.passModel(lp)
    # Cold solve: the path LP is massively degenerate under simplex
    # (thousands of equal-length alternatives), while IPM converges in
    # ~25 iterations regardless of size; crossover leaves a basis for
    # the warm addCols re-solves, which then run dual simplex.
    h.setOptionValue("solver", "ipm")
    h.run()
    _raise_for_core_status(hcore, h, context)
    h.setOptionValue("solver", "choose")

    iterations = 0

    def _note_iters() -> None:
        nonlocal iterations
        info = h.getInfo()
        iterations += int(getattr(info, "simplex_iteration_count", 0) or 0)
        iterations += int(getattr(info, "ipm_iteration_count", 0) or 0)

    _note_iters()
    t_col = nv0  # addCols appends after t; its index never moves
    best_ub = float("inf")
    tight = False
    for _ in range(max_rounds):
        stats.rounds += 1
        obs.add("colgen.pricing_rounds")
        t_lb = -h.getObjectiveValue()
        row_dual = np.asarray(h.getSolution().row_dual)
        lam = row_dual[:nd]
        w = np.maximum(-row_dual[nd:], 0.0)
        with obs.span("colgen.pricing", round=stats.rounds):
            added, _improving, ub = _price_round(
                pricer, pool, caps, lam, w, passes
            )
        best_ub = min(best_ub, ub)
        obs.add("colgen.columns_added", added)
        stats.columns_added += added
        gap_closed = best_ub - t_lb <= _GAP_TOL * max(1.0, abs(t_lb))
        if added == 0 or gap_closed:
            if tight or stats.polishes >= 3:
                break
            # Endgame: tighten the feasibility tolerances and re-solve
            # from the current basis (cheap — the basis is optimal or
            # near-optimal already), then loop once more so the final
            # pricing pass certifies optimality at the tight duals.
            stats.polishes += 1
            obs.add("colgen.polishes")
            h.setOptionValue("primal_feasibility_tolerance", 1e-10)
            h.setOptionValue("dual_feasibility_tolerance", 1e-10)
            with obs.span("colgen.polish"):
                h.run()
            _raise_for_core_status(hcore, h, context)
            _note_iters()
            tight = True
            if added == 0:
                continue
        # Append the new columns and re-solve warm from the basis.
        new = list(zip(pool.owners[-added:], pool.cols[-added:]))
        nn = len(new)
        col_counts = np.asarray([len(c) + 1 for _, c in new], dtype=np.int64)
        cstarts = np.zeros(nn + 1, dtype=np.int64)
        cstarts[1:] = np.cumsum(col_counts)
        cidx = np.empty(int(cstarts[-1]), dtype=np.int32)
        cval = np.ones(int(cstarts[-1]))
        for j, (di, col) in enumerate(new):
            s0 = int(cstarts[j])
            cidx[s0] = di
            cidx[s0 + 1:s0 + 1 + len(col)] = nd + np.asarray(
                col, dtype=np.int32
            )
        with obs.span("colgen.master", columns=nn, warm=True):
            h.addCols(
                nn, np.zeros(nn), np.zeros(nn), np.full(nn, inf),
                int(cstarts[-1]), cstarts.astype(np.int32), cidx, cval,
            )
            h.run()
        _raise_for_core_status(hcore, h, context)
        _note_iters()
    else:
        raise SolverNumericalError(
            f"colgen did not converge within max_rounds "
            f"({stats.rounds} rounds, gap {best_ub - (-h.getObjectiveValue()):.3e})",
            formulation="colgen",
            context=context,
        )

    x = np.asarray(h.getSolution().col_value, dtype=float)
    t = float(x[t_col])
    pool_x = np.concatenate([x[:t_col], x[t_col + 1:]])
    return t, pool_x, iterations


# ----------------------------------------------------------------------
# Engine 2: pure-linprog fallback (masters re-assembled per round)
# ----------------------------------------------------------------------
def _solve_linprog(
    pricer: _Pricer,
    pool: _Pool,
    caps: np.ndarray,
    passes: int,
    max_rounds: int,
    stats: ColgenStats,
    context: Optional[Dict[str, Any]],
) -> Tuple[float, np.ndarray, int]:
    import scipy.sparse as sp

    nd = pricer.nd
    m = caps.size
    dem_vals = pricer.dem_vals
    iterations = 0
    res = None
    for _ in range(max_rounds):
        stats.rounds += 1
        obs.add("colgen.pricing_rounds")
        nv = len(pool)
        counts = np.asarray([len(c) for c in pool.cols], dtype=np.intp)
        flat = (
            np.concatenate([np.asarray(c, dtype=np.intp) for c in pool.cols])
            if nv
            else np.empty(0, dtype=np.intp)
        )
        owner = np.asarray(pool.owners, dtype=np.intp)
        eq_rows = np.concatenate([owner, np.arange(nd, dtype=np.intp)])
        eq_cols = np.concatenate(
            [np.arange(nv, dtype=np.intp), np.full(nd, nv, dtype=np.intp)]
        )
        eq_vals = np.concatenate([np.ones(nv), -dem_vals])
        a_eq = sp.csr_matrix((eq_vals, (eq_rows, eq_cols)), shape=(nd, nv + 1))
        ub_cols = np.repeat(np.arange(nv, dtype=np.intp), counts)
        a_ub = sp.csr_matrix(
            (np.ones(flat.size), (flat, ub_cols)), shape=(m, nv + 1)
        )
        c = np.zeros(nv + 1)
        c[nv] = -1.0
        with obs.span("colgen.master", columns=nv, warm=False):
            res = linprog(
                c, A_ub=a_ub, b_ub=caps, A_eq=a_eq, b_eq=np.zeros(nd),
                bounds=[(0, None)] * (nv + 1), method="highs",
            )
        iterations += int(getattr(res, "nit", 0) or 0)
        raise_for_linprog(res, formulation="colgen", context=context)
        lam = res.eqlin.marginals
        w = np.maximum(-res.ineqlin.marginals, 0.0)
        with obs.span("colgen.pricing", round=stats.rounds):
            added, _improving, _ub = _price_round(
                pricer, pool, caps, lam, w, passes
            )
        obs.add("colgen.columns_added", added)
        stats.columns_added += added
        if added == 0:
            break
    else:
        raise SolverNumericalError(
            f"colgen did not converge within max_rounds ({stats.rounds})",
            formulation="colgen",
            context=context,
        )
    nv = int(res.x.size - 1)
    return float(res.x[nv]), np.asarray(res.x[:nv], dtype=float), iterations


# ----------------------------------------------------------------------
# The shared front end
# ----------------------------------------------------------------------
def colgen_solve(
    table: ArcTable,
    path_cache,
    tm: TrafficMatrix,
    per_server_demand: float = 1.0,
    dropped: int = 0,
    k: int = 2,
    phases: Optional[int] = None,
    passes: int = 4,
    max_rounds: int = 200,
    pool_store: Optional[Dict[Tuple[int, int], List[Tuple[int, ...]]]] = None,
    use_core: Optional[bool] = None,
    context: Optional[Dict[str, Any]] = None,
) -> Tuple[ThroughputResult, ColgenStats]:
    """Solve one (pre-filtered, non-empty) TM by column generation.

    ``pool_store`` is an optional persistent ``(src, dst) -> [paths]``
    mapping (arc-id tuples against *this* ArcTable): pre-existing
    entries seed the master, and newly generated columns are written
    back (bounded by :data:`POOL_CAP_PER_PAIR`) — how
    :class:`~repro.solvers.colgen.ColgenTopologyContext` warm-starts
    repeated solves.  ``use_core=None`` auto-detects the bundled HiGHS
    core; ``False`` forces the linprog fallback (tests).
    """
    demands = tm.items()
    nd = len(demands)
    stats = ColgenStats()
    if use_core is None:
        use_core = have_highs_core()
    stats.engine = "highs-core" if use_core else "linprog"

    obs.add("lp.calls")
    with obs.span("lp.assemble", formulation="colgen", demands=nd):
        pricer = _Pricer(table, demands)
        caps = table.caps
        pool = _Pool(nd)
        arc_index = table.index

        covered = 0
        for di, ((s, d), _) in enumerate(demands):
            stored = pool_store.get((s, d)) if pool_store is not None else None
            if stored:
                covered += 1
                for col in stored:
                    pool.add(di, col)
            for p in path_cache.k_shortest_paths(s, d, k):
                pool.add(
                    di, tuple(arc_index[e] for e in zip(p[:-1], p[1:]))
                )
        stats.pool_warm = covered == nd and nd > 0

        if phases is None:
            # Enough sweeps that the initial master already contains a
            # near-optimal support; a warm pool skips them entirely.
            phases = 0 if stats.pool_warm else max(64, min(384, nd))
        stats.phases = phases if not stats.pool_warm else 0
        with obs.span("colgen.pool_build", phases=stats.phases):
            _mwu_sweep(pricer, pool, caps, stats.phases)

    engine = _solve_core if use_core else _solve_linprog
    with obs.span(
        "lp.solve", formulation="colgen", variables=len(pool) + 1
    ):
        t, pool_x, iterations = engine(
            pricer, pool, caps, passes, max_rounds, stats, context
        )
    stats.columns = len(pool)
    obs.add("lp.solver_iterations", iterations)

    if pool_store is not None:
        pairs = [pair for pair, _ in demands]
        per_pair: Dict[Tuple[int, int], List[Tuple[int, ...]]] = {
            pair: [] for pair in pairs
        }
        for di, col in zip(pool.owners, pool.cols):
            bucket = per_pair[pairs[di]]
            if len(bucket) < POOL_CAP_PER_PAIR:
                bucket.append(col)
        pool_store.update(per_pair)

    counts = np.asarray([len(c) for c in pool.cols], dtype=np.intp)
    flat = (
        np.concatenate([np.asarray(c, dtype=np.intp) for c in pool.cols])
        if len(pool)
        else np.empty(0, dtype=np.intp)
    )
    flows = np.zeros(table.num_arcs)
    np.add.at(flows, flat, np.repeat(pool_x, counts))
    utilization = {
        table.arcs[a]: float(flows[a] / caps[a]) if caps[a] else 0.0
        for a in range(table.num_arcs)
    }
    result = ThroughputResult(
        throughput=t,
        per_server=min(1.0, t * per_server_demand),
        link_utilization=utilization,
        disconnected_pairs=dropped,
        iterations=iterations,
    )
    return result, stats


def path_colgen_throughput(
    topology: Topology,
    tm: TrafficMatrix,
    per_server_demand: float = 1.0,
    k: int = 2,
    phases: Optional[int] = None,
    passes: int = 4,
    max_rounds: int = 200,
    path_cache=None,
    use_core: Optional[bool] = None,
) -> ThroughputResult:
    """Exact max-concurrent-flow throughput via column generation.

    Converges to the same optimum as
    :func:`~repro.throughput.lp.max_concurrent_throughput` (within
    solver tolerance — property-tested to 1e-9) with restricted masters
    that are orders of magnitude smaller than the edge formulation, so
    it scales to networks the exact edge LP cannot touch.

    Parameters
    ----------
    k:
        Shortest paths per demand seeding the initial pool (served by
        the shared :class:`~repro.perf.PathCache`).
    phases:
        Multiplicative-weights pool-building sweeps before the first
        master (``None``: auto-scaled with the demand count).
    passes:
        Dijkstra sweeps per pricing round (1 = true duals only; extra
        passes collect diverse columns near congested arcs).
    max_rounds:
        Pricing-round cap; exceeding it raises
        :class:`~repro.throughput.errors.SolverNumericalError`.

    Degenerate conventions match the exact LP: empty TM returns
    ``(inf, 1.0)``; all demands disconnected returns ``(0.0, 0.0)``
    with ``disconnected_pairs`` set.
    """
    if tm.num_flows == 0:
        return ThroughputResult(throughput=float("inf"), per_server=1.0)
    tm, dropped = _drop_by_labels(tm, _component_labels(topology.graph))
    if tm.num_flows == 0:
        return ThroughputResult(
            throughput=0.0, per_server=0.0, disconnected_pairs=dropped
        )
    if path_cache is None:
        from ..perf import shared_path_cache

        path_cache = shared_path_cache(topology.graph)
    table = ArcTable.from_topology(topology)
    result, _stats = colgen_solve(
        table,
        path_cache,
        tm,
        per_server_demand=per_server_demand,
        dropped=dropped,
        k=k,
        phases=phases,
        passes=passes,
        max_rounds=max_rounds,
        use_core=use_core,
        context={"topology": topology.name, "demands": tm.num_flows},
    )
    return result
