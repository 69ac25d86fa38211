"""Fluid-flow throughput via linear programming (paper §2.2, §5).

The paper's throughput metric: a network supports a traffic matrix M with
throughput t if every demand can simultaneously achieve a t fraction of its
requested rate without violating link capacities — the optimum of the
classic *maximum concurrent flow* problem.  Two formulations are provided:

* :func:`max_concurrent_throughput` — exact, destination-aggregated
  edge-flow LP.  Commodities are grouped by destination, so the variable
  count is ``(#destinations) x (#arcs)`` rather than
  ``(#pairs) x (#arcs)``; optimal value is unchanged (flows to the same
  destination can always be merged).
* :func:`path_throughput` — restricted to k shortest paths per demand
  (a lower bound on the exact optimum, asymptotically tight as k grows);
  much smaller LPs on large networks.

Both use scipy's HiGHS solver with sparse constraint matrices.

Constraint assembly is vectorized: conservation and capacity blocks are
built from numpy coordinate arrays over the :class:`~.arcs.ArcTable`
incidence structure instead of Python append loops, producing the
*identical* canonical CSR matrices orders of magnitude faster (see
``benchmarks/perf``).  The original loop assembly is retained as
:func:`_assemble_exact_reference` — the equivalence oracle for tests and
the baseline for the perf-regression bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import networkx as nx
import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .. import obs
from ..topologies.base import Topology
from ..traffic.matrix import TrafficMatrix
from .arcs import ArcTable
from .errors import raise_for_linprog
from .paths import path_edges

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..perf import PathCache

__all__ = [
    "ThroughputResult",
    "max_concurrent_throughput",
    "path_throughput",
]


@dataclass
class ThroughputResult:
    """Outcome of a fluid-flow throughput computation.

    Attributes
    ----------
    throughput:
        The concurrent-flow fraction t: every demand simultaneously
        achieves ``t x`` its requested rate.
    per_server:
        ``t`` normalized per server: when the TM saturates every active
        server's hose constraint, equals throughput per server as a
        fraction of line rate (the paper's y-axis).
    link_utilization:
        Mapping of directed arc to carried-load fraction at optimum
        (``None`` for solvers that do not expose flows).
    disconnected_pairs:
        Demands dropped before solving because failures disconnected (or
        removed) their endpoints; the reported throughput covers only
        the surviving demands.  Zero on healthy topologies.
    iterations:
        Simplex/IPM iterations the LP solver spent; zero for degenerate
        results that never reach a solver.

    Notes
    -----
    Degenerate convention (shared by :func:`max_concurrent_throughput`,
    :func:`path_throughput`, the ``highs-colgen`` backend, and :func:`~repro.throughput.bounds.tm_throughput_upper_bound`): an
    *empty* TM constrains nothing, so ``throughput`` is ``inf`` and
    ``per_server`` is ``1.0``.  A TM whose demands were *all* dropped as
    disconnected reports ``0.0`` / ``0.0`` with ``disconnected_pairs``
    set.
    """

    throughput: float
    per_server: float
    link_utilization: Optional[Dict[Tuple[int, int], float]] = None
    disconnected_pairs: int = 0
    iterations: int = 0


def _component_labels(g: "nx.Graph") -> Dict[int, int]:
    """Connected-component label per node (batchable pre-filter state)."""
    label: Dict[int, int] = {}
    for ci, comp in enumerate(nx.connected_components(g)):
        for v in comp:
            label[v] = ci
    return label


def _drop_by_labels(
    tm: TrafficMatrix, label: Dict[int, int]
) -> Tuple[TrafficMatrix, int]:
    """Filter a TM against precomputed component labels.

    A demand is routable when both endpoint ToRs exist in the (possibly
    degraded) graph and lie in the same connected component.  On a
    connected graph with all endpoints present the TM passes through
    unchanged (same object, no copy).
    """
    kept: Dict[Tuple[int, int], float] = {}
    dropped = 0
    for (s, d), val in tm.demands.items():
        if s in label and label[s] == label.get(d):
            kept[(s, d)] = val
        else:
            dropped += 1
    if not dropped:
        return tm, 0
    obs.add("lp.disconnected_pairs", dropped)
    return TrafficMatrix(kept), dropped


def _drop_disconnected_demands(
    topology: Topology, tm: TrafficMatrix
) -> Tuple[TrafficMatrix, int]:
    """Split a TM into its routable part and a dropped-pair count."""
    return _drop_by_labels(tm, _component_labels(topology.graph))


def _demands_by_destination(
    tm: TrafficMatrix,
) -> Tuple[List[int], Dict[int, Dict[int, float]]]:
    """Destination-aggregated demands: ``demand_to[d][v]`` = v's demand to d."""
    dests = sorted({d for (_, d) in tm.demands})
    demand_to: Dict[int, Dict[int, float]] = {d: {} for d in dests}
    for (s, d), val in tm.demands.items():
        demand_to[d][s] = demand_to[d].get(s, 0.0) + val
    return dests, demand_to


def _assemble_exact_reference(
    table: ArcTable,
    dests: List[int],
    demand_to: Dict[int, Dict[int, float]],
) -> Tuple[sp.csr_matrix, np.ndarray, sp.csr_matrix]:
    """Loop-based assembly of the exact LP's constraint matrices.

    Retained as the equivalence oracle for the vectorized assembly (the
    two must produce identical canonical CSR matrices) and as the
    baseline the perf bench measures against.  Production calls go
    through :func:`_assemble_exact_vectorized`.
    """
    arcs = table.arcs
    nodes = table.nodes
    num_arcs = table.num_arcs
    num_dests = len(dests)
    dest_index = {d: i for i, d in enumerate(dests)}
    num_vars = num_dests * num_arcs + 1  # + t
    t_var = num_vars - 1

    def fvar(d_idx: int, a_idx: int) -> int:
        return d_idx * num_arcs + a_idx

    # Equality: conservation per (dest, node != dest):
    #   sum(out arcs) - sum(in arcs) - t * demand(v -> d) = 0
    eq_rows: List[int] = []
    eq_cols: List[int] = []
    eq_vals: List[float] = []
    row = 0
    out_arcs: Dict[int, List[int]] = {v: [] for v in nodes}
    in_arcs: Dict[int, List[int]] = {v: [] for v in nodes}
    for i, (u, v) in enumerate(arcs):
        out_arcs[u].append(i)
        in_arcs[v].append(i)

    for d in dests:
        di = dest_index[d]
        for v in nodes:
            if v == d:
                continue
            for a in out_arcs[v]:
                eq_rows.append(row)
                eq_cols.append(fvar(di, a))
                eq_vals.append(1.0)
            for a in in_arcs[v]:
                eq_rows.append(row)
                eq_cols.append(fvar(di, a))
                eq_vals.append(-1.0)
            dem = demand_to[d].get(v, 0.0)
            if dem:
                eq_rows.append(row)
                eq_cols.append(t_var)
                eq_vals.append(-dem)
            row += 1
    a_eq = sp.csr_matrix((eq_vals, (eq_rows, eq_cols)), shape=(row, num_vars))
    b_eq = np.zeros(row)

    # Inequality: per-arc capacity, sum over destinations.
    ub_rows: List[int] = []
    ub_cols: List[int] = []
    ub_vals: List[float] = []
    for a in range(num_arcs):
        for di in range(num_dests):
            ub_rows.append(a)
            ub_cols.append(fvar(di, a))
            ub_vals.append(1.0)
    a_ub = sp.csr_matrix((ub_vals, (ub_rows, ub_cols)), shape=(num_arcs, num_vars))
    return a_eq, b_eq, a_ub


def _assemble_exact_vectorized(
    table: ArcTable,
    dests: List[int],
    demand_to: Dict[int, Dict[int, float]],
) -> Tuple[sp.csr_matrix, np.ndarray, sp.csr_matrix]:
    """Vectorized assembly of the exact LP's constraint matrices.

    Builds the conservation block for all destinations at once from the
    arc tail/head index arrays: within destination block ``di`` the row
    of node ``v`` is its dense index with the destination's own row
    squeezed out, and every arc contributes +1 at its tail row and -1
    at its head row.  Canonical CSR output is identical to the
    reference loops (duplicate-free coordinates, same coefficients).
    """
    n = table.num_nodes
    m = table.num_arcs
    num_dests = len(dests)
    num_vars = num_dests * m + 1
    t_var = num_vars - 1

    dest_nodes = np.asarray([table.node_index[d] for d in dests], dtype=np.intp)
    dn = dest_nodes[:, None]  # (D, 1)
    tails = table.tails[None, :]  # (1, m)
    heads = table.heads[None, :]
    block = np.arange(num_dests, dtype=np.intp)[:, None] * (n - 1)
    col_base = np.arange(num_dests, dtype=np.intp)[:, None] * m + np.arange(
        m, dtype=np.intp
    )

    tail_mask = tails != dn
    tail_rows = (block + tails - (tails > dn))[tail_mask]
    tail_cols = np.broadcast_to(col_base, (num_dests, m))[tail_mask]
    head_mask = heads != dn
    head_rows = (block + heads - (heads > dn))[head_mask]
    head_cols = np.broadcast_to(col_base, (num_dests, m))[head_mask]

    dem_rows: List[int] = []
    dem_vals: List[float] = []
    for di, d in enumerate(dests):
        dn_i = int(dest_nodes[di])
        base = di * (n - 1)
        for v, dem in demand_to[d].items():
            if not dem:
                continue
            vi = table.node_index[v]
            dem_rows.append(base + vi - (vi > dn_i))
            dem_vals.append(-dem)

    eq_rows = np.concatenate(
        [tail_rows, head_rows, np.asarray(dem_rows, dtype=np.intp)]
    )
    eq_cols = np.concatenate(
        [tail_cols, head_cols, np.full(len(dem_rows), t_var, dtype=np.intp)]
    )
    eq_vals = np.concatenate(
        [
            np.ones(tail_rows.size),
            -np.ones(head_rows.size),
            np.asarray(dem_vals, dtype=float),
        ]
    )
    num_rows = num_dests * (n - 1)
    a_eq = sp.csr_matrix(
        (eq_vals, (eq_rows, eq_cols)), shape=(num_rows, num_vars)
    )
    b_eq = np.zeros(num_rows)

    ub_rows = np.tile(np.arange(m, dtype=np.intp), num_dests)
    ub_cols = col_base.ravel()
    a_ub = sp.csr_matrix(
        (np.ones(ub_rows.size), (ub_rows, ub_cols)), shape=(m, num_vars)
    )
    return a_eq, b_eq, a_ub


def max_concurrent_throughput(
    topology: Topology,
    tm: TrafficMatrix,
    per_server_demand: float = 1.0,
) -> ThroughputResult:
    """Exact max-concurrent-flow throughput of ``tm`` on ``topology``.

    Parameters
    ----------
    topology:
        The switch-level network (capacities in server line-rate units).
    tm:
        Rack-to-rack demands in line-rate units.
    per_server_demand:
        Demand each active server requests (line-rate fraction); used only
        to normalize ``per_server`` in the result.

    Raises
    ------
    InfeasibleError, UnboundedError, SolverNumericalError
        Typed :class:`~repro.throughput.errors.SolverFailure` subclasses
        (all ``RuntimeError``) carrying topology/TM context when HiGHS
        does not return an optimum.

    Notes
    -----
    Destination-aggregated arc-flow LP: variables ``f[d, a]`` (flow bound
    for destination ToR ``d`` on arc ``a``) plus the concurrency ``t``;
    conservation at every node except the destination; arc capacity sums
    over destinations.

    Degenerate cases are conventions, not errors: an empty TM returns
    ``(inf, 1.0)``; a TM whose demands are all disconnected returns
    ``(0.0, 0.0)`` with ``disconnected_pairs`` set (see
    :class:`ThroughputResult`).
    """
    if tm.num_flows == 0:
        return ThroughputResult(throughput=float("inf"), per_server=1.0)

    tm, dropped = _drop_disconnected_demands(topology, tm)
    if tm.num_flows == 0:
        return ThroughputResult(
            throughput=0.0, per_server=0.0, disconnected_pairs=dropped
        )

    table = ArcTable.from_topology(topology)
    obs.add("lp.calls")
    with obs.span("lp.assemble", formulation="exact", demands=tm.num_flows):
        dests, demand_to = _demands_by_destination(tm)
        a_eq, b_eq, a_ub = _assemble_exact_vectorized(table, dests, demand_to)
    num_arcs = table.num_arcs
    num_vars = len(dests) * num_arcs + 1
    c = np.zeros(num_vars)
    c[-1] = -1.0  # maximize t
    with obs.span("lp.solve", formulation="exact", variables=num_vars):
        res = linprog(
            c,
            A_ub=a_ub,
            b_ub=table.caps,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=[(0, None)] * num_vars,
            method="highs",
        )
    iterations = int(getattr(res, "nit", 0) or 0)
    obs.add("lp.solver_iterations", iterations)
    raise_for_linprog(
        res,
        formulation="exact",
        context={"topology": topology.name, "demands": tm.num_flows},
    )
    t = float(res.x[-1])

    utilization: Dict[Tuple[int, int], float] = {}
    flows = res.x[:-1].reshape(len(dests), num_arcs).sum(axis=0)
    caps = table.caps
    for a, (u, v) in enumerate(table.arcs):
        utilization[(u, v)] = float(flows[a] / caps[a]) if caps[a] else 0.0

    return ThroughputResult(
        throughput=t,
        per_server=min(1.0, t * per_server_demand),
        link_utilization=utilization,
        disconnected_pairs=dropped,
        iterations=iterations,
    )


def path_throughput(
    topology: Topology,
    tm: TrafficMatrix,
    k: int = 8,
    per_server_demand: float = 1.0,
    path_cache: Optional["PathCache"] = None,
) -> ThroughputResult:
    """Max-concurrent-flow restricted to k shortest paths per demand.

    A lower bound on :func:`max_concurrent_throughput`; the LP has one
    variable per (demand, path) plus ``t``, and one capacity row per
    directed arc, so it scales to networks where the exact LP does not.

    Degenerate cases follow the same convention as the exact LP: empty
    TM returns ``(inf, 1.0)``, all-disconnected returns ``(0.0, 0.0)``;
    solver failures raise the typed
    :class:`~repro.throughput.errors.SolverFailure` subclasses.

    Parameters
    ----------
    path_cache:
        A shared :class:`repro.perf.PathCache` to serve the k-shortest-
        path sets.  Defaults to the process-wide cache for this
        topology, so a sweep over routings (or ``k`` values) on one
        topology enumerates Yen's algorithm exactly once per pair.
    """
    if tm.num_flows == 0:
        return ThroughputResult(throughput=float("inf"), per_server=1.0)

    tm, dropped = _drop_disconnected_demands(topology, tm)
    if tm.num_flows == 0:
        return ThroughputResult(
            throughput=0.0, per_server=0.0, disconnected_pairs=dropped
        )

    if path_cache is None:
        from ..perf import shared_path_cache

        path_cache = shared_path_cache(topology.graph)

    obs.add("lp.calls")
    with obs.span("lp.assemble", formulation="paths", demands=tm.num_flows, k=k):
        table = ArcTable.from_topology(topology)
        arc_index = table.index
        num_arcs = table.num_arcs
        caps = table.caps

        demands = tm.items()
        var_arcs: List[np.ndarray] = []  # arc-id array per path variable
        var_owner: List[int] = []  # demand index
        for di, ((s, d), _) in enumerate(demands):
            paths = path_cache.k_shortest_paths(s, d, k)
            for p in paths:
                var_arcs.append(
                    np.asarray(
                        [arc_index[e] for e in path_edges(p)], dtype=np.intp
                    )
                )
                var_owner.append(di)

        num_path_vars = len(var_arcs)
        num_vars = num_path_vars + 1
        t_var = num_vars - 1

        # Equality: per demand, sum of path flows = t * demand.
        owner = np.asarray(var_owner, dtype=np.intp)
        dem_vals = np.asarray([val for (_, _), val in demands], dtype=float)
        eq_rows = np.concatenate(
            [owner, np.arange(len(demands), dtype=np.intp)]
        )
        eq_cols = np.concatenate(
            [
                np.arange(num_path_vars, dtype=np.intp),
                np.full(len(demands), t_var, dtype=np.intp),
            ]
        )
        eq_vals = np.concatenate([np.ones(num_path_vars), -dem_vals])
        a_eq = sp.csr_matrix(
            (eq_vals, (eq_rows, eq_cols)), shape=(len(demands), num_vars)
        )
        b_eq = np.zeros(len(demands))

        # Inequality: per-arc capacity.  One coordinate per (path, arc)
        # traversal; repeated arcs within a path (impossible for simple
        # paths, but harmless) would be summed by the CSR constructor.
        counts = np.asarray([a.size for a in var_arcs], dtype=np.intp)
        flat_arcs = (
            np.concatenate(var_arcs)
            if var_arcs
            else np.empty(0, dtype=np.intp)
        )
        ub_cols = np.repeat(np.arange(num_path_vars, dtype=np.intp), counts)
        a_ub = sp.csr_matrix(
            (np.ones(flat_arcs.size), (flat_arcs, ub_cols)),
            shape=(num_arcs, num_vars),
        )

        c = np.zeros(num_vars)
        c[t_var] = -1.0

    with obs.span("lp.solve", formulation="paths", variables=num_vars):
        res = linprog(
            c,
            A_ub=a_ub,
            b_ub=caps,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=[(0, None)] * num_vars,
            method="highs",
        )
    iterations = int(getattr(res, "nit", 0) or 0)
    obs.add("lp.solver_iterations", iterations)
    raise_for_linprog(
        res,
        formulation="paths",
        context={"topology": topology.name, "demands": tm.num_flows, "k": k},
    )
    t = float(res.x[t_var])

    flows = np.zeros(num_arcs)
    np.add.at(flows, flat_arcs, np.repeat(res.x[:num_path_vars], counts))
    utilization = {
        table.arcs[a]: float(flows[a] / caps[a]) if caps[a] else 0.0
        for a in range(num_arcs)
    }
    return ThroughputResult(
        throughput=t,
        per_server=min(1.0, t * per_server_demand),
        link_utilization=utilization,
        disconnected_pairs=dropped,
        iterations=iterations,
    )
