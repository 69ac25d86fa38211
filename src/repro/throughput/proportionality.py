"""Throughput proportionality: the paper's network-flexibility metric (§2.2).

A network built to achieve per-server throughput ``alpha`` on the
worst-case TM is *throughput proportional* (TP) if it achieves
``min(alpha / x, 1)`` per server on any TM involving only an ``x``
fraction of servers.  Theorem 2.1 shows no static network can do better
than TP over permutation TMs, making TP the idealized flexibility
benchmark that Fig. 2 illustrates and Figs. 5-6 measure against.

This module provides the analytic curves of Fig. 2 and the measurement
driver behind Figs. 5-6: sweep the fraction of participating racks,
build a (near-worst-case) longest-matching TM at each point, and solve
for throughput in the fluid-flow model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..registry import DEFAULT_SOLVER
from ..topologies.base import Topology
from ..traffic.matrix import TrafficMatrix
from ..traffic.patterns import longest_matching_tm

__all__ = [
    "tp_curve",
    "fattree_flexibility_curve",
    "SkewSweepResult",
    "skew_sweep",
]


def tp_curve(alpha: float, fractions: Sequence[float]) -> List[float]:
    """The throughput-proportional ideal: min(alpha / x, 1) for each x."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    out = []
    for x in fractions:
        if not 0 < x <= 1:
            raise ValueError(f"fractions must be in (0, 1], got {x}")
        out.append(min(alpha / x, 1.0))
    return out


def fattree_flexibility_curve(
    alpha: float, k: int, fractions: Sequence[float]
) -> List[float]:
    """The fat-tree's analytic flexibility curve from Fig. 2.

    An oversubscribed fat-tree at capacity fraction ``alpha`` is stuck at
    ``alpha`` for any pod-to-pod TM down to ``beta = 2/k`` of the servers;
    below ``beta`` (within the two pods) throughput rises proportionally,
    reaching line rate only at ``x = alpha * beta``.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    beta = 2.0 / k
    out = []
    for x in fractions:
        if x >= beta:
            out.append(alpha)
        else:
            out.append(min(alpha * beta / x, 1.0))
    return out


@dataclass
class SkewSweepResult:
    """Per-server throughput across a sweep of participating-server fractions.

    ``statuses`` holds one :class:`repro.solvers.SolveStatus` value per
    solve, in (fraction-major, trial-minor) order; fractions whose
    trials were not all optimal report ``nan`` throughput.
    """

    name: str
    fractions: List[float]
    throughput: List[float]
    statuses: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Every solve reached an optimum (vacuously true pre-backend)."""
        return all(s == "optimal" for s in self.statuses)

    def as_rows(self) -> List[Dict[str, float]]:
        """Rows of {fraction, throughput} for table rendering."""
        return [
            {"fraction": f, "throughput": t}
            for f, t in zip(self.fractions, self.throughput)
        ]


def skew_sweep(
    topology: Topology,
    fractions: Sequence[float],
    tm_builder: Optional[
        Callable[[Topology, float, int], TrafficMatrix]
    ] = None,
    solver: Any = DEFAULT_SOLVER,
    k_paths: int = 8,
    seed: int = 0,
    trials: int = 1,
    warm: bool = True,
) -> SkewSweepResult:
    """Measure per-server throughput as the active-server fraction shrinks.

    This is the engine behind Figs. 5 and 6: for each fraction ``x``,
    build a near-worst-case TM over an ``x`` fraction of racks (default:
    longest-matching) and solve the fluid-flow throughput.  With
    ``trials > 1`` the reported value is the mean over TM seeds.

    All TMs go through one ``solve_many`` call, so a batching-capable
    backend (``highs-colgen``) amortizes its per-topology structure
    across the whole sweep; with ``warm=True`` (the default) it also
    seeds each point from the path pool of earlier points and calls,
    while ``warm=False`` forces every point cold.  Non-optimal solves do not
    raise: they land in ``statuses`` and leave ``nan`` at the affected
    fraction.

    Parameters
    ----------
    solver:
        A :data:`repro.registry.SOLVERS` name or spec string
        (``"highs-colgen"``, the default
        :data:`repro.registry.DEFAULT_SOLVER`; ``"highs-colgen:k=4"``;
        ``"highs-paths"``; ...) or an already-built backend
        instance.  Unknown names raise ``ValueError`` listing the valid
        choices.
    k_paths:
        ``k`` for the paths backends (ignored by the others).
    tm_builder:
        ``f(topology, fraction, seed) -> TrafficMatrix``; defaults to
        :func:`repro.traffic.patterns.longest_matching_tm`.
    warm:
        Passed through to ``solve_many`` (the
        :class:`repro.solvers.SolverBackend` contract).
    """
    if hasattr(solver, "solve_many"):
        backend = solver
    else:
        from .. import registry  # lazy: avoids a module-import cycle

        name = str(solver)
        defaults: Dict[str, Any] = {}
        base = name.split(":", 1)[0]
        if base in ("paths", "highs-paths"):
            defaults["k"] = k_paths
        backend = registry.solver(name, **defaults)
    if tm_builder is None:
        tm_builder = lambda topo, frac, s: longest_matching_tm(topo, frac, seed=s)

    tms = [
        tm_builder(topology, x, seed + trial)
        for x in fractions
        for trial in range(trials)
    ]
    outcomes = backend.solve_many(topology, tms, warm=warm)

    values: List[float] = []
    statuses: List[str] = []
    nan = float("nan")
    it = iter(outcomes)
    for _x in fractions:
        acc = 0.0
        good = 0
        for _trial in range(trials):
            outcome = next(it)
            statuses.append(outcome.status.value)
            if outcome.ok:
                acc += outcome.result.per_server
                good += 1
        values.append(acc / trials if good == trials else nan)
    return SkewSweepResult(
        name=topology.name,
        fractions=list(fractions),
        throughput=values,
        statuses=statuses,
    )
