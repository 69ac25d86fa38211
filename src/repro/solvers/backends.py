"""The built-in solver backends and their registry bindings.

One exact engine and one bound:

* ``highs-colgen`` — exact *path* LP by column generation
  (:class:`~repro.solvers.colgen.HighsColgenBackend`): restricted
  master over a generated path pool + dual-price pricing loop,
  converging to the edge LP's optimum
  (:func:`~repro.throughput.lp.max_concurrent_throughput`) within 1e-9
  with masters small enough to scale an order of magnitude further.
  Knobs ``k``, ``phases``, ``passes``, ``max_rounds``, ``mode`` (auto /
  core / fallback).  ``exact``, ``highs-exact``, ``highs-batched`` and
  ``highs-incremental`` are aliases of it, so specs naming the retired
  edge-LP backends still resolve.
* ``highs-paths`` (alias ``paths``) — k-shortest-paths LP lower bound
  via :func:`~repro.throughput.lp.path_throughput`; knob ``k``.
"""

from __future__ import annotations

from ..throughput.lp import ThroughputResult, path_throughput
from .base import SolverBackend
from .colgen import HighsColgenBackend

__all__ = [
    "EXACT_ALIASES",
    "HighsPathsBackend",
    "HighsColgenBackend",
    "register_builtin_solvers",
]

#: Names of the retired exact backends, kept as ``highs-colgen`` aliases.
EXACT_ALIASES = ("exact", "highs-exact", "highs-batched", "highs-incremental")


class HighsPathsBackend(SolverBackend):
    """k-shortest-paths LP: a lower bound that scales past the exact LP."""

    name = "highs-paths"

    def __init__(self, k: int = 8):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = int(k)

    def _solve_result(self, topology, tm, per_server_demand: float) -> ThroughputResult:
        return path_throughput(
            topology, tm, k=self.k, per_server_demand=per_server_demand
        )


def register_builtin_solvers(registry) -> None:
    """Register the built-in backends (idempotent; called by the lazy
    loader of :data:`repro.registry.SOLVERS`)."""
    registry.register(
        "highs-colgen", HighsColgenBackend,
        "exact path LP by column generation (restricted master + "
        "dual-price pricing loop); scales past the edge LP; persistent "
        "path pool warm-starts repeat solves; k, phases, passes, "
        "max_rounds, mode",
    )
    for alias in EXACT_ALIASES:
        registry.register(alias, HighsColgenBackend, "alias of highs-colgen")
    registry.register(
        "highs-paths", HighsPathsBackend,
        "k-shortest-paths LP lower bound; k",
    )
    registry.register(
        "paths", HighsPathsBackend, "alias of highs-paths; k"
    )
