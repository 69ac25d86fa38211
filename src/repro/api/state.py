"""Warm in-process state shared across requests of the API service.

The whole point of running topology evaluation as a *long-lived* service
(rather than a process per query) is that the expensive, reusable
structure survives between requests:

* **built topologies** — constructing a topology (and degrading it under
  a failure scenario) is pure given its spec, so equal specs share one
  immutable instance;
* **solver backends** — a backend that advertises
  ``supports_batching`` (``highs-colgen``) keeps warm per-topology state
  (ArcTable, component labels and the generated path pool), so the
  backend itself is cached per topology and columns priced for one
  request seed the restricted master of the next — the harness Runner's
  batch warm start, carried across *requests* instead of across sweep
  points;
* **solve results** — throughput queries are deterministic functions of
  their canonical payload, so identical queries are served straight from
  a content-addressed memo (the in-memory analogue of the harness's
  ``.repro-cache/``);
* **path caches** — topology properties (diameter, average path length)
  are served from the process-wide
  :func:`repro.perf.shared_path_cache`, which request handlers share
  with every other layer of the library.

Every cache is a :class:`repro.perf.lru.Lru`, locked only around
dictionary operations — construction happens outside it, so two
concurrent misses on *different* topologies build in parallel, and a
raced double-build of the *same* key keeps the first-inserted instance.
Hit/miss/eviction counts are mirrored to :mod:`repro.obs` counters
(``api.topology.hits`` etc.) so warm-state behaviour shows up in traces.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Dict, Optional, Tuple

from .. import registry
from ..perf.lru import Lru
from ..topologies import Topology

__all__ = ["WarmState", "canonical_key"]


def canonical_key(payload: Any) -> str:
    """A stable content key for any JSON-serializable payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _api_lru(name: str, max_entries: int) -> Lru:
    return Lru(
        max_entries,
        hits=f"api.{name}.hits",
        misses=f"api.{name}.misses",
        evictions=f"api.{name}.evictions",
    )


class WarmState:
    """The request handlers' shared caches, thread-safe.

    Parameters bound the footprint: topologies and warm colgen backends
    hold dense per-topology structure (an ArcTable, component labels, a
    path pool), so their LRUs stay small; result memo entries are tiny
    JSON fragments.
    """

    def __init__(
        self,
        max_topologies: int = 32,
        max_results: int = 4096,
        max_colgen: int = 8,
    ) -> None:
        self._topologies = _api_lru("topology", max_topologies)
        self._results = _api_lru("results", max_results)
        self._colgen = _api_lru("colgen", max_colgen)
        self.started_at = time.time()

    # ------------------------------------------------------------------
    # Topologies
    # ------------------------------------------------------------------
    @staticmethod
    def topology_key(spec: Any, failures: Any = None) -> str:
        """The canonical cache key of a (topology spec, failures) pair.

        Raises :class:`~repro.registry.RegistryError` on malformed
        specs — before any construction work happens.
        """
        name, params = registry.parse_spec(spec, key="family")
        failure_spec = None
        if failures is not None:
            failure_spec = registry.failure(failures).to_spec()
        return canonical_key(
            {"family": name, "params": params, "failures": failure_spec}
        )

    @staticmethod
    def build_topology(spec: Any, failures: Any = None) -> Topology:
        """Cold-path construction: build (and degrade) from scratch."""
        topo = registry.topology(spec)
        if failures is not None:
            topo = topo.degrade(registry.failure(failures))
        return topo

    def topology(self, spec: Any, failures: Any = None) -> Tuple[Topology, bool]:
        """The warm topology for a spec; returns ``(topology, was_hit)``.

        Cached topologies are treated as immutable, which every layer of
        the library already assumes (``degrade`` copies, generators
        build fresh graphs).
        """
        return self._topologies.get_or_build(
            self.topology_key(spec, failures),
            lambda: self.build_topology(spec, failures),
        )

    # ------------------------------------------------------------------
    # Warm solver backends (highs-colgen's persistent path pools)
    # ------------------------------------------------------------------
    def backend(self, topology_key: str, backend: Any) -> Tuple[Any, bool]:
        """The warm backend for one topology; returns ``(backend, was_hit)``.

        ``backend`` is freshly resolved from the request's solver spec;
        when a backend of the same name and knobs
        (:meth:`~repro.solvers.SolverBackend.knobs`) is already warm for
        this topology, that one is returned instead, carrying its
        per-topology state (``highs-colgen``'s path pool: columns
        generated for one request seed the restricted master of the
        next, so repeated ``/v1/throughput`` queries against the same
        spec typically converge in a round or two).  Each warm backend
        holds an ArcTable plus its pool, so the LRU stays small.
        """
        key = canonical_key(
            {
                "topology": topology_key,
                "backend": backend.name,
                "knobs": backend.knobs(),
            }
        )
        return self._colgen.get_or_build(key, lambda: backend)

    # ------------------------------------------------------------------
    # Content-addressed result memo
    # ------------------------------------------------------------------
    def result_get(self, key: str) -> Optional[Dict[str, Any]]:
        return self._results.get(key)

    def result_put(self, key: str, payload: Dict[str, Any]) -> None:
        self._results.put(key, payload)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """A JSON-ready snapshot for the ``/context`` manifest."""
        from ..perf import shared_cache_stats
        from ..solvers import warm_start_stats

        warm = {
            "topologies": self._topologies.stats(),
            "results": self._results.stats(),
        }
        colgen = self._colgen.stats()
        contexts = (b.context_stats() for b in self._colgen.values())
        colgen["contexts"] = [c for c in contexts if c is not None]
        warm["colgen_contexts"] = colgen
        warm["path_cache"] = shared_cache_stats()
        warm["warm_start"] = warm_start_stats()
        return warm

    def clear(self) -> None:
        """Drop every warm entry (tests; counters are kept)."""
        for lru in (self._topologies, self._results, self._colgen):
            lru.clear()
