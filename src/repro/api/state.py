"""Warm in-process state shared across requests of the API service.

The whole point of running topology evaluation as a *long-lived* service
(rather than a process per query) is that the expensive, reusable
structure survives between requests:

* **built topologies** — constructing a topology (and degrading it under
  a failure scenario) is pure given its spec, so equal specs share one
  immutable instance;
* **solver contexts** — the ``highs-colgen`` per-topology state
  (:class:`~repro.solvers.colgen.ColgenTopologyContext`: ArcTable,
  component labels and the generated path pool), so columns priced for
  one request seed the restricted master of the next — the harness
  Runner's batch warm start, carried across *requests* instead of
  across sweep points;
* **solve results** — throughput queries are deterministic functions of
  their canonical payload, so identical queries are served straight from
  a content-addressed memo (the in-memory analogue of the harness's
  ``.repro-cache/``);
* **path caches** — topology properties (diameter, average path length)
  are served from the process-wide
  :func:`repro.perf.shared_path_cache`, which request handlers share
  with every other layer of the library.

All the LRUs are guarded by one lock held only around dictionary
operations — construction happens outside it, so two concurrent misses
on *different* topologies build in parallel, and a raced double-build of
the *same* key keeps the first-inserted instance.  Counters are plain
ints under the same lock, mirrored to :mod:`repro.obs` counters
(``api.topology.hits`` etc.) so warm-state behaviour shows up in traces.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from .. import obs, registry
from ..solvers.colgen import ColgenTopologyContext, HighsColgenBackend
from ..topologies import Topology

__all__ = ["WarmState", "canonical_key"]


def canonical_key(payload: Any) -> str:
    """A stable content key for any JSON-serializable payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class _Lru:
    """A tiny counted LRU: mapping + hit/miss/eviction counters."""

    def __init__(self, name: str, max_entries: int) -> None:
        self.name = name
        self.max_entries = max_entries
        self.entries: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> Optional[Any]:
        value = self.entries.get(key)
        if value is None:
            self.misses += 1
            obs.add(f"api.{self.name}.misses")
            return None
        self.entries.move_to_end(key)
        self.hits += 1
        obs.add(f"api.{self.name}.hits")
        return value

    def put(self, key: str, value: Any) -> Any:
        """Insert; a raced duplicate keeps (and returns) the incumbent."""
        incumbent = self.entries.get(key)
        if incumbent is not None:
            return incumbent
        self.entries[key] = value
        while len(self.entries) > self.max_entries:
            self.entries.popitem(last=False)
            self.evictions += 1
            obs.add(f"api.{self.name}.evictions")
        return value

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self.entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class WarmState:
    """The request handlers' shared caches, thread-safe.

    Parameters bound the footprint: topologies and colgen contexts hold
    dense per-topology structure (an ArcTable, component labels, a path
    pool), so their LRUs stay small; result memo entries are tiny JSON
    fragments.
    """

    def __init__(
        self,
        max_topologies: int = 32,
        max_results: int = 4096,
        max_colgen: int = 8,
    ) -> None:
        self._lock = threading.RLock()
        self._topologies = _Lru("topology", max_topologies)
        self._results = _Lru("results", max_results)
        self._colgen = _Lru("colgen", max_colgen)
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
        key = self.topology_key(spec, failures)
        with self._lock:
            topo = self._topologies.get(key)
        if topo is not None:
            return topo, True
        topo = self.build_topology(spec, failures)
        with self._lock:
            return self._topologies.put(key, topo), False

    # ------------------------------------------------------------------
    # Column-generation solver contexts (the persistent path pools)
    # ------------------------------------------------------------------
    def colgen(
        self,
        spec: Any,
        topology: Topology,
        failures: Any,
        backend: HighsColgenBackend,
    ) -> Tuple[ColgenTopologyContext, bool]:
        """The warm colgen context; returns ``(context, was_hit)``.

        Holds the per-topology path pool
        (:class:`~repro.solvers.colgen.ColgenTopologyContext`): columns
        generated for one request seed the restricted master of the
        next, so repeated ``/throughput`` queries against the same spec
        typically converge in a round or two.  ``backend`` supplies the
        context's knobs (``k``, ``max_rounds``, ``mode``, ...), and
        requests with different knobs get different contexts.  Each
        context holds an ArcTable plus its pool, so the LRU stays small.
        """
        key = canonical_key(
            {
                "topology": self.topology_key(spec, failures),
                "knobs": [backend.k, backend.phases, backend.passes,
                          backend.max_rounds, backend.mode],
            }
        )
        with self._lock:
            context = self._colgen.get(key)
        if context is not None:
            return context, True
        context = backend.build_context(topology)
        with self._lock:
            return self._colgen.put(key, context), False

    # ------------------------------------------------------------------
    # Content-addressed result memo
    # ------------------------------------------------------------------
    def result_get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            return self._results.get(key)

    def result_put(self, key: str, payload: Dict[str, Any]) -> None:
        with self._lock:
            self._results.put(key, payload)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """A JSON-ready snapshot for the ``/context`` manifest."""
        from ..perf import shared_cache_stats
        from ..solvers.colgen import warm_start_stats

        with self._lock:
            warm = {
                "topologies": self._topologies.stats(),
                "results": self._results.stats(),
            }
            colgen = self._colgen.stats()
            colgen["contexts"] = [
                ctx.stats() for ctx in self._colgen.entries.values()
            ]
        warm["colgen_contexts"] = colgen
        warm["path_cache"] = shared_cache_stats()
        warm["warm_start"] = warm_start_stats()
        return warm

    def clear(self) -> None:
        """Drop every warm entry (tests; counters are kept)."""
        with self._lock:
            self._topologies.entries.clear()
            self._results.entries.clear()
            self._colgen.entries.clear()
