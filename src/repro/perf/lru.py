"""The one in-process LRU: locked, counted, mirrored to :mod:`repro.obs`.

Every warm cache of the library is an :class:`Lru`: the API's warm
topologies, solver backends and result memo
(:class:`repro.api.state.WarmState`), the design engine's measurement
memos (:class:`repro.design.DesignEngine`) and the process-wide
:func:`repro.perf.shared_path_cache` registry.

The lock guards only dictionary operations.  Values are built outside
it (:meth:`Lru.get_or_build`), so two misses on different keys build in
parallel; a raced double-build of the *same* key keeps the instance
inserted first, so every caller ends up sharing one value.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from .. import obs

__all__ = ["Lru"]


class Lru:
    """A bounded mapping with hit/miss/eviction counters.

    Parameters
    ----------
    max_entries:
        Capacity; inserting past it evicts the least recently used entry.
    hits, misses, evictions:
        :mod:`repro.obs` counter names the matching events are mirrored
        to (``None``: count locally only).
    """

    def __init__(
        self,
        max_entries: int,
        hits: Optional[str] = None,
        misses: Optional[str] = None,
        evictions: Optional[str] = None,
    ) -> None:
        self.max_entries = max_entries
        self._names = {"hits": hits, "misses": misses, "evictions": evictions}
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _note(self, event: str, amount: int = 1) -> None:
        name = self._names[event]
        if name is not None:
            obs.add(name, amount)

    def get(self, key: Hashable) -> Optional[Any]:
        """The value under ``key`` (now most recent), or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        self._note("misses" if value is None else "hits")
        return value

    def put(self, key: Hashable, value: Any) -> Any:
        """Insert; a raced duplicate keeps (and returns) the incumbent."""
        with self._lock:
            incumbent = self._entries.get(key)
            if incumbent is not None:
                return incumbent
            self._entries[key] = value
            evicted = 0
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
        if evicted:
            self._note("evictions", evicted)
        return value

    def get_or_build(
        self, key: Hashable, build: Callable[[], Any]
    ) -> Tuple[Any, bool]:
        """``(value, was_hit)``; a miss calls ``build()`` outside the lock."""
        value = self.get(key)
        if value is not None:
            return value, True
        return self.put(key, build()), False

    def discard(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key matches; returns how many."""
        with self._lock:
            stale = [key for key in self._entries if predicate(key)]
            for key in stale:
                del self._entries[key]
        return len(stale)

    def clear(self) -> int:
        """Drop every entry (counters are kept); returns how many."""
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
        return removed

    def values(self) -> List[Any]:
        """A snapshot of the values, least recently used first."""
        with self._lock:
            return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
