"""The shared LRU primitive behind every warm cache."""

import sys
import threading

from repro import obs
from repro.perf.lru import Lru


def test_counts_hits_misses_and_evictions():
    lru = Lru(2)
    assert lru.get("a") is None
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1  # "a" is now the most recent
    lru.put("c", 3)  # evicts "b"
    assert lru.get("b") is None
    assert lru.values() == [1, 3]
    assert lru.stats() == {
        "entries": 2, "max_entries": 2, "hits": 1, "misses": 2,
        "evictions": 1,
    }


def test_raced_duplicate_keeps_the_incumbent():
    lru = Lru(4)
    first = object()
    assert lru.put("k", first) is first
    assert lru.put("k", object()) is first
    value, hit = lru.get_or_build("k", lambda: object())
    assert value is first and hit


def test_get_or_build_builds_once_per_miss():
    lru = Lru(4)
    calls = []
    value, hit = lru.get_or_build("k", lambda: calls.append(1) or "v")
    assert (value, hit, calls) == ("v", False, [1])
    assert lru.get_or_build("k", lambda: calls.append(1) or "w") == ("v", True)
    assert calls == [1]


def test_discard_and_clear():
    lru = Lru(8)
    for key in [("a", 1), ("a", 2), ("b", 1)]:
        lru.put(key, key)
    assert lru.discard(lambda key: key[0] == "a") == 2
    assert len(lru) == 1
    assert lru.clear() == 1
    assert len(lru) == 0


def test_counters_are_mirrored_to_obs():
    lru = Lru(1, hits="t.hits", misses="t.misses", evictions="t.evictions")
    with obs.session():
        lru.get("a")
        lru.put("a", 1)
        lru.get("a")
        lru.put("b", 2)
        snap = obs.snapshot()
    assert {k: snap[k]["value"] for k in ("t.hits", "t.misses", "t.evictions")} == {
        "t.hits": 1, "t.misses": 1, "t.evictions": 1,
    }


def test_concurrent_churn_keeps_the_bound():
    """More threads than cores and a short switch interval: a lost
    counter update or an unguarded eviction breaks the invariants."""
    lru = Lru(8)
    errors = []

    def worker(offset):
        try:
            for i in range(2000):
                key = (i + offset) % 32
                lru.get_or_build(key, lambda: {"i": i})
        except Exception as exc:  # noqa: BLE001 - the assertion
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(o,)) for o in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    stats = lru.stats()
    assert stats["entries"] <= 8
    assert stats["hits"] + stats["misses"] == 8 * 2000
    # Each miss inserts at most once (a raced duplicate keeps the
    # incumbent); every insert is either still present or evicted.
    assert stats["misses"] - stats["evictions"] >= stats["entries"]
