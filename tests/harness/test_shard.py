"""Shard determinism: partition, merge, and the coordinator contract.

The whole scale-out story rests on two invariants:

* **Assignment is a pure function of content.**  ``shard_of`` depends
  only on the spec's content hash and the shard count — not on list
  order, sibling specs, or the process computing it — so independent
  hosts partition identically with zero coordination, and ``--resume``
  filtering cannot reshuffle points between shards.
* **Merge canonicalizes.**  ``merge_stores`` output is byte-identical
  whether the inputs came from N shards or one unsharded run, because
  volatile per-run fields (wall clock, attempts, cache provenance) are
  pinned and ordering is deterministic.
"""

import json
import subprocess
import sys
import threading

import pytest

from repro.harness import (
    ExperimentSpec,
    ResultsStore,
    Runner,
    ShardCoordinator,
    ShardSpec,
    SpecError,
    merge_records,
    merge_stores,
    partition,
    select_shard,
    shard_of,
    sweep_hash,
)
from repro.harness.records import RunRecord
from repro.harness.shard import canonical_record


def _specs(n=6, switches=8):
    return [
        ExperimentSpec.from_dict({
            "topology": {"family": "jellyfish", "switches": switches,
                         "degree": 3, "servers": 2, "seed": 1},
            "workload": {"pattern": "longest_matching",
                         "solver": "highs-paths",
                         "fraction": round(0.4 + 0.1 * i, 2)},
            "engine": "lp",
            "seed": 1,
        })
        for i in range(n)
    ]


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
def test_partition_covers_each_spec_exactly_once():
    specs = _specs(7)
    shards = partition(specs, 3)
    assert len(shards) == 3
    seen = [s.content_hash() for shard in shards for s in shard]
    assert sorted(seen) == sorted(s.content_hash() for s in specs)


def test_assignment_independent_of_order_and_siblings():
    specs = _specs(6)
    by_hash = {s.content_hash(): shard_of(s, 3) for s in specs}
    # Reversing the list or dropping siblings (--resume) changes nothing.
    for s in reversed(specs):
        assert shard_of(s, 3) == by_hash[s.content_hash()]
    survivors = specs[::2]
    for s in survivors:
        assert shard_of(s, 3) == by_hash[s.content_hash()]


def test_assignment_stable_across_processes():
    specs = _specs(4)
    script = (
        "import json, sys\n"
        "from repro.harness import ExperimentSpec, shard_of\n"
        "docs = json.load(sys.stdin)\n"
        "specs = [ExperimentSpec.from_dict(d) for d in docs]\n"
        "print(json.dumps([shard_of(s, 5) for s in specs]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=json.dumps([s.to_dict() for s in specs]),
        capture_output=True, text=True, check=True,
    )
    assert json.loads(proc.stdout) == [shard_of(s, 5) for s in specs]


def test_select_shard_matches_partition():
    specs = _specs(6)
    shards = partition(specs, 3)
    for i in range(3):
        selected = select_shard(specs, ShardSpec(i, 3))
        assert [s.content_hash() for s in selected] == [
            s.content_hash() for s in shards[i]
        ]


def test_sweep_hash_is_order_independent():
    specs = _specs(4)
    assert sweep_hash(specs) == sweep_hash(list(reversed(specs)))
    assert sweep_hash(specs) != sweep_hash(specs[:3])


def test_shard_spec_parse():
    shard = ShardSpec.parse("1/3")
    assert (shard.index, shard.count) == (1, 3)
    assert str(shard) == "1/3"
    for bad in ("3/3", "-1/3", "a/b", "1", "1/0", "1/3/5"):
        with pytest.raises(SpecError):
            ShardSpec.parse(bad)


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
def _fake_record(spec, status="ok", wall=1.23, attempts=2, cached=True):
    return RunRecord(
        spec=spec.to_dict(),
        spec_hash=spec.content_hash(),
        status=status,
        metrics={"per_server_throughput": 0.5} if status == "ok" else {},
        wall_clock_s=wall,
        attempts=attempts,
        error=None if status == "ok" else "boom",
        cached=cached,
    )


def test_canonical_record_pins_volatile_fields():
    spec = _specs(1)[0]
    canon = canonical_record(_fake_record(spec))
    assert canon.wall_clock_s == 0.0
    assert canon.attempts == 1
    assert canon.cached is False
    # Everything meaningful survives.
    assert canon.metrics == {"per_server_throughput": 0.5}
    assert canon.spec_hash == spec.content_hash()


def test_merge_records_dedups_and_prefers_ok():
    spec_a, spec_b = _specs(2)
    failed = _fake_record(spec_a, status="failed")
    good = _fake_record(spec_a, status="ok")
    other = _fake_record(spec_b, status="ok")
    # ok beats failed regardless of arrival order.
    merged = merge_records([failed, other, good], specs=[spec_a, spec_b])
    assert [r.spec_hash for r in merged] == [
        spec_a.content_hash(), spec_b.content_hash(),
    ]
    assert merged[0].ok
    # Without a spec list the order falls back to sorted hashes.
    unordered = merge_records([good, other])
    assert [r.spec_hash for r in unordered] == sorted(
        [spec_a.content_hash(), spec_b.content_hash()]
    )


def test_merge_stores_idempotent(tmp_path):
    specs = _specs(3)
    store_path = tmp_path / "in.jsonl"
    store = ResultsStore(str(store_path))
    for s in specs:
        store.append(_fake_record(s))
    once = tmp_path / "once.jsonl"
    twice = tmp_path / "twice.jsonl"
    result = merge_stores([str(store_path)], str(once), specs=specs)
    assert result.records == 3
    merge_stores([str(once)], str(twice), specs=specs)
    assert once.read_bytes() == twice.read_bytes()


def test_merge_stores_missing_input(tmp_path):
    with pytest.raises(OSError):
        merge_stores([str(tmp_path / "nope.jsonl")], str(tmp_path / "o"))


# ----------------------------------------------------------------------
# End-to-end: sharded == unsharded, byte for byte
# ----------------------------------------------------------------------
def test_three_way_shard_merges_byte_identical(tmp_path):
    specs = _specs(5)
    shard_paths = []
    for i in range(3):
        path = tmp_path / f"shard{i}.jsonl"
        shard_paths.append(str(path))
        shard_specs = select_shard(specs, ShardSpec(i, 3))
        Runner(
            inline=True, retries=0, store=ResultsStore(str(path))
        ).run(shard_specs)
    full_path = tmp_path / "full.jsonl"
    Runner(
        inline=True, retries=0, store=ResultsStore(str(full_path))
    ).run(specs)

    merged = tmp_path / "merged.jsonl"
    canonical = tmp_path / "canonical.jsonl"
    merge_stores(shard_paths, str(merged), specs=specs)
    merge_stores([str(full_path)], str(canonical), specs=specs)
    assert merged.read_bytes() == canonical.read_bytes()
    assert merged.read_bytes()  # not vacuously identical-empty


def test_coordinator_matches_inline_runner():
    specs = _specs(4)
    sharded = ShardCoordinator(shards=3).run(specs)
    unsharded = Runner(inline=True, retries=0).run(specs)
    assert [r.spec_hash for r in sharded.records] == [
        s.content_hash() for s in specs
    ]
    a = [canonical_record(r).to_json() for r in sharded.records]
    b = [canonical_record(r).to_json() for r in unsharded.records]
    assert a == b


def test_coordinator_progress_aggregates():
    specs = _specs(4)
    snapshots = []
    ShardCoordinator(shards=2, progress=snapshots.append).run(specs)
    assert snapshots
    final = snapshots[-1]
    assert final["done"] == len(specs)
    assert final["shards"] == 2


# ----------------------------------------------------------------------
# Cooperative cancellation
# ----------------------------------------------------------------------
def test_runner_should_stop_halts_between_points():
    specs = _specs(5)
    seen = []

    def stop_after_two():
        return len(seen) >= 2

    runner = Runner(
        inline=True, retries=0,
        progress=lambda p: seen.append(p["done"]),
        should_stop=stop_after_two,
    )
    result = runner.run(specs)
    assert 0 < len(result.records) < len(specs)


def test_coordinator_cancel_stops_all_shards():
    specs = _specs(6)
    event = threading.Event()

    def progress(p):
        if p["done"] >= 1:
            event.set()

    result = ShardCoordinator(
        shards=3, progress=progress, should_stop=event.is_set
    ).run(specs)
    # Cancellation is cooperative: some points ran, not necessarily all.
    assert len(result.records) <= len(specs)
    # Records that did complete are real results in submission order.
    hashes = [s.content_hash() for s in specs]
    assert [r.spec_hash for r in result.records] == [
        h for h in hashes if h in {r.spec_hash for r in result.records}
    ]
