"""Tests for the benchmark's own logic (no workload is run).

Run from the repository root: ``python3 -m pytest e2ebench/tests -q``.
"""

from __future__ import annotations

import json
import os
import re
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import common  # noqa: E402
import spans  # noqa: E402


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = common.canonical(common.workload_inputs(workload, 3))
    again = common.canonical(common.workload_inputs(workload, 3))
    assert first == again
    assert first == common.canonical(common.workload_inputs(workload, 3 + common.VARIANTS))


@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_different_seeds_give_different_inputs(workload):
    blobs = {common.canonical(common.workload_inputs(workload, s))
             for s in range(common.VARIANTS)}
    assert len(blobs) == common.VARIANTS


def test_api_schedule_has_the_planned_mix_in_every_block():
    schedule = common.api_schedule(5, 30)
    for b in range(30):
        kinds = [r["kind"] for r in schedule[10 * b:10 * b + 10]]
        assert sorted(kinds) == sorted(common.API_BLOCK)
    misses = [r["body"]["topology"] for r in schedule if r["kind"] == "miss"]
    assert len(set(misses)) == len(misses)
    hot = {b["topology"] for b in common.api_hot_set()}
    assert all(r["body"]["topology"] in hot for r in schedule if r["kind"] == "hit")


@pytest.mark.parametrize("workload", ["fluid_sweep", "packet_fct"])
def test_unit_parts_cover_every_input(workload):
    parts = common.unit_parts(workload)
    inputs = common.workload_inputs(workload, 0)
    assert sorted({s["name"].split()[0] if workload == "fluid_sweep" else s["name"]
                   for s in inputs}) == sorted(parts)


# ----------------------------------------------------------------------
# Balanced unit
# ----------------------------------------------------------------------
def _calls(*pairs):
    return [{"part": part, "wall_s": wall} for part, wall in pairs]


def test_balanced_unit_counts_every_part_once():
    parts = ("a", "b")
    full = _calls(("a", 1.0), ("b", 3.0))
    partial = _calls(("a", 1.0), ("b", 3.0), ("a", 1.0))
    for calls in (full, partial):
        work, mean_ms, p50_ms = common.balanced_unit(parts, calls, [5] * len(calls))
        assert (work, mean_ms, p50_ms) == (10.0, 4000.0, 4000.0)


def test_balanced_unit_scales_latency_to_the_reference_work():
    calls = _calls(("a", 2.0), ("a", 1.0), ("a", 9.0))
    work, mean_ms, p50_ms = common.balanced_unit(("a",), calls, [200, 50, 300],
                                                 reference=[100])
    # Scaled to 100 work each: 1000, 2000 and 3000 ms.
    assert work == 100
    assert mean_ms == pytest.approx(2000.0)
    assert p50_ms == pytest.approx(2000.0)


def test_host_factor_scales_to_the_reference_speed():
    ref = common.PROBE_REFERENCE_S
    assert common.host_factor([ref, ref]) == pytest.approx(1.0)
    assert common.host_factor([1.5 * ref, 2.5 * ref]) == pytest.approx(2.0)
    with pytest.raises(common.BenchError):
        common.host_factor([])


def test_balanced_unit_needs_a_call_of_every_part():
    with pytest.raises(common.BenchError):
        common.balanced_unit(("a", "b"), _calls(("a", 1.0)), [1])


# ----------------------------------------------------------------------
# Tail percentile
# ----------------------------------------------------------------------
def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 101))  # 100 samples
    pct, value, n = common.tail_percentile(samples[::-1])
    assert (pct, value, n) == (90.0, 90, 100)
    assert sum(1 for s in samples if s > value) == 10


@pytest.mark.parametrize("n", [11, 12, 37, 250, 1000])
def test_tail_rule_holds_for_any_size(n):
    samples = [float(i * 7 % n) + i / n for i in range(n)]  # distinct, unsorted
    pct, value, count = common.tail_percentile(samples)
    beyond = sum(1 for s in samples if s > value)
    assert count == n
    assert beyond == 10
    # No higher sample has ten or more beyond it.
    nxt = min(s for s in samples if s > value)
    assert sum(1 for s in samples if s > nxt) < 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_without_enough_samples_falls_back_to_median():
    assert common.tail_percentile([3.0, 1.0, 2.0]) == (0.0, 2.0, 3)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def test_union_length_merges_overlaps_and_gaps():
    assert spans.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert spans.union_length([]) == 0


def test_self_time_with_nested_and_overlapping_children():
    # Parent [0, 10]; children overlap each other ([1,3] and [2,5] cover
    # [1,5]) and one runs past the parent's end (clipped to [8,10]).
    assert spans.self_time((0, 10), [(1, 3), (2, 5), (8, 12)]) == 10 - 4 - 2


def _recorder(rows):
    rec = spans.Recorder("test")
    rec.spans = [list(r) for r in rows]
    return rec


def test_layer_self_time_subtracts_only_direct_children():
    rec = _recorder([
        ("harness.run", "run", 0.0, 10.0, -1, 1),      # 0
        ("solvers.solve", "solve", 1.0, 4.0, 0, 1),    # 1: child of run
        ("perf.pathcache", "ksp", 2.0, 3.0, 1, 1),     # 2: grandchild
        ("traffic.tm", "tm", 3.5, 6.0, 0, 1),          # 3: overlaps child 1
    ])
    assert rec.layer_self_time("harness") == pytest.approx(10.0 - 5.0)
    assert rec.layer_self_time("solvers") == pytest.approx(3.0 - 1.0)
    assert rec.kind_time("traffic.tm") == pytest.approx(2.5)
    # Roots cover [0, 10] of a [0, 12] window.
    assert rec.root_coverage(0.0, 12.0) == pytest.approx(10.0)


def test_root_coverage_unions_threads():
    rec = _recorder([
        ("api.dispatch", "d", 0.0, 2.0, -1, 1),
        ("api.dispatch", "d", 1.0, 3.0, -1, 2),
    ])
    assert rec.root_coverage(0.0, 4.0) == pytest.approx(3.0)
    assert rec.kind_time("api.dispatch") == pytest.approx(4.0)


def test_spanned_records_one_span_per_outermost_call_of_a_kind():
    rec = spans.Recorder("test")
    calls = []

    def inner(x):
        return x + 1

    wrapped_inner = spans.spanned(rec, "solvers.solve", "inner", inner)

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_outer = spans.spanned(
        rec, "solvers.solve", "outer", outer,
        after=lambda r, a, k, result, state: calls.append(result))
    assert wrapped_outer(1) == 4
    assert [s[1] for s in rec.spans] == ["outer"]
    assert calls == [4]
    assert rec.counts["solvers.solve"] == 1


def test_spans_are_per_thread():
    rec = spans.Recorder("test")
    barrier = threading.Barrier(2)

    def work():
        index = rec.open("api.dispatch", "d")
        barrier.wait(timeout=5)
        rec.close(index)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
        assert not t.is_alive()
    assert [s[4] for s in rec.spans] == [-1, -1]


# ----------------------------------------------------------------------
# Closed loop and comparison
# ----------------------------------------------------------------------
class _FakeEvaluation:
    def __init__(self, body):
        self.solver = "fake"
        self.results = [{"fraction": f, "status": "optimal",
                         "per_server_throughput": f / 2} for f in body]


class _FakeClient:
    def __init__(self):
        self.seen = []

    def throughput(self, topology, fractions, seed):
        self.seen.append(seed)
        return _FakeEvaluation(fractions)


def test_closed_loop_sends_each_request_once_in_schedule_order():
    schedule = [{"kind": "miss", "body": {"topology": "t", "fractions": [1.0], "seed": i}}
                for i in range(50)]
    clients = [_FakeClient(), _FakeClient()]
    results = common.closed_loop(clients, schedule, limit=40)
    assert [r["index"] for r in results] == list(range(40))
    assert sorted(clients[0].seen + clients[1].seen) == list(range(40))
    assert all(r["error"] is None for r in results)
    assert results[0]["value"] == {"solver": "fake", "results": [[1.0, "optimal", 0.5]]}


def test_pinned_replies_round_trip():
    schedule = common.api_schedule(2, 3)
    miss = next(r for r in schedule if r["kind"] == "miss")
    sim = next(r for r in schedule if r["kind"] == "simulate")
    miss_value = {"solver": "s", "results": [[0.5, "optimal", 0.7500000000000004],
                                             [1.0, "optimal", 1 / 3]]}
    sim_value = {"status": "ok", "metrics": {"flows": 33, "unfinished": 0,
                                             "avg_fct_ms": 6.156488848634321,
                                             "short_p99_fct_ms": 0.4849920000000001,
                                             "long_avg_throughput_gbps": 0.495527818425034}}
    for request, value in ((miss, miss_value), (sim, sim_value)):
        packed = json.loads(json.dumps(common.pack_reply(request, value)))
        back = common.unpack_reply(request, packed, "s")
        assert common.values_match(back, value, 1e-9)
        assert back != value  # floats were cut to 10 digits


def test_values_match_tolerance():
    assert common.values_match({"a": [1.0, "x"]}, {"a": [1.0 + 1e-12, "x"]}, 1e-9)
    assert not common.values_match({"a": [1.1, "x"]}, {"a": [1.0, "x"]}, 1e-9)
    assert not common.values_match(None, {"a": 1.0}, 1e-9)


# ----------------------------------------------------------------------
# BENCHMARK.json <-> layers.json <-> pins.json
# ----------------------------------------------------------------------
def _load(path):
    with open(path) as f:
        return json.load(f)


def test_benchmark_json_matches_layer_map():
    bench = _load(os.path.join(common.ROOT, "BENCHMARK.json"))
    layers = _load(common.LAYERS_PATH)
    assert [w["name"] for w in bench["workloads"]] == list(common.WORKLOADS)
    assert list(layers["workloads"]) == list(common.WORKLOADS)
    assert bench["end_to_end"] == [
        {k: m[k] for k in ("name", "unit", "better", "bound")} for m in layers["end_to_end"]]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (m["name"], m["unit"]) for m in layers["per_layer"]]
    e2e = {m["name"] for m in bench["end_to_end"]}
    for m in layers["per_layer"]:
        for move in m["moves"]:
            assert move["metric"] in e2e and move["workload"] in common.WORKLOADS
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_pins_cover_every_variant_and_packet_tolerance_is_stated():
    pins = _load(common.PINS_PATH)
    for workload in ("fluid_sweep", "packet_fct", "design_search"):
        assert sorted(pins[workload]["variants"], key=int) == [
            str(v) for v in range(common.VARIANTS)]
    assert set(pins["api_mixed"]["hot"]) == {b["topology"] for b in common.api_hot_set()}
    parts = common.unit_parts("packet_fct")
    assert len(pins["packet_fct"]["reference_call_work"]) == len(parts)
    for pinned in pins["packet_fct"]["variants"].values():
        assert len(pinned["call_work"]) == len(parts)
    api = _load(common.API_PINS_PATH)
    assert api["blocks"] == common.API_PINNED_BLOCKS
    for v in range(common.VARIANTS):
        schedule = common.api_schedule(v, common.API_PINNED_BLOCKS)
        assert set(api["variants"][str(v)]) == {
            str(i) for i, r in enumerate(schedule) if r["kind"] != "hit"}
    bench = _load(os.path.join(common.ROOT, "BENCHMARK.json"))
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    stated = re.search(r"within rel ([0-9.e+-]+)", why["packet_fct"])
    assert stated and float(stated.group(1)) == pins["packet_fct"]["tolerance"]
