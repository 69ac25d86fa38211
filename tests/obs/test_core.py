"""Tests for the obs run lifecycle, spans, trace, and manifest."""

import json
import os
import threading
import time

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _no_leaked_run():
    """Every test starts and ends with observability disabled."""
    obs.disable()
    yield
    obs.disable()


class TestDisabledNoOps:
    def test_module_api_is_inert(self):
        assert not obs.enabled()
        assert obs.current() is None
        obs.add("c")
        obs.set_gauge("g", 1.0)
        obs.observe("h", 0.5)
        obs.event("e", detail=1)
        assert obs.snapshot() == {}

    def test_span_is_shared_null_singleton(self):
        s1 = obs.span("a")
        s2 = obs.span("b", attr=1)
        assert s1 is s2  # no allocation while disabled
        with s1:
            pass

    def test_null_span_overhead_is_small(self):
        """Disabled instrumentation must be orders cheaper than work."""
        n = 20_000
        t0 = time.perf_counter()
        for _ in range(n):
            with obs.span("x"):
                pass
            obs.add("c")
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.5  # ~microseconds per call, generous CI margin


class TestRunLifecycle:
    def test_enable_twice_raises(self):
        obs.enable()
        with pytest.raises(RuntimeError):
            obs.enable()

    def test_disable_returns_none_without_run_dir(self):
        obs.enable()
        assert obs.disable() is None
        assert not obs.enabled()

    def test_session_context_manager(self, tmp_path):
        with obs.session(str(tmp_path)) as run:
            assert obs.current() is run
            obs.add("k", 3)
        assert not obs.enabled()
        assert (tmp_path / "manifest.json").exists()

    def test_finalize_idempotent(self, tmp_path):
        run = obs.enable(str(tmp_path))
        obs.add("k")
        first = obs.disable()
        assert first == run.finalize()


class TestSpans:
    def test_nested_spans_record_parents(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner", depth=2):
                pass
        run = obs.current()
        names = {s["name"]: s for s in run.spans}
        assert names["inner"]["parent"] == "outer"
        assert names["outer"]["parent"] is None
        assert names["inner"]["attrs"] == {"depth": 2}

    def test_threaded_spans_nest_per_thread(self):
        """Each thread's inner span is parented by its own outer span,
        even while every other thread holds a span open too."""
        obs.enable()
        threads_n, rounds = 6, 20
        barrier = threading.Barrier(threads_n)

        def worker(i):
            for _ in range(rounds):
                with obs.span(f"outer-{i}"):
                    barrier.wait(timeout=10)
                    with obs.span(f"inner-{i}"):
                        barrier.wait(timeout=10)
                        with obs.span(f"leaf-{i}"):
                            pass

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        spans = obs.current().spans
        assert len(spans) == 3 * threads_n * rounds
        for rec in spans:
            kind, i = rec["name"].split("-")
            expected = {"outer": None, "inner": f"outer-{i}",
                        "leaf": f"inner-{i}"}[kind]
            assert rec["parent"] == expected, rec

    def test_annotate_adds_attrs_before_the_span_records(self):
        obs.enable()
        with obs.span("solve", backend="b") as span:
            span.annotate(rounds=3)
        (rec,) = obs.current().spans
        assert rec["attrs"] == {"backend": "b", "rounds": 3}
        obs.disable()
        with obs.span("off") as span:
            span.annotate(rounds=3)  # the disabled no-op span accepts it

    def test_span_summary_aggregates(self):
        run = obs.enable()
        run.record_span("stage", 0.0, 0.25)
        run.record_span("stage", 0.5, 0.75)
        agg = run.span_summary()["stage"]
        assert agg["count"] == 2
        assert agg["total_s"] == pytest.approx(1.0)
        assert agg["min_s"] == pytest.approx(0.25)
        assert agg["max_s"] == pytest.approx(0.75)

    def test_retrospective_span_uses_explicit_timing(self):
        run = obs.enable()
        start = time.perf_counter()
        run.record_span("task", start, 0.1, attrs={"name": "p0"})
        (rec,) = run.spans
        assert rec["duration_s"] == pytest.approx(0.1)
        assert rec["attrs"]["name"] == "p0"


class TestOutput:
    def test_trace_is_sorted_jsonl(self, tmp_path):
        with obs.session(str(tmp_path)) as run:
            run.record_span("late", 2.0, 0.1)
            run.record_span("early", 1.0, 0.1)
            obs.event("marker", detail="x")
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        spans = [r for r in records if r["type"] == "span"]
        assert [s["name"] for s in spans] == ["early", "late"]
        assert any(r["type"] == "event" and r["kind"] == "marker"
                   for r in records)

    def test_manifest_contents(self, tmp_path):
        with obs.session(str(tmp_path), run_id="r1", meta={"a": 1}):
            obs.add("hits", 2)
            with obs.span("stage"):
                pass
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["schema"] == obs.SCHEMA
        assert manifest["run_id"] == "r1"
        assert manifest["meta"] == {"a": 1}
        assert manifest["metrics"]["hits"]["value"] == 2
        assert manifest["spans"]["by_name"]["stage"]["count"] == 1
        assert manifest["trace_file"] == "trace.jsonl"

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        with obs.session(str(tmp_path)):
            obs.add("x")
        leftovers = [f for f in os.listdir(tmp_path)
                     if f not in ("trace.jsonl", "manifest.json")]
        assert leftovers == []
