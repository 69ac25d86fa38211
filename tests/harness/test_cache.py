"""Content-addressed cache semantics: keying, atomicity, failure policy."""

import pytest

import repro
from repro.harness import ExperimentSpec, ResultCache, RunRecord


def spec(**over):
    base = dict(
        topology={"family": "fattree", "k": 4},
        workload={"pattern": "permute", "fraction": 0.5, "load": 0.3},
    )
    base.update(over)
    return ExperimentSpec(**base)


def ok_record(s):
    return RunRecord(
        spec=s.to_dict(), spec_hash=s.content_hash(),
        metrics={"avg_fct_ms": 1.25},
    )


class TestResultCache:
    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(str(tmp_path)).get(spec()) is None

    def test_put_then_get_round_trips(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        s = spec()
        cache.put(s, ok_record(s))
        hit = cache.get(s)
        assert hit is not None
        assert hit.cached is True
        assert hit.metrics == {"avg_fct_ms": 1.25}
        assert len(cache) == 1

    def test_name_change_still_hits(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        s = spec(name="original")
        cache.put(s, ok_record(s))
        assert cache.get(spec(name="renamed")) is not None

    def test_semantic_change_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        s = spec()
        cache.put(s, ok_record(s))
        assert cache.get(spec(seed=7)) is None

    def test_keyed_on_library_version(self, tmp_path):
        old = ResultCache(str(tmp_path), version="0.0.1")
        new = ResultCache(str(tmp_path), version="0.0.2")
        s = spec()
        old.put(s, ok_record(s))
        assert old.get(s) is not None
        assert new.get(s) is None

    def test_records_from_before_the_default_solver_switch_miss(
        self, tmp_path
    ):
        # 1.3.0 made highs-colgen the lp default.  A spec that names no
        # solver hashes as before, so only the version in the key keeps
        # edge-LP records cached by 1.2.0 from being served.
        s = spec(
            engine="lp",
            workload={"pattern": "longest_matching", "fraction": 0.5},
        )
        ResultCache(str(tmp_path), version="1.2.0").put(s, ok_record(s))
        current = ResultCache(str(tmp_path))
        assert current.version == repro.__version__ != "1.2.0"
        assert current.get(s) is None

    def test_records_from_before_the_exact_aliases_miss(self, tmp_path):
        # 1.4.0 made "exact" (and highs-exact/-batched/-incremental) an
        # alias of highs-colgen.  The spec hash is unchanged, so only the
        # version in the key keeps edge-LP records cached by 1.3.0 from
        # being served.
        s = spec(
            engine="lp",
            workload={"pattern": "longest_matching", "fraction": 0.5,
                      "solver": "exact"},
        )
        ResultCache(str(tmp_path), version="1.3.0").put(s, ok_record(s))
        assert ResultCache(str(tmp_path), version="1.3.0").get(s) is not None
        current = ResultCache(str(tmp_path))
        assert current.version == repro.__version__ != "1.3.0"
        assert current.get(s) is None

    def test_failed_records_never_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        s = spec()
        bad = ok_record(s)
        bad.status = "failed"
        with pytest.raises(ValueError, match="successful"):
            cache.put(s, bad)
        assert len(cache) == 0

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        s = spec()
        cache.put(s, ok_record(s))
        with open(cache.path(s), "w") as f:
            f.write("{truncated")
        assert cache.get(s) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        for seed in range(3):
            s = spec(seed=seed)
            cache.put(s, ok_record(s))
        assert cache.clear() == 3
        assert len(cache) == 0
