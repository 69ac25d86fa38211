"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestTopologyCommand:
    def test_xpander(self, capsys):
        rc = main(["topology", "xpander", "--degree", "4", "--lift", "5",
                   "--servers", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "xpander(d=4,lift=5,shift)" in out
        assert "switches" in out and "25" in out

    def test_fattree(self, capsys):
        rc = main(["topology", "fattree", "--k", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fat-tree(k=4)" in out

    def test_oversubscribed_fattree(self, capsys):
        rc = main(["topology", "fattree", "--k", "4", "--core-fraction", "0.5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "core=0.50" in out

    def test_slimfly(self, capsys):
        rc = main(["topology", "slimfly", "--q", "5", "--servers", "2"])
        assert rc == 0
        assert "slimfly(q=5)" in capsys.readouterr().out

    def test_longhop(self, capsys):
        rc = main(["topology", "longhop", "--n", "4", "--degree", "5",
                   "--servers", "1"])
        assert rc == 0
        assert "longhop" in capsys.readouterr().out

    def test_jellyfish(self, capsys):
        rc = main(["topology", "jellyfish", "--switches", "12", "--degree",
                   "4", "--servers", "2"])
        assert rc == 0
        assert "jellyfish" in capsys.readouterr().out

    def test_unknown_kind_rejected(self):
        with pytest.raises(SystemExit):
            main(["topology", "torus"])


class TestThroughputCommand:
    def test_sweep_runs(self, capsys):
        rc = main([
            "throughput", "jellyfish", "--switches", "12", "--degree", "4",
            "--servers", "2", "--fractions", "0.5,1.0",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0.5" in out and "fraction" in out

    def test_paths_solver(self, capsys):
        rc = main([
            "throughput", "xpander", "--degree", "4", "--lift", "4",
            "--servers", "2", "--fractions", "0.5", "--solver", "paths",
        ])
        assert rc == 0

    @pytest.mark.parametrize(
        "solver, k_paths, expected",
        [
            ("highs-colgen", ["--k-paths", "4"], ("HighsColgenBackend", 4)),
            ("highs-colgen", [], ("HighsColgenBackend", 2)),
            ("paths", ["--k-paths", "4"], ("HighsPathsBackend", 4)),
            ("paths", [], ("HighsPathsBackend", 8)),
        ],
    )
    def test_k_paths_reaches_the_selected_backend(
        self, monkeypatch, capsys, solver, k_paths, expected
    ):
        """``--k-paths`` is the ``k`` of whichever backend ``--solver``
        names; without it each backend keeps its own default."""
        from repro import registry

        built = []
        resolve = registry.solver

        def spy(spec, **knobs):
            built.append(resolve(spec, **knobs))
            return built[-1]

        monkeypatch.setattr(registry, "solver", spy)
        rc = main([
            "throughput", "jellyfish", "--switches", "8", "--degree", "4",
            "--servers", "2", "--fractions", "1.0", "--solver", solver,
            *k_paths,
        ])
        assert rc == 0
        (backend,) = built
        assert (type(backend).__name__, backend.k) == expected


class TestSimulateCommand:
    def test_small_simulation(self, capsys):
        rc = main([
            "simulate", "xpander", "--degree", "4", "--lift", "4",
            "--servers", "2", "--routing", "hyb", "--pattern", "a2a",
            "--fraction", "0.5", "--rate", "500",
            "--measure-start", "0.005", "--measure-end", "0.015",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "avg_fct_ms" in out


class TestSweepCommand:
    LP_SWEEP = {
        "defaults": {
            "topology": {"family": "jellyfish", "switches": 8, "degree": 3,
                         "servers": 1, "seed": 0},
            "engine": "lp",
            "workload": {"pattern": "longest_matching"},
        },
        "grid": {"workload.fraction": [0.5, 1.0]},
    }

    def test_sweep_runs_caches_and_persists(self, tmp_path, capsys):
        spec_file = tmp_path / "sweep.json"
        spec_file.write_text(json.dumps(self.LP_SWEEP))
        cache_dir = tmp_path / "cache"
        results = tmp_path / "runs.jsonl"
        rc = main([
            "sweep", str(spec_file), "--jobs", "1",
            "--cache-dir", str(cache_dir), "--results", str(results),
            "--quiet",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 computed, 0 cached, 0 failed" in out
        assert "per_server_throughput" in out
        assert len(results.read_text().splitlines()) == 2

        # Re-running the same file is served entirely from cache.
        rc = main([
            "sweep", str(spec_file), "--jobs", "1",
            "--cache-dir", str(cache_dir), "--quiet",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 computed, 2 cached, 0 failed" in out

    def test_unloadable_spec_file_is_a_clean_error(self, tmp_path, capsys):
        missing = main(["sweep", str(tmp_path / "nope.json"), "--quiet"])
        bad = tmp_path / "broken.json"
        bad.write_text("{broken")
        malformed = main(["sweep", str(bad), "--quiet"])
        invalid = tmp_path / "warp.json"
        invalid.write_text(json.dumps({
            "topology": {"family": "fattree", "k": 4},
            "routing": "warp",
            "workload": {"pattern": "permute", "load": 0.2},
        }))
        unknown = main(["sweep", str(invalid), "--quiet"])
        err = capsys.readouterr().err
        assert missing == malformed == unknown == 2
        assert err.count("sweep: cannot load") == 3
        assert "unknown routing 'warp'" in err

    def test_failed_point_sets_exit_code(self, tmp_path, capsys):
        spec_file = tmp_path / "bad.json"
        spec_file.write_text(json.dumps({
            "topology": {"family": "fattree", "k": 5},
            "workload": {"pattern": "permute", "fraction": 1.0, "load": 0.2},
            "engine": "packet",
            "measure_start": 0.005,
            "measure_end": 0.02,
        }))
        rc = main(["sweep", str(spec_file), "--jobs", "1", "--no-cache",
                   "--retries", "0", "--quiet"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "TopologyError" in out


class TestCostCommand:
    def test_table_only(self, capsys):
        rc = main(["cost"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "215" in out and "370" in out

    def test_with_topology(self, capsys):
        rc = main(["cost", "--kind", "fattree", "--k", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "total port cost" in out


class TestCablingCommand:
    def test_xpander_report(self, capsys):
        rc = main(["cabling", "xpander", "--degree", "4", "--lift", "5",
                   "--servers", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "bundles" in out

    def test_fattree_report(self, capsys):
        rc = main(["cabling", "fattree", "--k", "4"])
        assert rc == 0

    def test_jellyfish_report(self, capsys):
        rc = main(["cabling", "jellyfish", "--switches", "12", "--degree",
                   "4", "--servers", "2"])
        assert rc == 0
