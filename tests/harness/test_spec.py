"""Spec serialization, content hashing, validation, and sweep expansion."""

import json

import pytest

from repro import registry
from repro.harness import ExperimentSpec, SpecError, expand_sweep, load_sweep_file


def packet_spec(**over):
    base = dict(
        topology={"family": "fattree", "k": 4},
        workload={"pattern": "permute", "fraction": 0.5, "load": 0.3},
        routing="ecmp",
        engine="packet",
        seed=0,
    )
    base.update(over)
    return ExperimentSpec(**base)


class TestContentHash:
    def test_stable_across_instances(self):
        assert packet_spec().content_hash() == packet_spec().content_hash()

    def test_name_is_cosmetic(self):
        assert (
            packet_spec(name="a").content_hash()
            == packet_spec(name="b").content_hash()
        )
        assert "name" not in packet_spec(name="a").canonical()

    def test_any_semantic_change_alters_hash(self):
        base = packet_spec().content_hash()
        assert packet_spec(seed=1).content_hash() != base
        assert packet_spec(routing="hyb").content_hash() != base
        assert (
            packet_spec(topology={"family": "fattree", "k": 6}).content_hash()
            != base
        )
        assert (
            packet_spec(
                workload={"pattern": "permute", "fraction": 0.6, "load": 0.3}
            ).content_hash()
            != base
        )

    def test_hash_ignores_dict_insertion_order(self):
        a = packet_spec(workload={"pattern": "a2a", "load": 0.3, "fraction": 1.0})
        b = packet_spec(workload={"fraction": 1.0, "load": 0.3, "pattern": "a2a"})
        assert a.content_hash() == b.content_hash()


class TestSerialization:
    def test_round_trip(self):
        spec = packet_spec(name="rt")
        clone = ExperimentSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()

    def test_unknown_field_rejected(self):
        data = packet_spec().to_dict()
        data["typo_field"] = 1
        with pytest.raises(SpecError, match="typo_field"):
            ExperimentSpec.from_dict(data)

    def test_label_falls_back_to_hash_prefix(self):
        spec = packet_spec()
        assert spec.label == spec.content_hash()[:10]
        assert packet_spec(name="fig10").label == "fig10"


class TestValidation:
    def test_unknown_engine(self):
        with pytest.raises(SpecError, match="engine"):
            packet_spec(engine="quantum").validate()

    def test_topology_needs_family(self):
        with pytest.raises(SpecError, match="family"):
            packet_spec(topology={"k": 4}).validate()

    def test_unknown_family(self):
        with pytest.raises(SpecError, match="torus"):
            packet_spec(topology={"family": "torus"}).validate()

    def test_unknown_pattern(self):
        with pytest.raises(SpecError, match="pattern"):
            packet_spec(
                workload={"pattern": "bursty", "load": 0.3}
            ).validate()

    def test_longest_matching_requires_lp(self):
        with pytest.raises(SpecError, match="lp"):
            packet_spec(
                workload={"pattern": "longest_matching", "load": 0.3}
            ).validate()

    def test_load_and_rate_mutually_exclusive(self):
        with pytest.raises(SpecError, match="exactly one"):
            packet_spec(
                workload={"pattern": "a2a", "load": 0.3, "rate": 100.0}
            ).validate()
        with pytest.raises(SpecError, match="exactly one"):
            packet_spec(workload={"pattern": "a2a"}).validate()

    def test_measure_window_ordering(self):
        with pytest.raises(SpecError, match="measure_end"):
            packet_spec(measure_start=0.06, measure_end=0.02).validate()

    def test_unknown_routing(self):
        with pytest.raises(SpecError, match="warp"):
            packet_spec(routing="warp").validate()

    def test_parameterized_routing_validates(self):
        packet_spec(routing="ksp:k=8").validate()
        packet_spec(routing="hyb:hyb_threshold_bytes=50000").validate()

    def test_malformed_routing_spec_rejected(self):
        with pytest.raises(SpecError, match="bad routing spec"):
            packet_spec(routing="ksp:k").validate()
        with pytest.raises(SpecError, match="warp"):
            packet_spec(routing="warp:k=8").validate()
        with pytest.raises(SpecError, match="must be a string"):
            packet_spec(routing={"name": "ksp"}).validate()

    def test_runtime_registered_routing_validates(self, monkeypatch):
        ecmp = registry.ROUTINGS.get("ecmp")
        monkeypatch.setitem(registry.ROUTINGS._factories, "ecmp2", ecmp)
        packet_spec(routing="ecmp2").validate()

    def test_flow_engine_routing_subset(self):
        with pytest.raises(SpecError, match="flow engine"):
            packet_spec(engine="flow", routing="ksp").validate()

    def test_lp_spec_needs_no_load(self):
        spec = ExperimentSpec(
            topology={"family": "jellyfish", "switches": 8, "degree": 3,
                      "servers": 1},
            workload={"pattern": "longest_matching", "fraction": 0.5},
            engine="lp",
        )
        spec.validate()  # must not raise


class TestSweepExpansion:
    DOC = {
        "defaults": {
            "topology": {"family": "fattree", "k": 4},
            "engine": "packet",
            "workload": {"pattern": "permute", "fraction": 0.5, "load": 0.3},
        },
        "grid": {
            "routing": ["ecmp", "hyb"],
            "workload.fraction": [0.2, 1.0],
        },
    }

    def test_grid_is_cartesian_product(self):
        specs = expand_sweep(self.DOC)
        assert len(specs) == 4
        combos = {(s.routing, s.workload["fraction"]) for s in specs}
        assert combos == {("ecmp", 0.2), ("ecmp", 1.0),
                          ("hyb", 0.2), ("hyb", 1.0)}

    def test_grid_points_are_auto_named(self):
        names = {s.name for s in expand_sweep(self.DOC)}
        assert "routing=ecmp,fraction=0.2" in names

    def test_points_deep_merge_over_defaults(self):
        doc = {
            "defaults": self.DOC["defaults"],
            "points": [{"workload": {"fraction": 0.9}}],
        }
        (spec,) = expand_sweep(doc)
        assert spec.workload["fraction"] == 0.9
        assert spec.workload["load"] == 0.3  # inherited
        assert spec.name == "point-0"

    def test_null_override_removes_inherited_key(self):
        doc = {
            "defaults": self.DOC["defaults"],
            "points": [{"workload": {"load": None, "rate": 500.0}}],
        }
        (spec,) = expand_sweep(doc)
        assert "load" not in spec.workload
        assert spec.workload["rate"] == 500.0

    def test_unknown_section_rejected(self):
        with pytest.raises(SpecError, match="matrix"):
            expand_sweep({"defaults": {}, "matrix": {}})

    def test_defaults_only_yields_one_spec(self):
        (spec,) = expand_sweep({"defaults": self.DOC["defaults"]})
        assert spec.routing == "ecmp"

    def test_invalid_grid_point_raises(self):
        doc = {
            "defaults": self.DOC["defaults"],
            "grid": {"routing": ["ecmp", "warp"]},
        }
        with pytest.raises(SpecError, match="warp"):
            expand_sweep(doc)


class TestLoadSweepFile:
    def test_sweep_document(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(TestSweepExpansion.DOC))
        assert len(load_sweep_file(str(path))) == 4

    def test_bare_list(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([packet_spec(name="a").to_dict(),
                                    packet_spec(name="b", seed=1).to_dict()]))
        specs = load_sweep_file(str(path))
        assert [s.name for s in specs] == ["a", "b"]

    def test_single_spec_object(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(packet_spec(name="solo").to_dict()))
        (spec,) = load_sweep_file(str(path))
        assert spec.name == "solo"

    def test_uninterpretable_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('"just a string"')
        with pytest.raises(SpecError):
            load_sweep_file(str(path))
