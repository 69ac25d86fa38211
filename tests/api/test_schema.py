"""The /v1/schema document must track the dataclass and the registries."""

import re

from repro import registry
from repro.api import experiment_spec_schema
from repro.api.schema import SCHEMA_ID
from repro.harness.spec import ENGINES, ExperimentSpec


def test_schema_properties_match_dataclass_fields():
    schema = experiment_spec_schema()
    assert set(schema["properties"]) == set(
        ExperimentSpec.__dataclass_fields__
    )
    assert schema["required"] == ["topology"]
    assert schema["additionalProperties"] is False
    assert schema["$id"] == SCHEMA_ID


def test_enums_are_read_from_live_registries():
    props = experiment_spec_schema()["properties"]
    assert props["topology"]["properties"]["family"]["enum"] == list(
        registry.TOPOLOGIES.available()
    )
    workload = props["workload"]["properties"]
    assert workload["pattern"]["enum"] == list(registry.TRAFFIC.available())
    assert workload["solver"]["enum"] == list(registry.SOLVERS.available())
    routing = re.compile(props["routing"]["pattern"])
    for name in registry.ROUTINGS.available():
        assert routing.match(name)
        assert routing.match(name + ":seed=3")
    assert not routing.match("warp")
    assert props["engine"]["enum"] == list(ENGINES)


def test_nullable_fields_accept_null():
    props = experiment_spec_schema()["properties"]
    for name in ("server_link_rate_bps", "short_flow_bytes", "max_sim_time"):
        assert "null" in props[name]["type"], name
    assert "null" in props["failures"]["type"]


def test_schema_is_json_serializable():
    import json

    blob = json.dumps(experiment_spec_schema())
    assert "ExperimentSpec" in blob
