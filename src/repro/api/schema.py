"""The ``ExperimentSpec`` JSON schema served at ``GET /v1/schema``.

Built *from* the dataclass and the registries rather than maintained by
hand: the property list is derived from
``ExperimentSpec.__dataclass_fields__`` (generation fails loudly if a
new spec field lacks a schema entry — see the guard in
:func:`experiment_spec_schema`), and every enumeration (topology
families, workload patterns, engines, solver names) and the routing
pattern are read from the live registries, so the schema can never
drift from what the validator actually accepts.
"""

from __future__ import annotations

import re
from typing import Any, Dict

from ..harness.spec import ENGINES, ExperimentSpec

__all__ = ["experiment_spec_schema", "SCHEMA_ID"]

SCHEMA_ID = "repro/experiment-spec/1"


def _number(description: str, **extra: Any) -> Dict[str, Any]:
    return {"type": "number", "description": description, **extra}


def _nullable(schema: Dict[str, Any]) -> Dict[str, Any]:
    out = dict(schema)
    out["type"] = [schema["type"], "null"]
    return out


def _routing_pattern(names) -> str:
    """A registered routing name, optionally followed by ``:params``."""
    return "^(" + "|".join(re.escape(n) for n in names) + ")(:.*)?$"


def _field_schemas() -> Dict[str, Dict[str, Any]]:
    from .. import registry

    return {
        "topology": {
            "type": "object",
            "description": (
                "Topology spec: {'family': <name>, ...params}; parameter "
                "names mirror the CLI flags (see registry.TOPOLOGIES)."
            ),
            "required": ["family"],
            "properties": {
                "family": {
                    "type": "string",
                    "enum": list(registry.TOPOLOGIES.available()),
                }
            },
            "additionalProperties": True,
        },
        "workload": {
            "type": "object",
            "description": (
                "Pattern + sizing + load; see ExperimentSpec docs. "
                "Packet/flow engines need exactly one of 'load'/'rate'."
            ),
            "properties": {
                "pattern": {
                    "type": "string",
                    "enum": list(registry.TRAFFIC.available()),
                },
                "fraction": _number("server fraction in (0, 1]"),
                "theta": _number("skew pattern theta"),
                "phi": _number("skew pattern phi"),
                "take_first": {"type": "boolean"},
                "pattern_seed": {"type": "integer"},
                "sizes": {"type": "string", "enum": ["pfabric", "hull"]},
                "mean_flow_bytes": _number("mean flow size in bytes"),
                "cap_bytes": _number("hull size cap in bytes"),
                "load": _number("fraction of active-server capacity"),
                "rate": _number("aggregate flow arrivals per second"),
                "horizon": _number("workload generation horizon (s)"),
                "solver": {
                    "type": "string",
                    "enum": list(registry.SOLVERS.available()),
                },
                "k_paths": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": True,
        },
        "routing": {
            "type": "string",
            "description": (
                "routing spec, 'name' or 'name:key=value,...' (packet: "
                "any registered routing; flow: ecmp/vlb/hyb)"
            ),
            "pattern": _routing_pattern(registry.ROUTINGS.available()),
        },
        "engine": {"type": "string", "enum": list(ENGINES)},
        "seed": {"type": "integer", "description": "master seed"},
        "measure_start": _number("measurement window start (s)", minimum=0),
        "measure_end": _number("measurement window end (s)"),
        "link_rate_bps": _number("switch-switch link rate (bit/s)"),
        "server_link_rate_bps": _nullable(
            _number("server access link rate (bit/s); null = link_rate_bps")
        ),
        "hyb_threshold_bytes": {"type": "integer", "minimum": 0},
        "short_flow_bytes": _nullable(
            {"type": "integer", "description": "short-flow stats boundary"}
        ),
        "max_sim_time": _nullable(_number("hard simulated-time cap (s)")),
        "failures": {
            "type": ["string", "object", "null"],
            "description": (
                "failure scenario: compact string "
                "('links:fraction=0.08,seed=3') or mapping with a 'mode' "
                "key; null runs the healthy topology"
            ),
        },
        "name": {
            "type": "string",
            "description": "cosmetic label (excluded from the content hash)",
        },
    }


def experiment_spec_schema() -> Dict[str, Any]:
    """The JSON Schema for one :class:`ExperimentSpec` document."""
    properties = _field_schemas()
    fields = set(ExperimentSpec.__dataclass_fields__)
    missing = fields - set(properties)
    extra = set(properties) - fields
    if missing or extra:  # pragma: no cover - guards schema drift
        raise RuntimeError(
            f"schema out of sync with ExperimentSpec: missing={sorted(missing)} "
            f"extra={sorted(extra)}"
        )
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "$id": SCHEMA_ID,
        "title": "ExperimentSpec",
        "description": (
            "One evaluation point: topology + workload + routing + engine. "
            "Content-hashed over every field except 'name'."
        ),
        "type": "object",
        "required": ["topology"],
        "properties": properties,
        "additionalProperties": False,
    }
