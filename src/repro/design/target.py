"""Declarative design targets: "cheapest network meeting this SLO".

A :class:`DesignTarget` is the input document of the inverse-design
search (:mod:`repro.design.search`): how many servers the network must
host, the throughput SLO those servers must meet under the paper's
longest-matching load model, and optional floors on resilience
(throughput retained under a failure scenario, as in
``python -m repro resilience``) and expandability (normalized spectral
gap — the expander quality behind Jellyfish/Xpander's incremental
growth story).  Everything else bounds or parameterizes the search:
the switch radix, the candidate families, the port-cost technology
(paper Table 1), the solver backend.

Targets are plain JSON documents (the CLI reads them from a file, the
API from the request body)::

    {
      "servers": 48,
      "throughput_per_server": 0.3,
      "fraction": 1.0,
      "families": ["fattree", "jellyfish", "xpander"],
      "max_switches": 24,
      "radix": 10,
      "resilience": {"failures": "links:fraction=0.05,seed=1",
                     "min_retained": 0.7}
    }

Validation is strict — unknown keys raise :class:`DesignError` (a
``ValueError``, so the API layer classifies it as a 400 ``bad_spec``)
— and :func:`design_target_schema` serves the JSON Schema under
``GET /v1/schema`` with the same drift guard the ExperimentSpec schema
uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Tuple

from ..cost import PORT_COSTS
from ..registry import DEFAULT_SOLVER

__all__ = [
    "DesignError",
    "ResilienceTarget",
    "DesignTarget",
    "design_target_schema",
]


class DesignError(ValueError):
    """A design target (or design request) is malformed."""


@dataclass(frozen=True)
class ResilienceTarget:
    """Optional resilience floor: retained throughput under failures.

    ``failures`` is any :data:`repro.registry.FAILURES` spec (compact
    string or mapping); ``min_retained`` is the fraction of the healthy
    design's per-server throughput that must survive the scenario.
    """

    failures: Any
    min_retained: float = 0.9

    def __post_init__(self) -> None:
        if not self.failures:
            raise DesignError("resilience needs a 'failures' scenario spec")
        if not 0 < self.min_retained <= 1:
            raise DesignError(
                f"min_retained must be in (0, 1], got {self.min_retained}"
            )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResilienceTarget":
        if not isinstance(data, Mapping):
            raise DesignError(
                f"'resilience' must be an object, got {type(data).__name__}"
            )
        unknown = set(data) - {"failures", "min_retained"}
        if unknown:
            raise DesignError(
                f"unknown resilience keys {sorted(unknown)} "
                "(expected failures, min_retained)"
            )
        return cls(
            failures=data.get("failures"),
            min_retained=float(data.get("min_retained", 0.9)),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {"failures": self.failures, "min_retained": self.min_retained}


@dataclass(frozen=True)
class DesignTarget:
    """One inverse-design question, fully declarative.

    Attributes
    ----------
    servers:
        Minimum number of servers the network must host.
    throughput_per_server:
        The SLO: per-server throughput (fraction of line rate) every
        design must achieve under the longest-matching TM at
        ``fraction`` load.
    fraction:
        Longest-matching server fraction in (0, 1] (the load model's
        x-axis in the paper's Fig. 2).
    per_server_demand:
        Demand per active server in units of line rate.
    seed:
        Master seed for TM generation and seeded constructions.
    solver:
        Solver-backend spec for the LP stage (any
        :data:`repro.registry.SOLVERS` name; default
        :data:`repro.registry.DEFAULT_SOLVER`, ``highs-colgen``).
    families:
        Candidate topology families (``()`` = every registered design
        space).
    space:
        Per-family design-space spec overrides, e.g.
        ``{"jellyfish": "jellyfish:degree_max=6,sizes=3"}``.
    max_switches:
        Hard cap on candidate switch counts.
    radix:
        Ports per switch; candidates needing more network + server
        ports per switch are infeasible.
    port_cost:
        Pricing technology from paper Table 1: ``static``, ``firefly``,
        ``projector-low``, ``projector-high``.
    max_cost:
        Optional budget in dollars; costlier candidates are pruned.
    resilience:
        Optional :class:`ResilienceTarget` floor.
    min_expandability:
        Optional floor on the expandability score (normalized spectral
        gap in [0, 1]; expanders score high, fat-trees low).
    sensitivity:
        Whether the report includes the one-parameter-at-a-time
        tornado table.
    sensitivity_rel:
        Relative perturbation used by the sensitivity sweep.
    name:
        Cosmetic label carried through to the report.
    """

    servers: int
    throughput_per_server: float
    fraction: float = 1.0
    per_server_demand: float = 1.0
    seed: int = 0
    solver: str = DEFAULT_SOLVER
    families: Tuple[str, ...] = ()
    space: Mapping[str, Any] = field(default_factory=dict)
    max_switches: int = 64
    radix: int = 32
    port_cost: str = "static"
    max_cost: Optional[float] = None
    resilience: Optional[ResilienceTarget] = None
    min_expandability: Optional[float] = None
    sensitivity: bool = True
    sensitivity_rel: float = 0.1
    name: str = ""

    def __post_init__(self) -> None:
        if self.servers < 1:
            raise DesignError(f"servers must be >= 1, got {self.servers}")
        if not 0 < self.throughput_per_server <= 1:
            raise DesignError(
                "throughput_per_server must be in (0, 1], got "
                f"{self.throughput_per_server}"
            )
        if not 0 < self.fraction <= 1:
            raise DesignError(
                f"fraction must be in (0, 1], got {self.fraction}"
            )
        if self.per_server_demand <= 0:
            raise DesignError(
                f"per_server_demand must be > 0, got {self.per_server_demand}"
            )
        if self.max_switches < 2:
            raise DesignError(
                f"max_switches must be >= 2, got {self.max_switches}"
            )
        if self.radix < 2:
            raise DesignError(f"radix must be >= 2, got {self.radix}")
        if not isinstance(self.solver, str) or not self.solver:
            raise DesignError(
                f"solver must be a non-empty spec string, got {self.solver!r}"
            )
        if self.families:
            from .. import registry

            valid = set(registry.DESIGNS.available())
            bad = sorted(set(self.families) - valid)
            if bad:
                raise DesignError(
                    f"unknown design families {bad}; registered: "
                    + ", ".join(sorted(valid))
                )
        if self.port_cost not in PORT_COSTS:
            raise DesignError(
                f"unknown port_cost {self.port_cost!r}; valid choices: "
                + ", ".join(sorted(PORT_COSTS))
            )
        if self.max_cost is not None and self.max_cost <= 0:
            raise DesignError(f"max_cost must be > 0, got {self.max_cost}")
        if self.min_expandability is not None and not (
            0 <= self.min_expandability <= 1
        ):
            raise DesignError(
                "min_expandability must be in [0, 1], got "
                f"{self.min_expandability}"
            )
        if not 0 < self.sensitivity_rel < 1:
            raise DesignError(
                f"sensitivity_rel must be in (0, 1), got {self.sensitivity_rel}"
            )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DesignTarget":
        """Build and validate a target from its JSON form (strict keys)."""
        if not isinstance(data, Mapping):
            raise DesignError(
                f"design target must be an object, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise DesignError(
                f"unknown design-target keys {sorted(unknown)}; "
                f"valid keys: {sorted(known)}"
            )
        body = dict(data)
        if "servers" not in body:
            raise DesignError("design target needs a 'servers' count")
        if "throughput_per_server" not in body:
            raise DesignError(
                "design target needs a 'throughput_per_server' SLO"
            )
        if body.get("resilience") is not None:
            body["resilience"] = ResilienceTarget.from_dict(body["resilience"])
        families = body.get("families", ())
        if isinstance(families, str):
            families = (families,)
        if not isinstance(families, (list, tuple)):
            raise DesignError("'families' must be an array of family names")
        body["families"] = tuple(str(f) for f in families)
        space = body.get("space", {})
        if not isinstance(space, Mapping):
            raise DesignError("'space' must be an object of family -> spec")
        body["space"] = dict(space)
        try:
            body["servers"] = int(body["servers"])
            body["throughput_per_server"] = float(body["throughput_per_server"])
        except (TypeError, ValueError) as exc:
            raise DesignError(f"bad target numbers: {exc}")
        return cls(**body)

    def to_dict(self) -> Dict[str, Any]:
        """The canonical JSON form (deterministic; drives content keys)."""
        return {
            "servers": self.servers,
            "throughput_per_server": self.throughput_per_server,
            "fraction": self.fraction,
            "per_server_demand": self.per_server_demand,
            "seed": self.seed,
            "solver": self.solver,
            "families": list(self.families),
            "space": {k: self.space[k] for k in sorted(self.space)},
            "max_switches": self.max_switches,
            "radix": self.radix,
            "port_cost": self.port_cost,
            "max_cost": self.max_cost,
            "resilience": (
                self.resilience.to_dict() if self.resilience else None
            ),
            "min_expandability": self.min_expandability,
            "sensitivity": self.sensitivity,
            "sensitivity_rel": self.sensitivity_rel,
            "name": self.name,
        }

    def replace(self, **changes: Any) -> "DesignTarget":
        """A copy with ``changes`` applied (re-validated)."""
        body = self.to_dict()
        body.update(changes)
        if isinstance(body.get("resilience"), ResilienceTarget):
            body["resilience"] = body["resilience"].to_dict()
        return DesignTarget.from_dict(body)


def design_target_schema() -> Dict[str, Any]:
    """The JSON Schema of one :class:`DesignTarget` document.

    Enumerations (families, solvers, port technologies) are read from
    the live registries so the schema cannot drift from what the
    validator accepts; a field-set guard fails loudly if the dataclass
    gains a field without a schema entry.
    """
    from .. import registry

    def number(description: str, **extra: Any) -> Dict[str, Any]:
        return {"type": "number", "description": description, **extra}

    properties: Dict[str, Dict[str, Any]] = {
        "servers": {
            "type": "integer",
            "minimum": 1,
            "description": "minimum servers the design must host",
        },
        "throughput_per_server": number(
            "SLO: per-server throughput under longest-matching load",
            exclusiveMinimum=0, maximum=1,
        ),
        "fraction": number(
            "longest-matching server fraction (load model)",
            exclusiveMinimum=0, maximum=1,
        ),
        "per_server_demand": number(
            "demand per active server (line-rate units)", exclusiveMinimum=0
        ),
        "seed": {"type": "integer", "description": "master seed"},
        "solver": {
            "type": "string",
            "description": "LP-stage solver backend spec",
        },
        "families": {
            "type": "array",
            "items": {
                "type": "string",
                "enum": list(registry.DESIGNS.available()),
            },
            "description": "candidate families (empty = all registered)",
        },
        "space": {
            "type": "object",
            "description": (
                "per-family design-space spec overrides "
                "(e.g. 'jellyfish:degree_max=6,sizes=3')"
            ),
            "additionalProperties": {"type": ["string", "object"]},
        },
        "max_switches": {
            "type": "integer",
            "minimum": 2,
            "description": "hard cap on candidate switch counts",
        },
        "radix": {
            "type": "integer",
            "minimum": 2,
            "description": "ports per switch (network + server)",
        },
        "port_cost": {
            "type": "string",
            "enum": sorted(PORT_COSTS),
            "description": "Table 1 pricing technology",
        },
        "max_cost": {
            "type": ["number", "null"],
            "description": "optional budget in dollars",
        },
        "resilience": {
            "type": ["object", "null"],
            "description": "optional retained-throughput floor",
            "properties": {
                "failures": {
                    "type": ["string", "object"],
                    "description": "failure-scenario spec",
                },
                "min_retained": number(
                    "fraction of healthy throughput retained",
                    exclusiveMinimum=0, maximum=1,
                ),
            },
            "additionalProperties": False,
        },
        "min_expandability": {
            "type": ["number", "null"],
            "description": (
                "optional floor on the normalized-spectral-gap "
                "expandability score"
            ),
        },
        "sensitivity": {
            "type": "boolean",
            "description": "include the tornado sensitivity table",
        },
        "sensitivity_rel": number(
            "relative perturbation of the sensitivity sweep",
            exclusiveMinimum=0, exclusiveMaximum=1,
        ),
        "name": {"type": "string", "description": "cosmetic label"},
    }
    declared = {f.name for f in fields(DesignTarget)}
    missing = declared - set(properties)
    extra = set(properties) - declared
    if missing or extra:  # pragma: no cover - guards schema drift
        raise RuntimeError(
            f"design schema out of sync: missing={sorted(missing)} "
            f"extra={sorted(extra)}"
        )
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "$id": "repro/design-target/1",
        "title": "DesignTarget",
        "description": (
            "Inverse-design question: the cheapest network meeting this "
            "SLO (throughput, optional resilience/expandability floors)."
        ),
        "type": "object",
        "required": ["servers", "throughput_per_server"],
        "properties": properties,
        "additionalProperties": False,
    }
