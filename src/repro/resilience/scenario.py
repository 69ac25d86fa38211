"""Failure scenarios: frozen, seeded, content-addressed degradation specs.

A :class:`FailureScenario` describes *what fails* — independently of any
particular topology instance — and :meth:`~FailureScenario.apply` turns
it into a :class:`~repro.topologies.DegradedTopology` deterministically:
the same scenario applied to structurally equal topologies selects the
same elements in any process.  Scenarios are keyword-only, immutable,
JSON-round-trippable (:meth:`to_spec` / :meth:`from_spec`), and carry a
stable :meth:`content_hash`, so they compose with the harness's
content-addressed result cache exactly like experiment specs do.

Modes
-----
``links`` / ``switches``
    Uniform-random failures — the Jellyfish/Xpander resilience ablation.
    Select by ``fraction`` (a seeded sample of the sorted cables or
    switches), by ``count``, or by naming elements explicitly.
``pods`` / ``aggregation``
    Correlated fat-tree failures: whole-pod wipeout (a pod's aggregation
    *and* edge switches die — the paper's "fat-trees lose subtrees"
    story) and aggregation-layer attrition.  Both read the ``layer`` /
    ``pod`` node annotations the fat-tree generator stamps.
``metanodes``
    Correlated expander failure: an Xpander meta-node (one complete lift
    group) dies, via the generator's ``meta_node`` annotations.
``bisection``
    Adversarial cut: fail a fraction (or count) of the cables crossing
    the sorted-halves switch partition, approaching a bisection cut as
    the fraction approaches 1.

Applying a scenario drops any shared :class:`~repro.perf.PathCache`
entry for the degraded graph (so routing tables are rebuilt fresh) and,
when observability is enabled, emits a ``resilience.degrade`` event plus
the ``resilience.connectivity`` / ``*_retained`` gauge family.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Dict, Iterable, Optional, Tuple

from .. import obs
from ..topologies.base import Topology, TopologyError
from ..topologies.failures import (
    DegradedTopology,
    degrade_topology,
    largest_connected_component,
)

__all__ = [
    "ScenarioError",
    "FailureScenario",
    "MODES",
]


class ScenarioError(TopologyError):
    """A failure scenario is misconfigured or inapplicable to a topology."""


#: Valid scenario modes, in documentation order.
MODES = (
    "links",
    "switches",
    "pods",
    "aggregation",
    "metanodes",
    "bisection",
)

#: Modes whose random fraction must lie in [0, 1); the structural modes
#: accept a full wipeout (fraction 1.0).
_HALF_OPEN_FRACTION = ("links", "switches")


def _normalize_links(
    links: Iterable[Tuple[int, int]],
) -> Tuple[Tuple[int, int], ...]:
    out = []
    for pair in links:
        u, v = pair
        out.append((u, v) if u <= v else (v, u))
    return tuple(sorted(out))


class FailureScenario:
    """One immutable, seeded failure pattern (see module docstring).

    All parameters are keyword-only::

        FailureScenario(mode="links", fraction=0.08, seed=3)
        FailureScenario(mode="pods", count=1, lcc=True)
        FailureScenario(mode="links", links=[(0, 1), (2, 5)])

    Parameters
    ----------
    mode:
        One of :data:`MODES`.
    fraction:
        Fraction of the mode's population to fail (``[0, 1)`` for
        ``links``/``switches``, ``[0, 1]`` otherwise).
    count:
        Absolute number of elements to fail (capped at the population).
    seed:
        RNG seed for the random selection; ignored when elements are
        named explicitly.
    links / switches:
        Explicit elements (``links`` mode / ``switches`` mode only).
    lcc:
        Restrict the degraded topology to its largest connected
        component (the operational network after stranding).
    """

    __slots__ = ("mode", "fraction", "count", "seed", "links", "switches", "lcc")

    def __init__(
        self,
        *,
        mode: str,
        fraction: Optional[float] = None,
        count: Optional[int] = None,
        seed: int = 0,
        links: Optional[Iterable[Tuple[int, int]]] = None,
        switches: Optional[Iterable[int]] = None,
        lcc: bool = False,
    ) -> None:
        if mode not in MODES:
            raise ScenarioError(
                f"unknown failure mode {mode!r}; valid modes: {MODES}"
            )
        if links is not None and mode != "links":
            raise ScenarioError("explicit links need mode='links'")
        if switches is not None and mode != "switches":
            raise ScenarioError("explicit switches need mode='switches'")
        given = [
            x for x in (fraction, count, links, switches) if x is not None
        ]
        if len(given) != 1:
            raise ScenarioError(
                "a scenario needs exactly one of fraction, count, or an "
                f"explicit element list; got {len(given)} for mode {mode!r}"
            )
        if fraction is not None:
            fraction = float(fraction)
            upper_open = mode in _HALF_OPEN_FRACTION
            if not (0 <= fraction < 1 if upper_open else 0 <= fraction <= 1):
                bound = "[0, 1)" if upper_open else "[0, 1]"
                raise ScenarioError(
                    f"failure fraction must be in {bound}, got {fraction}"
                )
        if count is not None:
            count = int(count)
            if count < 0:
                raise ScenarioError(f"failure count must be >= 0, got {count}")
        if not isinstance(seed, int):
            raise ScenarioError(f"seed must be an int, got {seed!r}")
        set_ = object.__setattr__
        set_(self, "mode", mode)
        set_(self, "fraction", fraction)
        set_(self, "count", count)
        set_(self, "seed", int(seed))
        set_(
            self, "links", _normalize_links(links) if links is not None else None
        )
        set_(
            self,
            "switches",
            tuple(sorted(int(s) for s in switches))
            if switches is not None
            else None,
        )
        set_(self, "lcc", bool(lcc))

    # ------------------------------------------------------------------
    # Immutability and identity
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(
            f"FailureScenario is immutable; cannot set {name!r}"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"FailureScenario is immutable; cannot delete {name!r}"
        )

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, FailureScenario):
            return NotImplemented
        return self.to_spec() == other.to_spec()

    def __hash__(self) -> int:
        return hash(self.content_hash())

    def __repr__(self) -> str:
        parts = [f"mode={self.mode!r}"]
        for key in ("fraction", "count", "links", "switches"):
            value = getattr(self, key)
            if value is not None:
                parts.append(f"{key}={value!r}")
        parts.append(f"seed={self.seed}")
        if self.lcc:
            parts.append("lcc=True")
        return f"FailureScenario({', '.join(parts)})"

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_spec(self) -> Dict[str, Any]:
        """The JSON-ready mapping :meth:`from_spec` round-trips."""
        spec: Dict[str, Any] = {"mode": self.mode, "seed": self.seed}
        if self.fraction is not None:
            spec["fraction"] = self.fraction
        if self.count is not None:
            spec["count"] = self.count
        if self.links is not None:
            spec["links"] = [list(pair) for pair in self.links]
        if self.switches is not None:
            spec["switches"] = list(self.switches)
        if self.lcc:
            spec["lcc"] = True
        return spec

    @classmethod
    def from_spec(cls, spec: Any) -> "FailureScenario":
        """Build a scenario from a mapping, a compact string, or itself.

        Accepts :meth:`to_spec` mappings, registry-style strings such as
        ``"links:fraction=0.08,seed=3"``, and (idempotently) scenario
        instances.
        """
        if isinstance(spec, FailureScenario):
            return spec
        from ..registry import FAILURES, RegistryError, parse_spec

        try:
            mode, params = parse_spec(spec, key="mode")
            return FAILURES.build(mode, **params)
        except RegistryError as exc:
            raise ScenarioError(str(exc)) from exc

    def content_hash(self) -> str:
        """Stable SHA-256 over the canonical spec encoding."""
        blob = json.dumps(
            self.to_spec(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def _resolve_count(self, population: int) -> int:
        if self.count is not None:
            return min(self.count, population)
        return round(self.fraction * population)

    def select(
        self, topology: Topology
    ) -> Tuple[Tuple[Tuple[int, int], ...], Tuple[int, ...]]:
        """The ``(links, switches)`` this scenario fails on ``topology``.

        Deterministic in (scenario, topology structure); raises
        :class:`ScenarioError` when the topology lacks the annotations a
        correlated mode needs (pods on fat-trees, meta-nodes on
        Xpanders).
        """
        g = topology.graph
        rng = random.Random(self.seed)
        if self.mode == "links":
            if self.links is not None:
                return self.links, ()
            # Seeded sample of the sorted cables.
            edges = sorted(tuple(sorted(e)) for e in g.edges())
            return tuple(rng.sample(edges, self._resolve_count(len(edges)))), ()
        if self.mode == "switches":
            if self.switches is not None:
                return (), self.switches
            # Seeded sample of the switches.
            switches = topology.switches
            count = self._resolve_count(len(switches))
            return (), tuple(rng.sample(switches, count))
        if self.mode == "bisection":
            nodes = sorted(g.nodes())
            left = set(nodes[: len(nodes) // 2])
            cut = sorted(
                tuple(sorted((u, v)))
                for u, v in g.edges()
                if (u in left) != (v in left)
            )
            return tuple(rng.sample(cut, self._resolve_count(len(cut)))), ()
        if self.mode == "metanodes":
            metas = sorted(
                {
                    data["meta_node"]
                    for _, data in g.nodes(data=True)
                    if "meta_node" in data
                }
            )
            if not metas:
                raise ScenarioError(
                    "mode 'metanodes' needs meta_node annotations "
                    "(xpander topologies)"
                )
            chosen = set(rng.sample(metas, self._resolve_count(len(metas))))
            return (), tuple(
                sorted(
                    v
                    for v, data in g.nodes(data=True)
                    if data.get("meta_node") in chosen
                )
            )
        # Fat-tree correlated modes read the generator's layer/pod stamps.
        layers = {
            v: data.get("layer")
            for v, data in g.nodes(data=True)
            if "layer" in data
        }
        if not layers:
            raise ScenarioError(
                f"mode {self.mode!r} needs layer/pod annotations "
                "(fat-tree topologies)"
            )
        if self.mode == "aggregation":
            aggs = sorted(v for v, lay in layers.items() if lay == "agg")
            return (), tuple(
                sorted(rng.sample(aggs, self._resolve_count(len(aggs))))
            )
        # pods: every agg + edge switch of the chosen pods dies.
        pods = sorted(
            {
                data["pod"]
                for _, data in g.nodes(data=True)
                if data.get("pod", -1) >= 0
            }
        )
        if not pods:
            raise ScenarioError(
                "mode 'pods' needs pod annotations (fat-tree topologies)"
            )
        chosen_pods = set(rng.sample(pods, self._resolve_count(len(pods))))
        return (), tuple(
            sorted(
                v
                for v, data in g.nodes(data=True)
                if data.get("pod", -1) in chosen_pods
            )
        )

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply(self, topology: Topology) -> DegradedTopology:
        """Degrade ``topology`` under this scenario.

        Returns a :class:`~repro.topologies.DegradedTopology` carrying
        full provenance.  Any shared path cache entry for the degraded
        graph is invalidated so ECMP tables and path sets are rebuilt
        against the degraded structure, and the obs degradation event /
        connectivity gauges are emitted when a run is active.
        """
        with obs.span("resilience.degrade", mode=self.mode):
            links, switches = self.select(topology)
            degraded = degrade_topology(
                topology, links=links, switches=switches, scenario=self
            )
            connectivity = degraded.connectivity()
            if self.lcc:
                degraded = largest_connected_component(degraded)
            from ..perf import invalidate_shared_cache

            invalidate_shared_cache(degraded.graph)
        obs.add("resilience.degrades")
        obs.event(
            "resilience.degrade",
            mode=self.mode,
            scenario=self.content_hash()[:12],
            topology=topology.name,
            failed_links=len(degraded.failed_links),
            failed_switches=len(degraded.failed_switches),
            connectivity=round(connectivity, 6),
        )
        obs.set_gauge("resilience.connectivity", connectivity)
        obs.set_gauge("resilience.links_retained", degraded.links_retained)
        obs.set_gauge(
            "resilience.switches_retained", degraded.switches_retained
        )
        return degraded


# ----------------------------------------------------------------------
# Registry bindings (see repro.registry)
# ----------------------------------------------------------------------
from ..registry import FAILURES as _FAILURES  # noqa: E402


def _mode_factory(mode: str):
    def factory(**params: Any) -> FailureScenario:
        return FailureScenario(mode=mode, **params)

    factory.__name__ = f"_{mode}_scenario_factory"
    return factory


for _mode, _desc in (
    ("links", "uniform-random link failures; fraction|count|links, seed"),
    (
        "switches",
        "uniform-random switch failures; fraction|count|switches, seed",
    ),
    ("pods", "fat-tree pod wipeout (agg+edge); count|fraction, seed"),
    ("aggregation", "fat-tree aggregation-layer attrition; fraction|count"),
    ("metanodes", "xpander meta-node (lift group) wipeout; count|fraction"),
    ("bisection", "cut cables crossing the sorted-halves partition"),
):
    _FAILURES.register(_mode, _mode_factory(_mode), _desc)
