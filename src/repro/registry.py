"""Unified string-spec construction registry: topologies, traffic, routing.

One discovery-and-construction surface for the objects experiments are
built from, shared by the CLI, the harness specs and the API.  Each
family of objects lives in a :class:`Registry` keyed by name:

* :data:`TOPOLOGIES` — ``fattree``, ``jellyfish``, ``xpander``,
  ``slimfly``, ``longhop``.  Factories return the family's natural
  object (a :class:`~repro.topologies.FatTree` for fat-trees, a bare
  :class:`~repro.topologies.Topology` otherwise); :func:`topology`
  unwraps to the ``Topology``.
* :data:`TRAFFIC` — pair distributions / TMs, built against a topology:
  ``a2a``, ``permute``, ``skew``, ``projector``, ``longest_matching``.
* :data:`ROUTINGS` — packet-engine routing policies (registered by
  ``repro.sim.routing``): ``ecmp``, ``vlb``, ``hyb``, ``chyb``,
  ``aecmp``, ``ksp``.
* :data:`FAILURES` — failure-scenario modes (registered by
  ``repro.resilience.scenario``): ``links``, ``switches``, ``pods``,
  ``aggregation``, ``metanodes``, ``bisection``; built scenarios apply
  through ``Topology.degrade``.
* :data:`SOLVERS` — throughput solver backends (registered by
  ``repro.solvers.backends``): ``highs-colgen``, the one exact engine
  and :data:`DEFAULT_SOLVER` (aliases ``exact``, ``highs-exact``,
  ``highs-batched``, ``highs-incremental``), and the ``highs-paths``
  lower bound (alias ``paths``); selectable from ``ExperimentSpec``
  workloads, sweep JSON, and the CLI ``--solver`` flag.
* :data:`DESIGNS` — per-family candidate enumerators for the inverse
  design search (registered by ``repro.design.space``): ``fattree``,
  ``jellyfish``, ``xpander``, ``slimfly``, ``longhop``; specs like
  ``"jellyfish:degree_max=6,sizes=3"`` bound one family's grid in a
  :class:`repro.design.DesignTarget`.

A *spec* is either a mapping (``{"family": "jellyfish", "switches": 10}``
— the harness's native form) or a compact string ``"name:key=value,..."``
with JSON-typed values::

    registry.topology("jellyfish:switches=10,degree=4,servers=2,seed=1")
    registry.routing("ksp:k=8", topo, seed=3)

Parameter names mirror the CLI flags and harness spec fields, so the
same spec works in all three front ends.  Unknown names and parameters
raise :class:`RegistryError` (a ``ValueError``) naming the valid
choices.

This module imports nothing from the rest of the library at module
level; factories are registered lazily (topologies/traffic on first
lookup, routings when ``repro.sim.routing`` loads), which keeps it
import-cycle-free and cheap to import.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

__all__ = [
    "RegistryError",
    "Registry",
    "TOPOLOGIES",
    "TRAFFIC",
    "ROUTINGS",
    "FAILURES",
    "SOLVERS",
    "DEFAULT_SOLVER",
    "DESIGNS",
    "parse_spec",
    "topology",
    "build_topology",
    "traffic",
    "routing",
    "failure",
    "solver",
    "design_space",
]


class RegistryError(ValueError):
    """Unknown registry name, bad parameters, or a malformed spec."""


class Registry:
    """Named factories for one kind of object, with discovery.

    Parameters
    ----------
    kind:
        Human-readable singular kind (``"topology"``), used in error
        messages and discovery output.
    loader:
        Optional callable run once before the first lookup; it performs
        the imports whose side effects (or explicit calls) register the
        built-in factories.  Keeps this module free of import cycles.
    """

    def __init__(self, kind: str, loader: Optional[Callable[[], None]] = None):
        self.kind = kind
        self._factories: Dict[str, Callable[..., Any]] = {}
        self._descriptions: Dict[str, str] = {}
        self._loader = loader
        self._loaded = loader is None

    def _ensure_loaded(self) -> None:
        if not self._loaded:
            # Flip first: the loader's imports may call back into this
            # registry (e.g. a module registering itself at import time).
            self._loaded = True
            self._loader()

    def register(
        self,
        name: str,
        factory: Callable[..., Any],
        description: str = "",
    ) -> Callable[..., Any]:
        """Bind ``name`` to ``factory``; re-registration replaces."""
        self._factories[name] = factory
        self._descriptions[name] = description
        return factory

    def available(self) -> Tuple[str, ...]:
        """Every registered name, sorted (CLI ``choices`` ready)."""
        self._ensure_loaded()
        return tuple(sorted(self._factories))

    def describe(self, name: str) -> str:
        """The one-line description registered with ``name``."""
        self.get(name)
        return self._descriptions[name]

    def get(self, name: str) -> Callable[..., Any]:
        """The factory behind ``name``; raises on unknown names."""
        self._ensure_loaded()
        factory = self._factories.get(name)
        if factory is None:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; valid choices: "
                + ", ".join(self.available())
            )
        return factory

    def build(self, name: str, *args: Any, **params: Any) -> Any:
        """Construct ``name`` with ``params``.

        A factory ``TypeError`` (unknown/missing parameter) is re-raised
        as :class:`RegistryError` carrying the offending parameter name.
        """
        factory = self.get(name)
        try:
            return factory(*args, **params)
        except TypeError as exc:
            raise RegistryError(
                f"cannot build {self.kind} {name!r}: {exc}"
            ) from exc

    def __contains__(self, name: str) -> bool:
        self._ensure_loaded()
        return name in self._factories

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._factories)


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------

#: Mapping keys accepted as the name field, in lookup order.
_NAME_KEYS = ("family", "pattern", "name", "kind")


def _parse_value(text: str) -> Any:
    """JSON-typed scalar parse with bare-string fallback.

    ``"4"`` → int, ``"0.5"`` → float, ``"true"`` → bool, ``"shift"`` →
    the string itself.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def parse_spec(
    spec: Any, key: str = "name"
) -> Tuple[str, Dict[str, Any]]:
    """Split a spec into ``(name, params)``.

    Strings use the compact form ``"name"`` or ``"name:k=4,seed=1"``.
    Mappings take their name from ``key`` (falling back to the other
    conventional keys — ``family``/``pattern``/``name``/``kind``) and
    pass every other entry through as parameters.
    """
    if isinstance(spec, str):
        name, sep, rest = spec.partition(":")
        name = name.strip()
        params: Dict[str, Any] = {}
        if sep:
            for item in rest.split(","):
                item = item.strip()
                if not item:
                    continue
                pkey, eq, value = item.partition("=")
                if not eq:
                    raise RegistryError(
                        f"malformed parameter {item!r} in spec {spec!r} "
                        "(expected key=value)"
                    )
                params[pkey.strip()] = _parse_value(value.strip())
        if not name:
            raise RegistryError(f"spec {spec!r} has no name")
        return name, params
    if isinstance(spec, Mapping):
        params = dict(spec)
        for candidate in (key, *_NAME_KEYS):
            if candidate in params:
                return str(params.pop(candidate)), params
        raise RegistryError(
            f"spec mapping needs a {key!r} key, got {sorted(params)}"
        )
    raise RegistryError(
        f"cannot parse a spec from {type(spec).__name__!r} "
        "(expected str or mapping)"
    )


# ----------------------------------------------------------------------
# Built-in factories
# ----------------------------------------------------------------------
def _load_topologies() -> None:
    from .topologies import (
        fattree,
        jellyfish,
        longhop,
        oversubscribed_fattree,
        slimfly,
        xpander,
    )

    def fattree_factory(k=8, core_fraction=1.0, servers=None):
        if core_fraction >= 1.0:
            return fattree(k, servers_per_edge=servers)
        return oversubscribed_fattree(k, core_fraction, servers_per_edge=servers)

    def jellyfish_factory(switches=32, degree=6, servers=4, seed=0):
        return jellyfish(switches, degree, servers, seed=seed)

    def xpander_factory(degree=6, lift=8, servers=4, matching="shift", seed=0):
        return xpander(degree, lift, servers, matching=matching, seed=seed)

    def slimfly_factory(q=5, servers=4):
        return slimfly(q, servers)

    def longhop_factory(n=5, degree=6, servers=4):
        return longhop(n, degree, servers)

    TOPOLOGIES.register(
        "fattree", fattree_factory,
        "folded-Clos fat-tree; k, core_fraction, servers",
    )
    TOPOLOGIES.register(
        "jellyfish", jellyfish_factory,
        "random regular graph; switches, degree, servers, seed",
    )
    TOPOLOGIES.register(
        "xpander", xpander_factory,
        "deterministic expander; degree, lift, servers, matching, seed",
    )
    TOPOLOGIES.register(
        "slimfly", slimfly_factory, "MMS graph; q (prime = 1 mod 4), servers"
    )
    TOPOLOGIES.register(
        "longhop", longhop_factory,
        "Cayley graph over GF(2)^n; n, degree, servers",
    )


def _load_traffic() -> None:
    from .traffic import (
        a2a_pair_distribution,
        longest_matching_tm,
        permute_pair_distribution,
        projector_like_pair_distribution,
        skew_pair_distribution,
    )

    def a2a_factory(topology, fraction=1.0, seed=0, take_first=False):
        return a2a_pair_distribution(
            topology, fraction, seed=seed, take_first=take_first
        )

    def permute_factory(topology, fraction=1.0, seed=0, take_first=False):
        return permute_pair_distribution(
            topology, fraction, seed=seed, take_first=take_first
        )

    def skew_factory(topology, theta=0.04, phi=0.77, seed=0):
        return skew_pair_distribution(topology, theta, phi, seed=seed)

    def projector_factory(topology, seed=0):
        return projector_like_pair_distribution(topology, seed=seed)

    def longest_matching_factory(topology, fraction=1.0, seed=0):
        return longest_matching_tm(topology, fraction, seed=seed)

    TRAFFIC.register(
        "a2a", a2a_factory,
        "all-to-all pair distribution over a server fraction",
    )
    TRAFFIC.register(
        "permute", permute_factory,
        "random rack-permutation pairs over a server fraction",
    )
    TRAFFIC.register(
        "skew", skew_factory, "MSR-style skewed pairs; theta, phi"
    )
    TRAFFIC.register(
        "projector", projector_factory, "ProjecToR-like heavy-tailed pairs"
    )
    TRAFFIC.register(
        "longest_matching", longest_matching_factory,
        "adversarial longest-matching TM (fluid engines)",
    )


def _load_routings() -> None:
    # Routing factories self-register at the bottom of repro.sim.routing
    # (this module cannot import sim machinery at load time).
    from .sim import routing as _routing  # noqa: F401


def _load_failures() -> None:
    # Failure-mode factories self-register at the bottom of
    # repro.resilience.scenario (which imports topologies).
    from .resilience import scenario as _scenario  # noqa: F401


def _load_solvers() -> None:
    from .solvers.backends import register_builtin_solvers

    register_builtin_solvers(SOLVERS)


def _load_designs() -> None:
    from .design.space import register_builtin_design_spaces

    register_builtin_design_spaces(DESIGNS)


TOPOLOGIES = Registry("topology", loader=_load_topologies)
TRAFFIC = Registry("traffic pattern", loader=_load_traffic)
ROUTINGS = Registry("routing", loader=_load_routings)
FAILURES = Registry("failure mode", loader=_load_failures)
SOLVERS = Registry("solver", loader=_load_solvers)
#: The :data:`SOLVERS` backend every front end solves with when no
#: solver is named: lp sweep specs, ``repro throughput``, ``skew_sweep``
#: and :class:`repro.design.DesignTarget`.  Column generation reaches the
#: edge LP's optimum (within 1e-9) with far smaller masters, and it
#: batches a sweep's points through one ``solve_many``.  The ``/v1``
#: throughput endpoints name their default ``highs-batched``, an alias
#: of this backend.
DEFAULT_SOLVER = "highs-colgen"
DESIGNS = Registry("design space", loader=_load_designs)


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------
def build_topology(spec: Any) -> Tuple[Any, Any]:
    """Build a topology spec; returns ``(topology, raw_or_None)``.

    ``raw`` is the factory's native object when it is richer than the
    bare :class:`~repro.topologies.Topology` (a ``FatTree``, whose
    layer structure the cabling model needs), else ``None``.
    """
    name, params = parse_spec(spec, key="family")
    built = TOPOLOGIES.build(name, **params)
    topo = getattr(built, "topology", built)
    return topo, (built if built is not topo else None)


def topology(spec: Any) -> Any:
    """Build a topology spec down to its :class:`Topology`."""
    return build_topology(spec)[0]


def traffic(spec: Any, topology: Any) -> Any:
    """Build a traffic pattern spec against ``topology``."""
    name, params = parse_spec(spec, key="pattern")
    return TRAFFIC.build(name, topology, **params)


def routing(spec: Any, topology: Any, **defaults: Any) -> Any:
    """Build a routing spec against ``topology`` (or a bare graph).

    ``defaults`` (e.g. ``seed=3``) fill parameters the spec itself does
    not set, so callers can thread experiment-level seeds through
    without overriding an explicit ``"ksp:seed=7"``.
    """
    name, params = parse_spec(spec, key="name")
    for pkey, value in defaults.items():
        params.setdefault(pkey, value)
    graph = getattr(topology, "graph", topology)
    return ROUTINGS.build(name, graph, **params)


def solver(spec: Any, **defaults: Any) -> Any:
    """Build a throughput solver backend from a spec.

    Accepts registry names (``"highs-colgen"``), compact strings with
    parameters (``"highs-colgen:k=4"``, ``"highs-paths:k=4"``),
    and mappings with a ``name`` key.  ``defaults`` fill parameters the
    spec itself does not set.
    """
    name, params = parse_spec(spec, key="name")
    for pkey, value in defaults.items():
        params.setdefault(pkey, value)
    return SOLVERS.build(name, **params)


def design_space(spec: Any, **defaults: Any) -> Any:
    """Build one family's design-space enumerator from a spec.

    Accepts bare family names (``"jellyfish"``), compact strings with
    grid bounds (``"jellyfish:degree_max=6,sizes=3"``), and mappings
    with a ``family`` key.  ``defaults`` fill parameters the spec
    itself does not set.
    """
    name, params = parse_spec(spec, key="family")
    for pkey, value in defaults.items():
        params.setdefault(pkey, value)
    return DESIGNS.build(name, **params)


def failure(spec: Any) -> Any:
    """Build a failure spec into a :class:`~repro.resilience.FailureScenario`.

    Accepts compact strings (``"links:fraction=0.08,seed=3"``,
    ``"pods:count=1"``), mappings with a ``mode`` key (the harness's
    JSON form), and — idempotently — scenario instances, so the same
    spec works in CLI flags, sweep files, and campaign files.
    """
    if hasattr(spec, "apply") and hasattr(spec, "to_spec"):
        return spec
    mode, params = parse_spec(spec, key="mode")
    return FAILURES.build(mode, **params)
