"""Data center topology generators.

Static topologies: fat-trees (full and oversubscribed), Jellyfish (random
regular graphs), Xpander (deterministic expanders), SlimFly (MMS graphs),
LongHop (Cayley graphs over GF(2)^n).  Dynamic (reconfigurable) networks are
represented by the paper's unrestricted/restricted analytic models.
"""

from .base import Topology, TopologyError
from .cabling import (
    BUNDLING_DISCOUNT,
    CablingReport,
    FloorPlan,
    fattree_cabling,
    flat_cabling,
    xpander_cabling,
)
from .dynamic import (
    DynamicNetworkModel,
    duty_cycle,
    equal_cost_dynamic_ports,
    moore_bound_mean_distance,
    restricted_dynamic_throughput,
    unrestricted_dynamic_throughput,
)
from .failures import (
    DegradedTopology,
    degrade_topology,
    largest_connected_component,
)
from .fattree import FatTree, fattree, oversubscribed_fattree
from .jellyfish import (
    jellyfish,
    jellyfish_degree_sequence,
    random_regular_topology,
)
from .longhop import cayley_graph_gf2, longhop, select_generators, spectral_gap_gf2
from .properties import (
    TopologyProperties,
    algebraic_connectivity,
    analyze,
    bisection_bandwidth,
    distance_distribution,
    path_diversity,
    spectral_gap,
)
from .slimfly import is_valid_slimfly_q, slimfly, slimfly_network_degree
from .xpander import xpander, xpander_from_budget, xpander_num_switches

__all__ = [
    "Topology",
    "TopologyError",
    "FloorPlan",
    "CablingReport",
    "xpander_cabling",
    "fattree_cabling",
    "flat_cabling",
    "BUNDLING_DISCOUNT",
    "DegradedTopology",
    "degrade_topology",
    "largest_connected_component",
    "TopologyProperties",
    "analyze",
    "spectral_gap",
    "algebraic_connectivity",
    "bisection_bandwidth",
    "path_diversity",
    "distance_distribution",
    "FatTree",
    "fattree",
    "oversubscribed_fattree",
    "jellyfish",
    "jellyfish_degree_sequence",
    "random_regular_topology",
    "xpander",
    "xpander_from_budget",
    "xpander_num_switches",
    "slimfly",
    "slimfly_network_degree",
    "is_valid_slimfly_q",
    "longhop",
    "cayley_graph_gf2",
    "select_generators",
    "spectral_gap_gf2",
    "DynamicNetworkModel",
    "duty_cycle",
    "equal_cost_dynamic_ports",
    "moore_bound_mean_distance",
    "restricted_dynamic_throughput",
    "unrestricted_dynamic_throughput",
]
