"""Process-tree topologies: spec, config files, generators, analysis."""

from .autogen import generate_config, generate_topology
from .analysis import (
    TopologyStats,
    analyze,
    is_balanced,
    levels,
    link_transports,
    to_networkx,
)
from .generators import (
    HostAllocator,
    balanced_tree,
    balanced_tree_for,
    binomial_tree,
    flat_topology,
    knomial_tree,
    unbalanced_fig4,
)
from .parser import (
    parse_config,
    parse_config_file,
    serialize_config,
    write_config_file,
)
from .placement import LINK_KINDS, Placement, plan_placement
from .spec import TopologyError, TopologyNode, TopologySpec

__all__ = [
    "TopologyError",
    "TopologyNode",
    "TopologySpec",
    "parse_config",
    "parse_config_file",
    "serialize_config",
    "write_config_file",
    "HostAllocator",
    "flat_topology",
    "balanced_tree",
    "balanced_tree_for",
    "binomial_tree",
    "knomial_tree",
    "unbalanced_fig4",
    "generate_config",
    "generate_topology",
    "TopologyStats",
    "analyze",
    "is_balanced",
    "levels",
    "link_transports",
    "to_networkx",
    "LINK_KINDS",
    "Placement",
    "plan_placement",
]
