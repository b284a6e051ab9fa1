"""Reduced solution graphs for minimum vertex cover.

Evolves frozen backbones and mutual-determinations node by node along the
leaf-removal rank order, validated against an exact enumeration oracle.
"""

from .graphs import GenConfig, Graph, generate_er, parse_edge_list, write_edge_list
from .leaf_removal import RankAssignment, core_subgraph, leaf_removal_ranks
from .oracle import BudgetExceededError, enumerate_min_covers, exact_min_cover
from .rsg import NodeState, ReducedSolutionGraph, RsgInvariantError
from .solver import MbeaResult, cover_from_rsg, run_mbea
from .space import (
    Assignment,
    SolutionSet,
    SpaceDiff,
    SpaceSummary,
    diff_spaces,
    summarize_space,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BudgetExceededError",
    "GenConfig",
    "Graph",
    "MbeaResult",
    "NodeState",
    "RankAssignment",
    "ReducedSolutionGraph",
    "RsgInvariantError",
    "SolutionSet",
    "SpaceDiff",
    "SpaceSummary",
    "core_subgraph",
    "cover_from_rsg",
    "diff_spaces",
    "enumerate_min_covers",
    "exact_min_cover",
    "generate_er",
    "leaf_removal_ranks",
    "parse_edge_list",
    "run_mbea",
    "summarize_space",
    "write_edge_list",
]
