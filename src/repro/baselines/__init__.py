"""Baseline comparators: node-centric scheduler, naive list planner, and the
paper's Algorithm 1 (ET tree + AVAILAT loop) as an EarliestAt reference (§2, §4.1)."""

from .algorithm1 import Algorithm1, ETTree
from .listplanner import ListPlanner
from .nodecentric import NodeCentricAllocation, NodeCentricScheduler

__all__ = [
    "Algorithm1",
    "ETTree",
    "ListPlanner",
    "NodeCentricAllocation",
    "NodeCentricScheduler",
]
