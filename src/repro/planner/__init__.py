"""Planner subsystem: span-based resource/time tracking (paper §4.1).

Public names:

* :class:`Planner` — single-pool time-state tracker (one time-keyed tree,
  indexed by remaining resource once asked an earliest-time question).
* :class:`PlannerMulti` — lockstep bundle of Planners, one per resource type.
* :class:`Span`, :class:`ScheduledPoint` — the calendar records.
* :class:`RBTree` — the augmented red-black tree substrate.
"""

from .planner import Planner
from .multi import PlannerMulti
from .rbtree import RBNode, RBTree
from .span import ScheduledPoint, Span
from .trees import SPTree

__all__ = [
    "Planner",
    "PlannerMulti",
    "RBNode",
    "RBTree",
    "ScheduledPoint",
    "Span",
    "SPTree",
]
