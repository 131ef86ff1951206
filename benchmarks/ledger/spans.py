"""Tracing for the ledger's traced pass, from outside the program.

``install`` replaces the public entry points of each layer with timing
wrappers for one pass; ``restore`` puts every original object back.  The
program is not edited: spans are recorded around the calls *into* a layer.

A span is ``[name, start, end, parent, call, child_s, planner, ok]``:
``parent`` is the index of the enclosing span (-1 for a call the driver
made), ``call`` the driver call it belongs to (-1 during set-up), ``child_s``
the time its child spans cover, ``planner`` the planner calls made directly
under it, aggregated as ``{op: [count, seconds]}`` (a match makes hundreds;
they are not stored one by one) and ``ok`` whether the call returned
something other than None.  A span's self time is ``end - start - child_s``.
"""

from __future__ import annotations

import importlib
from time import perf_counter
from typing import Callable, Dict, List, Tuple

# (module, class or None for a module-level function, attribute, layer)
_SPAN_TARGETS: Tuple[Tuple[str, "str | None", str, str], ...] = (
    ("repro.grug", None, "quartz", "grug"),
    ("repro.grug", None, "build_lod", "grug"),
    ("repro.grug", None, "tiny_cluster", "grug"),
    ("repro.sched.simulator", "ClusterSimulator", "step", "sched.simulator"),
    ("repro.sched.simulator", "ClusterSimulator", "report", "sched.simulator"),
    ("repro.sched.simulator", "ClusterSimulator", "submit", "sched.simulator"),
    ("repro.sched.queue", "FCFSQueue", "cycle", "sched.queue"),
    ("repro.sched.queue", "EasyBackfill", "cycle", "sched.queue"),
    ("repro.sched.queue", "ConservativeBackfill", "cycle", "sched.queue"),
    ("repro.match.traverser", "Traverser", "allocate", "match"),
    ("repro.match.traverser", "Traverser", "allocate_orelse_reserve", "match"),
    ("repro.match.traverser", "Traverser", "remove", "match"),
    ("repro.match.traverser", "Traverser", "satisfiable", "match"),
    ("repro.resilience.auditor", "InvariantAuditor", "check", "resilience"),
    ("repro.resilience.overload", "OverloadController", "run_cycle", "resilience"),
    ("repro.recovery.manager", "RecoveryManager", "record", "recovery"),
    ("repro.recovery.manager", "RecoveryManager", "after_event", "recovery"),
    ("repro.recovery.manager", "RecoveryManager", "snapshot", "recovery"),
    ("repro.recovery.integrity", "IntegrityMonitor", "scrub_cycle", "recovery"),
)

_PLANNER_METHODS = (
    "add_span",
    "rem_span",
    "avail_at",
    "avail_during",
    "avail_resources_during",
    "avail_time_first",
    "next_event_time",
)
# PlannerMulti's ops are kept apart ("multi.add_span") so the count of
# single-pool bookings — the 30 add_span calls per allocation — stays exact.
_PLANNER_TARGETS = tuple(
    ("repro.planner.planner", "Planner", m, m) for m in _PLANNER_METHODS
) + tuple(
    ("repro.planner.multi", "PlannerMulti", m, "multi." + m)
    for m in _PLANNER_METHODS
)


class Tracer:
    """In-memory span store; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: List[Tuple[str, str]] = []  # (span name, layer)
        self.spans: List[list] = []
        self.call = -1  # driver call id; -1 during set-up
        self._stack: List[int] = []
        self._in_planner = False
        #: every call to a wrapped planner method, nested ones included
        self.planner_calls: Dict[str, int] = {}
        #: planner calls the driver made itself (no enclosing span)
        self.root_planner: Dict[str, List[float]] = {}
        #: the two tables above as they stood when set-up ended
        self.setup_planner_calls: Dict[str, int] = {}
        self.setup_root_planner: Dict[str, List[float]] = {}
        #: queue depth seen by the queue policy: [cycles, total, peak]
        self.pending = [0, 0, 0]
        self._restore: List[Tuple[object, str, object]] = []

    # -- span recording --------------------------------------------------
    def start_timed(self) -> None:
        """Set-up is over: driver calls are numbered from 0 from here on."""
        self.call = -1
        self.setup_planner_calls = dict(self.planner_calls)
        self.setup_root_planner = {
            op: list(entry) for op, entry in self.root_planner.items()
        }

    def begin(self, name: int) -> None:
        stack = self._stack
        spans = self.spans
        spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                      self.call, 0.0, None, False])
        stack.append(len(spans) - 1)
        spans[-1][1] = perf_counter()

    def end(self, ok: bool = True) -> None:
        now = perf_counter()
        stack = self._stack
        span = self.spans[stack.pop()]
        span[2] = now
        span[7] = ok
        if stack:
            self.spans[stack[-1]][5] += now - span[1]

    def _span_wrapper(self, original: Callable, name: int, is_cycle: bool):
        begin, end, pending = self.begin, self.end, self.pending

        if is_cycle:
            def wrapper(policy, jobs, *args, **kwargs):
                depth = len(jobs)
                pending[0] += 1
                pending[1] += depth
                if depth > pending[2]:
                    pending[2] = depth
                begin(name)
                try:
                    return original(policy, jobs, *args, **kwargs)
                finally:
                    end()
        else:
            def wrapper(*args, **kwargs):
                ok = False
                begin(name)
                try:
                    result = original(*args, **kwargs)
                    ok = result is not None
                    return result
                finally:
                    end(ok)

        wrapper.__wrapped__ = original
        return wrapper

    def _planner_wrapper(self, original: Callable, op: str):
        calls = self.planner_calls
        calls.setdefault(op, 0)

        def wrapper(*args, **kwargs):
            calls[op] += 1
            if self._in_planner:  # the planner layer calling itself
                return original(*args, **kwargs)
            self._in_planner = True
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                spent = perf_counter() - start
                self._in_planner = False
                if self._stack:
                    parent = self.spans[self._stack[-1]]
                    parent[5] += spent
                    table = parent[6]
                    if table is None:
                        table = parent[6] = {}
                else:
                    table = self.root_planner
                entry = table.get(op)
                if entry is None:
                    table[op] = [1, spent]
                else:
                    entry[0] += 1
                    entry[1] += spent

        wrapper.__wrapped__ = original
        return wrapper

    # -- patching ----------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every target; call :meth:`restore` when the pass is over."""
        for module_name, cls_name, attr, layer in _SPAN_TARGETS:
            owner = _owner(module_name, cls_name)
            original = vars(owner)[attr]
            self.names.append((f"{cls_name or 'grug'}.{attr}", layer))
            wrapped = self._span_wrapper(
                original, len(self.names) - 1, is_cycle=attr == "cycle"
            )
            self._patch(owner, attr, original, wrapped)
        for module_name, cls_name, attr, op in _PLANNER_TARGETS:
            owner = _owner(module_name, cls_name)
            original = vars(owner)[attr]
            self._patch(owner, attr, original,
                        self._planner_wrapper(original, op))
        return self

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def patched(self) -> List[Tuple[object, str, object]]:
        """(owner, attribute, original object) of everything now wrapped."""
        return list(self._restore)

    def dump(self) -> dict:
        return {
            "names": [list(n) for n in self.names],
            "spans": self.spans,
            "planner_calls": self.planner_calls,
            "root_planner": self.root_planner,
            "setup_planner_calls": self.setup_planner_calls,
            "setup_root_planner": self.setup_root_planner,
            "pending": self.pending,
        }


def _owner(module_name: str, cls_name: "str | None"):
    module = importlib.import_module(module_name)
    return module if cls_name is None else getattr(module, cls_name)
