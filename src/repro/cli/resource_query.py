"""resource-query: the command-line utility of §6.1.

Reads a resource-graph generation recipe (GRUG-style YAML) or a named
preset, populates the resource graph store, then executes match commands
against it — interactively or from a batch file — printing the selected
resources and per-match time, like Fluxion's ``resource-query`` tool.

Usage::

    resource-query --preset tiny --policy low
    resource-query --grug system.yaml --prune-filters core,node < commands.txt

Commands::

    match allocate <jobspec.yaml>
    match allocate_orelse_reserve <jobspec.yaml>
    match satisfiability <jobspec.yaml>
    cancel <alloc_id>
    find <resource-type | expression>      e.g. find type=node and perf_class=2
    jgf save <file.json> | jgf load <file.json>
    outage add <path> <start> <duration> | outage cancel <id> | outage list
    drain <path> | resume <path>
    info
    stats
    quit
"""

from __future__ import annotations

import argparse
import shlex
import sys
from typing import List, Optional

from ..errors import FluxionError
from ..grug import build_from_recipe, build_lod, load_recipe_file, tiny_cluster
from ..jobspec import load_jobspec_file
from ..match import Traverser
from ..obs import wall_now
from ..resource import find_by_expression, load_jgf, save_jgf
from ..sched import CapacitySchedule

__all__ = ["main", "ResourceQuery"]

_PRESETS = {
    "tiny": lambda: tiny_cluster(),
    "high": lambda: build_lod("high"),
    "med": lambda: build_lod("med"),
    "low": lambda: build_lod("low"),
    "low2": lambda: build_lod("low2"),
}


class ResourceQuery:
    """The command interpreter behind the CLI (importable for tests)."""

    def __init__(self, graph, policy: str = "first", prune: bool = True,
                 out=None) -> None:
        self.graph = graph
        self.traverser = Traverser(graph, policy=policy, prune=prune)
        self.out = out
        self.now = graph.plan_start
        self.capacity = CapacitySchedule(graph)

    def _print(self, text: str) -> None:
        print(text, file=self.out if self.out is not None else sys.stdout)

    def execute(self, line: str) -> bool:
        """Run one command line; returns False when the session should end."""
        parts = shlex.split(line.strip())
        if not parts or parts[0].startswith("#"):
            return True
        command, args = parts[0], parts[1:]
        try:
            if command == "quit":
                return False
            if command == "match":
                self._cmd_match(args)
            elif command == "cancel":
                self._cmd_cancel(args)
            elif command == "find":
                self._cmd_find(args)
            elif command == "jgf":
                self._cmd_jgf(args)
            elif command == "outage":
                self._cmd_outage(args)
            elif command in ("drain", "resume"):
                self._cmd_status(command, args)
            elif command == "info":
                self._cmd_info()
            elif command == "stats":
                self._cmd_stats()
            else:
                self._print(f"ERROR: unknown command {command!r}")
        except FluxionError as exc:
            self._print(f"ERROR: {exc}")
        except OSError as exc:
            self._print(f"ERROR: {exc}")
        return True

    def _cmd_match(self, args: List[str]) -> None:
        if len(args) != 2:
            self._print("usage: match <verb> <jobspec.yaml>")
            return
        verb, path = args
        if verb not in ("allocate", "allocate_orelse_reserve", "reserve",
                        "satisfiability"):
            self._print(f"ERROR: unknown match verb {verb!r}")
            return
        jobspec = load_jobspec_file(path)
        # interactive benchmarking CLI: wall-clock timing is the point,
        # read through the audited repro.obs.clock shim
        start = wall_now()
        if verb == "allocate":
            alloc = self.traverser.allocate(jobspec, at=self.now)
        elif verb in ("allocate_orelse_reserve", "reserve"):
            alloc = self.traverser.allocate_orelse_reserve(jobspec, now=self.now)
        elif verb == "satisfiability":
            ok = self.traverser.satisfiable(jobspec)
            elapsed = wall_now() - start
            self._print(f"INFO: satisfiability: {'yes' if ok else 'no'}")
            self._print(f"INFO: match time: {elapsed * 1e3:.3f} ms")
            return
        else:  # pragma: no cover - guarded above
            raise AssertionError(verb)
        elapsed = wall_now() - start
        if alloc is None:
            self._print("INFO: no match")
        else:
            kind = "reserved" if alloc.reserved else "allocated"
            self._print(f"INFO: {kind} id={alloc.alloc_id} {alloc.summary()}")
            for sel in alloc.resources():
                self._print(
                    f"      {sel.vertex.path('containment')}"
                    f" {sel.type}:{sel.amount}{'!' if sel.exclusive else ''}"
                )
        self._print(f"INFO: match time: {elapsed * 1e3:.3f} ms")

    def _cmd_cancel(self, args: List[str]) -> None:
        if len(args) != 1 or not args[0].isdigit():
            self._print("usage: cancel <alloc_id>")
            return
        self.traverser.remove(int(args[0]))
        self._print(f"INFO: canceled {args[0]}")

    def _cmd_find(self, args: List[str]) -> None:
        if not args:
            self._print("usage: find <resource-type | expression>")
            return
        criteria = " ".join(args)
        if len(args) == 1 and "=" not in criteria and "<" not in criteria \
                and ">" not in criteria:
            matches = self.graph.find(type=criteria)
        else:
            matches = find_by_expression(self.graph, criteria)
        for vertex in matches[:50]:
            self._print(
                f"      {vertex.path('containment')} size={vertex.size}"
            )
        self._print(f"INFO: {len(matches)} vertices match {criteria!r}")

    def _cmd_jgf(self, args: List[str]) -> None:
        if len(args) != 2 or args[0] not in ("save", "load"):
            self._print("usage: jgf save|load <file.json>")
            return
        verb, path = args
        if verb == "save":
            save_jgf(self.graph, path)
            self._print(f"INFO: wrote {self.graph.vertex_count} vertices to {path}")
        else:
            if self.traverser.allocations:
                self._print("ERROR: cancel all allocations before jgf load")
                return
            self.graph = load_jgf(path)
            self.traverser = Traverser(
                self.graph, policy=self.traverser.policy,
                prune=self.traverser.prune,
            )
            self.capacity = CapacitySchedule(self.graph)
            self._print(f"INFO: loaded {self.graph.vertex_count} vertices from {path}")

    def _cmd_outage(self, args: List[str]) -> None:
        if args and args[0] == "list":
            for outage in self.capacity.outages.values():
                self._print(
                    f"      #{outage.outage_id} {outage.vertex.path('containment')}"
                    f" [{outage.start},{outage.end}) {outage.reason}"
                )
            self._print(f"INFO: {len(self.capacity.outages)} planned outages")
            return
        if len(args) == 2 and args[0] == "cancel" and args[1].isdigit():
            self.capacity.cancel(int(args[1]))
            self._print(f"INFO: canceled outage {args[1]}")
            return
        if len(args) == 4 and args[0] == "add" and args[2].isdigit() \
                and args[3].isdigit():
            vertex = self.graph.by_path(args[1])
            outage = self.capacity.add_outage(
                vertex, int(args[2]), int(args[3])
            )
            self._print(
                f"INFO: outage #{outage.outage_id} on {args[1]} "
                f"[{outage.start},{outage.end})"
            )
            return
        self._print(
            "usage: outage add <path> <start> <duration> | "
            "outage cancel <id> | outage list"
        )

    def _cmd_status(self, command: str, args: List[str]) -> None:
        if len(args) != 1:
            self._print(f"usage: {command} <path>")
            return
        vertex = self.graph.by_path(args[0])
        if command == "drain":
            self.graph.mark_down(vertex)
        else:
            self.graph.mark_up(vertex)
        self._print(f"INFO: {args[0]} is now {vertex.status}")

    def _cmd_info(self) -> None:
        totals = ", ".join(
            f"{rtype}:{count}"
            for rtype, count in sorted(self.graph.total_by_type().items())
        )
        self._print(
            f"INFO: {self.graph.vertex_count} vertices, "
            f"{self.graph.edge_count} edges, subsystems="
            f"{list(self.graph.subsystems)}"
        )
        self._print(f"INFO: totals: {totals}")

    def _cmd_stats(self) -> None:
        counter = self.traverser.metrics.counter
        keys = ("visits", "matched", "failed", "reserve_iters")
        stats = ", ".join(f"{k}={counter('dfu.' + k).value}" for k in keys)
        self._print(f"INFO: {stats}")
        self._print(
            f"INFO: active allocations: {len(self.traverser.allocations)}"
        )
        for line in self.traverser.metrics.render().splitlines():
            self._print(f"INFO: {line}")


def _build_graph(args) -> object:
    if args.grug:
        graph = load_recipe_file(args.grug)
    elif args.preset:
        graph = _PRESETS[args.preset]()
    else:
        graph = tiny_cluster()
    if args.prune_filters:
        types = [t.strip() for t in args.prune_filters.split(",") if t.strip()]
        graph.install_pruning_filters(types, at_types=["rack", "node"])
    return graph


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="resource-query",
        description="Match jobspecs against a generated resource graph "
        "(reproduction of Fluxion's resource-query, paper §6.1).",
    )
    parser.add_argument("--grug", help="GRUG-style recipe YAML file")
    parser.add_argument(
        "--preset", choices=sorted(_PRESETS), help="built-in system preset"
    )
    parser.add_argument(
        "--policy",
        default="first",
        help="match policy: first/high/low/locality/variation",
    )
    parser.add_argument(
        "--prune-filters",
        help="comma-separated resource types to track in pruning filters "
        "(replaces any filters the recipe installed)",
    )
    parser.add_argument(
        "--no-prune", action="store_true", help="disable pruning during match"
    )
    parser.add_argument(
        "-f", "--file", help="read commands from this file instead of stdin"
    )
    args = parser.parse_args(argv)
    try:
        graph = _build_graph(args)
    except (FluxionError, OSError) as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    query = ResourceQuery(graph, policy=args.policy, prune=not args.no_prune)
    query._cmd_info()
    if args.file:
        with open(args.file, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    else:
        lines = sys.stdin
    for line in lines:
        if not query.execute(line):
            break
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
