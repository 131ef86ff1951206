"""Executable documentation: the README quickstart must keep working, and
every code reference in the paper mapping must name something that exists."""

import ast
import importlib
import os
import re

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.abspath(repro.__file__))


def test_readme_quickstart_snippet():
    from repro import (
        Traverser,
        nodes_jobspec,
        simple_node_jobspec,
        tiny_cluster,
    )

    graph = tiny_cluster(racks=2, nodes_per_rack=4, cores=8)
    traverser = Traverser(graph, policy="low")

    alloc = traverser.allocate(simple_node_jobspec(cores=4, memory=8), at=0)
    assert alloc.summary().startswith("t=[0,3600)")
    assert "core:4" in alloc.summary()

    res = traverser.allocate_orelse_reserve(
        nodes_jobspec(8, duration=600), now=0
    )
    assert res.reserved is True
    assert res.at == 3600

    traverser.remove(alloc.alloc_id)


def test_api_doc_planner_snippet():
    from repro.planner import Planner

    p = Planner(total=128, plan_start=0, plan_end=2**40,
                resource_type="memory")
    sid = p.add_span(start=100, duration=3600, request=32)
    assert p.avail_at(200, 96)
    assert p.avail_during(100, 3600, 96)
    assert p.avail_resources_during(100, 3600) == 96
    assert p.avail_time_first(128, 3600, 0) == 3700
    p.update_span_end(sid, 5000)
    assert p.next_event_time(0) == 100
    p.rem_span(sid)


def test_api_doc_workflow_snippet():
    from repro import ClusterSimulator, Workflow, nodes_jobspec, tiny_cluster

    graph = tiny_cluster(racks=2, nodes_per_rack=2, cores=4)
    wf = Workflow()
    pre = wf.add_task("pre", nodes_jobspec(1, duration=100))
    wf.add_task("main", nodes_jobspec(4, duration=500), deps=[pre])
    result = wf.execute(ClusterSimulator(graph))
    assert result.makespan == 600
    assert result.critical_path_respected()


def test_recovery_doc_lists_the_command_table():
    """docs/recovery.md's journal section lists exactly the record types of
    the command table, in its order."""
    from repro.sched.simulator import COMMANDS

    with open(os.path.join(ROOT, "docs", "recovery.md")) as handle:
        text = handle.read()
    section = text.split("\n## The write-ahead journal\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    assert re.findall(r"^- `(\w+)`", section, re.M) == list(COMMANDS)


#: a code reference in backticks: ``path.py``, ``path.py::Name[.attr]`` or
#: ``[module.]Class.attr``
_REFERENCE = re.compile(
    r"^(?:[\w/]+\.py(?:::[\w.]+)?|(?:[a-z_]\w*\.)*[A-Z]\w*\.\w+)$"
)


def _classes():
    """``{class name: module name}`` for every class under ``src/repro``."""
    found = {}
    for folder, _, files in os.walk(SRC):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            module = os.path.relpath(path[:-3], os.path.dirname(SRC))
            module = module.replace(os.sep, ".").removesuffix(".__init__")
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    found.setdefault(node.name, module)
    return found


def _defines(body, name):
    """The statement of ``body`` that defines ``name``, or None."""
    for node in body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name:
            return node
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node
    return None


def _resolves(ref, classes):
    if ".py" in ref:
        path, _, name = ref.partition("::")
        for base in (ROOT, SRC):
            if os.path.isfile(os.path.join(base, path)):
                break
        else:
            return False
        with open(os.path.join(base, path), encoding="utf-8") as handle:
            node = ast.parse(handle.read())
        for part in name.split(".") if name else ():
            node = _defines(node.body, part)
            if node is None:
                return False
        return True
    *prefix, cls, attr = ref.split(".")
    module = "repro." + ".".join(prefix) if prefix else classes.get(cls)
    if module is None:
        return False
    owner = getattr(importlib.import_module(module), cls, None)
    return owner is not None and hasattr(owner, attr)


def test_paper_mapping_references_resolve():
    with open(os.path.join(ROOT, "docs", "paper_mapping.md"), encoding="utf-8") as f:
        refs = sorted({r for r in re.findall(r"`([^`]+)`", f.read())
                       if _REFERENCE.match(r)})
    classes = _classes()
    assert len(refs) >= 50
    assert [r for r in refs if not _resolves(r, classes)] == []
