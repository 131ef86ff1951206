"""What a booking leaves behind, and the span records a Planner keeps.

A planner's own state is the only thing a booking allocates: each scheduled
point is its SP-tree node, and the span registry holds plain
``(start, end, request, metadata or None)`` records, which CPython's cyclic
garbage collector stops tracking (and with them the registry dict).  A
:class:`Span` is a view built on demand.
"""

import gc
import json

import pytest

from repro import grug
from repro.errors import SpanNotFoundError
from repro.jobspec import simple_node_jobspec
from repro.match.traverser import Traverser
from repro.planner import Planner, PlannerMulti, Span
from repro.planner.span import NO_METADATA

#: GC-tracked objects that survived each allocation below when every point
#: was a ScheduledPoint wrapped in an RBNode and the registry held a Span
#: plus a fresh metadata dict per span
SURVIVORS_BEFORE = 252
#: the bound now: what is left is the planners' points, one SPTree and one
#: NIL sentinel per planner booked for the first time, the allocation's
#: (planner, span id) records and its selections (136 on CPython 3.11)
SURVIVORS_BOUND = 150


def _planners(graph):
    for vertex in graph.vertices():
        yield vertex.plans
        yield vertex.xplans
        if vertex.prune_filters is not None:
            for rtype in vertex.prune_filters.types:
                yield vertex.prune_filters.planner(rtype)


def test_a_booking_leaves_only_planner_state_for_the_collector():
    graph = grug.build_lod("med", 4, 18, prune_types=("core",))
    traverser = Traverser(graph, "first", prune=True)
    jobspec = simple_node_jobspec(cores=10, memory=8, ssds=1, duration=10_000)
    for _ in range(50):
        assert traverser.allocate(jobspec, 0) is not None
    gc.collect()
    before = len(gc.get_objects())
    for _ in range(200):
        assert traverser.allocate(jobspec, 0) is not None
    gc.collect()
    tracked = gc.get_objects()
    per_allocation = (len(tracked) - before) / 200
    assert per_allocation <= SURVIVORS_BOUND < SURVIVORS_BEFORE, per_allocation
    registries = {id(planner._spans) for planner in _planners(graph)}
    assert not [o for o in tracked if type(o) is Span or id(o) in registries]
    booked = [planner for planner in _planners(graph) if planner.span_count]
    assert booked
    for planner in booked:
        assert not any(gc.is_tracked(r) for r in planner._spans.values())


def _booked():
    planner = Planner(16, 0, 1000, resource_type="core")
    ids = [
        planner.add_span(10, 50, 4),
        planner.add_span(20, 100, 8, metadata={"job": 3}),
        planner.add_span(0, 10, 16),
    ]
    return planner, ids


def test_every_view_of_a_span_is_equal():
    planner, ids = _booked()
    listed = {span.span_id: span for span in planner.spans()}
    assert sorted(listed) == ids
    for sid in ids:
        span = planner.get_span(sid)
        assert span == listed[sid] and span is not listed[sid]
        assert planner.span_windows()[sid] == (span.start, span.end, span.request)
    assert planner.get_span(ids[1]).metadata == {"job": 3}
    removed = planner.rem_span(ids[1])
    assert removed == Span(ids[1], 20, 120, 8)
    assert removed.metadata == {"job": 3}
    assert sorted(s.span_id for s in planner.spans()) == [ids[0], ids[2]]
    planner.check_invariants()


def test_bundle_end_move_rolls_back_when_a_type_lost_its_span():
    multi = PlannerMulti({"core": 8, "gpu": 2}, 0, 1000)
    sid = multi.add_span(0, 100, {"core": 4, "gpu": 1})
    multi.planner("gpu").rem_span(multi.get_span(sid)["gpu"])
    with pytest.raises(SpanNotFoundError):
        multi.update_span_end(sid, 150)
    core = multi.planner("core")
    assert core.span_windows() == {multi.get_span(sid)["core"]: (0, 100, 4)}
    core.check_invariants()


def test_equality_and_hash_ignore_metadata():
    plain = Span(1, 0, 10, 4)
    tagged = Span(1, 0, 10, 4, metadata={"k": 1})
    assert plain == tagged and hash(plain) == hash(tagged)
    assert plain != Span(1, 0, 11, 4)


def test_explicit_metadata_round_trips_through_export():
    planner, ids = _booked()
    planner.update_span_end(ids[1], 200)
    restored = Planner(16, 0, 1000, resource_type="core")
    restored.import_state(planner.export_state())
    assert restored.get_span(ids[1]).metadata == {"job": 3}
    assert restored.get_span(ids[1]).end == 200
    assert restored.get_span(ids[0]).metadata == {}
    assert restored.export_state() == planner.export_state()


def test_default_metadata_is_one_shared_read_only_mapping():
    planner, ids = _booked()
    first, third = planner.get_span(ids[0]), planner.get_span(ids[2])
    assert first.metadata is third.metadata is Span(5, 0, 1, 1).metadata
    assert first.metadata is NO_METADATA and first.metadata == {}
    with pytest.raises(TypeError):
        first.metadata["job"] = 1
    assert first.replace(end=70).metadata is NO_METADATA
    assert dict(third.metadata) == {} and NO_METADATA == {}
    assert planner.export_state()["spans"][0]["metadata"] == {}
    assert repr(first).endswith("metadata={})")


#: export_state() documents of the script below, produced before the
#: registry held plain records: they must not move by a byte
_PLANNER_DOC = (
    '{"total": 16, "plan_start": 0, "plan_end": 1000, "resource_type": "core",'
    ' "next_span_id": 11, "spans": [{"id": 2, "start": 20, "end": 70,'
    ' "request": 8, "metadata": {"job": 3}}, {"id": 9, "start": 500,'
    ' "end": 1000, "request": 2, "metadata": {}}, {"id": 10, "start": 100,'
    ' "end": 400, "request": 1, "metadata": {}}]}'
)
_MULTI_DOC = (
    '{"plan_start": 0, "plan_end": 1000, "next_span_id": 4, "planners":'
    ' {"core": {"total": 8, "plan_start": 0, "plan_end": 1000,'
    ' "resource_type": "core", "next_span_id": 4, "spans": [{"id": 2,'
    ' "start": 50, "end": 100, "request": 2, "metadata": {}}, {"id": 3,'
    ' "start": 300, "end": 310, "request": 8, "metadata": {}}]}, "gpu":'
    ' {"total": 2, "plan_start": 0, "plan_end": 1000, "resource_type": "gpu",'
    ' "next_span_id": 3, "spans": [{"id": 2, "start": 300, "end": 310,'
    ' "request": 2, "metadata": {}}]}}, "spans": {"2": {"core": 2}, "3":'
    ' {"gpu": 2, "core": 3}}}'
)


def test_export_of_a_fixed_history_is_unchanged():
    planner, (a, b, c) = _booked()
    planner.update_span_end(a, 90)
    planner.update_span_end(b, 70)
    planner.rem_span(c)
    planner.add_span(500, 500, 2, span_id=9)
    e = planner.add_span(100, 5, 1)
    planner.update_span_end(e, 400)
    planner.rem_span(a)
    assert json.dumps(planner.export_state()) == _PLANNER_DOC
    multi = PlannerMulti({"core": 8, "gpu": 2}, 0, 1000)
    x = multi.add_span(0, 100, {"core": 4, "gpu": 1})
    y = multi.add_span(50, 100, {"core": 2})
    multi.update_span_end(x, 120)
    multi.update_span_end(y, 100)
    multi.rem_span(x)
    multi.add_span(300, 10, {"gpu": 2, "core": 8})
    assert json.dumps(multi.export_state()) == _MULTI_DOC
    multi.check_invariants()
