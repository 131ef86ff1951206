"""Unit and property tests for the Planner (paper §4.1, Fig. 3)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlannerError, SpanNotFoundError
from repro.planner import Planner


@pytest.fixture
def fig3_planner():
    """The paper's Figure 3 scenario: pool of 8, horizon [0, 100)."""
    p = Planner(8, 0, 100, resource_type="memory")
    p.add_span(0, 1, 8)  # <8,1,0>
    p.add_span(1, 3, 3)  # <3,3,1>
    p.add_span(6, 1, 7)  # <7,1,6>
    return p


class TestConstruction:
    def test_initial_state_fully_available(self):
        p = Planner(16, 0, 1000)
        assert p.avail_resources_at(0) == 16
        assert p.avail_resources_at(999) == 16
        assert p.point_count == 1
        assert p.span_count == 0

    def test_negative_total_rejected(self):
        with pytest.raises(PlannerError):
            Planner(-1)

    def test_empty_horizon_rejected(self):
        with pytest.raises(PlannerError):
            Planner(4, 10, 10)

    def test_nonzero_plan_start(self):
        p = Planner(4, plan_start=100, plan_end=200)
        assert p.avail_resources_at(150) == 4
        with pytest.raises(PlannerError):
            p.avail_resources_at(50)

    def test_zero_capacity_pool(self):
        p = Planner(0, 0, 10)
        assert p.avail_at(0, 0)
        assert not p.avail_at(0, 1)
        assert p.avail_time_first(1, 1, 0) is None


class TestFig3Scenario:
    """Checks the availability profile of the paper's Figure 3 example.

    Spans here are half-open ([start, start+duration)); the paper's prose
    counts endpoints inclusively, which shifts its quoted answers by a tick.
    """

    def test_profile(self, fig3_planner):
        expected = {0: 0, 1: 5, 2: 5, 3: 5, 4: 8, 5: 8, 6: 1, 7: 8}
        for t, avail in expected.items():
            assert fig3_planner.avail_resources_at(t) == avail, f"t={t}"

    def test_sat_during_queries(self, fig3_planner):
        # "can 5 units for duration 2 be planned at t1?" -> yes
        assert fig3_planner.avail_during(1, 2, 5)
        # "... at t6?" -> no (only 1 unit remains at t6)
        assert not fig3_planner.avail_during(6, 2, 5)

    def test_earliest_fit(self, fig3_planner):
        # 6 units first fit once the <3,3,1> span ends.
        assert fig3_planner.avail_time_first(6, 1, 0) == 4
        # 6 units for 2 ticks also fit at t4 (window [4,6) clears t6's span).
        assert fig3_planner.avail_time_first(6, 2, 0) == 4
        # 6 units for 3 ticks collide with the t6 span; first fit after it.
        assert fig3_planner.avail_time_first(6, 3, 0) == 7

    def test_earliest_fit_with_on_or_after(self, fig3_planner):
        assert fig3_planner.avail_time_first(6, 1, 5) == 5
        assert fig3_planner.avail_time_first(6, 1, 6) == 7
        assert fig3_planner.avail_time_first(8, 1, 1) == 4

    def test_check_invariants(self, fig3_planner):
        fig3_planner.check_invariants()


class TestAddSpan:
    def test_request_exceeding_total_rejected(self):
        p = Planner(4, 0, 10)
        with pytest.raises(PlannerError):
            p.add_span(0, 1, 5)

    def test_overcommit_rejected(self):
        p = Planner(4, 0, 10)
        p.add_span(0, 5, 3)
        with pytest.raises(PlannerError):
            p.add_span(2, 2, 2)
        # State unchanged by the failed add.
        p.check_invariants()
        assert p.span_count == 1

    def test_zero_request_span_books_time_only(self):
        p = Planner(4, 0, 10)
        sid = p.add_span(1, 3, 0)
        assert p.avail_resources_at(2) == 4
        p.rem_span(sid)
        p.check_invariants()

    def test_span_to_horizon_end(self):
        p = Planner(4, 0, 10)
        p.add_span(8, 2, 4)
        assert p.avail_resources_at(9) == 0
        with pytest.raises(PlannerError):
            p.add_span(9, 2, 1)  # would exceed horizon

    def test_window_validation(self):
        p = Planner(4, 0, 10)
        with pytest.raises(PlannerError):
            p.add_span(0, 0, 1)
        with pytest.raises(PlannerError):
            p.add_span(-1, 2, 1)
        with pytest.raises(PlannerError):
            p.add_span(0, 2, -1)

    def test_adjacent_spans_share_no_capacity_conflict(self):
        p = Planner(4, 0, 100)
        p.add_span(0, 5, 4)
        # Back-to-back span starting exactly when the first ends is fine.
        p.add_span(5, 5, 4)
        p.check_invariants()

    def test_metadata_round_trip(self):
        p = Planner(4, 0, 10)
        sid = p.add_span(0, 1, 1, metadata={"job": 7})
        assert p.get_span(sid).metadata == {"job": 7}

    def test_duration_property(self):
        p = Planner(4, 0, 10)
        sid = p.add_span(2, 3, 1)
        span = p.get_span(sid)
        assert span.duration == 3
        assert span.overlaps(4)
        assert not span.overlaps(5)


class TestRemSpan:
    def test_removal_restores_availability(self):
        p = Planner(8, 0, 100)
        sid = p.add_span(10, 5, 6)
        assert p.avail_resources_at(12) == 2
        p.rem_span(sid)
        assert p.avail_resources_at(12) == 8
        assert p.point_count == 1  # all points garbage-collected
        p.check_invariants()

    def test_unknown_span_raises(self):
        p = Planner(8)
        with pytest.raises(SpanNotFoundError):
            p.rem_span(99)

    def test_shared_boundary_points_survive(self):
        p = Planner(8, 0, 100)
        a = p.add_span(0, 10, 2)
        b = p.add_span(10, 10, 2)  # shares the t=10 point with span a's end
        p.rem_span(a)
        assert p.avail_resources_at(5) == 8
        assert p.avail_resources_at(15) == 6
        p.check_invariants()
        p.rem_span(b)
        assert p.point_count == 1

    def test_interleaved_spans(self):
        p = Planner(10, 0, 1000)
        ids = [p.add_span(i * 2, 10, 1) for i in range(5)]
        p.check_invariants()
        for sid in ids[::2]:
            p.rem_span(sid)
        p.check_invariants()
        assert p.span_count == 2

    def test_reset(self):
        p = Planner(10, 0, 100)
        for i in range(5):
            p.add_span(i, 10, 1)
        p.reset()
        assert p.span_count == 0
        assert p.point_count == 1
        assert p.avail_resources_at(5) == 10


class TestResize:
    def test_grow(self):
        p = Planner(4, 0, 100)
        p.add_span(0, 10, 4)
        p.resize(6)
        assert p.avail_resources_at(5) == 2
        assert p.avail_resources_at(50) == 6
        p.check_invariants()

    def test_shrink_ok_when_unused(self):
        p = Planner(8, 0, 100)
        p.add_span(0, 10, 3)
        p.resize(5)
        assert p.avail_resources_at(5) == 2
        p.check_invariants()

    def test_shrink_below_in_use_rejected(self):
        p = Planner(8, 0, 100)
        p.add_span(0, 10, 6)
        with pytest.raises(PlannerError):
            p.resize(5)
        assert p.total == 8

    def test_resize_noop(self):
        p = Planner(8)
        p.resize(8)
        assert p.total == 8


class TestAvailTimeFirst:
    def test_never_available(self):
        p = Planner(4, 0, 100)
        assert p.avail_time_first(5, 1, 0) is None

    def test_full_horizon_blocked(self):
        p = Planner(4, 0, 10)
        p.add_span(0, 10, 4)
        assert p.avail_time_first(1, 1, 0) is None

    def test_fit_in_gap_between_spans(self):
        p = Planner(4, 0, 100)
        p.add_span(0, 10, 4)
        p.add_span(20, 10, 4)
        assert p.avail_time_first(4, 10, 0) == 10
        assert p.avail_time_first(4, 11, 0) == 30

    def test_duration_longer_than_remaining_horizon(self):
        p = Planner(4, 0, 10)
        assert p.avail_time_first(1, 11, 0) is None
        assert p.avail_time_first(1, 5, 6) is None

    def test_on_or_after_mid_window(self):
        p = Planner(4, 0, 100)
        p.add_span(0, 10, 2)
        # 2 units are available throughout; starting mid-span is fine.
        assert p.avail_time_first(2, 5, 3) == 3
        # 3 units only once the span ends.
        assert p.avail_time_first(3, 5, 3) == 10

    def test_result_is_truly_earliest(self):
        p = Planner(8, 0, 1000)
        p.add_span(0, 100, 8)
        p.add_span(150, 100, 8)
        p.add_span(300, 100, 5)
        # The [100, 150) gap fits a 50-tick window but not a 60-tick one.
        assert p.avail_time_first(4, 50, 0) == 100
        # 60 ticks of 4 units must clear both full spans and the 5-unit one.
        t = p.avail_time_first(4, 60, 0)
        assert t == 400
        assert p.avail_during(t, 60, 4)
        assert not any(p.avail_during(u, 60, 4) for u in range(0, t))
        # 3 units squeeze into [250, 310): the 5-unit span leaves 3 free.
        assert p.avail_time_first(3, 60, 0) == 250


spans_strategy = st.lists(
    st.tuples(
        st.integers(0, 200),   # start
        st.integers(1, 50),    # duration
        st.integers(0, 16),    # request
    ),
    max_size=40,
)


@given(spans_strategy)
@settings(max_examples=60, deadline=None)
def test_property_planner_state_matches_naive_model(spans):
    """The Planner must agree with a brute-force per-tick availability model."""
    total, horizon = 16, 260
    p = Planner(total, 0, horizon)
    naive = [total] * horizon
    accepted = []
    for start, duration, request in spans:
        fits = all(naive[t] >= request for t in range(start, start + duration))
        if fits:
            sid = p.add_span(start, duration, request)
            for t in range(start, start + duration):
                naive[t] -= request
            accepted.append(sid)
        else:
            with pytest.raises(PlannerError):
                p.add_span(start, duration, request)
    for t in range(horizon):
        assert p.avail_resources_at(t) == naive[t], f"t={t}"
    p.check_invariants()


@given(spans_strategy, st.integers(1, 16), st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_property_avail_time_first_matches_naive_scan(spans, request, duration):
    total, horizon = 16, 260
    p = Planner(total, 0, horizon)
    naive = [total] * horizon
    for start, dur, req in spans:
        if all(naive[t] >= req for t in range(start, start + dur)):
            p.add_span(start, dur, req)
            for t in range(start, start + dur):
                naive[t] -= req
    expected = next(
        (
            t
            for t in range(horizon - duration + 1)
            if all(naive[u] >= request for u in range(t, t + duration))
        ),
        None,
    )
    assert p.avail_time_first(request, duration, 0) == expected


@given(spans_strategy, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_property_add_then_remove_all_restores_initial_state(spans, rnd):
    p = Planner(16, 0, 260)
    ids = []
    for start, duration, request in spans:
        try:
            ids.append(p.add_span(start, duration, request))
        except PlannerError:
            pass
    rnd.shuffle(ids)
    for sid in ids:
        p.rem_span(sid)
    assert p.span_count == 0
    assert p.point_count == 1
    assert p.avail_resources_at(0) == 16
    p.check_invariants()


class TestNextEventTime:
    def test_empty_planner_has_no_events(self):
        p = Planner(4, 0, 100)
        assert p.next_event_time(0) is None

    def test_events_at_span_boundaries(self):
        p = Planner(4, 0, 100)
        p.add_span(10, 5, 2)
        assert p.next_event_time(0) == 10
        assert p.next_event_time(10) == 15
        assert p.next_event_time(15) is None

    def test_strictly_after(self):
        p = Planner(4, 0, 100)
        p.add_span(0, 10, 1)
        # The base point at t=0 exists, but events must be strictly later.
        assert p.next_event_time(0) == 10

    def test_the_base_point_is_no_event_before_plan_start(self):
        """Only span boundaries answer, whatever the planner held before:
        the tree's base point at plan_start bounds no span of its own."""
        fresh, listed, treed = (Planner(10, plan_start=100) for _ in range(3))
        listed.rem_span(listed.add_span(150, 10, 2))
        ids = [treed.add_span(150, 10, 2), treed.add_span(155, 10, 2)]
        assert treed._sp is not None
        for sid in ids:
            treed.rem_span(sid)
        for planner in (fresh, listed, treed):
            assert planner.next_event_time(50) is None
        treed.add_span(100, 5, 1)  # now plan_start is a span's start
        assert treed.next_event_time(50) == 100
        assert treed.next_event_time(100) == 105


@given(
    spans_strategy,
    st.lists(st.tuples(st.integers(0, 30), st.integers(1, 259)), max_size=15),
)
@settings(max_examples=40, deadline=None)
def test_property_update_span_end_matches_naive_model(spans, updates):
    """Random add/update-end sequences agree with a per-tick availability
    model, and every accepted update keeps the planner internally sound."""
    total, horizon = 16, 260
    p = Planner(total, 0, horizon)
    naive = [total] * horizon
    live = []  # (span_id, start, end, request)
    for start, duration, request in spans:
        end = min(start + duration, horizon)
        if end <= start:
            continue
        if all(naive[t] >= request for t in range(start, end)):
            sid = p.add_span(start, end - start, request)
            for t in range(start, end):
                naive[t] -= request
            live.append([sid, start, end, request])
    for index, new_end in updates:
        if not live:
            break
        record = live[index % len(live)]
        sid, start, end, request = record
        if new_end <= start or new_end > horizon:
            with pytest.raises(PlannerError):
                p.update_span_end(sid, new_end)
            continue
        if new_end > end:
            fits = all(naive[t] >= request for t in range(end, new_end))
            if not fits:
                with pytest.raises(PlannerError):
                    p.update_span_end(sid, new_end)
                continue
            p.update_span_end(sid, new_end)
            for t in range(end, new_end):
                naive[t] -= request
        else:
            p.update_span_end(sid, new_end)
            for t in range(new_end, end):
                naive[t] += request
        record[2] = new_end
    for t in range(0, horizon, 3):
        assert p.avail_resources_at(t) == naive[t], t
    p.check_invariants()
    for sid, *_ in live:
        p.rem_span(sid)
    assert p.point_count == 1


# ----------------------------------------------------------------------
# the index exists once an earliest-time question has been asked
# ----------------------------------------------------------------------
_PROBES = ((1, 1, 0), (5, 10, 0), (9, 30, 40), (16, 7, 120), (3, 60, 199))

ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 200), st.integers(1, 59),
                  st.integers(0, 16)),
        st.tuples(st.just("rem"), st.integers(0, 30)),
        st.tuples(st.just("end"), st.integers(0, 30), st.integers(1, 260)),
        st.tuples(st.just("resize"), st.integers(8, 24)),
        st.tuples(st.just("rebuild")),
    ),
    max_size=30,
)


def _apply(planner, op, sid):
    """Run ``op`` (on span ``sid``, for the ops that name one) on a Planner;
    return the new span id or earliest time, or the PlannerError raised."""
    kind, *args = op
    try:
        if kind == "add":
            return planner.add_span(*args)
        if kind == "first":
            return planner.avail_time_first(*args)
        if kind == "rebuild":
            planner.rebuild()
        elif kind == "resize":
            planner.resize(*args)
        elif kind == "rem" and sid is not None:
            planner.rem_span(sid)
        elif kind == "end" and sid is not None:
            planner.update_span_end(sid, args[1])
    except PlannerError as exc:
        return exc
    return None


def _apply_to_model(model, op, sid):
    """The same op, already accepted by the Planner, on a ListPlanner (which
    only adds and removes: the rest is written into its fields)."""
    kind, *args = op
    if kind == "add":
        return model.add_span(*args)
    if kind == "first":
        return model.avail_time_first(*args)
    if kind == "resize":
        model.total = args[0]
    elif kind == "rem" and sid is not None:
        model.rem_span(sid)
    elif kind == "end" and sid is not None:
        start, _, request = model._spans[sid]
        model._spans[sid] = (start, args[1], request)
    return None


def _force_index(planner):
    """Ask the earliest-time question whose fast path cannot answer it."""
    for span in planner.spans():
        if span.request:
            planner.avail_time_first(planner.total, 1, span.start)
            assert planner.indexed
            return


@given(ops_strategy, st.integers(0, 30))
@settings(max_examples=150, deadline=None)
def test_property_index_built_on_demand_answers_as_one_kept_all_along(
    ops, force_at
):
    """Random mutation sequences against three planners — indexed right after
    the first span, indexed at a random later step, and the list-based
    baseline — give equal answers after every step, and the paper's
    Algorithm 1 run over the same spans agrees on the earliest time."""
    from repro.baselines import Algorithm1, ListPlanner

    early, late, model = Planner(16, 0, 260), Planner(16, 0, 260), ListPlanner(16, 0, 260)
    live = []
    for step, op in enumerate(ops):
        sid = live[op[1] % len(live)] if op[0] in ("rem", "end") and live else None
        outcome = _apply(early, op, sid)
        assert repr(_apply(late, op, sid)) == repr(outcome), op
        if not isinstance(outcome, PlannerError):
            # A span the planner wrongly accepted makes the list model raise.
            assert _apply_to_model(model, op, sid) == outcome
            if op[0] == "add":
                live.append(outcome)
            elif op[0] == "rem" and sid is not None:
                live.remove(sid)
        _force_index(early)
        if step == force_at:
            _force_index(late)
        if step < force_at:
            # Bookings and window queries alone never build the index.
            assert not late.indexed
        algorithm1 = Algorithm1(early)
        for request, duration, at in _PROBES:
            expected = model.avail_during(at, duration, request)
            lowest = min(
                model.avail_resources_at(t) for t in range(at, at + duration)
            )
            for planner in (early, late):
                assert planner.avail_during(at, duration, request) == expected
                assert planner.avail_resources_during(at, duration) == lowest
            first = model.avail_time_first(request, duration, at)
            assert algorithm1.avail_time_first(request, duration, at) == first
            assert early.avail_time_first(request, duration, at) == first
            if step >= force_at:
                assert late.avail_time_first(request, duration, at) == first
        early.check_invariants()
        late.check_invariants()
    assert {s.span_id for s in early.spans()} == {s.span_id for s in late.spans()}


def _linked(planner):
    """Point times along the ``next`` links, and along ``prev`` backwards."""
    point, forward, last = planner._sp.minimum(), [], None
    while point is not None:
        forward.append(point.key)
        last, point = point, point.next
    backward = []
    while last is not None:
        backward.append(last.key)
        last = last.prev
    return forward, backward[::-1]


@given(ops_strategy)
@settings(max_examples=150, deadline=None)
def test_property_time_links_follow_the_tree(ops):
    """Random adds, removals, end moves, resizes and rebuilds on a planner
    never indexed and on one indexed from its first span: after every step
    the time links walk the tree's in-order sequence both ways, and every
    window answer equals the list-based baseline's."""
    from repro.baselines import ListPlanner

    plain, indexed = Planner(16, 0, 260), Planner(16, 0, 260)
    model = ListPlanner(16, 0, 260)
    live = []
    for op in ops:
        sid = live[op[1] % len(live)] if op[0] in ("rem", "end") and live else None
        outcome = _apply(plain, op, sid)
        assert repr(_apply(indexed, op, sid)) == repr(outcome), op
        if not isinstance(outcome, PlannerError):
            assert _apply_to_model(model, op, sid) == outcome
            if op[0] == "add":
                live.append(outcome)
            elif op[0] == "rem" and sid is not None:
                live.remove(sid)
        _force_index(indexed)
        assert not plain.indexed
        for planner in (plain, indexed):
            planner.check_invariants()
            if planner._sp is not None:
                in_order = [point.key for point in planner._sp]
                assert _linked(planner) == (in_order, in_order)
            for request, duration, at in _PROBES:
                assert planner.avail_during(at, duration, request) == (
                    model.avail_during(at, duration, request)
                )
                assert planner.avail_resources_during(at, duration) == min(
                    model.avail_resources_at(t) for t in range(at, at + duration)
                )
            for at in range(0, 260, 13):
                assert planner.avail_resources_at(at) == model.avail_resources_at(at)


# ----------------------------------------------------------------------
# spans that do not overlap are runs in a list; the first overlap builds
# the tree
# ----------------------------------------------------------------------
list_ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 250), st.integers(1, 25),
                  st.integers(0, 16)),
        st.tuples(st.just("rem"), st.integers(0, 30)),
        st.tuples(st.just("end"), st.integers(0, 30), st.integers(1, 260)),
        st.tuples(st.just("resize"), st.integers(8, 24)),
        st.tuples(st.just("first"), st.integers(0, 16), st.integers(1, 60),
                  st.integers(0, 259)),
    ),
    max_size=30,
)


def _boundaries(model, after):
    """The span boundaries of a ListPlanner strictly after ``after``."""
    return sorted(
        t for start, end, _ in model._spans.values() for t in (start, end)
        if t > after
    )


@given(list_ops_strategy, st.integers(0, 30))
@settings(max_examples=200, deadline=None)
def test_property_runs_answer_as_the_tree_and_the_baseline(ops, force_at):
    """One op sequence on a planner left to choose its form, on a twin whose
    tree is forced at a random step, and on the list-based baseline: every
    answer and span id agrees, the twins export the same state and count
    the same points, and both pass their invariants after every op."""
    from repro.baselines import ListPlanner

    free, forced = Planner(16, 10, 260), Planner(16, 10, 260)
    model = ListPlanner(16, 10, 260)
    live = []
    for step, op in enumerate(ops):
        if step == force_at and forced._sp is None:
            forced._ensure_tree()
        sid = live[op[1] % len(live)] if op[0] in ("rem", "end") and live else None
        outcome = _apply(free, op, sid)
        assert repr(_apply(forced, op, sid)) == repr(outcome), op
        if not isinstance(outcome, PlannerError):
            assert _apply_to_model(model, op, sid) == outcome
            if op[0] == "add":
                live.append(outcome)
            elif op[0] == "rem" and sid is not None:
                live.remove(sid)
        for planner in (free, forced):
            planner.check_invariants()
            for request, duration, at in _PROBES:
                at = max(at, 10)
                assert planner.avail_during(at, duration, request) == (
                    model.avail_during(at, duration, request)
                )
                assert planner.avail_resources_during(at, duration) == min(
                    model.avail_resources_at(t) for t in range(at, at + duration)
                )
            for at in range(10, 260, 7):
                assert planner.avail_resources_at(at) == model.avail_resources_at(at)
                assert planner.avail_at(at, 9) == model.avail_at(at, 9)
            for after in (0, 9, 10, 57, 130, 259):
                assert planner.next_event_time(after) == next(
                    iter(_boundaries(model, after)), None
                )
        assert free.export_state() == forced.export_state()
        assert free.point_count == forced.point_count == (
            len({10, *_boundaries(model, -1)})
        )
        if step >= force_at:
            assert forced._runs is None


class TestListForm:
    def test_the_first_overlapping_add_builds_the_tree(self):
        p = Planner(8, 0, 100)
        p.add_span(0, 10, 2)
        p.add_span(20, 10, 3)
        assert p._sp is None and p._runs == [(0, 10, 2), (20, 30, 3)]
        assert p.point_count == 4
        p.add_span(25, 10, 1)
        assert p._runs is None and p._sp is not None
        assert p.point_count == 6
        assert [p.avail_resources_at(t) for t in (5, 22, 27, 32, 40)] == [6, 5, 4, 7, 8]
        p.check_invariants()

    def test_a_refused_overlapping_add_leaves_answers_unchanged(self):
        p = Planner(8, 0, 100)
        p.add_span(0, 10, 6)
        p.add_span(40, 10, 2)
        before = (
            [p.avail_resources_at(t) for t in range(100)],
            [p.next_event_time(t) for t in range(100)],
            p.export_state(), p.point_count,
        )
        with pytest.raises(PlannerError, match=r"request 4x\[5,15\) unavailable"):
            p.add_span(5, 10, 4)
        assert (
            [p.avail_resources_at(t) for t in range(100)],
            [p.next_event_time(t) for t in range(100)],
            p.export_state(), p.point_count,
        ) == before
        p.check_invariants()

    def test_an_emptied_planner_holds_no_list(self):
        p = Planner(8, 0, 100)
        ids = [p.add_span(0, 10, 2), p.add_span(50, 10, 2)]
        for sid in ids:
            p.rem_span(sid)
        assert p._runs is None and p._sp is None
        assert p.point_count == 1 and p.next_event_time(0) is None
        p.check_invariants()

    def test_touching_spans_stay_runs(self):
        p = Planner(4, 0, 100)
        p.add_span(0, 10, 4)
        p.add_span(10, 10, 4)
        assert p._sp is None and len(p._runs) == 2
        assert p.point_count == 3
        assert (p.avail_resources_at(9), p.avail_resources_at(10)) == (0, 0)
        assert p.avail_resources_at(20) == 4
        assert p.next_event_time(0) == 10
        p.check_invariants()


def _tree_shape(planner):
    """In-order (key, colour, augmentation) of every node of the SP tree."""
    return [(point.key, point.red, point.aug) for point in planner._sp]


def test_earliest_time_query_changes_nothing():
    """A query only reads: on a 300-span conservative plan the tree is node
    for node what it was — keys, colours, augmentation — after 100 searches
    that each hop over at least five free runs too short for them."""
    from repro import obs as fluxobs

    rng = random.Random(19)
    planner = Planner(128, 0, 2**40)
    for _ in range(300):
        request, duration = rng.randint(1, 64), rng.randint(60, 43_200)
        planner.add_span(
            planner.avail_time_first(request, duration, 0), duration, request
        )
    assert planner.indexed
    before = _tree_shape(planner)
    observer = fluxobs.Observer(why=False)
    token = fluxobs.activate(observer)
    try:
        long_searches = hopped = 0
        for _ in range(300):
            request, duration = rng.randint(1, 64), rng.randint(60, 43_200)
            assert planner.avail_time_first(request, duration, 0) is not None
            histogram = observer.metrics.get("planner.search_hops")
            total = histogram.sum if histogram is not None else 0
            long_searches += total - hopped >= 5
            hopped = total
    finally:
        fluxobs.deactivate(token)
    assert long_searches >= 100
    assert _tree_shape(planner) == before
    planner.check_invariants()


def test_avail_time_first_validates_duration_up_front():
    """A non-positive duration is an error whatever the planner holds (it
    used to be an answer on an empty planner and an error on a booked one)."""
    empty, booked = Planner(4, 0, 100), Planner(4, 0, 100)
    booked.add_span(0, 10, 4)
    for planner in (empty, booked):
        for duration, at in ((0, 0), (-5, 10)):
            with pytest.raises(PlannerError, match="duration must be positive"):
                planner.avail_time_first(1, duration, at)
        with pytest.raises(PlannerError, match="duration must be positive"):
            planner.avail_time_first(5, 0, 0)  # even where no time could fit
