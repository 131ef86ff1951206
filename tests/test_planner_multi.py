"""Tests for PlannerMulti — the multi-type bundle behind pruning filters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlannerError, SpanNotFoundError
from repro.planner import PlannerMulti


@pytest.fixture
def rack_filter():
    """A rack-level pruning filter tracking cores, gpus and memory."""
    return PlannerMulti({"core": 40, "gpu": 4, "memory": 256}, 0, 10_000)


class TestStructure:
    def test_types_and_totals(self, rack_filter):
        assert rack_filter.types == ("core", "gpu", "memory")
        assert rack_filter.total("core") == 40
        assert rack_filter.tracks("gpu")
        assert not rack_filter.tracks("ssd")

    def test_untracked_type_planner_raises(self, rack_filter):
        with pytest.raises(PlannerError):
            rack_filter.planner("ssd")

    def test_add_type(self, rack_filter):
        rack_filter.add_type("ssd", 8)
        assert rack_filter.tracks("ssd")
        with pytest.raises(PlannerError):
            rack_filter.add_type("ssd", 8)

    def test_resize_type(self, rack_filter):
        rack_filter.resize("core", 48)
        assert rack_filter.total("core") == 48


class TestBooking:
    def test_add_and_remove_span(self, rack_filter):
        sid = rack_filter.add_span(0, 100, {"core": 10, "gpu": 1})
        assert not rack_filter.avail_during(0, 100, {"core": 35})
        assert rack_filter.avail_during(0, 100, {"core": 30, "gpu": 3})
        rack_filter.rem_span(sid)
        assert rack_filter.avail_during(0, 100, {"core": 40, "gpu": 4})
        rack_filter.check_invariants()

    def test_unknown_types_in_counts_ignored(self, rack_filter):
        sid = rack_filter.add_span(0, 10, {"core": 1, "ssd": 99})
        assert rack_filter.avail_at(5, {"ssd": 10**9})  # untracked -> no opinion
        rack_filter.rem_span(sid)

    def test_zero_counts_skipped(self, rack_filter):
        sid = rack_filter.add_span(0, 10, {"core": 0, "gpu": 2})
        assert rack_filter.avail_at(5, {"core": 40})
        rack_filter.rem_span(sid)
        rack_filter.check_invariants()

    def test_rollback_on_partial_failure(self, rack_filter):
        rack_filter.add_span(0, 100, {"gpu": 4})
        # cores fit but gpus do not; the core booking must be rolled back.
        with pytest.raises(PlannerError):
            rack_filter.add_span(50, 10, {"core": 10, "gpu": 1})
        assert rack_filter.avail_during(0, 100, {"core": 40})
        rack_filter.check_invariants()

    def test_refused_extension_restores_every_type(self, rack_filter):
        sid = rack_filter.add_span(0, 100, {"core": 10, "gpu": 1})
        rack_filter.add_span(100, 50, {"gpu": 4})
        # cores may run on past 100, gpus may not: the core span's end,
        # moved first, must come back.
        with pytest.raises(PlannerError):
            rack_filter.update_span_end(sid, 120)
        core, gpu = (rack_filter.planner(t) for t in ("core", "gpu"))
        assert [s.end for s in core.spans()] == [100]
        assert sorted(s.end for s in gpu.spans()) == [100, 150]
        assert rack_filter.avail_during(100, 50, {"core": 40})
        rack_filter.check_invariants()
        rack_filter.update_span_end(sid, 90)
        assert [s.end for s in core.spans()] == [90]

    def test_rem_unknown_span(self, rack_filter):
        with pytest.raises(SpanNotFoundError):
            rack_filter.rem_span(123)

    def test_reset(self, rack_filter):
        for i in range(4):
            rack_filter.add_span(i * 10, 10, {"core": 5})
        rack_filter.reset()
        assert rack_filter.span_count == 0
        assert rack_filter.avail_during(0, 100, {"core": 40})


class TestAvailTimeFirst:
    def test_no_constraint_returns_on_or_after(self, rack_filter):
        assert rack_filter.avail_time_first({}, 10, 7) == 7

    def test_single_type_delegates(self, rack_filter):
        rack_filter.add_span(0, 50, {"core": 40})
        assert rack_filter.avail_time_first({"core": 1}, 10, 0) == 50

    def test_joint_constraint_advances_to_common_time(self, rack_filter):
        rack_filter.add_span(0, 50, {"core": 40})   # cores busy until 50
        rack_filter.add_span(0, 80, {"gpu": 4})     # gpus busy until 80
        assert rack_filter.avail_time_first({"core": 1, "gpu": 1}, 10, 0) == 80

    def test_interleaved_gaps_require_simultaneous_fit(self):
        pm = PlannerMulti({"a": 1, "b": 1}, 0, 1000)
        # a free during [10, 20); b free during [15, 30): joint fit at 15.
        pm.add_span(0, 10, {"a": 1})
        pm.add_span(20, 100, {"a": 1})
        pm.add_span(0, 15, {"b": 1})
        assert pm.avail_time_first({"a": 1, "b": 1}, 5, 0) == 15
        # duration 6 does not fit in [15, 20); next joint window is 120.
        assert pm.avail_time_first({"a": 1, "b": 1}, 6, 0) == 120

    def test_unsatisfiable_returns_none(self, rack_filter):
        assert rack_filter.avail_time_first({"gpu": 5}, 1, 0) is None

    def test_respects_on_or_after(self, rack_filter):
        assert rack_filter.avail_time_first({"core": 1}, 1, 500) == 500

    def test_duration_validated_up_front(self, rack_filter):
        """Whatever is asked for — a tracked type, an untracked one, nothing —
        and whatever is booked, a non-positive duration is an error."""
        for start in (0, 50):
            for counts in ({"core": 1}, {"ssd": 1}, {}, {"gpu": 5}):
                for duration in (0, -5):
                    with pytest.raises(PlannerError, match="duration must be positive"):
                        rack_filter.avail_time_first(counts, duration, 10)
            rack_filter.add_span(start, 50, {"core": 40})


@given(
    st.lists(
        st.tuples(
            st.integers(0, 80),  # start
            st.integers(1, 30),  # duration
            st.integers(0, 4),   # a count
            st.integers(0, 3),   # b count
        ),
        max_size=25,
    ),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(1, 20),
)
@settings(max_examples=40, deadline=None)
def test_property_multi_matches_naive_model(spans, req_a, req_b, duration):
    horizon = 120
    pm = PlannerMulti({"a": 4, "b": 3}, 0, horizon)
    naive_a = [4] * horizon
    naive_b = [3] * horizon
    for start, dur, ca, cb in spans:
        window = range(start, min(start + dur, horizon))
        if start + dur <= horizon and all(
            naive_a[t] >= ca and naive_b[t] >= cb for t in window
        ):
            pm.add_span(start, dur, {"a": ca, "b": cb})
            for t in window:
                naive_a[t] -= ca
                naive_b[t] -= cb
    expected = next(
        (
            t
            for t in range(horizon - duration + 1)
            if all(
                naive_a[u] >= req_a and naive_b[u] >= req_b
                for u in range(t, t + duration)
            )
        ),
        None,
    )
    assert pm.avail_time_first({"a": req_a, "b": req_b}, duration, 0) == expected
