"""Coverage for the type registry, error hierarchy, and misc records."""

import pytest

from repro import errors
from repro.planner import Span
from repro.resource import DEFAULT_REGISTRY, ResourceTypeRegistry
from repro.resource.types import ResourceTypeInfo


class TestRegistry:
    def test_default_registry_has_paper_types(self):
        for name in ("cluster", "rack", "node", "core", "gpu", "memory",
                     "ssd", "rabbit", "ip", "nvme_namespace", "power",
                     "bandwidth", "slot", "pfs", "io_bandwidth"):
            assert name in DEFAULT_REGISTRY, name

    def test_flow_resources_flagged(self):
        assert DEFAULT_REGISTRY.is_flow("power")
        assert DEFAULT_REGISTRY.is_flow("bandwidth")
        assert DEFAULT_REGISTRY.is_flow("io_bandwidth")
        assert not DEFAULT_REGISTRY.is_flow("core")
        assert not DEFAULT_REGISTRY.is_flow("made-up-type")

    def test_units(self):
        assert DEFAULT_REGISTRY.unit("memory") == "GB"
        assert DEFAULT_REGISTRY.unit("power") == "W"
        assert DEFAULT_REGISTRY.unit("core") == ""
        assert DEFAULT_REGISTRY.unit("unknown") == ""

    def test_custom_registry(self):
        reg = ResourceTypeRegistry()
        assert len(reg) == 0
        info = reg.register("fpga", unit="cells", description="accelerator")
        assert info == ResourceTypeInfo("fpga", "cells", False, "accelerator")
        assert reg.get("fpga") is info
        assert reg.get("ghost") is None
        assert "fpga" in reg
        assert [i.name for i in reg] == ["fpga"]

    def test_reregistration_replaces(self):
        reg = ResourceTypeRegistry()
        reg.register("x", unit="a")
        reg.register("x", unit="b")
        assert reg.unit("x") == "b"
        assert len(reg) == 1


class TestErrorHierarchy:
    def test_all_derive_from_fluxion_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.FluxionError), name

    def test_keyerror_mixins(self):
        assert issubclass(errors.SpanNotFoundError, KeyError)
        assert issubclass(errors.AllocationNotFoundError, KeyError)

    def test_a_broken_planner_is_a_planner_error_and_an_assertion_error(self):
        """Callers that catch ``AssertionError`` still see a broken planner."""
        from repro.planner import Planner

        assert issubclass(errors.PlannerInvariantError, errors.PlannerError)
        assert issubclass(errors.PlannerInvariantError, AssertionError)
        planner = Planner(8)
        planner.add_span(0, 10, 4)
        planner.add_span(5, 10, 4)
        planner._sp.find(5).in_use += 1
        with pytest.raises(errors.PlannerInvariantError, match="in_use mismatch at t=5"):
            planner.check_invariants()

    def test_catch_base_class(self):
        from repro.planner import Planner

        with pytest.raises(errors.FluxionError):
            Planner(-1)

    def test_expression_error_is_graph_error(self):
        from repro.resource import ExpressionError

        assert issubclass(ExpressionError, errors.ResourceGraphError)


class TestSpanRecord:
    def test_overlap_semantics(self):
        span = Span(span_id=1, start=10, end=20, request=4)
        assert span.duration == 10
        assert span.overlaps(10)
        assert span.overlaps(19)
        assert not span.overlaps(20)
        assert not span.overlaps(9)
        assert span.overlaps(5, duration=6)   # [5,11) touches [10,20)
        assert not span.overlaps(5, duration=5)

    def test_metadata_not_in_equality(self):
        a = Span(1, 0, 10, 4, metadata={"k": 1})
        b = Span(1, 0, 10, 4, metadata={"k": 2})
        assert a == b


class TestTopLevelExports:
    def test_core_names_importable(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_workflow_and_capacity_exported(self):
        from repro import CapacitySchedule, Workflow  # noqa: F401
