"""Unit tests for hardening specs and plans."""

import pytest

from repro.errors import HardeningError
from repro.hardening.spec import HardeningKind, HardeningPlan, HardeningSpec


class TestSpecValidation:
    def test_none_spec(self):
        spec = HardeningSpec.none()
        assert spec.kind is HardeningKind.NONE
        assert not spec.is_replicated
        assert not spec.triggers_critical_state

    def test_none_is_one_shared_instance(self):
        assert HardeningSpec.none() is HardeningSpec.none()
        assert HardeningSpec.none() == HardeningSpec()
        assert HardeningPlan().spec_of("anything") is HardeningSpec.none()
        with pytest.raises(AttributeError):
            HardeningSpec.none().reexecutions = 1  # frozen: sharing is safe

    def test_none_rejects_parameters(self):
        with pytest.raises(HardeningError):
            HardeningSpec(kind=HardeningKind.NONE, reexecutions=1)
        with pytest.raises(HardeningError):
            HardeningSpec(kind=HardeningKind.NONE, replicas=2)

    def test_reexecution(self):
        spec = HardeningSpec.reexecution(2)
        assert spec.reexecutions == 2
        assert spec.triggers_critical_state
        assert not spec.is_replicated

    def test_reexecution_requires_positive_k(self):
        with pytest.raises(HardeningError):
            HardeningSpec.reexecution(0)

    def test_reexecution_rejects_replicas(self):
        with pytest.raises(HardeningError):
            HardeningSpec(kind=HardeningKind.REEXECUTION, reexecutions=1, replicas=3)

    def test_active(self):
        spec = HardeningSpec.active(3)
        assert spec.replicas == 3
        assert spec.effective_active_replicas == 3
        assert spec.passive_replicas == 0
        assert spec.is_replicated
        assert not spec.triggers_critical_state

    def test_active_duplication_allowed(self):
        assert HardeningSpec.active(2).replicas == 2

    def test_active_requires_two_copies(self):
        with pytest.raises(HardeningError):
            HardeningSpec.active(1)

    def test_passive(self):
        spec = HardeningSpec.passive(3, active=2)
        assert spec.effective_active_replicas == 2
        assert spec.passive_replicas == 1
        assert spec.triggers_critical_state

    def test_passive_default_active_count(self):
        spec = HardeningSpec(kind=HardeningKind.PASSIVE, replicas=4)
        assert spec.effective_active_replicas == 2
        assert spec.passive_replicas == 2

    def test_passive_requires_three_copies(self):
        with pytest.raises(HardeningError):
            HardeningSpec.passive(2, active=1)

    def test_passive_requires_two_active(self):
        with pytest.raises(HardeningError):
            HardeningSpec(kind=HardeningKind.PASSIVE, replicas=3, active_replicas=1)

    def test_passive_requires_one_passive(self):
        with pytest.raises(HardeningError):
            HardeningSpec(kind=HardeningKind.PASSIVE, replicas=3, active_replicas=3)

    def test_spec_roundtrip(self):
        for spec in (
            HardeningSpec.none(),
            HardeningSpec.reexecution(3),
            HardeningSpec.active(5),
            HardeningSpec.passive(4, active=2),
        ):
            assert HardeningSpec.from_dict(spec.to_dict()) == spec


class TestPlan:
    def test_default_is_none(self):
        plan = HardeningPlan()
        assert plan.spec_of("anything").kind is HardeningKind.NONE
        assert len(plan) == 0

    def test_none_specs_are_dropped(self):
        plan = HardeningPlan({"a": HardeningSpec.none()})
        assert "a" not in plan
        assert len(plan) == 0

    def test_with_spec(self):
        plan = HardeningPlan().with_spec("a", HardeningSpec.reexecution(1))
        assert plan.spec_of("a").reexecutions == 1
        removed = plan.with_spec("a", HardeningSpec.none())
        assert "a" not in removed

    def test_items_sorted(self):
        plan = HardeningPlan(
            {"z": HardeningSpec.reexecution(1), "a": HardeningSpec.active(2)}
        )
        assert [name for name, _ in plan.items()] == ["a", "z"]

    def test_histogram(self):
        plan = HardeningPlan(
            {
                "a": HardeningSpec.reexecution(1),
                "b": HardeningSpec.reexecution(2),
                "c": HardeningSpec.passive(3, active=2),
            }
        )
        histogram = plan.kind_histogram()
        assert histogram[HardeningKind.REEXECUTION] == 2
        assert histogram[HardeningKind.PASSIVE] == 1

    def test_plan_roundtrip(self):
        plan = HardeningPlan(
            {"a": HardeningSpec.reexecution(2), "b": HardeningSpec.active(3)}
        )
        assert HardeningPlan.from_dict(plan.to_dict()) == plan

    def test_equality(self):
        a = HardeningPlan({"t": HardeningSpec.reexecution(1)})
        b = HardeningPlan({"t": HardeningSpec.reexecution(1)})
        assert a == b
