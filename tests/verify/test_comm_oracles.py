"""Extended-lattice comm oracles and message-loss scenario generation."""

import dataclasses

import pytest

import repro.comm as comm_pkg
from repro.comm import CommBackend, register_backend, with_comm
from repro.hardening.spec import HardeningPlan
from repro.model.mapping import Mapping
from repro.sim.faults import FaultProfile
from repro.verify.oracles import ORACLES, OracleRunner, SystemState
from repro.verify.scenarios import Scenario, message_loss_scenarios


@pytest.fixture
def cross_state(apps, architecture):
    names = sorted(apps.all_task_names)
    mapping = Mapping({name: f"pe{i % 2}" for i, name in enumerate(names)})
    return SystemState(
        applications=apps,
        architecture=architecture,
        mapping=mapping,
        plan=HardeningPlan(),
    )


class TestCheckComm:
    def test_oracles_registered(self):
        assert "flat-le-contended" in ORACLES
        assert "arq-monotone" in ORACLES

    def test_noop_on_flat_fabric(self, cross_state):
        assert OracleRunner().check_comm(cross_state) == []

    @pytest.mark.parametrize(
        "backend", ("shared-bus", "tdma", "noc-xy", "message-jobs")
    )
    def test_clean_on_sound_backends(self, cross_state, backend):
        state = dataclasses.replace(
            cross_state,
            architecture=with_comm(
                cross_state.architecture,
                backend=backend,
                arq_retries=1,
                arq_timeout=0.5,
            ),
        )
        assert OracleRunner().check_comm(state) == []

    def test_flags_a_backend_that_tightens_bounds(self, cross_state):
        class TightBound:
            """A fabric that (unsoundly) claims communication is free."""

            fingerprint_token = "test-tight"
            arq_retries = 0
            arq_timeout = 0.0

            def channel_bounds(self, src, dst, size, same_processor):
                return 0.0, 0.0

            def attempt_bounds(self, src, dst, size, same_processor):
                return 0.0, 0.0

            def without_arq(self):
                return self

        class TightBackend(CommBackend):
            name = "test-tight"

            def bind(self, applications, mapping, architecture):
                return TightBound()

        register_backend(TightBackend)
        try:
            state = dataclasses.replace(
                cross_state,
                architecture=with_comm(
                    cross_state.architecture, backend="test-tight"
                ),
            )
            violations = OracleRunner().check_comm(state)
            assert violations, "free-fabric backend must violate the lattice"
            assert {v.oracle for v in violations} == {"flat-le-contended"}
        finally:
            del comm_pkg._REGISTRY["test-tight"]


class TestMessageScenarios:
    def test_no_mapping_means_no_scenarios(self, cross_state):
        assert message_loss_scenarios(cross_state.hardened(), None, 2) == []

    def test_local_mapping_means_no_scenarios(self, apps, cross_state):
        local = Mapping({name: "pe0" for name in apps.all_task_names})
        assert (
            message_loss_scenarios(cross_state.hardened(), local, 2) == []
        )

    def test_single_and_exhausted_profiles(self, cross_state):
        scenarios = message_loss_scenarios(
            cross_state.hardened(), cross_state.mapping, 2
        )
        assert scenarios
        by_origin = {s.origin for s in scenarios}
        assert by_origin == {"directed-message"}
        singles = [s for s in scenarios if s.name.startswith("msg-loss:")]
        exhausted = [
            s for s in scenarios if s.name.startswith("msg-exhausted:")
        ]
        assert len(singles) == len(exhausted)
        for scenario in singles:
            assert len(scenario.profile.message_faults) == 1
        for scenario in exhausted:
            # Budget k=2: attempts 0..2 all lost.
            assert len(scenario.profile.message_faults) == 3

    def test_no_exhaustion_without_retries(self, cross_state):
        scenarios = message_loss_scenarios(
            cross_state.hardened(), cross_state.mapping, 0
        )
        assert scenarios
        assert all(s.name.startswith("msg-loss:") for s in scenarios)

    def test_scenario_key_separates_message_profiles(self):
        base = Scenario(
            name="one",
            origin="directed-message",
            profile=FaultProfile((), message_faults=(("a", "b", 0, 0),)),
        )
        other = Scenario(
            name="two",
            origin="directed-message",
            profile=FaultProfile((), message_faults=(("a", "b", 0, 1),)),
        )
        assert base.key() != other.key()
