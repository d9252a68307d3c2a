"""The compiled plan a Monte-Carlo campaign shares across its profiles.

``Simulator.compile(h)`` unrolls the job set and builds every table that
no fault profile can change.  A run handed a shared plan must be
indistinguishable from a run that compiles for itself, on the Cruise
Table-2 mappings, under every kind of profile the campaigns use.
"""

import random

import pytest

from repro.errors import SimulationError
from repro.experiments.table2 import TABLE2_DROPPED
from repro.sim import engine
from repro.sim.engine import Simulator
from repro.sim.faults import (
    FaultProfile,
    adhoc_profile,
    no_fault_profile,
    random_profile,
)
from repro.sim.montecarlo import MonteCarloEstimator
from repro.sim.sampler import BiasedSampler, UniformSampler
from repro.suites.cruise import cruise_benchmark, cruise_sample_mappings


@pytest.fixture(scope="module")
def cruise():
    architecture = cruise_benchmark().problem.architecture
    hardened, mappings = cruise_sample_mappings()
    return hardened, architecture, mappings


def make_simulator(cruise, index=0, collect_trace=False):
    hardened, architecture, mappings = cruise
    return Simulator(
        hardened,
        architecture,
        mappings[index],
        dropped=TABLE2_DROPPED,
        collect_trace=collect_trace,
    )


def snapshot(result):
    return (
        result.outcomes,
        result.transitions,
        result.unsafe_events,
        result.faults_observed,
        result.trace,
    )


def message_loss_profile(compiled):
    """Loses the first transmission of every third cross-PE transfer."""
    jobs = compiled.jobset.jobs
    lost = [
        (jobs[pred].task_name, job.task_name, job.instance, 0)
        for job in jobs
        for pred, _best, _worst, _on_demand in job.preds
        if jobs[pred].processor != job.processor
    ]
    assert lost, "the mapping has no cross-PE channel"
    return FaultProfile((), label="msg-loss", message_faults=lost[::3])


def profiles(hardened, compiled, hyperperiods):
    """``(profile, drop_from_start)`` pairs covering every run kind."""
    rng = random.Random(hyperperiods)
    yield no_fault_profile(), False
    for _ in range(6):
        yield random_profile(
            hardened, rng, max_faults=4, hyperperiods=hyperperiods
        ), False
    yield message_loss_profile(compiled), False
    yield adhoc_profile(hardened, hyperperiods), True


@pytest.mark.parametrize("hyperperiods", [1, 2])
@pytest.mark.parametrize("index", [0, 1, 2])
def test_shared_plan_matches_per_run_compile(cruise, index, hyperperiods):
    hardened = cruise[0]
    simulator = make_simulator(cruise, index, collect_trace=True)
    compiled = simulator.compile(hyperperiods)
    kinds = set()
    for profile, drop_from_start in profiles(hardened, compiled, hyperperiods):
        runs = [
            simulator.run(
                profile,
                UniformSampler(),
                random.Random(7),
                hyperperiods=hyperperiods,
                drop_from_start=drop_from_start,
                compiled=plan,
            )
            for plan in (compiled, None)
        ]
        assert snapshot(runs[0]) == snapshot(runs[1])
        kinds.update(event.kind for event in runs[0].trace)
    # The profiles reached dropping, re-execution and message loss.
    assert {"drop", "reexecute", "msg-loss"} <= kinds


def test_plan_carries_no_state_between_runs(cruise):
    hardened = cruise[0]
    simulator = make_simulator(cruise, collect_trace=True)
    compiled = simulator.compile(1)
    clean = snapshot(simulator.run(compiled=compiled))
    dropping = simulator.run(
        adhoc_profile(hardened), drop_from_start=True, compiled=compiled
    )
    assert dropping.dropped_instances()
    assert snapshot(simulator.run(compiled=compiled)) == clean
    assert snapshot(simulator.run()) == clean


def test_second_hyperperiod_fault_drops_only_its_own_window(cruise):
    hardened = cruise[0]
    simulator = make_simulator(cruise)
    hyperperiod = hardened.applications.hyperperiod
    task = next(iter(hardened.time_redundancy))
    # The task's first instance in the second hyperperiod.
    instance = round(hyperperiod / hardened.applications.owner_of(task).period)
    profile = FaultProfile([(task, instance, 0)])
    result = simulator.run(profile, hyperperiods=2)
    dropped = result.dropped_instances()
    assert dropped
    assert all(outcome.release >= hyperperiod for outcome in dropped)


def test_campaign_unrolls_once(cruise, monkeypatch):
    calls = []
    real_unroll = engine.unroll

    def counting_unroll(*args, **kwargs):
        calls.append(kwargs["hyperperiods"])
        return real_unroll(*args, **kwargs)

    monkeypatch.setattr(engine, "unroll", counting_unroll)
    estimator = MonteCarloEstimator(
        make_simulator(cruise), sampler=BiasedSampler(0.5), max_faults=3
    )
    result = estimator.estimate(profiles=25, seed=1, hyperperiods=2)
    assert result.profiles == 26
    assert calls == [2]


def test_campaign_matches_per_run_compile(cruise, monkeypatch):
    simulator = make_simulator(cruise, index=1)

    def estimate():
        estimator = MonteCarloEstimator(
            simulator, sampler=BiasedSampler(0.5), max_faults=3
        )
        return estimator.estimate(profiles=40, seed=9)

    shared = estimate()
    real_run = Simulator.run

    def run_compiling_per_profile(self, *args, compiled=None, **kwargs):
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(Simulator, "run", run_compiling_per_profile)
    assert estimate() == shared


def test_plan_for_another_horizon_is_rejected(cruise):
    simulator = make_simulator(cruise)
    with pytest.raises(SimulationError, match="hyperperiod"):
        simulator.run(hyperperiods=2, compiled=simulator.compile(1))


def test_plan_from_another_simulator_is_rejected(cruise):
    simulator = make_simulator(cruise)
    other = make_simulator(cruise, index=1)
    with pytest.raises(SimulationError, match="another Simulator"):
        simulator.run(compiled=other.compile(1))
