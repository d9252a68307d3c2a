"""Simulator throughput benchmarks.

Run:  pytest benchmarks/bench_sim.py --benchmark-only -s

The Monte-Carlo estimator (WC-Sim) dominates the cost of the Table 2
study.  A campaign unrolls the job set once and then pays only the
per-run cost for each profile, so both are tracked on the Cruise
benchmark: a single fault-free run, a run with faults and dropping and
the adhoc worst trace (each of which compiles its own job set), and a
100-profile campaign sharing one compiled plan.
"""

import pytest

from repro.experiments.table2 import TABLE2_DROPPED
from repro.obs.bench import bench_timer, write_bench_report
from repro.sim import (
    BiasedSampler,
    MonteCarloEstimator,
    Simulator,
    WorstCaseSampler,
)
from repro.sim.faults import adhoc_profile, random_profile
from repro.suites.cruise import cruise_benchmark, cruise_sample_mappings

_PAYLOAD = {}


@pytest.fixture(scope="module", autouse=True)
def _bench_telemetry():
    yield
    write_bench_report("sim", _PAYLOAD)


@pytest.fixture(scope="module")
def setup():
    hardened, mappings = cruise_sample_mappings()
    arch = cruise_benchmark().problem.architecture
    simulator = Simulator(hardened, arch, mappings[0], dropped=TABLE2_DROPPED)
    return hardened, simulator


def test_benchmark_fault_free_run(benchmark, setup):
    _hardened, simulator = setup

    def run():
        with bench_timer("sim.fault_free_run").time():
            return simulator.run(sampler=WorstCaseSampler())

    result = benchmark(run)
    assert not result.entered_critical_state


def test_benchmark_faulty_run_with_dropping(benchmark, setup):
    import random

    hardened, simulator = setup
    profile = random_profile(hardened, random.Random(1), max_faults=3)

    def run():
        with bench_timer("sim.faulty_run_with_dropping").time():
            return simulator.run(profile=profile, sampler=WorstCaseSampler())

    result = benchmark(run)
    assert result.faults_observed >= 0


def test_benchmark_adhoc_trace(benchmark, setup):
    hardened, simulator = setup
    profile = adhoc_profile(hardened)

    def run():
        with bench_timer("sim.adhoc_trace").time():
            return simulator.run(
                profile=profile, sampler=WorstCaseSampler(), drop_from_start=True
            )

    result = benchmark(run)
    assert result.entered_critical_state


def test_benchmark_campaign(benchmark, setup):
    _hardened, simulator = setup
    estimator = MonteCarloEstimator(
        simulator, sampler=BiasedSampler(0.5), max_faults=3
    )

    def run():
        with bench_timer("sim.campaign").time():
            return estimator.estimate(profiles=100, seed=3)

    result = benchmark(run)
    assert result.profiles == 101
    assert result.critical_runs > 0
