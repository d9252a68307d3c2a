"""Equivalence tests: the numpy backend must match the reference backend."""

import random
import time

import pytest

from repro.benchgen.tgff import GraphShape, TgffConfig, generate_problem
from repro.core.analysis import MixedCriticalityAnalysis
from repro.dse.chromosome import random_chromosome
from repro.dse.repair import repair
from repro.hardening.transform import harden
from repro.sched.fast import FastWindowAnalysisBackend
from repro.sched.jobs import unroll
from repro.sched.wcrt import WindowAnalysisBackend
from tests.overrides import with_overrides


def random_jobset(seed):
    problem = generate_problem(
        seed=seed,
        critical_graphs=1,
        droppable_graphs=2,
        processors=3,
        config=TgffConfig(
            shape=GraphShape(min_tasks=2, max_tasks=5, min_layers=1, max_layers=3),
        ),
        name_prefix=f"fast{seed}",
    )
    rng = random.Random(seed)
    chromosome = repair(random_chromosome(problem, rng), problem, rng)
    design = chromosome.decode(problem)
    hardened = harden(problem.applications, design.plan)
    bounds = {
        task.name: hardened.nominal_bounds(task.name)
        for task in hardened.applications.all_tasks
    }
    for passive in hardened.passive_tasks:
        bounds[passive] = (0.0, 0.0)
    return unroll(
        hardened.applications, design.mapping, problem.architecture, bounds=bounds
    )


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_backend(self, seed):
        jobset = random_jobset(seed)
        reference = WindowAnalysisBackend().analyze(jobset)
        fast = FastWindowAnalysisBackend().analyze(jobset)
        for job in jobset.jobs:
            ref = reference.bounds_at(job.index)
            got = fast.bounds_at(job.index)
            assert got.min_start == pytest.approx(ref.min_start, abs=1e-9)
            assert got.min_finish == pytest.approx(ref.min_finish, abs=1e-9)
            assert got.max_finish == pytest.approx(ref.max_finish, abs=1e-6), (
                f"seed {seed}, job {job.job_id}"
            )

    def test_matches_on_bound_overrides(self):
        jobset = random_jobset(3)
        target = jobset.analyzed_jobs[0]
        clone = with_overrides(jobset, {target.job_id: (0.0, target.wcet * 3)})
        reference = WindowAnalysisBackend().analyze(clone)
        backend = FastWindowAnalysisBackend()
        backend.analyze(jobset)  # warm the structural cache
        fast = backend.analyze(clone)  # reuses structure, new bounds
        for job in clone.jobs:
            assert fast.bounds_at(job.index).max_finish == pytest.approx(
                reference.bounds_at(job.index).max_finish, abs=1e-6
            )

    def test_structural_cache_resets_between_jobsets(self):
        backend = FastWindowAnalysisBackend()
        a = random_jobset(4)
        b = random_jobset(5)
        result_a = backend.analyze(a)
        result_b = backend.analyze(b)
        reference_b = WindowAnalysisBackend().analyze(b)
        for job in b.jobs:
            assert result_b.bounds_at(job.index).max_finish == pytest.approx(
                reference_b.bounds_at(job.index).max_finish, abs=1e-6
            )
        assert result_a.jobset is a and result_b.jobset is b


class TestWithinAlgorithmOne:
    def test_same_wcrt_through_algorithm1(self, hardened, architecture, mapping):
        reference = MixedCriticalityAnalysis().analyze(
            hardened, architecture, mapping, dropped=("lo",)
        )
        fast = MixedCriticalityAnalysis(
            backend=FastWindowAnalysisBackend()
        ).analyze(hardened, architecture, mapping, dropped=("lo",))
        for graph in hardened.applications.graph_names:
            assert fast.wcrt_of(graph) == pytest.approx(
                reference.wcrt_of(graph), abs=1e-6
            )

    def test_cruise_agreement(self):
        from repro.experiments.table2 import TABLE2_DROPPED
        from repro.suites.cruise import cruise_benchmark, cruise_sample_mappings

        hardened, mappings = cruise_sample_mappings()
        arch = cruise_benchmark().problem.architecture
        reference = MixedCriticalityAnalysis().analyze(
            hardened, arch, mappings[0], TABLE2_DROPPED
        )
        fast = MixedCriticalityAnalysis(
            backend=FastWindowAnalysisBackend()
        ).analyze(hardened, arch, mappings[0], TABLE2_DROPPED)
        for app in ("cc", "mon"):
            assert fast.wcrt_of(app) == pytest.approx(
                reference.wcrt_of(app), abs=1e-6
            )


def _bound_lists(bounds):
    return (
        bounds._min_start,
        bounds._min_finish,
        bounds._max_start,
        bounds._max_finish,
    )


class TestExactOnDtLargeGa:
    """The fast back-end equals the reference bound for bound.

    Job sets recorded from a short DT-large GA run: an earlier fast sweep
    kept sub-1e-12 finish increases that the reference drops, so 34 of
    these sets differed (by up to 2.3e-13) and 11 changed a graph WCRT.
    """

    @pytest.fixture(scope="class")
    def ga_jobsets(self):
        from repro.api import load
        from repro.dse import ExploreRequest
        from repro.dse.islands import run_explore

        recorded = []
        original = FastWindowAnalysisBackend.analyze

        def spy(backend, jobset, *args, **kwargs):
            recorded.append(jobset)
            return original(backend, jobset, *args, **kwargs)

        request = ExploreRequest.from_options(
            load("dt-large"), population=8, generations=3, seed=500,
            workers=1, islands=1,
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FastWindowAnalysisBackend, "analyze", spy)
            run_explore(request)
        assert len(recorded) >= 150
        return recorded

    def test_bound_lists_identical(self, ga_jobsets):
        differing = []
        for position, jobset in enumerate(ga_jobsets):
            reference = WindowAnalysisBackend().analyze(jobset)
            fast = FastWindowAnalysisBackend().analyze(jobset)
            if _bound_lists(fast) != _bound_lists(reference):
                differing.append(position)
            assert (fast.converged, fast.sweeps) == (
                reference.converged, reference.sweeps
            )
        assert differing == []

    def test_graph_wcrt_identical(self, ga_jobsets):
        for jobset in ga_jobsets:
            reference = WindowAnalysisBackend().analyze(jobset)
            fast = FastWindowAnalysisBackend().analyze(jobset)
            for graph in jobset.applications.graph_names:
                assert fast.graph_wcrt(graph) == reference.graph_wcrt(graph)
