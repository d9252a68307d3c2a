"""Algorithm 1's transition bounds (lines 12–30): vector table vs per-job rule.

:class:`repro.core.analysis.TransitionTable` builds every transition's
``(bcet, wcet)`` vectors with masks.  This module keeps a literal
per-job implementation of the paper's rule and checks that both agree
bit for bit on every built-in suite, at job and task granularity, with
no drops and with every droppable graph dropped, with and without
``zero_dropped_bcet``, on the flat fabric and with message jobs (whose
``src>dst`` task names no hardening map knows).
"""

import random
from collections import Counter
from typing import Dict, Tuple

import numpy as np
import pytest

from repro.comm import with_comm
from repro.core.analysis import MixedCriticalityAnalysis, TransitionTable
from repro.dse.chromosome import heuristic_chromosome, random_chromosome
from repro.dse.repair import repair
from repro.hardening.spec import HardeningKind
from repro.hardening.transform import harden
from repro.sched.fast import FastWindowAnalysisBackend
from repro.suites import benchmark_names, get_benchmark
from tests.overrides import with_overrides


def _activated_wcet(hardened, architecture, mapping, task_name):
    task = hardened.applications.task(task_name)
    return architecture.processor(mapping[task_name]).scale_time(task.wcet)


def reference_overrides(
    hardened, architecture, mapping, base, normal, trigger, instance, window,
    dropped, zero_dropped_bcet, rules,
) -> Dict[Tuple[str, int], Tuple[float, float]]:
    """One outer-loop iteration of Algorithm 1, job by job."""
    min_start_v, max_finish_v = window
    overrides = {}
    handled = set()
    if trigger.kind is not HardeningKind.PASSIVE:
        inflation = hardened.critical_inflation(trigger.primary)
        for job in base.analyzed_jobs_of_task(trigger.primary):
            if instance is not None and job.instance != instance:
                continue
            overrides[job.job_id] = (job.bcet, job.wcet * inflation)
            handled.add(job.job_id)
            rules["trigger re-execution"] += 1
    else:
        for name in hardened.replica_groups[trigger.primary]:
            if name not in hardened.passive_tasks:
                continue
            for job in base.analyzed_jobs_of_task(name):
                if instance is not None and job.instance != instance:
                    continue
                overrides[job.job_id] = (
                    0.0, _activated_wcet(hardened, architecture, mapping, name)
                )
                handled.add(job.job_id)
                rules["trigger passive"] += 1
    for job in base.analyzed_jobs:
        if job.job_id in handled:
            continue
        bounds = normal.bounds_at(job.index)
        if bounds.max_finish < min_start_v:
            rules["finished before the fault"] += 1
            continue
        if job.graph_name in dropped:
            if bounds.min_start > max_finish_v:
                overrides[job.job_id] = (0.0, 0.0)
                rules["certainly dropped"] += 1
            else:
                low = 0.0 if zero_dropped_bcet else job.bcet
                overrides[job.job_id] = (min(low, job.wcet), job.wcet)
                rules["maybe dropped"] += 1
        elif hardened.is_time_redundant(job.task_name):
            inflation = hardened.critical_inflation(job.task_name)
            overrides[job.job_id] = (job.bcet, job.wcet * inflation)
            rules["re-execution"] += 1
        elif hardened.is_passive(job.task_name):
            overrides[job.job_id] = (
                0.0,
                _activated_wcet(hardened, architecture, mapping, job.task_name),
            )
            rules["passive"] += 1
        elif ">" in job.task_name:
            rules["message keeps nominal"] += 1
    return overrides


def _designs(problem):
    """The heuristic design (re-execution only) and a repaired random one
    (passive replication on the suites whose encoding allows it)."""
    heuristic = heuristic_chromosome(problem, random.Random(11))
    rng = random.Random(0)
    randomized = repair(random_chromosome(problem, rng), problem, rng)
    return heuristic.decode(problem), randomized.decode(problem)


def check_suite(suite: str, comm: str) -> Counter:
    """Compare table and per-job rule on every transition; count rules."""
    problem = get_benchmark(suite).problem
    architecture = with_comm(problem.architecture, comm)
    droppable = tuple(
        graph.name for graph in problem.applications.graphs if graph.droppable
    )
    rules: Counter = Counter()
    for design in _designs(problem):
        hardened = harden(problem.applications, design.plan)
        for granularity in ("job", "task"):
            analysis = MixedCriticalityAnalysis(
                backend=FastWindowAnalysisBackend(), granularity=granularity
            )
            base = analysis._base_jobset(hardened, architecture, design.mapping)
            normal = analysis._sched(base)
            transitions = list(
                analysis._enumerate_transitions(hardened, base, normal)
            )
            for drops in ((), droppable):
                dropped = hardened.source.validate_drop_set(drops)
                for zero in (False, True):
                    table = TransitionTable(
                        hardened, architecture, design.mapping, base, normal,
                        dropped, zero,
                    )
                    for trigger, instance, window in transitions:
                        expected = with_overrides(base, reference_overrides(
                            hardened, architecture, design.mapping, base,
                            normal, trigger, instance, window, dropped, zero,
                            rules,
                        ))
                        got = table.bounds(trigger, instance, window)
                        label = f"{granularity} {trigger.primary}@{instance}"
                        for want, have in zip((expected.bcet, expected.wcet), got):
                            assert have.dtype == np.float64
                            assert have.tobytes() == want.tobytes(), label
                        rules["transitions"] += 1
        if comm == "message-jobs":
            assert any(">" in job.task_name for job in base.jobs)
    return rules


@pytest.mark.parametrize("comm", ["flat", "message-jobs"])
@pytest.mark.parametrize("suite", benchmark_names())
def test_vector_table_equals_per_job_rule(suite, comm):
    assert check_suite(suite, comm)["transitions"] > 0


def test_every_rule_is_exercised():
    rules = check_suite("cruise", "message-jobs")
    for rule in (
        "trigger re-execution",
        "trigger passive",
        "finished before the fault",
        "certainly dropped",
        "maybe dropped",
        "re-execution",
        "passive",
        "message keeps nominal",
    ):
        assert rules[rule] > 0, rule
