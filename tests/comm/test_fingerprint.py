"""Comm configuration must participate in job-set fingerprints.

The :class:`~repro.sched.cache.ScheduleCache` keys on
``JobSet.fingerprint()``; if two systems differing only in their comm
backend collided, a cached contended schedule could answer a flat query
(or vice versa).
"""

import hashlib
import random
import struct

import pytest

from repro.comm import COMM_BACKENDS, make_comm, with_comm
from repro.core.analysis import MixedCriticalityAnalysis
from repro.dse.chromosome import heuristic_chromosome
from repro.hardening.transform import harden
from repro.model.mapping import Mapping
from repro.sched.jobs import unroll
from repro.suites import benchmark_names, get_benchmark
from tests.overrides import with_overrides


def _cross_mapping(apps):
    names = sorted(apps.all_task_names)
    return Mapping(
        {name: f"pe{i % 2}" for i, name in enumerate(names)}
    )


class TestFingerprint:
    def test_flat_backend_keeps_the_legacy_fingerprint(self, apps, architecture):
        mapping = _cross_mapping(apps)
        legacy = unroll(apps, mapping, architecture)
        explicit = unroll(
            apps, mapping, architecture, comm=make_comm("flat")
        )
        assert explicit.comm_token == ""
        assert explicit.fingerprint() == legacy.fingerprint()

    def test_backend_only_difference_changes_the_fingerprint(
        self, apps, architecture
    ):
        mapping = _cross_mapping(apps)
        fingerprints = {
            name: unroll(
                apps, mapping, architecture, comm=make_comm(name)
            ).fingerprint()
            for name in ("flat", "shared-bus", "tdma", "noc-xy")
        }
        assert len(set(fingerprints.values())) == 4

    def test_arq_budget_changes_the_fingerprint(self, apps, architecture):
        mapping = _cross_mapping(apps)
        one = unroll(
            apps, mapping, architecture, comm=make_comm("flat", arq_retries=1)
        )
        two = unroll(
            apps, mapping, architecture, comm=make_comm("flat", arq_retries=2)
        )
        assert one.comm_token != ""
        assert one.fingerprint() != two.fingerprint()

    def test_token_survives_with_bounds_clone(self, apps, architecture):
        mapping = _cross_mapping(apps)
        jobset = unroll(
            apps, mapping, architecture, comm=make_comm("tdma")
        )
        clone = with_overrides(jobset, {("a", 0): (0.0, 9.0)})
        assert clone.comm_token == jobset.comm_token


def legacy_fingerprint(jobset) -> str:
    """The digest as first defined: structure repr, then one ``struct``
    ``<dd`` pair per job."""
    hyperperiods = round(jobset.horizon / jobset.hyperperiod)
    parts = [
        repr((jobset.hyperperiod.hex(), hyperperiods)),
        repr(jobset.topo_order),
    ]
    if jobset.comm_token:
        parts.append(f"comm={jobset.comm_token}")
    for job in jobset.jobs:
        parts.append(
            repr(
                (
                    job.task_name,
                    job.graph_name,
                    job.instance,
                    job.release.hex(),
                    job.abs_deadline.hex(),
                    job.processor,
                    job.priority,
                    job.analyzed,
                    job.droppable,
                    tuple(
                        (pred, best.hex(), worst.hex(), on_demand)
                        for pred, best, worst, on_demand in job.preds
                    ),
                )
            )
        )
    structure = hashlib.sha256("\n".join(parts).encode("utf-8")).digest()
    digest = hashlib.sha256(structure)
    for job in jobset.jobs:
        digest.update(struct.pack("<dd", job.bcet, job.wcet))
    return digest.hexdigest()


class TestDigestByteIdentity:
    """The vector digest equals the per-job ``struct`` formula, so
    ScheduleCache and disk-cache keys survive the vector job set."""

    @pytest.mark.parametrize("arq", [None, 2])
    @pytest.mark.parametrize("backend", COMM_BACKENDS)
    @pytest.mark.parametrize("suite", benchmark_names())
    def test_suite_fingerprints_match_legacy_formula(self, suite, backend, arq):
        problem = get_benchmark(suite).problem
        design = heuristic_chromosome(problem, random.Random(11)).decode(problem)
        hardened = harden(problem.applications, design.plan)
        architecture = with_comm(problem.architecture, backend, arq_retries=arq)
        jobset = MixedCriticalityAnalysis()._base_jobset(
            hardened, architecture, design.mapping
        )
        assert jobset.fingerprint() == legacy_fingerprint(jobset)
        target = jobset.analyzed_jobs[-1]
        clone = with_overrides(
            jobset, {target.job_id: (0.0, target.wcet * 2.0 + 0.1)}
        )
        assert clone.fingerprint() == legacy_fingerprint(clone)
        assert clone.fingerprint() != jobset.fingerprint()
