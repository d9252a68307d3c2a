"""Unit tests for hyperperiod unrolling and job sets."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.model.application import ApplicationSet
from repro.model.mapping import Mapping
from repro.model.task import Channel, Task
from repro.model.taskgraph import TaskGraph
from repro.sched.jobs import unroll
from tests.overrides import with_overrides


@pytest.fixture
def jobset(apps, architecture, mapping):
    flat = Mapping(
        {
            "a": "pe0",
            "b": "pe0",
            "c": "pe1",
            "x": "pe2",
            "y": "pe2",
        }
    )
    return unroll(apps, flat, architecture)


class TestUnrolling:
    def test_job_counts(self, jobset):
        # hyperperiod 20, horizon 40: hi (period 20) x2, lo (period 10) x4
        hi_jobs = [j for j in jobset.jobs if j.graph_name == "hi"]
        lo_jobs = [j for j in jobset.jobs if j.graph_name == "lo"]
        assert len(hi_jobs) == 3 * 2
        assert len(lo_jobs) == 2 * 4

    def test_releases_and_deadlines(self, jobset):
        job = jobset.job(("x", 2))
        assert job.release == 20.0
        assert job.abs_deadline == 30.0

    def test_analyzed_flag_covers_first_hyperperiod(self, jobset):
        for job in jobset.jobs:
            assert job.analyzed == (job.release < 20.0)

    def test_horizon(self, jobset):
        assert jobset.hyperperiod == 20.0
        assert jobset.horizon == 40.0

    def test_single_hyperperiod_unroll(self, apps, architecture):
        flat = Mapping({t: "pe0" for t in apps.all_task_names})
        js = unroll(apps, flat, architecture, hyperperiods=1)
        assert js.horizon == 20.0
        assert all(job.analyzed for job in js.jobs)

    def test_invalid_hyperperiods_rejected(self, apps, architecture):
        flat = Mapping({t: "pe0" for t in apps.all_task_names})
        with pytest.raises(AnalysisError):
            unroll(apps, flat, architecture, hyperperiods=0)

    def test_precedence_within_instance(self, jobset):
        job_b = jobset.job(("b", 1))
        pred_indices = {p[0] for p in job_b.preds}
        assert pred_indices == {jobset.job(("a", 1)).index}

    def test_priorities_unique(self, jobset):
        priorities = [job.priority for job in jobset.jobs]
        assert len(set(priorities)) == len(priorities)

    def test_task_level_bounds_override(self, apps, architecture):
        flat = Mapping({t: "pe0" for t in apps.all_task_names})
        js = unroll(apps, flat, architecture, bounds={"a": (0.0, 9.0)})
        for job in js.jobs_of_task("a"):
            assert (job.bcet, job.wcet) == (0.0, 9.0)

    def test_speed_scaling(self, apps):
        from repro.model.architecture import Architecture, Interconnect, Processor

        arch = Architecture(
            [Processor("fast", speed=2.0)], Interconnect(bandwidth=100.0)
        )
        flat = Mapping({t: "fast" for t in apps.all_task_names})
        js = unroll(apps, flat, arch)
        job = js.jobs_of_task("b")[0]
        assert job.wcet == pytest.approx(2.0)  # 4.0 / speed 2


class TestWithBounds:
    def test_override_applies(self, jobset):
        clone = with_overrides(jobset, {("a", 0): (0.5, 1.0)})
        assert clone.job(("a", 0)).wcet == 1.0
        assert jobset.job(("a", 0)).wcet == 2.0  # original untouched

    def test_override_second_hyperperiod_rejected(self, jobset):
        with pytest.raises(AnalysisError, match="second hyperperiod"):
            with_overrides(jobset, {("a", 1): (0.0, 1.0)})

    def test_override_unknown_job_rejected(self, jobset):
        with pytest.raises(AnalysisError, match="no job"):
            with_overrides(jobset, {("ghost", 0): (0.0, 1.0)})
        longer = np.append(jobset.wcet, 1.0)
        with pytest.raises(AnalysisError, match="unknown"):
            jobset.with_bounds(np.append(jobset.bcet, 0.0), longer)
        with pytest.raises(AnalysisError, match="missing"):
            jobset.with_bounds(jobset.bcet[:-1], jobset.wcet[:-1])

    def test_invalid_bounds_rejected(self, jobset):
        with pytest.raises(AnalysisError, match="invalid bounds"):
            with_overrides(jobset, {("a", 0): (2.0, 1.0)})
        with pytest.raises(AnalysisError, match="invalid bounds"):
            with_overrides(jobset, {("a", 0): (-1.0, 1.0)})

    def test_empty_override_returns_same_object(self, jobset):
        assert with_overrides(jobset, {}) is jobset
        assert jobset.with_bounds(jobset.bcet, jobset.wcet) is jobset

    def test_clone_vectors_are_read_only(self, jobset):
        clone = with_overrides(jobset, {("a", 0): (0.5, 1.0)})
        with pytest.raises(ValueError):
            clone.wcet[0] = 99.0
        with pytest.raises(ValueError):
            jobset.bcet[0] = 99.0

    def test_clone_builds_jobs_from_vectors(self, jobset):
        clone = with_overrides(jobset, {("a", 0): (0.5, 1.0)})
        assert [job.wcet for job in clone.jobs] == clone.wcet.tolist()
        assert [job.bcet for job in clone.jobs] == clone.bcet.tolist()
        untouched = jobset.job(("b", 0))
        assert clone.job(("b", 0)) is untouched

    def test_clone_shares_structure_tables(self, jobset):
        clone = with_overrides(jobset, {("a", 0): (0.5, 1.0)})
        assert clone.index_arrays() is jobset.index_arrays()
        assert clone.analyzed_indices_of_task("a") is (
            jobset.analyzed_indices_of_task("a")
        )
        assert clone.analyzed is jobset.analyzed


class TestInterferenceStructure:
    def test_hp_lists_exclude_ancestors_and_descendants(self, jobset):
        # a -> b on pe0: b's hp list must not contain a's jobs of the
        # same instance (ancestor), and vice versa (descendant).
        job_a = jobset.job(("a", 0))
        job_b = jobset.job(("b", 0))
        assert job_a.index not in jobset.higher_priority_on_same_pe(job_b.index)
        assert job_b.index not in jobset.higher_priority_on_same_pe(job_a.index)

    def test_hp_lists_contain_cross_instance_jobs(self, jobset):
        job_b0 = jobset.job(("b", 0))
        job_b1 = jobset.job(("b", 1))
        hp_of_b1 = jobset.higher_priority_on_same_pe(job_b1.index)
        assert job_b0.index in hp_of_b1

    def test_hp_lists_are_actually_higher_priority(self, jobset):
        for job in jobset.jobs:
            for other in jobset.higher_priority_on_same_pe(job.index):
                assert jobset.jobs[other].priority < job.priority
                assert jobset.jobs[other].processor == job.processor


class TestBatches:
    def test_batches_partition_jobs(self, jobset):
        seen = set()
        for batch in jobset.batches():
            for member in batch.members:
                assert member not in seen
                seen.add(member)
        assert seen == set(range(len(jobset)))

    def test_batch_members_share_instance_and_pe(self, jobset):
        for batch in jobset.batches():
            keys = {
                (
                    jobset.jobs[m].graph_name,
                    jobset.jobs[m].instance,
                    jobset.jobs[m].processor,
                )
                for m in batch.members
            }
            assert len(keys) == 1

    def test_batch_interferers_exclude_member_ancestors(self, apps, architecture):
        flat = Mapping({t: "pe0" for t in apps.all_task_names})
        js = unroll(apps, flat, architecture)
        job_a0 = js.job(("a", 0))
        for batch in js.batches():
            if js.job(("c", 0)).index in batch.members:
                assert job_a0.index not in batch.interferers

    def test_batches_cached_across_clones(self, jobset):
        batches = jobset.batches()
        clone = with_overrides(jobset, {("a", 0): (0.0, 1.0)})
        assert clone.batches() is batches

    @pytest.mark.parametrize("comm", [None, "message-jobs"])
    def test_interferers_match_a_full_scan(
        self, hardened, architecture, mapping, comm
    ):
        from repro.comm import make_comm

        js = unroll(
            hardened.applications, mapping, architecture,
            comm=None if comm is None else make_comm(comm),
        )
        jobs = js.jobs
        for batch in js.batches():
            members = set(batch.members)
            ancestors = set()
            for member in batch.members:
                ancestors |= {
                    other.index for other in jobs
                    if _is_ancestor(jobs, other.index, member)
                }
            processor = jobs[batch.members[0]].processor
            weakest = max(jobs[m].priority for m in batch.members)
            assert batch.interferers == tuple(
                other.index for other in jobs
                if other.index not in members
                and other.index not in ancestors
                and other.processor == processor
                and other.priority < weakest
            )

    def test_reentrant_split(self, hardened, architecture, mapping):
        # b's voter waits for off-processor copies of b while sharing
        # pe0 with b itself -> the pe0 group of graph "hi" must be split.
        js = unroll(hardened.applications, mapping, architecture)
        vote_index = js.job(("b#vote", 0)).index
        b_index = js.job(("b", 0)).index
        for batch in js.batches():
            if vote_index in batch.members:
                assert b_index not in batch.members


def _is_ancestor(jobs, candidate, job_index):
    """Whether ``candidate`` reaches ``job_index`` through precedence edges."""
    stack = [pred for pred, *_ in jobs[job_index].preds]
    seen = set()
    while stack:
        index = stack.pop()
        if index == candidate:
            return True
        if index not in seen:
            seen.add(index)
            stack.extend(pred for pred, *_ in jobs[index].preds)
    return False
