"""Window-based best-/worst-case schedulability analysis.

This module is the ``sched`` back-end used by the paper's Algorithm 1.  It
computes, for every job of a :class:`~repro.sched.jobs.JobSet`:

* ``min_start`` / ``min_finish`` — safe lower bounds, obtained by a
  longest-path pass with best-case execution and communication times and
  no interference (no work-conserving scheduler can run a job earlier);
* ``max_start`` / ``max_finish`` — safe upper bounds, obtained by a
  monotone fixed-point iteration: a job's worst-case finish is its latest
  data/release arrival plus its own WCET plus the WCETs of all
  higher-priority jobs on the same processor whose execution windows may
  overlap its pending interval.

The iteration starts from the interference-free solution and grows
windows monotonically; if it does not stabilise within ``max_sweeps``
sweeps it falls back to the trivially safe bound that charges every
higher-priority job on the processor, which is itself a fixed point.

Safety argument (sketch): order actual executions by completion time.  A
job's actual arrival is bounded by its predecessors' ``max_finish`` plus
worst-case channel latency; any higher-priority job that actually delays
it must be pending during the job's pending interval, and its actual
window lies within the computed ``[min_start, max_finish]`` windows by
induction — so it is a member of the computed interference set.  The
fixed point therefore dominates every actual schedule.
"""

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Protocol, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.sched.jobs import Job, JobId, JobSet


@dataclass(frozen=True)
class JobBounds:
    """Safe execution-window bounds of one job."""

    min_start: float
    min_finish: float
    max_start: float
    max_finish: float

    @property
    def window(self) -> Tuple[float, float]:
        """``[min_start, max_finish]`` — the interval the job may occupy."""
        return (self.min_start, self.max_finish)


class ScheduleBounds:
    """Per-job analysis results with task- and graph-level aggregation."""

    def __init__(
        self,
        jobset: JobSet,
        min_start: List[float],
        min_finish: List[float],
        max_start: List[float],
        max_finish: List[float],
        converged: bool,
        sweeps: int,
    ):
        self._jobset = jobset
        self._min_start = min_start
        self._min_finish = min_finish
        self._max_start = max_start
        self._max_finish = max_finish
        #: Whether the fixed point stabilised before the sweep limit.
        self.converged = converged
        #: Number of sweeps the iteration took.
        self.sweeps = sweeps
        self._min_start_vector: Optional[np.ndarray] = None
        self._max_finish_vector: Optional[np.ndarray] = None

    @property
    def jobset(self) -> JobSet:
        """The analyzed job set."""
        return self._jobset

    @property
    def min_start_vector(self) -> np.ndarray:
        """Per-job ``min_start`` as a read-only vector."""
        if self._min_start_vector is None:
            vector = np.array(self._min_start, dtype=np.float64)
            vector.flags.writeable = False
            self._min_start_vector = vector
        return self._min_start_vector

    @property
    def max_finish_vector(self) -> np.ndarray:
        """Per-job ``max_finish`` as a read-only vector."""
        if self._max_finish_vector is None:
            vector = np.array(self._max_finish, dtype=np.float64)
            vector.flags.writeable = False
            self._max_finish_vector = vector
        return self._max_finish_vector

    # ------------------------------------------------------------------
    # Job-level access
    # ------------------------------------------------------------------

    def job_bounds(self, job_id: JobId) -> JobBounds:
        """Bounds of one job."""
        return self.bounds_at(self._jobset.index_of(job_id))

    def bounds_at(self, index: int) -> JobBounds:
        """Bounds of the job with the given dense index."""
        return JobBounds(
            min_start=self._min_start[index],
            min_finish=self._min_finish[index],
            max_start=self._max_start[index],
            max_finish=self._max_finish[index],
        )

    # ------------------------------------------------------------------
    # Task-level aggregation (Algorithm 1 interface)
    # ------------------------------------------------------------------

    def _analyzed_of_task(self, task_name: str) -> np.ndarray:
        indices = self._jobset.analyzed_indices_of_task(task_name)
        if not indices.size:
            raise AnalysisError(f"task {task_name!r} has no analyzed jobs")
        return indices

    def task_min_start(self, task_name: str) -> float:
        """``minStart`` over the task's first-hyperperiod jobs."""
        indices = self._analyzed_of_task(task_name)
        return float(self.min_start_vector[indices].min())

    def task_max_finish(self, task_name: str) -> float:
        """``maxFinish`` over the task's first-hyperperiod jobs."""
        indices = self._analyzed_of_task(task_name)
        return float(self.max_finish_vector[indices].max())

    def task_max_finishes(self) -> Dict[str, float]:
        """:meth:`task_max_finish` of every task with analyzed jobs."""
        names, indices, starts = self._jobset.analyzed_task_groups()
        if not names:
            return {}
        finish = np.maximum.reduceat(self.max_finish_vector[indices], starts)
        return dict(zip(names, finish.tolist()))

    # ------------------------------------------------------------------
    # Graph-level response times
    # ------------------------------------------------------------------

    def graph_wcrt(self, graph_name: str) -> float:
        """Worst-case response time of an application.

        The response time of an instance is the latest completion of any
        of its jobs relative to the instance release; the WCRT maximises
        over the instances of the first hyperperiod.
        """
        indices = self._jobset.analyzed_indices_of_graph(graph_name)
        if not indices.size:
            raise AnalysisError(f"graph {graph_name!r} has no analyzed jobs")
        response = self.max_finish_vector[indices] - self._jobset.release[indices]
        return float(response.max())

    def graph_wcrts(self) -> Dict[str, float]:
        """:meth:`graph_wcrt` of every graph with analyzed jobs."""
        names, indices, starts = self._jobset.analyzed_graph_groups()
        if not names:
            return {}
        response = self.max_finish_vector[indices] - self._jobset.release[indices]
        return dict(zip(names, np.maximum.reduceat(response, starts).tolist()))

    def deadline_misses(self, include_graphs: Optional[Iterable[str]] = None) -> List[JobId]:
        """First-hyperperiod jobs whose worst-case finish exceeds the deadline."""
        included = None if include_graphs is None else set(include_graphs)
        misses: List[JobId] = []
        for job in self._jobset.analyzed_jobs:
            if included is not None and job.graph_name not in included:
                continue
            if self._max_finish[job.index] > job.abs_deadline + 1e-9:
                misses.append(job.job_id)
        return misses


class SchedBackend(Protocol):
    """Interface of a schedulability back-end usable by Algorithm 1.

    Any analysis that returns safe lower bounds on start times and safe
    upper bounds on finish times per job can serve as the ``sched``
    function (paper §3 explicitly allows swapping the back-end).
    """

    def analyze(self, jobset: JobSet) -> ScheduleBounds:
        """Compute safe execution-window bounds for every job."""
        ...


class WindowAnalysisBackend:
    """The default window-based interference analysis (see module docs)."""

    def __init__(self, max_sweeps: int = 200):
        if max_sweeps < 1:
            raise AnalysisError("max_sweeps must be >= 1")
        self._max_sweeps = max_sweeps

    def analyze(self, jobset: JobSet) -> ScheduleBounds:
        """Compute bounds for every job of the set."""
        jobs = jobset.jobs
        count = len(jobs)
        order = jobset.topo_order

        # ---- best case: no interference, best-case times ----
        min_start = [0.0] * count
        min_finish = [0.0] * count
        for index in order:
            job = jobs[index]
            earliest = job.release
            for pred_index, comm_best, _comm_worst, _on_demand in job.preds:
                arrival = min_finish[pred_index] + comm_best
                if arrival > earliest:
                    earliest = arrival
            min_start[index] = earliest
            min_finish[index] = earliest + job.bcet

        # ---- worst case: monotone window iteration ----
        max_finish = [0.0] * count
        arrival_of = [0.0] * count
        for index in order:
            job = jobs[index]
            latest = job.release
            for pred_index, _comm_best, comm_worst, _on_demand in job.preds:
                arrival = max_finish[pred_index] + comm_worst
                if arrival > latest:
                    latest = arrival
            arrival_of[index] = latest
            max_finish[index] = latest + job.wcet

        # Monotone Jacobi iteration over two sound bounds: the per-job
        # interference bound and the per-batch work-conservation bound.
        # Each sweep computes both from the previous state and raises
        # every value to max(old, min(job bound, batch bound)); the
        # sequence is nondecreasing and bounded, and at the fixed point
        # every value dominates the smaller of two safe bounds — hence is
        # itself safe (see the module docstring).
        batches = jobset.batches()
        converged = False
        sweeps = 0
        for sweeps in range(1, self._max_sweeps + 1):
            changed = False
            batch_cap = [float("inf")] * count
            for batch in batches:
                arrival = batch.release
                for pred_index, comm_worst in batch.external_preds:
                    candidate = max_finish[pred_index] + comm_worst
                    if candidate > arrival:
                        arrival = candidate
                window_start = min(min_start[i] for i in batch.members)
                window_end = max(max_finish[i] for i in batch.members)
                total = 0.0
                for i in batch.members:
                    total += jobs[i].wcet
                interference = 0.0
                for other in batch.interferers:
                    if (
                        min_start[other] < window_end
                        and max_finish[other] > window_start
                    ):
                        interference += jobs[other].wcet
                bound = arrival + total + interference
                for member in batch.members:
                    batch_cap[member] = bound

            new_finish = list(max_finish)
            for index in order:
                job = jobs[index]
                latest = job.release
                for pred_index, _comm_best, comm_worst, _on_demand in job.preds:
                    arrival = max_finish[pred_index] + comm_worst
                    if arrival > latest:
                        latest = arrival
                arrival_of[index] = latest
                pending_from = min_start[index]
                current = max_finish[index]
                interference = 0.0
                for other in jobset.higher_priority_on_same_pe(index):
                    if (
                        min_start[other] < current
                        and max_finish[other] > pending_from
                    ):
                        interference += jobs[other].wcet
                job_bound = latest + job.wcet + interference
                candidate = min(job_bound, batch_cap[index])
                if candidate > current + 1e-12:
                    new_finish[index] = candidate
                    changed = True
            max_finish = new_finish
            if not changed:
                converged = True
                break

        if not converged:
            # Trivially safe fallback: charge every higher-priority job on
            # the processor, independent of windows.  Two topological
            # passes stabilise the arrival terms.
            for _ in range(2):
                for index in order:
                    job = jobs[index]
                    latest = job.release
                    for pred_index, _comm_best, comm_worst, _on_demand in job.preds:
                        arrival = max_finish[pred_index] + comm_worst
                        if arrival > latest:
                            latest = arrival
                    arrival_of[index] = latest
                    interference = sum(
                        jobs[other].wcet
                        for other in jobset.higher_priority_on_same_pe(index)
                    )
                    max_finish[index] = latest + job.wcet + interference

        max_start = [max_finish[i] - jobs[i].wcet for i in range(count)]
        return ScheduleBounds(
            jobset,
            min_start,
            min_finish,
            max_start,
            max_finish,
            converged,
            sweeps,
        )
