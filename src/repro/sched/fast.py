"""Vectorised variant of the window-based schedulability back-end.

Implements exactly the same monotone Jacobi iteration as
:class:`repro.sched.wcrt.WindowAnalysisBackend` — per-job interference
bound capped by the per-batch work-conservation bound — but evaluates
each sweep with numpy over the job set's flat index arrays
(:meth:`~repro.sched.jobs.JobSet.index_arrays`, built once per unrolled
structure and shared by every ``with_bounds`` clone).  Results are
identical to the reference, bound for bound: every sweep performs the
same floating-point operations in the same order, and a job's finish
bound only grows when the candidate exceeds it by more than ``1e-12`` —
the reference's rule, so sub-``1e-12`` increases are dropped by both.
The speedup grows with job count and matters inside the DSE loop, where
Algorithm 1 re-runs the back-end once per transition per candidate.

Use it anywhere a :class:`~repro.sched.wcrt.SchedBackend` is accepted::

    analysis = MixedCriticalityAnalysis(backend=FastWindowAnalysisBackend())
"""

import numpy as np

from repro.errors import AnalysisError
from repro.obs.trace import span as trace_span
from repro.sched.jobs import JobSet
from repro.sched.wcrt import ScheduleBounds


class FastWindowAnalysisBackend:
    """Numpy implementation of the window analysis (see module docs)."""

    def __init__(self, max_sweeps: int = 200):
        if max_sweeps < 1:
            raise AnalysisError("max_sweeps must be >= 1")
        self._max_sweeps = max_sweeps

    def analyze(self, jobset: JobSet) -> ScheduleBounds:
        """Compute bounds for every job of the set."""
        pre = jobset.index_arrays()
        count = len(jobset)
        order = jobset.topo_order
        release = pre.release_values
        preds = pre.preds
        wcet = jobset.wcet
        bcet_values = jobset.bcet.tolist()
        wcet_values = wcet.tolist()

        # ---- best case: longest path, no interference ----
        min_start = [0.0] * count
        min_finish = [0.0] * count
        for index in order:
            earliest = release[index]
            for src, comm_best, _worst, _on_demand in preds[index]:
                arrival = min_finish[src] + comm_best
                if arrival > earliest:
                    earliest = arrival
            min_start[index] = earliest
            min_finish[index] = earliest + bcet_values[index]

        # ---- worst case: monotone Jacobi iteration ----
        initial = [0.0] * count
        for index in order:  # interference-free initialisation
            latest = release[index]
            for src, _best, comm_worst, _on_demand in preds[index]:
                arrival = initial[src] + comm_worst
                if arrival > latest:
                    latest = arrival
            initial[index] = latest + wcet_values[index]
        max_finish = np.array(initial)
        min_start_vector = np.array(min_start)

        # Batch window starts depend only on min_start (fixed per analyze).
        batch_window_start = np.full(pre.batch_count, np.inf)
        np.minimum.at(
            batch_window_start, pre.member_batch, min_start_vector[pre.member_flat]
        )
        batch_work = np.zeros(pre.batch_count)
        np.add.at(batch_work, pre.member_batch, wcet[pre.member_flat])

        converged = False
        sweeps = 0
        with trace_span("sched.fast.fixed_point", jobs=count) as fp_span:
            for sweeps in range(1, self._max_sweeps + 1):
                # Batch caps from the previous state (vectorised reductions).
                batch_arrival = pre.batch_release.copy()
                if pre.ext_src.size:
                    np.maximum.at(
                        batch_arrival,
                        pre.ext_batch,
                        max_finish[pre.ext_src] + pre.ext_comm,
                    )
                batch_window_end = np.full(pre.batch_count, -np.inf)
                np.maximum.at(
                    batch_window_end, pre.member_batch, max_finish[pre.member_flat]
                )
                batch_interference = np.zeros(pre.batch_count)
                if pre.int_other.size:
                    overlap = (
                        min_start_vector[pre.int_other]
                        < batch_window_end[pre.int_batch]
                    ) & (max_finish[pre.int_other] > batch_window_start[pre.int_batch])
                    np.add.at(
                        batch_interference,
                        pre.int_batch,
                        np.where(overlap, wcet[pre.int_other], 0.0),
                    )
                batch_bound = batch_arrival + batch_work + batch_interference
                batch_cap = np.full(count, np.inf)
                np.minimum.at(
                    batch_cap, pre.member_flat, batch_bound[pre.member_batch]
                )

                # Per-job arrivals from the previous state.
                arrival = jobset.release.copy()
                if pre.pred_src.size:
                    candidate = max_finish[pre.pred_src] + pre.pred_comm_worst
                    np.maximum.at(arrival, pre.pred_dst, candidate)

                # Interference sums over overlapping higher-priority jobs.
                interference = np.zeros(count)
                if pre.hp_victim.size:
                    overlap = (
                        min_start_vector[pre.hp_other] < max_finish[pre.hp_victim]
                    ) & (max_finish[pre.hp_other] > min_start_vector[pre.hp_victim])
                    contributions = np.where(overlap, wcet[pre.hp_other], 0.0)
                    np.add.at(interference, pre.hp_victim, contributions)

                job_bound = arrival + wcet + interference
                candidate = np.minimum(job_bound, batch_cap)
                # The reference's rule: grow only by more than 1e-12.
                grow = candidate > max_finish + 1e-12
                if not grow.any():
                    converged = True
                    break
                max_finish = np.where(grow, candidate, max_finish)
            fp_span.set_attributes(sweeps=sweeps, converged=converged)

        if not converged:
            # Trivially safe fallback, as in the reference backend.
            for _ in range(2):
                for index in order:
                    latest = release[index]
                    for src, _best, comm_worst, _on_demand in preds[index]:
                        candidate = max_finish[src] + comm_worst
                        if candidate > latest:
                            latest = candidate
                    total = sum(
                        wcet[o] for o in jobset.higher_priority_on_same_pe(index)
                    )
                    max_finish[index] = latest + wcet[index] + total

        max_start = max_finish - wcet
        return ScheduleBounds(
            jobset,
            min_start,
            min_finish,
            max_start.tolist(),
            max_finish.tolist(),
            converged,
            sweeps,
        )
