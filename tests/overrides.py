"""Per-job bound overrides for tests.

:meth:`repro.sched.jobs.JobSet.with_bounds` takes full ``bcet``/``wcet``
vectors; tests usually want to change a handful of named jobs.
"""

from typing import Mapping, Tuple

from repro.sched.jobs import JobId, JobSet


def with_overrides(
    jobset: JobSet, overrides: Mapping[JobId, Tuple[float, float]]
) -> JobSet:
    """``jobset`` with the listed jobs carrying new ``(bcet, wcet)`` bounds."""
    bcet = jobset.bcet.copy()
    wcet = jobset.wcet.copy()
    for job_id, (low, high) in overrides.items():
        index = jobset.index_of(job_id)
        bcet[index] = low
        wcet[index] = high
    return jobset.with_bounds(bcet, wcet)
