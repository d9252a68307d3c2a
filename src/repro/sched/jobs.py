"""Hyperperiod unrolling: task graphs to job sets.

Every task graph instance released in the analysis horizon becomes a set of
*jobs* (one per task) linked by the instance's channels.  The horizon spans
**two** hyperperiods: jobs of the first hyperperiod are the analysis
subjects, jobs of the second only contribute interference so that bounds
near the boundary remain safe.

Per paper §3, the system returns to the normal state at the end of the
hyperperiod; second-hyperperiod jobs therefore always keep their nominal
execution-time bounds, even when Algorithm 1 explores a critical-state
transition in the first hyperperiod.
"""

import hashlib
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, List, Mapping as TMapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.model.application import ApplicationSet
from repro.model.architecture import Architecture
from repro.model.mapping import Mapping
from repro.sched.comm import CommModel
from repro.sched.priority import assign_priorities

#: A job is identified by its task name and the instance index of its graph.
JobId = Tuple[str, int]

#: Name of the virtual processor hosting the message jobs of the
#: ``message-jobs`` comm backend (see :func:`unroll`).
BUS_RESOURCE = "__bus__"

#: Per-processor scheduling policies: fixed priority and EDF.
SCHED_POLICIES = ("fp", "edf")


@dataclass(frozen=True)
class Batch:
    """All jobs of one graph instance on one processor (see
    :meth:`JobSet.batches`)."""

    #: Dense indices of the member jobs.
    members: Tuple[int, ...]
    #: ``(pred index, worst-case comm)`` for every out-of-batch dependency.
    external_preds: Tuple[Tuple[int, float], ...]
    #: Latest member release.
    release: float
    #: Same-processor jobs with higher priority than the weakest member.
    interferers: Tuple[int, ...]


@dataclass(frozen=True)
class Job:
    """One execution of a task within the analysis horizon."""

    index: int
    task_name: str
    graph_name: str
    instance: int
    release: float
    abs_deadline: float
    processor: str
    priority: int
    bcet: float
    wcet: float
    #: ``(predecessor job index, best-case comm, worst-case comm, on_demand)``
    #: tuples; ``on_demand`` marks passive-replication request edges.
    preds: Tuple[Tuple[int, float, float, bool], ...]
    #: Whether the job belongs to the first hyperperiod (analysis subject).
    analyzed: bool
    #: Whether the job's graph is droppable.
    droppable: bool

    @property
    def job_id(self) -> JobId:
        """The ``(task, instance)`` identifier."""
        return (self.task_name, self.instance)


@dataclass(frozen=True, eq=False)
class IndexArrays:
    """A job set's precedence, priority and batch structure as flat arrays.

    Built once per structure (see :meth:`JobSet.index_arrays`) and shared
    by every :meth:`JobSet.with_bounds` clone; consumed by the vectorised
    fixed point of :class:`repro.sched.fast.FastWindowAnalysisBackend`.
    """

    #: Job releases as Python floats.
    release_values: Tuple[float, ...]
    #: ``(pred index, best comm, worst comm, on_demand)`` per job.
    preds: Tuple[Tuple[Tuple[int, float, float, bool], ...], ...]
    #: Predecessor edges, one entry per (consumer, producer) pair.
    pred_src: np.ndarray
    pred_dst: np.ndarray
    pred_comm_worst: np.ndarray
    #: Interference pairs ``(victim, higher-priority interferer)``.
    hp_victim: np.ndarray
    hp_other: np.ndarray
    #: Batch membership, external inputs and interferers, flattened.
    batch_count: int
    member_flat: np.ndarray
    member_batch: np.ndarray
    ext_src: np.ndarray
    ext_comm: np.ndarray
    ext_batch: np.ndarray
    int_other: np.ndarray
    int_batch: np.ndarray
    batch_release: np.ndarray


class _Structure:
    """Everything about a job set except its execution-time bounds.

    One instance is built per unrolled job set and shared by all of its
    :meth:`JobSet.with_bounds` clones, so every table below — whether
    built eagerly or on first use — is computed once per structure.
    """

    def __init__(
        self,
        jobs: Tuple[Job, ...],
        hyperperiod: float,
        hyperperiods: int,
        applications: ApplicationSet,
        mapping: Mapping,
        topo_order: Tuple[int, ...],
        comm_token: str,
    ):
        #: The jobs with the bounds the structure was built with.
        self.jobs = jobs
        self.hyperperiod = hyperperiod
        self.hyperperiods = hyperperiods
        self.applications = applications
        self.mapping = mapping
        self.topo_order = topo_order
        self.comm_token = comm_token
        self.by_id: Dict[JobId, int] = {job.job_id: job.index for job in jobs}
        self.by_task: Dict[str, List[int]] = {}
        for job in jobs:
            self.by_task.setdefault(job.task_name, []).append(job.index)
        # Same-processor, higher-priority job indices, precomputed for the
        # interference iteration.
        by_pe: Dict[str, List[int]] = {}
        for job in jobs:
            by_pe.setdefault(job.processor, []).append(job.index)
        related = self._precedence_related()
        self.higher_priority: List[Tuple[int, ...]] = [()] * len(jobs)
        for indices in by_pe.values():
            ranked = sorted(indices, key=lambda i: jobs[i].priority)
            for position, job_index in enumerate(ranked):
                self.higher_priority[job_index] = tuple(
                    other
                    for other in ranked[:position]
                    if other not in related[job_index]
                )

    def _precedence_related(self) -> List[Set[int]]:
        """Ancestors ∪ descendants of every job within its graph instance.

        A job's ancestors always complete before it arrives and its
        descendants cannot start before it completes, so neither can ever
        be *pending* concurrently with it — they are soundly excluded
        from the same-processor interference sets.
        """
        ancestors: List[Set[int]] = [set() for _ in self.jobs]
        for job in self.jobs:  # construction order is topological per instance
            mine = ancestors[job.index]
            for pred_index, _best, _worst, _on_demand in job.preds:
                mine.add(pred_index)
                mine.update(ancestors[pred_index])
        self.ancestors: List[Set[int]] = ancestors
        related: List[Set[int]] = [set(a) for a in ancestors]
        for job in self.jobs:
            for ancestor in ancestors[job.index]:
                related[ancestor].add(job.index)
        return related

    @cached_property
    def analyzed(self) -> np.ndarray:
        """Mask of the first-hyperperiod jobs."""
        return _frozen([job.analyzed for job in self.jobs], bool)

    @cached_property
    def release(self) -> np.ndarray:
        return _frozen([job.release for job in self.jobs])

    @cached_property
    def instance(self) -> np.ndarray:
        return _frozen([job.instance for job in self.jobs], np.int64)

    @cached_property
    def analyzed_of_task(self) -> Dict[str, np.ndarray]:
        """Ascending first-hyperperiod job indices per task."""
        jobs = self.jobs
        return {
            name: _frozen([i for i in indices if jobs[i].analyzed], np.int64)
            for name, indices in self.by_task.items()
        }

    @cached_property
    def analyzed_of_graph(self) -> Dict[str, np.ndarray]:
        """Ascending first-hyperperiod job indices per graph."""
        grouped: Dict[str, List[int]] = {}
        for job in self.jobs:
            if job.analyzed:
                grouped.setdefault(job.graph_name, []).append(job.index)
        return {
            name: _frozen(indices, np.int64) for name, indices in grouped.items()
        }

    @cached_property
    def task_groups(self) -> Tuple[Tuple[str, ...], np.ndarray, np.ndarray]:
        return _groups(self.analyzed_of_task)

    @cached_property
    def graph_groups(self) -> Tuple[Tuple[str, ...], np.ndarray, np.ndarray]:
        return _groups(self.analyzed_of_graph)

    @cached_property
    def batches(self) -> Tuple[Batch, ...]:
        groups: Dict[Tuple[str, int, str], List[int]] = {}
        for job in self.jobs:
            key = (job.graph_name, job.instance, job.processor)
            groups.setdefault(key, []).append(job.index)
        processor_code = {name: code for code, name in enumerate(sorted(
            {job.processor for job in self.jobs}
        ))}
        pe_code = np.array(
            [processor_code[job.processor] for job in self.jobs], dtype=np.int64
        )
        priority = np.array([job.priority for job in self.jobs], dtype=np.int64)
        batches: List[Batch] = []
        for key in sorted(groups):
            # Split the group at re-entrant points: if a member's external
            # input transitively depends on an earlier member (e.g. a
            # voter waiting for an off-processor replica of a co-located
            # task), the batch arrival would depend on its own members and
            # the bound would self-inflate.  Cutting there keeps every
            # sub-batch's external inputs independent of its members.
            same_pe = pe_code == processor_code[key[2]]
            current: List[int] = []
            for index in groups[key]:
                reentrant = False
                current_set = set(current)
                for pred_index, _best, _worst, _on_demand in self.jobs[index].preds:
                    if pred_index in current_set:
                        continue
                    if self.ancestors[pred_index] & current_set:
                        reentrant = True
                        break
                if reentrant and current:
                    batches.append(self._make_batch(current, same_pe, priority))
                    current = []
                current.append(index)
            if current:
                batches.append(self._make_batch(current, same_pe, priority))
        return tuple(batches)

    def _make_batch(
        self, members: List[int], same_pe: np.ndarray, priority: np.ndarray
    ) -> Batch:
        jobs = self.jobs
        member_set = set(members)
        external: List[Tuple[int, float]] = []
        for index in members:
            for pred_index, _best, worst, _on_demand in jobs[index].preds:
                if pred_index not in member_set:
                    external.append((pred_index, worst))
        release = max(jobs[i].release for i in members)
        weakest = max(jobs[i].priority for i in members)
        # An ancestor of any member completes no later than the batch
        # arrival (its effect travels through some external input), so it
        # can never execute inside the batch's busy interval.
        candidate = same_pe & (priority < weakest)
        excluded = set(members)
        for index in members:
            excluded |= self.ancestors[index]
        candidate[list(excluded)] = False
        return Batch(
            members=tuple(members),
            external_preds=tuple(external),
            release=release,
            interferers=tuple(np.flatnonzero(candidate).tolist()),
        )

    @cached_property
    def index_arrays(self) -> IndexArrays:
        jobs = self.jobs
        pred_src: List[int] = []
        pred_dst: List[int] = []
        pred_comm_worst: List[float] = []
        for job in jobs:
            for src, _best, worst, _on_demand in job.preds:
                pred_src.append(src)
                pred_dst.append(job.index)
                pred_comm_worst.append(worst)
        hp_victim: List[int] = []
        hp_other: List[int] = []
        for index, others in enumerate(self.higher_priority):
            hp_victim.extend([index] * len(others))
            hp_other.extend(others)
        member_flat: List[int] = []
        member_batch: List[int] = []
        ext_src: List[int] = []
        ext_comm: List[float] = []
        ext_batch: List[int] = []
        int_other: List[int] = []
        int_batch: List[int] = []
        for b, batch in enumerate(self.batches):
            member_flat.extend(batch.members)
            member_batch.extend([b] * len(batch.members))
            for src, comm in batch.external_preds:
                ext_src.append(src)
                ext_comm.append(comm)
                ext_batch.append(b)
            int_other.extend(batch.interferers)
            int_batch.extend([b] * len(batch.interferers))

        def ints(values: List[int]) -> np.ndarray:
            return np.array(values, dtype=np.int64)

        def floats(values: List[float]) -> np.ndarray:
            return np.array(values, dtype=np.float64)

        return IndexArrays(
            release_values=tuple(job.release for job in jobs),
            preds=tuple(job.preds for job in jobs),
            pred_src=ints(pred_src),
            pred_dst=ints(pred_dst),
            pred_comm_worst=floats(pred_comm_worst),
            hp_victim=ints(hp_victim),
            hp_other=ints(hp_other),
            batch_count=len(self.batches),
            member_flat=ints(member_flat),
            member_batch=ints(member_batch),
            ext_src=ints(ext_src),
            ext_comm=floats(ext_comm),
            ext_batch=ints(ext_batch),
            int_other=ints(int_other),
            int_batch=ints(int_batch),
            batch_release=floats([batch.release for batch in self.batches]),
        )

    @cached_property
    def digest(self) -> bytes:
        parts: List[str] = [
            repr((self.hyperperiod.hex(), self.hyperperiods)),
            repr(self.topo_order),
        ]
        if self.comm_token:
            parts.append(f"comm={self.comm_token}")
        for job in self.jobs:
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
        return hashlib.sha256("\n".join(parts).encode("utf-8")).digest()


class JobSet:
    """An immutable indexed collection of jobs plus platform context.

    The per-job execution bounds live in two float64 vectors,
    :attr:`bcet` and :attr:`wcet`; everything else is a structure shared
    by every :meth:`with_bounds` clone.  Clones build their :class:`Job`
    tuple only when a reader asks for :attr:`jobs`.
    """

    def __init__(
        self,
        jobs: Sequence[Job],
        hyperperiod: float,
        applications: ApplicationSet,
        mapping: Mapping,
        topo_order: Sequence[int],
        hyperperiods: int = 2,
        comm_token: str = "",
    ):
        self._jobs: Optional[Tuple[Job, ...]] = tuple(jobs)
        self._s = _Structure(
            self._jobs,
            hyperperiod,
            hyperperiods,
            applications,
            mapping,
            tuple(topo_order),
            comm_token,
        )
        self._bcet = _frozen([job.bcet for job in self._jobs])
        self._wcet = _frozen([job.wcet for job in self._jobs])

    def batches(self) -> Tuple[Batch, ...]:
        """Work-conserving batches: same graph instance, same processor.

        All jobs of one graph instance mapped on one processor form a
        *batch*: every dependency of a member is either another member
        (and thus served on the same processor without idling) or
        external.  Once every member has been released and every external
        input has arrived, the processor finishes the whole batch after
        ``sum(member wcet)`` plus each interfering higher-priority job at
        most once — a bound that avoids charging the same interferer at
        every stage of a co-located chain.  The batch structure does not
        depend on execution-time bounds, so it is computed once and shared
        across :meth:`with_bounds` clones.
        """
        return self._s.batches

    def index_arrays(self) -> IndexArrays:
        """The structure as flat index arrays, shared across clones."""
        return self._s.index_arrays

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    @property
    def jobs(self) -> Tuple[Job, ...]:
        """All jobs, indexed densely from 0."""
        if self._jobs is None:
            self._jobs = tuple(
                job
                if job.bcet == bcet and job.wcet == wcet
                else replace(job, bcet=bcet, wcet=wcet)
                for job, bcet, wcet in zip(
                    self._s.jobs, self._bcet.tolist(), self._wcet.tolist()
                )
            )
        return self._jobs

    @property
    def bcet(self) -> np.ndarray:
        """Read-only per-job best-case execution times."""
        return self._bcet

    @property
    def wcet(self) -> np.ndarray:
        """Read-only per-job worst-case execution times."""
        return self._wcet

    @property
    def analyzed(self) -> np.ndarray:
        """Read-only mask of the first-hyperperiod jobs."""
        return self._s.analyzed

    @property
    def release(self) -> np.ndarray:
        """Per-job release times."""
        return self._s.release

    @property
    def instance(self) -> np.ndarray:
        """Per-job graph instance indices."""
        return self._s.instance

    @property
    def hyperperiod(self) -> float:
        """Hyperperiod of the application set."""
        return self._s.hyperperiod

    @property
    def horizon(self) -> float:
        """Length of the unrolled horizon."""
        return self._s.hyperperiods * self._s.hyperperiod

    @property
    def applications(self) -> ApplicationSet:
        """The (hardened) application set the jobs derive from."""
        return self._s.applications

    @property
    def mapping(self) -> Mapping:
        """The task-to-processor mapping in force."""
        return self._s.mapping

    @property
    def topo_order(self) -> Tuple[int, ...]:
        """Job indices in a precedence-compatible order."""
        return self._s.topo_order

    @property
    def comm_token(self) -> str:
        """Canonical identity of the comm model the set was unrolled with.

        Empty for the legacy flat model (fingerprints stay byte-stable);
        non-empty tokens enter :meth:`fingerprint` so two systems
        differing only in their comm configuration can never collide in
        the ScheduleCache.
        """
        return self._s.comm_token

    def __len__(self) -> int:
        return len(self._bcet)

    def index_of(self, job_id: JobId) -> int:
        """Dense index of the job ``(task, instance)``."""
        try:
            return self._s.by_id[job_id]
        except KeyError:
            raise AnalysisError(f"no job {job_id!r} in the job set") from None

    def job(self, job_id: JobId) -> Job:
        """Look up a job by ``(task, instance)``."""
        return self.jobs[self.index_of(job_id)]

    def jobs_of_task(self, task_name: str) -> List[Job]:
        """All jobs of a task across the horizon."""
        jobs = self.jobs
        return [jobs[i] for i in self._s.by_task.get(task_name, [])]

    def analyzed_jobs_of_task(self, task_name: str) -> List[Job]:
        """First-hyperperiod jobs of a task."""
        return [job for job in self.jobs_of_task(task_name) if job.analyzed]

    @property
    def analyzed_jobs(self) -> List[Job]:
        """All first-hyperperiod jobs."""
        return [job for job in self.jobs if job.analyzed]

    def analyzed_indices_of_task(self, task_name: str) -> np.ndarray:
        """Ascending indices of a task's first-hyperperiod jobs."""
        return self._s.analyzed_of_task.get(task_name, _NO_INDICES)

    def analyzed_indices_of_graph(self, graph_name: str) -> np.ndarray:
        """Ascending indices of a graph's first-hyperperiod jobs."""
        return self._s.analyzed_of_graph.get(graph_name, _NO_INDICES)

    def analyzed_task_groups(self) -> Tuple[Tuple[str, ...], np.ndarray, np.ndarray]:
        """First-hyperperiod jobs grouped by task, for ``reduceat`` folds.

        Returns ``(names, indices, starts)``: ``indices[starts[k]:
        starts[k + 1]]`` are the ascending job indices of task
        ``names[k]``.
        """
        return self._s.task_groups

    def analyzed_graph_groups(self) -> Tuple[Tuple[str, ...], np.ndarray, np.ndarray]:
        """First-hyperperiod jobs grouped by graph (see
        :meth:`analyzed_task_groups`)."""
        return self._s.graph_groups

    def higher_priority_on_same_pe(self, job_index: int) -> Tuple[int, ...]:
        """Indices of higher-priority jobs sharing the job's processor."""
        return self._s.higher_priority[job_index]

    # ------------------------------------------------------------------
    # Canonical identity
    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Canonical digest of the analysis input.

        Two job sets with equal fingerprints are indistinguishable to any
        :class:`~repro.sched.wcrt.SchedBackend`: same jobs (names, graph
        membership, releases, deadlines, processors, priorities, flags),
        same precedence edges with the same channel latencies, same
        iteration order, and same per-job ``[bcet, wcet]`` bounds — so a
        :class:`~repro.sched.wcrt.ScheduleBounds` computed for one is
        valid verbatim for the other.  Floats enter the digest via their
        exact hex encoding; no rounding is involved.

        The structural part (everything except the execution-time bounds)
        is hashed once and shared across :meth:`with_bounds` clones; the
        bounds enter as the little-endian ``(bcet, wcet)`` pairs of every
        job, the same bytes as packing each pair with ``struct`` ``<dd``.
        """
        digest = hashlib.sha256(self._s.digest)
        digest.update(
            np.column_stack((self._bcet, self._wcet)).astype("<f8").tobytes()
        )
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------

    def with_bounds(self, bcet, wcet) -> "JobSet":
        """A copy carrying the per-job bounds vectors ``bcet`` and ``wcet``.

        Only first-hyperperiod jobs may change: the system is back to the
        normal state in the second hyperperiod (paper §3).  A changed job
        needs ``0 <= bcet <= wcet``.  Unchanged vectors return ``self``.
        """
        bcet = np.array(bcet, dtype=np.float64)
        wcet = np.array(wcet, dtype=np.float64)
        count = len(self)
        if bcet.shape != (count,) or wcet.shape != (count,):
            raise AnalysisError(
                f"bounds vectors of shapes {bcet.shape} and {wcet.shape} do "
                f"not match the {count} jobs of the set (unknown or missing "
                f"jobs)"
            )
        changed = (bcet != self._bcet) | (wcet != self._wcet)
        if not changed.any():
            return self
        structure = self._s
        outside = changed & ~structure.analyzed
        if outside.any():
            job_id = structure.jobs[int(np.argmax(outside))].job_id
            raise AnalysisError(
                f"job {job_id!r} lies in the second hyperperiod and must "
                f"keep nominal bounds"
            )
        invalid = changed & ((bcet < 0) | (wcet < bcet))
        if invalid.any():
            index = int(np.argmax(invalid))
            raise AnalysisError(
                f"invalid bounds override for {structure.jobs[index].job_id!r}: "
                f"[{bcet[index]}, {wcet[index]}]"
            )
        bcet.flags.writeable = False
        wcet.flags.writeable = False
        clone = object.__new__(JobSet)
        clone._s = structure
        clone._bcet = bcet
        clone._wcet = wcet
        clone._jobs = None
        return clone


def _frozen(values: Sequence, dtype=np.float64) -> np.ndarray:
    """A read-only vector."""
    vector = np.array(values, dtype=dtype)
    vector.flags.writeable = False
    return vector


_NO_INDICES = _frozen([], np.int64)


def _groups(
    table: TMapping[str, np.ndarray]
) -> Tuple[Tuple[str, ...], np.ndarray, np.ndarray]:
    """Concatenate the non-empty index lists of ``table`` for ``reduceat``."""
    names = tuple(name for name, indices in table.items() if indices.size)
    parts = [table[name] for name in names]
    sizes = np.array([part.size for part in parts], dtype=np.int64)
    indices = np.concatenate(parts) if parts else _NO_INDICES
    starts = np.cumsum(sizes) - sizes
    return names, _frozen(indices, np.int64), _frozen(starts, np.int64)


def unroll(
    applications: ApplicationSet,
    mapping: Mapping,
    architecture: Architecture,
    comm: Optional[CommModel] = None,
    priorities: Optional[Dict[str, int]] = None,
    bounds: Optional[TMapping[str, Tuple[float, float]]] = None,
    hyperperiods: int = 2,
    policy: str = "fp",
) -> JobSet:
    """Unroll an application set into a :class:`JobSet` over two hyperperiods.

    Parameters
    ----------
    applications:
        The (typically hardened) application set ``T'``.
    mapping:
        Total task-to-processor mapping over ``T'``.
    architecture:
        The platform; provides processor speeds and the interconnect.
    comm:
        Channel latency model; defaults to the uncontended latency model of
        the platform interconnect.  An *unbound*
        :class:`repro.comm.CommBackend` (anything exposing ``bind``) is
        bound here against the hardened application set, so replica and
        voter channels participate in its contention analysis; bound
        models answering ``channel_bounds`` are queried per channel and
        their ``fingerprint_token`` enters the job-set fingerprint.  A
        true ``message_jobs`` attribute (the ``message-jobs`` backend)
        turns every sized cross-processor transfer into a *message job*
        on :data:`BUS_RESOURCE`, ranked right after its producer and
        spanning the channel's ``(best, worst)`` bounds, so transfers
        interfere instead of enjoying reserved bandwidth.
    priorities:
        Task priorities (smaller = higher); defaults to
        :func:`repro.sched.priority.assign_priorities`.
    bounds:
        Optional per-task ``(bcet, wcet)`` overrides applied to *all*
        instances, e.g. the nominal bounds of a hardened system (detection
        overheads included).  Tasks not listed use their model values.
    hyperperiods:
        Number of hyperperiods to unroll.  The default of 2 is what the
        analyses need (the second hyperperiod shields the first from
        boundary effects); the simulator unrolls exactly what it runs.
    policy:
        Per-processor scheduling policy: ``"fp"`` (fixed priority from
        ``priorities``, default) or ``"edf"`` (earliest absolute deadline
        first).  Jobs execute exactly once, so a static per-job rank by
        absolute deadline *is* preemptive EDF — both the analysis and the
        simulator follow the resulting job priorities.
    """
    if policy not in SCHED_POLICIES:
        raise AnalysisError(f"policy must be 'fp' or 'edf', got {policy!r}")
    mapping.validate(applications, architecture)
    if comm is None:
        comm = CommModel(architecture.interconnect)
    elif hasattr(comm, "bind"):
        comm = comm.bind(applications, mapping, architecture)
    channel_bounds = getattr(comm, "channel_bounds", None)
    comm_token = getattr(comm, "fingerprint_token", "")
    message_jobs = getattr(comm, "message_jobs", False)
    if priorities is None:
        priorities = assign_priorities(applications)
    if hyperperiods < 1:
        raise AnalysisError(f"hyperperiods must be >= 1, got {hyperperiods}")

    hyperperiod = applications.hyperperiod
    horizon = hyperperiods * hyperperiod

    jobs: List[Job] = []
    topo_order: List[int] = []
    index_of: Dict[JobId, int] = {}

    # Unique per-job priorities: (task priority, release, name) rank for
    # fixed priority; (absolute deadline, depth, name) rank for EDF, with
    # topological depth breaking deadline ties so pipelines drain in order.
    prio_keys: List[Tuple[float, float, str, JobId]] = []
    for graph in applications.graphs:
        instance_count = _instance_count(horizon, graph.period, graph.name)
        for instance in range(instance_count):
            release = instance * graph.period
            for task in graph.tasks:
                if policy == "edf":
                    key = (
                        release + graph.deadline,
                        float(graph.depth(task.name)),
                        task.name,
                        (task.name, instance),
                    )
                else:
                    key = (
                        float(priorities[task.name]),
                        release,
                        task.name,
                        (task.name, instance),
                    )
                prio_keys.append(key)
    prio_keys.sort()
    task_rank = {key[3]: rank for rank, key in enumerate(prio_keys)}

    def needs_message(channel, dst_name: str) -> bool:
        return (
            message_jobs
            and channel.size > 0
            and mapping[channel.src] != mapping[dst_name]
        )

    # Final dense ranks, interleaving message jobs directly after the
    # producing task job (a message inherits its producer's urgency).
    combined_keys: List[Tuple[int, int, str, JobId]] = []
    for graph in applications.graphs:
        instance_count = _instance_count(horizon, graph.period, graph.name)
        for instance in range(instance_count):
            for task_name in graph.topological_order():
                combined_keys.append(
                    (task_rank[(task_name, instance)], 0, task_name,
                     (task_name, instance))
                )
                for channel in graph.out_channels(task_name):
                    if needs_message(channel, channel.dst):
                        message = _message_name(channel.src, channel.dst)
                        combined_keys.append(
                            (task_rank[(task_name, instance)], 1, message,
                             (message, instance))
                        )
    combined_keys.sort()
    if len({key[3] for key in combined_keys}) != len(combined_keys):
        raise AnalysisError(
            "job identifier collision — with message jobs enabled, task "
            "names must not collide with generated message names "
            "('src>dst')"
        )
    job_priority = {key[3]: rank for rank, key in enumerate(combined_keys)}

    for graph in applications.graphs:
        instance_count = _instance_count(horizon, graph.period, graph.name)
        for instance in range(instance_count):
            release = instance * graph.period
            analyzed = release < hyperperiod
            for task_name in graph.topological_order():
                task = graph.task(task_name)
                processor = architecture.processor(mapping[task_name])
                if bounds is not None and task_name in bounds:
                    bcet, wcet = bounds[task_name]
                else:
                    bcet, wcet = task.bcet, task.wcet
                preds: List[Tuple[int, float, float, bool]] = []
                for channel in graph.in_channels(task_name):
                    pred_id = (channel.src, instance)
                    if needs_message(channel, task_name):
                        # Materialise the transfer as a bus job.
                        best, worst = channel_bounds(
                            channel.src, task_name, channel.size, False
                        )
                        message = _message_name(channel.src, task_name)
                        message_job = Job(
                            index=len(jobs),
                            task_name=message,
                            graph_name=graph.name,
                            instance=instance,
                            release=release,
                            abs_deadline=release + graph.deadline,
                            processor=BUS_RESOURCE,
                            priority=job_priority[(message, instance)],
                            bcet=best,
                            wcet=worst,
                            preds=((index_of[pred_id], 0.0, 0.0, False),),
                            analyzed=analyzed,
                            droppable=graph.droppable,
                        )
                        index_of[message_job.job_id] = message_job.index
                        jobs.append(message_job)
                        topo_order.append(message_job.index)
                        preds.append(
                            (message_job.index, 0.0, 0.0, channel.on_demand)
                        )
                        continue
                    same_pe = mapping[channel.src] == mapping[task_name]
                    if channel_bounds is not None:
                        best, worst = channel_bounds(
                            channel.src, task_name, channel.size, same_pe
                        )
                    else:
                        best = comm.best_case(channel.size, same_pe)
                        worst = comm.worst_case(channel.size, same_pe)
                    preds.append(
                        (index_of[pred_id], best, worst, channel.on_demand)
                    )
                job = Job(
                    index=len(jobs),
                    task_name=task_name,
                    graph_name=graph.name,
                    instance=instance,
                    release=release,
                    abs_deadline=release + graph.deadline,
                    processor=processor.name,
                    priority=job_priority[(task_name, instance)],
                    bcet=processor.scale_time(bcet),
                    wcet=processor.scale_time(wcet),
                    preds=tuple(preds),
                    analyzed=analyzed,
                    droppable=graph.droppable,
                )
                index_of[job.job_id] = job.index
                jobs.append(job)
                topo_order.append(job.index)

    return JobSet(
        jobs,
        hyperperiod,
        applications,
        mapping,
        topo_order,
        hyperperiods,
        comm_token=comm_token,
    )


def _message_name(src: str, dst: str) -> str:
    """Synthetic task name of the bus job for channel ``src -> dst``."""
    return f"{src}>{dst}"


def _instance_count(horizon: float, period: float, graph_name: str) -> int:
    """Number of instances of a graph released in the horizon."""
    count = horizon / period
    rounded = round(count)
    if abs(count - rounded) > 1e-9:
        raise AnalysisError(
            f"graph {graph_name!r}: horizon {horizon} is not an integral "
            f"multiple of period {period}"
        )
    return int(rounded)
