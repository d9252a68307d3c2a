"""The ``flat`` and ``message-jobs`` backends: the paper's §2.1 pipe.

``flat`` is the guaranteed-bandwidth reference oracle.  Binding it with
no ARQ budget returns the plain :class:`~repro.sched.comm.CommModel`
itself, so the legacy analysis path (and every cached fingerprint) stays
byte-identical; with a retransmission budget the bound model folds the
ARQ margin on top of the uncontended worst case.

``message-jobs`` keeps flat's per-attempt cost but stops reserving
bandwidth: :func:`repro.sched.jobs.unroll` turns every sized
cross-processor transfer into a bus job spanning the channel's
``(best, worst)`` bounds, so transfers interfere inside ``sched()``.
"""

from repro.comm.base import ArqPolicy, BoundComm, CommBackend, attempt_cost
from repro.model.architecture import Architecture
from repro.model.mapping import Mapping
from repro.sched.comm import CommModel


class FlatBound(BoundComm):
    """Uncontended bounds plus the ARQ retransmission margin."""

    def attempt_worst(self, src: str, dst: str, size: float) -> float:
        return attempt_cost(self._interconnect, size)

    def describe(self) -> str:
        ic = self._interconnect
        return f"flat:bw={ic.bandwidth.hex()}:lat={ic.base_latency.hex()}"


class FlatBackend(CommBackend):
    """Guaranteed-bandwidth fabric (paper §2.1)."""

    name = "flat"

    def bind(self, applications, mapping: Mapping, architecture: Architecture):
        interconnect = architecture.interconnect
        arq = self.resolve_arq(interconnect)
        if not arq.active:
            # Byte-identical legacy path: plain CommModel, no
            # channel_bounds attribute, empty fingerprint token.
            return CommModel(interconnect)
        return FlatBound(interconnect, arq)


class MessageJobsBound(FlatBound):
    """Flat per-attempt costs, transfers arbitrated as bus jobs."""

    message_jobs = True

    @property
    def fingerprint_token(self) -> str:
        # Message jobs already change the job-set structure, so without
        # ARQ the token stays empty and legacy fingerprints survive.
        if not self._arq.active:
            return ""
        return super().fingerprint_token

    def describe(self) -> str:
        return "message-jobs:" + super().describe()

    def without_arq(self) -> BoundComm:
        # The simulator keeps the reservation model: no bus jobs.
        return FlatBound(self._interconnect, ArqPolicy())


class MessageJobsBackend(CommBackend):
    """One shared bus; every sized cross-processor transfer is a job."""

    name = "message-jobs"

    def bind(self, applications, mapping: Mapping, architecture: Architecture):
        interconnect = architecture.interconnect
        return MessageJobsBound(interconnect, self.resolve_arq(interconnect))
