"""Per-task hardening specifications and whole-system plans."""

import enum
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.errors import HardeningError


class HardeningKind(enum.Enum):
    """The hardening technique applied to a task.

    ``REEXECUTION``, ``ACTIVE`` and ``PASSIVE`` are the paper's §2.2
    techniques; ``CHECKPOINT`` is the checkpointing-with-rollback scheme
    of the related work (Pop et al., ref [2]) supported as an extension:
    the task saves its state at segment boundaries and a fault only
    re-executes the current segment.
    """

    NONE = "none"
    REEXECUTION = "reexecution"
    ACTIVE = "active"
    PASSIVE = "passive"
    CHECKPOINT = "checkpoint"


@dataclass(frozen=True)
class HardeningSpec:
    """How a single (primary) task is hardened.

    Parameters
    ----------
    kind:
        The hardening technique.
    reexecutions:
        ``k`` — maximum number of re-executions (only for
        :attr:`HardeningKind.REEXECUTION`; must be >= 1).
    replicas:
        Total number of copies of the task, including the original (only
        for replication kinds; must be >= 2; >= 3 enables majority
        masking, exactly 2 gives detection only).
    active_replicas:
        For :attr:`HardeningKind.PASSIVE`: how many of the copies run
        proactively (>= 2 so that the voter can detect a mismatch and
        < ``replicas`` so that at least one passive copy exists).
    checkpoints:
        For :attr:`HardeningKind.CHECKPOINT`: the number of execution
        segments (>= 2; one segment is plain re-execution).  Detection
        and state saving cost one ``detection_overhead`` per segment; a
        fault re-executes only the current segment, up to
        ``reexecutions`` recoveries in total.
    """

    kind: HardeningKind = HardeningKind.NONE
    reexecutions: int = 0
    replicas: int = 1
    active_replicas: Optional[int] = None
    checkpoints: int = 0

    def __post_init__(self):
        if self.kind is not HardeningKind.CHECKPOINT and self.checkpoints != 0:
            raise HardeningError("only CHECKPOINT specs carry a segment count")
        if self.kind is HardeningKind.NONE:
            if self.reexecutions != 0 or self.replicas != 1 or self.active_replicas is not None:
                raise HardeningError("NONE spec must not carry parameters")
        elif self.kind is HardeningKind.REEXECUTION:
            if self.reexecutions < 1:
                raise HardeningError(
                    f"re-execution requires k >= 1, got {self.reexecutions}"
                )
            if self.replicas != 1 or self.active_replicas is not None:
                raise HardeningError("re-execution spec must not set replica counts")
        elif self.kind is HardeningKind.CHECKPOINT:
            if self.checkpoints < 2:
                raise HardeningError(
                    f"checkpointing requires >= 2 segments, got {self.checkpoints}"
                )
            if self.reexecutions < 1:
                raise HardeningError(
                    f"checkpointing requires k >= 1 recoveries, got {self.reexecutions}"
                )
            if self.replicas != 1 or self.active_replicas is not None:
                raise HardeningError("checkpoint spec must not set replica counts")
        elif self.kind is HardeningKind.ACTIVE:
            if self.replicas < 2:
                raise HardeningError(
                    f"active replication requires >= 2 copies, got {self.replicas}"
                )
            if self.reexecutions != 0 or self.active_replicas is not None:
                raise HardeningError("active spec carries only the replica count")
        elif self.kind is HardeningKind.PASSIVE:
            if self.replicas < 3:
                raise HardeningError(
                    f"passive replication requires >= 3 copies (>= 2 active + "
                    f">= 1 passive), got {self.replicas}"
                )
            active = self.effective_active_replicas
            if active < 2:
                raise HardeningError("passive replication requires >= 2 active copies")
            if active >= self.replicas:
                raise HardeningError(
                    "passive replication requires at least one passive copy"
                )
            if self.reexecutions != 0:
                raise HardeningError("passive spec must not set re-executions")

    @property
    def effective_active_replicas(self) -> int:
        """Number of proactively executed copies."""
        if self.kind is HardeningKind.ACTIVE:
            return self.replicas
        if self.kind is HardeningKind.PASSIVE:
            return 2 if self.active_replicas is None else self.active_replicas
        return 1

    @property
    def passive_replicas(self) -> int:
        """Number of on-demand copies."""
        if self.kind is HardeningKind.PASSIVE:
            return self.replicas - self.effective_active_replicas
        return 0

    @property
    def is_replicated(self) -> bool:
        """Whether the spec creates replica tasks and a voter."""
        return self.kind in (HardeningKind.ACTIVE, HardeningKind.PASSIVE)

    @property
    def triggers_critical_state(self) -> bool:
        """Whether a fault under this spec switches the system critical.

        Per paper §3, re-execution and passive replication trigger the
        critical state; active replication masks faults transparently.
        Checkpoint recovery, like re-execution, delays the task and
        therefore triggers the critical state as well.
        """
        return self.kind in (
            HardeningKind.REEXECUTION,
            HardeningKind.PASSIVE,
            HardeningKind.CHECKPOINT,
        )

    @property
    def is_time_redundant(self) -> bool:
        """Whether the spec recovers by spending extra time on the same PE."""
        return self.kind in (HardeningKind.REEXECUTION, HardeningKind.CHECKPOINT)

    # Convenience constructors ------------------------------------------------

    @staticmethod
    def none() -> "HardeningSpec":
        """No hardening (one shared instance; specs are immutable)."""
        return _NONE

    @staticmethod
    def reexecution(k: int) -> "HardeningSpec":
        """Re-execution with at most ``k`` retries."""
        return HardeningSpec(kind=HardeningKind.REEXECUTION, reexecutions=k)

    @staticmethod
    def active(replicas: int = 3) -> "HardeningSpec":
        """Active replication with ``replicas`` proactive copies."""
        return HardeningSpec(kind=HardeningKind.ACTIVE, replicas=replicas)

    @staticmethod
    def passive(replicas: int = 3, active: int = 2) -> "HardeningSpec":
        """Passive replication: ``active`` proactive + the rest on demand."""
        return HardeningSpec(
            kind=HardeningKind.PASSIVE, replicas=replicas, active_replicas=active
        )

    @staticmethod
    def checkpointing(recoveries: int, segments: int = 2) -> "HardeningSpec":
        """Checkpointing: ``segments`` segments, up to ``recoveries`` rollbacks."""
        return HardeningSpec(
            kind=HardeningKind.CHECKPOINT,
            reexecutions=recoveries,
            checkpoints=segments,
        )

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a JSON-friendly dictionary."""
        return {
            "kind": self.kind.value,
            "reexecutions": self.reexecutions,
            "replicas": self.replicas,
            "active_replicas": self.active_replicas,
            "checkpoints": self.checkpoints,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "HardeningSpec":
        """Deserialize from :meth:`to_dict` output."""
        return HardeningSpec(
            kind=HardeningKind(data.get("kind", "none")),
            reexecutions=data.get("reexecutions", 0),
            replicas=data.get("replicas", 1),
            active_replicas=data.get("active_replicas"),
            checkpoints=data.get("checkpoints", 0),
        )


_NONE = HardeningSpec()


class HardeningPlan:
    """An immutable map from primary task names to hardening specs.

    Tasks absent from the plan are unhardened.
    """

    def __init__(self, specs: Optional[Mapping[str, HardeningSpec]] = None):
        cleaned: Dict[str, HardeningSpec] = {}
        for task_name, spec in (specs or {}).items():
            if spec.kind is not HardeningKind.NONE:
                cleaned[task_name] = spec
        self._specs = cleaned

    def spec_of(self, task_name: str) -> HardeningSpec:
        """Spec of a task (``NONE`` when unlisted)."""
        return self._specs.get(task_name, HardeningSpec.none())

    def __contains__(self, task_name: str) -> bool:
        return task_name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._specs))

    def items(self) -> Iterable[Tuple[str, HardeningSpec]]:
        """``(task, spec)`` pairs for all hardened tasks, sorted by name."""
        return [(name, self._specs[name]) for name in sorted(self._specs)]

    def with_spec(self, task_name: str, spec: HardeningSpec) -> "HardeningPlan":
        """Return a copy where the named task uses ``spec``."""
        updated = dict(self._specs)
        if spec.kind is HardeningKind.NONE:
            updated.pop(task_name, None)
        else:
            updated[task_name] = spec
        return HardeningPlan(updated)

    def kind_histogram(self) -> Dict[HardeningKind, int]:
        """Count of applied techniques, used by the §5.2 statistics."""
        histogram: Dict[HardeningKind, int] = {}
        for spec in self._specs.values():
            histogram[spec.kind] = histogram.get(spec.kind, 0) + 1
        return histogram

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a JSON-friendly dictionary."""
        return {name: spec.to_dict() for name, spec in self.items()}

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "HardeningPlan":
        """Deserialize from :meth:`to_dict` output."""
        return HardeningPlan(
            {name: HardeningSpec.from_dict(spec) for name, spec in data.items()}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, HardeningPlan):
            return NotImplemented
        return self._specs == other._specs

    def __repr__(self) -> str:
        return f"HardeningPlan({len(self._specs)} hardened tasks)"
