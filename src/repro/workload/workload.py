"""Workload container.

A :class:`Workload` is an ordered list of operations plus bookkeeping that
the rest of the pipeline relies on:

* the *skeleton* — the sequence of core (non-dependency, non-persistence)
  operation names, used by the Figure-5 post-processing to group bug reports,
* persistence-point positions — the crash points CrashMonkey simulates,
* a stable identifier used to deduplicate and to name reports,
* *prefix keys* — content-derived identifiers of every operation prefix
  (the whole-workload key identifies durable-campaign chunks),
* the *family key* — the identity of an ACE sibling family, which the
  engine keeps within one chunk.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import WorkloadError
from .operations import Operation


def _hash_operation(hasher, op: Operation) -> None:
    """Feed one operation's canonical JSON into an incremental digest.

    A length-prefixed separator keeps operation boundaries unambiguous, so
    concatenations that merely *render* the same can never collide.
    """
    payload = json.dumps(op.to_json(), sort_keys=True).encode("utf-8")
    hasher.update(f"{len(payload)}:".encode("ascii"))
    hasher.update(payload)


@dataclass
class Workload:
    """An ordered sequence of file-system operations."""

    ops: List[Operation] = field(default_factory=list)
    name: str = ""
    #: Sequence length ACE aimed for (number of core operations), if known.
    seq_length: Optional[int] = None
    #: Free-form provenance label, e.g. "ace:seq-2" or "known-bug-5".
    source: str = ""

    # -- basic container behaviour ------------------------------------------------

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def append(self, op: Operation) -> None:
        self.ops.append(op)

    def extend(self, ops: Iterable[Operation]) -> None:
        self.ops.extend(ops)

    # -- derived views -------------------------------------------------------------

    def core_ops(self) -> List[Operation]:
        """Core operations: not persistence points and not dependency setup."""
        return [op for op in self.ops if not op.is_persistence and not op.dependency]

    def skeleton(self) -> Tuple[str, ...]:
        """The phase-1 skeleton: the ordered core operation names."""
        return tuple(op.op for op in self.core_ops())

    def persistence_points(self) -> List[int]:
        """Indices of persistence operations (in execution order)."""
        return [index for index, op in enumerate(self.ops) if op.is_persistence]

    def num_persistence_points(self) -> int:
        return len(self.persistence_points())

    def operations_used(self) -> Tuple[str, ...]:
        return tuple(sorted({op.op for op in self.core_ops()}))

    def ends_with_persistence(self) -> bool:
        return bool(self.ops) and self.ops[-1].is_persistence

    def paths_touched(self) -> Tuple[str, ...]:
        paths = set()
        for op in self.ops:
            for arg in op.args:
                if isinstance(arg, str) and not arg.startswith("user."):
                    paths.add(arg)
        return tuple(sorted(paths))

    # -- identity --------------------------------------------------------------------

    def workload_id(self) -> str:
        """Stable content-derived identifier."""
        digest = hashlib.sha1(
            json.dumps([op.to_json() for op in self.ops], sort_keys=True).encode("utf-8")
        ).hexdigest()
        return digest[:16]

    def prefix_key(self, length: Optional[int] = None) -> str:
        """Content-derived identifier of the first ``length`` operations.

        Two workloads with equal ``prefix_key(k)`` have byte-identical first
        ``k`` operations (op name, every argument, kwargs, dependency flag).
        The key digests the full canonical JSON of every operation, not just
        the names, so different prefixes never share a key.  ``length=None``
        keys the whole workload (the durable runner's chunk identity).
        """
        if length is None:
            length = len(self.ops)
        hasher = hashlib.sha1()
        for op in self.ops[:length]:
            _hash_operation(hasher, op)
        return hasher.hexdigest()[:16]

    def family_key(self) -> str:
        """Identity of the workload's non-persistence operations.

        ACE's phase 3 emits *sibling families*: workloads with identical core
        and dependency operations that differ only in where persistence
        points sit.  Those siblings re-reach the same crash states, so the
        engine's family-affine chunking keeps workloads with equal
        ``family_key`` in one chunk (one worker, one cross-workload dedup
        cache).
        """
        hasher = hashlib.sha1()
        for op in self.ops:
            if not op.is_persistence:
                _hash_operation(hasher, op)
        return hasher.hexdigest()[:16]

    def display_name(self) -> str:
        return self.name or f"workload-{self.workload_id()}"

    # -- validation -------------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`WorkloadError` on structural problems.

        B3 requires at least one persistence point (otherwise there is no
        crash point to test) and that the final operation is a persistence
        point (otherwise the trailing operations can never affect any tested
        crash state — ACE's phase 3 enforces the same rule).
        """
        if not self.ops:
            raise WorkloadError("workload has no operations")
        if not any(op.is_persistence for op in self.ops):
            raise WorkloadError(
                f"workload {self.display_name()} has no persistence point; "
                "B3 only crashes after persistence operations"
            )
        if not self.ends_with_persistence():
            raise WorkloadError(
                f"workload {self.display_name()} does not end with a persistence point"
            )

    # -- serialization ------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "seq_length": self.seq_length,
            "source": self.source,
            "ops": [op.to_json() for op in self.ops],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Workload":
        return cls(
            ops=[Operation.from_json(op) for op in payload.get("ops", [])],
            name=payload.get("name", ""),
            seq_length=payload.get("seq_length"),
            source=payload.get("source", ""),
        )

    def describe(self) -> str:
        """Multi-line, Figure-4 style rendering."""
        lines = [f"# {self.display_name()} (source={self.source or 'manual'})"]
        for index, op in enumerate(self.ops, start=1):
            lines.append(f"{index:>2} {op.describe()}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


def make_workload(ops: Sequence[Operation], name: str = "", seq_length: Optional[int] = None,
                  source: str = "") -> Workload:
    """Convenience constructor used by ACE and the known-bug database."""
    return Workload(ops=list(ops), name=name, seq_length=seq_length, source=source)
