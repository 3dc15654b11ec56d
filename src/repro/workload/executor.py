"""Workload executor.

Maps workload operations onto the simulated file-system API.  This is the
equivalent of the C++ test program ACE's adapter generates for CrashMonkey:
it performs each operation and gives the harness a hook right after every
persistence operation (where CrashMonkey inserts its checkpoint request).

The executor synthesizes deterministic data payloads for write operations so
that file contents are distinguishable (and content comparisons meaningful)
without the workload having to carry literal bytes around.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import FileSystemError, WorkloadError
from .operations import Operation, OpKind
from .workload import Workload

#: Callback invoked right after a persistence operation completes.
#: Receives the operation and its index within the workload.
PersistenceCallback = Callable[[Operation, int], None]
#: Callback invoked right before any operation executes.
OperationCallback = Callable[[Operation, int], None]


def payload_for(op_index: int, length: int) -> bytes:
    """Deterministic, operation-specific data for write operations."""
    if length <= 0:
        return b""
    pattern = bytes((b + op_index * 7) % 251 + 1 for b in range(min(length, 256)))
    repeats = length // len(pattern) + 1
    return (pattern * repeats)[:length]


class WorkloadExecutor:
    """Executes workloads against a mounted simulated file system."""

    def __init__(self, fs, *, strict: bool = False):
        """
        Args:
            fs: a mounted file system instance (any ``AbstractFileSystem``).
            strict: if True, file-system errors abort execution; if False
                (the default, matching CrashMonkey's behaviour for generated
                workloads) an operation that fails with a POSIX-style error is
                skipped and counted.
        """
        self.fs = fs
        self.strict = strict
        self.executed = 0
        self.skipped = 0
        self.persistence_count = 0

    # -- single operations --------------------------------------------------------

    def run_operation(self, op: Operation, index: int = 0) -> bool:
        """Execute one operation.  Returns True if it ran, False if skipped."""
        try:
            self._dispatch(op, index)
        except FileSystemError:
            if self.strict:
                raise
            self.skipped += 1
            return False
        self.executed += 1
        return True

    def _dispatch(self, op: Operation, index: int) -> None:
        fs = self.fs
        kwargs = op.kwargs_dict
        name = op.op
        args = op.args

        if name == OpKind.CREAT:
            fs.creat(args[0])
        elif name == OpKind.MKDIR:
            fs.mkdir(args[0], parents=True)
        elif name == OpKind.WRITE:
            fs.write(args[0], int(args[1]), payload_for(index, int(args[2])))
        elif name == OpKind.DWRITE:
            fs.dwrite(args[0], int(args[1]), payload_for(index, int(args[2])))
        elif name == OpKind.MWRITE:
            self._mmap_write(args[0], int(args[1]), int(args[2]), index)
        elif name == OpKind.FALLOC:
            fs.falloc(args[0], int(args[1]), int(args[2]), keep_size=bool(kwargs.get("keep_size", False)))
        elif name == OpKind.FZERO:
            fs.fzero(args[0], int(args[1]), int(args[2]), keep_size=bool(kwargs.get("keep_size", False)))
        elif name == OpKind.FPUNCH:
            fs.fpunch(args[0], int(args[1]), int(args[2]))
        elif name == OpKind.LINK:
            fs.link(args[0], args[1])
        elif name == OpKind.SYMLINK:
            fs.symlink(args[0], args[1])
        elif name == OpKind.UNLINK:
            fs.unlink(args[0])
        elif name == OpKind.RMDIR:
            fs.rmdir(args[0])
        elif name == OpKind.REMOVE:
            fs.remove(args[0])
        elif name == OpKind.RENAME:
            fs.rename(args[0], args[1])
        elif name == OpKind.TRUNCATE:
            fs.truncate(args[0], int(args[1]))
        elif name == OpKind.SETXATTR:
            value = args[2] if len(args) > 2 else "value1"
            fs.setxattr(args[0], args[1], value.encode("utf-8"))
        elif name == OpKind.REMOVEXATTR:
            fs.removexattr(args[0], args[1])
        elif name == OpKind.DROPCACHES:
            pass  # the page cache is the in-memory state itself; nothing to drop safely
        elif name == OpKind.FSYNC:
            fs.fsync(args[0])
        elif name == OpKind.FDATASYNC:
            fs.fdatasync(args[0])
        elif name == OpKind.MSYNC:
            if len(args) >= 3:
                fs.msync(args[0], int(args[1]), int(args[2]))
            else:
                fs.msync(args[0])
        elif name == OpKind.SYNC:
            fs.sync()
        else:
            raise WorkloadError(f"executor does not understand operation {name!r}")

    def _mmap_write(self, path: str, offset: int, length: int, index: int) -> None:
        """mmap writes require the mapped range to exist; extend the file first."""
        fs = self.fs
        if not fs.exists(path):
            fs.creat(path)
        state = fs.stat(path)
        end = offset + length
        if state.size < end:
            fs.truncate(path, end)
        fs.mwrite(path, offset, payload_for(index, length))

    # -- whole workloads -------------------------------------------------------------

    def run(self, workload: Workload,
            on_persistence: Optional[PersistenceCallback] = None,
            before_operation: Optional[OperationCallback] = None) -> None:
        """Execute a workload, invoking ``on_persistence`` after each persistence op.

        ``before_operation`` fires before each operation runs (the tracker
        snapshots pre-operation state through it).
        """
        for index, op in enumerate(workload.ops):
            if before_operation is not None:
                before_operation(op, index)
            ran = self.run_operation(op, index)
            if ran and op.is_persistence:
                self.persistence_count += 1
                if on_persistence is not None:
                    on_persistence(op, index)
