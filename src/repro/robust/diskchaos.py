"""Seeded disk-fault injection and the one durable-file seam behind it.

The spool log, the disk cache tier, the checkpoint journal, and the
compaction swap all promise crash consistency — promises that are only as
good as their behaviour when the filesystem misbehaves. Every durable file
write and strict log read in the package goes through three functions
here: :func:`append_line` (one fsync'd JSONL record, torn tail repaired
first), :func:`replace_file` (atomic tmp-file swap, fsync'd with
``durable=True``) and :func:`read_log` (torn final line tolerated,
interior bad lines listed).

They, and compaction's crash-pointed snapshot swap, do their I/O through
the shim — ``fs_open``, ``fs_write``, ``fs_fsync``, ``fs_replace``,
``fs_fsync_dir`` — plain passthroughs to :mod:`os` until a
:class:`DiskFaultInjector` is installed, at which point every call may be
made to fail the way real disks fail:

* **ENOSPC / EIO on write** — the classic full-disk and dying-disk errors;
  callers must surface them typed, not wedge.
* **Short writes** — ``os.write`` is allowed to persist a prefix; callers
  that do not resume the remainder corrupt their own log.
* **Torn write then crash** — a prefix reaches the disk and the process
  dies (:class:`SimulatedCrash`): exactly the state a power cut leaves, and
  what every torn-tail recovery path must digest.
* **EIO on fsync** — the "lying fsync" case: the data may or may not be
  durable, and the caller must treat the operation as failed.
* **Rename failure / crash after fsync** — faults for the atomic-swap
  protocol used by snapshots and the checksummed cache store.

Faults come in two flavours per operation: *probabilistic* (a seeded rate,
for soak-style chaos drills) and *deterministic* (explicit 0-based call
indices, for pinpoint tests like "fail the 3rd fsync"). Both are driven by
a named counter per operation kind, so a test can assert exactly which call
fired. :class:`SimulatedCrash` derives from ``BaseException`` so it sails
through the broad ``except Exception`` recovery paths the way SIGKILL
would — a simulated crash must never be "handled".

Determinism contract: with the same seed and the same sequence of shim
calls, the same faults fire. The injector hashes ``(seed, op, call_index)``
through the repo's named-stream derivation, so adding faults to one
operation kind never perturbs another.
"""

from __future__ import annotations

import contextlib
import errno
import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np

from repro.util.rng import stream_seed

__all__ = [
    "DiskFaultInjector",
    "LogRead",
    "SimulatedCrash",
    "active",
    "append_line",
    "fs_fsync",
    "fs_fsync_dir",
    "fs_open",
    "fs_replace",
    "fs_write",
    "injected",
    "install",
    "read_log",
    "replace_file",
    "uninstall",
]


class SimulatedCrash(BaseException):
    """The process "died" at this exact point (power cut, SIGKILL).

    A ``BaseException`` on purpose: crash points must escape every
    ``except Exception`` recovery path, exactly like a real kill would.
    Tests catch it explicitly, then reopen the on-disk state and assert
    recovery.
    """


@dataclass
class DiskFaultInjector:
    """Seeded fault plan for the filesystem shim.

    Probabilistic rates (``p_*``) draw one uniform per call from a stream
    keyed by ``(seed, op, call_index)``; deterministic ``*_at`` tuples name
    exact 0-based call indices per operation kind. ``calls`` counts every
    shim call by op; ``fired`` counts injected faults by fault name — both
    are assertable after a drill.
    """

    seed: int = 0
    # probabilistic rates, one uniform draw per call
    p_enospc: float = 0.0        # os.write -> ENOSPC
    p_eio_write: float = 0.0     # os.write -> EIO
    p_short_write: float = 0.0   # os.write persists only a prefix
    p_eio_fsync: float = 0.0     # fsync -> EIO (the lying-fsync case)
    p_rename: float = 0.0        # os.replace -> EIO
    # deterministic 0-based call indices per operation kind
    enospc_at: tuple[int, ...] = ()
    eio_write_at: tuple[int, ...] = ()
    short_write_at: tuple[int, ...] = ()
    torn_crash_at: tuple[int, ...] = ()    # write a prefix, then crash
    eio_fsync_at: tuple[int, ...] = ()
    crash_after_fsync_at: tuple[int, ...] = ()  # fsync lands, then crash
    rename_at: tuple[int, ...] = ()
    calls: dict[str, int] = field(default_factory=dict)
    fired: dict[str, int] = field(default_factory=dict)

    def _next_index(self, op: str) -> int:
        i = self.calls.get(op, 0)
        self.calls[op] = i + 1
        return i

    def _roll(self, op: str, index: int) -> float:
        return float(np.random.default_rng(
            stream_seed(self.seed, "diskchaos", op, index)).random())

    def _fire(self, fault: str) -> None:
        self.fired[fault] = self.fired.get(fault, 0) + 1

    def reset_counters(self) -> None:
        self.calls.clear()
        self.fired.clear()

    # -- per-operation fault decisions (called by the shim functions) --------

    def on_write(self, fd: int, data: Any) -> int:
        """Decide one ``os.write``: full write, short write, error, crash."""
        i = self._next_index("write")
        u = self._roll("write", i)
        if i in self.torn_crash_at:
            self._fire("torn_crash")
            os.write(fd, bytes(data)[: max(1, len(data) // 2)])
            raise SimulatedCrash(f"torn write at write call {i}")
        if i in self.enospc_at or u < self.p_enospc:
            self._fire("enospc")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        if i in self.eio_write_at or u < self.p_enospc + self.p_eio_write:
            self._fire("eio_write")
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        if (i in self.short_write_at
                or u < self.p_enospc + self.p_eio_write + self.p_short_write) \
                and len(data) > 1:
            self._fire("short_write")
            return os.write(fd, bytes(data)[: max(1, len(data) // 2)])
        return os.write(fd, data)

    def on_fsync(self, fd: int) -> None:
        i = self._next_index("fsync")
        u = self._roll("fsync", i)
        if i in self.crash_after_fsync_at:
            self._fire("crash_after_fsync")
            os.fsync(fd)
            raise SimulatedCrash(f"crash after fsync call {i}")
        if i in self.eio_fsync_at or u < self.p_eio_fsync:
            self._fire("eio_fsync")
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        os.fsync(fd)

    def on_replace(self, src: Any, dst: Any) -> None:
        i = self._next_index("replace")
        u = self._roll("replace", i)
        if i in self.rename_at or u < self.p_rename:
            self._fire("rename")
            raise OSError(errno.EIO, f"injected rename failure: {src} -> {dst}")
        os.replace(src, dst)


_active: DiskFaultInjector | None = None


def install(injector: DiskFaultInjector) -> None:
    """Route every shim call through ``injector`` until :func:`uninstall`."""
    global _active
    _active = injector


def uninstall() -> None:
    global _active
    _active = None


def active() -> DiskFaultInjector | None:
    """The currently installed injector (None: shim is a passthrough)."""
    return _active


@contextlib.contextmanager
def injected(injector: DiskFaultInjector) -> Iterator[DiskFaultInjector]:
    """Scope an injector to a ``with`` block (always uninstalls)."""
    install(injector)
    try:
        yield injector
    finally:
        uninstall()


# -- the shim: durability paths call these instead of os.* -------------------


def fs_open(path: Any, flags: int, mode: int = 0o644) -> int:
    return os.open(path, flags, mode)


def fs_write(fd: int, data: Any) -> int:
    """``os.write`` that may be made short, fail typed, or tear-and-crash."""
    if _active is None:
        return os.write(fd, data)
    return _active.on_write(fd, data)


def fs_fsync(fd: int) -> None:
    if _active is None:
        os.fsync(fd)
        return
    _active.on_fsync(fd)


def fs_replace(src: Any, dst: Any) -> None:
    if _active is None:
        os.replace(src, dst)
        return
    _active.on_replace(src, dst)


def fs_fsync_dir(path: Any) -> None:
    """fsync a directory so a rename inside it is durable.

    Outside chaos runs a directory that cannot be fsync'd (odd filesystems,
    sandboxes) is tolerated silently — the rename itself already happened —
    but an *installed* injector's EIO is surfaced, because the swap
    protocols under test must treat it as a failed swap.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        fs_fsync(fd)
    except OSError:
        if _active is not None:
            raise
    finally:
        os.close(fd)


# -- the seam: every durable write and strict log read goes through these ----


def _drain(fd: int, data: bytes, write: Callable[[int, Any], int]) -> None:
    # A short write (ENOSPC, signal) must be resumed, not ignored: a
    # truncated record with later appends after it is mid-log corruption.
    view = memoryview(data)
    while view:
        view = view[write(fd, view):]


def _repair_torn_tail(fd: int) -> bool:
    # A crash mid-append leaves a fragment no caller was ever told is
    # durable, so cutting back to the last newline loses nothing — and it
    # must happen before the next write, or fragment and record would merge
    # into one unparseable mid-log line.
    # Reading the whole file is fine: this runs only after a crash.
    size = os.fstat(fd).st_size
    if size == 0 or os.pread(fd, 1, size - 1) == b"\n":
        return False
    os.ftruncate(fd, os.pread(fd, size, 0).rfind(b"\n") + 1)
    return True


def append_line(path: str | os.PathLike[str], line: str) -> bool:
    """Durably append one newline-terminated ``line``; True if a torn tail was cut.

    ``O_APPEND`` open, torn-tail repair, write-until-drained, fsync. The
    caller serializes writers and creates the directory; an ``OSError``
    means the append failed.
    """
    fd = fs_open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        repaired = _repair_torn_tail(fd)
        _drain(fd, line.encode("utf-8"), fs_write)
        fs_fsync(fd)
    finally:
        os.close(fd)
    return repaired


_tmp_seq = itertools.count()


def replace_file(path: str | os.PathLike[str], data: bytes, *,
                 durable: bool) -> None:
    """Atomically replace ``path`` with ``data`` via a sibling tmp file.

    The tmp name is unique per process and call, so concurrent writers of
    one path never share it; it is removed on failure. ``durable`` fsyncs
    the file before the rename and the directory after it. Telemetry
    passes ``durable=False``: its bytes bypass the fault plan (only the
    rename is shimmed), so a heartbeat never shifts the write indices a
    deterministic fault names.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{next(_tmp_seq)}.tmp")
    fd = fs_open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        try:
            _drain(fd, data, fs_write if durable else os.write)
            if durable:
                fs_fsync(fd)
        finally:
            os.close(fd)
        fs_replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    if durable:
        fs_fsync_dir(path.parent)


class LogRead(NamedTuple):
    events: list[tuple[int, dict[str, Any]]]  # (0-based line index, object)
    n_lines: int
    torn_tail: bool       # the final line is not a JSON object
    bad_lines: list[int]  # 1-based interior lines that are not JSON objects


def read_log(path: str | os.PathLike[str]) -> LogRead:
    """Parse a JSONL log written by :func:`append_line` (missing: empty).

    A final line that is not a JSON object is a crashed append's torn tail
    and only reported; interior ones are history lost mid-log, listed for
    the caller to raise (a fold) or report (an fsck).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return LogRead([], 0, False, [])
    events: list[tuple[int, dict[str, Any]]] = []
    bad: list[int] = []
    torn = False
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            ev = json.loads(line)
        except ValueError:
            ev = None
        if not isinstance(ev, dict):
            if lineno == len(lines) - 1:
                torn = True
            else:
                bad.append(lineno + 1)
            continue
        events.append((lineno, ev))
    return LogRead(events, len(lines), torn, bad)
