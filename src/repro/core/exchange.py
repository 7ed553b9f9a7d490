"""Pipe epoch exchange: the processes backend's data plane.

Every epoch frame between the parent and a worker rank moves through
one ``os.pipe`` per rank and direction, created before the fork: a
*down* pipe (parent → worker: this epoch's deliveries) and an *up* pipe
(worker → parent: the step result and outbox).

* **Length-prefixed frames** (``<I`` length, then the payload) carry
  opaque bytes — the epoch frames of :mod:`repro.core.backends` (this
  module never looks inside them).  The frame's own bytes are the
  wake-up: a receiver waits for its pipe to turn readable.
* **Every fd is non-blocking.**  A frame of at most ``PIPE_BUF`` bytes
  is one ``os.write`` (atomic into a pipe that is empty at the start of
  a frame) and one ``os.read``.  A larger frame streams in chunks as
  the pipe has room, and the reader drains it as it arrives.
* **A wait spins briefly, then blocks.**  Waiting for a frame to start
  polls the pipe for :data:`SPIN_S` before it sleeps in ``select``:
  waking a process blocked in ``select`` costs 100–150 µs on a small
  VM, several times a short epoch's work.  The spin is taken only when
  every rank process has a CPU of its own (``num_ranks`` at most the
  CPUs this process may run on); with fewer CPUs a spinning rank would
  take the CPU from a rank still executing, so the budget is 0.

Why large frames cannot deadlock: the parent posts every worker its
frame before it collects any, a worker drains its down pipe without
waiting on anything else, and each direction of each rank has at most
one frame in flight (a worker answers only after reading its whole
delivery frame, and the parent posts the next epoch only after
collecting every answer).  So a writer blocked on a full pipe always
has a reader that is, or is about to be, draining it.

Every blocking wait wakes every 0.1 s to check that its peer is alive —
the parent that the worker process is, a worker that the process which
created the exchange is still its parent (an orphaned worker is
re-parented) — and raises :class:`~repro.core.simulation.SimulationError`
instead of waiting forever on a dead peer, mid-frame included.  An idle
worker waits on its control pipe as well and exits when that reads EOF.

The *control plane* is the backend's pickled pipe commands: snapshot
requests, the final statistics harvest (``finish``), shutdown and error
reporting.
"""

from __future__ import annotations

import os
import select
import struct
from time import perf_counter
from typing import Callable, List, Optional, Sequence

from .simulation import SimulationError

__all__ = ["PipeExchange", "SPIN_S"]

_U32 = struct.Struct("<I")

#: how long a wait for a frame polls before it blocks in ``select``,
#: when every rank has a CPU of its own (measurements in
#: docs/PERFORMANCE.md, "The pipe exchange").
SPIN_S = 0.0005

_ALIVE_CHECK_EVERY_S = 0.1

#: the most one read takes: the default pipe capacity
_READ_MAX = 1 << 16

AliveCheck = Optional[Callable[[], bool]]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


class PipeExchange:
    """Two non-blocking pipes per rank, carrying one frame at a time.

    Created by the parent before forking; workers inherit the pipes
    through ``fork``.  The parent drives :meth:`post`/:meth:`collect`;
    a worker waits in :meth:`wait` and drives
    :meth:`read_deliveries`/:meth:`complete`.
    """

    def __init__(self, num_ranks: int):
        #: per rank, (read fd, write fd): the parent writes the down
        #: pipe, the rank's worker the up pipe.
        self._down = [os.pipe() for _ in range(num_ranks)]
        self._up = [os.pipe() for _ in range(num_ranks)]
        for fd in self.fds():
            os.set_blocking(fd, False)
        #: the parent: workers are forked from the creating process
        self._parent_pid = os.getpid()
        #: seconds a wait for a frame polls before it blocks
        self.spin_s = SPIN_S if num_ranks <= _usable_cpus() else 0.0

    def fds(self) -> List[int]:
        """Every fd the exchange holds open in this process."""
        return [fd for pair in self._down + self._up for fd in pair]

    # waiting ----------------------------------------------------------
    def wait(self, fds: Sequence, alive_check: AliveCheck = None,
             what: str = "") -> list:
        """The members of ``fds`` (fds or objects with ``fileno()``)
        that are readable: poll them for :attr:`spin_s`, then block in
        ``select``.  With an ``alive_check`` the block wakes every
        0.1 s and raises once the check fails; without one it blocks
        until a member is readable."""
        if self.spin_s:
            deadline = perf_counter() + self.spin_s
            while True:
                ready = select.select(fds, (), (), 0)[0]
                if ready:
                    return ready
                if perf_counter() >= deadline:
                    break
        return _block(fds, (), alive_check, what)

    # parent side ------------------------------------------------------
    def post(self, rank: int, payload: bytes,
             alive_check: AliveCheck = None) -> None:
        """Open an epoch for ``rank``: write its delivery frame (the
        worker drains concurrently, so a frame larger than the pipe
        streams through)."""
        _write_frame(self._down[rank][1], payload, alive_check,
                     f"rank {rank} worker")

    def collect(self, rank: int, alive_check: AliveCheck = None,
                ) -> Optional[bytes]:
        """Wait for ``rank``'s step frame and return it, or ``None``
        when the worker reported a failure (the actual exception is
        waiting on the control pipe)."""
        what = f"rank {rank} worker"
        fd = self._up[rank][0]
        self.wait((fd,), alive_check, what)
        # An empty frame is fail()'s no-result sentinel.
        return _read_frame(fd, alive_check, what) or None

    # worker side ------------------------------------------------------
    def down_fd(self, rank: int) -> int:
        """The fd ``rank``'s worker waits on: readable once the parent
        has posted an epoch."""
        return self._down[rank][0]

    def _parent_alive(self) -> bool:
        """A worker's peer check: a dead parent's children are
        re-parented, so the parent is alive while it is still ours (or
        while we are it — a peer thread in the creating process)."""
        return self._parent_pid in (os.getppid(), os.getpid())

    def read_deliveries(self, rank: int) -> bytes:
        """The delivery frame, once :meth:`down_fd` is readable."""
        return _read_frame(self._down[rank][0], self._parent_alive,
                           "parent")

    def complete(self, rank: int, payload: bytes) -> None:
        """Report epoch completion with the step frame (mirror of
        :meth:`post`, same no-deadlock shape)."""
        _write_frame(self._up[rank][1], payload, self._parent_alive,
                     "parent")

    def fail(self, rank: int) -> None:
        """Report epoch failure: the error itself travels over the
        control pipe; an empty frame (a step frame never is) tells the
        parent there is no result."""
        self.complete(rank, b"")

    # lifecycle --------------------------------------------------------
    def close(self) -> None:
        """Close every pipe end this process holds."""
        for fd in self.fds():
            os.close(fd)
        self._down = self._up = []


def _block(rfds: Sequence, wfds: Sequence, alive_check: AliveCheck,
           what: str) -> list:
    """Sleep in ``select`` until members of ``rfds`` are readable or of
    ``wfds`` writable, and return those; checks ``alive_check`` every
    0.1 s."""
    timeout = None if alive_check is None else _ALIVE_CHECK_EVERY_S
    while True:
        readable, writable, _ = select.select(rfds, wfds, (), timeout)
        if readable or writable:
            return readable or writable
        if not alive_check():
            raise SimulationError(
                f"{what} died while the exchange was waiting")


def _write_frame(fd: int, payload: bytes, alive_check: AliveCheck,
                 what: str) -> None:
    data = memoryview(_U32.pack(len(payload)) + payload)
    sent = _write_some(fd, data)
    while sent < len(data):
        _block((), (fd,), alive_check, what)
        sent += _write_some(fd, data[sent:])


def _read_frame(fd: int, alive_check: AliveCheck, what: str) -> bytes:
    """The next frame on ``fd``, which the caller saw readable.

    The pipe holds nothing but this frame (one frame in flight per
    direction), so the first read may take all it holds; a writer's
    first write into the empty pipe covers at least the length prefix.
    """
    data = os.read(fd, _READ_MAX)
    end = _U32.size + _U32.unpack_from(data)[0]
    if len(data) == end:
        return data[_U32.size:]
    frame = memoryview(bytearray(end))
    got = len(data)
    frame[:got] = data
    while got < end:
        _block((fd,), (), alive_check, what)
        try:
            got += os.readv(fd, [frame[got:]])
        except BlockingIOError:  # pragma: no cover - spurious wake
            pass
    return bytes(frame[_U32.size:])


def _write_some(fd: int, data) -> int:
    try:
        return os.write(fd, data)
    except BlockingIOError:
        return 0

