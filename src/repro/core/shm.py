"""Shared-memory epoch exchange for the processes backend.

The pipe transport pays one blocking pipe round-trip (a wakeup each
way) per rank per epoch.  This module moves the same epoch frames
through ``multiprocessing.shared_memory`` instead:

* **one segment for the run**, carved into per-rank regions.  Each
  region holds a control block (epoch counters) plus two single-writer
  byte rings: a *down* ring (parent → worker: this epoch's deliveries)
  and an *up* ring (worker → parent: the step result and outbox);
* **length-prefixed frames** on the rings carry opaque bytes — the
  epoch frames of :mod:`repro.core.backends`, the same ones the pipe
  transport sends (this module never looks inside them);
* **the barrier is a counter spin**: the parent bumps a per-rank
  ``cmd`` counter to open an epoch and waits on the worker's ``done``
  counter — a few dozen shared-memory reads plus a short sleep instead
  of a pipe round-trip per rank.

The *control plane* stays on the pipes: snapshot requests, the final
statistics harvest (``finish``), shutdown and error reporting all use
the existing pickled pipe commands, so ``repro.ckpt`` snapshots work
unchanged under ``transport="shm"``.

Memory model: every multi-byte control word (ring head/tail, epoch
counters) has exactly one writer, is 8-byte aligned, and is written
with a single ``struct.pack_into`` — the same single-writer seqlock
discipline the live-metrics segment (:mod:`repro.obs.live.segment`)
already relies on.  Payload bytes are always written before the counter
that announces them.

Cross-process reads of those words are additionally *validated before
they are trusted*: on some kernels a freshly-forked worker's first
faults into the shared mapping can transiently observe a zero page
where the parent has long since written nonzero counters (observed in
practice as an 8-byte head word reading 0 while the true value was
~90k — and still 0 on an immediate re-read).  Every counter here is
monotonic, so each side keeps a process-local copy of the largest
value it has proven and treats any read below it (or otherwise
impossible, e.g. a ring occupancy above the capacity) as "no news
yet": wait and re-read.  A side's *own* counters are never re-read
from shared memory at all.
"""

from __future__ import annotations

import struct
import time as _wall_time
from typing import Callable, Optional

from .simulation import SimulationError

__all__ = ["RingBuffer", "ShmExchange", "DEFAULT_RING_CAPACITY"]

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

#: per-direction ring capacity in bytes; frames larger than the ring
#: stream through it, so this bounds memory, not batch size.
DEFAULT_RING_CAPACITY = 1 << 20

#: control block per rank: cmd_seq(u64), done_seq(u64) — padded to a
#: cache line so ranks never share one.
_CTRL_SIZE = 64
#: ring header: head(u64, producer-owned) + tail(u64, consumer-owned),
#: cache-line padded for the same reason.
_RING_HEADER = 64

_SPIN_BEFORE_SLEEP = 100
_SLEEP_S = 0.0002
_ALIVE_CHECK_EVERY_S = 0.1


def _make_waiter(alive_check: Optional[Callable[[], bool]] = None,
                 what: str = "shm transport peer") -> Callable[[], None]:
    """A backoff callable for spin loops: yield first, then short-sleep,
    periodically verifying the peer process is still alive."""
    spins = [0]
    last_alive = [_wall_time.monotonic()]

    def wait() -> None:
        spins[0] += 1
        if spins[0] < _SPIN_BEFORE_SLEEP:
            _wall_time.sleep(0)
            return
        _wall_time.sleep(_SLEEP_S)
        if alive_check is not None:
            now = _wall_time.monotonic()
            if now - last_alive[0] >= _ALIVE_CHECK_EVERY_S:
                last_alive[0] = now
                if not alive_check():
                    raise SimulationError(
                        f"{what} died while the shm exchange was waiting")

    return wait


class RingBuffer:
    """Single-producer single-consumer byte ring over a shared buffer.

    ``head`` (producer-owned) and ``tail`` (consumer-owned) are
    monotonically increasing byte counters; occupancy is ``head - tail``
    and positions wrap modulo the capacity.  Frames are a ``u32`` length
    prefix plus payload, and both sides move data in chunks while
    advancing their counter — so a frame *larger than the whole ring*
    still streams through, with the writer backpressured by ``wait()``
    whenever the ring is full and the reader whenever it is empty.
    """

    __slots__ = ("_buf", "_head_off", "_tail_off", "_data_off", "capacity",
                 "_known_head", "_known_tail")

    def __init__(self, buf, offset: int, capacity: int):
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self._buf = buf
        self._head_off = offset
        self._tail_off = offset + 8
        self._data_off = offset + _RING_HEADER
        self.capacity = capacity
        # Largest counter values this process has proven (reads below
        # them are transient-zero/stale artifacts — see module docs).
        # The producer trusts _known_head as its own counter and only
        # validates the consumer's tail against _known_tail; the
        # consumer does the reverse.
        self._known_head = 0
        self._known_tail = 0

    # counters ---------------------------------------------------------
    @property
    def head(self) -> int:
        return _U64.unpack_from(self._buf, self._head_off)[0]

    @property
    def tail(self) -> int:
        return _U64.unpack_from(self._buf, self._tail_off)[0]

    # producer side ----------------------------------------------------
    def write(self, data, wait: Callable[[], None]) -> None:
        buf = self._buf
        cap = self.capacity
        base = self._data_off
        head = self._known_head  # producer-owned: never re-read from shm
        pos, n = 0, len(data)
        while pos < n:
            tail = self.tail
            if tail < self._known_tail or tail > head:
                # transient-zero / torn read of the consumer's counter:
                # tail is monotonic and can never pass the producer.
                wait()
                continue
            self._known_tail = tail
            free = cap - (head - tail)
            if free == 0:
                wait()
                continue
            chunk = min(free, n - pos)
            start = head % cap
            first = min(chunk, cap - start)
            buf[base + start:base + start + first] = data[pos:pos + first]
            if chunk > first:
                buf[base:base + chunk - first] = data[pos + first:pos + chunk]
            head += chunk
            pos += chunk
            self._known_head = head
            # payload bytes land before the head that announces them
            _U64.pack_into(buf, self._head_off, head)

    def write_frame(self, payload, wait: Callable[[], None]) -> None:
        self.write(_U32.pack(len(payload)), wait)
        self.write(payload, wait)

    # consumer side ----------------------------------------------------
    def read(self, n: int, wait: Callable[[], None]) -> bytes:
        buf = self._buf
        cap = self.capacity
        base = self._data_off
        tail = self._known_tail  # consumer-owned: never re-read from shm
        out = bytearray(n)
        pos = 0
        while pos < n:
            head = self.head
            if head < self._known_head or head - tail > cap:
                # transient-zero / torn read of the producer's counter:
                # head is monotonic and never runs more than one
                # capacity ahead of the tail it observed.
                wait()
                continue
            self._known_head = head
            avail = head - tail
            if avail == 0:
                wait()
                continue
            chunk = min(avail, n - pos)
            start = tail % cap
            first = min(chunk, cap - start)
            out[pos:pos + first] = buf[base + start:base + start + first]
            if chunk > first:
                out[pos + first:pos + chunk] = buf[base:base + chunk - first]
            tail += chunk
            pos += chunk
            self._known_tail = tail
            # freeing space only after the bytes were copied out
            _U64.pack_into(buf, self._tail_off, tail)
        return bytes(out)

    def read_frame(self, wait: Callable[[], None]) -> bytes:
        (length,) = _U32.unpack_from(self.read(4, wait))
        return self.read(length, wait)


class ShmExchange:
    """The per-run shared segment: control blocks plus two rings per rank.

    Created by the parent before forking; workers inherit the mapped
    segment through ``fork`` (nothing is re-attached by name).  The
    parent drives :meth:`post`/:meth:`collect`, the workers
    :meth:`read_deliveries`/:meth:`complete`.
    """

    def __init__(self, num_ranks: int,
                 ring_capacity: int = DEFAULT_RING_CAPACITY):
        from multiprocessing import shared_memory

        self.num_ranks = num_ranks
        self.ring_capacity = ring_capacity
        self._per_rank = _CTRL_SIZE + 2 * (_RING_HEADER + ring_capacity)
        self._shm = shared_memory.SharedMemory(
            create=True, size=num_ranks * self._per_rank)
        self.buf = self._shm.buf
        # Control words and ring headers start at zero (shm segments are
        # zero-filled on Linux, but be explicit — correctness hinges on it).
        for rank in range(num_ranks):
            base = rank * self._per_rank
            self.buf[base:base + _CTRL_SIZE] = b"\0" * _CTRL_SIZE
            down = base + _CTRL_SIZE
            up = down + _RING_HEADER + ring_capacity
            self.buf[down:down + _RING_HEADER] = b"\0" * _RING_HEADER
            self.buf[up:up + _RING_HEADER] = b"\0" * _RING_HEADER
        self._down = [RingBuffer(self.buf, r * self._per_rank + _CTRL_SIZE,
                                 ring_capacity) for r in range(num_ranks)]
        self._up = [RingBuffer(self.buf, r * self._per_rank + _CTRL_SIZE
                               + _RING_HEADER + ring_capacity,
                               ring_capacity) for r in range(num_ranks)]
        # Process-local copies of the counters each side owns: the
        # parent's cmd sequence and the workers' done sequences are
        # written to shared memory for the *other* side and never read
        # back from it (a transient-zero read-back would regress a
        # counter and wedge the handshake).
        self._cmd = [0] * num_ranks
        self._done = [0] * num_ranks

    # control words ----------------------------------------------------
    def _ctrl(self, rank: int) -> int:
        return rank * self._per_rank

    def cmd_seq(self, rank: int) -> int:
        return _U64.unpack_from(self.buf, self._ctrl(rank))[0]

    def done_seq(self, rank: int) -> int:
        return _U64.unpack_from(self.buf, self._ctrl(rank) + 8)[0]

    # parent side ------------------------------------------------------
    def post(self, rank: int, payload: bytes,
             alive_check: Optional[Callable[[], bool]] = None) -> None:
        """Open an epoch for ``rank``: bump the command counter, then
        stream the delivery frame (the counter is bumped *first* so the
        worker consumes concurrently — frames larger than the ring
        cannot deadlock)."""
        self._cmd[rank] += 1
        _U64.pack_into(self.buf, self._ctrl(rank), self._cmd[rank])
        self._down[rank].write_frame(
            payload, _make_waiter(alive_check, f"rank {rank} worker"))

    def collect(self, rank: int,
                alive_check: Optional[Callable[[], bool]] = None,
                ) -> Optional[bytes]:
        """Wait for ``rank``'s epoch completion and return its step
        frame, or ``None`` when the worker reported a failure (the
        actual exception is waiting on the control pipe)."""
        wait = _make_waiter(alive_check, f"rank {rank} worker")
        target = self._cmd[rank]
        while self.done_seq(rank) < target:
            wait()
        # An empty frame is fail()'s no-result sentinel.
        return self._up[rank].read_frame(
            _make_waiter(alive_check, f"rank {rank} worker")) or None

    # worker side ------------------------------------------------------
    def posted(self, rank: int) -> bool:
        """True when the parent has opened an epoch this worker has not
        yet completed (a transient-zero counter read says "not yet")."""
        return self.cmd_seq(rank) > self._done[rank]

    def read_deliveries(self, rank: int) -> bytes:
        return self._down[rank].read_frame(_make_waiter(what="parent"))

    def complete(self, rank: int, payload: bytes) -> None:
        """Report epoch completion: bump ``done`` first, then stream the
        result frame (mirror of :meth:`post`, same no-deadlock shape)."""
        self._done[rank] += 1
        _U64.pack_into(self.buf, self._ctrl(rank) + 8, self._done[rank])
        self._up[rank].write_frame(payload, _make_waiter(what="parent"))

    def fail(self, rank: int) -> None:
        """Report epoch failure: the error itself travels over the
        control pipe; an empty frame (a step frame never is) tells the
        parent there is no result."""
        self.complete(rank, b"")

    # lifecycle --------------------------------------------------------
    def close(self, *, unlink: bool = False) -> None:
        """Unmap the segment (every process); ``unlink`` additionally
        removes it from the system (creator only, after workers joined)."""
        shm, self._shm = self._shm, None
        if shm is None:
            return
        self._down = []
        self._up = []
        self.buf = None
        try:
            shm.close()
        except BufferError:  # pragma: no cover - a view still exported
            pass
        if unlink:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
