"""Shared-memory epoch exchange for the processes backend.

The pipe transport pays one pickled pipe message each way per worker
rank per epoch.  This module moves the same epoch frames through
``multiprocessing.shared_memory`` instead:

* **one segment for the run**, carved into per-rank regions.  Each
  region holds two single-writer byte rings: a *down* ring (parent →
  worker: this epoch's deliveries) and an *up* ring (worker → parent:
  the step result and outbox);
* **length-prefixed frames** on the rings carry opaque bytes — the
  epoch frames of :mod:`repro.core.backends`, the same ones the pipe
  transport sends (this module never looks inside them);
* **the barrier is a doorbell**: each direction of each rank has a
  one-byte wake-up pipe (``os.pipe``, created before the fork).  The
  sender rings it, then streams the frame; the receiver blocks in
  ``select`` on it.  Nobody spins, so a waiting side leaves the CPU to
  the rank that is still executing.  Ringing *before* streaming lets
  the receiver drain while the sender writes, so a frame larger than
  the ring cannot deadlock.  Bells are pure wake-ups: the parent's
  waits still check every 0.1 s that the worker is alive, and a worker
  exits when its control pipe reads EOF.

The *control plane* stays on the pipes: snapshot requests, the final
statistics harvest (``finish``), shutdown and error reporting all use
the existing pickled pipe commands, so ``repro.ckpt`` snapshots work
unchanged under ``transport="shm"``.

Memory model: each ring's head and tail word has exactly one writer, is
8-byte aligned, and is written with a single ``struct.pack_into`` — the
same single-writer discipline the live-metrics segment
(:mod:`repro.obs.live.segment`) relies on.  Payload bytes are always
written before the head that announces them; the bell only says "look
now", the counters still say what is there.

Cross-process reads of the ring counters are additionally *validated
before they are trusted*: on some kernels a freshly-forked worker's
first faults into the shared mapping can transiently observe a zero
page where the parent has long since written nonzero counters (observed
in practice as an 8-byte head word reading 0 while the true value was
~90k — and still 0 on an immediate re-read).  Both counters are
monotonic, so each side keeps a process-local copy of the largest value
it has proven and treats any read below it (or otherwise impossible,
e.g. a ring occupancy above the capacity) as "no news yet": wait and
re-read.  A side's *own* counter is never re-read from shared memory.
"""

from __future__ import annotations

import os
import select
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

#: ring header: head(u64, producer-owned) + tail(u64, consumer-owned),
#: cache-line padded so neighbouring rings never share one.
_RING_HEADER = 64

_SPIN_BEFORE_SLEEP = 100
_SLEEP_S = 0.0002
_ALIVE_CHECK_EVERY_S = 0.1


def _make_waiter(alive_check: Optional[Callable[[], bool]] = None,
                 what: str = "shm transport peer") -> Callable[[], None]:
    """Backoff for a wait *inside* a frame — the ring is full, or the
    reader woke before the writer's next bytes landed: yield first, then
    short-sleep, periodically verifying the peer process is still alive.
    Waiting for a frame to start never comes here; that blocks on the
    doorbell."""
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
    """The per-run shared segment: two rings and two doorbells per rank.

    Created by the parent before forking; workers inherit the mapped
    segment and the bell pipes through ``fork`` (nothing is re-attached
    by name).  The parent drives :meth:`post`/:meth:`collect`, a worker
    selects on :meth:`bell` and drives
    :meth:`read_deliveries`/:meth:`complete`.
    """

    def __init__(self, num_ranks: int,
                 ring_capacity: int = DEFAULT_RING_CAPACITY):
        from multiprocessing import shared_memory

        self.num_ranks = num_ranks
        self.ring_capacity = ring_capacity
        ring_size = _RING_HEADER + ring_capacity
        self._shm = shared_memory.SharedMemory(
            create=True, size=num_ranks * 2 * ring_size)
        self.buf = self._shm.buf
        self._down = []
        self._up = []
        for rank in range(num_ranks):
            down = 2 * rank * ring_size
            up = down + ring_size
            # Ring headers start at zero (shm segments are zero-filled on
            # Linux, but be explicit — correctness hinges on it).
            self.buf[down:down + _RING_HEADER] = bytes(_RING_HEADER)
            self.buf[up:up + _RING_HEADER] = bytes(_RING_HEADER)
            self._down.append(RingBuffer(self.buf, down, ring_capacity))
            self._up.append(RingBuffer(self.buf, up, ring_capacity))
        #: per rank, (read fd, write fd): the down bell is rung by the
        #: parent, the up bell by the rank's worker.
        self._down_bell = [os.pipe() for _ in range(num_ranks)]
        self._up_bell = [os.pipe() for _ in range(num_ranks)]

    # parent side ------------------------------------------------------
    def post(self, rank: int, payload: bytes,
             alive_check: Optional[Callable[[], bool]] = None) -> None:
        """Open an epoch for ``rank``: ring its bell, then stream the
        delivery frame (the worker consumes concurrently — frames
        larger than the ring cannot deadlock)."""
        os.write(self._down_bell[rank][1], b"\x01")
        self._down[rank].write_frame(
            payload, _make_waiter(alive_check, f"rank {rank} worker"))

    def collect(self, rank: int,
                alive_check: Optional[Callable[[], bool]] = None,
                ) -> Optional[bytes]:
        """Block until ``rank`` rings its up bell and return its step
        frame, or ``None`` when the worker reported a failure (the
        actual exception is waiting on the control pipe).  The wait
        wakes every 0.1 s to run ``alive_check``."""
        what = f"rank {rank} worker"
        fd = self._up_bell[rank][0]
        while not select.select([fd], [], [], _ALIVE_CHECK_EVERY_S)[0]:
            if alive_check is not None and not alive_check():
                raise SimulationError(
                    f"{what} died while the shm exchange was waiting")
        os.read(fd, 1)
        # An empty frame is fail()'s no-result sentinel.
        return self._up[rank].read_frame(
            _make_waiter(alive_check, what)) or None

    # worker side ------------------------------------------------------
    def bell(self, rank: int) -> int:
        """The fd ``rank``'s worker selects on: readable once the parent
        has posted an epoch."""
        return self._down_bell[rank][0]

    def read_deliveries(self, rank: int) -> bytes:
        """Answer a rung bell with the delivery frame."""
        os.read(self._down_bell[rank][0], 1)
        return self._down[rank].read_frame(_make_waiter(what="parent"))

    def complete(self, rank: int, payload: bytes) -> None:
        """Report epoch completion: ring the up bell, then stream the
        result frame (mirror of :meth:`post`, same no-deadlock shape)."""
        os.write(self._up_bell[rank][1], b"\x01")
        self._up[rank].write_frame(payload, _make_waiter(what="parent"))

    def fail(self, rank: int) -> None:
        """Report epoch failure: the error itself travels over the
        control pipe; an empty frame (a step frame never is) tells the
        parent there is no result."""
        self.complete(rank, b"")

    # lifecycle --------------------------------------------------------
    def close(self, *, unlink: bool = False) -> None:
        """Close the bells and unmap the segment (every process);
        ``unlink`` additionally removes the segment from the system
        (creator only, after workers joined)."""
        for fd in (fd for pair in self._down_bell + self._up_bell
                   for fd in pair):
            os.close(fd)
        self._down_bell = self._up_bell = []
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
