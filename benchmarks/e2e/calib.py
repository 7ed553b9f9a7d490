"""Frozen calibration kernel: a host-speed yardstick for the benchmark.

This sandbox alternates between a fast and a slow phase lasting seconds
(the same pure-Python loop swings ~1.8x, more under load), so raw wall
time cannot carry a comparison.  Every timed region of the benchmark is
bracketed by :func:`calibrate` and scaled to a reference host by
``CALIB_REF_S / mean(brackets)``.

The two CPUs here behave like hyperthreads of one core: the kernel takes
~32 ms alone and ~57 ms when the other CPU is busy too.  A region that
keeps two processes busy (rank workers, pool jobs) is therefore
bracketed by two copies of the kernel running at once (``lanes=2``);
bracketing it with one copy left a 20 % sample-to-sample spread, two
copies 8-13 %.

The kernel is a miniature discrete-event loop with the same instruction
mix as the simulator's hot path — heap push/pop of small tuples,
small-object allocation, bound-method dispatch, dict updates — but it
imports nothing from ``repro``, so no change to the simulator can move
it.  **Do not edit it**: every recorded baseline is expressed in its
units.
"""

import heapq
import os
import time

#: Kernel duration on the reference host phase; calibrated seconds are
#: "seconds on a host where calibrate() takes exactly this long".
CALIB_REF_S = 0.030

_EVENTS = 30_000
_FANOUT = 64


class _Event:
    __slots__ = ("payload", "hops")

    def __init__(self, payload, hops):
        self.payload = payload
        self.hops = hops


class _Node:
    __slots__ = ("count", "state", "table")

    def __init__(self, seed):
        self.count = 0
        self.state = seed
        self.table = {}

    def handle(self, event):
        self.count += 1
        self.state = (self.state * 1103515245 + event.payload) & 0x7FFFFFFF
        self.table[self.state & 31] = self.count
        return _Event(self.state, event.hops + 1)


def calibrate(lanes=1):
    """Wall seconds of the frozen kernel, ``lanes`` copies running at once.

    With more than one lane each copy runs in a forked child and the
    result is the slowest lane's time: ranks in lockstep wait for it,
    and measured here it also steadies the pool-of-jobs sweep as well as
    the mean does (spread between runs 2.4 % against 6-8 % on the 2-rank
    torus).  The reference host runs every lane in ``CALIB_REF_S``.
    """
    if lanes == 1:
        return _kernel()
    children = []
    for _ in range(lanes):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.write(write_end, repr(_kernel()).encode())
            finally:
                os._exit(0)
        os.close(write_end)
        children.append((pid, read_end))
    slowest = 0.0
    for pid, read_end in children:
        with os.fdopen(read_end) as pipe:
            slowest = max(slowest, float(pipe.read()))
        os.waitpid(pid, 0)
    return slowest


def _kernel():
    nodes = [_Node(i + 1) for i in range(_FANOUT)]
    handlers = [n.handle for n in nodes]
    heap = []
    push = heapq.heappush
    pop = heapq.heappop
    seq = 0
    for i in range(_FANOUT):
        push(heap, (i, seq, i, _Event(i, 0)))
        seq += 1
    t0 = time.perf_counter()
    for _ in range(_EVENTS):
        when, _s, target, event = pop(heap)
        out = handlers[target](event)
        seq += 1
        push(heap, (when + 1 + (out.payload & 7), seq,
                    out.payload % _FANOUT, out))
    return time.perf_counter() - t0
