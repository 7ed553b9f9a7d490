"""The live metrics segment: a file-backed mmap of fixed seqlock slots.

One segment file per run (``<metrics>.live`` by default) holds a small
header, one fixed-size slot per rank and one run-level slot written by
the parent's epoch loop.  Every slot is single-writer — the process
that executes the rank's kernel owns the rank slot, the parent owns the
run slot — and guarded by a per-slot sequence counter (seqlock): the
writer bumps the counter to an odd value, rewrites the slot body, then
bumps it even; readers retry while the counter is odd or changed
underneath them.  Readers (:class:`LiveView`) therefore never block a
writer and never tear a slot, with no locks and no dependencies beyond
``mmap``/``struct``.

A file-backed mapping (rather than anonymous ``multiprocessing``
shared memory) is deliberate: the segment is *discoverable* — ``python
-m repro obs top run.metrics.live`` and external scrapers attach to a
path, forked rank workers re-open the same path after the fork, and a
crashed run leaves its last published state on disk for post-mortems.

The same framing carries two segment kinds: ``KIND_RUN`` (rank slots +
run slot, written by the engine) and ``KIND_SWEEP`` (one slot per
design point, written by ``dse.sweep`` workers — see
:mod:`repro.obs.live.sweep`).
"""

from __future__ import annotations

import mmap
import struct
import threading
import time as _wall_time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

MAGIC = b"RPLIVE1\x00"
VERSION = 2

KIND_RUN = 0
KIND_SWEEP = 1

#: rank / run states published in the ``state`` slot field.
STATE_INIT = 0
STATE_RUNNING = 1
STATE_WAITING = 2
STATE_DONE = 3

STATE_NAMES = {STATE_INIT: "init", STATE_RUNNING: "run",
               STATE_WAITING: "wait", STATE_DONE: "done"}

#: step-wall-time histogram bucket upper bounds (seconds); the last
#: bucket is +Inf.  Eight buckets keep the slot fixed-size.
HIST_BOUNDS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0)
HIST_BUCKETS = len(HIST_BOUNDS) + 1

# header: magic, version, kind, slots, slot_size, run_off, run_size,
# parent_pid, reserved, created_unix, limit_ps, backend, mode
_HEADER_FMT = "<8sIIIIIIIIdQ16s16s"
_HEADER_SIZE = 128  # struct.calcsize(_HEADER_FMT) == 88, padded

_SEQ_FMT = "<Q"

# rank slot body (after the 8-byte seq): pid, state, events, queued,
# sim_ps, epoch, hist[8], mono_s, unix_s, busy_s, reserved
_RANK_BODY_FMT = "<6Q8Q4d"
RANK_SLOT_SIZE = 176  # 8 + struct.calcsize(_RANK_BODY_FMT) == 168, padded

# run slot body (after the seq): state, epoch, events, exchanged,
# now_ps, limit_ps, window_ps (current epoch window width),
# exchange_bytes (cumulative); mono_s, unix_s, start_mono, exchange_s,
# exec_s, lookahead_util; reason; then per-rank barrier_s doubles.
# (V2: grew window_ps + exchange_bytes, repurposed the reserved double
# as lookahead_util.)
_RUN_BODY_FMT = "<8Q6d16s"
_RUN_FIXED = 8 + struct.calcsize(_RUN_BODY_FMT)


def _pad16(n: int) -> int:
    return (n + 15) // 16 * 16


def run_slot_size(num_ranks: int) -> int:
    return _pad16(_RUN_FIXED + 8 * num_ranks)


def default_segment_path(metrics_path: Union[str, Path]) -> Path:
    """Where the live segment lands for a ``--metrics`` stream."""
    base = Path(metrics_path)
    return base.with_name(base.name + ".live")


class SegmentError(RuntimeError):
    """The file is not (or no longer) a readable live segment."""


class LiveSegment:
    """Writer-side handle on a segment file (creates or re-opens it)."""

    def __init__(self, path: Union[str, Path], mm: mmap.mmap,
                 header: Dict[str, Any]):
        self.path = Path(path)
        self._mm = mm
        self.header = header
        self.kind = header["kind"]
        self.slots = header["slots"]
        self.slot_size = header["slot_size"]
        self.run_off = header["run_off"]

    # ------------------------------------------------------------------
    # creation / attachment
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, path: Union[str, Path], *, kind: int, slots: int,
               slot_size: int, run_size: int = 0, backend: str = "",
               mode: str = "", limit_ps: int = 0,
               parent_pid: Optional[int] = None) -> "LiveSegment":
        """Create (truncating) a zeroed segment file and map it."""
        import os

        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        run_off = _HEADER_SIZE + slots * slot_size
        total = run_off + run_size
        header = {
            "kind": kind, "slots": slots, "slot_size": slot_size,
            "run_off": run_off, "run_size": run_size,
            "parent_pid": parent_pid if parent_pid is not None else os.getpid(),
            "created_unix": _wall_time.time(), "limit_ps": limit_ps,
            "backend": backend, "mode": mode,
        }
        with open(path, "wb") as fh:
            fh.write(b"\x00" * total)
        fh = open(path, "r+b")
        mm = mmap.mmap(fh.fileno(), total)
        fh.close()
        struct.pack_into(
            _HEADER_FMT, mm, 0, MAGIC, VERSION, kind, slots, slot_size,
            run_off, run_size, header["parent_pid"], 0,
            header["created_unix"], limit_ps,
            backend.encode("utf-8")[:16], mode.encode("utf-8")[:16])
        return cls(path, mm, header)

    @classmethod
    def open(cls, path: Union[str, Path], *,
             writable: bool = True) -> "LiveSegment":
        """Map an existing segment (workers re-open after the fork)."""
        path = Path(path)
        try:
            fh = open(path, "r+b" if writable else "rb")
        except OSError as exc:
            raise SegmentError(f"cannot open live segment {path}: {exc}")
        try:
            access = mmap.ACCESS_WRITE if writable else mmap.ACCESS_READ
            mm = mmap.mmap(fh.fileno(), 0, access=access)
        except ValueError as exc:
            fh.close()
            raise SegmentError(f"{path} is not a live segment: {exc}")
        fh.close()
        header = read_header(mm, path)
        return cls(path, mm, header)

    def close(self) -> None:
        if self._mm is not None:
            try:
                self._mm.close()
            except (BufferError, ValueError):  # pragma: no cover
                pass
            self._mm = None

    # ------------------------------------------------------------------
    # slot writing (seqlock protocol)
    # ------------------------------------------------------------------
    def _slot_off(self, index: int) -> int:
        if not 0 <= index < self.slots:
            raise IndexError(f"slot {index} out of range 0..{self.slots - 1}")
        return _HEADER_SIZE + index * self.slot_size

    def write_slot(self, index: int, body_fmt: str, *values: Any) -> None:
        """Seqlock-write one slot body (values follow ``body_fmt``)."""
        mm = self._mm
        off = self._slot_off(index)
        seq = struct.unpack_from(_SEQ_FMT, mm, off)[0]
        struct.pack_into(_SEQ_FMT, mm, off, seq + 1)      # odd: in progress
        struct.pack_into(body_fmt, mm, off + 8, *values)
        struct.pack_into(_SEQ_FMT, mm, off, seq + 2)      # even: published

    def write_run(self, *, state: int, epoch: int, events: int,
                  exchanged: int, now_ps: int, limit_ps: int,
                  mono_s: float, unix_s: float, start_mono: float,
                  exchange_s: float, exec_s: float, reason: str,
                  window_ps: int = 0, exchange_bytes: int = 0,
                  lookahead_util: float = 0.0,
                  barrier_s: Optional[List[float]] = None) -> None:
        """Seqlock-write the run slot (parent epoch loop only)."""
        mm = self._mm
        off = self.run_off
        seq = struct.unpack_from(_SEQ_FMT, mm, off)[0]
        struct.pack_into(_SEQ_FMT, mm, off, seq + 1)
        struct.pack_into(
            _RUN_BODY_FMT, mm, off + 8, state, epoch, events, exchanged,
            now_ps, limit_ps, window_ps, exchange_bytes,
            mono_s, unix_s, start_mono, exchange_s,
            exec_s, lookahead_util, reason.encode("utf-8")[:16])
        if barrier_s:
            struct.pack_into(f"<{len(barrier_s)}d", mm, off + _RUN_FIXED,
                             *barrier_s)
        struct.pack_into(_SEQ_FMT, mm, off, seq + 2)


def read_header(mm, path) -> Dict[str, Any]:
    if len(mm) < _HEADER_SIZE:
        raise SegmentError(f"{path} is too small to be a live segment")
    (magic, version, kind, slots, slot_size, run_off, run_size,
     parent_pid, _pad, created_unix, limit_ps, backend,
     mode) = struct.unpack_from(_HEADER_FMT, mm, 0)
    if magic != MAGIC:
        raise SegmentError(f"{path} is not a live metrics segment "
                           f"(bad magic)")
    if version != VERSION:
        raise SegmentError(f"{path}: unsupported segment version {version}")
    return {
        "kind": kind, "slots": slots, "slot_size": slot_size,
        "run_off": run_off, "run_size": run_size, "parent_pid": parent_pid,
        "created_unix": created_unix, "limit_ps": limit_ps,
        "backend": backend.rstrip(b"\x00").decode("utf-8", "replace"),
        "mode": mode.rstrip(b"\x00").decode("utf-8", "replace"),
    }


class RankSlotWriter:
    """One rank's publisher into its segment slot (single writer).

    Owned by whichever process runs the rank's kernel: the parent for
    sequential / in-process-backend runs and for rank 0 of the
    processes backend, the forked worker for its other ranks.
    Accumulates the cumulative fields (busy time,
    step-wall histogram, epoch count) locally and republishes the whole
    slot on every :meth:`publish`.
    """

    def __init__(self, segment: LiveSegment, rank: int, sim: Any):
        import os

        self.segment = segment
        self.rank = rank
        self.sim = sim
        self.pid = os.getpid()
        self.state = STATE_INIT
        self.busy_s = 0.0
        self.epoch = 0
        self.hist = [0] * HIST_BUCKETS
        # Cross-process the slot is single-writer by construction; this
        # lock serialises the writers *within* one process (the sampler
        # thread vs the kernel-boundary hook / epoch observer).
        self._lock = threading.Lock()
        self.publish()

    def record_step(self, wall_s: float) -> None:
        """Fold one completed kernel window into the cumulative fields."""
        self.busy_s += wall_s
        self.epoch += 1
        for i, bound in enumerate(HIST_BOUNDS):
            if wall_s <= bound:
                self.hist[i] += 1
                break
        else:
            self.hist[-1] += 1

    def publish(self, state: Optional[int] = None) -> None:
        if state is not None:
            self.state = state
        sim = self.sim
        with self._lock:
            self.segment.write_slot(
                self.rank, _RANK_BODY_FMT,
                self.pid, self.state, sim._events_executed,
                len(sim._queue), sim.now, self.epoch,
                *self.hist,
                _wall_time.perf_counter(), _wall_time.time(),
                self.busy_s, 0.0)

    # Kernel-boundary hooks: the loop calls these once per invocation
    # through the duck-typed ``sim._live_publisher`` slot; publishing
    # must never be able to kill a run.
    def on_kernel_enter(self) -> None:
        try:
            self.publish(STATE_RUNNING)
        except Exception:
            pass

    def on_kernel_exit(self) -> None:
        try:
            self.publish(STATE_WAITING)
        except Exception:
            pass

    def close(self, state: int = STATE_DONE) -> None:
        try:
            self.publish(state)
        except (ValueError, IndexError, struct.error):  # segment closed
            pass


class LiveView:
    """Read-only attachment to a segment (``obs top``, HTTP endpoint,
    watchdog).  Snapshots retry torn slots per the seqlock protocol."""

    RETRIES = 8

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        if not self.path.is_file():
            raise SegmentError(f"no live segment at {self.path}")
        fh = open(self.path, "rb")
        try:
            self._mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:
            raise SegmentError(f"{self.path} is not a live segment: {exc}")
        finally:
            fh.close()
        self.header = read_header(self._mm, self.path)
        self.kind = self.header["kind"]

    def close(self) -> None:
        try:
            self._mm.close()
        except (BufferError, ValueError):  # pragma: no cover
            pass

    # ------------------------------------------------------------------
    def _read_slot(self, off: int, body_fmt: str) -> Optional[tuple]:
        mm = self._mm
        for _ in range(self.RETRIES):
            seq1 = struct.unpack_from(_SEQ_FMT, mm, off)[0]
            if seq1 & 1:
                continue
            body = struct.unpack_from(body_fmt, mm, off + 8)
            seq2 = struct.unpack_from(_SEQ_FMT, mm, off)[0]
            if seq1 == seq2:
                return body
        return None  # writer mid-update across every retry: skip this frame

    def read_rank(self, rank: int) -> Optional[Dict[str, Any]]:
        off = _HEADER_SIZE + rank * self.header["slot_size"]
        body = self._read_slot(off, _RANK_BODY_FMT)
        if body is None:
            return None
        (pid, state, events, queued, sim_ps, epoch, *rest) = body
        hist = list(rest[:HIST_BUCKETS])
        mono_s, unix_s, busy_s, _ = rest[HIST_BUCKETS:]
        return {
            "rank": rank, "pid": pid, "state": state,
            "state_name": STATE_NAMES.get(state, str(state)),
            "events": events, "queued": queued, "sim_ps": sim_ps,
            "epoch": epoch, "hist": hist, "mono_s": mono_s,
            "unix_s": unix_s, "busy_s": busy_s,
        }

    def read_run(self) -> Optional[Dict[str, Any]]:
        if self.header["run_size"] <= 0:
            return None
        off = self.header["run_off"]
        n = self.header["slots"]
        fmt = _RUN_BODY_FMT[1:]  # strip the "<"
        body = self._read_slot(off, f"<{fmt}{n}d")
        if body is None:
            return None
        (state, epoch, events, exchanged, now_ps, limit_ps, window_ps,
         exchange_bytes, mono_s, unix_s, start_mono, exchange_s, exec_s,
         lookahead_util, reason) = body[:15]
        return {
            "state": state,
            "state_name": STATE_NAMES.get(state, str(state)),
            "epoch": epoch, "events": events, "exchanged": exchanged,
            "now_ps": now_ps, "limit_ps": limit_ps,
            "window_ps": window_ps, "exchange_bytes": exchange_bytes,
            "mono_s": mono_s,
            "unix_s": unix_s, "start_mono": start_mono,
            "exchange_s": exchange_s, "exec_s": exec_s,
            "lookahead_util": lookahead_util,
            "reason": reason.rstrip(b"\x00").decode("utf-8", "replace"),
            "barrier_s": list(body[15:15 + n]),
        }

    def snapshot(self) -> Dict[str, Any]:
        """One coherent-enough view of the whole segment.

        Per-rank ``age_s`` (heartbeat age: now minus the slot's last
        publish stamp) is computed here, reader-side, against the same
        CLOCK_MONOTONIC the writers stamp with.
        """
        now = _wall_time.perf_counter()
        ranks: List[Optional[Dict[str, Any]]] = []
        if self.kind == KIND_RUN:
            # Sweep segments carry point slots in a different layout;
            # their readers go through repro.obs.live.sweep instead.
            for r in range(self.header["slots"]):
                slot = self.read_rank(r)
                if slot is not None:
                    slot["age_s"] = max(0.0, now - slot["mono_s"])
                ranks.append(slot)
        return {
            "path": str(self.path),
            "header": dict(self.header),
            "mono_now": now,
            "ranks": ranks,
            "run": self.read_run(),
        }


def resolve_segment(target: Union[str, Path]) -> Path:
    """Find the live segment for a CLI argument.

    Accepts the segment file itself, the run's metrics path (the
    segment lives next to it as ``<metrics>.live``), or a directory
    (the newest ``*.live`` file inside it).
    """
    path = Path(target)
    if path.is_dir():
        candidates = sorted(path.glob("*.live"),
                            key=lambda p: p.stat().st_mtime, reverse=True)
        if not candidates:
            raise SegmentError(f"no *.live segment found in {path}")
        return candidates[0]
    if path.suffix == ".live" or _looks_like_segment(path):
        return path
    sibling = default_segment_path(path)
    if sibling.is_file():
        return sibling
    if path.is_file():
        return path  # let LiveView produce the precise error
    raise SegmentError(
        f"no live segment at {path} (nor {sibling}); pass the "
        f"<metrics>.live file of a run started with --live-segment or "
        f"--serve-metrics")


def _looks_like_segment(path: Path) -> bool:
    try:
        with open(path, "rb") as fh:
            return fh.read(len(MAGIC)) == MAGIC
    except OSError:
        return False
