"""Stall watchdog: detect hung ranks and extract their stacks.

A :class:`StallWatchdog` polls a live segment from a daemon thread and
flags ranks that stopped making progress.  Two independent signals:

* **progress age** — a rank in the *running* state whose
  ``(events, sim_ps, epoch)`` triple has not changed for
  ``threshold_s`` is stuck inside a kernel window (typically a handler
  spinning or blocked).  The slot itself keeps getting republished by
  the rank's sampler thread, which is precisely what distinguishes
  "hung handler, process alive" from "process dead";
* **publish age** — a slot whose publish stamp itself is older than the
  threshold belongs to a rank whose process (or sampler) died.

On a stall the watchdog grabs a stack dump from the owning process.
For ranks in *this* process (rank 0 of a processes-backend run
included) it calls ``faulthandler.dump_traceback`` directly; for
processes-backend workers it signals the worker's pid
with SIGUSR1, which the worker registered at startup via
:func:`enable_stack_dump_signal` (``faulthandler.register``) when the
run was started with watchdog dumps enabled.  The pipe command channel
is deliberately *not* used for this: a worker wedged inside a handler
never returns to the command loop, while the signal path dumps from
any state.  Each stall is reported to the diagnostics stream, recorded
as an ``obs.stall`` telemetry record (when a recorder is wired in) and
counted in the engine's ``obs.stalls`` statistic; ``abort=True``
additionally terminates the stalled worker, which surfaces as a
``SimulationError`` in the run loop.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time as _wall_time
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Union

from ..format import fmt_age, fmt_count
from .segment import STATE_DONE, STATE_RUNNING, LiveView, SegmentError

#: open dump files keyed by path; faulthandler keeps writing into the
#: registered file object, so it must stay alive for the process.
_DUMP_FILES: Dict[str, IO[str]] = {}


def stack_dump_path(segment_path: Union[str, Path], rank: int) -> Path:
    """Where rank ``rank``'s stack dump lands: ``<segment>.stack.rank<k>``."""
    base = Path(segment_path)
    return base.with_name(f"{base.name}.stack.rank{rank}")


def enable_stack_dump_signal(path: Union[str, Path]) -> None:
    """Register SIGUSR1 -> faulthandler traceback into ``path``.

    Called inside each processes-backend worker at startup (see
    ``backends._worker_main``); after this, any process that knows the
    worker's pid can extract its stack with ``os.kill(pid, SIGUSR1)``
    even while the worker is wedged inside a handler.
    """
    import faulthandler

    path = str(path)
    fh = _DUMP_FILES.get(path)
    if fh is None:
        fh = open(path, "w", encoding="utf-8")
        _DUMP_FILES[path] = fh
    faulthandler.register(signal.SIGUSR1, file=fh, all_threads=True)


def request_stack_dump(pid: int, dump_path: Union[str, Path], *,
                       timeout_s: float = 2.0) -> Optional[str]:
    """Extract a stack dump from ``pid`` into ``dump_path``.

    Same-process requests dump directly via faulthandler; foreign pids
    are signalled with SIGUSR1 and the dump file is polled until it has
    content.  Returns the dump text, or None if nothing materialised.
    """
    import faulthandler

    dump_path = Path(dump_path)
    if pid == os.getpid():
        with open(dump_path, "w", encoding="utf-8") as fh:
            faulthandler.dump_traceback(file=fh, all_threads=True)
        return dump_path.read_text(encoding="utf-8")
    try:
        dump_path.parent.mkdir(parents=True, exist_ok=True)
        os.kill(pid, signal.SIGUSR1)
    except (ProcessLookupError, PermissionError):
        return None
    deadline = _wall_time.monotonic() + timeout_s
    while _wall_time.monotonic() < deadline:
        try:
            text = dump_path.read_text(encoding="utf-8")
        except OSError:
            text = ""
        if text.strip():
            return text
        _wall_time.sleep(0.05)
    return None


class StallWatchdog:
    """Poll a live segment and flag ranks whose heartbeat went stale.

    Parameters
    ----------
    segment_path:
        The run's live segment file.
    threshold_s:
        Progress/publish age beyond which a rank counts as stalled.
    poll_s:
        Poll period (default: a quarter of the threshold, >= 0.1s).
    abort:
        Terminate a stalled worker after dumping its stack (the run
        then fails with a descriptive ``SimulationError``); in-process
        stalls deliver ``KeyboardInterrupt`` to the main thread.
    telemetry:
        Optional :class:`TelemetryRecorder`; each stall is appended to
        its stream as an ``{"kind": "obs.stall", ...}`` record.
    target:
        Optional simulation the run belongs to; stalls increment its
        engine-level ``obs.stalls`` counter.
    stream:
        Where diagnostics go (default stderr).
    """

    def __init__(self, segment_path: Union[str, Path], *,
                 threshold_s: float = 10.0,
                 poll_s: Optional[float] = None,
                 abort: bool = False,
                 telemetry: Optional[Any] = None,
                 target: Optional[Any] = None,
                 on_stall: Optional[Any] = None,
                 stream: Optional[IO[str]] = None):
        self.segment_path = Path(segment_path)
        self.threshold_s = threshold_s
        self.poll_s = poll_s if poll_s is not None else max(0.1,
                                                            threshold_s / 4)
        self.abort = abort
        self.telemetry = telemetry
        self.on_stall = on_stall
        self.stream = stream if stream is not None else sys.stderr
        self.stalls: List[Dict[str, Any]] = []
        self._counter = None
        if target is not None:
            stats = getattr(target, "engine_stats", None)
            if stats is None and hasattr(target, "rank_sim"):
                stats = target.rank_sim(0).engine_stats
            if stats is not None:
                self._counter = stats.counter("obs.stalls")
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: rank -> (progress triple, mono time it last changed)
        self._progress: Dict[int, Any] = {}
        #: ranks already reported for the current stall episode
        self._flagged: Dict[int, bool] = {}

    # ------------------------------------------------------------------
    def start(self) -> "StallWatchdog":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="repro-stall-watchdog", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def _loop(self) -> None:
        # The segment may not exist for the first poll or two.
        while not self._stop.wait(self.poll_s):
            try:
                view = LiveView(self.segment_path)
            except SegmentError:
                continue
            try:
                snapshot = view.snapshot()
            finally:
                view.close()
            run = snapshot.get("run")
            if run is not None and run.get("state") == STATE_DONE:
                return
            self.check(snapshot)

    # ------------------------------------------------------------------
    def check(self, snapshot: Dict[str, Any]) -> List[Dict[str, Any]]:
        """One poll: classify every rank, report fresh stalls.

        Public so tests (and callers without the polling thread) can
        drive the detector with synthetic snapshots.
        """
        now = snapshot.get("mono_now", _wall_time.perf_counter())
        fresh: List[Dict[str, Any]] = []
        for slot in snapshot.get("ranks", []):
            if slot is None:
                continue
            rank = slot["rank"]
            triple = (slot["events"], slot["sim_ps"], slot["epoch"],
                      slot["state"])
            known = self._progress.get(rank)
            if known is None or known[0] != triple:
                self._progress[rank] = (triple, now)
                self._flagged.pop(rank, None)
                continue
            progress_age = now - known[1]
            publish_age = slot.get("age_s", 0.0)
            stalled_running = (slot["state"] == STATE_RUNNING
                               and progress_age > self.threshold_s)
            stalled_dead = (slot["state"] != STATE_DONE
                            and publish_age > self.threshold_s)
            if not (stalled_running or stalled_dead):
                continue
            if self._flagged.get(rank):
                continue
            self._flagged[rank] = True
            stall = self._report(slot, progress_age, publish_age,
                                 dead=stalled_dead and not stalled_running)
            self.stalls.append(stall)
            fresh.append(stall)
        return fresh

    def _report(self, slot: Dict[str, Any], progress_age: float,
                publish_age: float, *, dead: bool) -> Dict[str, Any]:
        rank = slot["rank"]
        pid = slot["pid"]
        dump_path = stack_dump_path(self.segment_path, rank)
        dump = None
        if not dead:
            dump = request_stack_dump(pid, dump_path)
        kind = ("worker process silent (died or hard-hung)" if dead
                else "no progress inside a running kernel window")
        print(f"[watchdog] rank {rank} STALLED: {kind} — pid {pid}, "
              f"state {slot['state_name']}, "
              f"{fmt_count(slot['events'])} events frozen for "
              f"{fmt_age(progress_age)} "
              f"(heartbeat age {fmt_age(publish_age)})",
              file=self.stream, flush=True)
        if dump:
            print(f"[watchdog] rank {rank} stack dump -> {dump_path}",
                  file=self.stream, flush=True)
        stall = {
            "kind": "obs.stall",
            "rank": rank,
            "pid": pid,
            "state": slot["state_name"],
            "events": slot["events"],
            "sim_ps": slot["sim_ps"],
            "progress_age_s": progress_age,
            "publish_age_s": publish_age,
            "worker_silent": dead,
            "stack_dump": str(dump_path) if dump else None,
            "mono_s": _wall_time.perf_counter(),
            "aborted": False,
        }
        if self._counter is not None:
            self._counter.add()
        if self.abort:
            stall["aborted"] = True
            self._abort(rank, pid)
        if self.telemetry is not None:
            try:
                self.telemetry.emit_record(stall)
            except Exception:  # recorder may already be finalized
                pass
        if self.on_stall is not None:
            try:
                self.on_stall(stall)
            except Exception:
                pass
        return stall

    def _abort(self, rank: int, pid: int) -> None:
        print(f"[watchdog] aborting: terminating stalled rank {rank} "
              f"(pid {pid})", file=self.stream, flush=True)
        if pid == os.getpid():
            import _thread

            _thread.interrupt_main()
            return
        try:
            os.kill(pid, signal.SIGTERM)
        except (ProcessLookupError, PermissionError):
            pass

    def __enter__(self) -> "StallWatchdog":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
