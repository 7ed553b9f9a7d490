"""ENG-4 — Engine checkpoint/restore: overhead, latency, warm-start.

`repro.ckpt` (PR 5) must be effectively free when enabled at a sane
cadence, or nobody will leave it on.  This bench pins that claim on a
realistic machine (HPCCG on a torus, 2 simulation ranks):

1. **overhead guard** — a parallel run whose ``checkpoint_every``
   lands snapshots on **< 1% of epoch boundaries** stays within 10% of
   the uncheckpointed run's events/s (the median of per-pair ratios
   over alternating cold/checkpointed pairs, so machine drift and one
   slow run shift single pairs, not the verdict), and its final
   statistics are identical;
2. **snapshot/restore latency** — wall time and on-disk size of one
   mid-run snapshot, and the time to rebuild a live engine from it
   (the restored engine finishes with the reference statistics);
3. **warm-start speedup** — a ``dse.sweep(warm_start=...)`` that
   restores per-point prefix snapshots reproduces the cold sweep's
   design points exactly, and restoring an 80% prefix beats re-running
   it.
"""

import statistics
import time
from pathlib import Path

from repro.ckpt import restore, snapshot_parallel
from repro.config import build_parallel
from repro.miniapps import build_app_machine

N_APP_RANKS = 16
ITERATIONS = 120
SIM_RANKS = 2
ROUNDS = 3
PAIRS = 7


def machine():
    return build_app_machine("miniapps.HPCCG", N_APP_RANKS,
                             iterations=ITERATIONS)


def _run(checkpoint=None):
    psim = build_parallel(machine(), SIM_RANKS, strategy="bfs", seed=2)
    t0 = time.perf_counter()
    if checkpoint is not None:
        result = psim.run(checkpoint_every=checkpoint[0],
                          checkpoint_dir=str(checkpoint[1]))
    else:
        result = psim.run()
    wall = time.perf_counter() - t0
    stats = psim.stat_values()
    written = list(psim.checkpoints_written)
    psim.close()
    assert result.reason == "exit"
    return result, wall, stats, written


def test_eng4_checkpoint_overhead_guard(report, tmp_path):
    """PR 5 perf gate: <1%-of-epochs checkpointing costs <10% events/s."""
    reference, _, ref_stats, _ = _run()
    interval = reference.end_time // 2
    ratios = []
    for i in range(PAIRS):
        checkpoint = (interval, tmp_path / f"c{i}")
        if i % 2 == 0:
            cold_wall = _run()[1]
            result, ckpt_wall, stats, written = _run(checkpoint=checkpoint)
        else:
            result, ckpt_wall, stats, written = _run(checkpoint=checkpoint)
            cold_wall = _run()[1]
        # Both sides run the same events, so the events/s ratio is the
        # inverse wall-time ratio.
        ratios.append(cold_wall / ckpt_wall)

        # The cadence really is sparse, and the snapshots really happened.
        assert written
        snap_fraction = len(written) / result.epochs
        assert snap_fraction < 0.01, snap_fraction
        # Checkpointing changes nothing observable.
        assert stats == ref_stats
        assert result.end_time == reference.end_time
        assert result.events_executed == reference.events_executed

    ratio = statistics.median(ratios)
    report(f"ENG-4 overhead [{SIM_RANKS} ranks, {result.epochs} epochs, "
           f"{len(written)} snapshots = {snap_fraction:.2%} of epochs]: "
           f"checkpointed/cold events/s over {PAIRS} pairs "
           f"{' '.join(f'{r:.1%}' for r in ratios)} (median {ratio:.1%})")
    assert ratio >= 0.90, f"checkpointing cost {1 - ratio:.1%} of throughput"


def test_eng4_snapshot_restore_latency(report, tmp_path):
    """One mid-run snapshot: write cost, size, rebuild cost, fidelity."""
    reference, _, ref_stats, _ = _run()
    psim = build_parallel(machine(), SIM_RANKS, strategy="bfs", seed=2)
    psim.run(max_time=reference.end_time // 2)
    t0 = time.perf_counter()
    path = snapshot_parallel(psim, tmp_path / "snap")
    snapshot_s = time.perf_counter() - t0
    psim.close()
    size = sum(f.stat().st_size for f in Path(path).iterdir())

    t0 = time.perf_counter()
    resumed = restore(path)
    restore_s = time.perf_counter() - t0
    result = resumed.run()
    stats = resumed.stat_values()
    resumed.close()

    report(f"ENG-4 latency: snapshot {snapshot_s * 1e3:.1f} ms "
           f"({size / 1024:.0f} KiB, {SIM_RANKS} shards), "
           f"restore {restore_s * 1e3:.1f} ms")
    assert stats == ref_stats
    assert result.end_time == reference.end_time


def test_eng4_warm_start_speedup(report, tmp_path):
    """Warm starting: identical sweep results, recorded speedup.

    The sweep half pins the correctness claim on the real `dse` flow
    (warm and cold sweeps agree point-for-point — its MixCore points
    are nearly analytic, so their wall time says nothing).  The speedup
    half measures the mechanism where the prefix actually costs
    something: restoring an 80%-of-the-run snapshot of the HPCCG
    machine versus re-simulating from zero.
    """
    from repro.config import build
    from repro.ckpt import snapshot
    from repro.dse import sweep

    grid = (["hpccg"], [2, 4], ["DDR3-1066", "GDDR5"])
    kwargs = dict(instructions=400_000, seed=2)
    cold = sweep(*grid, **kwargs)
    warm1 = sweep(*grid, warm_start="100us", warm_dir=tmp_path, **kwargs)
    snaps = list(tmp_path.glob("warm-*/MANIFEST.json"))
    assert len(snaps) == len(cold.points)
    warm2 = sweep(*grid, warm_start="100us", warm_dir=tmp_path, **kwargs)
    assert cold.points == warm1.points == warm2.points

    # Speedup mechanism, measured on an event-heavy machine: 80% warm.
    graph = machine()
    sim = build(graph, seed=2)
    full = sim.run()
    prefix_ps = full.end_time * 4 // 5
    sim = build(graph, seed=2)
    sim.run(max_time=prefix_ps, finalize=False)
    wpath = snapshot(sim, tmp_path / "warm-engine")

    def cold_run():
        t0 = time.perf_counter()
        s = build(graph, seed=2)
        s.run()
        return time.perf_counter() - t0, s.stat_values()

    def warm_run():
        t0 = time.perf_counter()
        s = restore(wpath)
        s.run()
        return time.perf_counter() - t0, s.stat_values()

    colds, warms = [], []
    for _ in range(ROUNDS):
        colds.append(cold_run())
        warms.append(warm_run())
    assert all(stats == colds[0][1] for _, stats in colds + warms)
    cold_s = min(w for w, _ in colds)
    warm_s = min(w for w, _ in warms)
    speedup = cold_s / warm_s
    report(f"ENG-4 warm start: {len(cold.points)} sweep points identical "
           f"cold/warm; 80%-prefix engine restore {warm_s:.3f}s vs cold "
           f"{cold_s:.3f}s ({speedup:.1f}x)")
    # Skipping 80% of the events must win, import noise and all.
    assert speedup > 1.5, speedup
