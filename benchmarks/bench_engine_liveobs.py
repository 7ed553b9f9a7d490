"""ENG-5 — live observability overhead: publishing on vs off.

The live plane (PR 6) publishes per-rank engine state into a
shared-memory segment from kernel boundaries and a sampler thread —
deliberately *not* from a per-event observer — so enabling it must not
tax the hot path.  This bench runs the same 1k-component clocked
fabric ENG-2 uses, bare and with :class:`repro.obs.live.LiveMetrics`
attached, and asserts the acceptance gate: live publishing costs at
most 5% of events/second (best-of-N on both sides to shed scheduler
noise).
"""

from repro.core import Component, Simulation
from repro.obs.live import STATE_DONE, LiveMetrics, LiveView

N_COMPONENTS = 1_000
N_TICKS = 200
ROUNDS = 3

#: the acceptance gate: live-on throughput >= 95% of bare.
MAX_OVERHEAD = 0.05


def big_fabric(n_components=N_COMPONENTS, n_ticks=N_TICKS):
    sim = Simulation(seed=1)

    class Ticker(Component):
        def __init__(self, s, name, params=None):
            super().__init__(s, name, params)
            self.ticks = 0
            self.register_clock("1GHz", self.on_tick)

        def on_tick(self, cycle):
            self.ticks += 1
            return self.ticks >= n_ticks

    for i in range(n_components):
        Ticker(sim, f"t{i}")
    return sim


def _best_run(live_path=None, rounds=ROUNDS):
    """Best events/second over ``rounds`` fresh runs (and the last
    RunResult, whose event count is deterministic)."""
    best, result = 0.0, None
    for _ in range(rounds):
        sim = big_fabric()
        live = (LiveMetrics(live_path, interval_s=0.1).attach(sim)
                if live_path is not None else None)
        result = sim.run()
        if live is not None:
            live.finalize(result)
        best = max(best, result.events_per_second)
    return best, result


def test_eng5_live_publishing_overhead(report, tmp_path):
    bare_eps, bare = _best_run()
    live_eps, live = _best_run(tmp_path / "liveobs.live")
    ratio = live_eps / bare_eps
    report(f"ENG-5 live-obs overhead: bare {bare_eps:,.0f} events/s, "
           f"live {live_eps:,.0f} events/s "
           f"(ratio {ratio:.3f}, gate >= {1 - MAX_OVERHEAD})")
    # Same deterministic workload either way.
    assert bare.events_executed == live.events_executed \
        == N_COMPONENTS * N_TICKS
    assert ratio >= 1 - MAX_OVERHEAD


def test_eng5_live_segment_left_finalized(report, tmp_path):
    """The attach/finalize cycle leaves a readable post-mortem segment."""
    seg = tmp_path / "post.live"
    _best_run(seg, rounds=1)
    view = LiveView(seg)
    snapshot = view.snapshot()
    view.close()
    slot = snapshot["ranks"][0]
    assert slot["state"] == STATE_DONE
    assert slot["events"] == N_COMPONENTS * N_TICKS
    assert snapshot["run"]["state"] == STATE_DONE
    report(f"ENG-5 post-mortem segment: rank 0 closed at "
           f"{slot['events']} events, state done")
