"""ENG-5 — live observability overhead: publishing on vs off.

The live plane (PR 6) publishes per-rank engine state into a
shared-memory segment from kernel boundaries and a sampler thread —
deliberately *not* from a per-event observer — so enabling it must not
tax the hot path.  This bench runs the same 1k-component clocked
fabric ENG-2 uses, bare and with :class:`repro.obs.live.LiveMetrics`
attached, and asserts the acceptance gate: live publishing costs at
most 5% of events/second.  The gate reads the median of per-pair
ratios over alternating bare/live pairs (the side that runs first
alternates), so machine drift and one slow run shift single pairs, not
the verdict.
"""

import statistics

from repro.core import Component, Simulation
from repro.obs.live import STATE_DONE, LiveMetrics, LiveView

N_COMPONENTS = 1_000
N_TICKS = 200
PAIRS = 7

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


def _run(live_path=None):
    """One fresh run, live-published to ``live_path`` if given."""
    sim = big_fabric()
    live = (LiveMetrics(live_path, interval_s=0.1).attach(sim)
            if live_path is not None else None)
    result = sim.run()
    if live is not None:
        live.finalize(result)
    return result


def test_eng5_live_publishing_overhead(report, tmp_path):
    ratios = []
    for i in range(PAIRS):
        if i % 2 == 0:
            bare, live = _run(), _run(tmp_path / "liveobs.live")
        else:
            live, bare = _run(tmp_path / "liveobs.live"), _run()
        # Same deterministic workload either way.
        assert bare.events_executed == live.events_executed \
            == N_COMPONENTS * N_TICKS
        ratios.append(live.events_per_second / bare.events_per_second)
    ratio = statistics.median(ratios)
    report(f"ENG-5 live-obs overhead: live/bare events/s over {PAIRS} "
           f"pairs {' '.join(f'{r:.3f}' for r in ratios)} "
           f"(median {ratio:.3f}, gate >= {1 - MAX_OVERHEAD})")
    assert ratio >= 1 - MAX_OVERHEAD


def test_eng5_live_segment_left_finalized(report, tmp_path):
    """The attach/finalize cycle leaves a readable post-mortem segment."""
    seg = tmp_path / "post.live"
    _run(seg)
    view = LiveView(seg)
    snapshot = view.snapshot()
    view.close()
    slot = snapshot["ranks"][0]
    assert slot["state"] == STATE_DONE
    assert slot["events"] == N_COMPONENTS * N_TICKS
    assert snapshot["run"]["state"] == STATE_DONE
    report(f"ENG-5 post-mortem segment: rank 0 closed at "
           f"{slot['events']} events, state done")
