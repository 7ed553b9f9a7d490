"""numpy is loaded by the first model that draws or vectorises, not by
``import repro``.

A run whose models never draw a random number (a clocked fabric, an
HPCCG torus, a design point) leaves numpy out of ``sys.modules`` in
every process it runs in; the last step of the script is the control:
one draw through ``Component.rng`` loads it.  Each script runs in a
fresh interpreter, because the test process itself has numpy loaded.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = textwrap.dedent("""
    import sys

    def numpy_free(label):
        assert "numpy" not in sys.modules, f"{label} imported numpy"

    import repro, repro.config, repro.dse, repro.miniapps
    from repro import dse
    from repro.config import ConfigGraph, build, build_parallel
    from repro.core import Component, param, register, stat
    from repro.miniapps import build_app_machine
    numpy_free("import")

    @register("lazy.Ticker")
    class Ticker(Component):
        lcg_seed = param(1)
        ticks = param(20)
        s_final = stat.counter("final_state")

        def __init__(self, sim, name, params=None):
            super().__init__(sim, name, params)
            self.x = int(self.lcg_seed)
            self.register_clock("1GHz", self.on_tick)

        def on_tick(self, cycle):
            self.x = (self.x * 1103515245 + 12345) & 0x7FFFFFFF
            return cycle >= self.ticks

        def on_finish(self):
            self.s_final.add(self.x)

    fabric = ConfigGraph("fabric")
    for i in range(50):
        fabric.component(f"t{i}", "lazy.Ticker", {"lcg_seed": i + 1})
    sim = build(fabric, seed=11)
    sim.run()
    assert sim.components["t0"].s_final.value() > 0
    numpy_free("the Ticker fabric")

    torus = build_app_machine("miniapps.HPCCG", 8, iterations=2,
                              name="torus")
    assert build(torus, seed=11).run().events_executed > 0
    numpy_free("the serial HPCCG torus")
    psim = build_parallel(torus, 2, seed=11, backend="processes")
    assert psim.run().events_executed > 0
    numpy_free("the 2-rank processes HPCCG torus")

    point = dse.run_design_point("hpccg", issue_width=2,
                                 technology="DDR3-1066",
                                 instructions=200_000, n_cores=2, seed=11)
    assert point.runtime_ps > 0
    numpy_free("a design point")

    sim.components["t0"].rng.random()
    assert "numpy" in sys.modules, "the control draw did not load numpy"
    print("numpy-free")
""")


def test_runs_that_never_draw_leave_numpy_unloaded():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=240)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip().splitlines()[-1] == "numpy-free"
