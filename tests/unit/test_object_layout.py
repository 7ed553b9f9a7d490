"""Declared state is the object layout: no component holds a real dict.

CPython (3.11 and later) keeps an instance's attribute values inline,
beside the object, as long as every key fits the class's shared-key
table; the first attribute that does not fit, or any read of
``obj.__dict__``, trades them for a real dict and slows every later
attribute access.  ``_declare`` materialises declared state while the
first instance is built, so a component stays inline from construction
to the end of the run, provided its class holds at most
:data:`INLINE_BUDGET` attributes (docs/COMPONENTS.md).

The probe reads the managed-dict word, three pointers below the object
header, with ``ctypes``: reading ``obj.__dict__`` would itself build
the dict.  On 3.11 the word is the dict pointer, NULL while the values
are inline; 3.12 tags it, with the low bit set while the values are
inline; 3.13 keeps it NULL until a dict is built.  The probe, the
budget and the late-key rule read the same on CPython 3.11, 3.12 and
3.13.
"""

from __future__ import annotations

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import ConfigGraph, build
from repro.miniapps import build_app_machine

from .test_conformance import GRAPHS

REPO = Path(__file__).resolve().parents[2]

#: attributes that CPython's shared-key table holds per class (3.11
#: to 3.13): the first instance takes one slot of the table's 30
INLINE_BUDGET = 29

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info < (3, 11),
    reason="inline attribute values are a CPython 3.11+ layout")


def dict_backed(obj) -> bool:
    word = ctypes.c_size_t.from_address(
        id(obj) - 3 * ctypes.sizeof(ctypes.c_void_p)).value
    return word != 0 and not word & 1


def dict_backed_models(sim):
    """Names of every component and filled slot that holds a real dict."""
    out = []
    for name, comp in sim._components.items():
        if dict_backed(comp):
            out.append(name)
        out += [f"{name}.{attr}" for attr, sub in comp._filled_slots()
                if dict_backed(sub)]
    return out


def cluster_backfill_graph() -> ConfigGraph:
    """The EASY-backfill machine of the benchmark's cluster workload."""
    g = ConfigGraph("cluster-backfill")
    g.component("src", "cluster.JobSource",
                {"jobs": 4000, "mean_runtime": "20ms", "max_nodes": 8,
                 "window": 32, "mode": "burst", "burst_size": 64,
                 "burst_gap": "180ms"})
    g.component("sched", "cluster.Scheduler",
                {"nodes": 32, "policy": "cluster.EASYBackfill"})
    g.component("pool", "cluster.NodePool", {"nodes": 32})
    g.component("slo", "cluster.SLOStats", {"capacity": 32})
    g.link("src", "out", "sched", "submit", latency="10ns")
    g.link("sched", "pool", "pool", "sched", latency="10ns")
    g.link("sched", "report", "slo", "report", latency="10ns")
    return g


MACHINES = {
    **GRAPHS,
    "torus-hpccg-64": lambda: build_app_machine(
        "miniapps.HPCCG", 64, iterations=2, name="torus-hpccg"),
    "cluster-backfill-machine": cluster_backfill_graph,
    # 16 leaves, 2 endpoints each, 4 spines: the spines are built after
    # the leaves and must fit the leaves' key table
    "fattree-hpccg-32": lambda: build_app_machine(
        "miniapps.HPCCG", 32, topology="fattree", iterations=2,
        name="fattree-hpccg"),
    # every AppRank outside the HaloApp family, each holding its
    # constants in one plan value
    **{f"{app.lower()}-16": (lambda app=app: build_app_machine(
        f"miniapps.{app}", 16, iterations=2, name=app.lower()))
       for app in ("MiniFE", "CGSolver", "BiCGStabILU", "MLSolver",
                   "PhdMesh", "MiniDSMC", "MiniMD", "MiniXyce")},
}


def probe(name: str) -> dict:
    """Build, set up and run one machine in this interpreter.

    Returns the dict-backed models after each stage, the stop reason,
    and then (reading ``vars``, which builds the dicts) the most
    attributes any instance of each class holds.
    """
    sim = build(MACHINES[name](), seed=11)
    out = {"build": dict_backed_models(sim)}
    sim.setup()
    out["setup"] = dict_backed_models(sim)
    out["reason"] = sim.run().reason
    out["run"] = dict_backed_models(sim)
    counts: dict = {}
    for comp in sim._components.values():
        for model in [comp] + [sub for _, sub in comp._filled_slots()]:
            kind = type(model).__name__
            counts[kind] = max(counts.get(kind, 0), len(vars(model)))
    out["attributes"] = counts
    return out


def probe_fresh(name: str) -> dict:
    """:func:`probe` in a new interpreter.

    A class's shared-key table lives as long as the class: keys that
    an earlier machine added late stay in it and would let a later
    machine pass that fails on its own.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src"), str(REPO)]))
    done = subprocess.run(
        [sys.executable, "-m", "tests.unit.test_object_layout", name],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_probe_sees_a_materialised_dict():
    class Plain:
        pass

    obj = Plain()
    obj.x = 1
    assert not dict_backed(obj)
    vars(obj)
    assert dict_backed(obj)


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_no_model_is_dict_backed(name):
    stages = probe_fresh(name)
    assert stages["reason"] == "exit"
    for stage in ("build", "setup", "run"):
        assert stages[stage] == [], f"dict-backed after {stage}"
    # HPCCG and JobSource sit closest to the budget
    counts = stages["attributes"]
    assert max(counts.values()) <= INLINE_BUDGET, counts


if __name__ == "__main__":
    print(json.dumps(probe(sys.argv[1])))
