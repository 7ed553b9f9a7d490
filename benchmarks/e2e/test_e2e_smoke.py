"""Smoke test of the repo benchmark (not part of tier-1).

Run explicitly: ``python -m pytest benchmarks/e2e``.  Uses ``--quick``
(2 repeats, nothing discarded), so it checks plumbing and goldens, never
timings.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SPEC = bench.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_cli(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=900)


@pytest.fixture(scope="module",
                params=[bench.DEFAULT_SEED, bench.HELD_OUT_SEED])
def quick_suite(request, tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "suite.json"
    trace = out.with_name("trace.json")
    proc = run_cli("--quick", "--seed", str(request.param),
                   "--json", str(out), "--trace-out", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return (json.loads(out.read_text()), json.loads(trace.read_text()),
            proc.stdout)


def test_workload_names():
    assert 2 <= len(WORKLOADS) <= 8
    for name in WORKLOADS:
        assert re.match(r"^[A-Za-z0-9_.-]+$", name)


def test_quick_suite_passes_goldens(quick_suite):
    doc, _, _ = quick_suite
    assert list(doc["workloads"]) == WORKLOADS
    for name, pair in doc["workloads"].items():
        for mode, worker in pair.items():
            assert not worker.get("crashed"), (name, mode, worker)
            assert worker["pinned"], (name, mode)
            assert worker["attempted"] >= 1
            assert worker["failed"] == 0, (name, mode, worker["errors"])


def test_suite_carries_every_metric(quick_suite):
    doc, trace, stdout = quick_suite
    for name, pair in doc["workloads"].items():
        for m in SPEC["end_to_end"]:
            assert pair["untraced"]["metrics"][m["name"]]["n"] >= 1
            assert m["unit"]
        for m in SPEC["per_layer"]:
            assert m["name"] in pair["traced"]["layers"], (name, m["name"])
            assert m["unit"]
            assert f"  {m['name']} " in stdout
        detail = pair["traced"]["detail"]
        assert any(k.startswith("handler_s.") for k in detail)
        assert any(k.startswith("handler_events.") for k in detail)
    parallel = doc["workloads"]["torus_hpccg_2rank"]["traced"]
    for key in ("core.backends.exec_s", "core.backends.barrier_wait_s",
                "core.sync.exchange_s"):
        assert parallel["detail"][key] > 0
    assert parallel["layers"]["core.sync.epochs"] > 1
    sweep = doc["workloads"]["sweep_grid"]["traced"]
    assert sweep["detail"]["dse.cold_s"] > sweep["detail"]["dse.cached_s"] > 0
    assert sweep["layers"]["dse.cache_hits"] == sweep["layers"]["dse.points"]
    lanes = {e["args"]["name"] for e in trace["traceEvents"]
             if e["ph"] == "M"}
    assert lanes == set(WORKLOADS)
    assert any(e["ph"] == "X" and e["name"] == "core.run"
               for e in trace["traceEvents"])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_driver_form_prints_result_object(trace, section):
    proc = run_cli("--workload", "cluster_backfill", "--seed", "5",
                   "--seconds", "1", "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(expected)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == expected[name]
        assert isinstance(entry["value"], (int, float))


def test_corrupted_golden_is_failed_ops(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text())
    golden["cluster_backfill"][str(bench.DEFAULT_SEED)]["results"]["jobs"] = 1
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps(golden))
    doc = bench.run_worker("cluster_backfill", bench.DEFAULT_SEED, 1, 0,
                           quick=True, golden=bad)
    assert not doc.get("crashed")
    assert doc["failed"] == doc["attempted"] >= 1
    assert any("golden" in e for e in doc["errors"])
