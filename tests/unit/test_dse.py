"""Tests for the design-space exploration driver."""

import pytest

from repro.dse import (PAPER_TECHNOLOGIES, PAPER_WIDTHS, PAPER_WORKLOADS,
                       SweepResult, design_point_graph, run_design_point,
                       sweep)


class TestDesignPoint:
    def test_single_point_runs(self):
        point = run_design_point("hpccg", issue_width=2,
                                 technology="DDR3-1333",
                                 instructions=500_000)
        assert point.instructions == 500_000
        assert point.runtime_ps > 0
        assert point.performance > 0
        assert point.memory_technology == "DDR3-1333"

    def test_multi_core_point(self):
        solo = run_design_point("hpccg", n_cores=1, instructions=500_000)
        quad = run_design_point("hpccg", n_cores=4, instructions=500_000)
        # Four cores retire 4x instructions but contend for bandwidth.
        assert quad.instructions == 4 * 500_000
        assert quad.runtime_ps > solo.runtime_ps
        assert quad.core_power_w > solo.core_power_w

    def test_graph_shape(self):
        graph = design_point_graph("lulesh", issue_width=4,
                                   technology="GDDR5",
                                   instructions=100_000, n_cores=2)
        types = [c.type_name for c in graph.components()]
        assert types.count("processor.MixCore") == 2
        assert types.count("memory.NodeMemory") == 1
        assert graph.num_links() == 2

    def test_deterministic(self):
        a = run_design_point("lulesh", seed=5, instructions=500_000)
        b = run_design_point("lulesh", seed=5, instructions=500_000)
        assert a.runtime_ps == b.runtime_ps
        assert a.total_power_w == b.total_power_w

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            run_design_point("quake3")


class TestSweep:
    @pytest.fixture(scope="class")
    def small_sweep(self):
        return sweep(workloads=["hpccg"], widths=[1, 4],
                     technologies=["DDR3-1066", "GDDR5"],
                     instructions=500_000)

    def test_grid_complete(self, small_sweep):
        assert len(small_sweep.points) == 4
        for width in (1, 4):
            for tech in ("DDR3-1066", "GDDR5"):
                assert small_sweep.point("hpccg", width, tech)

    def test_speedup_helper(self, small_sweep):
        gain = small_sweep.speedup("hpccg", 4, "GDDR5", "DDR3-1066")
        assert gain > 0

    def test_best_by_metric(self, small_sweep):
        fastest = small_sweep.best("performance")
        assert fastest.issue_width == 4
        assert fastest.memory_technology == "GDDR5"
        per_dollar = small_sweep.best("perf_per_dollar")
        assert per_dollar is not None

    def test_best_with_workload_filter(self, small_sweep):
        assert small_sweep.best("performance", workload="hpccg")
        with pytest.raises(ValueError):
            small_sweep.best("performance", workload="doom")

    def test_missing_point_raises(self, small_sweep):
        with pytest.raises(KeyError):
            small_sweep.point("hpccg", 8, "GDDR5")

    def test_paper_axes_exported(self):
        assert set(PAPER_TECHNOLOGIES) == {"DDR2-800", "DDR3-1066", "GDDR5"}
        assert tuple(PAPER_WIDTHS) == (1, 2, 4, 8)
        assert set(PAPER_WORKLOADS) == {"hpccg", "lulesh"}


class TestParallelSweep:
    GRID = dict(workloads=["hpccg"], widths=[1, 4],
                technologies=["DDR3-1066", "GDDR5"])

    def test_job_pool_backends_match_serial(self):
        serial = sweep(instructions=200_000, **self.GRID)
        pooled = sweep(instructions=200_000, backend="processes", jobs=2,
                       **self.GRID)
        assert list(pooled.points) == list(serial.points)
        assert pooled.points == serial.points

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_points_keep_grid_order(self, backend):
        result = sweep(instructions=200_000, backend=backend, jobs=2,
                       **self.GRID)
        assert list(result.points) == [
            ("hpccg", w, t) for w in (1, 4) for t in ("DDR3-1066", "GDDR5")]

    def test_default_jobs_runs_the_pool(self):
        """``jobs=None`` sizes the pool from the usable CPU count."""
        serial = sweep(instructions=200_000, **self.GRID)
        pooled = sweep(instructions=200_000, backend="processes",
                       **self.GRID)
        assert pooled.points == serial.points

    @pytest.mark.parametrize("cached", [False, True],
                             ids=["cold", "cached"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unknown_backend_raises(self, tmp_path, cached, jobs):
        if cached:
            sweep(instructions=200_000, cache_dir=tmp_path, **self.GRID)
        with pytest.raises(ValueError, match="unknown job-pool backend"):
            sweep(instructions=200_000, backend="gpu", jobs=jobs,
                  cache_dir=tmp_path, **self.GRID)

    @pytest.mark.parametrize("cached", [False, True],
                             ids=["cold", "cached"])
    def test_invalid_jobs_raises(self, tmp_path, cached):
        if cached:
            sweep(instructions=200_000, cache_dir=tmp_path, **self.GRID)
        with pytest.raises(ValueError, match="jobs must be"):
            sweep(instructions=200_000, jobs=0, cache_dir=tmp_path,
                  **self.GRID)

    def test_cache_roundtrip(self, tmp_path):
        cold = sweep(instructions=200_000, cache_dir=tmp_path, **self.GRID)
        assert len(list(tmp_path.glob("*.json"))) == 4
        warm = sweep(instructions=200_000, cache_dir=tmp_path, **self.GRID)
        assert warm.points == cold.points

    def test_cache_actually_used(self, tmp_path, monkeypatch):
        """The warm pass must not re-simulate: poison the evaluator."""
        import repro.dse as dse_mod

        sweep(instructions=200_000, cache_dir=tmp_path, **self.GRID)

        def explode(spec):
            raise AssertionError("cache miss: point was re-simulated")

        monkeypatch.setattr(dse_mod, "_sweep_eval", explode)
        warm = sweep(instructions=200_000, cache_dir=tmp_path, **self.GRID)
        assert len(warm.points) == 4

    def test_cache_keys_distinguish_configs(self, tmp_path):
        """Changing graph inputs or the seed must miss the cache."""
        sweep(workloads=["hpccg"], widths=[1], technologies=["GDDR5"],
              instructions=200_000, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.json"))) == 1
        sweep(workloads=["hpccg"], widths=[1], technologies=["GDDR5"],
              instructions=300_000, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.json"))) == 2
        sweep(workloads=["hpccg"], widths=[1], technologies=["GDDR5"],
              instructions=200_000, seed=2, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.json"))) == 3

    def test_corrupt_cache_entry_reevaluated(self, tmp_path):
        ref = sweep(workloads=["hpccg"], widths=[1], technologies=["GDDR5"],
                    instructions=200_000, cache_dir=tmp_path)
        (entry,) = tmp_path.glob("*.json")
        entry.write_text("{not json", encoding="utf-8")
        again = sweep(workloads=["hpccg"], widths=[1],
                      technologies=["GDDR5"], instructions=200_000,
                      cache_dir=tmp_path)
        assert again.points == ref.points
        import json
        json.loads(entry.read_text(encoding="utf-8"))  # rewritten intact
