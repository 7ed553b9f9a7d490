"""Tests for processor models: mixes, traces, the abstract core, the GPU."""

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ConfigGraph, build
from repro.core import Params, Simulation
from repro.memory import CacheHierarchy, DRAMModel, LevelSpec, NodeMemory
from repro.memory.dram import TECHNOLOGIES, DRAMStats
from repro.processor import (FERMI_M2090, KEPLER_LIKE, WORKLOADS, CoreConfig,
                             CoreTimingModel, GpuTimingModel, InstructionMix,
                             KernelProfile, MemoryProfile, MixCore, TraceSpec,
                             measure_hit_rates, workload)


class TestInstructionMix:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            InstructionMix(fp=0.5, int_alu=0.5, load=0.5, store=0.0,
                           branch=0.0)

    def test_positive_ilp_required(self):
        with pytest.raises(ValueError):
            InstructionMix(fp=0.5, int_alu=0.3, load=0.1, store=0.05,
                           branch=0.05, ilp=0)

    def test_memory_fraction(self):
        mix = InstructionMix(fp=0.4, int_alu=0.2, load=0.25, store=0.1,
                             branch=0.05)
        assert mix.memory_fraction == pytest.approx(0.35)

    def test_workload_library_complete(self):
        for name in ("hpccg", "lulesh", "minife_fea", "minife_solver",
                     "charon_fea", "charon_solver", "cth", "sage", "xnobel"):
            assert name in WORKLOADS
            spec = workload(name)
            assert spec.name == name

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            workload("doom")

    def test_solver_more_memory_bound_than_fea(self):
        """The structural fact behind the validation studies."""
        for app in ("minife", "charon"):
            fea = workload(f"{app}_fea")
            solver = workload(f"{app}_solver")
            assert solver.memory.dram_bytes_per_instr > \
                5 * fea.memory.dram_bytes_per_instr

    def test_charon_fea_worse_l2_l3_than_minife(self):
        """The Fig. 4 divergence is encoded in the profiles."""
        minife = workload("minife_fea").memory.hit_rates
        charon = workload("charon_fea").memory.hit_rates
        assert abs(minife["L1"] - charon["L1"]) / charon["L1"] < 0.05
        assert minife["L2"] > 2.5 * charon["L2"]
        assert minife["L3"] > 2.5 * charon["L3"]

    def test_scaled(self):
        spec = workload("hpccg").scaled(2.0)
        assert spec.instructions_per_iteration == \
            2 * workload("hpccg").instructions_per_iteration


class TestMemoryProfile:
    def test_miss_chain(self):
        prof = MemoryProfile({"L1": 0.9, "L2": 0.5}, dram_bytes_per_instr=1.0)
        misses = prof.miss_per_instr(0.4)
        assert misses["L1"] == pytest.approx(0.04)
        assert misses["L2"] == pytest.approx(0.02)
        assert prof.dram_accesses_per_instr(0.4) == pytest.approx(0.02)


class TestCoreTimingModel:
    def _model(self, width, ilp=2.2, name="hpccg"):
        return CoreTimingModel(CoreConfig(issue_width=width), workload(name))

    def test_effective_issue_saturates_at_ilp(self):
        narrow = self._model(1).effective_issue()
        wide = self._model(8).effective_issue()
        wider = self._model(16).effective_issue()
        assert narrow < wide < workload("hpccg").mix.ilp
        assert (wider - wide) < (wide - narrow)  # diminishing returns

    def test_block_decomposition_positive(self):
        timing = self._model(2).block(100_000, DRAMModel("DDR3-1333").tech)
        assert timing.compute_ps > 0
        assert timing.cache_stall_ps > 0
        assert timing.dram_latency_ps > 0
        assert timing.dram_bytes == 500_000  # 5.0 B/instr calibration
        assert timing.latency_bound_ps == (timing.compute_ps
                                           + timing.cache_stall_ps
                                           + timing.dram_latency_ps)

    def test_wider_core_faster_latency_bound(self):
        t1 = self._model(1).block(100_000)
        t8 = self._model(8).block(100_000)
        assert t8.compute_ps < t1.compute_ps

    def test_standalone_runtime_roofline(self):
        model = self._model(8)
        ddr2 = model.standalone_runtime_ps(1_000_000, DRAMModel("DDR2-800"))
        gddr5 = model.standalone_runtime_ps(1_000_000, DRAMModel("GDDR5"))
        assert ddr2 > gddr5

    def test_sharers_slow_bandwidth_bound_runtime(self):
        model = self._model(4)
        dram = DRAMModel("DDR3-1333")
        solo = model.standalone_runtime_ps(1_000_000, dram, n_sharers=1)
        shared = model.standalone_runtime_ps(1_000_000, dram, n_sharers=8)
        assert shared > solo

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CoreConfig(issue_width=0)
        with pytest.raises(ValueError):
            CoreConfig(freq_hz=0)
        with pytest.raises(ValueError):
            CoreConfig(mlp=0.5)

    @given(st.integers(1, 16), st.integers(10_000, 1_000_000))
    @settings(max_examples=40)
    def test_block_scales_linearly_with_instructions(self, width, n):
        model = CoreTimingModel(CoreConfig(issue_width=width),
                                workload("lulesh"))
        one = model.block(n)
        two = model.block(2 * n)
        assert two.compute_ps == pytest.approx(2 * one.compute_ps, rel=0.01)
        assert two.dram_bytes == pytest.approx(2 * one.dram_bytes, rel=0.01)


class TestMixCoreComponent:
    def _run(self, **overrides):
        params = {"workload": "hpccg", "instructions": 300_000,
                  "issue_width": 2, "clock": "2GHz"}
        params.update(overrides)
        # "technology" configures the memory side, not the core.
        technology = params.pop("technology", "DDR3-1333")
        sim = Simulation(seed=3)
        core = MixCore(sim, "core", Params(params))
        mem = NodeMemory(sim, "mem", Params({
            "technology": technology,
            "n_ports": 1}))
        sim.connect(core, "mem", mem, "core0", latency="1ns")
        result = sim.run()
        assert result.reason == "exit"
        return core, mem

    def test_retires_all_instructions(self):
        core, _ = self._run()
        assert core.retired == 300_000
        assert core.s_instructions.count == 300_000

    def test_block_count(self):
        core, _ = self._run(block=100_000)
        assert core.s_blocks.count == 3

    def test_partial_last_block(self):
        core, _ = self._run(instructions=250_000, block=100_000)
        assert core.retired == 250_000
        assert core.s_blocks.count == 3

    def test_memory_technology_changes_runtime(self):
        slow, _ = self._run(technology="DDR2-800", instructions=1_000_000)
        fast, _ = self._run(technology="GDDR5", instructions=1_000_000)
        assert slow.runtime_ps() > fast.runtime_ps()

    def test_width_speedup_saturating(self):
        runtimes = {
            w: self._run(issue_width=w, instructions=1_000_000)[0].runtime_ps()
            for w in (1, 2, 4, 8)
        }
        assert runtimes[1] > runtimes[2] > runtimes[4] > runtimes[8]
        gain_12 = runtimes[1] / runtimes[2]
        gain_48 = runtimes[4] / runtimes[8]
        assert gain_12 > gain_48  # diminishing returns

    def test_runs_without_memory_port(self):
        sim = Simulation(seed=3)
        core = MixCore(sim, "core", Params({"workload": "minife_fea",
                                            "instructions": 200_000}))
        result = sim.run()
        assert result.reason == "exit"
        assert core.retired == 200_000

    def test_dram_traffic_accounted(self):
        core, mem = self._run(instructions=1_000_000)
        expected = workload("hpccg").memory.dram_bytes_per_instr * 1_000_000
        assert mem.s_bytes.count == pytest.approx(expected, rel=0.02)


def _bulk_formula(mem, channel_free, stats, now, nbytes, accesses):
    """``NodeMemory.bulk_completion`` as written before it memoized
    transfer shapes: every float operation in the same order."""
    tech = mem.dram.tech
    bw = mem.dram.peak_bandwidth
    transfer_ps = int(round(nbytes / bw * 1e12)) if nbytes else 0
    start = max(now, channel_free)
    done = start + transfer_ps
    stats.requests += max(1, accesses)
    row_misses = int(round(max(1, accesses) * (1.0 - mem.row_locality)))
    stats.row_misses += row_misses
    stats.row_hits += max(1, accesses) - row_misses
    stats.bytes_moved += nbytes
    stats.busy_time_ps += done - start
    stats.dynamic_energy_pj += (
        row_misses * tech.activate_energy_pj
        + nbytes * 8 * tech.access_energy_pj_per_bit
    )
    return done


_TECHS = st.sampled_from(sorted(TECHNOLOGIES))


class TestMemoizedHotPath:
    """The constant work of a design-point block is done once per block
    shape; these properties hold the memos to the formulas they replace."""

    @given(name=st.sampled_from(sorted(WORKLOADS)),
           width=st.integers(1, 8),
           mlp=st.floats(1.0, 16.0),
           calls=st.lists(st.tuples(
               st.sampled_from([100_000, 37_123]),
               st.one_of(st.none(), _TECHS),
               st.sampled_from([0.0, 0.6, 0.85])), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_block_memo_matches_fresh_computation(self, name, width, mlp,
                                                  calls):
        config = CoreConfig(issue_width=width, mlp=mlp)
        model = CoreTimingModel(config, workload(name))
        for n, tech_name, hit_rate in calls:
            tech = TECHNOLOGIES[tech_name] if tech_name else None
            fresh = CoreTimingModel(config, workload(name))
            assert model.block(n, tech, hit_rate) == \
                fresh.block(n, tech, hit_rate)

    @given(tech_name=_TECHS,
           channels=st.integers(1, 4),
           row_locality=st.floats(0.0, 1.0),
           transfers=st.lists(st.tuples(
               st.integers(0, 5_000_000),
               st.sampled_from([0, 64, 500_000, 1_234_567]),
               st.sampled_from([0, 1, 7, 7_813])), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_bulk_completion_matches_formula(self, tech_name, channels,
                                             row_locality, transfers):
        mem = NodeMemory(Simulation(), "mem", Params({
            "technology": tech_name, "channels": channels,
            "row_locality": row_locality}))
        stats, channel_free = DRAMStats(), 0
        for now, nbytes, accesses in transfers:
            done = mem.bulk_completion(now, nbytes, accesses)
            channel_free = _bulk_formula(mem, channel_free, stats, now,
                                         nbytes, accesses)
            assert done == channel_free == mem._channel_free
            assert asdict(mem.dram.stats) == asdict(stats)
            assert mem.dram.stats.dynamic_energy_pj.hex() == \
                stats.dynamic_energy_pj.hex()

    @staticmethod
    def _node(mem_first):
        graph = ConfigGraph("node")
        mem = ("mem", "memory.NodeMemory",
               {"technology": "GDDR5", "n_ports": 2})
        cores = [(f"core{i}", "processor.MixCore",
                  {"workload": "hpccg", "instructions": 1_000_000,
                   "issue_width": 2}) for i in range(2)]
        for comp in ([mem] + cores if mem_first else cores + [mem]):
            graph.component(*comp)
        for i in range(2):
            graph.link(f"core{i}", "mem", "mem", f"core{i}", latency="1ns")
        sim = build(graph, seed=1)
        assert sim.run().reason == "exit"
        return sim.stat_values()

    def test_stats_independent_of_declaration_order(self):
        """Every core times its first block against its memory's
        technology, whether the memory is set up before or after it."""
        first, last = self._node(True), self._node(False)
        assert first == last
        assert first["core0.runtime_ps"] == 694_058_730


class TestTraceSpec:
    def test_probabilities_must_sum(self):
        from repro.processor import Region

        with pytest.raises(ValueError):
            TraceSpec(regions=[Region(1024, 0.5)], stream_probability=0.2)

    def test_generation_deterministic(self):
        spec = TraceSpec.hot_cold(1024, 65536, hot_fraction=0.8,
                                  stream_probability=0.1, seed=5)
        a1, w1 = spec.generate(1000)
        spec2 = TraceSpec.hot_cold(1024, 65536, hot_fraction=0.8,
                                   stream_probability=0.1, seed=5)
        a2, w2 = spec2.generate(1000)
        assert (a1 == a2).all()
        assert (w1 == w2).all()

    def test_hot_cold_hit_rate_reflects_hot_fraction(self):
        hierarchy = CacheHierarchy([
            LevelSpec("L1", 2048, ways=8, latency_ps=1000)])
        spec = TraceSpec.hot_cold(512, 4 << 20, hot_fraction=0.9, seed=6)
        rates = measure_hit_rates(spec, hierarchy, n=20_000, warmup=5_000)
        assert 0.8 < rates["L1"] < 1.0

    def test_stream_never_reuses(self):
        from repro.processor import Region

        spec = TraceSpec(regions=[Region(64, 0.0)], stream_probability=1.0,
                         seed=7)
        addrs, _ = spec.generate(1000)
        assert len(set(addrs.tolist())) == 1000

    def test_for_workload_ranks_workloads_correctly(self):
        """Traces derived for the two FEA phases must reproduce the
        minife >> charon L2 hit-rate ordering when measured."""
        from repro.miniapps.phases import cache_hit_rates

        minife = cache_hit_rates("minife_fea", n_refs=40_000, warmup=60_000)
        charon = cache_hit_rates("charon_fea", n_refs=40_000, warmup=60_000)
        assert minife["L2"] > 2 * charon["L2"]
        assert abs(minife["L1"] - charon["L1"]) < 0.05

    def test_write_fraction_respected(self):
        spec = TraceSpec.hot_cold(1024, 65536, hot_fraction=0.9,
                                  write_fraction=0.5, seed=8)
        _, writes = spec.generate(10_000)
        assert 0.45 < writes.mean() < 0.55


class TestGpuModel:
    def test_occupancy_limited_by_registers(self):
        gpu = GpuTimingModel(FERMI_M2090)
        light = KernelProfile("light", 100, state_bytes_per_thread=64,
                              mem_bytes_per_thread=10, registers_per_thread=16)
        heavy = KernelProfile("heavy", 100, state_bytes_per_thread=64,
                              mem_bytes_per_thread=10, registers_per_thread=63)
        assert gpu.occupancy(light) > gpu.occupancy(heavy)

    def test_occupancy_limited_by_shared_memory(self):
        gpu = GpuTimingModel(FERMI_M2090)
        kernel = KernelProfile("sh", 100, 64, 10, shared_bytes_per_thread=512,
                               registers_per_thread=16)
        assert gpu.occupancy(kernel) <= FERMI_M2090.shared_bytes_per_sm // 512

    def test_occupancy_warp_granular(self):
        gpu = GpuTimingModel(FERMI_M2090)
        kernel = KernelProfile("k", 100, 64, 10, registers_per_thread=63)
        assert gpu.occupancy(kernel) % 32 == 0

    def test_spill_threshold(self):
        gpu = GpuTimingModel(FERMI_M2090)
        assert gpu.spill_bytes(KernelProfile("a", 1, 200, 1)) == 0
        assert gpu.spill_bytes(KernelProfile("b", 1, 300, 1)) == 300 - 252

    def test_spilling_makes_kernel_bandwidth_bound(self):
        gpu = GpuTimingModel(FERMI_M2090)
        compute_heavy = KernelProfile("c", 5000, state_bytes_per_thread=200,
                                      mem_bytes_per_thread=16)
        spilled = KernelProfile("s", 5000, state_bytes_per_thread=900,
                                mem_bytes_per_thread=16, spill_reuse=3)
        n = 1 << 20
        assert not gpu.estimate(compute_heavy, n).bandwidth_bound
        assert gpu.estimate(spilled, n).bandwidth_bound
        assert gpu.estimate(spilled, n).runtime_s > \
            gpu.estimate(compute_heavy, n).runtime_s

    def test_more_registers_removes_spill(self):
        kernel = KernelProfile("k", 2000, state_bytes_per_thread=700,
                               mem_bytes_per_thread=64)
        fermi = GpuTimingModel(FERMI_M2090)
        kepler = GpuTimingModel(KEPLER_LIKE)
        assert fermi.spill_bytes(kernel) > 0
        assert kepler.spill_bytes(kernel) == 0

    def test_with_optimizations_reduces_state(self):
        kernel = KernelProfile("k", 1, state_bytes_per_thread=700,
                               mem_bytes_per_thread=1)
        tuned = kernel.with_optimizations(state_reduction_bytes=100,
                                          shared_bytes=64)
        assert tuned.state_bytes_per_thread == 536
        assert tuned.shared_bytes_per_thread == 64

    def test_pcie_time(self):
        gpu = GpuTimingModel(FERMI_M2090)
        assert gpu.pcie_time(6e9) == pytest.approx(1.0)


class TestMiniFEGpuStudy:
    def test_fig8_shape(self):
        from repro.miniapps import MiniFEGpuStudy

        table = MiniFEGpuStudy(48).table()
        assert table["structure"].speedup < 1.0  # slowdown
        assert 2.5 <= table["fea"].speedup <= 6.5
        assert 2.0 <= table["solve"].speedup <= 4.0
        # The paper's ordering: assembly gains most, then solve.
        assert table["fea"].speedup > table["solve"].speedup > \
            table["structure"].speedup

    def test_fea_bandwidth_bound_by_spilling(self):
        from repro.miniapps import MiniFEGpuStudy

        study = MiniFEGpuStudy(48)
        estimate = study.fea_estimate(tuned=True)
        assert estimate.bandwidth_bound
        assert estimate.spill_bytes_per_thread > 250

    def test_tuning_helps(self):
        from repro.miniapps import MiniFEGpuStudy

        study = MiniFEGpuStudy(48)
        assert study.fea_estimate(tuned=False).runtime_s > \
            study.fea_estimate(tuned=True).runtime_s

    def test_future_hardware_fixes_spilling(self):
        from repro.miniapps import MiniFEGpuStudy

        fermi = MiniFEGpuStudy(48)
        kepler = MiniFEGpuStudy(48, gpu=KEPLER_LIKE)
        assert kepler.fea_estimate().spill_bytes_per_thread == 0
        assert kepler.fea().speedup > fermi.fea().speedup

    def test_problem_size_validation(self):
        from repro.miniapps import MiniFEGpuStudy

        with pytest.raises(ValueError):
            MiniFEGpuStudy(1)
