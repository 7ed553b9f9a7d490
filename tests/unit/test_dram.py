"""Tests for DRAM models, controller scheduling, node memory and the bus."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Params, Simulation
from repro.memory import (TECHNOLOGIES, BandwidthShare, DRAMModel,
                          MainMemory, MemController, MemRequest, NodeMemory,
                          SchedulingDRAM, SharedBus, SimpleMemory, tech)
from repro.processor import TrafficGenerator


class TestTechnologyTable:
    def test_expected_technologies_present(self):
        for name in ("DDR2-800", "DDR3-800", "DDR3-1066", "DDR3-1333",
                     "DDR3-1600", "GDDR5"):
            assert name in TECHNOLOGIES

    def test_relative_ordering(self):
        """The property the design-space study rests on: bandwidth
        GDDR5 >> DDR3 > DDR2; background power GDDR5 >> DDR3; $/GB
        GDDR5 > DDR3."""
        ddr2 = tech("DDR2-800")
        ddr3 = tech("DDR3-1333")
        gddr5 = tech("GDDR5")
        assert gddr5.peak_bw_bytes_per_s > 4 * ddr3.peak_bw_bytes_per_s
        assert ddr3.peak_bw_bytes_per_s > ddr2.peak_bw_bytes_per_s
        assert gddr5.background_power_w > 3 * ddr3.background_power_w
        assert gddr5.cost_per_gb > 1.5 * ddr3.cost_per_gb

    def test_ddr3_speed_grades_ordered(self):
        grades = ["DDR3-800", "DDR3-1066", "DDR3-1333", "DDR3-1600"]
        bws = [tech(g).peak_bw_bytes_per_s for g in grades]
        assert bws == sorted(bws)

    def test_unknown_tech_raises(self):
        with pytest.raises(KeyError):
            tech("HBM9")


class TestDRAMModel:
    def test_row_hit_faster_than_miss(self):
        m = DRAMModel("DDR3-1333")
        t1 = m.request(0, 0x0, 64)  # cold: row miss
        t2 = m.request(t1, 0x40, 64)  # same row: hit
        assert m.stats.row_hits == 1
        assert m.stats.row_misses == 1
        miss_latency = t1 - 0
        hit_latency = t2 - t1
        assert hit_latency < miss_latency

    def test_bank_conflict_serialises(self):
        m = DRAMModel("DDR3-1333")
        row = m.tech.row_bytes
        banks = m.tech.n_banks
        # Same bank, different rows -> conflict; different banks overlap.
        t_same = m.request(0, 0, 64)
        t_conflict = m.request(0, row * banks, 64)  # same bank, next row
        assert t_conflict > t_same
        m2 = DRAMModel("DDR3-1333")
        m2.request(0, 0, 64)
        t_other_bank = m2.request(0, row, 64)
        # Other-bank access is limited only by channel transfer overlap.
        assert t_other_bank <= t_conflict

    def test_bandwidth_serialisation(self):
        m = DRAMModel("DDR3-1333")
        # Saturate by issuing everything at t=0 (pipelined): achieved
        # bandwidth approaches (but cannot exceed) peak.
        end = 0
        for i in range(200):
            end = max(end, m.request(0, i * 64, 64))
        achieved = m.achieved_bandwidth(end)
        assert achieved <= m.peak_bandwidth * 1.01
        assert achieved > m.peak_bandwidth * 0.7

    def test_serial_dependent_stream_is_latency_bound(self):
        m = DRAMModel("DDR3-1333")
        now = 0
        for i in range(100):
            now = m.request(now, i * 64, 64)
        # Issuing each request only after the last completes exposes the
        # access latency: achieved bandwidth is far below peak.
        assert m.achieved_bandwidth(now) < m.peak_bandwidth * 0.5

    def test_channels_multiply_bandwidth(self):
        assert DRAMModel("DDR3-1333", channels=4).peak_bandwidth == \
            pytest.approx(4 * DRAMModel("DDR3-1333").peak_bandwidth)

    def test_energy_components(self):
        m = DRAMModel("DDR3-1333")
        end = m.request(0, 0, 64)
        dynamic_only = m.stats.dynamic_energy_pj
        assert dynamic_only > 0
        total = m.energy_joules(elapsed_ps=10**12)  # 1 second
        assert total > m.tech.background_power_w * 0.99

    def test_average_power_zero_time(self):
        assert DRAMModel().average_power_w(0) == 0.0

    def test_cost(self):
        m = DRAMModel("GDDR5")
        assert m.cost_dollars(4.0) == pytest.approx(4 * m.tech.cost_per_gb)

    def test_invalid_channels(self):
        with pytest.raises(ValueError):
            DRAMModel(channels=0)

    @given(st.lists(st.integers(0, 1 << 26), min_size=1, max_size=100))
    @settings(max_examples=40)
    def test_completions_monotone_nondecreasing(self, addrs):
        m = DRAMModel("DDR3-1333")
        now = 0
        for a in addrs:
            done = m.request(now, a, 64)
            assert done > now  # strictly after issue
            now = done
        assert m.stats.requests == len(addrs)
        assert m.stats.row_hits + m.stats.row_misses == len(addrs)


class TestSchedulingDRAM:
    def test_fcfs_preserves_order(self):
        s = SchedulingDRAM(policy="fcfs")
        for i, addr in enumerate([0, 8192, 64, 16384]):
            s.submit(0, addr, 64, payload=i)
        done = s.drain_all()
        assert [p for _, p in done] == [0, 1, 2, 3]

    def test_frfcfs_prefers_open_rows(self):
        s = SchedulingDRAM(policy="frfcfs", window=8)
        row = s.model.tech.row_bytes * s.model.tech.n_banks
        # First request opens row 0 of bank 0; then a same-bank
        # different-row request, then a row-0 hit.
        s.submit(0, 0, 64, payload="open")
        s.submit(0, row, 64, payload="conflict")
        s.submit(0, 64, 64, payload="hit")
        done = s.drain_all()
        order = [p for _, p in done]
        assert order.index("hit") < order.index("conflict")
        assert s.reordered >= 1

    def test_frfcfs_total_time_not_worse(self):
        def run(policy):
            s = SchedulingDRAM(policy=policy)
            row = s.model.tech.row_bytes * s.model.tech.n_banks
            addrs = []
            for i in range(20):
                addrs += [i * 64, row + i * 64]  # interleaved row conflict
            for a in addrs:
                s.submit(0, a, 64)
            done = s.drain_all()
            return max(t for t, _ in done)

        assert run("frfcfs") <= run("fcfs")

    def test_bad_policy(self):
        with pytest.raises(ValueError):
            SchedulingDRAM(policy="lifo")
        with pytest.raises(ValueError):
            SchedulingDRAM(window=0)

    def test_drain_until_respects_arrival(self):
        s = SchedulingDRAM()
        s.submit(100, 0, 64, payload="early")
        s.submit(10**9, 64, 64, payload="late")
        done = s.drain_until(200)
        assert [p for _, p in done] == ["early"]
        assert s.pending == 1


class TestMemoryComponents:
    def _run(self, mem_type, mem_params, requests=32):
        sim = Simulation(seed=4)
        cpu = TrafficGenerator(sim, "cpu", Params({
            "requests": requests, "pattern": "stream", "stride": 64,
            "outstanding": 4,
        }))
        mem = mem_type(sim, "mem", Params(mem_params))
        sim.connect(cpu, "mem", mem, "cpu", latency="2ns")
        result = sim.run()
        assert result.reason == "exit"
        return sim, cpu, mem

    def test_simple_memory_fixed_latency(self):
        sim, cpu, mem = self._run(SimpleMemory, {"latency": "60ns"},
                                  requests=8)
        assert mem.s_requests.count == 8
        # Round trip: 2ns + 60ns + 2ns.
        assert cpu.s_latency.minimum == 64_000

    def test_main_memory_serves_all(self):
        sim, cpu, mem = self._run(MainMemory, {"technology": "DDR3-1333"})
        assert cpu.s_completed.count == 32
        assert mem.s_reads.count == 32
        assert mem.model.stats.requests == 32

    def test_main_memory_gddr5_faster_for_streams(self):
        def total_runtime(technology):
            sim, cpu, _ = self._run(MainMemory, {"technology": technology},
                                    requests=128)
            return cpu.s_runtime.count

        assert total_runtime("GDDR5") < total_runtime("DDR2-800")

    def test_controller_component(self):
        sim, cpu, ctrl = self._run(MemController,
                                   {"technology": "DDR3-1333",
                                    "policy": "frfcfs"})
        assert cpu.s_completed.count == 32
        assert ctrl.s_requests.count == 32


class TestBandwidthShare:
    def test_uncontended(self):
        share = BandwidthShare(10e9)
        assert share.slowdown(1, 5e9) == 1.0

    def test_contended_slowdown(self):
        share = BandwidthShare(10e9)
        # 4 clients at 5GB/s each want 20 over 10 -> each gets 2.5.
        assert share.slowdown(4, 5e9) == pytest.approx(2.0)

    def test_phase_time_amdahl_split(self):
        share = BandwidthShare(10e9)
        # Fully compute-bound phase is unaffected.
        assert share.phase_time(1.0, 0.0, 8, 5e9) == 1.0
        # Fully bandwidth-bound phase scales with the slowdown.
        assert share.phase_time(1.0, 1.0, 4, 5e9) == pytest.approx(2.0)
        # Half-bound splits the difference.
        assert share.phase_time(1.0, 0.5, 4, 5e9) == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthShare(0)
        share = BandwidthShare(1e9)
        with pytest.raises(ValueError):
            share.effective_bandwidth(0, 1e9)
        with pytest.raises(ValueError):
            share.phase_time(1.0, 1.5, 1, 1e9)


class TestSharedBus:
    def test_two_clients_share_and_route_back(self):
        sim = Simulation(seed=4)
        cpus = [
            TrafficGenerator(sim, f"cpu{i}", Params({
                "requests": 16, "pattern": "stream", "stride": 64,
                "outstanding": 2,
            }))
            for i in range(2)
        ]
        bus = SharedBus(sim, "bus", Params({"n_ports": 2,
                                            "bandwidth": "10GB/s"}))
        mem = SimpleMemory(sim, "mem", Params({"latency": "50ns"}))
        for i, cpu in enumerate(cpus):
            sim.connect(cpu, "mem", bus, f"cpu{i}", latency="1ns")
        sim.connect(bus, "mem", mem, "cpu", latency="1ns")
        result = sim.run()
        assert result.reason == "exit"
        for cpu in cpus:
            assert cpu.s_completed.count == 16
        assert bus.s_transfers.count == 64  # 32 requests + 32 responses

    def test_contention_slows_clients(self):
        def runtime(n_clients):
            sim = Simulation(seed=4)
            cpus = [
                TrafficGenerator(sim, f"cpu{i}", Params({
                    "requests": 64, "pattern": "stream", "stride": 64,
                    "outstanding": 8, "size": 4096,
                }))
                for i in range(n_clients)
            ]
            bus = SharedBus(sim, "bus", Params({
                "n_ports": n_clients, "bandwidth": "2GB/s"}))
            mem = SimpleMemory(sim, "mem", Params({"latency": "10ns"}))
            for i, cpu in enumerate(cpus):
                sim.connect(cpu, "mem", bus, f"cpu{i}", latency="1ns")
            sim.connect(bus, "mem", mem, "cpu", latency="1ns")
            sim.run()
            return max(c.s_runtime.count for c in cpus)

        assert runtime(4) > 1.5 * runtime(1)


class TestNodeMemory:
    def test_bulk_contention_between_cores(self):
        from repro.processor import MixCore

        def runtime(n_cores, technology="DDR3-1333"):
            sim = Simulation(seed=4)
            mem = NodeMemory(sim, "mem", Params({
                "technology": technology, "n_ports": n_cores}))
            cores = []
            for i in range(n_cores):
                core = MixCore(sim, f"core{i}", Params({
                    "workload": "hpccg", "instructions": 500_000,
                    "issue_width": 4}))
                sim.connect(core, "mem", mem, f"core{i}", latency="1ns")
                cores.append(core)
            result = sim.run()
            assert result.reason == "exit"
            return max(c.runtime_ps() for c in cores)

        solo = runtime(1)
        contended = runtime(4)
        assert contended > 1.3 * solo  # bandwidth split across 4 cores

    def test_technology_advertised_to_cores(self):
        from repro.processor import MixCore

        sim = Simulation(seed=4)
        core = MixCore(sim, "core0", Params({"workload": "hpccg",
                                             "instructions": 100_000}))
        mem = NodeMemory(sim, "mem", Params({"technology": "GDDR5",
                                             "n_ports": 1}))
        sim.connect(core, "mem", mem, "core0", latency="1ns")
        sim.setup()
        assert core._dram_tech.name == "GDDR5"
