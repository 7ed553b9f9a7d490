"""ENG-7 — bursty arrival floods: the cluster workload as an engine bench.

The cluster family is the first workload where the simulated system is
itself a service under traffic: a `cluster.JobSource` in burst mode
drops `burst_size` simultaneous submissions on the pending-event set,
a shape the fabric benches (steady clock ticks, balanced ping-pong)
never produce.  This bench runs the engine under that flood (the
events/s it prints is a one-shot shape reading; `benchmarks/e2e`'s
`cluster_backfill` workload measures speed) and pins the family's
headline model claim on the same workload: EASY backfill ends the
identical trace with strictly higher machine utilization than plain
FCFS.
"""

from repro.analysis import ResultTable
from repro.config import ConfigGraph, build

JOBS = 4_000
NODES = 32


def cluster_machine(policy: str, jobs: int = JOBS,
                    saturated: bool = False) -> object:
    """Burst shape floods the event queue (throughput bench); the
    ``saturated`` Poisson shape keeps a deep standing queue so packing
    quality — not arrival spacing — sets the makespan (policy bench)."""
    if saturated:
        arrivals = {"mode": "poisson", "mean_interarrival": "1.5ms"}
    else:
        arrivals = {"mode": "burst", "burst_size": 64,
                    "burst_gap": "180ms"}
    g = ConfigGraph(f"bench-cluster-{policy.split('.')[-1].lower()}")
    g.component("src", "cluster.JobSource",
                {"jobs": jobs, "mean_runtime": "20ms",
                 "max_nodes": 8, "window": 32, **arrivals})
    g.component("sched", "cluster.Scheduler",
                {"nodes": NODES, "policy": policy})
    g.component("pool", "cluster.NodePool", {"nodes": NODES})
    g.component("slo", "cluster.SLOStats", {"capacity": NODES})
    g.link("src", "out", "sched", "submit", latency="10ns")
    g.link("sched", "pool", "pool", "sched", latency="10ns")
    g.link("sched", "report", "slo", "report", latency="10ns")
    return build(g, seed=7)


def test_eng7_cluster_arrival_throughput(benchmark, report):
    """Sustained events/s of the full scheduling pipeline."""

    def run():
        sim = cluster_machine("cluster.EASYBackfill")
        return sim.run()

    result = benchmark(run)
    report(f"ENG-7 cluster arrivals: {result.events_executed} events, "
           f"{result.events_per_second:,.0f} events/s "
           f"({JOBS} jobs through source->scheduler->pool->slo)")
    assert result.reason == "exit"
    # arrival + launch + completion + report (+ sentinels) per job
    assert result.events_executed >= 4 * JOBS


def test_eng7_policy_utilization_ordering(benchmark, report, save_csv):
    """Backfill strictly beats FCFS on utilization for the bench trace."""

    def run_all():
        table = ResultTable(["policy", "utilization", "mean_wait_s",
                             "makespan_s", "backfilled"],
                            title="ENG-7 — policy ablation on one "
                                  "saturated Poisson trace")
        summaries = {}
        for policy in ("cluster.FCFS", "cluster.EASYBackfill",
                       "cluster.Priority"):
            sim = cluster_machine(policy, jobs=2_000, saturated=True)
            sim.run()
            slo = sim.component("slo").manifest_summary()
            summaries[policy] = slo
            stats = sim.stat_values()
            table.add_row(policy=policy.split(".")[-1],
                          utilization=round(slo["utilization"], 4),
                          mean_wait_s=round(slo["mean_wait_s"], 4),
                          makespan_s=round(slo["makespan_s"], 3),
                          backfilled=int(stats.get(
                              "sched.policy.backfilled", 0)))
        return table, summaries

    table, summaries = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report(table)
    save_csv(table, "eng7_cluster_policies")
    fcfs = summaries["cluster.FCFS"]
    easy = summaries["cluster.EASYBackfill"]
    assert easy["utilization"] > fcfs["utilization"], \
        "EASY backfill must strictly beat FCFS utilization on this trace"
    assert easy["makespan_s"] <= fcfs["makespan_s"]
    for slo in summaries.values():
        assert slo["jobs"] == 2_000
