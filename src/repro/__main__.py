"""PySST command-line interface.

``python -m repro <subcommand>``:

* ``run <config.json>``     — load a serialized ConfigGraph and simulate
  it (sequentially or partitioned across ranks), printing statistics.
* ``info <config.json>``    — summarize a machine description without
  running it.
* ``topo``                  — generate a topology config (torus,
  fattree, dragonfly, crossbar) and write it as JSON, ready to be
  decorated with endpoints.
* ``sweep``                 — run the paper's design-space study
  (workload x issue width x memory technology) on a job pool, with
  optional per-point result caching.
* ``obs``                   — telemetry tools: merge per-rank streams
  into one Perfetto trace (``obs merge``), diagnose sync/load
  imbalance (``obs imbalance``), summarize a run's artifacts
  (``obs report``), or attach a live console view to a *running*
  simulation (``obs top``; pairs with ``run --serve-metrics``).
* ``ckpt``                  — engine snapshots (``repro.ckpt``):
  inspect a snapshot directory (``ckpt info``) or resume a run from
  one (``ckpt resume``), optionally on a different backend or rank
  count.

Examples::

    python -m repro topo --kind torus --dims 4x4x2 --locals 2 -o net.json
    python -m repro info net.json
    python -m repro run machine.json --max-time 1ms --ranks 4 --strategy bfs
    python -m repro run machine.json --ranks 4 --backend processes
    python -m repro sweep --workloads hpccg --backend processes --jobs 4
    python -m repro run net.json --ranks 4 --backend processes --metrics m.jsonl
    python -m repro obs merge m.jsonl && python -m repro obs imbalance m.jsonl
    python -m repro run machine.json --checkpoint-every 10us \
        --checkpoint-dir ckpts --max-time 25us
    python -m repro ckpt info ckpts/ckpt-0001
    python -m repro ckpt resume ckpts/ckpt-0001 --stats-json final.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import config as cfg
from .config import build, build_parallel, load, save
from .config.graph import ConfigError, ConfigGraph
from .core.registry import RegistryError


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _make_observability(args: argparse.Namespace, target):
    """Attach the repro.obs instruments requested on the command line.

    Returns ``(telemetry, profiler, chrome, progress, causal)`` — any
    of which may be None — already attached to ``target``.
    """
    telemetry = profiler = chrome = progress = causal = None
    if args.metrics:
        from .obs import TelemetryRecorder

        telemetry = TelemetryRecorder(args.metrics, args.manifest)
        telemetry.attach(target)
    if args.profile:
        from .obs import HandlerProfiler

        profiler = HandlerProfiler(target, sample_every=args.profile_sample)
    if args.trace_chrome:
        from .obs import ChromeTraceExporter

        chrome = ChromeTraceExporter(args.trace_chrome)
        chrome.attach(target)
    if args.progress:
        from .obs import ProgressReporter

        progress = ProgressReporter(max_time=args.max_time)
        progress.attach(target)
    if args.trace_causal:
        from .obs import CausalCapture

        # Shards sit next to the metrics stream when there is one, so
        # `obs critpath <metrics>` and `obs merge --flows` find them.
        causal = CausalCapture(args.metrics or args.config)
        causal.attach(target)
    return telemetry, profiler, chrome, progress, causal


def _make_live(args: argparse.Namespace, target, telemetry):
    """Attach the live plane (repro.obs.live) when the run asked for it.

    Returns ``(live, server, watchdog)``, all None when neither
    ``--serve-metrics``, ``--live-segment`` nor ``--watchdog`` was given.
    """
    if not (args.serve_metrics or args.live_segment
            or args.watchdog is not None):
        return None, None, None
    from .core import units
    from .obs.live import (LiveMetrics, MetricsServer, StallWatchdog,
                           default_segment_path, make_run_render)

    if args.live_segment:
        seg = args.live_segment
    elif args.metrics:
        seg = str(default_segment_path(args.metrics))
    else:
        seg = args.config + ".live"
    limit_ps = (units.parse_time(args.max_time, default_unit="ps")
                if args.max_time else 0)
    live = LiveMetrics(seg, watchdog_dumps=args.watchdog is not None,
                       limit_ps=limit_ps or 0)
    live.attach(target)
    print(f"live segment -> {seg}")
    server = None
    if args.serve_metrics:
        server = MetricsServer(args.serve_metrics, make_run_render(seg))
        server.start()
        print(f"serving metrics on {server.url}/metrics "
              f"(status: {server.url}/status)")
    watchdog = None
    if args.watchdog is not None:
        watchdog = StallWatchdog(seg, threshold_s=args.watchdog,
                                 abort=args.watchdog_abort,
                                 telemetry=telemetry, target=target)
        watchdog.start()
    return live, server, watchdog


def _finish_live(live, server, watchdog, result) -> None:
    if watchdog is not None:
        watchdog.stop()
    if live is not None:
        live.finalize(result)
    if server is not None:
        server.stop()


def _run_with_live(args, target, telemetry, run_fn):
    """Run ``run_fn()`` under the live plane; returns (result, exit_code).

    A watchdog abort surfaces as a clean error (exit 1) instead of a
    traceback; any other exception tears the live plane down and
    propagates.
    """
    live, server, watchdog = _make_live(args, target, telemetry)
    try:
        result = run_fn()
    except BaseException as exc:
        if watchdog is not None and watchdog.stalls:
            _finish_live(live, server, watchdog, None)
            stall = watchdog.stalls[-1]
            print(f"error: run aborted after rank {stall['rank']} stalled "
                  f"({stall['progress_age_s']:.1f}s without progress): "
                  f"{exc}", file=sys.stderr)
            return None, 1
        _finish_live(live, server, watchdog, None)
        raise
    _finish_live(live, server, watchdog, result)
    return result, 0


def _finish_observability(args, result, graph, telemetry, profiler, chrome,
                          progress, causal=None) -> None:
    if progress is not None:
        progress.detach()
    if causal is not None:
        causal.close()
        shards = causal.shard_paths()
        print(f"causal shards -> {causal.base}.causal.rank* "
              f"({len(shards)} shard(s); analyze with "
              f"'python -m repro obs critpath {causal.base}')")
    if telemetry is not None:
        invocation = {
            "argv": ["run", args.config],
            "max_time": args.max_time,
            "ranks": args.ranks,
            "strategy": args.strategy,
            "backend": args.backend,
            "seed": args.seed,
        }
        telemetry.finalize(result, graph=graph, invocation=invocation)
        print(f"metrics -> {args.metrics}"
              + (f"; manifest -> {telemetry.manifest_path}"
                 if telemetry.manifest_path else ""))
    if chrome is not None:
        chrome.close()
        print(f"chrome trace -> {args.trace_chrome} "
              f"({len(chrome.events)} events; load in Perfetto)")
    if profiler is not None:
        profiler.detach()
        print(f"profile (hottest component: {profiler.hottest_component()}):")
        print(profiler.report(top=args.profile_top))


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        return _cmd_run_impl(args)
    except (ConfigError, RegistryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_run_impl(args: argparse.Namespace) -> int:
    graph = load(args.config)
    warnings = graph.validate(resolve_types=True)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    ckpt_kwargs = {}
    if args.checkpoint_every:
        ckpt_kwargs = {"checkpoint_every": args.checkpoint_every,
                       "checkpoint_dir": args.checkpoint_dir}
    if args.ranks > 1:
        psim = build_parallel(graph, args.ranks, strategy=args.strategy,
                              seed=args.seed, backend=args.backend)
        instruments = _make_observability(args, psim)
        result, code = _run_with_live(
            args, psim, instruments[0],
            lambda: psim.run(max_time=args.max_time, **ckpt_kwargs))
        if result is None:
            return code
        _finish_observability(args, result, graph, *instruments)
        print(f"parallel run: {result.reason} at {result.end_time} ps; "
              f"{result.events_executed} events "
              f"({result.events_per_second:,.0f} events/s) "
              f"over {result.epochs} epochs "
              f"({result.remote_events} crossed ranks, "
              f"lookahead {result.lookahead} ps, "
              f"barrier wait {result.barrier_wait_seconds:.3f}s)")
        for path in psim.checkpoints_written:
            print(f"checkpoint -> {path}")
        values = psim.stat_values()
        if args.stats:
            for key, stat in sorted(psim.sync_stats().items()):
                print(f"_engine.{key}: {stat.value():.6g}")
    else:
        sim = build(graph, seed=args.seed)
        trace_log = None
        if args.trace:
            from .core.tracelog import EventTraceLog

            trace_log = EventTraceLog(sim, args.trace,
                                      component_filter=args.trace_filter)
        instruments = _make_observability(args, sim)
        result, code = _run_with_live(
            args, sim, instruments[0],
            lambda: sim.run(max_time=args.max_time, **ckpt_kwargs))
        if result is None:
            return code
        _finish_observability(args, result, graph, *instruments)
        if trace_log is not None:
            trace_log.detach()
            truncated = (f" (truncated: {trace_log.matched_events} matched, "
                         f"{trace_log.records_written} recorded)"
                         if trace_log.truncated else "")
            print(f"trace: {trace_log.matched_events} events "
                  f"(of {trace_log.total_events}) -> {args.trace}{truncated}")
        print(f"run: {result.reason} at {result.end_time} ps; "
              f"{result.events_executed} events "
              f"({result.events_per_second:,.0f} events/s)")
        for path in sim.checkpoints_written:
            print(f"checkpoint -> {path}")
        values = sim.stat_values()
        if args.stats:
            print(sim.stat_table())
    if args.stats_csv:
        from .analysis import ResultTable

        table = ResultTable(["statistic", "value"])
        for key in sorted(values):
            table.add_row(statistic=key, value=values[key])
        table.to_csv(args.stats_csv)
        print(f"statistics written to {args.stats_csv}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .dse import (PAPER_TECHNOLOGIES, PAPER_WIDTHS, PAPER_WORKLOADS,
                      sweep)

    workloads = args.workloads or list(PAPER_WORKLOADS)
    widths = args.widths or list(PAPER_WIDTHS)
    technologies = args.technologies or list(PAPER_TECHNOLOGIES)
    live_path = args.live_segment
    if args.serve_metrics and not live_path:
        live_path = "sweep.live"
    server = None
    if args.serve_metrics:
        from .obs.live import MetricsServer, make_sweep_render

        server = MetricsServer(args.serve_metrics,
                               make_sweep_render(live_path))
        server.start()
        print(f"serving fleet status on {server.url}/status "
              f"(metrics: {server.url}/metrics)")
    if live_path:
        print(f"sweep live segment -> {live_path}")
    try:
        result = sweep(workloads, widths, technologies,
                       backend=args.backend, jobs=args.jobs,
                       cache_dir=args.cache_dir,
                       instructions=args.instructions, seed=args.seed,
                       live_path=live_path)
    finally:
        if server is not None:
            server.stop()
    print(f"{len(result.points)} design points "
          f"({len(workloads)} workloads x {len(widths)} widths x "
          f"{len(technologies)} technologies)")
    header = (f"{'point':<28} {'runtime_ms':>10} {'power_w':>8} "
              f"{'perf/W':>12} {'perf/$':>12}")
    print(header)
    for (wl, w, tech), p in result.points.items():
        print(f"{wl + '/w' + str(w) + '/' + tech:<28} "
              f"{p.runtime_ps / 1e9:>10.3f} {p.total_power_w:>8.2f} "
              f"{p.perf_per_watt:>12.3e} {p.perf_per_dollar:>12.3e}")
    for wl in workloads:
        best = result.best("perf_per_watt", workload=wl)
        print(f"best perf/W for {wl}: {best.name}")
    if args.output:
        import dataclasses as _dc
        import json as _json

        payload = [dict(workload=wl, issue_width=w, technology=tech,
                        **_dc.asdict(p))
                   for (wl, w, tech), p in result.points.items()]
        with open(args.output, "w", encoding="utf-8") as fh:
            _json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"design points written to {args.output}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    graph = load(args.config)
    print(graph.summary())
    latency = graph.min_latency()
    if latency is not None:
        print(f"minimum link latency: {latency} ps "
              "(= conservative lookahead ceiling)")
    warnings = graph.validate()
    for warning in warnings:
        print(f"warning: {warning}")
    return 0


def _cmd_topo(args: argparse.Namespace) -> int:
    from .config.topology import (build_crossbar, build_dragonfly,
                                  build_fat_tree, build_torus)

    graph = ConfigGraph(args.name)
    if args.kind == "torus":
        dims = tuple(int(d) for d in args.dims.split("x"))
        topo = build_torus(graph, dims, locals_per_router=args.locals)
    elif args.kind == "fattree":
        topo = build_fat_tree(graph, leaves=args.leaves,
                              down_ports=args.locals, spines=args.spines)
    elif args.kind == "dragonfly":
        topo = build_dragonfly(graph, groups=args.groups,
                               routers_per_group=args.routers,
                               global_per_router=args.globals_,
                               locals_per_router=args.locals)
    elif args.kind == "crossbar":
        topo = build_crossbar(graph, args.ports)
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.kind)
    save(graph, args.output)
    print(f"{topo.kind}: {len(topo.router_names)} routers, "
          f"{topo.num_endpoints} endpoints, {graph.num_links()} links "
          f"-> {args.output}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from .obs.merge import RunArtifacts, merge_to_file, merge_trace

    if args.obs_command == "top":
        from .obs.live import SegmentError, run_top

        try:
            return run_top(args.target, interval_s=args.interval,
                           frames=args.frames, once=args.once)
        except (SegmentError, FileNotFoundError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    if args.obs_command == "merge":
        try:
            out = merge_to_file(args.metrics, args.output, flows=args.flows)
            artifacts = RunArtifacts(args.metrics)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot merge {args.metrics}: {exc}",
                  file=sys.stderr)
            return 1
        spans = sum(1 for records in artifacts.rank_records.values()
                    for r in records if r.get("kind") == "span")
        print(f"merged trace -> {out} "
              f"({artifacts.num_ranks} rank lanes + sync lane, "
              f"{len(artifacts.epochs)} epochs, "
              f"{len(artifacts.shards)} shards, {spans} handler spans; "
              f"load in Perfetto)")
        return 0

    if args.obs_command == "critpath":
        from .obs.critpath import CausalAnalysisError, analyze

        try:
            path = analyze(args.metrics, component=args.component)
        except (CausalAnalysisError, OSError, ValueError, KeyError) as exc:
            print(f"error: cannot analyze causal shards for "
                  f"{args.metrics}: {exc}", file=sys.stderr)
            return 1
        print(path.render(top=args.top))
        if args.json:
            import json as _json

            with open(args.json, "w", encoding="utf-8") as fh:
                _json.dump(path.as_dict(), fh, indent=2)
            print(f"critical-path report -> {args.json}")
        return 0

    if args.obs_command == "imbalance":
        from .obs.imbalance import analyze_artifacts

        try:
            report = analyze_artifacts(RunArtifacts(args.metrics))
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot analyze {args.metrics}: {exc}",
                  file=sys.stderr)
            return 1
        print(report.report(top=args.top))
        if args.json:
            import json as _json

            with open(args.json, "w", encoding="utf-8") as fh:
                _json.dump(report.as_dict(), fh, indent=2)
            print(f"imbalance report -> {args.json}")
        return 0

    if args.obs_command == "partition-advise":
        from .obs.advise import AdviseError, advise_to_file

        try:
            advice, out = advise_to_file(
                args.metrics, args.config, args.output,
                num_ranks=args.ranks, original_strategy=args.original_strategy,
                strategy=args.strategy)
        except (AdviseError, ConfigError, OSError, ValueError,
                KeyError) as exc:
            print(f"error: cannot advise on {args.metrics}: {exc}",
                  file=sys.stderr)
            return 1
        print(advice.report())
        print(f"advised assignment -> {out} "
              f"(resume with 'ckpt resume <snapshot> --assignment {out}')")
        return 0

    if args.obs_command == "report":
        from .obs.imbalance import analyze_artifacts

        try:
            artifacts = RunArtifacts(args.metrics)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot read {args.metrics}: {exc}",
                  file=sys.stderr)
            return 1
        start = artifacts.run_start
        end = artifacts.run_end or {}
        run = end.get("run", {})
        print(f"metrics stream: {artifacts.metrics_path} "
              f"({len(artifacts.main)} parent records)")
        print(f"backend: {artifacts.backend}  ranks: {artifacts.num_ranks}  "
              f"mode: {start.get('mode', '?')}  "
              f"schema: {start.get('schema', '?')}")
        sync = artifacts.sync_info
        if sync:
            print(f"sync: {sync.get('strategy')} "
                  f"(lookahead {sync.get('lookahead_ps')} ps)")
        if run:
            events = run.get("events_executed", 0)
            wall = run.get("wall_seconds") or 0
            rate = events / wall if wall else 0.0
            print(f"run: {run.get('reason')} at {run.get('end_time_ps')} ps; "
                  f"{events} events in {wall:.3f}s ({rate:,.0f} events/s)")
        if artifacts.shards:
            print("rank shards:")
            for rank, shard in sorted(artifacts.shards.items()):
                count = len(artifacts.rank_records.get(rank, []))
                print(f"  rank {rank}: {shard} ({count} records)")
        elif artifacts.rank_records:
            inline = sum(len(v) for v in artifacts.rank_records.values())
            print(f"rank records: {inline} (inline, shipped over pipes)")
        epochs = artifacts.epochs
        if epochs:
            report = analyze_artifacts(artifacts)
            critical = report.critical_rank
            print(f"epochs: {len(epochs)}  "
                  f"imbalance factor: {report.imbalance_factor:.3f}  "
                  f"events skew: {report.events_skew:.3f}"
                  + (f"  critical rank: {critical.rank}" if critical else ""))
        manifest_path = artifacts.metrics_path.with_name(
            artifacts.metrics_path.name + ".manifest.json")
        if manifest_path.exists():
            import json as _json

            print(f"manifest: {manifest_path}")
            try:
                with open(manifest_path, encoding="utf-8") as fh:
                    manifest = _json.load(fh)
            except (OSError, ValueError) as exc:
                print(f"error: malformed manifest {manifest_path}: {exc}",
                      file=sys.stderr)
                return 1
            ckpt = manifest.get("checkpoint") or {}
            restored = ckpt.get("restored_from")
            if restored:
                print(f"checkpoint lineage: restored from "
                      f"{restored.get('snapshot', '?')} at "
                      f"{restored.get('sim_time_ps', '?')} ps "
                      f"({restored.get('mode', '?')} restore)")
            written = ckpt.get("written") or []
            if written:
                print(f"snapshots written: {len(written)}")
                for path in written:
                    print(f"  {path}")
            live_seg = (manifest.get("telemetry") or {}).get("live_segment")
            if live_seg:
                print(f"live segment: {live_seg}")
        return 0

    raise AssertionError(args.obs_command)  # pragma: no cover


def _cmd_ckpt(args: argparse.Namespace) -> int:
    import json as _json

    from .ckpt import CheckpointError, restore, snapshot_info

    if args.ckpt_command == "info":
        try:
            info = snapshot_info(args.snapshot, verify=not args.no_verify)
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(_json.dumps(info, indent=2, sort_keys=True))
        return 0 if info.get("intact", True) else 1

    if args.ckpt_command == "resume":
        assignment = None
        if args.assignment:
            try:
                with open(args.assignment, encoding="utf-8") as fh:
                    payload = _json.load(fh)
            except (OSError, ValueError) as exc:
                print(f"error: cannot read assignment {args.assignment}: "
                      f"{exc}", file=sys.stderr)
                return 1
            # Accept both the partition-advise advice document and a
            # bare {component: rank} map.
            assignment = payload.get("assignment") \
                if isinstance(payload, dict) and "assignment" in payload \
                else payload
            if not isinstance(assignment, dict) or not assignment:
                print(f"error: {args.assignment} holds no assignment map",
                      file=sys.stderr)
                return 1
        try:
            sim = restore(args.snapshot, backend=args.backend,
                          ranks=args.ranks, assignment=assignment)
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        ckpt_kwargs = {}
        if args.checkpoint_every:
            ckpt_kwargs = {"checkpoint_every": args.checkpoint_every,
                           "checkpoint_dir": args.checkpoint_dir}
        result = sim.run(max_time=args.max_time, **ckpt_kwargs)
        lineage = sim.checkpoint_lineage or {}
        print(f"resumed {args.snapshot} "
              f"(snapshot at {lineage.get('sim_time_ps', '?')} ps, "
              f"{lineage.get('mode', '?')} restore): "
              f"{result.reason} at {result.end_time} ps; "
              f"{result.events_executed} events")
        for path in sim.checkpoints_written:
            print(f"checkpoint -> {path}")
        values = sim.stat_values()
        if args.stats:
            for key in sorted(values):
                print(f"{key}: {values[key]:.6g}")
        if args.stats_json:
            payload = {
                "reason": result.reason,
                "end_time_ps": result.end_time,
                "stats": {key: values[key] for key in sorted(values)},
            }
            with open(args.stats_json, "w", encoding="utf-8") as fh:
                _json.dump(payload, fh, indent=2, sort_keys=True)
            print(f"final stats -> {args.stats_json}")
        close = getattr(sim, "close", None)
        if close is not None:
            close()
        return 0

    raise AssertionError(args.ckpt_command)  # pragma: no cover


def _cmd_component(args: argparse.Namespace) -> int:
    import json as _json

    from .core.describe import describe_component
    from .core.registry import (RegistryError, load_all_libraries,
                                registered_types, resolve)

    if args.component_command == "list":
        load_all_libraries()
        for type_name in registered_types():
            cls = resolve(type_name)
            summary = (cls.__doc__ or "").strip().split("\n")[0]
            if args.json:
                print(_json.dumps({"type": type_name, "summary": summary}))
            else:
                print(f"{type_name:32s} {summary}")
        return 0

    if args.component_command == "describe":
        try:
            cls = resolve(args.type)
        except RegistryError:
            # One line, no traceback, no registry dump — the catalogue
            # is a `component list` away.
            print(f"error: unknown component type {args.type!r} "
                  f"(run 'python -m repro component list' for the "
                  f"catalogue)", file=sys.stderr)
            return 1
        info = describe_component(cls)
        if args.json:
            print(_json.dumps(info, indent=2, sort_keys=True))
            return 0
        print(f"{info['type_name'] or info['class']}: {info['summary']}")
        if info["ports"]:
            print("ports:")
            for spec in info["ports"]:
                flags = "required" if spec["required"] else "optional"
                event = f" event={spec['event']}" if spec["event"] else ""
                print(f"  {spec['name']:20s} {flags}{event}  {spec['doc']}")
        if info["slots"]:
            print("slots:")
            for spec in info["slots"]:
                choices = (f" choices={','.join(spec['choices'])}"
                           if spec["choices"] else "")
                default = (f" default={spec['default']}"
                           if spec["default"] else "")
                print(f"  {spec['name']:20s} base={spec['base']}"
                      f"{default}{choices}  {spec['doc']}")
        if info["params"]:
            print("params:")
            for spec in info["params"]:
                choices = (f" choices={','.join(map(str, spec['choices']))}"
                           if spec["choices"] else "")
                print(f"  {spec['name']:20s} {spec['kind']:8s} "
                      f"default={spec['default']!r}{choices}  {spec['doc']}")
        if info["legacy_ports"]:
            print("legacy ports (undeclared):")
            for name, doc in sorted(info["legacy_ports"].items()):
                print(f"  {name:20s} {doc}")
        if info["state"]:
            print("state:")
            for spec in info["state"]:
                marks = []
                if not spec["save"]:
                    marks.append("transient")
                if spec["reconstruct"]:
                    marks.append(f"reconstruct={spec['reconstruct']}")
                if spec["gauge"]:
                    marks.append("gauge")
                suffix = f" [{', '.join(marks)}]" if marks else ""
                print(f"  {spec['name']:20s} {spec['doc']}{suffix}")
        if info["stats"]:
            print("statistics:")
            for spec in info["stats"]:
                print(f"  {spec['name']:20s} {spec['kind']:12s} {spec['doc']}")
        return 0

    raise AssertionError(args.component_command)  # pragma: no cover


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro",
                                     description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a serialized ConfigGraph")
    run.add_argument("config")
    run.add_argument("--max-time", default=None,
                     help='simulated-time limit, e.g. "1ms"')
    run.add_argument("--ranks", type=int, default=1,
                     help="parallel simulation ranks (1 = sequential)")
    run.add_argument("--strategy", default="linear",
                     choices=["linear", "round_robin", "bfs", "kl"])
    run.add_argument("--backend", default="serial",
                     choices=["serial", "processes"],
                     help="execution substrate for --ranks > 1 "
                          "(processes = rank 0 here, one forked worker "
                          "per other rank)")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--stats", action="store_true",
                     help="print the full statistics table")
    run.add_argument("--stats-csv", default=None,
                     help="write statistic values to a CSV file")
    run.add_argument("--trace", default=None,
                     help="write a per-event trace log to this file "
                          "(sequential runs only)")
    run.add_argument("--trace-filter", default="*",
                     help="glob on component/port names for --trace")
    run.add_argument("--metrics", default=None,
                     help="write a JSONL telemetry stream to this file "
                          "(a run manifest lands next to it)")
    run.add_argument("--manifest", default=None,
                     help="run-manifest JSON path (default: "
                          "<metrics>.manifest.json when --metrics is set)")
    run.add_argument("--profile", action="store_true",
                     help="profile wall-time per component/handler/event "
                          "type and print the hot-components table")
    run.add_argument("--profile-top", type=_positive_int, default=15,
                     help="rows to show in the profile table")
    run.add_argument("--profile-sample", type=_positive_int, default=1,
                     help="time every Nth event (1 = all)")
    run.add_argument("--trace-chrome", default=None,
                     help="export handler spans + rank epochs as a "
                          "Chrome/Perfetto trace-event JSON file")
    run.add_argument("--progress", action="store_true",
                     help="print periodic progress/ETA lines to stderr")
    run.add_argument("--trace-causal", action="store_true",
                     help="capture event provenance into per-rank "
                          "causal shards (<metrics>.causal.rank<k>); "
                          "analyze with 'obs critpath' or render "
                          "cross-rank arrows with 'obs merge --flows'")
    run.add_argument("--checkpoint-every", default=None,
                     help='snapshot the engine every interval of '
                          'simulated time, e.g. "10us" (repro.ckpt)')
    run.add_argument("--checkpoint-dir", default="checkpoints",
                     help="directory receiving ckpt-NNNN snapshot "
                          "subdirectories (default: checkpoints)")
    run.add_argument("--serve-metrics", default=None, metavar="[HOST]:PORT",
                     help="serve live run metrics over HTTP: OpenMetrics "
                          "at /metrics, JSON at /status (repro.obs.live)")
    run.add_argument("--live-segment", default=None,
                     help="live shared-memory segment path (default: "
                          "<metrics>.live, or <config>.live without "
                          "--metrics); readable with 'obs top' while the "
                          "run is in flight")
    run.add_argument("--watchdog", type=float, default=None, metavar="SECONDS",
                     help="flag ranks making no progress for this many "
                          "seconds; hung processes-backend workers get a "
                          "stack dump via faulthandler")
    run.add_argument("--watchdog-abort", action="store_true",
                     help="terminate a stalled rank after dumping its "
                          "stack (the run fails with diagnostics)")
    run.set_defaults(func=_cmd_run)

    swp = sub.add_parser("sweep", help="run the design-space study")
    swp.add_argument("--workloads", nargs="+", default=None,
                     help="miniapp workloads (default: the paper's pair)")
    swp.add_argument("--widths", nargs="+", type=int, default=None,
                     help="issue widths (default: 1 2 4 8)")
    swp.add_argument("--technologies", nargs="+", default=None,
                     help="memory technologies (default: the paper's trio)")
    swp.add_argument("--instructions", type=_positive_int, default=2_000_000,
                     help="instructions simulated per design point")
    swp.add_argument("--seed", type=int, default=1)
    swp.add_argument("--backend", default="serial",
                     choices=["serial", "processes"],
                     help="job-pool substrate for evaluating points")
    swp.add_argument("--jobs", type=_positive_int, default=None,
                     help="pool width (default: usable CPU count)")
    swp.add_argument("--cache-dir", default=None,
                     help="cache per-point results here, keyed by the "
                          "config-graph hash (reruns load instead of "
                          "simulating)")
    swp.add_argument("-o", "--output", default=None,
                     help="write the design-point grid to a JSON file")
    swp.add_argument("--serve-metrics", default=None, metavar="[HOST]:PORT",
                     help="serve fleet-wide point status and ETA over "
                          "HTTP while the sweep runs")
    swp.add_argument("--live-segment", default=None,
                     help="sweep live segment path (default: sweep.live "
                          "when --serve-metrics is set)")
    swp.set_defaults(func=_cmd_sweep)

    info = sub.add_parser("info", help="summarize a machine description")
    info.add_argument("config")
    info.set_defaults(func=_cmd_info)

    topo = sub.add_parser("topo", help="generate a topology config")
    topo.add_argument("--kind", required=True,
                      choices=["torus", "fattree", "dragonfly", "crossbar"])
    topo.add_argument("--name", default="machine")
    topo.add_argument("-o", "--output", default="topology.json")
    topo.add_argument("--dims", default="4x4", help="torus: e.g. 4x4x4")
    topo.add_argument("--locals", type=int, default=2,
                      help="endpoints per router / leaf down-ports")
    topo.add_argument("--leaves", type=int, default=4)
    topo.add_argument("--spines", type=int, default=2)
    topo.add_argument("--groups", type=int, default=5)
    topo.add_argument("--routers", type=int, default=2)
    topo.add_argument("--globals", dest="globals_", type=int, default=2)
    topo.add_argument("--ports", type=int, default=8, help="crossbar ports")
    topo.set_defaults(func=_cmd_topo)

    obs = sub.add_parser("obs", help="post-hoc telemetry tools for "
                                     "recorded runs (--metrics streams)")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    merge = obs_sub.add_parser(
        "merge", help="merge per-rank telemetry shards into one "
                      "Perfetto trace (rank lanes + sync lane)")
    merge.add_argument("metrics", help="the run's JSONL metrics stream; "
                                       "rank shards are found next to it")
    merge.add_argument("-o", "--output", default=None,
                       help="merged trace path "
                            "(default: <metrics>.trace.json)")
    merge.add_argument("--flows", action="store_true",
                       help="draw cross-rank causal edges as Perfetto "
                            "flow arrows (needs a --trace-causal run)")
    merge.set_defaults(func=_cmd_obs)
    crit = obs_sub.add_parser(
        "critpath", help="walk the causal shards backward from run end "
                         "and report the simulated critical path, "
                         "latency attribution and cut edges")
    crit.add_argument("metrics", help="the base the causal shards sit "
                                      "next to (the run's --metrics "
                                      "path, or its config path when "
                                      "run without --metrics)")
    crit.add_argument("--component", default=None,
                      help="anchor the walk at this component's latest "
                           "event instead of the run end")
    crit.add_argument("--top", type=_positive_int, default=40,
                      help="path events to print (the newest; "
                           "default: 40)")
    crit.add_argument("--json", default=None,
                      help="also write the full report as JSON here "
                           "(path, by_class, cut_edges)")
    crit.set_defaults(func=_cmd_obs)
    imb = obs_sub.add_parser(
        "imbalance", help="diagnose sync/load imbalance: straggler "
                          "attribution, busy vs barrier, events skew")
    imb.add_argument("metrics")
    imb.add_argument("--top", type=_positive_int, default=5,
                     help="worst epochs to list")
    imb.add_argument("--json", default=None,
                     help="also write the full report as JSON here")
    imb.set_defaults(func=_cmd_obs)
    rep = obs_sub.add_parser(
        "report", help="summarize a recorded run's artifacts")
    rep.add_argument("metrics")
    rep.set_defaults(func=_cmd_obs)
    adv = obs_sub.add_parser(
        "partition-advise",
        help="fold a recorded run's straggler attribution and cut-edge "
             "traffic into a profile-guided repartition; writes an "
             "assignment JSON for 'ckpt resume --assignment'")
    adv.add_argument("metrics", help="the run's JSONL metrics stream")
    adv.add_argument("--config", required=True,
                     help="the serialized ConfigGraph the run was built "
                          "from (same file passed to 'run')")
    adv.add_argument("-o", "--output", default=None,
                     help="advice JSON path "
                          "(default: <metrics>.advice.json)")
    adv.add_argument("--ranks", type=int, default=None,
                     help="target rank count (default: the run's)")
    adv.add_argument("--strategy", default="kl",
                     choices=["linear", "round_robin", "bfs", "kl"],
                     help="partition strategy for the advised split "
                          "(default: kl, the refining one)")
    adv.add_argument("--original-strategy", default=None,
                     choices=["linear", "round_robin", "bfs", "kl"],
                     help="strategy the recorded run used (default: "
                          "from the run manifest)")
    adv.set_defaults(func=_cmd_obs)
    top = obs_sub.add_parser(
        "top", help="live console view of a running simulation "
                    "(attaches read-only to its .live segment)")
    top.add_argument("target",
                     help="segment file, metrics path, or run directory "
                          "(newest *.live inside is used)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="refresh period in seconds (default: 2)")
    top.add_argument("--once", action="store_true",
                     help="print one frame and exit (for scripting)")
    top.add_argument("--frames", type=_positive_int, default=None,
                     help="exit after this many frames")
    top.set_defaults(func=_cmd_obs)

    comp = sub.add_parser("component", help="inspect the component "
                                            "catalogue (declared ports, "
                                            "state, statistics)")
    comp_sub = comp.add_subparsers(dest="component_command", required=True)
    clist = comp_sub.add_parser(
        "list", help="list every registered component type")
    clist.add_argument("--json", action="store_true",
                       help="one JSON object per line")
    clist.set_defaults(func=_cmd_component)
    cdesc = comp_sub.add_parser(
        "describe", help="show a component's declared ports, state, "
                         "statistics and lifecycle hooks")
    cdesc.add_argument("type", help='registered type name, e.g. '
                                    '"memory.Cache"')
    cdesc.add_argument("--json", action="store_true",
                       help="machine-readable description")
    cdesc.set_defaults(func=_cmd_component)

    ckpt = sub.add_parser("ckpt", help="inspect or resume engine "
                                       "snapshots (repro.ckpt)")
    ckpt_sub = ckpt.add_subparsers(dest="ckpt_command", required=True)
    cinfo = ckpt_sub.add_parser(
        "info", help="print a snapshot's manifest summary as JSON "
                     "(verifies shard checksums unless --no-verify)")
    cinfo.add_argument("snapshot", help="snapshot directory (ckpt-NNNN)")
    cinfo.add_argument("--no-verify", action="store_true",
                       help="skip shard checksum verification")
    cinfo.set_defaults(func=_cmd_ckpt)
    cres = ckpt_sub.add_parser(
        "resume", help="restore a snapshot and run it to completion; "
                       "same rank count resumes bit-identically, a "
                       "different --ranks/--backend repartitions")
    cres.add_argument("snapshot", help="snapshot directory (ckpt-NNNN)")
    cres.add_argument("--max-time", default=None,
                      help='simulated-time limit, e.g. "1ms"')
    cres.add_argument("--ranks", type=int, default=None,
                      help="restore onto this many ranks (default: the "
                           "snapshot's own layout)")
    cres.add_argument("--backend", default=None,
                      choices=["serial", "processes"],
                      help="execution substrate (default: the "
                           "snapshot's)")
    cres.add_argument("--assignment", default=None,
                      help="component->rank assignment JSON (a "
                           "partition-advise advice file or a bare map); "
                           "forces a pinned repartition restore")
    cres.add_argument("--stats", action="store_true",
                      help="print final statistic values")
    cres.add_argument("--stats-json", default=None,
                      help="write {reason, end_time_ps, stats} JSON "
                           "here (for scripted comparison)")
    cres.add_argument("--checkpoint-every", default=None,
                      help="keep snapshotting the resumed run at this "
                           "interval")
    cres.add_argument("--checkpoint-dir", default="checkpoints",
                      help="directory for further snapshots")
    cres.set_defaults(func=_cmd_ckpt)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
