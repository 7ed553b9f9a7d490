"""Run manifests: one machine-readable JSON document per engine run.

A manifest is the durable perf/provenance record of a simulation run —
what was simulated (config-graph hash, component/link counts, seed),
how (rank count, backend, partitioner, lookahead)
and what came out (stop reason, sim/wall time, events/sec, merged
sync metrics).  Every future optimization PR is measured against these
records, so the schema is versioned and append-only: add fields, never
repurpose them.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..core.parallel import ParallelSimulation
from ..core.simulation import Simulation

#: bump when a field changes meaning; adding fields does not bump it.
MANIFEST_SCHEMA = "repro-run-manifest/1"


def graph_hash(graph) -> str:
    """Stable short hash of a ConfigGraph's canonical JSON form.

    Two graphs hash equal iff their serialized descriptions match
    (component names/types/params, links, latencies, pins, weights) —
    the manifest's "what machine was this" fingerprint.
    """
    from ..config.serialize import to_dict

    blob = json.dumps(to_dict(graph), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def environment_info() -> Dict[str, Any]:
    """The execution environment block shared by manifests and bench records."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def _collect_summaries(sims) -> Dict[str, Any]:
    """Domain summaries from components exposing ``manifest_summary()``.

    Duck-typed so model libraries (e.g. ``cluster.SLOStats``) can put
    workload-level roll-ups — SLO metrics, utilization — into the run
    record without the manifest layer importing them.  Keyed by
    component name; a summary that raises is skipped rather than
    poisoning the manifest.
    """
    out: Dict[str, Any] = {}
    for sim in sims:
        for name, comp in sim.components.items():
            hook = getattr(comp, "manifest_summary", None)
            if not callable(hook):
                continue
            try:
                out[name] = hook()
            except Exception:  # pragma: no cover - defensive
                continue
    return out


def build_manifest(target: Union[Simulation, ParallelSimulation], result,
                   *, graph=None, invocation: Any = None,
                   extra: Optional[Dict[str, Any]] = None,
                   telemetry: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Assemble the run manifest for a finished run.

    Parameters
    ----------
    target:
        The :class:`Simulation` or :class:`ParallelSimulation` that ran.
    result:
        The matching :class:`RunResult` / :class:`ParallelRunResult`.
    graph:
        Optional :class:`ConfigGraph` the run was built from; adds the
        config hash and graph identity.
    invocation:
        Free-form record of how the run was requested (a CLI-args dict,
        an argv list, sweep-point parameters, ...); stored verbatim.
    extra:
        Caller extras merged in under ``"extra"``.
    telemetry:
        The owning recorder's stream inventory (backend, rank count,
        per-rank shard paths, harvested rank summaries); stored under
        ``"telemetry"`` so post-hoc tools can locate every artifact of
        the run from the manifest alone.
    """
    parallel = isinstance(target, ParallelSimulation)
    if parallel:
        sims = [target.rank_sim(r) for r in range(target.num_ranks)]
        engine: Dict[str, Any] = {
            "mode": "parallel",
            "ranks": target.num_ranks,
            "backend": target.backend,
            "seed": target.seed,
            "partitioner": target.partition_strategy,
            "lookahead_ps": target.lookahead,
            "cross_rank_links": target.cross_link_count,
            "sync": target.sync_strategy.describe(),
        }
        components = sum(len(sim.components) for sim in sims)
        links = sum(len(sim.links) for sim in sims) + target.cross_link_count
        sync = {name: stat.as_dict() for name, stat in target.sync_stats().items()}
    else:
        engine = {
            "mode": "sequential",
            "ranks": 1,
            "backend": None,
            "seed": target.seed,
            "partitioner": None,
            "lookahead_ps": None,
            "cross_rank_links": 0,
        }
        components = len(target.components)
        links = len(target.links)
        sync = {name: stat.as_dict() for name, stat in target.sync_stats().items()}

    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "created_unix": time.time(),
        "created_iso": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "environment": environment_info(),
        "engine": engine,
        "graph": {
            "name": graph.name if graph is not None else None,
            "hash": graph_hash(graph) if graph is not None else None,
            "components": components,
            "links": links,
        },
        "run": result.as_dict(),
        "sync": sync,
    }
    summary = _collect_summaries(sims if parallel else [target])
    if summary:
        manifest["summary"] = summary
    lineage = getattr(target, "checkpoint_lineage", None)
    written = [str(p) for p in getattr(target, "checkpoints_written", [])]
    if lineage or written:
        # Provenance of engine snapshots (repro.ckpt): where this run
        # was restored from, and which snapshots it produced.
        manifest["checkpoint"] = {
            "restored_from": dict(lineage) if lineage else None,
            "written": written,
        }
    if telemetry:
        manifest["telemetry"] = dict(telemetry)
    if invocation:
        manifest["invocation"] = (dict(invocation)
                                  if isinstance(invocation, dict)
                                  else list(invocation))
    if extra:
        manifest["extra"] = dict(extra)
    return manifest


def write_manifest(manifest: Dict[str, Any], path: Union[str, Path]) -> Path:
    """Write a manifest as pretty JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=False) + "\n",
                    encoding="utf-8")
    return path


def append_json_record(path: Union[str, Path], record: Dict[str, Any]) -> Path:
    """Append ``record`` to the JSON list stored at ``path``.

    The file holds a plain JSON array so it stays loadable with one
    ``json.load``; a corrupt or non-list file is preserved under
    ``<path>.corrupt`` rather than silently overwritten.
    """
    path = Path(path)
    records = []
    if path.exists():
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(loaded, list):
                records = loaded
            else:
                path.rename(path.with_suffix(path.suffix + ".corrupt"))
        except (ValueError, OSError):
            try:
                path.rename(path.with_suffix(path.suffix + ".corrupt"))
            except OSError:
                pass
    records.append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
    tmp.replace(path)
    return path
