"""Snapshot writing: the ``repro-ckpt/8`` on-disk format.

A snapshot is a directory::

    ckpt-0003/
        MANIFEST.json     # plain JSON: graph, layout, checksums
        shard-0000.pkl    # pickled per-rank engine state (ckpt.state)
        shard-0001.pkl
        parallel.pkl      # parallel runs only: pending cross-rank
                          # sends + parent-side engine counters

Write protocol: shards first (each through a tmp file and an atomic
``rename``), the manifest last — the manifest *is* the commit point, so
a crash mid-snapshot leaves either a previous complete snapshot or a
directory that :func:`snapshot_info` and :func:`repro.ckpt.restore`
reject as uncommitted.  Every payload file carries its SHA-256 in the
manifest and is verified before unpickling.

The manifest embeds the full config graph
(:func:`repro.config.serialize.to_dict`) plus its
:func:`repro.obs.manifest.graph_hash`, so a restore can rebuild the
component graph without the original script and refuses snapshots whose
graph does not match.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import time as _time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..core.parallel import ParallelSimulation
from ..core.simulation import Simulation
from .state import (CheckpointError, capture_rank_state, capture_sim_state,
                    dump_refs)

#: the one snapshot format written and read; bump on incompatible changes
SNAPSHOT_SCHEMA = "repro-ckpt/8"

MANIFEST_NAME = "MANIFEST.json"
PARALLEL_NAME = "parallel.pkl"


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    tmp.replace(path)


def write_shard(path: Union[str, Path], state: Dict[str, Any]) -> Dict[str, Any]:
    """Pickle one rank's captured state to ``path`` atomically.

    Returns ``{"sha256", "size"}`` for the manifest.  Called wherever
    the rank runs: in-process for serial-backend snapshots and for rank
    0 of the processes backend, inside the forked rank worker for its
    other ranks (the worker owns the live queue, so the state must be
    captured — and is most cheaply written — there).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = pickle.dumps(state, pickle.HIGHEST_PROTOCOL)
    _atomic_write(path, blob)
    return {"sha256": hashlib.sha256(blob).hexdigest(), "size": len(blob)}


def write_rank_shard(psim: ParallelSimulation, rank: int,
                     path: Union[str, Path]) -> Dict[str, Any]:
    """Capture ``rank``'s live state and write it as a shard; returns
    the manifest metadata plus the rank's ``now``.  Called in whichever
    process owns the live rank."""
    state = capture_rank_state(psim, rank)
    meta = write_shard(path, state)
    meta["now"] = state["meta"]["now"]
    return meta


def read_shard(path: Union[str, Path],
               expect: Optional[Dict[str, Any]] = None) -> Any:
    """Load a payload file, verifying its manifest checksum first."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read snapshot shard {path}: {exc}") from exc
    if expect is not None:
        digest = hashlib.sha256(blob).hexdigest()
        if digest != expect.get("sha256"):
            raise CheckpointError(
                f"snapshot shard {path} is corrupt: sha256 {digest[:12]}… "
                f"does not match the manifest ({str(expect.get('sha256'))[:12]}…)"
            )
    return pickle.loads(blob)


def _lineage_summary(lineage: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """Record where a restored engine came from, capping nesting depth."""
    if lineage is None:
        return None
    summary = dict(lineage)
    summary.pop("parent", None)
    return summary


def _graph_payload(target: Union[Simulation, ParallelSimulation]):
    graph = getattr(target, "config_graph", None)
    if graph is None:
        raise CheckpointError(
            "cannot snapshot: the simulation was not built from a "
            "ConfigGraph (repro.config.build / build_parallel).  Snapshots "
            "embed the graph so a restore can rebuild the component set."
        )
    from ..config.serialize import to_dict
    from ..obs.manifest import graph_hash

    return to_dict(graph), graph_hash(graph)


def _write_manifest(root: Path, manifest: Dict[str, Any]) -> Path:
    _atomic_write(root / MANIFEST_NAME,
                  json.dumps(manifest, indent=2, sort_keys=True).encode())
    return root


def snapshot(sim: Simulation, path: Union[str, Path]) -> Path:
    """Write a sequential-engine snapshot directory at ``path``.

    Valid only between run segments (``Simulation.run`` with
    ``checkpoint_every`` calls this at each interval mark; calling it
    directly between your own ``run(max_time=...)`` segments is equally
    safe — the queue is quiescent whenever ``run()`` is not executing).
    """
    graph_dict, ghash = _graph_payload(sim)
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    shard = root / "shard-0000.pkl"
    meta = write_shard(shard, capture_sim_state(sim))
    manifest = {
        "schema": SNAPSHOT_SCHEMA,
        "mode": "sequential",
        "sim_time_ps": sim.now,
        "seed": sim.seed,
        "num_ranks": 1,
        "backend": None,
        "partition_strategy": None,
        "graph": graph_dict,
        "graph_hash": ghash,
        "assignment": {name: 0 for name in sim._components},
        "shards": [{"file": shard.name, "rank": 0, **meta}],
        "sequence": len(sim.checkpoints_written),
        "lineage": _lineage_summary(sim.checkpoint_lineage),
        "created_unix": _time.time(),
    }
    return _write_manifest(root, manifest)


def snapshot_parallel(psim: ParallelSimulation, path: Union[str, Path],
                      backend: Optional[Any] = None) -> Path:
    """Write a consistent multi-rank snapshot at an epoch boundary.

    Called by ``ParallelSimulation.run`` after the epoch's rank steps
    were absorbed: every rank has executed all events through the
    window end, outboxes are flushed, and undelivered cross-rank sends
    sit in the sync strategy's pending set — a globally consistent cut
    with no event in flight anywhere else.

    Each rank's shard is written where its live queue lives: via
    ``backend.snapshot_rank`` (in-process for serial, inside
    the forked worker for processes).  The parent then writes the
    pending-send payload plus its own engine counters, and commits the
    manifest last.  With ``backend=None`` (outside a run) ranks are
    captured in-process: after any run, on either backend, the parent
    holds every rank's live state.
    """
    graph_dict, ghash = _graph_payload(psim)
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    shards = []
    for rank in range(psim.num_ranks):
        shard = root / f"shard-{rank:04d}.pkl"
        if backend is not None:
            meta = backend.snapshot_rank(rank, str(shard))
        else:
            meta = write_rank_shard(psim, rank, shard)
        shards.append({"file": shard.name, "rank": rank, **meta})
    # Parent-side payload: the sync strategy's pending sends and the
    # parent's engine stats (a restore takes their sync.* names, see
    # state.owned_engine_stats).
    pending = psim._sync.export_pending(psim._cross_links)
    parallel_state = {
        "pending_blob": dump_refs(psim._sims, pending),
        "engine_stats": [sim.engine_stats.all() for sim in psim._sims],
        "engine": {
            "total_epochs": psim.total_epochs,
            "total_remote_events": psim.total_remote_events,
            "window_carry": psim._window_carry,
        },
    }
    parallel_meta = write_shard(root / PARALLEL_NAME, parallel_state)
    manifest = {
        "schema": SNAPSHOT_SCHEMA,
        "mode": "parallel",
        # From the shard metadata: mid-run, the parent's worker-rank
        # sim objects are stale fork-time copies.
        "sim_time_ps": max(entry["now"] for entry in shards),
        "seed": psim.seed,
        "num_ranks": psim.num_ranks,
        "backend": psim.backend,
        "partition_strategy": psim.partition_strategy,
        "graph": graph_dict,
        "graph_hash": ghash,
        "assignment": {name: sim.rank for sim in psim._sims
                       for name in sim._components},
        "shards": shards,
        "parallel_file": {"file": PARALLEL_NAME, **parallel_meta},
        "sequence": len(psim.checkpoints_written),
        "lineage": _lineage_summary(psim.checkpoint_lineage),
        "created_unix": _time.time(),
    }
    return _write_manifest(root, manifest)


def load_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and schema-check a snapshot manifest (no payload unpickling)."""
    root = Path(path)
    mpath = root / MANIFEST_NAME
    if not mpath.is_file():
        raise CheckpointError(
            f"{root} is not a committed snapshot: no {MANIFEST_NAME} "
            f"(interrupted snapshots leave shards without a manifest)"
        )
    try:
        manifest = json.loads(mpath.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable snapshot manifest {mpath}: {exc}") from exc
    if manifest.get("schema") != SNAPSHOT_SCHEMA:
        raise CheckpointError(
            f"unsupported snapshot schema {manifest.get('schema')!r} "
            f"(this engine reads {SNAPSHOT_SCHEMA!r})"
        )
    return manifest


def snapshot_info(path: Union[str, Path],
                  verify: bool = True) -> Dict[str, Any]:
    """Summarise a snapshot directory: manifest facts + checksum status.

    Backs ``python -m repro ckpt info``.  ``verify=True`` re-hashes
    every payload file (without unpickling anything).
    """
    root = Path(path)
    manifest = load_manifest(root)
    payloads = list(manifest["shards"])
    if manifest.get("parallel_file"):
        payloads.append(manifest["parallel_file"])
    files = []
    ok = True
    for entry in payloads:
        fpath = root / entry["file"]
        status = "ok"
        if not fpath.is_file():
            status = "missing"
        elif verify:
            digest = hashlib.sha256(fpath.read_bytes()).hexdigest()
            if digest != entry["sha256"]:
                status = "corrupt"
        if status != "ok":
            ok = False
        files.append({"file": entry["file"], "size": entry.get("size"),
                      "status": status})
    return {
        "path": str(root),
        "schema": manifest["schema"],
        "mode": manifest["mode"],
        "sim_time_ps": manifest["sim_time_ps"],
        "seed": manifest["seed"],
        "num_ranks": manifest["num_ranks"],
        "backend": manifest["backend"],
        "graph_name": manifest["graph"].get("name"),
        "graph_hash": manifest["graph_hash"],
        "components": len(manifest["graph"].get("components", [])),
        "links": len(manifest["graph"].get("links", [])),
        "sequence": manifest.get("sequence"),
        "lineage": manifest.get("lineage"),
        "created_unix": manifest.get("created_unix"),
        "files": files,
        "intact": ok,
    }
