"""The link event path: one queue entry per send, carrying the handler.

A link send pushes ``(time, priority, seq, handler, event)`` where
``handler`` is the receiving port's bound handler itself, so a delivery
is one call with no port frame in between.  These tests pin what that
must not change: the error each misuse raises, delivery through a
``Port`` held since ``__init__`` (over a local link, a cross-rank link,
after a restore and under the causal tracer), the labels observers
and replays see, validation of sends made in ``setup()``, the queue's
sole ownership of ``seq``, bit-identical checkpoint resume when the
handlers are per-index closures (which do not pickle by value), and the
refusal of ``repro-ckpt/1`` snapshots, which may record the
``Port.deliver`` methods entries once held.
"""

from __future__ import annotations

import pickle

import pytest

from repro.config import ConfigGraph, build, build_parallel
from repro.core import Component, Params, Simulation, describe_handler, port
from repro.core.eventqueue import HeapEventQueue
from repro.core.link import LinkError, port_of
from repro.memory.events import MemRequest
from repro.obs import attribute_event
from tests.conftest import HeldSource, Sink, Source, Token
from tests.unit.test_ckpt import OLD_SCHEMA_REFUSED, stamp_schema
from tests.unit.test_determinism import RecordingQueue, mixed_graph


class Lonely(Component):
    """One declared port, never connected."""

    out = port("never connected", required=False)


def _stub_graph(latency: str = "10ns",
                source: str = "testlib.Source") -> ConfigGraph:
    """A source whose tokens go to the sink's handler-less ``loop`` port."""
    graph = ConfigGraph("stub")
    graph.component("src", source, {"count": 3, "period": "1ns"})
    graph.component("sink", "testlib.Sink", {})
    graph.link("src", "out", "sink", "loop", latency=latency)
    return graph


# ----------------------------------------------------------------------
# error paths
# ----------------------------------------------------------------------

def _send_unknown(sim):
    Lonely(sim, "a").port("nope").send(Token())


def _send_unconnected(sim):
    Lonely(sim, "a").port("out").send(Token())


def _send_held_unconnected(sim):
    # held from __init__, sent on without a link ever being wired
    HeldSource(sim, "a", Params({}))._emit(None)


def _send_negative_delay(sim):
    src = Source(sim, "a", Params({}))
    sink = Sink(sim, "b", Params({}))
    sim.connect(src, "out", sink, "in", latency="1ns")
    src.port("out").send(Token(), extra_delay=-1)


@pytest.mark.parametrize("misuse, match", [
    (_send_unknown, "component 'a': send on unconnected port 'nope'"),
    (_send_unconnected, "component 'a': send on unconnected port 'out'"),
    (_send_held_unconnected,
     "component 'a': send on unconnected port 'out'"),
    (_send_negative_delay, "extra_delay must be non-negative"),
], ids=["unknown-port", "unconnected-port", "held-unconnected-port",
        "negative-extra-delay"])
def test_send_misuse_raises_link_error(misuse, match):
    with pytest.raises(LinkError, match=match):
        misuse(Simulation(seed=1))


def _deliver_local(tmp_path, source):
    build(_stub_graph(source=source), seed=1).run()


def _deliver_cross_rank(tmp_path, source):
    graph = _stub_graph(source=source)
    graph.get_component("src").rank = 0
    graph.get_component("sink").rank = 1
    psim = build_parallel(graph, 2, seed=1, backend="processes")
    try:
        assert psim.cross_link_count == 1
        psim.run()
    finally:
        psim.close()


def _deliver_restored(tmp_path, source, cut="5ns"):
    from repro.ckpt import restore, snapshot

    sim = build(_stub_graph(source=source), seed=1)
    # The first token leaves at 1 ns and is due at 11 ns.
    sim.run(max_time=cut, finalize=False)
    assert sim.pending_events
    resumed = restore(snapshot(sim, tmp_path / "stub"))
    resumed.run()


def _deliver_sent_after_restore(tmp_path, source):
    # Cut before the first token leaves: every send is made by the
    # restored source, so a stale Port would send into the dead run.
    _deliver_restored(tmp_path, source, cut="500ps")


_DELIVERIES = {"local-link": _deliver_local,
               "cross-rank-processes": _deliver_cross_rank,
               "restored-record": _deliver_restored,
               "sent-after-restore": _deliver_sent_after_restore}


@pytest.mark.parametrize("deliver, source", [
    pytest.param(deliver, source, id=prefix + key)
    for prefix, source in (("", "testlib.Source"),
                           ("held-port-", "testlib.HeldSource"))
    for key, deliver in _DELIVERIES.items()])
def test_delivery_to_port_without_handler_names_it(deliver, source,
                                                   tmp_path):
    """Each token ends at a handler-less port, so the error shows it
    was delivered; ``held-port-`` sources send through the Port they
    hold from ``__init__``."""
    with pytest.raises(LinkError, match="port 'sink.loop' but no handler"):
        deliver(tmp_path, source)


@pytest.mark.parametrize("source", ["testlib.Source", "testlib.HeldSource"])
def test_cross_rank_sends_arrive_on_the_peer_rank(source):
    """A cross-rank send goes to the rank outbox (``set_remote``), so
    the sink counts every token on its own rank; a send pushed onto the
    sender's heap would run the sink's handler on the wrong rank."""
    graph = ConfigGraph("cross")
    graph.component("src", source, {"count": 3, "period": "1ns"})
    graph.component("sink", "testlib.Sink", {})
    graph.link("src", "out", "sink", "in", latency="10ns")
    graph.get_component("src").rank = 0
    graph.get_component("sink").rank = 1
    psim = build_parallel(graph, 2, seed=1, backend="processes")
    try:
        psim.run()
        stats = psim.stat_values()
    finally:
        psim.close()
    assert (stats["src.sent"], stats["sink.received"]) == (3, 3)


def test_causal_tracer_records_sends_through_a_held_port(tmp_path):
    """The tracer wraps each endpoint with ``set_remote``; a Port held
    before the wrap still sends through it, so every token's cause is
    the source's emit event."""
    from repro.obs import CausalCapture
    from repro.obs.critpath import load_causal

    graph = ConfigGraph("held")
    graph.component("src", "testlib.HeldSource",
                    {"count": 4, "period": "1ns"})
    graph.component("sink", "testlib.Sink", {})
    graph.link("src", "out", "sink", "in", latency="10ns")
    sim = build(graph, seed=1)
    capture = CausalCapture(tmp_path / "m.jsonl")
    capture.attach(sim)
    sim.run()
    capture.close()
    assert sim.component("sink").received.count == 4
    causal = load_causal(tmp_path / "m.jsonl")
    tokens = [node for node in causal.nodes
              if causal.component_of(node)[0] == "sink"]
    assert len(tokens) == 4
    for node in tokens:
        cause = causal.nodes[node][2]
        assert cause is not None, node
        assert causal.component_of((0, cause))[0] == "src"


# ----------------------------------------------------------------------
# the queue entry carries the handler; labels map it back to the port
# ----------------------------------------------------------------------

class TestEntryCarriesHandler:
    def test_entry_holds_the_bound_handler(self):
        sim = Simulation(seed=1)
        src = Source(sim, "src", Params({}))
        sink = Sink(sim, "sink", Params({}))
        sim.connect(src, "out", sink, "in", latency="1ns")
        src.port("out").send(Token())
        (entry,) = sim._queue._heap
        assert entry[3] is sink.port("in").handler
        assert port_of(entry[3]) is sink.port("in")
        assert describe_handler(entry[3]) == "sink.in"
        assert attribute_event(entry[3]) == ("sink", "port:in")

    def test_closure_handlers_keep_port_labels(self):
        sim = build(_memory_graph(), seed=3)
        handler = sim.component("sbus").port("cpu1").handler
        assert handler.__name__ != "cpu1"  # a per-index closure
        assert describe_handler(handler) == "sbus.cpu1"
        assert attribute_event(handler) == ("sbus", "port:cpu1")

    def test_one_callable_on_two_ports_keeps_two_labels(self):
        sim = Simulation(seed=1)
        sink = Sink(sim, "sink", Params({}))
        shared = sink.on_event
        sink.set_handler("in", shared)
        sink.set_handler("loop", shared)
        in_port, loop_port = sink.port("in"), sink.port("loop")
        assert in_port.handler is not loop_port.handler
        assert describe_handler(in_port.handler) == "sink.in"
        assert describe_handler(loop_port.handler) == "sink.loop"

    def test_unbound_port_holds_a_stub(self):
        sim = Simulation(seed=1)
        sink = Sink(sim, "sink", Params({}))
        stub = sink.port("loop").handler
        assert port_of(stub) is None
        assert describe_handler(stub) == "sink.loop"
        with pytest.raises(LinkError, match="'sink.loop'"):
            stub(Token())


class TestSeqOwnership:
    def test_restore_reseats_counter_for_bound_senders(self):
        queue = HeapEventQueue()
        bound_next = queue.next_seq
        queue.push(5, 50, None, None)
        queue.restore_records([(9, 50, 41, None, None)], 42)
        assert bound_next is queue.next_seq
        assert bound_next() == 42
        assert queue.push(7, 50, None, None) == 43
        assert queue.seq == 44
        assert queue.seq == 44  # reading seq consumes nothing

    def test_link_sends_and_pushes_share_one_counter(self):
        sim = Simulation(seed=1)
        src = Source(sim, "src", Params({}))
        sink = Sink(sim, "sink", Params({}))
        sim.connect(src, "out", sink, "in", latency="1ns")
        sim._queue.restore_records([], 100)
        src.port("out").send(Token())
        sim.schedule_callback(1, lambda _payload: None)
        src.port("out").send(Token())
        assert sorted(entry[2] for entry in sim._queue._heap) == \
            [100, 101, 102]


# ----------------------------------------------------------------------
# validate_events covers sends made in setup()
# ----------------------------------------------------------------------

class _SetupSender(Component):
    out = port("sends a wrong-typed event from setup", required=False)

    def on_setup(self):
        self.port("out").send(Token())


class _ChunkSink(Component):
    """Binds its typed port in __init__ (the library rule)."""

    data = port("expects MemRequest", event=MemRequest, required=False)

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        self.seen = []

    def on_data(self, event):
        self.seen.append(event)


@pytest.mark.parametrize("sender_first", [True, False],
                         ids=["sender-first", "receiver-first"])
def test_validate_events_rejects_wrong_type_sent_from_setup(sender_first):
    sim = Simulation(seed=1)
    sim.validate_events = True
    if sender_first:
        sender = _SetupSender(sim, "tx")
        sink = _ChunkSink(sim, "rx")
    else:
        sink = _ChunkSink(sim, "rx")
        sender = _SetupSender(sim, "tx")
    sim.connect(sender, "out", sink, "data", latency="1ns")
    with pytest.raises(LinkError, match="'rx' port 'data' expects MemRequest"):
        sim.run()
    assert sink.seen == []


def test_validate_events_wraps_handlers_bound_during_setup():
    class LateBinder(_ChunkSink):
        def on_setup(self):
            self.set_handler("data", self.seen.append)

    sim = Simulation(seed=1)
    sim.validate_events = True
    sink = LateBinder(sim, "rx")
    sender = _SetupSender(sim, "tx")
    sim.connect(sender, "out", sink, "data", latency="1ns")
    with pytest.raises(LinkError, match="expects MemRequest"):
        sim.run()


# ----------------------------------------------------------------------
# checkpoints with closure handlers, and Port.deliver-era snapshots
# ----------------------------------------------------------------------

def _memory_graph() -> ConfigGraph:
    """Memory nodes whose ports are bound to per-index closures.

    A shared bus (``cpu<i>``), a snooping coherent bus (``cache<i>``)
    and a node memory (``core<i>``), each fed by two requesters.
    """
    g = ConfigGraph("closure-memory")
    g.component("sbus", "memory.SharedBus",
                {"n_ports": 2, "bandwidth": "10GB/s"})
    g.component("smem", "memory.SimpleMemory", {"latency": "40ns"})
    g.link("sbus", "mem", "smem", "cpu", latency="1ns")
    g.component("cbus", "memory.CoherentBus",
                {"n_caches": 2, "capacity_lines": 32})
    g.component("node", "memory.NodeMemory",
                {"technology": "DDR3-1333", "n_ports": 2})
    for i in range(2):
        g.component(f"tg{i}", "processor.TrafficGenerator",
                    {"requests": 40, "pattern": "stream", "stride": 64,
                     "outstanding": 2})
        g.link(f"tg{i}", "mem", "sbus", f"cpu{i}", latency="1ns")
        g.component(f"cpu{i}", "processor.TrafficGenerator",
                    {"requests": 40, "pattern": "random",
                     "footprint": "16KB"})
        g.component(f"l1_{i}", "memory.CoherentCache", {"cache_id": i})
        g.link(f"cpu{i}", "mem", f"l1_{i}", "cpu", latency="1ns")
        g.link(f"l1_{i}", "bus", "cbus", f"cache{i}", latency="1ns")
        g.component(f"core{i}", "processor.MixCore",
                    {"workload": "hpccg", "instructions": 4_000,
                     "issue_width": 2, "clock": "2GHz"})
        g.link(f"core{i}", "mem", "node", f"core{i}", latency="1ns")
    return g


#: Snapshot time: a request to a shared-bus closure is in flight.
_CUT_PS = 1_190_000


def _closure_records(records):
    """Pending records whose handler is a port-bound closure."""
    return [r for r in records
            if getattr(r.handler, "__closure__", None) and port_of(r.handler)]


class TestClosureHandlerCheckpoint:
    def _reference(self):
        sim = build(_memory_graph(), seed=3)
        sim._queue = RecordingQueue(sim._queue, [])
        result = sim.run()
        return sim._queue.trace, sim.stat_values(), result

    def test_sequential_resume_is_exact_suffix(self, tmp_path):
        from repro.ckpt import restore, snapshot

        trace, stats, cold = self._reference()
        sim = build(_memory_graph(), seed=3)
        sim.run(max_time=_CUT_PS, finalize=False)
        assert _closure_records(sim._queue.snapshot_records())
        resumed = restore(snapshot(sim, tmp_path / "mem"))
        resumed._queue = RecordingQueue(resumed._queue, [])
        result = resumed.run()
        suffix = [entry for entry in trace if entry[0] > _CUT_PS]
        assert resumed._queue.trace == suffix
        assert resumed.stat_values() == stats
        assert (result.reason, result.end_time) == \
            (cold.reason, cold.end_time)

    def test_processes_snapshot_resumes_exact_suffixes(self, tmp_path):
        from repro.ckpt import restore, snapshot_info

        def two_ranks(backend):
            return build_parallel(_memory_graph(), 2,
                                  strategy="round_robin", seed=3,
                                  backend=backend)

        reference = two_ranks("serial")
        traces = []
        for rank in range(2):
            rank_sim = reference.rank_sim(rank)
            rank_sim._queue = RecordingQueue(rank_sim._queue, [])
            traces.append(rank_sim._queue.trace)
        reference.run()
        stats = reference.stat_values()
        reference.close()

        psim = two_ranks("processes")
        try:
            assert psim.cross_link_count > 0
            psim.run(checkpoint_every=_CUT_PS, checkpoint_dir=str(tmp_path))
            assert psim.stat_values() == stats
            mid = psim.checkpoints_written[0]
        finally:
            psim.close()
        cut = snapshot_info(mid)["sim_time_ps"]
        for backend in ("serial", "processes"):
            resumed = restore(mid, backend=backend)
            resumed_traces = []
            for rank in range(2):
                rank_sim = resumed.rank_sim(rank)
                rank_sim._queue = RecordingQueue(rank_sim._queue, [])
                resumed_traces.append(rank_sim._queue.trace)
            try:
                resumed.run()
                assert resumed.stat_values() == stats, backend
            finally:
                resumed.close()
            if backend == "serial":
                for rank in range(2):
                    suffix = [e for e in traces[rank] if e[0] > cut]
                    assert suffix, rank
                    assert resumed_traces[rank] == suffix, rank


#: A linked blob as ``repro-ckpt/1`` snapshots from when entries held
#: ``Port.deliver`` may hold a record's handler: ``getattr(port,
#: "deliver")`` with the port ``sink.in`` as a snapshot reference.
_DELIVER_BLOB = b"cbuiltins\ngetattr\n((Vport\nVsink\nVin\ntQVdeliver\ntR."


def test_deliver_era_snapshot_is_refused(tmp_path):
    """Refused by its schema before the blob is loaded: one
    CheckpointError naming both schemas, never an AttributeError."""
    from repro.ckpt import CheckpointError, load_refs, restore, snapshot

    sim = build(mixed_graph(), seed=7)
    sim.run(max_time="100ns", finalize=False)
    with pytest.raises(AttributeError, match="deliver"):
        load_refs(_DELIVER_BLOB, [sim])
    path = snapshot(sim, tmp_path / "deliver-era")
    state = pickle.loads((path / "shard-0000.pkl").read_bytes())
    state["linked"] = _DELIVER_BLOB
    stamp_schema(path, "repro-ckpt/1", shard=pickle.dumps(state))
    with pytest.raises(CheckpointError, match=OLD_SCHEMA_REFUSED):
        restore(path)
