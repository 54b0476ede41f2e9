"""Event loop tests: ordering, latency, loss, link churn, trace conservation."""

import ast
import gc
import heapq
import os
import random
from unittest import mock

import pytest

from manetsec import scenario, sim, wire
from manetsec.sim import Network

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Recorder:
    """Stub handler that logs deliveries and can drop with a reason."""

    def __init__(self, drop_with=None):
        self.log = []
        self.drop_with = drop_with

    def on_receive(self, sender, payload):
        self.log.append((sender, payload))
        return self.drop_with


def _net(seed=1):
    return Network(seed=seed)


def test_delivery_latency_and_order():
    net = _net()
    a, b = Recorder(), Recorder()
    net.add_node("a", a)
    net.add_node("b", b)
    net.add_link("a", "b", latency=3)
    net.unicast("a", "b", b"m1")
    net.unicast("a", "b", b"m2")
    net.run(until=10)
    assert b.log == [("a", b"m1"), ("a", b"m2")]
    assert [r.tick for r in net.trace] == [0, 0]
    assert all(r.disposition == "delivered" for r in net.trace)


def test_same_tick_events_keep_insertion_order():
    net = _net()
    seen = []

    class Probe:
        def __init__(self, name):
            self.name = name

        def on_receive(self, sender, payload):
            seen.append(self.name)

    net.add_node("x", Probe("x"))
    net.add_node("y", Probe("y"))
    net.add_link("x", "y", latency=1)
    net.schedule(1, seen.append, ("t", "x", "first"))
    net.unicast("x", "y", b"p")
    net.schedule(1, seen.append, ("t", "x", "second"))
    net.run(until=5)
    assert seen == [("t", "x", "first"), "y", ("t", "x", "second")]


def test_a_tunnel_frame_sent_during_a_tick_arrives_after_that_ticks_calls():
    net = _net()
    seen = []

    class Probe:
        def on_receive(self, sender, payload):
            seen.append((net.tick, payload))

    net.add_node("m1", Probe())
    net.add_node("m2", Probe())
    net.add_link("m1", "m2", latency=0, tunnel=True)
    net.schedule(3, lambda: net.tunnel_send("m1", "m2", b"y"))
    net.schedule(3, seen.append, (3, "due"))
    net.schedule(4, seen.append, (4, "next"))
    net.run(until=10)
    assert seen == [(3, "due"), (3, b"y"), (4, "next")]
    assert [rec.tick for rec in net.trace] == [3]


def test_a_delay_0_call_scheduled_before_run_runs_first():
    net = _net()
    seen = []
    net.schedule(1, seen.append, "one")
    net.schedule(0, seen.append, "zero")
    net.run(until=5)
    assert seen == ["zero", "one"]


def test_a_second_run_resumes_the_calls_still_queued():
    net = _net()
    seen = []
    for delay in (2, 7, 5, 7):
        net.schedule(delay, lambda d=delay: seen.append((net.tick, d)))
    net.run(until=5)
    assert seen == [(2, 2), (5, 5)]
    assert net.tick == 5
    net.schedule(0, seen.append, "now")   # due at the tick run stopped at
    net.run(until=6)
    assert seen[2:] == ["now"]
    net.run(until=7)
    assert seen[3:] == [(7, 7), (7, 7)]


def test_a_run_to_an_earlier_tick_leaves_the_clock_and_the_log_in_order():
    net = _net()
    net.schedule(4, net.log, "a", "first")
    net.run(until=5)
    net.run(until=2)
    assert net.tick == 5
    net.log("a", "second")
    net.schedule(1, net.log, "a", "third")
    net.run(until=10)
    assert [(ev.tick, ev.kind) for ev in net.metrics.events] == \
        [(4, "first"), (5, "second"), (6, "third")]


def test_a_random_schedule_runs_in_tick_then_insertion_order():
    # each call may schedule more, delay 0 included; the order must be the
    # one a (tick, insertion sequence) heap gives
    rng = random.Random(2024)
    net = _net()
    ran, reference = [], []   # reference: every call ever added

    def add(delay, name):
        heapq.heappush(reference, (net.tick + delay, len(reference), name))
        net.schedule(delay, call, name)

    def call(name):
        ran.append((net.tick, name))
        for child in range(rng.choice((0, 0, 1, 2))):
            if len(reference) < 400:
                add(rng.choice((0, 0, 1, 2, 5)), "%s.%d" % (name, child))

    for name in range(40):
        add(rng.randrange(12), str(name))
    net.run(until=1000)
    expected = []
    while reference:
        tick, _, name = heapq.heappop(reference)
        expected.append((tick, name))
    assert len(ran) > 100
    assert ran == expected


def test_normal_link_rejects_zero_latency():
    net = _net()
    net.add_node("a", Recorder())
    net.add_node("b", Recorder())
    with pytest.raises(ValueError):
        net.add_link("a", "b", latency=0)


def test_loss_is_seeded_and_deterministic():
    def run_once():
        net = _net(seed=42)
        a, b = Recorder(), Recorder()
        net.add_node("a", a)
        net.add_node("b", b)
        net.add_link("a", "b", latency=1, loss=0.5)
        for _ in range(40):
            net.unicast("a", "b", b"x")
        net.run(until=50)
        return [r.disposition for r in net.trace]

    first, second = run_once(), run_once()
    assert first == second
    assert "lost" in first and "delivered" in first


def test_certain_loss_loses_everything():
    net = _net()
    net.add_node("a", Recorder())
    rec = Recorder()
    net.add_node("b", rec)
    net.add_link("a", "b", latency=1, loss=1.0)
    net.unicast("a", "b", b"x")
    net.run(until=5)
    assert rec.log == []
    assert net.trace[0].disposition == "lost"


def test_broadcast_reaches_live_neighbors_in_name_order():
    net = _net()
    hub = Recorder()
    net.add_node("hub", hub)
    spokes = {}
    for name in ("c", "a", "b"):
        spokes[name] = Recorder()
        net.add_node(name, spokes[name])
        net.add_link("hub", name, latency=1)
    net.set_link("hub", "b", up=False)
    net.broadcast("hub", b"hello")
    net.run(until=5)
    assert [r.dst for r in net.trace] == ["a", "c"]   # down link: no record
    assert spokes["a"].log and spokes["c"].log and not spokes["b"].log


def test_in_flight_delivery_over_downed_link_is_lost():
    net = _net()
    net.add_node("a", Recorder())
    rec = Recorder()
    net.add_node("b", rec)
    net.add_link("a", "b", latency=5)
    net.unicast("a", "b", b"x")
    net.schedule(2, net.set_link, "a", "b", False)
    net.run(until=10)
    assert rec.log == []
    assert net.trace[0].disposition == "lost"


def test_set_link_needs_an_existing_link():
    net = _net()
    for name in ("a", "b", "c"):
        net.add_node(name, Recorder())
    net.add_link("a", "b", latency=1)
    for a, b in (("a", "c"), ("c", "b"), ("a", "zz"), ("zz", "a")):
        with pytest.raises(ValueError, match="no such link %s-%s" % (a, b)):
            net.set_link(a, b, up=False)
    net.set_link("b", "a", up=False)   # either order names the same link
    assert net.unicast("a", "b", b"x") is False


def test_a_link_added_in_either_order_is_a_duplicate():
    net = _net()
    net.add_node("a", Recorder())
    net.add_node("b", Recorder())
    net.add_link("a", "b", latency=1)
    with pytest.raises(ValueError, match="duplicate link b-a"):
        net.add_link("b", "a", latency=2)
    with pytest.raises(ValueError, match="duplicate link a-b"):
        net.add_link("a", "b", latency=0, tunnel=True)


def test_unicast_over_dead_link_reports_failure_without_record():
    net = _net()
    net.add_node("a", Recorder())
    net.add_node("b", Recorder())
    net.add_link("a", "b", latency=1)
    net.set_link("a", "b", up=False)
    assert net.unicast("a", "b", b"x") is False
    assert net.unicast("a", "zz", b"x") is False
    assert net.unicast("zz", "a", b"x") is False
    assert net.tunnel_send("zz", "a", b"x") is False
    assert net.trace == []


def test_receiver_drop_reason_recorded_and_counted():
    net = _net()
    metrics = net.metrics
    net.add_node("a", Recorder())
    net.add_node("b", Recorder(drop_with="malformed"))
    net.add_link("a", "b", latency=1)
    net.unicast("a", "b", b"x")
    net.run(until=5)
    assert net.trace[0].disposition == "dropped_by_receiver(malformed)"
    assert metrics.drops == {"malformed": 1}


def test_a_reason_outside_the_drop_reasons_is_rejected():
    with pytest.raises(ValueError, match="bogus"):
        sim.dropped("bogus")
    net = _net()
    net.add_node("a", Recorder())
    net.add_node("b", Recorder(drop_with="bogus"))
    net.add_link("a", "b", latency=1)
    net.unicast("a", "b", b"x")
    with pytest.raises(ValueError, match="bogus"):
        net.run(until=5)


def test_each_drop_reason_has_one_disposition_string():
    for reason in sim.DROP_REASONS:
        assert sim.dropped(reason) == "dropped_by_receiver(%s)" % reason
        assert sim.dropped(reason) is sim.dropped(reason)
    result = scenario.run_scenario(scenario.load_file(
        os.path.join(ROOT, "scenarios", "attack_syn_flood.json")),
        mode="secure")
    dropped = [rec.disposition for rec in result.net.trace
               if rec.disposition.startswith("dropped_by_receiver(")]
    assert len(dropped) > 1
    assert all(d is dropped[0] for d in dropped)


def test_the_benchmark_counts_every_drop_reason():
    with open(os.path.join(ROOT, "perfbench", "run.py"), "r",
              encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    counted = [ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and [t.id for t in node.targets] == ["DROP_REASONS"]]
    assert len(counted) == 1
    assert set(counted[0]) == set(sim.DROP_REASONS) | {"table_full"}


def test_the_readme_lists_every_drop_reason():
    with open(os.path.join(ROOT, "README.md"), "r", encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Outputs\n", 1)[1].split("\n## ", 1)[0]
    listed = [line.split("`")[1] for line in section.splitlines()
              if line.startswith("- `")]
    assert listed == list(sim.DROP_REASONS) + ["table_full"]


def test_tunnel_is_out_of_band():
    net = _net()
    m1, m2, bystander = Recorder(), Recorder(), Recorder()
    net.add_node("m1", m1)
    net.add_node("m2", m2)
    net.add_node("o", bystander)
    net.add_link("m1", "o", latency=1)
    net.add_link("m1", "m2", latency=0, tunnel=True)
    net.broadcast("m1", b"x")           # tunnel peers do not hear broadcasts
    net.tunnel_send("m1", "m2", b"y")   # explicit use only, same-tick delivery
    net.run(until=3)
    assert m2.log == [("m1", b"y")]
    assert bystander.log == [("m1", b"x")]
    tunnel_rec = [r for r in net.trace if r.dst == "m2"][0]
    assert tunnel_rec.tick == 0


def test_trace_text_is_stable_and_tab_separated():
    def run_once():
        net = _net(seed=9)
        assert net.trace_text() == ""
        net.add_node("a", Recorder())
        net.add_node("b", Recorder(drop_with="replay"))
        net.add_link("a", "b", latency=2, loss=0.3)
        for _ in range(10):
            net.unicast("a", "b", b"payload")
        net.run(until=20)
        return net.trace_text(), net.trace

    (t1, trace), (t2, _) = run_once(), run_once()
    assert t1 == t2
    line = t1.splitlines()[0]
    fields = line.split("\t")
    assert len(fields) == 6
    assert fields[0] == "0" and fields[1] == "a" and fields[2] == "b"
    assert fields[4] == "7"
    # every line, the last one too, ends in a newline
    assert t1 == "".join("%d\ta\tb\tRAW\t7\t%s\n" % (rec.tick,
                                                      rec.disposition)
                         for rec in trace)
    assert {rec.disposition for rec in trace} == {
        "lost", "dropped_by_receiver(replay)"}


def _mixed_run(a="a", b="b", c="c"):
    """A run over a lossy link to a receiver that drops, and a link to c
    that flaps with frames in flight: every disposition, both byte kinds."""
    net = _net(seed=5)
    net.add_node(a, Recorder())
    net.add_node(b, Recorder(drop_with="replay"))
    net.add_node(c, Recorder())
    net.add_link(a, b, latency=1, loss=0.3)
    net.add_link(a, c, latency=3)
    core = wire.RouteCore(kind=wire.KIND_RREQ, src_ip=a, src_id=bytes(32),
                          src_seq=1, bct_id=1, dst_ip=c)
    rreq = wire.encode_message(wire.RouteMessage(
        core=core, hops=(), sec_level=0, aggregate=None, source_sig=None))
    data = wire.encode_message(wire.DataPacket(
        src_ip=a, dst_ip=c, segment=wire.Segment(
            role=wire.ROLE_DATA, src_port=1, dst_port=2, seq=0, ack=0,
            payload=b"x" * 4, tag=bytes(32))))
    for tick in range(30):
        net.schedule(tick, net.broadcast, a, (rreq, data, b"raw")[tick % 3])
    net.schedule(6, net.set_link, a, c, False)
    net.schedule(14, net.set_link, a, c, True)
    net.run(until=60)
    return net


def test_the_trace_view_reads_what_the_text_writes():
    net = _mixed_run()
    text = net.trace_text()
    records = [sim.TraceRecord(int(tick), src, dst, kind, int(size), end)
               for tick, src, dst, kind, size, end
               in (line.split("\t") for line in text.splitlines())]
    for chunk in (1, 7, len(records) - 1, len(records)):
        with mock.patch.object(sim, "TEXT_CHUNK", chunk):
            assert net.trace_text() == text
    assert list(net.trace) == records
    assert net.trace == records and len(net.trace) == len(records)
    assert {rec.disposition for rec in records} == {
        "delivered", "lost", "dropped_by_receiver(replay)"}
    # the flap lost frames in flight to c; the loss lost frames to b
    assert {rec.dst for rec in records if rec.disposition == "lost"} == \
        {"b", "c"}
    drops = {}
    for rec in records:
        if rec.disposition.startswith("dropped_by_receiver("):
            reason = rec.disposition[len("dropped_by_receiver("):-1]
            drops[reason] = drops.get(reason, 0) + 1
    assert net.metrics.trace_totals() == {
        "control_bytes": sum(rec.size for rec in records
                             if rec.kind in sim.ROUTING_KINDS),
        "data_bytes": sum(rec.size for rec in records
                          if rec.kind in sim.SEGMENT_KINDS),
        "drops": drops}
    assert net.metrics.drops == drops
    assert net.trace[0] == records[0] and net.trace[-1] == records[-1]
    for i in (len(records), -len(records) - 1):
        with pytest.raises(IndexError):
            net.trace[i]
    assert net.trace[3:9] == records[3:9]
    assert net.trace[::-4] == records[::-4]
    assert net.trace[len(records):] == []
    with pytest.raises(AttributeError):
        net.trace[0].disposition = "delivered"   # records are immutable
    assert not hasattr(net.trace, "append")
    assert Network(seed=1).trace == []


def test_no_per_frame_object_outlives_its_frame():
    names = ("gc_a", "gc_b", "gc_c")
    net = _mixed_run(*names)
    held = [obj for obj in gc.get_objects()
            if isinstance(obj, sim.TraceRecord) and obj.src in names]
    assert held == []
    m = net.metrics
    assert len(m.ticks) > 0
    for column, kind in ((m.ticks, int), (m.srcs, str), (m.dsts, str),
                         (m.kinds, str), (m.sizes, int), (m.ends, str)):
        assert len(column) == len(m.ticks)
        assert all(type(value) is kind for value in column)


def test_every_record_reaches_a_terminal_disposition():
    net = _net(seed=3)
    net.add_node("a", Recorder())
    net.add_node("b", Recorder(drop_with="duplicate"))
    net.add_link("a", "b", latency=1, loss=0.4)
    for _ in range(30):
        net.unicast("a", "b", b"z")
    net.run(until=60)
    assert len(net.trace) == 30
    for rec in net.trace:
        assert rec.disposition in ("delivered", "lost",
                                   "dropped_by_receiver(duplicate)")


def test_metrics_byte_counters_follow_kind():
    net = _net()
    metrics = net.metrics
    net.add_node("a", Recorder())
    net.add_node("b", Recorder())
    net.add_link("a", "b", latency=1)
    core = wire.RouteCore(kind=wire.KIND_RREQ, src_ip="a", src_id=bytes(32),
                          src_seq=1, bct_id=1, dst_ip="b")
    rreq = wire.encode_message(wire.RouteMessage(
        core=core, hops=(), sec_level=0, aggregate=None, source_sig=None))
    data = wire.encode_message(wire.DataPacket(
        src_ip="a", dst_ip="b", segment=wire.Segment(
            role=wire.ROLE_DATA, src_port=1, dst_port=2, seq=0, ack=0,
            payload=b"x" * 4, tag=bytes(32))))
    net.unicast("a", "b", rreq)
    net.unicast("a", "b", data)
    net.unicast("a", "b", b"x" * 3)
    net.run(until=5)
    assert [rec.kind for rec in net.trace] == ["RREQ", "DATA", "RAW"]
    assert [rec.size for rec in net.trace] == [len(rreq), len(data), 3]
    totals = metrics.trace_totals()
    assert totals["control_bytes"] == len(rreq)
    assert totals["data_bytes"] == len(data)


def test_each_record_is_labelled_from_its_own_payload():
    net = _net()
    net.add_node("hub", Recorder())
    for name in ("x", "y", "z"):
        net.add_node(name, Recorder())
        net.add_link("hub", name, latency=1)
    core = wire.RouteCore(kind=wire.KIND_RREQ, src_ip="hub",
                          src_id=bytes(32), src_seq=1, bct_id=1, dst_ip="z")
    frame = wire.encode_message(wire.RouteMessage(
        core=core, hops=(), sec_level=0, aggregate=None, source_sig=None))
    assert type(frame) is wire._Frame
    payloads = [frame, bytes(frame), bytes(frame)[:-1]]
    parses = []
    for payload in payloads:
        with mock.patch.object(wire, "_parse", wraps=wire._parse) as parse:
            net.broadcast("hub", payload)
        parses.append(parse.call_count)
    net.run(until=5)
    assert [rec.kind for rec in net.trace] == \
        ["RREQ"] * 3 + ["RREQ"] * 3 + ["RAW"] * 3
    assert [rec.size for rec in net.trace] == \
        [len(p) for p in payloads for _ in range(3)]
    assert parses == [0, 3, 3]   # once per record of a plain-bytes payload
