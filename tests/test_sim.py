"""Event loop tests: ordering, latency, loss, link churn, trace conservation."""

import pytest

from manetsec import sim, wire
from manetsec.sim import Metrics, Network


class Recorder:
    """Stub handler that logs deliveries and can drop with a reason."""

    def __init__(self, drop_with=None):
        self.log = []
        self.drop_with = drop_with

    def on_receive(self, sender, payload):
        self.log.append((sender, payload))
        return self.drop_with


def _net(seed=1, metrics=None):
    return Network(seed=seed, metrics=metrics or Metrics())


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


def test_unicast_over_dead_link_reports_failure_without_record():
    net = _net()
    net.add_node("a", Recorder())
    net.add_node("b", Recorder())
    net.add_link("a", "b", latency=1)
    net.set_link("a", "b", up=False)
    assert net.unicast("a", "b", b"x") is False
    assert net.unicast("a", "zz", b"x") is False
    assert net.trace == []


def test_receiver_drop_reason_recorded_and_counted():
    metrics = Metrics()
    net = _net(metrics=metrics)
    net.add_node("a", Recorder())
    net.add_node("b", Recorder(drop_with="malformed"))
    net.add_link("a", "b", latency=1)
    net.unicast("a", "b", b"x")
    net.run(until=5)
    assert net.trace[0].disposition == "dropped_by_receiver(malformed)"
    assert metrics.drops == {"malformed": 1}


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
        metrics = Metrics()
        net = _net(seed=9, metrics=metrics)
        net.add_node("a", Recorder())
        net.add_node("b", Recorder())
        net.add_link("a", "b", latency=2, loss=0.3)
        for _ in range(10):
            net.unicast("a", "b", b"payload")
        net.run(until=20)
        return net.trace_text()

    t1, t2 = run_once(), run_once()
    assert t1 == t2
    line = t1.splitlines()[0]
    fields = line.split("\t")
    assert len(fields) == 6
    assert fields[0] == "0" and fields[1] == "a" and fields[2] == "b"
    assert fields[4] == "7"


def test_every_record_reaches_a_terminal_disposition():
    metrics = Metrics()
    net = _net(seed=3, metrics=metrics)
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
    metrics = Metrics()
    net = _net(metrics=metrics)
    net.add_node("a", Recorder())
    net.add_node("b", Recorder())
    net.add_link("a", "b", latency=1)
    core = wire.RouteCore(kind=wire.KIND_RREQ, src_ip="a", src_id=bytes(32),
                          src_seq=1, bct_id=1, dst_ip="b")
    rreq = wire.encode_message(wire.RouteMessage(
        core=core, hops=(), sig_mode=0, sec_level=0, aggregate=None,
        source_sig=None))
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
    assert metrics.control_bytes == len(rreq)
    assert metrics.data_bytes == len(data)
