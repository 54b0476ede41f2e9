"""Connection setup, transfer, teardown, and the authenticated-segment rules."""

import copy
import sys
from dataclasses import replace
from unittest import mock

import pytest

from conftest import build_network
from manetsec import identity, routing, scenario, transport, wire
from manetsec.crypto import (SessionKey, digest, digest_int, mac_tag,
                             mac_verify)

MASK = 0xFFFFFFFF
# the transport settings of a run that sets none
TCP = scenario.parse({"seed": 0, "nodes": ["a"]}).tcp


def build(names, links, *, secure=True, seed=11, stubs=(), tcp_config=TCP):
    """(net, routers, endpoints, registry, metrics, keys): a network from
    build_network, with a TcpEndpoint on each router."""
    net, routers, reg, metrics, keys = build_network(
        names, links, seed=seed, key_bits=256, secure=secure, sec_level=1,
        dh_bits=64, stubs=stubs)
    endpoints = {n: transport.TcpEndpoint(routers[n], tcp_config)
                 for n in names if n not in stubs}
    return net, routers, endpoints, reg, metrics, keys


def segment_kinds(net):
    return [rec.kind for rec in net.trace]


def test_secure_handshake_is_three_segments_with_late_allocation():
    net, r, ep, reg, m, keys = build(["a", "b"], [("a", "b")])
    r["a"].start_discovery("b")
    net.run(until=5)
    ep["b"].listen(80)
    ep["a"].connect("b", 5000, 80)
    net.run(until=30)

    assert segment_kinds(net) == ["RREQ", "RREP", "SYN", "SYN_ACK", "ACK"]
    assert all(rec.disposition == "delivered" for rec in net.trace)
    a_conn = ep["a"].conns[("b", 5000, 80)]
    b_conn = ep["b"].conns[("a", 80, 5000)]
    assert a_conn.state == "established"
    assert b_conn.state == "established"

    allocs = [ev for ev in m.of("alloc") if ev.node == "b"]
    ack_send_tick = net.trace[4].tick
    assert len(allocs) == 1
    assert allocs[0].tick == ack_send_tick + 1   # only after the third segment
    assert allocs[0].fields == {"peer": "a", "local_port": 80,
                                "remote_port": 5000}
    assert m.peak_half_open == 0


def test_plain_mode_tracks_half_open_state_until_completion():
    net, r, ep, reg, m, keys = build(["a", "b"], [("a", "b")], secure=False)
    ep["b"].listen(80)
    ep["a"].connect("b", 5000, 80)
    net.run(until=30)

    assert ep["a"].conns[("b", 5000, 80)].state == "established"
    assert ep["b"].conns[("a", 80, 5000)].state == "established"
    assert m.peak_half_open == 1
    assert len(ep["b"].half_open) == 0   # promoted on the final ack


def test_connect_runs_discovery_first_when_no_key_exists():
    net, r, ep, reg, m, keys = build(["a", "b"], [("a", "b")])
    ep["b"].listen(80)
    ep["a"].connect("b", 5000, 80)
    net.run(until=60)
    assert ep["a"].conns[("b", 5000, 80)].state == "established"
    kinds = segment_kinds(net)
    assert kinds[:2] == ["RREQ", "RREP"]
    assert kinds[2:] == ["SYN", "SYN_ACK", "ACK"]


def test_transfer_chunks_acks_and_closes():
    data = bytes(range(256)) * 5 + b"tail"    # 1284 bytes -> 3 chunks
    net, r, ep, reg, m, keys = build(["a", "b"], [("a", "b")])
    r["a"].start_discovery("b")
    net.run(until=5)
    ep["b"].listen(80)
    ep["a"].connect("b", 5000, 80, data=data, close=True)
    net.run(until=200)

    assert m.delivered_payloads[("b", "a", 80, 5000)] == data
    assert ep["a"].conns[("b", 5000, 80)].state == "closed"
    assert ep["b"].conns[("a", 80, 5000)].state == "closed"
    kinds = segment_kinds(net)
    assert kinds.count("DATA") == 3
    assert kinds.count("ACK") == 4            # handshake + one per chunk
    assert kinds.count("FIN") == 1
    assert kinds.count("FIN_ACK") == 1
    chunks = [len(ev.fields["data"]) for ev in m.of("deliver")]
    assert chunks == [512, 512, 260]
    assert m.of("resync_ack") == []


def test_lossy_link_recovers_through_retransmission():
    data = b"reliable delivery over an unreliable link" * 20
    cfg = replace(TCP, mss=128, rto=8, max_retries=6)
    net, r, ep, reg, m, keys = build(
        ["a", "b"], [("a", "b", dict(loss=0.2))], seed=3, tcp_config=cfg)
    r["a"].start_discovery("b")
    net.run(until=60)
    ep["b"].listen(80)
    ep["a"].connect("b", 5000, 80, data=data, close=True)
    net.run(until=2500)

    assert m.delivered_payloads[("b", "a", 80, 5000)] == data
    chunks = (len(data) + cfg.mss - 1) // cfg.mss
    assert segment_kinds(net).count("DATA") > chunks   # some were resent


def test_forged_tag_is_rejected():
    net, r, ep, reg, m, keys = build(["a", "b", "x"],
                                     [("a", "b"), ("x", "b")], stubs=("x",))
    r["a"].start_discovery("b")
    net.run(until=5)
    ep["b"].listen(80)
    ep["a"].connect("b", 5000, 80)
    net.run(until=30)

    seg = wire.Segment(role=wire.ROLE_DATA, src_port=5000, dst_port=80,
                       seq=123, ack=0, payload=b"EVIL", tag=b"\x33" * 32)
    pkt = wire.DataPacket(src_ip="a", dst_ip="b", segment=seg)
    net.unicast("x", "b", wire.encode_message(pkt))
    net.run(until=40)

    assert m.drops.get("tag_mismatch") == 1
    assert ("b", "a", 80, 5000) not in m.delivered_payloads


def test_plain_mode_accepts_spoofed_data_at_predicted_numbers():
    net, r, ep, reg, m, keys = build(["a", "b", "x"],
                                     [("a", "b"), ("x", "b")], secure=False,
                                     stubs=("x",))
    ep["b"].listen(80)
    ep["a"].connect("b", 5000, 80)
    net.run(until=30)

    # first client number is the fixed base, so the stream position is open
    seq = (1000 + 1) & MASK
    seg = wire.Segment(role=wire.ROLE_DATA, src_port=5000, dst_port=80,
                       seq=seq, ack=0, payload=b"EVIL", tag=b"\x00" * 32)
    pkt = wire.DataPacket(src_ip="a", dst_ip="b", segment=seg)
    net.unicast("x", "b", wire.encode_message(pkt))
    net.run(until=40)

    assert m.delivered_payloads[("b", "a", 80, 5000)] == b"EVIL"


def test_replayed_segment_is_detected(frames):
    net, r, ep, reg, m, keys = build(["a", "b", "x"],
                                     [("a", "b"), ("x", "b")], stubs=("x",))
    r["a"].start_discovery("b")
    net.run(until=5)
    ep["b"].listen(80)
    ep["a"].connect("b", 5000, 80, data=b"secret payload", close=False)
    net.run(until=50)
    assert m.delivered_payloads[("b", "a", 80, 5000)] == b"secret payload"

    datas = [p for s, d, p in frames
             if d == "b" and wire.describe(p) == "DATA"]
    net.unicast("x", "b", datas[0])
    net.run(until=60)

    assert m.drops.get("replay") == 1
    assert m.delivered_payloads[("b", "a", 80, 5000)] == b"secret payload"


def test_duplicate_data_in_plain_mode_resyncs_silently(frames):
    net, r, ep, reg, m, keys = build(["a", "b", "x"],
                                     [("a", "b"), ("x", "b")], secure=False,
                                     stubs=("x",))
    ep["b"].listen(80)
    ep["a"].connect("b", 5000, 80, data=b"dup me", close=False)
    net.run(until=50)

    datas = [p for s, d, p in frames
             if d == "b" and wire.describe(p) == "DATA"]
    net.unicast("x", "b", datas[0])
    net.run(until=60)

    assert [ev.node for ev in m.of("resync_ack")] == ["b"]
    assert "replay" not in m.drops
    assert m.delivered_payloads[("b", "a", 80, 5000)] == b"dup me"


def test_segments_outside_any_connection_are_out_of_phase():
    net, r, ep, reg, m, keys = build(["a", "b", "x"],
                                     [("a", "b"), ("x", "b")], secure=False,
                                     stubs=("x",))
    seg = wire.Segment(role=wire.ROLE_DATA, src_port=1, dst_port=2, seq=9,
                       ack=0, payload=b"?", tag=b"\x00" * 32)
    net.unicast("x", "b", wire.encode_message(
        wire.DataPacket(src_ip="a", dst_ip="b", segment=seg)))
    net.run(until=10)
    assert m.drops == {"out_of_phase": 1}


def test_nonsense_ack_number_is_rejected():
    net, r, ep, reg, m, keys = build(["a", "b", "x"],
                                     [("a", "b"), ("x", "b")], secure=False,
                                     stubs=("x",))
    ep["b"].listen(80)
    ep["a"].connect("b", 5000, 80)
    net.run(until=30)

    seg = wire.Segment(role=wire.ROLE_ACK, src_port=5000, dst_port=80,
                       seq=1001, ack=424242, payload=b"", tag=b"\x00" * 32)
    net.unicast("x", "b", wire.encode_message(
        wire.DataPacket(src_ip="a", dst_ip="b", segment=seg)))
    net.run(until=40)
    assert m.drops.get("bad_ack_number") == 1


def test_syn_flood_fills_plain_table_and_evicts_oldest():
    cfg = replace(TCP, half_open_capacity=8)
    net, r, ep, reg, m, keys = build(["b", "x"], [("x", "b")], secure=False,
                                     stubs=("x",), tcp_config=cfg)
    ep["b"].listen(80)
    for i in range(20):
        seg = wire.Segment(role=wire.ROLE_SYN, src_port=40000 + i,
                           dst_port=80, seq=7 * i, ack=0, payload=b"",
                           tag=b"\x00" * 32)
        pkt = wire.DataPacket(src_ip="ghost%d" % i, dst_ip="b", segment=seg)
        net.unicast("x", "b", wire.encode_message(pkt))
    net.run(until=10)

    assert m.peak_half_open == 8
    assert len(ep["b"].half_open) == 8
    assert m.drops.get("table_full") == 12


def test_plain_ghost_syn_fills_the_table_and_builds_no_reply():
    net, r, ep, reg, m, keys = build(["b", "x"], [("x", "b")], secure=False,
                                     stubs=("x",))
    ep["b"].listen(80)
    seg = wire.Segment(role=wire.ROLE_SYN, src_port=40000, dst_port=80,
                       seq=7, ack=0, payload=b"", tag=b"\x00" * 32)
    pkt = wire.DataPacket(src_ip="ghost0", dst_ip="b", segment=seg)
    net.unicast("x", "b", wire.encode_message(pkt))
    with mock.patch.object(r["b"], "send_segment") as send:
        net.run(until=10)

    assert m.peak_half_open == 1
    assert list(ep["b"].half_open) == [("ghost0", 80, 40000)]
    send.assert_not_called()
    assert [(rec.src, rec.disposition) for rec in net.trace] == [
        ("x", "delivered")]


def test_syn_flood_against_secure_listener_allocates_nothing():
    net, r, ep, reg, m, keys = build(["b", "x"], [("x", "b")], stubs=("x",))
    ep["b"].listen(80)
    for i in range(20):
        seg = wire.Segment(role=wire.ROLE_SYN, src_port=40000 + i,
                           dst_port=80, seq=7 * i, ack=0, payload=b"",
                           tag=b"\x11" * 32)
        pkt = wire.DataPacket(src_ip="ghost%d" % i, dst_ip="b", segment=seg)
        net.unicast("x", "b", wire.encode_message(pkt))
    net.run(until=10)

    assert m.peak_half_open == 0
    assert len(ep["b"].half_open) == 0
    assert m.drops.get("tag_mismatch") == 20
    assert ep["b"].conns == {}


def test_connect_to_unreachable_peer_eventually_fails():
    net, r, ep, reg, m, keys = build(["a", "b", "f"], [("a", "b")],
                                     secure=False)
    ep["a"].connect("f", 1, 2)
    net.run(until=400)
    assert ep["a"].conns[("f", 1, 2)].state == "failed"


def test_identities_are_resolved_once_where_they_enter_a_node():
    # a connects to c through b and sends data: the session carries the
    # peer's id, so the transport makes no registry lookup, and a node
    # that accepts a request resolves its origin once
    net, r, ep, reg, m, keys = build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    lookups = []        # (calling module, method, argument, rreq being read)
    reading = [None]

    def spy(method):
        real = getattr(identity.Registry, method)

        def lookup(self, arg):
            caller = sys._getframe(1).f_globals["__name__"]
            lookups.append((caller, method, arg, reading[-1]))
            return real(self, arg)
        return lookup

    receptions = []     # (rreq, drop reason) per request a router read
    real_receive = routing.RouterNode.on_receive

    def on_receive(self, sender, payload):
        msg = wire.decode_message(payload)
        rreq = None
        if (isinstance(msg, wire.RouteMessage)
                and msg.core.kind == wire.KIND_RREQ):
            rreq = (self.ip, msg.core)
        reading.append(rreq)
        try:
            reason = real_receive(self, sender, payload)
        finally:
            reading.pop()
        if rreq is not None:
            receptions.append((rreq, reason))
        return reason

    with mock.patch.object(identity.Registry, "get", spy("get")), \
            mock.patch.object(identity.Registry, "by_ip", spy("by_ip")), \
            mock.patch.object(routing.RouterNode, "on_receive", on_receive):
        ep["c"].listen(80)
        ep["a"].connect("c", 5000, 80, data=b"x" * 1500, close=True)
        net.run(until=200)

    assert [ev.fields["data"] for ev in m.of("deliver")] == [
        b"x" * 512, b"x" * 512, b"x" * 476]
    assert ep["a"].conns[("c", 5000, 80)].state == "closed"
    assert lookups
    assert [lk for lk in lookups if lk[0] == "manetsec.transport"] == []
    # b and c accept a's request; a drops b's rebroadcast unresolved
    assert sorted((rreq[0], reason or "") for rreq, reason in receptions) \
        == [("a", "duplicate"), ("b", ""), ("c", "")]
    for rreq, reason in receptions:
        origin = [lk for lk in lookups
                  if lk[3] is rreq and lk[1:3] == ("get", rreq[1].src_id)]
        assert len(origin) == (1 if reason is None else 0)


def test_connect_to_an_unregistered_peer_logs_its_failure():
    net, r, ep, reg, m, keys = build(["a", "b"], [("a", "b")])
    ep["a"].connect("nowhere", 1, 2)
    assert ep["a"].conns[("nowhere", 1, 2)].state == "failed"
    events = [ev for ev in m.events if ev.fields.get("peer") == "nowhere"]
    assert [(ev.node, ev.kind) for ev in events] == [("a", "connect"),
                                                     ("a", "failed")]
    assert events[1].fields == {"peer": "nowhere", "local_port": 1,
                                "remote_port": 2}


def test_initial_numbers_plain_counter_vs_keyed_offset():
    net, r, ep, reg, m, keys = build(["a", "b"], [("a", "b")], secure=False)
    ep["b"].listen(80)
    ep["b"].listen(81)
    ep["a"].connect("b", 5000, 80)
    net.run(until=30)
    ep["a"].connect("b", 5001, 81)
    net.run(until=60)
    assert ep["a"].conns[("b", 5000, 80)].isn == 1000
    assert ep["a"].conns[("b", 5001, 81)].isn == 1064

    net2, r2, ep2, reg2, m2, keys2 = build(["a", "b"], [("a", "b")])
    r2["a"].start_discovery("b")
    net2.run(until=5)
    ep2["b"].listen(80)
    ep2["a"].connect("b", 5000, 80)
    net2.run(until=30)
    key = r2["a"].sessions["b"].key
    a_id = r2["a"].node_id
    b_id = r2["b"].node_id
    offset = digest_int(digest(b"isn" + (5000).to_bytes(8, "big")
                               + (80).to_bytes(8, "big") + a_id + b_id
                               + key.key_bytes)) & MASK
    assert ep2["a"].conns[("b", 5000, 80)].isn == (1000 + offset) & MASK
    assert ep2["a"].conns[("b", 5000, 80)].state == "established"


def test_retransmission_retags_under_a_rotated_session_key():
    net, r, ep, reg, m, keys = build(["a", "b"], [("a", "b")])
    r["a"].start_discovery("b")
    net.run(until=5)
    old = r["a"].sessions["b"].key
    assert old is not None and r["b"].sessions["a"].key == old
    ep["b"].listen(80)
    conn_key = ep["a"].connect("b", 5000, 80)   # the SYN goes out now
    sent = ep["a"].conns[conn_key].inflight
    assert sent.role == wire.ROLE_SYN

    # a route repair replaces the key between the send and its resend
    new = SessionKey(old.value + 1)
    r["a"].sessions["b"] = r["a"].sessions["b"]._replace(key=new)
    ep["a"].on_timer("tcp", ("rx", conn_key, (sent.seq, sent.role)))
    resent = ep["a"].conns[conn_key].inflight
    assert resent[:6] == sent[:6] and resent.tag != sent.tag

    covered = resent.tag_input() + r["a"].node_id + r["b"].node_id
    assert mac_verify(covered, new, resent.tag)
    assert not mac_verify(covered, old, resent.tag)
    assert mac_verify(covered, old, sent.tag)
    # and the receiver's check agrees, whichever key it holds
    r["b"].sessions["a"] = r["b"].sessions["a"]._replace(key=new)
    assert ep["b"]._tag_ok("a", resent)
    r["b"].sessions["a"] = r["b"].sessions["a"]._replace(key=old)
    assert not ep["b"]._tag_ok("a", resent)


def test_tagged_segment_is_a_plain_segment_its_frame_carries():
    net, r, ep, reg, m, keys = build(["a", "b"], [("a", "b")])
    r["a"].start_discovery("b")
    net.run(until=5)
    key = r["a"].sessions["b"].key
    seg = wire.Segment(wire.ROLE_DATA, 5000, 80, 7, 9, b"payload",
                       b"\x00" * 32)
    got = ep["a"]._tagged("b", seg)
    want = seg._replace(tag=mac_tag(
        seg.tag_input() + r["a"].node_id + r["b"].node_id, key))
    assert type(got) is wire.Segment
    assert got == want
    assert list(map(type, got)) == list(map(type, want))

    frame = wire.encode_message(wire.DataPacket("a", "b", got))
    assert frame.msg.segment is got
    with mock.patch.object(wire, "_parse", wraps=wire._parse) as parse:
        assert wire.decode_message(frame).segment is got
    assert parse.call_count == 0


# Segments each endpoint drops, on the connection a:5000 <-> b:80 that the
# handshake established, a's SYN to b:81 (which b does not listen on) still
# unanswered, and a's SYN to b:80 from port 5003 answered. Each case is
# (receiver, the connection's (local, remote) ports at the receiver, a state
# forced on that connection first or None, role, seq and ack as functions of
# the receiver's connection, the drop reason).
DROPPED_SEGMENTS = {
    "syn-for-an-open-connection": (
        "b", (80, 5000), None, wire.ROLE_SYN, lambda c: 7, lambda c: 0,
        "out_of_phase"),
    "syn-for-an-unlistened-port": (
        "b", (81, 5001), None, wire.ROLE_SYN, lambda c: 7, lambda c: 0,
        "out_of_phase"),
    "syn-ack-with-no-connection": (
        "a", (5009, 80), None, wire.ROLE_SYN_ACK, lambda c: 7, lambda c: 8,
        "out_of_phase"),
    "syn-ack-outside-syn-sent": (
        "a", (5000, 80), "fin_wait", wire.ROLE_SYN_ACK,
        lambda c: c.rcv_nxt - 1, lambda c: c.snd_nxt, "out_of_phase"),
    "syn-ack-with-a-wrong-ack": (
        "a", (5001, 81), None, wire.ROLE_SYN_ACK, lambda c: 7,
        lambda c: c.snd_nxt + 1, "bad_ack_number"),
    "promoting-ack-with-a-wrong-cookie": (
        "b", (80, 5003), None, wire.ROLE_ACK, lambda c: 12,
        lambda c: 4242, "out_of_phase"),
    "data-ahead-of-rcv-nxt": (
        "b", (80, 5000), None, wire.ROLE_DATA, lambda c: c.rcv_nxt + 1,
        lambda c: c.snd_nxt, "out_of_phase"),
    "fin-ack-outside-fin-wait": (
        "a", (5000, 80), None, wire.ROLE_FIN_ACK, lambda c: c.rcv_nxt,
        lambda c: c.snd_nxt, "out_of_phase"),
    "fin-ack-with-a-wrong-ack": (
        "a", (5000, 80), "fin_wait", wire.ROLE_FIN_ACK, lambda c: c.rcv_nxt,
        lambda c: c.snd_nxt + 1, "bad_ack_number"),
}


@pytest.mark.parametrize("case", sorted(DROPPED_SEGMENTS))
@pytest.mark.parametrize("secure", [True, False], ids=["secure", "plain"])
def test_a_dropped_segment_changes_no_connection_state(secure, case):
    receiver, (local, remote), state, role, seq, ack, reason = \
        DROPPED_SEGMENTS[case]
    net, r, ep, reg, m, keys = build(["a", "b"], [("a", "b")], secure=secure)
    if secure:
        r["a"].start_discovery("b")
        net.run(until=5)
    ep["b"].listen(80)
    ep["a"].connect("b", 5000, 80)
    net.run(until=30)
    assert ep["a"].conns[("b", 5000, 80)].state == "established"
    ep["a"].connect("b", 5001, 81)
    syn = wire.Segment(wire.ROLE_SYN, 5003, 80, 11, 0, b"", bytes(32))
    assert ep["b"].on_segment("a", ep["a"]._tagged("b", syn)) is None

    peer = "b" if receiver == "a" else "a"
    conn = ep[receiver].conns.get((peer, local, remote))
    if state is not None:
        conn.state = state
    seg = wire.Segment(role, remote, local, seq(conn) & MASK,
                       ack(conn) & MASK, b"", bytes(32))
    before = (copy.deepcopy(ep[receiver].conns),
              list(ep[receiver].half_open.items()))
    assert ep[receiver].on_segment(peer, ep[peer]._tagged(receiver, seg)) \
        == reason
    assert (ep[receiver].conns, list(ep[receiver].half_open.items())) \
        == before
