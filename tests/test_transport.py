"""Connection setup, transfer, teardown, and the authenticated-segment rules."""

import pytest

from manetsec import identity, routing, sim, transport, wire
from manetsec.crypto import derive_seed, digest, digest_int, generate_node_keys

MASK = 0xFFFFFFFF


class Puppet:
    def __init__(self):
        self.received = []

    def on_receive(self, sender, payload):
        self.received.append((sender, payload))
        return None


def build(names, links, *, secure=True, sec_level=1, seed=11, key_bits=256,
          stubs=(), tcp_config=None):
    reg = identity.Registry()
    metrics = sim.Metrics()
    net = sim.Network(seed=seed, metrics=metrics)
    routers, endpoints = {}, {}
    keys = {}
    for n in names:
        keys[n] = generate_node_keys(derive_seed(seed, "keys", n), key_bits)
        reg.add(identity.NodeIdentity.from_keys(keys[n], n))
    for n in names:
        if n in stubs:
            routers[n] = Puppet()
            net.add_node(n, routers[n])
            continue
        cfg = routing.NodeConfig(name=n, keys=keys[n], secure=secure,
                                 sec_level=sec_level, master_seed=seed)
        routers[n] = routing.RouterNode(cfg, reg, net)
        endpoints[n] = transport.TcpEndpoint(routers[n], tcp_config)
    for item in links:
        net.add_link(*item[:2], **(item[2] if len(item) > 2 else {}))
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
    cfg = transport.TcpConfig(mss=128, rto=8, max_retries=6)
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
    cfg = transport.TcpConfig(half_open_capacity=8)
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
    key = r2["a"].session_key_for("b")
    a_id = r2["a"].node_id
    b_id = r2["b"].node_id
    offset = digest_int(digest(b"isn" + (5000).to_bytes(8, "big")
                               + (80).to_bytes(8, "big") + a_id + b_id
                               + key.key_bytes)) & MASK
    assert ep2["a"].conns[("b", 5000, 80)].isn == (1000 + offset) & MASK
    assert ep2["a"].conns[("b", 5000, 80)].state == "established"
