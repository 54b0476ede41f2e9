"""Route discovery, maintenance, and per-hop verification behavior."""

import pytest

from conftest import FixedRng, pinned_group
from manetsec import identity, routing, sim, wire
from manetsec.crypto import (
    derive_seed,
    generate_node_keys,
    rsa_encrypt,
    rsa_sign_first,
    sas_aggregate_step,
)


class Puppet:
    """Inert sim handler for nodes the test drives by hand."""

    def __init__(self):
        self.received = []

    def on_receive(self, sender, payload):
        self.received.append((sender, payload))
        return None


class Inbox:
    """Stub transport: records (source, payload) of each delivered segment."""

    def __init__(self):
        self.received = []

    def on_segment(self, peer_ip, seg):
        self.received.append((peer_ip, seg.payload))
        return None


def send_payload(router, dst_ip, data):
    """Hand one bare data segment to the router's data path."""
    router.send_segment(dst_ip, wire.Segment(
        role=wire.ROLE_DATA, src_port=0, dst_port=0, seq=0, ack=0,
        payload=data, tag=b"\x00" * 32))


def build(names, links, *, secure=True, sec_level=1, seed=7, key_bits=256,
          stubs=(), responder_secrets=None):
    reg = identity.Registry()
    metrics = sim.Metrics()
    net = sim.Network(seed=seed, metrics=metrics)
    keys = {}
    for n in names:
        keys[n] = generate_node_keys(derive_seed(seed, "keys", n), key_bits)
        reg.add(identity.NodeIdentity.from_keys(keys[n], n))
    routers = {}
    for n in names:
        if n in stubs:
            handler = Puppet()
            net.add_node(n, handler)
            routers[n] = handler
            continue
        cfg = routing.NodeConfig(name=n, keys=keys[n], secure=secure,
                                 sec_level=sec_level, master_seed=seed)
        routers[n] = routing.RouterNode(cfg, reg, net)
        routers[n].transport = Inbox()
        if n in (responder_secrets or {}):
            routers[n].rng = FixedRng(responder_secrets[n])
    for a, b in links:
        net.add_link(a, b)
    return net, routers, reg, metrics, keys


def line(names):
    return list(zip(names, names[1:]))


def test_two_node_discovery_with_pinned_key_exchange():
    net, r, reg, m, keys = build(["a", "b"], [("a", "b")],
                                 responder_secrets={"b": 15})
    with pinned_group(r["a"], p=23, g=5, r=6):
        bct = r["a"].start_discovery("b")
    net.run(until=10)

    b_id = r["b"].node_id
    a_id = r["a"].node_id
    assert r["a"].routes[b_id].next_hop == "b"
    assert r["a"].routes[b_id].distance == 1
    assert r["b"].routes[a_id].next_hop == "a"

    recs = m.of("session_key")
    assert len(recs) == 2
    assert all(rec.fields["key"] == 2 for rec in recs)
    assert all(rec.fields["bct"] == bct for rec in recs)
    assert {rec.node for rec in recs} == {"a", "b"}
    assert r["a"].session_key_for("b").value == 2
    assert r["b"].session_key_for("a").value == 2

    assert m.discovery_latency_ticks == [2]
    assert m.signed == 2
    assert m.verified == 2
    kinds = [rec.kind for rec in net.trace]
    assert kinds == ["RREQ", "RREP"]
    assert all(rec.disposition == "delivered" for rec in net.trace)


# 3317044064679887385961981 is composite but a strong pseudoprime to every
# prime base up to 37 (Sorenson and Webster, 2015); 29 is prime, 14 is not
@pytest.mark.parametrize("p", [3317044064679887385961981, 29])
def test_responder_refuses_a_group_that_is_not_a_safe_prime(p):
    net, r, reg, m, keys = build(["a", "b"], [("a", "b")], key_bits=128)
    with pinned_group(r["a"], p=p, g=2, r=6):
        r["a"].start_discovery("b")
    net.run(until=10)

    assert m.drops == {"malformed": 1}
    assert m.of("session_key") == []
    assert r["b"].session_key_for("a") is None
    assert r["a"].session_key_for("b") is None


@pytest.mark.parametrize("sec_level,exp_signed,exp_verified",
                         [(1, 8, 20), (0, 8, 8)])
def test_line_of_five_multihop(sec_level, exp_signed, exp_verified):
    names = list("abcde")
    net, r, reg, m, keys = build(names, line(names), sec_level=sec_level)
    r["a"].start_discovery("e")
    net.run(until=40)

    e_id = r["e"].node_id
    a_id = r["a"].node_id
    assert m.discovery_latency_ticks == [8]
    assert r["a"].routes[e_id].next_hop == "b"
    assert r["e"].routes[a_id].next_hop == "d"
    assert r["c"].routes[e_id].next_hop == "d"
    assert r["c"].routes[a_id].next_hop == "b"
    # level 1 attests the whole path; level 0 keeps one record, so its
    # distance reflects only what the message can prove
    expected_distance = 4 if sec_level == 1 else 2
    assert r["a"].routes[e_id].distance == expected_distance
    assert r["e"].routes[a_id].distance == expected_distance

    keys_by_node = {ev.node: ev.fields["key"] for ev in m.of("session_key")}
    assert keys_by_node["a"] == keys_by_node["e"]

    assert m.signed == exp_signed
    assert m.verified == exp_verified
    assert m.drops == {"duplicate": 3}
    assert len(m.of("route")) == 8


def test_baseline_discovery_installs_routes_without_crypto():
    names = ["a", "b", "c"]
    net, r, reg, m, keys = build(names, line(names), secure=False)
    r["a"].start_discovery("c")
    net.run(until=20)

    c_id = r["c"].node_id
    assert r["a"].routes[c_id].distance == 2
    assert m.signed == 0
    assert m.verified == 0
    assert m.of("session_key") == []
    assert m.discovery_latency_ticks == [4]


def test_first_verified_copy_wins_on_diamond():
    names = ["a", "b", "c", "d"]
    links = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    net, r, reg, m, keys = build(names, links)
    r["a"].start_discovery("d")
    net.run(until=20)

    a_id = r["a"].node_id
    d_id = r["d"].node_id
    # b's copy is processed first at d; c's identical copy is a duplicate
    assert r["d"].routes[a_id].next_hop == "b"
    assert r["a"].routes[d_id].next_hop == "b"
    assert m.drops["duplicate"] == 3


def test_impersonated_origin_fails_final_check():
    names = ["a", "b", "m"]
    net, r, reg, m, keys = build(names, [("a", "b"), ("m", "b")], stubs=("m",))
    a_pub = keys["a"].signing.public
    m_sig = keys["m"].signing
    m_id = identity.derive_id(m_sig.public)
    core = wire.RouteCore(kind=wire.KIND_RREQ, src_ip="a",
                          src_id=r["a"].node_id, src_seq=99, bct_id=777,
                          dst_ip="b", dh_p=23, dh_g=5,
                          dh_payload=rsa_encrypt(8, keys["b"].encryption.public))
    hops = (m_id,)
    fake_origin = rsa_sign_first(wire.signer_hash(core, hops, 0, a_pub), m_sig)
    agg = sas_aggregate_step(fake_origin,
                             wire.signer_hash(core, hops, 1, m_sig.public),
                             m_sig)
    msg = wire.RouteMessage(core=core, hops=hops,
                            sig_mode=wire.MODE_AGGREGATE_FULL, sec_level=1,
                            aggregate=agg, source_sig=None)
    net.broadcast("m", wire.encode_message(msg))
    net.run(until=5)

    assert m.drops == {"verify_failed": 1}
    assert r["b"].routes == {}


def test_claimed_last_hop_must_match_physical_sender():
    names = ["a", "b", "m"]
    net, r, reg, m, keys = build(names, [("a", "b"), ("m", "b")], stubs=("m",))
    core = wire.RouteCore(kind=wire.KIND_RREQ, src_ip="a",
                          src_id=r["a"].node_id, src_seq=5, bct_id=42,
                          dst_ip="b", dh_p=23, dh_g=5,
                          dh_payload=rsa_encrypt(8, keys["b"].encryption.public))
    sig = rsa_sign_first(wire.signer_hash(core, (), 0, keys["a"].signing.public),
                         keys["m"].signing)
    msg = wire.RouteMessage(core=core, hops=(), sig_mode=0, sec_level=1,
                            aggregate=sig, source_sig=None)
    net.broadcast("m", wire.encode_message(msg))
    net.run(until=5)
    assert m.drops == {"id_mismatch": 1}


def test_unknown_origin_identity_is_rejected():
    names = ["a", "b", "m"]
    net, r, reg, m, keys = build(names, [("a", "b"), ("m", "b")], stubs=("m",))
    core = wire.RouteCore(kind=wire.KIND_RREQ, src_ip="zz",
                          src_id=b"\x42" * 32, src_seq=1, bct_id=1,
                          dst_ip="b", dh_p=23, dh_g=5, dh_payload=9)
    sig = rsa_sign_first(wire.signer_hash(core, (), 0, keys["m"].signing.public),
                         keys["m"].signing)
    msg = wire.RouteMessage(core=core, hops=(), sig_mode=0, sec_level=1,
                            aggregate=sig, source_sig=None)
    net.broadcast("m", wire.encode_message(msg))
    net.run(until=5)
    assert m.drops == {"unknown_identity": 1}


def test_undecodable_bytes_are_malformed():
    names = ["a", "b"]
    net, r, reg, m, keys = build(names, [("a", "b")], stubs=("a",))
    net.broadcast("a", b"\x01\xff\xff")
    net.run(until=5)
    assert m.drops == {"malformed": 1}


def test_unsolicited_reply_needs_a_pending_discovery():
    names = ["a", "b"]
    net, r, reg, m, keys = build(names, [("a", "b")], secure=False,
                                 stubs=("b",))
    b_sig = keys["b"].signing
    core = wire.RouteCore(kind=wire.KIND_RREP, src_ip="b",
                          src_id=identity.derive_id(b_sig.public), src_seq=3,
                          bct_id=999, dst_ip="a", dst_seq=1, dh_payload=0)
    msg = wire.RouteMessage(core=core, hops=(), sig_mode=0, sec_level=0,
                            aggregate=None, source_sig=None)
    net.unicast("b", "a", wire.encode_message(msg))
    net.run(until=5)
    assert m.drops == {"no_pending": 1}
    assert r["a"].routes == {}


def test_link_break_reports_travel_back_and_trigger_rediscovery():
    names = ["a", "b", "c"]
    net, r, reg, m, keys = build(names, line(names))
    r["a"].start_discovery("c")
    net.run(until=10)
    send_payload(r["a"], "c", b"hi")
    net.run(until=12)
    assert r["c"].transport.received == [("a", b"hi")]

    net.set_link("b", "c", up=False)
    send_payload(r["a"], "c", b"again")
    net.run(until=30)

    c_id = r["c"].node_id
    assert [ev.node for ev in m.of("rerr_sent")] == ["b"]
    assert [ev.node for ev in m.of("rerr_accepted")] == ["a"]
    assert c_id not in r["b"].routes
    # automatic retry is pending; heal the link and let it fire
    net.set_link("b", "c", up=True)
    net.run(until=130)

    assert len(m.discovery_latency_ticks) == 2
    assert r["a"].routes[c_id].next_hop == "b"
    # the in-flight payload died at the break; reliability is not this layer's job
    assert r["c"].transport.received == [("a", b"hi")]


def test_break_report_from_off_path_node_is_rejected():
    names = ["a", "b", "c", "x"]
    links = line(["a", "b", "c"]) + [("x", "b")]
    net, r, reg, m, keys = build(names, links)
    r["a"].start_discovery("c")
    net.run(until=10)

    c_id = r["c"].node_id
    x = r["x"]
    x.seq += 1
    core = wire.RouteCore(kind=wire.KIND_RERR, src_ip="x", src_id=x.node_id,
                          src_seq=x.seq, bct_id=1, dst_ip="a",
                          originator_id=c_id)
    agg = routing.sign_origin(core, keys["x"].signing)
    msg = wire.RouteMessage(core=core, hops=(),
                            sig_mode=wire.sig_mode_for(1), sec_level=1,
                            aggregate=agg, source_sig=None)
    net.unicast("x", "b", wire.encode_message(msg))
    net.run(until=20)

    assert m.drops.get("id_mismatch") == 1
    assert c_id in r["b"].routes
    assert c_id in r["a"].routes


def test_data_for_unknown_destination_is_unroutable():
    names = ["a", "b", "m"]
    net, r, reg, m, keys = build(names, [("a", "b"), ("m", "b")], stubs=("m",))
    seg = wire.Segment(role=wire.ROLE_DATA, src_port=0, dst_port=0, seq=0,
                       ack=0, payload=b"x", tag=b"\x00" * 32)
    pkt = wire.DataPacket(src_ip="m", dst_ip="nowhere", segment=seg)
    net.unicast("m", "b", wire.encode_message(pkt))
    net.run(until=5)
    assert m.drops == {"no_route": 1}


def test_send_before_discovery_queues_then_flushes():
    names = ["a", "b", "c"]
    net, r, reg, m, keys = build(names, line(names))
    send_payload(r["a"], "c", b"first")
    net.run(until=20)
    assert r["c"].transport.received == [("a", b"first")]
    assert m.discovery_latency_ticks == [4]


def test_discovery_gives_up_after_bounded_retries():
    names = ["a", "b", "f"]
    net, r, reg, m, keys = build(names, [("a", "b")])   # f is unreachable
    send_payload(r["a"], "f", b"lost")
    net.run(until=400)
    attempts = [ev.fields for ev in m.of("discovery")
                if ev.fields["target"] == "f"]
    assert [d["attempt"] for d in attempts] == [1, 2, 3]
    assert r["a"].pending == {}
    assert not r["a"].send_queue.get("f")
    assert r["f"].routes == {}


@pytest.mark.parametrize("sec_level", [0, 1])
def test_forwarded_request_wire_shape(sec_level):
    names = ["a", "b", "c", "d"]
    net, r, reg, m, keys = build(names, line(names), sec_level=sec_level,
                                 stubs=("d",))
    r["a"].start_discovery("d")
    net.run(until=10)

    # d records c's forwarded copy without replying
    raw = [p for s, p in r["d"].received if s == "c"]
    assert raw
    msg = wire.decode_message(raw[0])
    if sec_level == 1:
        assert msg.hops == (r["b"].node_id, r["c"].node_id)
        assert msg.aggregate.signer_count == 3
        assert len(msg.aggregate.overflow_bits) == 2
        assert msg.source_sig is None
    else:
        assert msg.hops == (r["c"].node_id,)
        assert msg.aggregate.signer_count == 2
        assert msg.source_sig is not None


def test_same_seed_runs_produce_identical_traces():
    def go():
        names = list("abcde")
        net, r, reg, m, keys = build(names, line(names), seed=99)
        r["a"].start_discovery("e")
        net.run(until=20)
        send_payload(r["a"], "e", b"data!")
        net.run(until=40)
        return net.trace_text()

    assert go() == go()
