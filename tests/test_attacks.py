"""Nine adversary behaviors, run against plain and authenticated networks.

Every kind must succeed on the plain network and be either detected (hostile
frames dropped with a telltale reason) or neutralized (no effect at all) on
the secured one.
"""

import json
import os

import pytest

from manetsec import attacks, identity, routing, scenario, sim, transport
from manetsec.crypto import derive_seed, generate_node_keys

EXPECTED_SECURE = {
    "seq_inflate": "detected",
    "hop_shorten": "detected",
    "redirect": "detected",
    "tunnel": "neutralized",
    "impersonate": "detected",
    "fake_rerr": "detected",
    "syn_flood": "neutralized",
    "session_hijack": "detected",
    "ack_inject": "detected",
}

PAYLOAD = b"the real payload"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCEN = os.path.join(ROOT, "scenarios")


def topology(kind):
    if kind == "seq_inflate":
        return (["a", "d"], ["m"],
                [("a", "m"), ("m", "d")],
                attacks.AttackSpec(kind=kind, attacker="m", src="a", dst="d"),
                [(1, lambda r, ep: r["a"].start_discovery("d"))])
    if kind == "hop_shorten":
        return (["a", "f", "d"], ["m"],
                [("a", "f"), ("f", "m"), ("m", "d")],
                attacks.AttackSpec(kind=kind, attacker="m", src="a", dst="d",
                                   max_distance=2),
                [(1, lambda r, ep: r["a"].start_discovery("d"))])
    if kind == "redirect":
        return (["a", "b", "d"], ["m"],
                [("a", "b"), ("b", "d"), ("a", "m")],
                attacks.AttackSpec(kind=kind, attacker="m", src="a", dst="d"),
                [(1, lambda r, ep: r["a"].start_discovery("d"))])
    if kind == "tunnel":
        return (["a", "b", "c", "d", "e"], ["m1", "m2"],
                [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
                 ("a", "m1"), ("e", "m2"),
                 ("m1", "m2", dict(latency=0, tunnel=True))],
                attacks.AttackSpec(kind=kind, attacker="m1", partner="m2",
                                   src="a", dst="e"),
                [(1, lambda r, ep: r["a"].start_discovery("e"))])
    if kind == "impersonate":
        return (["a", "d"], ["m"],
                [("m", "d")],
                attacks.AttackSpec(kind=kind, attacker="m", src="a", dst="d",
                                   start=5),
                [])
    if kind == "fake_rerr":
        return (["a", "b", "c"], ["x"],
                [("a", "b"), ("b", "c"), ("x", "b")],
                attacks.AttackSpec(kind=kind, attacker="x", src="a", dst="c",
                                   through="b", start=25),
                [(1, lambda r, ep: r["a"].start_discovery("c"))])
    if kind == "syn_flood":
        return (["b"], ["m"],
                [("m", "b")],
                attacks.AttackSpec(kind=kind, attacker="m", dst="b", start=2,
                                   rate=50, duration=5, capacity=8),
                [])
    if kind == "session_hijack":
        return (["a", "b"], ["m"],
                [("a", "b"), ("m", "b")],
                attacks.AttackSpec(kind=kind, attacker="m", src="a", dst="b",
                                   start=40),
                [(2, lambda r, ep: ep["a"].connect("b", 5000, 80))])
    # ack_inject: forged second handshake segment racing the real one
    return (["a", "b"], ["m"],
            [("a", "b"), ("m", "a")],
            attacks.AttackSpec(kind=kind, attacker="m", src="a", dst="b",
                               start=11, expected_payload=PAYLOAD),
            [(10, lambda r, ep: ep["a"].connect("b", 5000, 80, data=PAYLOAD,
                                                close=True))])


def run_attack(kind, secure, seed=17, until=400):
    honest, bad, links, spec, plan = topology(kind)
    reg = identity.Registry()
    metrics = sim.Metrics()
    net = sim.Network(seed=seed, metrics=metrics)
    keys = {}
    for n in honest + bad:
        keys[n] = generate_node_keys(derive_seed(seed, "keys", n), 256)
        reg.add(identity.NodeIdentity.from_keys(keys[n], n))
    routers, endpoints = {}, {}
    tcp_cfg = transport.TcpConfig(half_open_capacity=spec.capacity)
    for n in honest:
        cfg = routing.NodeConfig(name=n, keys=keys[n], secure=secure,
                                 sec_level=1, master_seed=seed)
        routers[n] = routing.RouterNode(cfg, reg, net)
        endpoints[n] = transport.TcpEndpoint(routers[n], tcp_cfg)
    attacks.deploy(spec, keys, reg, net)
    for item in links:
        net.add_link(*item[:2], **(item[2] if len(item) > 2 else {}))
    if kind in ("syn_flood", "session_hijack", "ack_inject"):
        endpoints["b"].listen(80)
    for delay, fn in plan:
        net.schedule(delay, fn, routers, endpoints)
    net.run(until=until)
    verdict = attacks.judge(spec, metrics, reg, net.trace)
    return verdict, metrics, routers, endpoints, reg, spec


@pytest.mark.parametrize("kind", attacks.ATTACK_KINDS)
def test_every_kind_succeeds_on_the_plain_network(kind):
    verdict, m, *_ = run_attack(kind, secure=False)
    assert verdict == "succeeded"


@pytest.mark.parametrize("kind", attacks.ATTACK_KINDS)
def test_every_kind_is_countered_on_the_secure_network(kind):
    verdict, m, *_ = run_attack(kind, secure=True)
    assert verdict == EXPECTED_SECURE[kind]


def test_flood_fills_the_plain_table_but_allocates_nothing_secure():
    _, m, r, ep, reg, spec = run_attack("syn_flood", secure=False)
    assert m.peak_half_open == spec.capacity
    assert m.drops.get("table_full", 0) == spec.rate * spec.duration - spec.capacity
    _, m2, r2, ep2, _, _ = run_attack("syn_flood", secure=True)
    assert m2.peak_half_open == 0
    assert m2.drops.get("tag_mismatch", 0) == spec.rate * spec.duration
    assert not ep2["b"].conns


def test_hijacked_bytes_reach_the_plain_application_stream():
    _, m, *_ = run_attack("session_hijack", secure=False)
    assert any(b"HIJACKED" in v for v in m.delivered_payloads.values())
    _, m2, *_ = run_attack("session_hijack", secure=True)
    assert not any(b"HIJACKED" in v for v in m2.delivered_payloads.values())


def test_wormhole_owns_the_plain_route_but_not_the_secure_one():
    _, m, r, ep, reg, spec = run_attack("tunnel", secure=False)
    e_id = reg.by_ip("e").node_id
    assert r["a"].routes[e_id].next_hop in ("m1", "m2")
    _, m2, r2, ep2, reg2, _ = run_attack("tunnel", secure=True)
    e_id2 = reg2.by_ip("e").node_id
    assert r2["a"].routes[e_id2].next_hop == "b"
    assert m2.drops.get("id_mismatch", 0) >= 1   # replayed frames refused


def test_forged_route_reply_captures_the_plain_route():
    _, m, r, ep, reg, spec = run_attack("redirect", secure=False)
    d_id = reg.by_ip("d").node_id
    assert r["a"].routes[d_id].next_hop == "m"


def test_forged_handshake_reply_wedges_only_the_plain_connection():
    _, m, r, ep, *_ = run_attack("ack_inject", secure=False)
    assert ep["a"].conns[("b", 5000, 80)].state == "failed"
    assert ("b", "a", 80, 5000) not in m.delivered_payloads
    _, m2, *_ = run_attack("ack_inject", secure=True)
    assert m2.delivered_payloads[("b", "a", 80, 5000)] == PAYLOAD


@pytest.mark.parametrize("sec_level", [0, 1])
def test_only_drops_of_the_attackers_own_frames_count_as_detection(sec_level):
    # z has no links, so it never sends a frame; the impersonator's
    # id_mismatch/verify_failed drops must not be credited to z's redirect
    with open(os.path.join(SCEN, "attack_impersonate.json"),
              encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["nodes"].append("z")
    doc["events"].append({"tick": 5, "kind": "attach_attack", "attack": {
        "kind": "redirect", "attacker": "z", "src": "a", "dst": "d"}})
    result = scenario.run_scenario(doc, sec_level=sec_level)
    assert not [rec for rec in result.net.trace if rec.src == "z"]
    assert result.metrics.attack_verdicts == {"impersonate": "detected",
                                              "redirect": "neutralized"}
