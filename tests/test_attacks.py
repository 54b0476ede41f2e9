"""Nine adversary behaviors, run against plain and authenticated networks.

Every kind must succeed on the plain network and be either detected (hostile
frames dropped with a telltale reason) or neutralized (no effect at all) on
the secured one.
"""

import json
import os

import pytest

from conftest import EXPECTED_SECURE
from manetsec import attacks, scenario

PAYLOAD = b"the real payload"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCEN = os.path.join(ROOT, "scenarios")


def topology(kind):
    """The scenario document of `kind`'s attack run, seed 17 to tick 400:
    the adversaries are its last nodes, and each link is (a, b[, fields])."""
    def doc(nodes, links, events, start=1, **attack):
        return {"seed": 17, "run_until": 400, "nodes": nodes,
                "links": [dict(a=a, b=b, **(f[0] if f else {}))
                          for a, b, *f in links],
                "events": [{"tick": start, "kind": "attach_attack",
                            "attack": dict(kind=kind, **attack)}, *events]}

    def discovery(target):
        return [{"tick": 1, "kind": "start_discovery", "node": "a",
                 "target": target}]

    def flow(tick, **fields):
        return [{"tick": tick, "kind": "start_flow", "client": "a",
                 "server": "b", **fields}]

    if kind == "seq_inflate":
        return doc(["a", "d", "m"], [("a", "m"), ("m", "d")], discovery("d"),
                   attacker="m", src="a", dst="d")
    if kind == "hop_shorten":
        return doc(["a", "f", "d", "m"], [("a", "f"), ("f", "m"), ("m", "d")],
                   discovery("d"), attacker="m", src="a", dst="d")
    if kind == "redirect":
        return doc(["a", "b", "d", "m"], [("a", "b"), ("b", "d"), ("a", "m")],
                   discovery("d"), attacker="m", src="a", dst="d")
    if kind == "tunnel":
        return doc(["a", "b", "c", "d", "e", "m1", "m2"],
                   [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
                    ("a", "m1"), ("e", "m2"),
                    ("m1", "m2", dict(latency=0, tunnel=True))],
                   discovery("e"), attacker="m1", partner="m2", src="a",
                   dst="e")
    if kind == "impersonate":
        return doc(["a", "d", "m"], [("m", "d")], [], start=5, attacker="m",
                   src="a", dst="d")
    if kind == "fake_rerr":
        return doc(["a", "b", "c", "x"], [("a", "b"), ("b", "c"), ("x", "b")],
                   discovery("c"), start=25, attacker="x", src="a", dst="c",
                   through="b")
    if kind == "syn_flood":
        return doc(["b", "m"], [("m", "b")], [], start=2, attacker="m",
                   dst="b")
    if kind == "session_hijack":
        return doc(["a", "b", "m"], [("a", "b"), ("m", "b")],
                   flow(2, close=False), start=40, attacker="m", src="a",
                   dst="b")
    # ack_inject: forged second handshake segment racing the real one
    return doc(["a", "b", "m"], [("a", "b"), ("m", "a")],
               flow(10, payload=PAYLOAD.decode(), close=True), start=11,
               attacker="m", src="a", dst="b")


def run_attack(kind, secure):
    """(verdict, metrics, routers, endpoints, registry, bound spec) of
    `kind`'s document run in secure or baseline mode."""
    result = scenario.run_scenario(topology(kind),
                                   mode="secure" if secure else "baseline")
    spec = result.scenario.attack_specs[0]
    return (result.metrics.attack_verdicts[kind], result.metrics,
            result.routers, result.endpoints, result.registry, spec)


@pytest.mark.parametrize("kind", attacks.KINDS)
def test_every_kind_succeeds_on_the_plain_network(kind):
    verdict, m, *_ = run_attack(kind, secure=False)
    assert verdict == "succeeded"


@pytest.mark.parametrize("kind", attacks.KINDS)
def test_every_kind_is_countered_on_the_secure_network(kind):
    verdict, m, *_ = run_attack(kind, secure=True)
    assert verdict == EXPECTED_SECURE[kind]


def test_flood_fills_the_plain_table_but_allocates_nothing_secure():
    syns = attacks.FLOOD_RATE * attacks.FLOOD_TICKS
    _, m, r, ep, reg, spec = run_attack("syn_flood", secure=False)
    assert m.peak_half_open == spec.capacity
    assert m.drops.get("table_full", 0) == syns - spec.capacity
    _, m2, r2, ep2, _, _ = run_attack("syn_flood", secure=True)
    assert m2.peak_half_open == 0
    assert m2.drops.get("tag_mismatch", 0) == syns
    assert not ep2["b"].conns


def test_hijacked_bytes_reach_the_plain_application_stream():
    _, m, *_ = run_attack("session_hijack", secure=False)
    assert any(b"HIJACKED" in v for v in m.delivered_payloads.values())
    _, m2, *_ = run_attack("session_hijack", secure=True)
    assert not any(b"HIJACKED" in v for v in m2.delivered_payloads.values())


def test_wormhole_owns_the_plain_route_but_not_the_secure_one():
    _, m, r, ep, reg, spec = run_attack("tunnel", secure=False)
    assert r["a"].routes["e"].next_hop in ("m1", "m2")
    _, m2, r2, ep2, reg2, _ = run_attack("tunnel", secure=True)
    assert r2["a"].routes["e"].next_hop == "b"
    assert m2.drops.get("id_mismatch", 0) >= 1   # replayed frames refused


def test_forged_route_reply_captures_the_plain_route():
    _, m, r, ep, reg, spec = run_attack("redirect", secure=False)
    assert r["a"].routes["d"].next_hop == "m"


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


@pytest.mark.parametrize("sec_level", [0, 1])
def test_inflating_to_a_seq_the_source_issued_is_no_harm(sec_level,
                                                         monkeypatch):
    # every honest install has seq >= 1, so an attacker that "inflates" the
    # source's seq to 1 forged nothing a node could be harmed by
    doc = scenario.load_file(os.path.join(SCEN, "attack_seq_inflate.json"))

    def verdict(mode):
        result = scenario.run_scenario(doc, mode=mode, sec_level=sec_level)
        return result.metrics.attack_verdicts["seq_inflate"]

    assert verdict("baseline") == "succeeded"
    assert verdict("secure") == "detected"
    monkeypatch.setattr(attacks, "FORGED_SEQ", 1)
    assert verdict("secure") != "succeeded"


@pytest.mark.parametrize("sec_level", [0, 1])
def test_a_cut_request_teaches_dst_a_route_of_distance_two(sec_level):
    # why the hop_shorten oracle needs no distance rule: whatever the
    # attacker cut, its neighbour dst counts the route through it as 2
    path = os.path.join(SCEN, "attack_hop_shorten.json")
    for mode in scenario.MODES:
        result = scenario.run_scenario(scenario.load_file(path), mode=mode,
                                       sec_level=sec_level)
        spec, = result.scenario.attack_specs
        cut = {ev.fields["seq"] for ev in result.metrics.of("shortened")
               if ev.node == spec.attacker
               and ev.fields["origin"] == spec.src}
        taught = [ev.fields["distance"] for ev in result.metrics.of("route")
                  if ev.node == spec.dst and ev.fields["dst"] == spec.src
                  and ev.fields["via"] == "RREQ"
                  and ev.fields["next_hop"] == spec.attacker
                  and ev.fields["seq"] in cut]
        assert set(taught) <= {2}, (mode, taught)
        if mode == "baseline":
            assert taught, mode


def _hop_to_a_neighbour(doc):
    # f is a's neighbour, so its honest route to a reads distance 1
    doc["events"][0]["attack"]["dst"] = "f"


def _hop_beside_an_honest_path(doc):
    # a-g-h-d bypasses m; at level 0 every route reads distance 2
    doc["nodes"] += ["g", "h"]
    doc["links"] += [{"a": "a", "b": "g"}, {"a": "g", "b": "h"},
                     {"a": "h", "b": "d"}]


def _hop_straight_from_the_source(doc):
    # m hears a directly, so its copy cuts no hop and d's route is true
    doc["links"].append({"a": "a", "b": "m"})


def _hop_on_a_bare_line(doc):
    # a-m-d: m is the only relay and has no hop record to cut
    doc["nodes"].remove("f")
    doc["links"] = [{"a": "a", "b": "m"}, {"a": "m", "b": "d"}]


def _rerr_after_a_real_break(doc):
    # b genuinely reports the break of b-c under a flow a->c
    doc["events"] += [
        {"tick": 20, "kind": "start_flow", "client": "a", "server": "c",
         "payload": "x" * 5000},
        {"tick": 30, "kind": "link_down", "a": "b", "b": "c"}]


def _ack_over_a_dead_link(doc):
    # the flow cannot finish, whatever the attacker sends
    doc["events"].append({"tick": 1, "kind": "link_down", "a": "a",
                          "b": "b"})


@pytest.mark.parametrize("sec_level", [0, 1])
@pytest.mark.parametrize("kind,change", [
    ("hop_shorten", _hop_to_a_neighbour),
    ("hop_shorten", _hop_beside_an_honest_path),
    ("fake_rerr", _rerr_after_a_real_break),
    ("ack_inject", _ack_over_a_dead_link),
    ("hop_shorten", _hop_straight_from_the_source),
    ("hop_shorten", _hop_on_a_bare_line),
], ids=lambda v: getattr(v, "__name__", v))
def test_honest_routes_and_failures_are_not_credited_to_the_attack(
        kind, change, sec_level):
    doc = scenario.load_file(os.path.join(SCEN, "attack_%s.json" % kind))

    def verdict(mode):
        result = scenario.run_scenario(doc, mode=mode, sec_level=sec_level)
        return result.metrics.attack_verdicts[kind]

    assert verdict("baseline") == "succeeded"
    assert verdict("secure") == "detected"
    change(doc)
    assert verdict("secure") != "succeeded"


def _inflate_through_a_relay(doc):
    # d relays the inflated request on to c and installs its route to a
    doc["nodes"].append("c")
    doc["links"].append({"a": "d", "b": "c"})
    doc["events"][1]["target"] = "c"


def _redirect_through_a_relay(doc):
    # a relays the forged reply on to s and installs its route to d
    doc["nodes"].append("s")
    doc["links"].append({"a": "s", "b": "a"})
    doc["events"][1]["node"] = "s"


# A level-0 relay checks only the last hop's binding; the origin signature
# is checked at the endpoint alone, yet the relay installs a route from the
# core it never checked (ROADMAP defect 2a).
_RELAY_BUG = pytest.mark.xfail(strict=True, reason="level-0 relays install "
                               "routes from unchecked cores")


@pytest.mark.parametrize("sec_level", [pytest.param(0, marks=_RELAY_BUG), 1])
@pytest.mark.parametrize("kind,change", [
    ("seq_inflate", _inflate_through_a_relay),
    ("redirect", _redirect_through_a_relay),
], ids=lambda v: getattr(v, "__name__", v))
def test_a_relay_installs_no_route_from_a_forged_core(kind, change,
                                                      sec_level):
    doc = scenario.load_file(os.path.join(SCEN, "attack_%s.json" % kind))
    change(doc)
    result = scenario.run_scenario(doc, sec_level=sec_level)
    assert result.metrics.attack_verdicts[kind] != "succeeded"
