"""Scenario documents, the runner, and the command line tools."""

import json
import os
import string
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from conftest import capture_frames
from manetsec import attacks, cli, crypto, identity, scenario, sim

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCEN = os.path.join(ROOT, "scenarios")


def doc_two_nodes(**over):
    doc = {
        "seed": 5,
        "key_bits": 256,
        "nodes": ["a", "b"],
        "links": [{"a": "a", "b": "b"}],
        "run_until": 40,
        "events": [
            {"tick": 1, "kind": "start_discovery", "node": "a", "target": "b"}
        ],
    }
    doc.update(over)
    return doc


def doc_with_node(name):
    """Two nodes, "a" and `name`, with one discovery from "a"."""
    return doc_two_nodes(nodes=["a", name], links=[{"a": "a", "b": name}],
                         events=[{"tick": 1, "kind": "start_discovery",
                                  "node": "a", "target": name}])


def doc_with_attack(payload="hello", **attack):
    """A flow a->b carrying `payload` and a session hijack by m, with
    `attack` fields added."""
    return doc_two_nodes(
        nodes=["a", "b", "m"],
        links=[{"a": "a", "b": "b"}, {"a": "m", "b": "b"}],
        events=[{"tick": 1, "kind": "start_flow", "client": "a",
                 "server": "b", "client_port": 6001, "server_port": 8080,
                 "payload": payload},
                {"tick": 2, "kind": "attach_attack",
                 "attack": dict({"kind": "session_hijack", "attacker": "m",
                                 "src": "a", "dst": "b"}, **attack)}])


def flood_doc(**attack):
    """A SYN flood by b against a, with `attack` fields added."""
    return doc_two_nodes(events=[
        {"tick": 0, "kind": "attach_attack",
         "attack": dict({"kind": "syn_flood", "attacker": "b", "dst": "a"},
                        **attack)}])


def attacks_doc(*specs):
    """Nodes a, b, m and m2, with one attach_attack event per attack."""
    return doc_two_nodes(nodes=["a", "b", "m", "m2"], events=[
        {"tick": 0, "kind": "attach_attack", "attack": spec}
        for spec in specs])


def flows_doc(*flows):
    """Nodes a and b, with one start_flow event per (tick, client, server,
    client_port, server_port)."""
    return doc_two_nodes(events=[
        {"tick": tick, "kind": "start_flow", "client": client,
         "server": server, "client_port": cport, "server_port": sport,
         "payload": "flow %d" % tick}
        for tick, client, server, cport, sport in flows])


# A node named as an adversary twice, by one spec or by two; unless parse
# rejects it (exit 2), the run fails adding the node again (exit 3).
TWICE_ADVERSARY_DOCS = [
    (attacks_doc({"kind": "tunnel", "attacker": "m", "partner": "m",
                  "src": "a", "dst": "b"}),
     "'m' is named as an adversary more than once"),
    (attacks_doc({"kind": "impersonate", "attacker": "m", "src": "a",
                  "dst": "b"},
                 {"kind": "redirect", "attacker": "m", "src": "a",
                  "dst": "b"}),
     "'m' is named as an adversary more than once"),
    (attacks_doc({"kind": "tunnel", "attacker": "m", "partner": "m2",
                  "src": "a", "dst": "b"},
                 {"kind": "redirect", "attacker": "m2", "src": "a",
                  "dst": "b"}),
     "'m2' is named as an adversary more than once"),
]

# Values of the right JSON type that the wire or UTF-8 cannot carry; unless
# parse rejects them (exit 2), the run fails inside (exit 3).
UNENCODABLE_DOCS = [
    (doc_with_attack(kind="seq_inflate", inflate_to=1 << 64),
     "inflate_to: must be <= 18446744073709551615"),
    (doc_with_node("x" * 70000), "at most 65535 UTF-8 bytes"),
    (doc_with_node("\ud800"), "nodes[1]: not encodable as UTF-8"),
    (doc_two_nodes(events=[{"tick": 1, "kind": "start_flow", "client": "a",
                            "server": "b", "payload": "\ud800"}]),
     "events[0].payload: not encodable as UTF-8"),
    (doc_with_attack(marker="x\ud800"),
     "events[1].attack.marker: not encodable as UTF-8"),
]


def write(tmp_path, doc, name="scen.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_minimal_run_reports_the_exact_metrics_fields():
    result = scenario.run_scenario(doc_two_nodes())
    doc = json.loads(result.metrics_json())
    assert sorted(doc) == ["attack_verdicts", "control_bytes", "data_bytes",
                           "discovery_latency_ticks", "drops",
                           "key_agreement", "peak_half_open",
                           "routes_installed", "signature_ops"]
    assert doc["discovery_latency_ticks"] == [2]
    assert doc["key_agreement"] is True
    assert doc["signature_ops"]["signed"] == 2
    assert doc["attack_verdicts"] == {}
    assert doc["data_bytes"] == 0
    assert doc["control_bytes"] > 0


def test_same_document_always_yields_the_same_bytes():
    a = scenario.run_scenario(doc_two_nodes())
    b = scenario.run_scenario(doc_two_nodes())
    assert a.metrics_json() == b.metrics_json()
    assert a.trace_text() == b.trace_text()


def test_overrides_change_mode_sec_level_and_seed():
    r = scenario.run_scenario(doc_two_nodes(), mode="baseline")
    m = json.loads(r.metrics_json())
    assert m["signature_ops"] == {"signed": 0, "verified": 0}
    assert m["key_agreement"] is True   # vacuously: nothing was exchanged
    r2 = scenario.run_scenario(doc_two_nodes(), seed=99)
    assert r2.scenario.seed == 99
    r3 = scenario.run_scenario(doc_two_nodes(), sec_level=0)
    assert r3.scenario.sec_level == 0
    assert json.loads(r3.metrics_json())["key_agreement"] is True
    # an override replaces the field before it is checked
    assert scenario.parse(doc_two_nodes(mode="stealth"),
                          mode="baseline").mode == "baseline"


@pytest.mark.parametrize("override,fragment", [
    ({"sec_level": 2}, "scenario.sec_level: must be 0 or 1"),
    ({"mode": "stealth"}, "scenario.mode: expected one of secure/baseline"),
    ({"seed": -1}, "scenario.seed: must be >= 0"),
])
def test_an_override_obeys_the_rule_for_its_field(override, fragment):
    with pytest.raises(scenario.ScenarioError) as err:
        scenario.run_scenario(doc_two_nodes(), **override)
    assert fragment in str(err.value)


def test_overrides_do_not_hide_a_document_that_is_not_an_object():
    with pytest.raises(scenario.ScenarioError) as err:
        scenario.run_scenario([], mode="secure")
    assert "must be a JSON object" in str(err.value)


def test_the_run_level_override_reaches_every_attack_spec():
    result = scenario.run_scenario(doc_with_attack(), sec_level=0)
    assert result.scenario.attack_specs
    assert all(s.sec_level == 0 for s in result.scenario.attack_specs)


NOT_ARRAYS = [5, None, 1.5, True]

# the line boundaries str.splitlines knows, which verify-trace splits at
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"

BAD_DOCS = [
    ({}, "missing required field 'seed'"),
    (doc_two_nodes(nodes=[]), "non-empty array"),
    (doc_two_nodes(nodes=["a", "a"]), "duplicate node"),
    (doc_two_nodes(nodes=["a", "b\tc"]), "tabs"),
    (doc_two_nodes(links=[{"a": "a", "b": "z"}]), "not a declared node"),
    (doc_two_nodes(links=[{"a": "a", "b": "b", "loss": 1.5}]),
     "between 0 and 1"),
    (doc_two_nodes(links=[{"a": "a", "b": "b"}, {"a": "b", "b": "a"}]),
     "duplicate link"),
    (doc_two_nodes(events=[{"tick": 1, "kind": "warp"}]),
     "unknown event kind"),
    (doc_two_nodes(events=[{"kind": "start_discovery", "node": "a",
                            "target": "b"}]),
     "missing required field 'tick'"),
    (doc_two_nodes(links=[],
                   events=[{"tick": 1, "kind": "link_down",
                            "a": "a", "b": "b"}]),
     "no such link"),
    (doc_two_nodes(zebra=1), "unknown top-level field"),
    (doc_two_nodes(sec_level=3), "must be 0 or 1"),
    (doc_two_nodes(mode="stealth"), "expected one of"),
    (doc_two_nodes(events=[{"tick": 0, "kind": "attach_attack",
                            "attack": {"kind": "nope", "attacker": "b"}}]),
     "unknown attack kind"),
    (doc_two_nodes(events=[{"tick": 0, "kind": "attach_attack",
                            "attack": {"kind": "syn_flood", "attacker": "b",
                                       "dst": "a", "extra": 1}}]),
     "unexpected field"),
    (doc_two_nodes(events=[{"tick": 0, "kind": "attach_attack",
                            "attack": {"kind": "session_hijack",
                                       "attacker": "b", "src": "a",
                                       "dst": "a"}}]),
     "needs a start_flow"),
    (doc_two_nodes(events=[
        {"tick": 1, "kind": "start_discovery", "node": "a", "target": "b"},
        {"tick": 0, "kind": "attach_attack",
         "attack": {"kind": "impersonate", "attacker": "b", "src": "a",
                    "dst": "b"}}]),
     "adversary"),
    (doc_two_nodes(tcp={"rto": 0}), "must be >= 1"),
    (doc_two_nodes(key_bits=64, dh_bits=80), "below key_bits"),
    (doc_two_nodes(key_bits=2050), "key_bits: must be <= 2048"),
    (doc_two_nodes(key_bits=2048, dh_bits=4000), "dh_bits: must be <= 512"),
    (doc_two_nodes(key_bits=2048, dh_bits=514), "dh_bits: must be <= 512"),
    (doc_two_nodes(events=[{"tick": 1, "kind": "start_discovery", "node": "a",
                            "target": "b", "retries": 2}]),
     "events[0]: unexpected field 'retries'"),
    (doc_two_nodes(events=[{"tick": 1, "kind": "start_flow", "client": "a",
                            "server": "b", "clientport": 7001}]),
     "events[0]: unexpected field 'clientport'"),
    (doc_two_nodes(events=[{"tick": 3, "kind": "link_down", "a": "a",
                            "b": "b", "latency": 2}]),
     "events[0]: unexpected field 'latency'"),
    (doc_two_nodes(events=[{"tick": 3, "kind": "link_up", "a": "a",
                            "b": "b", "node": "a"}]),
     "events[0]: unexpected field 'node'"),
    (doc_two_nodes(events=[{"tick": 0, "kind": "attach_attack", "dst": "a",
                            "attack": {"kind": "syn_flood", "attacker": "b",
                                       "dst": "a"}}]),
     "events[0]: unexpected field 'dst'"),
] + UNENCODABLE_DOCS + [
    # a hijack marker that honest traffic already delivers proves nothing
    (doc_with_attack(payload="hi", marker=""), "needs a non-empty marker"),
    (doc_with_attack(payload="say HIJACKED now"),
     "marker 'HIJACKED' occurs in the payload of the flow a->b"),
    (doc_with_attack(marker="ell"), "marker 'ell' occurs in the payload"),
    (flood_doc(rate=1000000000),
     "rate x duration must be <= 100000 forged SYNs, got 5000000000"),
    (flood_doc(rate=20001, duration=5), "rate x duration must be <= 100000"),
] + TWICE_ADVERSARY_DOCS + [
    (doc_two_nodes(links=links), "scenario.links: expected an array")
    for links in NOT_ARRAYS
] + [
    # a parameter or node field the attack's kind never reads
    (attacks_doc({"kind": "impersonate", "attacker": "m", "src": "a",
                  "dst": "b", "rate": 7}),
     "events[0].attack: impersonate attack: unexpected field 'rate'"),
    (attacks_doc({"kind": "seq_inflate", "attacker": "m", "src": "a",
                  "dst": "b", "max_distance": 3}),
     "seq_inflate attack: unexpected field 'max_distance'"),
    (attacks_doc({"kind": "hop_shorten", "attacker": "m", "src": "a",
                  "dst": "b", "inflate_to": 5}),
     "hop_shorten attack: unexpected field 'inflate_to'"),
    (flood_doc(marker="zz"), "syn_flood attack: unexpected field 'marker'"),
    (doc_with_attack(duration=9),
     "session_hijack attack: unexpected field 'duration'"),
    (attacks_doc({"kind": "redirect", "attacker": "m", "src": "a",
                  "dst": "b", "partner": "m2"}),
     "redirect attack: unexpected field 'partner'"),
    (attacks_doc({"kind": "tunnel", "attacker": "m", "partner": "m2",
                  "src": "a", "dst": "b", "through": "a"}),
     "tunnel attack: unexpected field 'through'"),
] + [
    (doc_with_node(name), "nodes[1]: node names may not contain tabs or line "
                          "breaks")
    for name in ["b%sc" % brk for brk in LINE_BREAKS] + ["b\r\nc", "b\r"]
] + [
    (doc_two_nodes(mode=5), "scenario.mode: expected a string, got 5"),
    (doc_two_nodes(key_bits=65), "scenario.key_bits: must be even"),
    (doc_two_nodes(links=["a-b"]), "links[0]: expected an object"),
    (doc_two_nodes(events=[5]), "events[0]: expected an object"),
    (doc_two_nodes(links=[{"a": "a", "b": "a"}]),
     "links[0]: link endpoints must differ"),
    (flows_doc((1, "a", "a", 5000, 80)),
     "events[0]: flow endpoints must differ"),
    (doc_two_nodes(links=[{"a": "a", "b": "b", "tunnel": 1}]),
     "links[0].tunnel: expected true or false"),
    (doc_two_nodes(events=[{"tick": 1, "kind": "start_flow", "client": "a",
                            "server": "b", "close": "yes"}]),
     "events[0].close: expected true or false"),
    (doc_two_nodes(links=[{"a": "a", "b": "b", "loss": "0.1"}]),
     "links[0].loss: expected a number"),
    (doc_two_nodes(tcp=[]), "scenario.tcp: expected an object"),
    (doc_two_nodes(events={}), "scenario.events: expected an array"),
    (doc_two_nodes(events=[{"tick": 1, "kind": "start_discovery",
                            "node": "a", "target": "a"}]),
     "events[0]: a node cannot discover itself"),
    (flows_doc((1, "a", "b", 65536, 80)),
     "events[0]: ports must fit in 16 bits"),
    (doc_two_nodes(events=[{"tick": 0, "kind": "attach_attack"}]),
     "events[0]: missing 'attack' object"),
    (attacks_doc({"kind": "syn_flood", "attacker": "m", "dst": "a"},
                 {"kind": "syn_flood", "attacker": "m2", "dst": "b"}),
     "events: at most one attack of each kind per scenario"),
    (doc_two_nodes(nodes=["a", "b", "m"], events=[
        {"tick": 1, "kind": "start_flow", "client": "m", "server": "b"},
        {"tick": 0, "kind": "attach_attack",
         "attack": {"kind": "syn_flood", "attacker": "m", "dst": "a"}}]),
     "events: 'm' is an adversary and cannot be a flow endpoint"),
    (attacks_doc({"kind": "syn_flood", "attacker": "m", "dst": "m2"},
                 {"kind": "impersonate", "attacker": "m2", "src": "a",
                  "dst": "b"}),
     "events: attack 'syn_flood' names adversary 'm2' as a victim"),
]


def test_widest_allowed_widths_parse():
    # and run: a secure flow over two hops agrees a key over a 512-bit
    # group, checked with drawn bases, at either level
    doc = doc_two_nodes(
        key_bits=scenario.MAX_KEY_BITS, dh_bits=scenario.MAX_DH_BITS,
        nodes=["a", "b", "c"],
        links=[{"a": "a", "b": "b"}, {"a": "b", "b": "c"}],
        events=[{"tick": 1, "kind": "start_flow", "client": "a",
                 "server": "c", "payload": "wide"}])
    sc = scenario.parse(doc)
    assert (sc.key_bits, sc.dh_bits) == (2048, 512)
    for sec_level in (1, 0):
        r = scenario.run_scenario(doc, sec_level=sec_level)
        assert r.metrics.delivered_payloads[("c", "a", 80, 5000)] == b"wide"
        assert len(r.metrics.of("session_key")) == 2
        assert json.loads(r.metrics_json())["key_agreement"] is True


@pytest.mark.parametrize("doc,fragment", BAD_DOCS)
def test_malformed_documents_are_rejected_with_a_pointer(doc, fragment):
    with pytest.raises(scenario.ScenarioError) as err:
        scenario.parse(doc)
    assert fragment in str(err.value)


@pytest.mark.parametrize("name", sorted(os.listdir(SCEN)))
def test_shipped_scenarios_parse(name):
    scenario.parse(scenario.load_file(os.path.join(SCEN, name)))


def test_shipped_redirect_flips_verdict_by_mode():
    doc = scenario.load_file(os.path.join(SCEN, "attack_redirect.json"))
    secure = scenario.run_scenario(doc)
    assert secure.metrics.attack_verdicts == {"redirect": "detected"}
    base = scenario.run_scenario(doc, mode="baseline")
    assert base.metrics.attack_verdicts == {"redirect": "succeeded"}


def test_shipped_maintenance_run_heals_and_delivers():
    doc = scenario.load_file(os.path.join(SCEN, "line5_maintenance.json"))
    r = scenario.run_scenario(doc)
    assert r.metrics.of("rerr_sent")
    assert any(ev.node == "a" for ev in r.metrics.of("rerr_accepted"))
    assert r.metrics.delivered_payloads[("e", "a", 80, 5000)] == \
        b"the route heals"
    assert len(r.metrics.discovery_latency_ticks) >= 2   # initial + repair


def test_event_log_is_deterministic_and_in_tick_order():
    doc = scenario.load_file(os.path.join(SCEN, "line5_maintenance.json"))
    for sec_level in (1, 0):
        events = scenario.run_scenario(doc, sec_level=sec_level).metrics.events
        again = scenario.run_scenario(doc, sec_level=sec_level).metrics.events
        assert events == again, "level %d" % sec_level
        ticks = [ev.tick for ev in events]
        assert ticks == sorted(ticks), "level %d" % sec_level
        assert {"discovery", "route", "session_key", "rerr_sent",
                "rerr_accepted", "connect", "established",
                "deliver"} <= {ev.kind for ev in events}


@pytest.fixture
def keygen(monkeypatch):
    """Counts of crypto.generate_keypair calls, in all and inside
    Network.run, starting from an empty node key memo."""
    counts = {"total": 0, "in_run": 0}
    running = []
    keypair, run = crypto.generate_keypair, sim.Network.run

    def counted_keypair(*args):
        counts["total"] += 1
        counts["in_run"] += bool(running)
        return keypair(*args)

    def counted_run(net, until):
        running.append(net)
        try:
            return run(net, until)
        finally:
            running.pop()

    monkeypatch.setattr(crypto, "generate_keypair", counted_keypair)
    monkeypatch.setattr(sim.Network, "run", counted_run)
    crypto._node_keys.cache_clear()
    yield counts
    crypto._node_keys.cache_clear()


def test_grid_run_makes_encryption_pairs_for_its_endpoints_only(keygen):
    names = ["g%d%d" % (r, c) for r in range(8) for c in range(8)]
    links = [{"a": "g%d%d" % (r, c), "b": "g%d%d" % (r + dr, c + dc)}
             for r in range(8) for c in range(8)
             for dr, dc in ((0, 1), (1, 0)) if r + dr < 8 and c + dc < 8]
    flows = [("g00", "g77"), ("g07", "g70"), ("g33", "g45")]
    events = [{"tick": 1 + 5 * i, "kind": "start_flow", "client": a,
               "server": b, "client_port": 5000 + i, "payload": "x" * 600}
              for i, (a, b) in enumerate(flows)]
    events.append({"tick": 2, "kind": "start_discovery", "node": "g62",
                   "target": "g16"})
    endpoints = {"g00", "g77", "g07", "g70", "g33", "g45", "g62", "g16"}
    doc = {"seed": 9, "key_bits": 128, "nodes": names, "links": links,
           "run_until": 300, "events": events}
    result = scenario.run_scenario(doc)
    assert keygen == {"total": 64 + len(endpoints), "in_run": 0}
    # every endpoint's pair was used: each exchange completed at both ends
    assert {ev.node for ev in result.metrics.of("session_key")} == endpoints
    for i, (a, b) in enumerate(flows):
        assert result.metrics.delivered_payloads[(b, a, 80, 5000 + i)] == \
            b"x" * 600


@pytest.mark.parametrize("mode", scenario.MODES)
@pytest.mark.parametrize("name", sorted(os.listdir(SCEN)))
def test_shipped_scenarios_make_no_keys_inside_the_run(name, mode, keygen):
    doc = scenario.load_file(os.path.join(SCEN, name))
    scenario.run_scenario(doc, mode=mode)
    assert keygen["total"] > 0
    assert keygen["in_run"] == 0


@pytest.mark.parametrize("name", ["attack_seq_inflate.json",
                                  "attack_hop_shorten.json"])
def test_the_group_memo_cannot_be_seen_in_a_run(name, group_searches):
    """Secure runs at level 1, then 0, give the same outputs and frames
    whether every run starts with an empty group memo or finds the groups of
    the runs before. Only the frames carry the DH exponents a hit that left
    the stream behind would change."""
    doc = scenario.load_file(os.path.join(SCEN, name))

    def outputs(cold):
        crypto._dh_groups.clear()
        out = []
        for level in (1, 0):
            if cold:
                crypto._dh_groups.clear()
            with capture_frames() as frames:
                result = scenario.run_scenario(doc, mode="secure",
                                               sec_level=level)
            out.append((result.trace_text(), result.metrics_json(), frames))
        return out

    cold = outputs(cold=True)
    cold_searches = len(group_searches)
    del group_searches[:]
    warm = outputs(cold=False)
    assert warm == cold
    assert 0 < len(group_searches) < cold_searches   # level 0 found level 1's


def test_cli_run_writes_outputs_and_exits_zero(tmp_path, capsys):
    path = write(tmp_path, doc_two_nodes())
    out = tmp_path / "out"
    rc = cli.main(["run", "--scenario", path, "--out", str(out)])
    assert rc == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["key_agreement"] is True
    first = (out / "trace.tsv").read_text().splitlines()[0].split("\t")
    assert first[3] == "RREQ"


def test_cli_run_prints_metrics_without_out(tmp_path, capsys):
    path = write(tmp_path, doc_two_nodes())
    rc = cli.main(["run", "--scenario", path])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["routes_installed"] == 2


def test_cli_rejects_malformed_scenarios_without_writing(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"seed": []}')
    out = tmp_path / "out"
    rc = cli.main(["run", "--scenario", str(p), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("raw,fragment", [
    (b"\xff" + json.dumps(doc_two_nodes()).encode(), "scenario is not UTF-8"),
    (b"[" * 200000 + b"]" * 200000, "scenario nests too deeply to read"),
    (None, "cannot read scenario: "),
    (b'{"seed": 1,', "scenario is not valid JSON: "),
    (json.dumps(doc_with_node("b\rc")).encode(),
     "nodes[1]: node names may not contain tabs or line breaks"),
], ids=["not-utf8", "too-deep", "missing", "not-json", "cr-name"])
def test_cli_rejects_an_unreadable_scenario_file(tmp_path, capsys, raw,
                                                 fragment):
    # raw None: no file at the path
    p = tmp_path / "bad.json"
    if raw is not None:
        p.write_bytes(raw)
    out = tmp_path / "out"
    rc = cli.main(["run", "--scenario", str(p), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "error: %s" % fragment in capsys.readouterr().err


def test_cli_run_into_a_regular_file_exits_2(tmp_path, capsys):
    path = write(tmp_path, doc_two_nodes())
    out = tmp_path / "taken"
    out.write_text("kept")
    rc = cli.main(["run", "--scenario", path, "--out", str(out)])
    assert rc == 2
    assert out.read_text() == "kept"
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: cannot write output: ")
    assert str(out) in err[0]


def test_cli_keygen_into_a_missing_directory_exits_2(tmp_path, capsys):
    path = write(tmp_path, doc_two_nodes())
    out = tmp_path / "missing" / "registry.json"
    rc = cli.main(["keygen", "--scenario", path, "--out", str(out)])
    assert rc == 2
    assert not out.parent.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: cannot write output: ")
    assert str(out) in err[0]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(name=st.text(alphabet=string.printable + LINE_BREAKS + "\xa0\u3000",
                    max_size=4))
def test_a_node_name_either_fails_parse_or_its_trace_verifies(name):
    doc = dict(doc_with_node(name), key_bits=128)
    try:
        scenario.parse(doc)
    except scenario.ScenarioError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scen.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp, "out")
        assert cli.main(["run", "--scenario", path, "--out", out]) == 0
        assert cli.main(["verify-trace", "--scenario", path,
                         "--trace", os.path.join(out, "trace.tsv")]) == 0


@pytest.mark.parametrize("doc,fragment", UNENCODABLE_DOCS)
def test_cli_rejects_values_the_wire_cannot_carry(tmp_path, capsys, doc,
                                                  fragment):
    out = tmp_path / "out"
    rc = cli.main(["run", "--scenario", write(tmp_path, doc),
                   "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert fragment in capsys.readouterr().err


# Node names of exactly 65535 UTF-8 bytes, the most the parser accepts.
WIDEST_NAMES = ("\u00e9" * 32767 + "a", "\u20ac" * 21845,
                "\U0001d11e" * 16383 + "abc")


@pytest.mark.parametrize("sec_level", [1, 0])
@pytest.mark.parametrize("mode", ["baseline", "secure"])
def test_values_at_the_wire_limits_run_and_lint(mode, sec_level):
    # the parser is the guard for outside input: a value one past a wire
    # limit is rejected (UNENCODABLE_DOCS), and a value at it runs
    assert {len(name.encode("utf-8")) for name in WIDEST_NAMES} == {65535}
    a, d, m = WIDEST_NAMES
    flow = doc_two_nodes(nodes=[a, d], links=[{"a": a, "b": d}], events=[
        {"tick": 1, "kind": "start_flow", "client": a, "server": d,
         "client_port": 65535, "server_port": 65535, "payload": "hello"}])
    attack = doc_two_nodes(
        nodes=[a, m, d], links=[{"a": a, "b": m}, {"a": m, "b": d}],
        events=[{"tick": 0, "kind": "attach_attack",
                 "attack": {"kind": "seq_inflate", "attacker": m, "src": a,
                            "dst": d, "inflate_to": (1 << 64) - 1}},
                {"tick": 1, "kind": "start_discovery", "node": a,
                 "target": d}])
    runs = [scenario.run_scenario(doc, mode=mode, sec_level=sec_level)
            for doc in (flow, attack)]
    assert runs[0].metrics.delivered_payloads == {
        (d, a, 65535, 65535): b"hello"}
    verdict = runs[1].metrics.attack_verdicts["seq_inflate"]
    if mode == "baseline":
        assert verdict == "succeeded"
    elif sec_level == 1:   # at level 0 a relay checks no origin (2a)
        assert verdict == "detected"
    for r in runs:
        assert cli._lint_trace(r.trace_text()) == []


@pytest.mark.parametrize("doc,fragment", TWICE_ADVERSARY_DOCS)
def test_cli_rejects_a_node_named_as_an_adversary_twice(tmp_path, capsys, doc,
                                                        fragment):
    out = tmp_path / "out"
    rc = cli.main(["run", "--scenario", write(tmp_path, doc),
                   "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert fragment in capsys.readouterr().err


def test_cli_rejects_a_parameter_the_attack_kind_does_not_read(tmp_path,
                                                              capsys):
    doc = scenario.load_file(os.path.join(SCEN, "attack_impersonate.json"))
    attack, = [ev["attack"] for ev in doc["events"]
               if ev["kind"] == "attach_attack"]
    attack.update(rate=7, duration=9, max_distance=3, marker="zz",
                  inflate_to=5)
    out = tmp_path / "out"
    rc = cli.main(["run", "--scenario", write(tmp_path, doc),
                   "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "impersonate attack: unexpected field 'rate'" in \
        capsys.readouterr().err


def test_cli_checks_a_seed_override_as_the_field(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["run", "--scenario", write(tmp_path, doc_two_nodes()),
                   "--seed", "-1", "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "scenario.seed: must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("links", NOT_ARRAYS)
def test_cli_rejects_links_that_are_not_an_array(tmp_path, capsys, links):
    doc = scenario.load_file(os.path.join(SCEN, "line5_discovery.json"))
    doc["links"] = links
    out = tmp_path / "out"
    rc = cli.main(["run", "--scenario", write(tmp_path, doc),
                   "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "scenario.links: expected an array" in capsys.readouterr().err


def test_attack_specs_are_bound_to_their_flow_at_parse():
    doc = dict(doc_with_attack(), half_open_capacity=3)
    sc = scenario.parse(doc)
    flow, = sc.flows
    spec, = sc.attack_specs
    assert (spec.client_port, spec.server_port, spec.expected_payload,
            spec.capacity) == (6001, 8080, b"hello", 3)
    assert (flow.client_port, flow.server_port, flow.payload) == \
        (6001, 8080, b"hello")


def test_flood_at_the_cap_parses():
    spec, = scenario.parse(flood_doc(rate=20000, duration=5)).attack_specs
    assert spec.rate * spec.duration == scenario.MAX_FLOOD_SYNS == 100_000


def test_cli_rejects_a_flood_beyond_the_cap(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["run", "--scenario",
                   write(tmp_path, flood_doc(rate=1000000000)),
                   "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "rate x duration" in capsys.readouterr().err


# a second flow on the same ports replaces the first one's connection at
# both ends; a crossing pair shares one key at each end
@pytest.mark.parametrize("second,shown", [
    ((2, "a", "b", 5000, 80), "a:5000->b:80 at tick 2"),
    ((2, "b", "a", 80, 5000), "b:80->a:5000 at tick 2"),
], ids=["same-direction", "crossing"])
def test_cli_rejects_two_flows_on_one_connection(tmp_path, capsys, second,
                                                 shown):
    doc = flows_doc((1, "a", "b", 5000, 80), second)
    out = tmp_path / "out"
    rc = cli.main(["run", "--scenario", write(tmp_path, doc),
                   "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert ("start_flow a:5000->b:80 at tick 1 and start_flow %s would "
            "share the connection between a:5000 and b:80" % shown) in err


def test_flows_between_one_pair_on_distinct_client_ports_parse():
    doc = flows_doc((1, "a", "b", 5000, 80), (2, "a", "b", 5001, 80),
                    (3, "b", "a", 5000, 80))
    sc = scenario.parse(doc)
    assert [(f.client, f.client_port) for f in sc.flows] == \
        [("a", 5000), ("a", 5001), ("b", 5000)]


@pytest.mark.parametrize("payload,marker", [("hi", ""),
                                            ("say HIJACKED now", None)])
def test_cli_rejects_a_hijack_marker_honest_traffic_delivers(
        tmp_path, capsys, payload, marker):
    doc = scenario.load_file(os.path.join(SCEN, "attack_session_hijack.json"))
    doc["events"][0]["payload"] = payload
    if marker is not None:
        doc["events"][1]["attack"]["marker"] = marker
    rc = cli.main(["run", "--scenario", write(tmp_path, doc)])
    assert rc == 2
    assert "marker" in capsys.readouterr().err


def test_cli_rejects_exchange_group_as_wide_as_keys(tmp_path, capsys):
    # a DH group as wide as the peers' moduli cannot be sealed to them
    doc = doc_two_nodes(key_bits=64, dh_bits=64, mode="secure")
    out = tmp_path / "out"
    rc = cli.main(["run", "--scenario", write(tmp_path, doc),
                   "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "dh_bits" in capsys.readouterr().err


def test_cli_reports_an_unexpected_failure_in_one_line(tmp_path, capsys,
                                                        monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("simulated\nfailure")
    monkeypatch.setattr(scenario, "run_scenario", broken)
    out = tmp_path / "out"
    rc = cli.main(["run", "--scenario", write(tmp_path, doc_two_nodes()),
                   "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: simulated failure "
                          "(test_scenario_cli.py:")
    assert err.count("\n") == 1


def test_cli_exit_flags_a_secure_mode_failure(tmp_path, capsys,
                                              monkeypatch):
    # an attack judged successful must flip the exit code in secure mode;
    # no shipped attack succeeds there, so the judge is replaced
    monkeypatch.setattr(attacks, "judge", lambda *args: "succeeded")
    doc = {
        "seed": 6, "nodes": ["a", "b", "m"], "run_until": 12,
        "links": [{"a": "a", "b": "b"}, {"a": "m", "b": "a"}],
        "events": [
            {"tick": 10, "kind": "start_flow", "client": "a", "server": "b",
             "payload": "never lands", "close": True},
            {"tick": 11, "kind": "attach_attack",
             "attack": {"kind": "ack_inject", "attacker": "m", "src": "a",
                        "dst": "b"}},
        ],
    }
    path = write(tmp_path, doc)
    rc = cli.main(["run", "--scenario", path])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().err
    # a baseline run is expected to be harmed
    rc = cli.main(["run", "--scenario", path, "--mode", "baseline"])
    assert rc == 0
    err = capsys.readouterr().err
    assert "verdicts: ack_inject=succeeded" in err and "FAIL" not in err


def test_cli_keygen_is_deterministic_and_loadable(tmp_path, capsys):
    path = write(tmp_path, doc_two_nodes())
    assert cli.main(["keygen", "--scenario", path]) == 0
    first = capsys.readouterr().out
    assert cli.main(["keygen", "--scenario", path]) == 0
    assert capsys.readouterr().out == first
    entries = json.loads(first)
    assert [e["ip"] for e in entries] == doc_two_nodes()["nodes"]
    for e in entries:   # each id is the hash of the signing key printed
        signing = (int(e["N_hex"], 16), int(e["e_hex"], 16))
        assert e["id_hex"] == identity.derive_id(signing).hex()
    assert cli.main(["keygen", "--scenario", path, "--seed", "9"]) == 0
    assert capsys.readouterr().out != first


def test_cli_keygen_prints_the_registry_a_run_uses(tmp_path, capsys):
    path = write(tmp_path, doc_two_nodes())
    assert cli.main(["keygen", "--scenario", path, "--seed", "9"]) == 0
    printed = capsys.readouterr().out
    run = scenario.run_scenario(doc_two_nodes(), seed=9)
    assert printed == identity.registry_to_json(run.registry)


def test_cli_verify_trace_accepts_then_catches_tampering(tmp_path, capsys):
    path = write(tmp_path, doc_two_nodes())
    out = tmp_path / "out"
    cli.main(["run", "--scenario", path, "--out", str(out)])
    trace = str(out / "trace.tsv")
    assert cli.main(["verify-trace", "--scenario", path,
                     "--trace", trace]) == 0
    assert "matches" in capsys.readouterr().err
    text = (out / "trace.tsv").read_text()
    (out / "trace.tsv").write_text(text.replace("RREQ", "RREP", 1))
    assert cli.main(["verify-trace", "--scenario", path,
                     "--trace", trace]) == 1
    assert "difference" in capsys.readouterr().err


def test_cli_verify_trace_lints_structure_first(tmp_path, capsys):
    path = write(tmp_path, doc_two_nodes())
    bad = tmp_path / "junk.tsv"
    bad.write_text("this is not a trace\n")
    rc = cli.main(["verify-trace", "--scenario", path, "--trace", str(bad)])
    assert rc == 1
    assert "structurally invalid" in capsys.readouterr().err
    good = "1\ta\tb\tRREQ\t10\tdelivered\n"
    for text, problem in [
            (good + good.replace("1", "0", 1), "line 2: ticks must not "
             "decrease"),
            (good + "2\ta\t\tRREP\t10\tdelivered\n",
             "line 2: empty endpoint name"),
            (good + "2\ta\tb\tPING\t10\tdelivered\n",
             "line 2: unknown message kind 'PING'"),
            (good + "2\ta\tb\tRREP\t10\tdropped_by_receiver(bogus)\n",
             "line 2: unrecognized disposition "
             "'dropped_by_receiver(bogus)'")]:
        bad.write_text(text)
        rc = cli.main(["verify-trace", "--scenario", path,
                       "--trace", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines() == ["lint: " + problem,
                                    "trace file is structurally invalid"]


def test_cli_verify_trace_cannot_read_a_missing_trace(tmp_path, capsys):
    path = write(tmp_path, doc_two_nodes())
    missing = tmp_path / "no-such-trace.tsv"
    rc = cli.main(["verify-trace", "--scenario", path,
                   "--trace", str(missing)])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: cannot read trace: ")
    assert str(missing) in err


def test_cli_verify_trace_catches_a_trace_without_its_last_line(tmp_path,
                                                               capsys):
    path = write(tmp_path, doc_two_nodes())
    out = tmp_path / "out"
    cli.main(["run", "--scenario", path, "--out", str(out)])
    lines = (out / "trace.tsv").read_text().splitlines(keepends=True)
    assert len(lines) > 1
    (out / "trace.tsv").write_text("".join(lines[:-1]))
    capsys.readouterr()
    rc = cli.main(["verify-trace", "--scenario", path,
                   "--trace", str(out / "trace.tsv")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "trace length differs: recorded %d lines, re-run %d lines"
        % (len(lines) - 1, len(lines))]


def test_cli_verify_trace_rejects_non_ascii_digits(tmp_path, capsys):
    # U+00B2 passes str.isdigit() but int() refuses it
    path = write(tmp_path, doc_two_nodes())
    bad = tmp_path / "digits.tsv"
    bad.write_text("\u00b2\ta\tb\tRREQ\t10\tdelivered\n"
                   "1\ta\tb\tRREQ\t\u00b2\tdelivered\n", encoding="utf-8")
    rc = cli.main(["verify-trace", "--scenario", path, "--trace", str(bad)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "line 1: tick is not an integer" in err
    assert "line 2: size is not an integer" in err
    assert "internal error" not in err


def test_cli_verify_trace_rejects_a_trace_that_is_not_utf8(tmp_path, capsys):
    path = write(tmp_path, doc_two_nodes())
    bad = tmp_path / "latin1.tsv"
    bad.write_bytes(b"1\ta\tb\tRREQ\t10\tdelivered\n1\t\xe9\tb\tRREQ\t10"
                    b"\tdelivered\n")
    rc = cli.main(["verify-trace", "--scenario", path, "--trace", str(bad)])
    err = capsys.readouterr().err
    assert rc == 1
    assert [line for line in err.splitlines() if line.startswith("lint:")] \
        == ["lint: trace is not UTF-8 (invalid continuation byte)"]
    assert "structurally invalid" in err


# One child interpreter's loop over every shipped (scenario, mode, level)
# run: argv is the command, the output root, then the scenario files. Every
# cli.main call must exit 0.
_CLI_LOOP = """
import os, sys
from manetsec import cli
command, root, *paths = sys.argv[1:]
for path in paths:
    for mode in ("secure", "baseline"):
        for level in ("0", "1"):
            out = os.path.join(root, "%s-%s-%s" % (os.path.basename(path),
                                                   mode, level))
            args = [command, "--scenario", path, "--mode", mode,
                    "--sec-level", level]
            args += (["--out", out] if command == "run"
                     else ["--trace", os.path.join(out, "trace.tsv")])
            rc = cli.main(args)
            if rc:
                sys.exit("exit %d: %s" % (rc, " ".join(args)))
"""


def _child(args, hash_seed):
    """Run `python args` with src importable and PYTHONHASHSEED set."""
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable] + args, env=env,
                          capture_output=True, text=True, timeout=300)


def test_a_trace_verifies_in_another_interpreter_and_hash_seed(tmp_path):
    # a trace that depends on the iteration order of a set of names differs
    # between two hash seeds, so its verification fails
    paths = [os.path.join(SCEN, name) for name in sorted(os.listdir(SCEN))]
    assert len(paths) * 4 == 48
    for command, hash_seed in (("run", 1), ("verify-trace", 2)):
        done = _child(["-c", _CLI_LOOP, command, str(tmp_path)] + paths,
                      hash_seed)
        assert done.returncode == 0, done.stderr
    assert len(os.listdir(tmp_path)) == 48
    # and once through the module's entry point
    trace = tmp_path / "line5_discovery.json-secure-1" / "trace.tsv"
    done = _child(["-m", "manetsec.cli", "verify-trace", "--scenario",
                   os.path.join(SCEN, "line5_discovery.json"),
                   "--trace", str(trace)], 3)
    assert done.returncode == 0, done.stderr
    assert done.stderr.startswith("trace matches the re-run")


def test_trace_lint_accepts_the_drop_disposition_sim_writes():
    line = "1\ta\tb\tRREQ\t10\t%s\n"
    for reason in sim.DROP_REASONS:
        assert cli._lint_trace(line % sim.dropped(reason)) == [], reason
    assert cli._lint_trace(line % "dropped_by_receiver(replay") != []
    assert cli._lint_trace(line % "dropped_by_receiver(bogus)") == [
        "line 1: unrecognized disposition 'dropped_by_receiver(bogus)'"]


# --- known protocol defects (ROADMAP defects 2b, 2c and 2e) ----------------
# Each fails today; the fix removes the xfail marks.

def _line_doc(names, **over):
    doc = {"seed": 1, "key_bits": 256,
           "nodes": names,
           "links": [{"a": a, "b": b} for a, b in zip(names, names[1:])],
           "events": []}
    doc.update(over)
    return doc


@pytest.mark.xfail(strict=True, reason="a pair's session keys diverge when "
                   "both ends start a discovery")
@pytest.mark.parametrize("sec_level", [1, 0])
def test_reverse_flows_on_one_pair_both_deliver(sec_level):
    doc = _line_doc(["a", "b", "c"], sec_level=sec_level, events=[
        {"tick": 1, "kind": "start_flow", "client": "a", "server": "c",
         "payload": "forward"},
        {"tick": 2, "kind": "start_flow", "client": "c", "server": "a",
         "client_port": 5001, "payload": "reverse"}])
    r = scenario.run_scenario(doc)
    delivered = r.metrics.delivered_payloads
    assert delivered.get(("c", "a", 80, 5000)) == b"forward"
    assert delivered.get(("a", "c", 80, 5001)) == b"reverse"
    assert "tag_mismatch" not in r.metrics.drops
    assert json.loads(r.metrics_json())["key_agreement"] is True


@pytest.mark.xfail(strict=True, reason="each reply of a discovery over 26 "
                   "hops arrives after its attempt was retired")
@pytest.mark.parametrize("sec_level", [1, 0])
def test_discovery_completes_on_a_line_of_26_nodes(sec_level):
    names = ["n%d" % i for i in range(26)]
    doc = _line_doc(names, key_bits=128, dh_bits=32, run_until=1000,
                    sec_level=sec_level, events=[
                        {"tick": 1, "kind": "start_discovery", "node": "n0",
                         "target": "n25"}])
    r = scenario.run_scenario(doc)
    assert "no_pending" not in r.metrics.drops
    assert len(r.metrics.discovery_latency_ticks) == 1


@pytest.mark.xfail(strict=True, reason="a relay that cannot forward a "
                   "packet back toward a discovery's originator sends its "
                   "break report nowhere (defect 2e)")
def test_a_break_on_the_way_back_to_the_client_is_reported():
    doc = _line_doc(["a", "b", "c"], key_bits=128, dh_bits=32, run_until=60,
                    events=[
                        {"tick": 1, "kind": "start_flow", "client": "a",
                         "server": "c", "payload": "x" * 3000},
                        # c takes the first segment at tick 17, and relay b
                        # finds the link to a down when it forwards c's ACK
                        {"tick": 17, "kind": "link_down", "a": "a",
                         "b": "b"}])
    r = scenario.run_scenario(doc)
    sent, = r.metrics.of("rerr_sent")
    assert (sent.tick, sent.node) == (18, "b")
    frames = [line.split("\t") for line in r.trace_text().splitlines()]
    assert [(f[0], f[1], f[2]) for f in frames if f[3] == "RERR"][:1] == \
        [("18", "b", "c")]
