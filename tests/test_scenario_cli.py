"""Scenario documents, the runner, and the command line tools."""

import json
import os

import pytest

from manetsec import cli, crypto, identity, scenario, sim

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


def doc_with_attack(**attack):
    """A flow a->b and a session hijack by m, with `attack` fields added."""
    return doc_two_nodes(
        nodes=["a", "b", "m"],
        links=[{"a": "a", "b": "b"}, {"a": "m", "b": "b"}],
        events=[{"tick": 1, "kind": "start_flow", "client": "a",
                 "server": "b", "client_port": 6001, "server_port": 8080,
                 "payload": "hello"},
                {"tick": 2, "kind": "attach_attack",
                 "attack": dict({"kind": "session_hijack", "attacker": "m",
                                 "src": "a", "dst": "b"}, **attack)}])


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
] + UNENCODABLE_DOCS


def test_widest_allowed_widths_parse():
    # parse only: a run at these widths takes seconds per key and group
    sc = scenario.parse(doc_two_nodes(key_bits=scenario.MAX_KEY_BITS,
                                      dh_bits=scenario.MAX_DH_BITS))
    assert (sc.key_bits, sc.dh_bits) == (2048, 512)


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


@pytest.mark.parametrize("doc,fragment", UNENCODABLE_DOCS)
def test_cli_rejects_values_the_wire_cannot_carry(tmp_path, capsys, doc,
                                                  fragment):
    out = tmp_path / "out"
    rc = cli.main(["run", "--scenario", write(tmp_path, doc),
                   "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert fragment in capsys.readouterr().err


def test_attack_specs_are_bound_to_their_flow_at_parse():
    doc = dict(doc_with_attack(), half_open_capacity=3)
    sc = scenario.parse(doc)
    flow, = sc.flows
    spec, = sc.attack_specs
    assert (spec.client_port, spec.server_port, spec.expected_payload,
            spec.capacity) == (6001, 8080, b"hello", 3)
    assert (flow.client_port, flow.server_port, flow.payload) == \
        (6001, 8080, b"hello")


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


def test_cli_exit_flags_a_secure_mode_failure(tmp_path, capsys):
    # a transfer that cannot finish before the run ends counts as harm for
    # the injection attack, which must flip the exit code in secure mode
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
    rc = cli.main(["run", "--scenario", write(tmp_path, doc)])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().err


def test_cli_keygen_is_deterministic_and_loadable(tmp_path, capsys):
    path = write(tmp_path, doc_two_nodes())
    assert cli.main(["keygen", "--scenario", path]) == 0
    first = capsys.readouterr().out
    assert cli.main(["keygen", "--scenario", path]) == 0
    assert capsys.readouterr().out == first
    reg = identity.registry_from_json(first)
    assert len(reg.entries()) == 2
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


def test_trace_lint_accepts_the_drop_disposition_sim_writes():
    line = "1\ta\tb\tRREQ\t10\t%s\n"
    assert cli._lint_trace(line % sim.dropped("replay")) == []
    assert cli._lint_trace(line % "dropped_by_receiver(replay") != []


# --- known protocol defects (ROADMAP item 1) --------------------------------
# Both fail today; the fix removes the xfail marks.

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
