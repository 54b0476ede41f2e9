"""Seeded random scenario documents, run end to end (ROADMAP item 5).

Each document has 2 to 7 nodes on a random connected graph with lossy, slow
links, flows, discoveries, link flaps, at most one attack of each kind and
64- or 128-bit keys, in either mode at either level. Parsing succeeds or
raises ScenarioError; a run ends, and verify-trace's lint accepts its trace;
and in secure mode at level 1 no attack succeeds. Level 0 waits for ROADMAP
item 1 (defect 2a).
"""

import random

from manetsec import attacks, cli, scenario
from topology import random_connected

DOCUMENTS = 200


def _attack(kind, attacker, partner, honest, flows, rng):
    """A spec of `kind` by `attacker` against honest nodes, or None when the
    kind needs what the document lacks: a flow to target, or a partner."""
    spec = {"kind": kind, "attacker": attacker}
    src, dst, through = rng.sample(honest, 3) if len(honest) > 2 else (
        rng.sample(honest, 2) + [None])
    if kind in ("session_hijack", "ack_inject"):
        if not flows:
            return None
        src, dst = rng.choice(flows)
    fields = dict(partner=partner, src=src, dst=dst, through=through)
    for name in attacks.KINDS[kind].nodes:
        if fields[name] is None:
            return None
        spec[name] = fields[name]
    params = {"inflate_to": rng.choice([5, 900000, 2**64 - 1]),
              "max_distance": rng.randint(1, 4),
              "rate": rng.randint(1, 80), "duration": rng.randint(1, 8),
              "marker": "XYZZY"}
    for name in attacks.KINDS[kind].params:
        if rng.random() < 0.5:
            spec[name] = params[name]
    return spec


def random_document(rng):
    names = ["n%d" % i for i in range(rng.randint(2, 7))]
    links = [{"a": a, "b": b, "latency": rng.randint(1, 3),
              "loss": rng.choice([0.0, 0.0, 0.05, 0.3])}
             for a, b in random_connected(names, rng)]
    key_bits = rng.choice([64, 128])
    run_until = rng.randint(40, 240)
    bad = rng.sample(names, rng.randint(0, min(3, len(names) - 2)))
    honest = [n for n in names if n not in bad]
    events, flows = [], []
    for i in range(rng.randint(0, 3)):
        client, server = rng.sample(honest, 2)
        flows.append((client, server))
        events.append({"tick": rng.randrange(run_until // 2),
                       "kind": "start_flow", "client": client,
                       "server": server, "client_port": 5000 + i,
                       "payload": "payload %d " % i * rng.randint(1, 200),
                       "close": rng.random() < 0.7})
    for _ in range(rng.randint(0, 2)):
        node, target = rng.sample(honest, 2)
        events.append({"tick": rng.randrange(run_until // 2),
                       "kind": "start_discovery", "node": node,
                       "target": target})
    for _ in range(rng.randint(0, 2)):
        link = rng.choice(links)
        down = rng.randrange(run_until)
        events.append({"tick": down, "kind": "link_down", "a": link["a"],
                       "b": link["b"]})
        events.append({"tick": down + rng.randint(1, 60), "kind": "link_up",
                       "a": link["a"], "b": link["b"]})
    kinds = rng.sample(sorted(attacks.KINDS), len(bad))
    while bad:
        attacker, kind, partner = bad.pop(), kinds.pop(), None
        if kind == "tunnel" and bad:
            partner = bad.pop()   # a wormhole's far end attacks nothing else
            if not any({l["a"], l["b"]} == {attacker, partner}
                       for l in links):
                links.append({"a": attacker, "b": partner, "latency": 0,
                              "tunnel": True})
        spec = _attack(kind, attacker, partner, honest, flows, rng)
        if spec is not None:
            events.append({"tick": rng.randrange(run_until // 2),
                           "kind": "attach_attack", "attack": spec})
    return {"seed": rng.randrange(1 << 16), "key_bits": key_bits,
            "dh_bits": key_bits // 2, "mode": rng.choice(scenario.MODES),
            "sec_level": rng.choice([0, 1]), "run_until": run_until,
            "nodes": names, "links": links, "events": events}


def test_random_documents_run_to_a_clean_trace():
    rng = random.Random(5)
    ran = 0
    for i in range(DOCUMENTS):
        doc = random_document(rng)
        try:
            scenario.parse(doc)
        except scenario.ScenarioError:
            continue
        result = scenario.run_scenario(doc)
        ran += 1
        assert cli._lint_trace(result.trace_text()) == [], (i, doc)
        if (doc["mode"], doc["sec_level"]) == ("secure", 1):
            verdicts = result.metrics.attack_verdicts
            assert "succeeded" not in verdicts.values(), (i, doc, verdicts)
    assert ran >= DOCUMENTS * 3 // 4
