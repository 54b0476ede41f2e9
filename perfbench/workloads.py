"""Seeded input generators for the three benchmark workloads.

Every input is a pure function of the workload seed and the repetition
index, derived with hashlib and random.Random, so no change to manetsec can
change what the benchmark feeds it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import string

ATTACK_KINDS = ("seq_inflate", "hop_shorten", "redirect", "tunnel",
                "impersonate", "fake_rerr", "syn_flood", "session_hijack",
                "ack_inject")

# The verdict every secure run must reach, at either sec_level (the table the
# acceptance tests pin). Every baseline run must end "succeeded".
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

# (mode, sec_level) in the order each attack-matrix pass runs them.
MATRIX_CONFIGS = (("baseline", 1), ("secure", 1), ("baseline", 0),
                  ("secure", 0))

GRID_SIDE = 8
GRID_FLOWS = 8
GRID_FLOW_BYTES = 2048
GRID_FLOW_GAP = 5
GRID_CHURN_ROUNDS = 10
GRID_CHURN_LINKS = 6
GRID_CHURN_DOWN = 10

LINE_NODES = 6
LINE_LOSS = 0.02
LINE_FLOWS = 4
LINE_FLOW_BYTES = 256 * 1024


def rep_seed(workload: str, seed: int, rep: int) -> int:
    """64-bit seed of one repetition, independent of manetsec's own hashing."""
    text = "perfbench/%s/%d/%d" % (workload, seed, rep)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _payload(rng: random.Random, size: int) -> str:
    alphabet = string.ascii_letters + string.digits
    return "".join(rng.choices(alphabet, k=size))


def grid_control(seed: int) -> dict:
    """8x8 unit-latency grid: 9 short secure flows under link churn.

    Flow 0's reverse starts one tick after it, so both discoveries overlap;
    that pair is kept on purpose (see README: bidirectional session keys).
    """
    rng = random.Random(seed)
    names = ["g%d%d" % (r, c) for r in range(GRID_SIDE)
             for c in range(GRID_SIDE)]
    links = []
    for r in range(GRID_SIDE):
        for c in range(GRID_SIDE):
            if c + 1 < GRID_SIDE:
                links.append(("g%d%d" % (r, c), "g%d%d" % (r, c + 1)))
            if r + 1 < GRID_SIDE:
                links.append(("g%d%d" % (r, c), "g%d%d" % (r + 1, c)))
    events = []
    first = None
    for i in range(GRID_FLOWS):
        client, server = rng.sample(names, 2)
        tick = 1 + GRID_FLOW_GAP * i
        events.append({"tick": tick, "kind": "start_flow", "client": client,
                       "server": server, "client_port": 5000 + i,
                       "payload": _payload(rng, GRID_FLOW_BYTES)})
        if first is None:
            first = (client, server, tick)
    client, server, tick = first
    events.append({"tick": tick + 1, "kind": "start_flow", "client": server,
                   "server": client, "client_port": 5000 + GRID_FLOWS,
                   "payload": _payload(rng, GRID_FLOW_BYTES)})
    window = GRID_FLOW_GAP * GRID_FLOWS + 100
    for k in range(GRID_CHURN_ROUNDS):
        start = 10 + k * (window - 10) // GRID_CHURN_ROUNDS
        for a, b in rng.sample(links, GRID_CHURN_LINKS):
            events.append({"tick": start, "kind": "link_down", "a": a,
                           "b": b})
            events.append({"tick": start + GRID_CHURN_DOWN, "kind": "link_up",
                           "a": a, "b": b})
    return {
        "seed": seed, "key_bits": 512, "dh_bits": 64, "mode": "secure",
        "sec_level": 1, "run_until": 1500,
        "tcp": {"rto": 60, "max_retries": 6},
        "nodes": names,
        "links": [{"a": a, "b": b} for a, b in links],
        "events": events,
    }


def line_bulk(seed: int) -> dict:
    """6-node lossy line: 4 concurrent 256 KiB flows from n0 to n5."""
    rng = random.Random(seed)
    names = ["n%d" % i for i in range(LINE_NODES)]
    events = [{"tick": 1 + i, "kind": "start_flow", "client": names[0],
               "server": names[-1], "client_port": 5000 + i,
               "payload": _payload(rng, LINE_FLOW_BYTES)}
              for i in range(LINE_FLOWS)]
    return {
        "seed": seed, "key_bits": 256, "mode": "secure", "sec_level": 1,
        "run_until": 20000,
        "tcp": {"mss": 512, "rto": 24, "max_retries": 10},
        "nodes": names,
        "links": [{"a": a, "b": b, "loss": LINE_LOSS}
                  for a, b in zip(names, names[1:])],
        "events": events,
    }


def attack_documents(root: str) -> list:
    """(kind, scenario text) for the nine shipped attack scenarios."""
    out = []
    for kind in ATTACK_KINDS:
        path = os.path.join(root, "scenarios", "attack_%s.json" % kind)
        with open(path, "r", encoding="utf-8") as fh:
            out.append((kind, fh.read()))
    return out


WORKLOADS = ("grid-control", "line-bulk", "attack-matrix")
_GENERATED = {"grid-control": grid_control, "line-bulk": line_bulk}


def repetition_runs(workload: str, seed: int, rep: int,
                    attack_docs: list) -> list:
    """The scenario runs of one repetition: (document text, run_scenario
    overrides, expected attack verdicts or None)."""
    derived = rep_seed(workload, seed, rep)
    if workload in _GENERATED:
        doc = _GENERATED[workload](derived)
        return [(json.dumps(doc, sort_keys=True), {}, None)]
    runs = []
    for kind, text in attack_docs:
        for mode, level in MATRIX_CONFIGS:
            expected = "succeeded" if mode == "baseline" \
                else EXPECTED_SECURE[kind]
            runs.append((text, {"mode": mode, "sec_level": level,
                                "seed": derived}, {kind: expected}))
    return runs
