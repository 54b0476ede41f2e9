"""Acceptance gate: one test per acceptance criterion, in order.

Each test prints one `ACCEPTANCE criterion N: PASS - ...` line when it holds;
a pytest failure on any of these is a release blocker. Oracles are computed
independently of the library code wherever a value could be derived rather
than observed.
"""

import functools
import os
import random
import time
from dataclasses import replace

import pytest

from conftest import (EXPECTED_SECURE, TOY1, TOY2, build_network,
                      pinned_group)
from topology import random_connected
from manetsec import attacks, cli, scenario
from manetsec.crypto import (
    derive_seed,
    digest,
    digest_int,
    generate_keypair,
    rsa_sign_first,
    sas_aggregate_step,
    sas_unwind_verify,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCEN = os.path.join(ROOT, "scenarios")


def _report(criterion: int, text: str) -> None:
    print("ACCEPTANCE criterion %d: PASS - %s" % (criterion, text))


@pytest.fixture(scope="module")
def keypool():
    """Eight full-width signing keys, shared across the chain criteria."""
    return [generate_keypair(512, random.Random(derive_seed(0xACC, "pool", i)))
            for i in range(8)]


def _chain(keys, hashes):
    agg = rsa_sign_first(hashes[0], keys[0])
    for h, k in zip(hashes[1:], keys[1:]):
        agg = sas_aggregate_step(agg, h, k)
    return agg


def test_criterion_1_chain_roundtrip_speed(keypool):
    rng = random.Random(4242)
    start = time.perf_counter()
    for i in range(100):
        t = (i % 8) + 1
        keys = [keypool[(i + j) % 8] for j in range(t)]
        hashes = [rng.getrandbits(256) for _ in range(t)]
        agg = _chain(keys, hashes)
        assert agg.signer_count == t
        assert len(agg.overflow_bits) == t - 1
        assert sas_unwind_verify(
            agg, [(h, k.public) for h, k in zip(hashes, keys)])
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, "100 chains of 1..8 signers signed and verified in %.2fs"
            % elapsed)


def test_criterion_2_forgeries_always_fail(keypool):
    # frozen small-number goldens, derivable by hand: 88^23 mod 187 = 11,
    # (11 + 100)^103 mod 143 = 45 with no reduction needed
    assert rsa_sign_first(88, TOY1).value == 11
    golden = sas_aggregate_step(rsa_sign_first(88, TOY1), 100, TOY2)
    assert (golden.value, golden.overflow_bits) == (45, (0,))
    assert pow(45, TOY2.e, TOY2.n) == (11 + 100) % TOY2.n

    rng = random.Random(777)
    chains = []
    for t in range(1, 9):
        keys = keypool[:t]
        hashes = [digest_int(digest(b"c2-%d-%d" % (t, j)))
                  for j in range(t)]
        agg = _chain(keys, hashes)
        assert sas_unwind_verify(
            agg, [(h, k.public) for h, k in zip(hashes, keys)])
        chains.append((agg, keys, hashes))

    trials = 0
    for i in range(1080):
        agg, keys, hashes = chains[i % 8]
        per_signer = [(h, k.public) for h, k in zip(hashes, keys)]
        kinds = ["value", "hash", "public"]
        if agg.signer_count > 1:
            kinds.append("bit")
        kind = kinds[rng.randrange(len(kinds))]
        if kind == "value":
            agg = replace(agg, value=agg.value ^ (1 << rng.randrange(500)))
        elif kind == "bit":
            pos = rng.randrange(len(agg.overflow_bits))
            bits = tuple(b ^ 1 if j == pos else b
                         for j, b in enumerate(agg.overflow_bits))
            agg = replace(agg, overflow_bits=bits)
        elif kind == "hash":
            j = rng.randrange(len(per_signer))
            h, pub = per_signer[j]
            per_signer[j] = (h ^ (1 << rng.randrange(256)), pub)
        else:
            j = rng.randrange(len(per_signer))
            h, (n, e) = per_signer[j]
            per_signer[j] = (h, (n, e + 2))
        assert sas_unwind_verify(agg, per_signer) is False
        trials += 1
    assert trials >= 1000
    _report(2, "%d single-field mutations all rejected, goldens hold"
            % trials)


# --- criterion 3: discovery with embedded key exchange ------------------------

# a secure network whose 128-bit keys derive from seed 33, whatever the
# network's own seed
_build_net = functools.partial(build_network, key_seed=33, key_bits=128,
                               secure=True, sec_level=1, dh_bits=32)


def test_criterion_3_discovery_and_key_agreement_on_random_graphs():
    for sec_level in (1, 0):
        rng = random.Random(900 + sec_level)
        for run in range(100):
            count = rng.randrange(5, 16)
            names = ["n%d" % i for i in range(count)]
            links = random_connected(names, rng)
            src, dst = rng.sample(names, 2)
            net, routers, reg, metrics, _ = _build_net(
                names, links, sec_level=sec_level,
                seed=derive_seed(3000, "run", sec_level, run))
            routers[src].start_discovery(dst)
            net.run(until=200)
            assert metrics.discovery_latency_ticks, \
                "discovery %d/%d found no route" % (sec_level, run)
            assert dst in routers[src].routes
            s_src = routers[src].sessions.get(dst)
            s_dst = routers[dst].sessions.get(src)
            assert s_src is not None and s_dst is not None
            assert s_src.key.value == s_dst.key.value
            assert s_src.peer_id == reg.by_ip(dst).node_id
            assert s_dst.peer_id == reg.by_ip(src).node_id

    # the worked key-exchange example: p=23, g=5, secrets 6 and 15 agree on 2
    net, routers, reg, metrics, _ = _build_net(
        ["a", "b"], [("a", "b")], responder_secrets={"b": 15}, seed=5)
    with pinned_group(routers["a"], p=23, g=5, r=6):
        routers["a"].start_discovery("b")
    net.run(until=10)
    assert routers["a"].sessions["b"].key.value == 2
    assert routers["b"].sessions["a"].key.value == 2
    _report(3, "200 random-graph discoveries agreed on keys at both levels; "
               "worked example derives 2")


def test_criterion_4_overflow_bit_is_load_bearing(keypool):
    # toy oracle: 2^23 mod 187 = 162 >= 143 forces a reduction at signer 2
    assert pow(2, TOY1.d, TOY1.n) == 162
    agg = sas_aggregate_step(rsa_sign_first(2, TOY1), 100, TOY2)
    assert agg.overflow_bits == (1,)
    chain = [(2, TOY1.public), (100, TOY2.public)]
    assert sas_unwind_verify(agg, chain)
    assert sas_unwind_verify(replace(agg, overflow_bits=(0,)), chain) is False

    # full-width case: pick the widest and narrowest moduli from the pool and
    # search deterministically for a hash whose first signature overflows
    wide = max(keypool, key=lambda k: k.n)
    narrow = min(keypool, key=lambda k: k.n)
    assert wide.n != narrow.n
    for i in range(1000):
        h0 = digest_int(digest(b"c4-%d" % i))
        if pow(h0 % wide.n, wide.d, wide.n) >= narrow.n:
            break
    else:
        pytest.fail("no overflowing hash found in 1000 candidates")
    h1 = digest_int(digest(b"c4-second"))
    agg = sas_aggregate_step(rsa_sign_first(h0, wide), h1, narrow)
    assert agg.overflow_bits == (1,)
    chain = [(h0, wide.public), (h1, narrow.public)]
    assert sas_unwind_verify(agg, chain)
    assert sas_unwind_verify(replace(agg, overflow_bits=(0,)), chain) is False
    _report(4, "stripping a recorded overflow bit breaks verification at toy "
               "and full width")


def test_criterion_5_attack_matrix(tmp_path):
    for kind in attacks.KINDS:
        doc = scenario.load_file(os.path.join(SCEN, "attack_%s.json" % kind))
        base = scenario.run_scenario(doc, mode="baseline")
        assert base.metrics.attack_verdicts == {kind: "succeeded"}, \
            "baseline %s: %s" % (kind, base.metrics.attack_verdicts)
        sec = scenario.run_scenario(doc)
        assert sec.metrics.attack_verdicts == {kind: EXPECTED_SECURE[kind]}, \
            "secure %s: %s" % (kind, sec.metrics.attack_verdicts)
        if kind == "syn_flood":
            capacity = sec.scenario.tcp.half_open_capacity
            assert base.metrics.peak_half_open == capacity == 64
            assert sec.metrics.peak_half_open == 0
    assert cli.main(["run", "--scenario",
                     os.path.join(SCEN, "attack_redirect.json"),
                     "--out", str(tmp_path / "redirect")]) == 0
    _report(5, "all 9 kinds succeed on baseline and are detected or "
               "neutralized on secure")


def test_criterion_6_no_state_before_the_third_segment():
    doc = {
        "seed": 77, "key_bits": 256, "nodes": ["a", "b"],
        "links": [{"a": "a", "b": "b"}], "run_until": 50,
        "events": [
            {"tick": 1, "kind": "start_discovery", "node": "a",
             "target": "b"},
            {"tick": 10, "kind": "start_flow", "client": "a", "server": "b",
             "close": False},
        ],
    }
    r = scenario.run_scenario(doc)
    kinds = [rec.kind for rec in r.net.trace]
    assert kinds == ["RREQ", "RREP", "SYN", "SYN_ACK", "ACK"]
    assert all(rec.disposition == "delivered" for rec in r.net.trace)
    assert r.metrics.peak_half_open == 0
    # the responder logs nothing about the connection before allocating it
    responder = [ev for ev in r.metrics.events
                 if ev.node == "b" and "local_port" in ev.fields]
    assert [ev.kind for ev in responder] == ["alloc", "established"]
    ack_tick = list(r.net.trace)[4].tick
    assert responder[0].tick == ack_tick + 1
    assert r.endpoints["a"].conns[("b", 5000, 80)].state == "established"
    assert r.endpoints["b"].conns[("a", 80, 5000)].state == "established"
    _report(6, "responder allocates exactly once, after the verified third "
               "segment, with a 3-segment handshake")


def test_criterion_7_break_report_and_rediscovery_both_levels():
    doc = scenario.load_file(os.path.join(SCEN, "line5_maintenance.json"))
    for sec_level in (1, 0):
        r = scenario.run_scenario(doc, sec_level=sec_level)
        assert r.metrics.of("rerr_sent")
        assert any(ev.node == "a" for ev in r.metrics.of("rerr_accepted")), \
            "level %d: source never accepted the break report" % sec_level
        a_runs = [ev for ev in r.metrics.of("discovery")
                  if ev.node == "a" and ev.fields["target"] == "e"]
        assert len(a_runs) >= 2, "level %d: no re-discovery" % sec_level
        assert len(r.metrics.discovery_latency_ticks) >= 2
        assert r.metrics.delivered_payloads[("e", "a", 80, 5000)] == \
            b"the route heals"
    _report(7, "break reports reach the source and re-discovery restores "
               "delivery at both levels")


def test_criterion_8_overhead_ordering(keypool):
    doc = scenario.load_file(os.path.join(SCEN, "overhead_line5.json"))
    case1 = scenario.run_scenario(doc)
    case2 = scenario.run_scenario(doc, sec_level=0)
    base = scenario.run_scenario(doc, mode="baseline")
    totals = []
    for r in (case1, case2, base):
        assert r.metrics.discovery_latency_ticks == [8]
        totals.append(r.metrics.trace_totals())
        assert totals[-1]["data_bytes"] == 0
    ctl = [t["control_bytes"] for t in totals]
    assert ctl[0] > ctl[1] > ctl[2]

    agg = rsa_sign_first(digest_int(digest(b"c8-0")), keypool[0])
    for t, key in enumerate(keypool[1:], start=2):
        agg = sas_aggregate_step(agg, digest_int(digest(b"c8-%d" % t)), key)
        assert agg.signer_count == t
        assert len(agg.overflow_bits) == t - 1
    _report(8, "control bytes order full > source+last > plain (%d > %d > %d)"
            % tuple(ctl))


def test_criterion_9_reruns_are_byte_identical():
    for name in ("line5_maintenance.json", "attack_tunnel.json"):
        doc = scenario.load_file(os.path.join(SCEN, name))
        r1 = scenario.run_scenario(doc)
        r2 = scenario.run_scenario(doc)
        assert r1.trace_text() == r2.trace_text()
        assert r1.metrics_json() == r2.metrics_json()
        assert r1.trace_text()   # non-trivial runs
    _report(9, "same seed reproduces traces and metrics byte for byte")
