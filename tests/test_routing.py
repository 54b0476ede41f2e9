"""Route discovery, maintenance, and per-hop verification behavior."""

import contextlib
import copy
import functools
import random
import sys
from unittest import mock

import pytest

from conftest import Puppet, build_network, pinned_group
from manetsec import crypto, identity, routing, scenario, sim, wire
from manetsec.crypto import (
    AggregateSignature,
    rsa_encrypt,
    rsa_sign_first,
    sas_aggregate_step,
)


def send_payload(router, dst_ip, data):
    """Hand one bare data segment to the router's data path."""
    router.send_segment(dst_ip, wire.Segment(
        role=wire.ROLE_DATA, src_port=0, dst_port=0, seq=0, ack=0,
        payload=data, tag=b"\x00" * 32))


# a hand-driven network at the run defaults, keyed from seed 7
build = functools.partial(build_network, seed=7, key_bits=256, secure=True,
                          sec_level=1, dh_bits=64)


def line(names):
    return list(zip(names, names[1:]))


def signer_hash(core, hops, public):
    """wire.signer_hash of `core` and `hops` for the holder of `public`."""
    return wire.signer_hash(wire.encode_core(core), hops,
                            wire.encode_public(public))


def originate(core, key, sec_level):
    """The message routing.originate makes of `core` for the holder of
    `key`, bound to it."""
    msg, _ = routing.originate(core, key, wire.encode_public(key.public),
                               sec_level)
    return msg


@contextlib.contextmanager
def registry_calls(*methods):
    """A list of (method, calling function) for each call made, inside the
    block, to the named `Registry` methods."""
    calls = []

    def spy(method):
        real = getattr(identity.Registry, method)

        def call(self, *args):
            calls.append((method, sys._getframe(1).f_code.co_name))
            return real(self, *args)
        return call

    with contextlib.ExitStack() as stack:
        for method in methods:
            stack.enter_context(mock.patch.object(identity.Registry, method,
                                                  spy(method)))
        yield calls


def test_two_node_discovery_with_pinned_key_exchange():
    net, r, reg, m, keys = build(["a", "b"], [("a", "b")],
                                 responder_secrets={"b": 15})
    with pinned_group(r["a"], p=23, g=5, r=6):
        bct = r["a"].start_discovery("b")
    net.run(until=10)

    assert r["a"].routes["b"].next_hop == "b"
    assert r["a"].routes["b"].distance == 1
    assert r["b"].routes["a"].next_hop == "a"

    recs = m.of("session_key")
    assert len(recs) == 2
    assert all(rec.fields["key"] == 2 for rec in recs)
    assert all(rec.fields["bct"] == bct for rec in recs)
    assert {rec.node for rec in recs} == {"a", "b"}
    assert r["a"].sessions["b"].key.value == 2
    assert r["b"].sessions["a"].key.value == 2

    assert m.discovery_latency_ticks == [2]
    assert m.signed == 2
    assert m.verified == 2
    kinds = [rec.kind for rec in net.trace]
    assert kinds == ["RREQ", "RREP"]
    assert all(rec.disposition == "delivered" for rec in net.trace)


# 3317044064679887385961981 is composite but a strong pseudoprime to every
# prime base up to 37 (Sorenson and Webster, 2015); 2^101 - 1 is composite
# but a strong pseudoprime to base 2; 29 is prime, 14 is not. Up to 78 bits
# with q past the sieve, where the pair test decides: 3215031751 is
# composite but a strong pseudoprime to bases 2, 3, 5 and 7; 4107 = 3 * 37^2
# with q = 2053 prime; 4099 is prime with q = 2049 = 3 * 683
@pytest.mark.parametrize("p", [3317044064679887385961981, (1 << 101) - 1,
                               29, 3215031751, 4107, 4099])
def test_responder_refuses_a_group_that_is_not_a_safe_prime(p):
    net, r, reg, m, keys = build(["a", "b"], [("a", "b")], key_bits=128)
    with pinned_group(r["a"], p=p, g=2, r=6):
        r["a"].start_discovery("b")
    net.run(until=10)

    assert m.drops == {"malformed": 1}
    assert m.of("session_key") == []
    assert r["b"].sessions == {}
    assert r["a"].sessions == {}


def test_responder_accepts_a_64_bit_safe_prime_in_13_rounds(monkeypatch):
    net, r, reg, m, keys = build(["a", "b"], [("a", "b")], key_bits=128)
    p, g = crypto.generate_dh_group(64, random.Random(5))
    q = p // 2
    rounds = []
    miller_rabin = crypto._miller_rabin

    def counted(n, base):
        rounds.append((n, base))
        return miller_rabin(n, base)

    monkeypatch.setattr(crypto, "_miller_rabin", counted)
    with pinned_group(r["a"], p=p, g=g, r=6):
        r["a"].start_discovery("b")
    net.run(until=10)

    assert m.drops == {}
    assert r["a"].sessions["b"].key == r["b"].sessions["a"].key
    # base 2 on q and on p, then the other 11 fixed bases on q alone
    assert [(n, base) for n, base in rounds if n in (p, q)] == \
        [(q, 2), (p, 2)] + [(q, base) for base in crypto._MR_BASES[1:]]


def test_responder_checks_a_96_bit_safe_prime_with_8_bases_it_draws(
        monkeypatch):
    net, r, reg, m, keys = build(["a", "b"], [("a", "b")], key_bits=128)
    p, g = crypto.generate_dh_group(96, random.Random(5))
    q = p // 2
    rounds = []
    miller_rabin = crypto._miller_rabin

    def counted(n, base):
        rounds.append((n, base))
        return miller_rabin(n, base)

    monkeypatch.setattr(crypto, "_miller_rabin", counted)
    with pinned_group(r["a"], p=p, g=g, r=6):
        r["a"].start_discovery("b")
    net.run(until=10)

    assert m.drops == {}
    assert r["a"].sessions["b"].key == r["b"].sessions["a"].key
    # base 2 on q and on p, then 8 bases on q alone, drawn from b's node
    # stream, whose next draw is b's exponent
    stream = random.Random(crypto.derive_seed(7, "node", "b"))
    bases = [stream.randrange(2, q - 1) for _ in range(8)]
    assert all(2 <= base <= q - 2 for base in bases)
    assert [(n, base) for n, base in rounds if n in (p, q)] == \
        [(q, 2), (p, 2)] + [(q, base) for base in bases]
    assert r["b"].sessions["a"].key.value == \
        pow(g, 6 * stream.randrange(2, p - 1), p)
    assert r["b"].rng.getstate() == stream.getstate()


def signed_by_origin(core, key, sec_level):
    """`core` as a correctly signed 0-hop message from its originator."""
    return wire.encode_message(originate(core, key, sec_level))


# p = 23 = 2 * 11 + 1 is a safe prime and g = 5 lies in [2, p - 2]; each case
# breaks one condition the responder checks before it tests p for primality
@pytest.mark.parametrize("sec_level", [1, 0])
@pytest.mark.parametrize("case", ["p_even", "p_small", "g_one", "g_p_less_1",
                                  "sealed_past_modulus", "theirs_zero",
                                  "theirs_p", "p_past_origin_modulus"])
def test_responder_refuses_a_signed_request_with_a_bad_exchange(
        sec_level, case):
    net, r, reg, m, keys = build(["o", "v"], [("o", "v")],
                                 sec_level=sec_level, key_bits=128,
                                 stubs=("o",))
    v_enc = keys["v"].encryption.public
    p, g, theirs = 23, 5, 8
    if case == "p_even":
        p = 22
    elif case == "p_small":
        p, g = 5, 2
    elif case == "g_one":
        g = 1
    elif case == "g_p_less_1":
        g = 22
    elif case == "theirs_zero":
        theirs = 0
    elif case == "theirs_p":
        theirs = 23
    elif case == "p_past_origin_modulus":
        p = keys["o"].encryption.n   # odd, and theirs = 8 lies in (0, p)
    sealed = rsa_encrypt(theirs, v_enc)
    if case == "sealed_past_modulus":
        sealed = v_enc[0]
    core = wire.RouteCore(kind=wire.KIND_RREQ, src_ip="o",
                          src_id=reg.by_ip("o").node_id, src_seq=1, bct_id=1,
                          dst_ip="v", dh_p=p, dh_g=g, dh_payload=sealed)
    with mock.patch.object(routing, "is_safe_prime") as group_check:
        net.unicast("o", "v", signed_by_origin(core, keys["o"].signing,
                                               sec_level))
        net.run(until=5)
    assert group_check.call_count == 0
    assert m.drops == {"malformed": 1}
    assert m.verified == 1   # the request itself verified
    assert r["v"].sessions == {}
    assert m.of("session_key") == []
    assert [rec.kind for rec in net.trace] == ["RREQ"]   # no RREP left v


@pytest.mark.parametrize("sec_level", [1, 0])
@pytest.mark.parametrize("case", ["sealed_past_modulus", "theirs_zero",
                                  "theirs_p"])
def test_originator_refuses_a_signed_reply_with_a_bad_exchange(
        sec_level, case):
    net, r, reg, m, keys = build(["a", "t"], [("a", "t")],
                                 sec_level=sec_level, key_bits=128,
                                 stubs=("t",))
    with pinned_group(r["a"], p=23, g=5, r=6):
        bct = r["a"].start_discovery("t")
    net.run(until=5)
    a_enc = keys["a"].encryption.public
    sealed = {"sealed_past_modulus": a_enc[0],
              "theirs_zero": rsa_encrypt(0, a_enc),
              "theirs_p": rsa_encrypt(23, a_enc)}[case]
    core = wire.RouteCore(kind=wire.KIND_RREP, src_ip="t",
                          src_id=reg.by_ip("t").node_id, src_seq=1,
                          bct_id=bct, dst_ip="a", dst_seq=r["a"].seq,
                          dh_payload=sealed)
    net.unicast("t", "a", signed_by_origin(core, keys["t"].signing,
                                           sec_level))
    net.run(until=10)
    assert m.drops == {"malformed": 1}
    assert m.verified == 1   # the reply itself verified
    assert r["a"].sessions == {}
    assert m.of("session_key") == []
    assert {dst: list(want.attempts) for dst, want in r["a"].wants.items()} \
        == {"t": [bct]}
    assert m.of("discovered") == []
    assert r["a"].routes == {}


def routing_state(router):
    """A copy of everything a router keeps about routes and discoveries."""
    return copy.deepcopy({name: getattr(router, name) for name in (
        "routes", "seen", "flows", "sessions", "wants", "seq")})


# each case breaks one condition the target checks: the group, the
# decrypted half, the width against the requester's key, the safe prime
@pytest.mark.parametrize("sec_level", [1, 0])
@pytest.mark.parametrize("case", ["p_even", "g_one", "theirs_zero",
                                  "p_past_origin_modulus", "p_not_safe"])
def test_a_request_with_a_bad_exchange_leaves_the_target_unchanged(
        sec_level, case):
    net, r, reg, m, keys = build(["o", "v"], [("o", "v")],
                                 sec_level=sec_level, key_bits=128)
    r["o"].start_discovery("v")   # v now holds a route, a flow, a session
    net.run(until=10)
    assert r["v"].sessions and r["v"].routes and r["v"].flows
    before = routing_state(r["v"])
    p, g, theirs = 23, 5, 8
    if case == "p_even":
        p = 22
    elif case == "g_one":
        g = 1
    elif case == "theirs_zero":
        theirs = 0
    elif case == "p_past_origin_modulus":
        p = keys["o"].encryption.n
    elif case == "p_not_safe":
        p = 29   # prime, but (29 - 1) / 2 = 14 is not
    # a fresher request than the one v answered, so its route would win
    core = wire.RouteCore(kind=wire.KIND_RREQ, src_ip="o",
                          src_id=r["o"].node_id, src_seq=r["o"].seq + 5,
                          bct_id=99, dst_ip="v", dh_p=p, dh_g=g,
                          dh_payload=rsa_encrypt(theirs,
                                                 keys["v"].encryption.public))
    net.unicast("o", "v", signed_by_origin(core, keys["o"].signing,
                                           sec_level))
    net.run(until=20)
    assert m.drops == {"malformed": 1}
    assert routing_state(r["v"]) == before


@pytest.mark.parametrize("sec_level", [1, 0])
def test_a_reply_a_relay_cannot_forward_leaves_it_unchanged(sec_level):
    names = ["a", "b", "c"]
    net, r, reg, m, keys = build(names, line(names), sec_level=sec_level,
                                 key_bits=128)
    r["c"].start_discovery("b")   # b learns c, but has no route to a
    net.run(until=10)
    assert r["b"].sessions and r["b"].routes and r["b"].flows
    assert "a" not in r["b"].routes
    before = routing_state(r["b"])
    # a fresher reply from c than any b has seen, for a, through b
    core = wire.RouteCore(kind=wire.KIND_RREP, src_ip="c",
                          src_id=r["c"].node_id, src_seq=r["c"].seq + 5,
                          bct_id=99, dst_ip="a", dst_seq=1, dh_payload=9)
    net.unicast("c", "b", signed_by_origin(core, keys["c"].signing,
                                           sec_level))
    net.run(until=20)
    assert m.drops == {"no_route": 1}
    assert routing_state(r["b"]) == before


@pytest.mark.parametrize("sec_level,exp_signed,exp_verified",
                         [(1, 8, 20), (0, 8, 8)])
def test_line_of_five_multihop(sec_level, exp_signed, exp_verified):
    names = list("abcde")
    net, r, reg, m, keys = build(names, line(names), sec_level=sec_level)
    r["a"].start_discovery("e")
    net.run(until=40)

    assert m.discovery_latency_ticks == [8]
    assert r["a"].routes["e"].next_hop == "b"
    assert r["e"].routes["a"].next_hop == "d"
    assert r["c"].routes["e"].next_hop == "d"
    assert r["c"].routes["a"].next_hop == "b"
    # level 1 attests the whole path; level 0 keeps one record, so its
    # distance reflects only what the message can prove
    expected_distance = 4 if sec_level == 1 else 2
    assert r["a"].routes["e"].distance == expected_distance
    assert r["e"].routes["a"].distance == expected_distance

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

    assert r["a"].routes["c"].distance == 2
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

    # b's copy is processed first at d; c's identical copy is a duplicate
    assert r["d"].routes["a"].next_hop == "b"
    assert r["a"].routes["d"].next_hop == "b"
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
    fake_origin = rsa_sign_first(signer_hash(core, (), a_pub), m_sig)
    agg = sas_aggregate_step(fake_origin,
                             signer_hash(core, hops, m_sig.public),
                             m_sig)
    msg = wire.RouteMessage(core=core, hops=hops, sec_level=1,
                            aggregate=agg, source_sig=None)
    net.broadcast("m", wire.encode_message(msg))
    net.run(until=5)

    assert m.drops == {"verify_failed": 1}
    assert r["b"].routes == {}


@pytest.mark.parametrize("sec_level", [0, 1])
def test_a_tampered_copy_fails_after_the_honest_copy_was_verified(sec_level):
    # m relays a's request to b and then, with b's checks in the public-op
    # memo, a copy with a tampered aggregate to v, which has not seen it
    names = ["a", "m", "b", "v", "d"]
    net, r, reg, m, keys = build(names, [("m", "b"), ("m", "v")],
                                 sec_level=sec_level, key_bits=128,
                                 stubs=("a", "m", "d"))
    core = wire.RouteCore(kind=wire.KIND_RREQ, src_ip="a",
                          src_id=reg.by_ip("a").node_id, src_seq=3,
                          bct_id=11, dst_ip="d", dh_p=23, dh_g=5,
                          dh_payload=9)
    relay = reg.by_ip("m")
    honest = routing.append_signer(
        originate(core, keys["a"].signing, sec_level), wire.encode_core(core),
        keys["m"].signing, relay.key_bytes, relay.node_id)
    agg = honest.aggregate
    tampered = honest._replace(
        aggregate=AggregateSignature(agg.value + 1, agg.overflow_bits))
    crypto.rsa_public.cache_clear()
    net.unicast("m", "b", wire.encode_message(honest))
    net.run(until=5)
    assert r["b"].routes["a"].next_hop == "m"
    assert m.verified == 1 + sec_level
    assert m.drops == {}

    net.unicast("m", "v", wire.encode_message(tampered))
    net.run(until=10)
    assert m.drops == {"verify_failed": 1}
    assert r["v"].routes == {}
    # the honest copy still passes at v, from the memo alone
    computed = crypto.rsa_public.cache_info().misses
    net.unicast("m", "v", wire.encode_message(honest))
    net.run(until=15)
    assert r["v"].routes["a"].next_hop == "m"
    assert crypto.rsa_public.cache_info().misses == computed


def test_claimed_last_hop_must_match_physical_sender():
    names = ["a", "b", "m"]
    net, r, reg, m, keys = build(names, [("a", "b"), ("m", "b")], stubs=("m",))
    core = wire.RouteCore(kind=wire.KIND_RREQ, src_ip="a",
                          src_id=r["a"].node_id, src_seq=5, bct_id=42,
                          dst_ip="b", dh_p=23, dh_g=5,
                          dh_payload=rsa_encrypt(8, keys["b"].encryption.public))
    sig = rsa_sign_first(signer_hash(core, (), keys["a"].signing.public),
                         keys["m"].signing)
    msg = wire.RouteMessage(core=core, hops=(), sec_level=1,
                            aggregate=sig, source_sig=None)
    net.broadcast("m", wire.encode_message(msg))
    net.run(until=5)
    assert m.drops == {"id_mismatch": 1}


# Each forgery passes every check _verify makes before the one it names, and
# would fail a later one too: its drop reason, with no signature verified,
# pins the order of the checks. `frame` maps m's signing modulus to the
# fields that differ from a 1-hop request o -> m -> v; origin "m" makes a
# 0-hop request from m.
@pytest.mark.parametrize("level,origin,frame,reason", [
    pytest.param(1, "o", lambda n: dict(sec_level=0, aggregate=None),
                 "malformed", id="L1-level-byte"),
    pytest.param(0, "o", lambda n: dict(sec_level=1, source_sig=None),
                 "malformed", id="L0-level-byte"),
    pytest.param(1, "o", lambda n: dict(aggregate=None), "verify_failed",
                 id="L1-unsigned"),
    pytest.param(0, "o", lambda n: dict(aggregate=None), "verify_failed",
                 id="L0-unsigned"),
    pytest.param(1, "o", lambda n: dict(aggregate=AggregateSignature(5, ())),
                 "malformed", id="L1-signer-count"),
    pytest.param(0, "o", lambda n: dict(hops=("o", "m"), source_sig=None),
                 "verify_failed", id="L0-no-source-sig"),
    pytest.param(0, "o", lambda n: dict(
        hops=("o", "m"), aggregate=AggregateSignature(5, (0, 0))),
                 "malformed", id="L0-two-hops"),
    pytest.param(0, "o", lambda n: dict(aggregate=AggregateSignature(5, ())),
                 "malformed", id="L0-signer-count"),
    pytest.param(0, "o", lambda n: dict(aggregate=AggregateSignature(n, (0,))),
                 "verify_failed", id="L0-aggregate-past-last-hop-modulus"),
    pytest.param(0, "m", lambda n: dict(hops=(),
                                        aggregate=AggregateSignature(5, ())),
                 "verify_failed", id="L0-0-hop-aggregate-not-source-sig"),
    pytest.param(0, "m", lambda n: dict(hops=(),
                                        aggregate=AggregateSignature(n, ()),
                                        source_sig=n),
                 "verify_failed", id="L0-source-sig-past-origin-modulus"),
])
def test_a_live_router_rejects_each_forgery_at_its_own_check(
        level, origin, frame, reason):
    names = ["o", "m", "v"]
    net, r, reg, m, keys = build(names, [("m", "v")], sec_level=level,
                                 key_bits=128, stubs=("o", "m"))
    core = wire.RouteCore(kind=wire.KIND_RREQ, src_ip=origin,
                          src_id=reg.by_ip(origin).node_id, src_seq=1,
                          bct_id=1, dst_ip="v", dh_p=23, dh_g=5, dh_payload=9)
    fields = dict(hops=("m",), sec_level=level,
                  aggregate=AggregateSignature(5, (0,)),
                  source_sig=7 if level == 0 else None)
    fields.update(frame(keys["m"].signing.n))
    fields["hops"] = tuple(reg.by_ip(h).node_id for h in fields["hops"])
    before = routing_state(r["v"])
    net.unicast("m", "v", wire.encode_message(
        wire.RouteMessage(core=core, **fields)))
    net.run(until=5)
    assert [rec.kind for rec in net.trace] == ["RREQ"]
    assert m.drops == {reason: 1}
    assert m.verified == 0
    assert r["v"].routes == {}
    assert r["v"].sessions == {}
    assert routing_state(r["v"]) == before


def test_a_level_0_origin_signature_in_range_is_checked_and_counted():
    # 7 lies below m's modulus but is not m's signature over the request:
    # the target runs the origin check, counts it, and refuses the request
    net, r, reg, m, keys = build(["m", "v"], [("m", "v")], sec_level=0,
                                 key_bits=128, stubs=("m",))
    core = wire.RouteCore(kind=wire.KIND_RREQ, src_ip="m",
                          src_id=reg.by_ip("m").node_id, src_seq=1,
                          bct_id=1, dst_ip="v", dh_p=23, dh_g=5, dh_payload=9)
    assert 7 < keys["m"].signing.n
    net.unicast("m", "v", wire.encode_message(wire.RouteMessage(
        core=core, hops=(), sec_level=0,
        aggregate=AggregateSignature(7, ()), source_sig=7)))
    net.run(until=5)
    assert m.drops == {"verify_failed": 1}
    assert m.verified == 1
    assert r["v"].routes == {}
    assert r["v"].sessions == {}


def test_unknown_origin_identity_is_rejected():
    names = ["a", "b", "m"]
    net, r, reg, m, keys = build(names, [("a", "b"), ("m", "b")], stubs=("m",))
    core = wire.RouteCore(kind=wire.KIND_RREQ, src_ip="zz",
                          src_id=b"\x42" * 32, src_seq=1, bct_id=1,
                          dst_ip="b", dh_p=23, dh_g=5, dh_payload=9)
    sig = rsa_sign_first(signer_hash(core, (), keys["m"].signing.public),
                         keys["m"].signing)
    msg = wire.RouteMessage(core=core, hops=(), sec_level=1,
                            aggregate=sig, source_sig=None)
    net.broadcast("m", wire.encode_message(msg))
    net.run(until=5)
    assert m.drops == {"unknown_identity": 1}


@pytest.mark.parametrize("sec_level", [0, 1])
@pytest.mark.parametrize("kind,unknown", [
    ("RREQ", "dst_ip"), ("RREP", "dst_ip"), ("RERR", "dst_ip"),
    ("RERR", "originator_id"),
])
def test_a_forged_chain_naming_an_unknown_identity_costs_no_check(
        sec_level, kind, unknown):
    # m relays o's message to v under a made-up aggregate: with every
    # identity known, v spends signature checks to reject it; with one
    # unknown, it drops the message before any
    names = ["o", "m", "v"]
    net, r, reg, m, keys = build(names, [("m", "v")], sec_level=sec_level,
                                 key_bits=128, stubs=("o", "m"))
    fields = {"RREQ": dict(dh_p=23, dh_g=5, dh_payload=9),
              "RREP": dict(dst_seq=1, dh_payload=9),
              "RERR": dict(originator_id=reg.by_ip("o").node_id)}[kind]

    def forged(seq, **named):
        core = wire.RouteCore(kind=getattr(wire, "KIND_" + kind), src_ip="o",
                              src_id=reg.by_ip("o").node_id, src_seq=seq,
                              bct_id=1, **{**fields, **named})
        return wire.encode_message(wire.RouteMessage(
            core=core, hops=(reg.by_ip("m").node_id,), sec_level=sec_level,
            aggregate=AggregateSignature(value=5, overflow_bits=(0,)),
            source_sig=7 if sec_level == 0 else None))

    before = routing_state(r["v"])
    net.unicast("m", "v", forged(1, dst_ip="o"))
    net.run(until=5)
    assert m.drops == {"verify_failed": 1}
    checked = m.verified
    assert checked > 0
    assert routing_state(r["v"]) == before

    named = {"dst_ip": "o"}
    named[unknown] = "nowhere" if unknown == "dst_ip" else b"\x42" * 32
    public_ops = crypto.rsa_public.cache_info()
    net.unicast("m", "v", forged(2, **named))
    net.run(until=10)
    assert m.drops == {"verify_failed": 1, "unknown_identity": 1}
    assert m.verified == checked
    assert crypto.rsa_public.cache_info()[:2] == public_ops[:2]
    assert r["v"].routes == {}
    assert routing_state(r["v"]) == before


@pytest.mark.parametrize("level", [0, 1])
def test_an_unregistered_sender_is_checked_against_the_resolved_last_hop(
        level):
    # x is a node of the network but not of the registry; it relays an
    # unsigned copy of a's request that names b as its last hop, which is
    # dropped for its sender before its missing signature
    names = ["a", "b", "c"]
    net, r, reg, m, keys = build(names, line(names), sec_level=level)
    net.add_node("x", Puppet())
    net.add_link("x", "c")
    with registry_calls("get", "by_ip", "entries") as calls:
        r["a"].start_discovery("c")
        net.run(until=20)
        assert r["a"].routes["c"].next_hop == "b"
        core = wire.RouteCore(kind=wire.KIND_RREQ, src_ip="a",
                              src_id=r["a"].node_id, src_seq=9, bct_id=9,
                              dst_ip="c", dh_p=23, dh_g=5, dh_payload=9)
        net.unicast("x", "c", wire.encode_message(wire.RouteMessage(
            core=core, hops=(r["b"].node_id,), sec_level=level,
            aggregate=None, source_sig=None)))
        net.run(until=30)

    assert m.drops.get("id_mismatch") == 1
    assert "unknown_identity" not in m.drops
    callers = [caller for _, caller in calls]
    assert "on_receive" in callers
    assert "_verify" not in callers


@pytest.mark.parametrize("secure,sec_level", [(True, 0), (True, 1),
                                              (False, 0)])
def test_a_bare_segment_frame_is_raw_bytes_to_a_live_router(secure,
                                                            sec_level):
    net, r, reg, m, keys = build(["a", "b"], [("a", "b")], secure=secure,
                                 sec_level=sec_level, stubs=("a",))
    seg = wire.Segment(role=wire.ROLE_DATA, src_port=1, dst_port=2, seq=0,
                       ack=0, payload=b"x", tag=b"\x00" * 32)
    # kind 0x10, the segment's header, payload and tag: no frame form
    net.unicast("a", "b", seg.tag_input() + seg.tag)
    net.run(until=5)
    assert m.drops == {"malformed": 1}
    assert [rec.kind for rec in net.trace] == ["RAW"]
    totals = m.trace_totals()
    assert (totals["control_bytes"], totals["data_bytes"]) == (0, 0)
    assert r["b"].transport.received == []

    # the same segment in its envelope is data, and reaches b's transport
    frame = wire.encode_message(wire.DataPacket("a", "b", seg))
    net.unicast("a", "b", frame)
    net.run(until=10)
    assert [rec.kind for rec in net.trace] == ["RAW", "DATA"]
    assert m.trace_totals()["data_bytes"] == len(frame)
    assert r["b"].transport.received == [("a", b"x")]


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
    msg = wire.RouteMessage(core=core, hops=(), sec_level=0,
                            aggregate=None, source_sig=None)
    net.unicast("b", "a", wire.encode_message(msg))
    net.run(until=5)
    assert m.drops == {"no_pending": 1}
    assert r["a"].routes == {}


def test_baseline_node_drops_a_mode_byte_its_level_does_not_fix():
    names = ["a", "b"]
    net, r, reg, m, keys = build(names, [("a", "b")], secure=False,
                                 stubs=("b",))
    b_sig = keys["b"].signing
    core = wire.RouteCore(kind=wire.KIND_RREQ, src_ip="b",
                          src_id=identity.derive_id(b_sig.public), src_seq=3,
                          bct_id=5, dst_ip="a")
    good = wire.encode_message(wire.RouteMessage(
        core=core, hops=(), sec_level=1, aggregate=None, source_sig=None))
    # the mode byte follows the core and the empty hop list; 1 is level 0's
    at = len(wire.encode_core(core)) + 4
    assert good[at:at + 2] == b"\x00\x01"
    net.unicast("b", "a", good[:at] + b"\x01" + good[at + 1:])
    net.run(until=5)
    assert m.drops == {"malformed": 1}
    assert [rec.kind for rec in net.trace] == ["RAW"]
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

    assert [ev.node for ev in m.of("rerr_sent")] == ["b"]
    assert [ev.node for ev in m.of("rerr_accepted")] == ["a"]
    assert "c" not in r["b"].routes
    # automatic retry is pending; heal the link and let it fire
    net.set_link("b", "c", up=True)
    net.run(until=130)

    assert len(m.discovery_latency_ticks) == 2
    assert r["a"].routes["c"].next_hop == "b"
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
    msg = originate(core, keys["x"].signing, sec_level=1)
    net.unicast("x", "b", wire.encode_message(msg))
    net.run(until=20)

    assert m.drops.get("id_mismatch") == 1
    assert "c" in r["b"].routes
    assert "c" in r["a"].routes


def test_data_for_unknown_destination_is_unroutable():
    names = ["a", "b", "m"]
    net, r, reg, m, keys = build(names, [("a", "b"), ("m", "b")], stubs=("m",))
    seg = wire.Segment(role=wire.ROLE_DATA, src_port=0, dst_port=0, seq=0,
                       ack=0, payload=b"x", tag=b"\x00" * 32)
    pkt = wire.DataPacket(src_ip="m", dst_ip="nowhere", segment=seg)
    net.unicast("m", "b", wire.encode_message(pkt))
    net.run(until=5)
    assert m.drops == {"no_route": 1}


def test_a_segment_to_an_unregistered_address_goes_nowhere():
    names = ["a", "b"]
    net, r, reg, m, keys = build(names, [("a", "b")])
    send_payload(r["a"], "nowhere", b"x")
    net.run(until=100)
    assert net.trace == []
    assert r["a"].wants == {}
    assert m.of("discovery") == []


def test_a_relay_drops_a_broken_route_for_an_unregistered_source():
    # b learns its route to c from c's request; a is a stub, so none of the
    # request's copies is answered
    names = ["a", "b", "c"]
    net, r, reg, m, keys = build(names, line(names), stubs=("a",))
    r["c"].start_discovery("a")
    net.run(until=10)
    assert [e.next_hop for e in r["b"].routes.values()] == ["c"]
    seq, frames = r["b"].seq, len(net.trace)
    net.set_link("b", "c", up=False)
    seg = wire.Segment(role=wire.ROLE_DATA, src_port=0, dst_port=0, seq=0,
                       ack=0, payload=b"x", tag=b"\x00" * 32)
    net.unicast("a", "b", wire.encode_message(
        wire.DataPacket(src_ip="ghost", dst_ip="c", segment=seg)))
    net.run(until=20)
    # b drops the route and has no one to report the break to
    assert r["b"].routes == {}
    assert len(net.trace) == frames + 1   # the injected frame alone
    assert m.of("rerr_sent") == []
    assert r["b"].seq == seq


def test_a_segment_to_a_next_hop_that_is_gone_is_queued_for_rediscovery():
    net, r, reg, m, keys = build(["a", "b"], [("a", "b")])
    r["a"].start_discovery("b")
    net.run(until=10)
    assert [want.attempts for want in r["a"].wants.values()] == [{}]
    net.set_link("a", "b", up=False)
    send_payload(r["a"], "b", b"x")
    assert "b" not in r["a"].routes
    assert [seg.payload for seg in r["a"].wants["b"].queue] == [b"x"]
    assert [(dst, attempt) for dst, want in r["a"].wants.items()
            for _, attempt in want.attempts.values()] == [("b", 1)]
    last = m.of("discovery")[-1]
    assert (last.node, last.fields["target"], last.fields["attempt"]) == \
        ("a", "b", 1)


def test_the_send_queue_keeps_the_newest_segments():
    net, r, reg, m, keys = build(["a", "b"], [])
    payloads = [b"%d" % i for i in range(routing.SEND_QUEUE_LIMIT + 2)]
    for data in payloads:
        send_payload(r["a"], "b", data)
    assert [seg.payload for seg in r["a"].wants["b"].queue] == payloads[2:]
    assert len(m.of("discovery")) == 1


def plain_rerr(reg, reporter, dst_ip, unreachable):
    """An unsigned break report from `reporter`, sent toward `dst_ip`, that
    names `unreachable`."""
    core = wire.RouteCore(kind=wire.KIND_RERR, src_ip=reporter,
                          src_id=reg.by_ip(reporter).node_id, src_seq=1,
                          bct_id=0, dst_ip=dst_ip,
                          originator_id=reg.by_ip(unreachable).node_id)
    return wire.encode_message(wire.RouteMessage(
        core=core, hops=(), sec_level=1, aggregate=None, source_sig=None))


def test_a_plain_relay_without_a_flow_forwards_a_break_report_on_its_route():
    # b learns routes to a and to c from their requests, so it holds no
    # flow from a to c
    names = ["a", "b", "c", "x"]
    net, r, reg, m, keys = build(names, line(["a", "b", "c"]) + [("x", "b")],
                                 secure=False, stubs=("x",))
    r["a"].start_discovery("b")
    r["c"].start_discovery("b")
    net.run(until=10)
    assert {dst: e.next_hop for dst, e in r["b"].routes.items()} == \
        {"a": "a", "c": "c"}
    assert ("a", "c") not in r["b"].flows
    net.unicast("x", "b", plain_rerr(reg, "x", "a", "c"))
    net.run(until=20)
    accepted, = m.of("rerr_accepted")
    assert (accepted.node, accepted.fields["reporter"],
            accepted.fields["unreachable"]) == ("b", "x", "c")
    assert "c" not in r["b"].routes
    assert [(rec.src, rec.dst) for rec in net.trace
            if rec.kind == "RERR"] == [("x", "b"), ("b", "a")]


def test_a_plain_node_without_a_flow_or_route_drops_a_break_report():
    names = ["a", "b", "c", "x"]
    net, r, reg, m, keys = build(names, [("x", "b")], secure=False,
                                 stubs=("x",))
    before = routing_state(r["b"])
    net.unicast("x", "b", plain_rerr(reg, "x", "a", "c"))
    net.run(until=5)
    assert m.drops == {"no_route": 1}
    assert m.of("rerr_accepted") == []
    assert routing_state(r["b"]) == before


def test_frames_with_a_route_resolve_no_identity():
    # every registry lookup in a secure flow belongs to discovery and the
    # handshake, so a longer payload makes none more
    def lookups(segments):
        doc = {"seed": 5, "key_bits": 128, "dh_bits": 32, "mode": "secure",
               "run_until": 400, "nodes": list("abcd"),
               "links": [{"a": x, "b": y} for x, y in line("abcd")],
               "events": [{"tick": 1, "kind": "start_flow", "client": "a",
                           "server": "d", "payload": "x" * 500 * segments}]}
        with registry_calls("get", "by_ip", "find_ip") as calls:
            result = scenario.run_scenario(doc)
        assert result.metrics.delivered_payloads[("d", "a", 80, 5000)] == \
            b"x" * 500 * segments
        return len(calls)

    assert lookups(1) == lookups(20)


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
    # the give-up deletes the record, so a later segment starts a fresh chain
    assert r["a"].wants == {}
    assert r["f"].routes == {}
    send_payload(r["a"], "f", b"again")
    assert [(ev.fields["target"], ev.fields["attempt"])
            for ev in m.of("discovery")[3:]] == [("f", 1)]
    assert [seg.payload for seg in r["a"].wants["f"].queue] == [b"again"]


def discoveries(m):
    """(tick, bct, attempt) of each discovery started, and (tick, bct) of
    each completed."""
    return ([(ev.tick, ev.fields["bct"], ev.fields["attempt"])
             for ev in m.of("discovery")],
            [(ev.tick, ev.fields["bct"]) for ev in m.of("discovered")])


def test_two_discoveries_toward_one_target_run_side_by_side():
    # a second start toward a target with an attempt in flight runs a
    # chain of its own, and both are answered
    net, r, reg, m, keys = build(["a", "b", "c"], line("abc"), seed=3,
                                 key_bits=128, dh_bits=32)
    for tick in (1, 2):
        net.schedule(tick, r["a"].start_discovery, "c")
    net.run(until=100)
    assert discoveries(m) == ([(1, 1, 1), (2, 2, 1)], [(5, 1), (6, 2)])


def two_chains_toward_f():
    """(net, routers, metrics) of a line a-b-f where a starts two chains of
    discoveries toward f, which comes into reach after the first gives up.

    f is out of reach until tick 125, past the first chain's last
    broadcast (tick 101); the second chain's last attempt, at tick 130,
    crosses the slow link to f and is answered after the first chain gave
    up (tick 151), but before it would itself be retired (tick 180). A
    segment for f is sent at tick 100, and one at tick 152.
    """
    net, r, reg, m, keys = build(["a", "b", "f"],
                                 [("a", "b"), ("b", "f", {"latency": 12})],
                                 seed=3, key_bits=128, dh_bits=32)
    net.set_link("b", "f", up=False)
    for tick in (1, 30):
        net.schedule(tick, r["a"].start_discovery, "f")
    net.schedule(100, send_payload, r["a"], "f", b"early")
    net.schedule(125, net.set_link, "b", "f", True)
    # bct 6 is in flight here, so this segment is queued behind it
    net.schedule(152, send_payload, r["a"], "f", b"late")
    return net, r, m


def test_a_give_up_drops_the_queue_but_not_another_chain():
    net, r, m = two_chains_toward_f()
    net.run(until=400)
    assert discoveries(m) == (
        [(1, 1, 1), (30, 2, 1), (51, 3, 2), (80, 4, 2), (101, 5, 3),
         (130, 6, 3)],
        [(156, 6)])
    # the first chain's give-up dropped the segment queued before it
    assert r["f"].transport.received == [("a", b"late")]


def test_a_target_found_by_a_later_chain_is_rediscovered_on_a_break():
    # the first chain's give-up leaves the record of the second chain, which
    # found f, so a break report restarts discovery toward f
    net, r, m = two_chains_toward_f()
    net.schedule(200, net.set_link, "b", "f", False)
    net.schedule(201, send_payload, r["a"], "f", b"broken")
    net.run(until=200)
    assert r["a"].routes["f"].next_hop == "b"
    net.run(until=400)
    assert [(ev.tick, ev.node) for ev in m.of("rerr_sent")] == [(202, "b")]
    assert [(ev.tick, ev.node, ev.fields["reporter"])
            for ev in m.of("rerr_accepted")] == [(203, "a", "b")]
    assert discoveries(m)[0][6:] == [(203, 7, 1), (253, 8, 2), (303, 9, 3)]


def test_a_hop_encodes_each_route_core_once_and_no_key():
    # on a secure level-1 line, a route message's core is encoded once where
    # it is made and once at each node that accepts it, for every signer
    # hash there and the frame sent on; every key is encoded when its node
    # is built, never during the run
    names = list("abcde")
    net, r, reg, m, keys = build(names, line(names))
    net.schedule(1, r["a"].start_discovery, "e")
    publics = mock.Mock(wraps=wire.encode_public)
    with mock.patch.object(wire, "encode_core",
                           wraps=wire.encode_core) as cores, \
            mock.patch.object(wire, "encode_public", publics), \
            mock.patch.object(identity, "encode_public", publics):
        net.run(until=40)
    assert m.discovery_latency_ticks == [8]
    accepted = [rec for rec in net.trace
                if rec.kind in wire.ROUTE_KIND_NAMES.values()
                and rec.disposition == "delivered"]
    assert len(accepted) == 8
    # a's request and e's reply, and each copy accepted
    assert cores.call_count == 2 + len(accepted)
    assert publics.call_count == 0


def test_a_hop_builds_one_message_and_queues_its_frames_directly():
    # on a secure level-1 line, inside Network.run: a forwarded message is
    # built once, with no _replace; every frame sent carries its trace
    # label, so none is passed to wire.describe; and each delivery goes
    # straight into its tick's list, so Network.schedule sees only timers
    names = list("abcde")
    net, r, reg, m, keys = build(names, line(names))
    net.schedule(1, r["a"].start_discovery, "e")
    calls = []
    replace = wire.RouteMessage._replace
    describe = wire.describe
    schedule = sim.Network.schedule

    def spy_replace(self, **fields):
        calls.append("_replace")
        return replace(self, **fields)

    def spy_describe(data):
        calls.append(("describe", type(data)))
        return describe(data)

    def spy_schedule(self, delay, fn, *args):
        calls.append(("schedule", fn.__name__))
        return schedule(self, delay, fn, *args)

    with mock.patch.object(wire.RouteMessage, "_replace", spy_replace), \
            mock.patch.object(wire, "describe", spy_describe), \
            mock.patch.object(sim.Network, "schedule", spy_schedule):
        net.run(until=40)
    assert m.discovery_latency_ticks == [8]
    assert m.signed == 8 and len(net.trace) == 11
    assert calls == [("schedule", "_retire")]


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
