"""Wire codec tests: canonical encodings, strict decoding, signing views."""

import copy
import hashlib
import os
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import capture_frames, decode_or_error
from manetsec import scenario, wire
from manetsec.crypto import AggregateSignature
from manetsec.wire import (
    DataPacket,
    ParseError,
    RouteCore,
    RouteMessage,
    Segment,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ID_A = bytes(range(32))
ID_B = bytes(range(32, 64))
ID_C = hashlib.sha256(b"c").digest()


def _rreq(**over):
    base = dict(kind=wire.KIND_RREQ, src_ip="n0", src_id=ID_A, src_seq=3,
                bct_id=7, dst_ip="n4", dh_p=23, dh_g=5, dh_payload=1234)
    base.update(over)
    return RouteCore(**base)


def _msg(core, **over):
    base = dict(core=core, hops=(ID_B,), sec_level=1,
                aggregate=AggregateSignature(45, (0,)), source_sig=None)
    base.update(over)
    return RouteMessage(**base)


# --- integers ---------------------------------------------------------------

@pytest.mark.parametrize("value", [0, 1, 127, 128, 255, 256, 187, 2**64,
                                   2**521 - 1])
def test_bigint_round_trip(value):
    buf = wire.encode_bigint(value)
    got, pos = wire.read_bigint(buf, 0)
    assert got == value
    assert pos == len(buf)


def test_bigint_golden_bytes():
    # 187 -> length 1, payload 0xbb; zero -> length 0
    assert wire.encode_bigint(187) == b"\x00\x00\x00\x01\xbb"
    assert wire.encode_bigint(0) == b"\x00\x00\x00\x00"


def test_bigint_rejects_leading_zero():
    with pytest.raises(ParseError):
        wire.read_bigint(b"\x00\x00\x00\x02\x00\xbb", 0)


def test_bigint_rejects_truncation_with_position():
    with pytest.raises(ParseError) as err:
        wire.read_bigint(b"\x00\x00\x00\x05\x01", 0)
    assert err.value.position == 4


def test_bigint_rejects_negative_on_encode():
    with pytest.raises(ValueError):
        wire.encode_bigint(-1)


# --- route messages ---------------------------------------------------------

def test_rreq_round_trip():
    msg = _msg(_rreq())
    data = wire.encode_message(msg)
    assert wire.decode_message(data) == msg


def test_rrep_round_trip():
    core = RouteCore(kind=wire.KIND_RREP, src_ip="n0", src_id=ID_A, src_seq=3,
                     bct_id=7, dst_ip="n4", dst_seq=9, dh_payload=77)
    msg = _msg(core, hops=(), aggregate=AggregateSignature(11, ()))
    assert wire.decode_message(wire.encode_message(msg)) == msg


def test_rerr_round_trip():
    core = RouteCore(kind=wire.KIND_RERR, src_ip="n0", src_id=ID_A, src_seq=0,
                     bct_id=7, dst_ip="n4", originator_id=ID_C)
    msg = _msg(core, hops=(ID_B, ID_A),
               sec_level=0,
               aggregate=AggregateSignature(5, (1,)), source_sig=162)
    assert wire.decode_message(wire.encode_message(msg)) == msg


def test_baseline_message_has_no_signature_block():
    msg = _msg(_rreq(), hops=(ID_B,), aggregate=None, sec_level=0)
    data = wire.encode_message(msg)
    decoded = wire.decode_message(data)
    assert decoded.aggregate is None
    assert decoded == msg


def test_rreq_golden_layout():
    # Independently assembled expected bytes for a minimal request.
    core = RouteCore(kind=wire.KIND_RREQ, src_ip="a", src_id=ID_A, src_seq=1,
                     bct_id=2, dst_ip="b", dh_p=23, dh_g=5, dh_payload=8)
    msg = RouteMessage(core=core, hops=(), sec_level=1,
                       aggregate=AggregateSignature(11, ()),
                       source_sig=None)
    expect = bytearray()
    expect += b"\x01"                              # kind
    expect += b"\x00\x01a"                         # src_ip
    expect += ID_A                                 # src_id
    expect += (1).to_bytes(8, "big")               # src_seq
    expect += (2).to_bytes(8, "big")               # bct_id
    expect += b"\x00\x01b"                         # dst_ip
    expect += b"\x00\x00\x00\x01\x17"              # p=23
    expect += b"\x00\x00\x00\x01\x05"              # g=5
    expect += b"\x00\x00\x00\x01\x08"              # payload=8
    expect += b"\x00\x00\x00\x00"                  # no hop records
    expect += b"\x00"                              # mode: full aggregate
    expect += b"\x01"                              # security level
    expect += b"\x00\x00\x00\x01"                  # one signer
    expect += b"\x00\x00\x00\x01\x0b"              # sigma=11
    expect += b"\x00\x00\x00\x00"                  # zero overflow bits
    expect += b"\x00"                              # no standalone signature
    assert wire.encode_message(msg) == bytes(expect)


def test_decode_rejects_trailing_bytes():
    data = wire.encode_message(_msg(_rreq())) + b"\x00"
    with pytest.raises(ParseError):
        wire.decode_message(data)


def test_decode_rejects_unknown_kind():
    with pytest.raises(ParseError):
        wire.decode_message(b"\x09hello")
    with pytest.raises(ParseError):
        wire.decode_message(b"")


def test_decode_rejects_nonzero_padding_bits():
    msg = _msg(_rreq(), hops=(ID_B,),
               aggregate=AggregateSignature(45, (1,)))
    data = bytearray(wire.encode_message(msg))
    # single overflow bit packs msb-first: 0x80; force a padding bit on
    idx = data.rindex(b"\x80")
    data[idx] = 0x81
    with pytest.raises(ParseError):
        wire.decode_message(bytes(data))


def test_decode_rejects_bit_count_mismatch():
    msg = _msg(_rreq(), hops=(ID_B,),
               aggregate=AggregateSignature(45, (0,)))
    good = wire.encode_message(msg)
    # the zero-bit vector for two signers encodes as count=1 + one byte
    bad = good.replace(b"\x00\x00\x00\x01\x00\x00", b"\x00\x00\x00\x02\x00\x00", 1)
    with pytest.raises(ParseError):
        wire.decode_message(bad)


@pytest.mark.parametrize("sec_level", [1, 0])
def test_decode_rejects_a_mode_byte_the_level_does_not_fix(sec_level):
    msg = _msg(_rreq(), sec_level=sec_level)
    data = bytearray(wire.encode_message(msg))
    # oracle: the mode byte follows the core and the one hop record
    at = len(wire.encode_core(msg.core)) + 4 + 32
    assert data[at:at + 2] == bytes([1 - sec_level, sec_level])
    data[at] = sec_level
    with pytest.raises(ParseError) as err:
        wire.decode_message(bytes(data))
    assert err.value.position == at


def _edited(data, at, value):
    return data[:at] + bytes([value]) + data[at + 1:]


def _broken_route_frames():
    """{case: (bytes, position, reason)}: edits of a level-1 request with two
    hops and three signers, at offsets counted by hand."""
    msg = _msg(_rreq(), hops=(ID_B, ID_A),
               aggregate=AggregateSignature(45, (0, 1)))
    data = bytes(wire.encode_message(msg))
    count_at = len(wire.encode_core(msg.core))
    level_at = count_at + 4 + 2 * 32 + 1         # after the mode byte
    bits_at = level_at + 1 + 4 + 5 + 4   # after signers, sigma=45, bit count
    flag_at = bits_at + 1
    assert len(data) == flag_at + 1
    return {
        "hop-list-truncated": (_edited(data, count_at + 3, 3), count_at + 4,
                               "hop list truncated"),
        "bad-level-byte": (_edited(data, level_at, 2), level_at,
                           "bad security level 2"),
        "overflow-bits-truncated": (data[:bits_at], bits_at,
                                    "overflow bits truncated"),
        "bad-standalone-signature-flag": (_edited(data, flag_at, 2), flag_at,
                                          "bad standalone-signature flag"),
    }


BROKEN_ROUTE_FRAMES = _broken_route_frames()


@pytest.mark.parametrize("case", sorted(BROKEN_ROUTE_FRAMES))
def test_a_broken_route_frame_fails_at_its_position(case):
    data, position, reason = BROKEN_ROUTE_FRAMES[case]
    assert decode_or_error(wire.decode_message, data) == (position, reason)


def _cache_samples():
    seg = Segment(role=wire.ROLE_DATA, src_port=5000, dst_port=80, seq=9,
                  ack=4, payload=b"cached", tag=ID_C)
    return [_msg(_rreq()), DataPacket(src_ip="n0", dst_ip="n4", segment=seg)]


def test_repeated_decodes_return_equal_messages():
    for msg in _cache_samples():
        data = wire.encode_message(msg)
        first = wire.decode_message(data)
        assert first == msg
        assert wire.decode_message(data) == first
        # equal bytes in a different object decode to the same message
        assert wire.decode_message(bytes(bytearray(data))) == first


def test_decode_accepts_bytearray_and_memoryview():
    for msg in _cache_samples():
        data = wire.encode_message(msg)
        for view in (bytearray(data), memoryview(data)):
            assert wire.decode_message(view) == msg
    with pytest.raises(TypeError):
        wire.decode_message(3)
    pkt = _cache_samples()[1]
    buf = bytearray(wire.encode_message(pkt))
    got = wire.decode_message(buf)
    assert (type(got.segment.payload) is bytes
            and type(got.segment.tag) is bytes)
    # the decode keeps no reference to the caller's mutable buffer
    buf[-1] ^= 0xFF
    assert wire.decode_message(wire.encode_message(pkt)) == got == pkt


def test_malformed_bytes_fail_at_the_same_position_on_every_call():
    data = wire.encode_message(_msg(_rreq())) + b"\x00"
    seen = set()
    for arg in (data, data, bytearray(data), memoryview(data), data):
        with pytest.raises(ParseError) as err:
            wire.decode_message(arg)
        seen.add((err.value.position, err.value.reason))
    assert seen == {(len(data) - 1, "1 trailing bytes")}


def test_off_kind_fields_rejected_at_encode():
    with pytest.raises(ValueError):
        wire.encode_message(_msg(_rreq(dst_seq=5)))
    with pytest.raises(ValueError):
        wire.encode_message(_msg(_rreq(originator_id=ID_C)))


# --- signing views ----------------------------------------------------------

def test_signing_view_grows_by_exactly_one_record():
    # oracle: signer i hashes the core, the first i hop records, then its key
    core = _rreq()
    hops = (ID_A, ID_B, ID_C)
    public = (187, 7)
    key = b"\x00\x00\x00\x01\xbb" + b"\x00\x00\x00\x01\x07"
    encoded = wire.encode_core(core)
    assert wire.encode_public(public) == key
    view = encoded
    for i in range(4):
        if i:
            view += hops[i - 1]   # each hop adds exactly its record
        want = int.from_bytes(hashlib.sha256(view + key).digest(), "big")
        assert wire.signer_hash(encoded, hops[:i], key) == want
    assert len(view) == len(wire.encode_core(core)) + 3 * 32


def test_signer_hash_binds_public_key():
    core = _rreq()
    encoded = wire.encode_core(core)
    h1 = wire.signer_hash(encoded, (), wire.encode_public((187, 7)))
    h2 = wire.signer_hash(encoded, (), wire.encode_public((143, 7)))
    assert h1 != h2
    # oracle: recompute with hashlib over the documented concatenation
    view = wire.encode_core(core)
    blob = view + b"\x00\x00\x00\x01\xbb" + b"\x00\x00\x00\x01\x07"
    assert h1 == int.from_bytes(hashlib.sha256(blob).digest(), "big")


def test_signer_hashes_equal_per_index_signer_hash():
    rng = random.Random(5)
    for k in range(15):
        hops = tuple(rng.randbytes(32) for _ in range(k))
        publics = [(rng.getrandbits(128) | 1, 65537) for _ in range(k + 1)]
        encoded = wire.encode_core(_rreq(src_seq=k))
        keys = [wire.encode_public(public) for public in publics]
        want = [wire.signer_hash(encoded, hops[:i], keys[i])
                for i in range(k + 1)]
        assert wire.signer_hashes(encoded, hops, keys) == want


def test_signer_hashes_need_one_key_per_signer():
    with pytest.raises(ValueError):
        wire.signer_hashes(wire.encode_core(_rreq()), (ID_B,),
                           [wire.encode_public((187, 7))])


# --- segments ---------------------------------------------------------------

def _segment(**over):
    base = dict(role=wire.ROLE_SYN, src_port=5000, dst_port=80, seq=12345,
                ack=0, payload=b"", tag=bytes(32))
    base.update(over)
    return Segment(**base)


def _enveloped(seg):
    """`seg` in the data envelope, the one frame a segment travels in."""
    return DataPacket(src_ip="n0", dst_ip="n4", segment=seg)


def test_segment_round_trip():
    seg = _segment(role=wire.ROLE_DATA, payload=b"abc", ack=99,
                   tag=hashlib.sha256(b"t").digest())
    got = wire.decode_message(wire.encode_message(_enveloped(seg)))
    assert got.segment == seg


def test_data_packet_round_trip():
    pkt = DataPacket(src_ip="n0", dst_ip="n4", segment=_segment())
    assert wire.decode_message(wire.encode_message(pkt)) == pkt


def test_tag_input_covers_everything_but_the_tag():
    a = _segment(tag=bytes(32))
    b = _segment(tag=hashlib.sha256(b"x").digest())
    assert a.tag_input() == b.tag_input()
    c = _segment(seq=12346)
    assert a.tag_input() != c.tag_input()
    d = _segment(payload=b"p")
    assert a.tag_input() != d.tag_input()


def test_segment_tag_width_enforced():
    with pytest.raises(ValueError):
        wire.encode_message(_enveloped(_segment(tag=b"short")))


def test_a_bare_segment_is_no_frame():
    seg = _segment(role=wire.ROLE_DATA, payload=b"abc")
    with pytest.raises(TypeError):
        wire.encode_message(seg)
    # the bytes a bare segment frame had: kind 0x10, header, payload, tag
    bare = seg.tag_input() + seg.tag
    assert bare[0] == wire.KIND_SEGMENT
    with pytest.raises(ParseError) as err:
        wire.decode_message(bare)
    assert err.value.position == 0
    assert wire.describe(bare) == "RAW"


def test_describe_labels():
    assert wire.describe(wire.encode_message(_msg(_rreq()))) == "RREQ"
    pkt = DataPacket(src_ip="a", dst_ip="b",
                     segment=_segment(role=wire.ROLE_SYN_ACK))
    assert wire.describe(wire.encode_message(pkt)) == "SYN_ACK"
    assert wire.describe(b"\xff\xff") == "RAW"


# --- properties -------------------------------------------------------------

tokens = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789.", min_size=1,
                 max_size=12)
ids = st.binary(min_size=32, max_size=32)
u64 = st.integers(0, 2**64 - 1)
bigints = st.integers(0, 2**256)


@st.composite
def route_messages(draw):
    kind = draw(st.sampled_from([wire.KIND_RREQ, wire.KIND_RREP,
                                 wire.KIND_RERR]))
    fields = dict(kind=kind, src_ip=draw(tokens), src_id=draw(ids),
                  src_seq=draw(u64), bct_id=draw(u64), dst_ip=draw(tokens))
    if kind == wire.KIND_RREQ:
        fields.update(dh_p=draw(bigints), dh_g=draw(bigints),
                      dh_payload=draw(bigints))
    elif kind == wire.KIND_RREP:
        fields.update(dst_seq=draw(u64), dh_payload=draw(bigints))
    else:
        fields.update(originator_id=draw(ids))
    core = RouteCore(**fields)
    hops = tuple(draw(st.lists(ids, max_size=4)))
    signers = draw(st.integers(0, 5))
    agg = None
    if signers:
        agg = AggregateSignature(
            value=draw(bigints),
            overflow_bits=tuple(draw(st.lists(st.integers(0, 1),
                                              min_size=signers - 1,
                                              max_size=signers - 1))))
    return RouteMessage(core=core, hops=hops,
                        sec_level=draw(st.sampled_from([0, 1, False, True])),
                        aggregate=agg,
                        source_sig=draw(st.one_of(st.none(), bigints)))


def _assert_decodes_as_a_fresh_parse(data):
    """decode_message gives, type for type, what the strict parse gives;
    reprs tell bytes from bytearray, tuple from list and int from bool."""
    assert repr(wire.decode_message(data)) == repr(wire._parse(data))


@settings(max_examples=120, deadline=None)
@given(route_messages())
def test_route_message_round_trip_property(msg):
    data = wire.encode_message(msg)
    assert wire.decode_message(data) == msg
    _assert_decodes_as_a_fresh_parse(data)


@settings(max_examples=60, deadline=None)
@given(route_messages(), route_messages())
def test_encoding_injective_property(a, b):
    if a != b:
        assert wire.encode_message(a) != wire.encode_message(b)


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.integers(1, 6), st.just(True)),
       st.one_of(st.binary(max_size=64),
                 st.binary(max_size=64).map(bytearray)),
       u64, u64, u64, u64)
def test_segment_round_trip_property(role, payload, sp, dp, seq, ack):
    seg = Segment(role=role, src_port=sp, dst_port=dp, seq=seq, ack=ack,
                  payload=payload, tag=hashlib.sha256(payload).digest())
    data = wire.encode_message(_enveloped(seg))
    assert wire.decode_message(data).segment == seg
    _assert_decodes_as_a_fresh_parse(data)


@settings(max_examples=120, deadline=None)
@given(st.binary(max_size=80))
def test_decoder_never_crashes_on_garbage(data):
    try:
        wire.decode_message(data)
    except ParseError:
        pass


# --- strictness against the field-by-field decoder ---------------------------
#
# A test-side reference decoder for segments and envelopes, written apart
# from the codec, that reads one field at a time as the codec does. On every
# input below both must give the same message, or fail at the same position
# for the same reason.

def _old_read_uint(data, pos, width):
    if pos + width > len(data):
        raise ParseError(pos, "truncated %d-byte integer" % width)
    return int.from_bytes(data[pos:pos + width], "big"), pos + width


def _old_read_token(data, pos):
    length, pos = _old_read_uint(data, pos, 2)
    if pos + length > len(data):
        raise ParseError(pos, "token truncated")
    try:
        return data[pos:pos + length].decode("utf-8"), pos + length
    except UnicodeDecodeError:
        raise ParseError(pos, "token is not valid utf-8") from None


def _old_read_segment(data, pos):
    role, pos = _old_read_uint(data, pos, 1)
    if role not in wire.ROLE_NAMES:
        raise ParseError(pos - 1, "unknown segment role %d" % role)
    src_port, pos = _old_read_uint(data, pos, 8)
    dst_port, pos = _old_read_uint(data, pos, 8)
    seq, pos = _old_read_uint(data, pos, 8)
    ack, pos = _old_read_uint(data, pos, 8)
    plen, pos = _old_read_uint(data, pos, 4)
    if pos + plen > len(data):
        raise ParseError(pos, "payload truncated")
    payload = data[pos:pos + plen]
    pos += plen
    if pos + 32 > len(data):
        raise ParseError(pos, "truncated digest")
    tag = data[pos:pos + 32]
    return Segment(role=role, src_port=src_port, dst_port=dst_port, seq=seq,
                   ack=ack, payload=payload, tag=tag), pos + 32


def _old_decode(data):
    """Message or (position, reason) of a frame that is no route message:
    only an envelope (0x11) decodes."""
    try:
        if not data:
            raise ParseError(0, "empty message")
        if data[0] != wire.KIND_DATA:
            raise ParseError(0, "unknown message kind 0x%02x" % data[0])
        src_ip, pos = _old_read_token(data, 1)
        dst_ip, pos = _old_read_token(data, pos)
        if pos >= len(data) or data[pos] != wire.KIND_SEGMENT:
            raise ParseError(pos, "envelope must contain a segment")
        seg, pos = _old_read_segment(data, pos + 1)
        msg = DataPacket(src_ip=src_ip, dst_ip=dst_ip, segment=seg)
        if pos != len(data):
            raise ParseError(pos, "%d trailing bytes" % (len(data) - pos))
        return msg
    except ParseError as err:
        return (err.position, err.reason)


def _old_describe(data):
    """A frame's label from a fresh parse: the field-by-field decoder's for
    envelopes, the strict parse's for every other kind."""
    if data[:1] == bytes([wire.KIND_DATA]):
        got = _old_decode(data)
    else:
        try:
            got = wire._parse(data)
        except ParseError:
            return "RAW"
    if isinstance(got, DataPacket):
        return wire.ROLE_NAMES[got.segment.role]
    if isinstance(got, RouteMessage):
        return wire.ROUTE_KIND_NAMES[got.core.kind]
    return "RAW"


def _new_decode(data):
    try:
        return wire.decode_message(data)
    except ParseError as err:
        return (err.position, err.reason)


def _assert_decoders_agree(data):
    want = _old_decode(data)
    got = _new_decode(data)
    assert got == want, data
    assert type(got) is type(want)
    assert wire.describe(data) == _old_describe(data)


def _valid_frames():
    syn = Segment(role=wire.ROLE_SYN, src_port=40001, dst_port=80,
                  seq=7919, ack=0, payload=b"", tag=b"\x5a" * 32)
    data = Segment(role=wire.ROLE_DATA, src_port=5000, dst_port=80,
                   seq=2**64 - 1, ack=123456789, payload=b"some bytes",
                   tag=hashlib.sha256(b"d").digest())
    pkt = DataPacket(src_ip="ghost1", dst_ip="n4", segment=data)
    return [wire.encode_message(m)
            for m in (_enveloped(syn), _enveloped(data), pkt)]


def test_every_truncation_fails_like_the_field_by_field_decoder():
    for frame in _valid_frames():
        for cut in range(len(frame) + 1):
            _assert_decoders_agree(frame[:cut])


def test_overwritten_bytes_decode_like_the_field_by_field_decoder():
    rng = random.Random(10)
    for frame in _valid_frames():
        for _ in range(600):
            data = bytearray(frame)
            for _ in range(rng.randint(1, 3)):
                data[rng.randrange(1, len(data))] = rng.choice(
                    [rng.randrange(256), 0, 0xFF, wire.KIND_SEGMENT,
                     wire.ROLE_FIN_ACK, wire.ROLE_FIN_ACK + 1])
            _assert_decoders_agree(bytes(data))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([wire.KIND_SEGMENT, wire.KIND_DATA]),
       st.binary(max_size=120))
def test_garbage_segments_decode_like_the_field_by_field_decoder(kind, rest):
    _assert_decoders_agree(bytes([kind]) + rest)


def test_token_reader_fails_like_the_field_by_field_reader():
    rng = random.Random(11)
    for _ in range(400):
        buf = rng.randbytes(rng.randrange(6))
        if rng.random() < 0.5:
            buf = rng.randrange(4).to_bytes(2, "big") + buf
        for pos in range(len(buf) + 1):
            try:
                want = _old_read_token(buf, pos)
            except ParseError as err:
                want = (err.position, err.reason)
            try:
                got = wire._read_token(buf, pos)
            except ParseError as err:
                got = (err.position, err.reason)
            assert got == want


def test_describe_labels_every_frame_of_a_run_as_a_fresh_parse():
    path = os.path.join(ROOT, "scenarios", "attack_session_hijack.json")
    with capture_frames() as frames:
        scenario.run_scenario(scenario.load_file(path), mode="baseline")
    payloads = [payload for _, _, payload in frames]
    assert {_old_describe(p) for p in payloads} >= {"RREQ", "RREP", "SYN",
                                                     "DATA"}
    truncated = payloads[-1][:-1]
    assert _old_describe(truncated) == "RAW"
    assert all(type(p) is wire._Frame for p in payloads)
    for data in payloads + [truncated]:
        want = _old_describe(data)
        assert wire.describe(bytes(data)) == want   # the strict parse
        assert wire.describe(data) == want   # labelled from its message


def _module_state():
    """A copy of every module-level dict, list and set of manetsec.wire."""
    return {name: copy.copy(value) for name, value in vars(wire).items()
            if not name.startswith("__")
            and isinstance(value, (dict, list, set))}


def test_no_frame_state_outlives_its_frame():
    path = os.path.join(ROOT, "scenarios", "attack_session_hijack.json")
    before = _module_state()
    assert "ROLE_NAMES" in before
    with capture_frames() as frames:
        scenario.run_scenario(scenario.load_file(path), mode="secure",
                              sec_level=1)
    assert _module_state() == before
    payloads = [payload for _, _, payload in frames]
    assert payloads and all(type(p) is wire._Frame for p in payloads)
    with mock.patch.object(wire, "_parse", wraps=wire._parse) as parse:
        for i, frame in enumerate(payloads, start=1):
            got = wire.decode_message(bytes(frame))
            assert parse.call_count == i
            assert got == frame.msg and repr(got) == repr(frame.msg)


# --- bytes against the field-by-field encoder --------------------------------
#
# A test-side reference encoder for segments and envelopes that writes one
# field at a time, each with its own range check. On every input below the
# codec, which packs a segment's header at once and joins each frame once,
# must give the same bytes, or raise a ValueError with the same text.

def _old_encode_uint(value, width):
    if not 0 <= value < (1 << (8 * width)):
        raise ValueError("field out of range for %d bytes: %r" % (width, value))
    return value.to_bytes(width, "big")


def _old_encode_token(text):
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError("token too long")
    return len(raw).to_bytes(2, "big") + raw


def _old_segment_body(seg):
    if seg.role not in wire.ROLE_NAMES:
        raise ValueError("unknown segment role %r" % seg.role)
    return (bytes([wire.KIND_SEGMENT]) + _old_encode_uint(seg.role, 1)
            + _old_encode_uint(seg.src_port, 8)
            + _old_encode_uint(seg.dst_port, 8)
            + _old_encode_uint(seg.seq, 8) + _old_encode_uint(seg.ack, 8)
            + _old_encode_uint(len(seg.payload), 4) + seg.payload)


def _old_encode_segment(seg):
    if len(seg.tag) != 32:
        raise ValueError("segment tag must be 32 bytes")
    return _old_segment_body(seg) + seg.tag


def _old_encode(msg):
    return (bytes([wire.KIND_DATA]) + _old_encode_token(msg.src_ip)
            + _old_encode_token(msg.dst_ip) + _old_encode_segment(msg.segment))


def _encoded_or_error(encode, msg):
    try:
        return encode(msg)
    except ValueError as err:
        return (type(err), str(err))


def _faulty():
    """True for about one field in ten: that field is drawn out of range."""
    return st.integers(0, 9).map(lambda n: n == 0)


@st.composite
def _tokens(draw):
    """A token: short, exactly 0xFFFF utf-8 bytes, or one byte too long."""
    head = draw(st.text(max_size=8))
    size = draw(st.sampled_from(["short", "short", "full", "too_long"]))
    if size == "short":
        return head
    char = draw(st.sampled_from("a\u00e9\u20ac\U0001d11e"))   # 1 to 4 bytes
    room = 0xFFFF - len(head.encode("utf-8"))
    count, rest = divmod(room, len(char.encode("utf-8")))
    text = head + char * count + "a" * rest
    return text + "a" if size == "too_long" else text


@st.composite
def _segment_frames(draw):
    """A DataPacket; each field out of range now and then."""
    def field(valid, invalid):
        return draw(invalid if draw(_faulty()) else valid)

    edge_u64 = st.one_of(st.sampled_from([0, 2**64 - 1]), u64)
    bad_u64 = st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64))
    seg = Segment(
        role=field(st.sampled_from(sorted(wire.ROLE_NAMES)),
                   st.sampled_from([0, 7, 255, 256, -1])),
        src_port=field(edge_u64, bad_u64), dst_port=field(edge_u64, bad_u64),
        seq=field(edge_u64, bad_u64), ack=field(edge_u64, bad_u64),
        payload=draw(st.one_of(st.binary(max_size=2048),
                               st.sampled_from([b"", bytes(2048)]))),
        tag=field(st.binary(min_size=32, max_size=32),
                  st.binary(max_size=64).filter(lambda t: len(t) != 32)))
    if draw(st.booleans()):
        return _enveloped(seg)
    return DataPacket(src_ip=draw(_tokens()), dst_ip=draw(_tokens()),
                      segment=seg)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_segment_frames())
def test_segment_frames_encode_like_the_field_by_field_encoder(msg):
    want = _encoded_or_error(_old_encode, msg)
    assert _encoded_or_error(wire.encode_message, msg) == want
    seg = msg.segment
    assert (_encoded_or_error(Segment.tag_input, seg)
            == _encoded_or_error(_old_segment_body, seg))


def _old_encode_bigint(value):
    if value < 0:
        raise ValueError("big integers on the wire are unsigned")
    width = (value.bit_length() + 7) // 8
    return _old_encode_uint(width, 4) + value.to_bytes(width, "big")


def _old_encode_core(core):
    if core.kind not in wire.ROUTE_KIND_NAMES:
        raise ValueError("unknown routing kind %r" % core.kind)
    if len(core.src_id) != 32:
        raise ValueError("source id must be 32 bytes")
    wire._require_defaults(core)
    out = (bytes([core.kind]) + _old_encode_token(core.src_ip) + core.src_id
           + _old_encode_uint(core.src_seq, 8)
           + _old_encode_uint(core.bct_id, 8) + _old_encode_token(core.dst_ip))
    if core.kind == wire.KIND_RREQ:
        return (out + _old_encode_bigint(core.dh_p)
                + _old_encode_bigint(core.dh_g)
                + _old_encode_bigint(core.dh_payload))
    if core.kind == wire.KIND_RREP:
        return (out + _old_encode_uint(core.dst_seq, 8)
                + _old_encode_bigint(core.dh_payload))
    if len(core.originator_id) != 32:
        raise ValueError("error reports need a 32-byte originator id")
    return out + core.originator_id


def _old_encode_route(msg):
    out = _old_encode_core(msg.core) + _old_encode_uint(len(msg.hops), 4)
    for hop in msg.hops:
        if len(hop) != 32:
            raise ValueError("hop records are 32-byte ids")
        out += hop
    if msg.sec_level not in (0, 1):
        raise ValueError("bad security level %r" % msg.sec_level)
    out += bytes([1 - msg.sec_level, msg.sec_level])
    agg = msg.aggregate
    if agg is None:
        out += _old_encode_uint(0, 4)
    else:
        bits = bytearray((len(agg.overflow_bits) + 7) // 8)
        for i, bit in enumerate(agg.overflow_bits):
            if bit not in (0, 1):
                raise ValueError("overflow bits are 0 or 1")
            if bit:
                bits[i // 8] |= 0x80 >> (i % 8)
        out += (_old_encode_uint(agg.signer_count, 4)
                + _old_encode_bigint(agg.value)
                + _old_encode_uint(len(agg.overflow_bits), 4) + bytes(bits))
    if msg.source_sig is None:
        return out + b"\x00"
    return out + b"\x01" + _old_encode_bigint(msg.source_sig)


@st.composite
def _route_frames(draw):
    """A RouteMessage of any kind and level with 0 to 20 hops; now and then
    a sequence number, an integer or an overflow bit is out of range."""
    def field(valid, invalid):
        return draw(invalid if draw(_faulty()) else valid)

    edge_u64 = st.one_of(st.sampled_from([0, 2**64 - 1]), u64)
    bad_u64 = st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64))
    big = st.one_of(st.sampled_from([0, 1, 2**64]), bigints)
    kind = draw(st.sampled_from(sorted(wire.ROUTE_KIND_NAMES)))
    fields = dict(kind=kind, src_ip=draw(_tokens()), src_id=draw(ids),
                  src_seq=field(edge_u64, bad_u64),
                  bct_id=field(edge_u64, bad_u64), dst_ip=draw(_tokens()))
    if kind == wire.KIND_RREQ:
        fields.update(dh_p=draw(big), dh_g=draw(big),
                      dh_payload=field(big, st.integers(max_value=-1)))
    elif kind == wire.KIND_RREP:
        fields.update(dst_seq=field(edge_u64, bad_u64), dh_payload=draw(big))
    else:
        fields.update(originator_id=draw(ids))
    hops = tuple(draw(st.lists(ids, max_size=20)))
    aggregate = None
    if draw(st.booleans()):
        bits = draw(st.lists(st.integers(0, 1), min_size=len(hops),
                             max_size=len(hops)))
        if bits and draw(_faulty()):
            bits[draw(st.integers(0, len(bits) - 1))] = 2
        aggregate = AggregateSignature(draw(big), tuple(bits))
    return RouteMessage(core=RouteCore(**fields), hops=hops,
                        sec_level=draw(st.sampled_from([0, 1])),
                        aggregate=aggregate,
                        source_sig=draw(st.one_of(st.none(), big)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_route_frames())
def test_route_frames_encode_like_the_field_by_field_encoder(msg):
    want = _encoded_or_error(_old_encode_route, msg)
    assert _encoded_or_error(wire.encode_message, msg) == want
    assert (_encoded_or_error(wire.encode_core, msg.core)
            == _encoded_or_error(_old_encode_core, msg.core))


# Route messages the property test above does not draw: a field of the
# wrong kind or width, and a hop that is a bytearray, which packs to the
# bytes of plain bytes but makes a strict parse give back another type.
ROUTE_ENCODER_CASES = {
    "unknown-kind": _msg(_rreq(kind=9)),
    "short-source-id": _msg(_rreq(src_id=ID_A[:31])),
    "short-originator-id": _msg(RouteCore(
        kind=wire.KIND_RERR, src_ip="n0", src_id=ID_A, src_seq=0, bct_id=7,
        dst_ip="n4", originator_id=ID_C[:31])),
    "short-hop": _msg(_rreq(), hops=(ID_B, ID_A[:31])),
    "level-2": _msg(_rreq(), sec_level=2),
    "bytearray-hop": _msg(_rreq(), hops=(ID_B, bytearray(ID_A))),
}


@pytest.mark.parametrize("case", sorted(ROUTE_ENCODER_CASES))
def test_route_frames_off_the_drawn_range_encode_like_the_reference(case):
    msg = ROUTE_ENCODER_CASES[case]
    want = _encoded_or_error(_old_encode_route, msg)
    got = _encoded_or_error(wire.encode_message, msg)
    assert got == want
    assert (_encoded_or_error(wire.encode_core, msg.core)
            == _encoded_or_error(_old_encode_core, msg.core))
    if type(want) is bytes:
        assert type(got) is bytes
        _assert_decodes_as_a_fresh_parse(got)


class _Huge(bytes):
    """A payload that reports 2^32 bytes without holding them."""

    def __len__(self):
        return 1 << 32


@pytest.mark.parametrize("field", ["src_port", "dst_port", "seq", "ack"])
@pytest.mark.parametrize("value", [-1, 2**64])
def test_segment_fields_out_of_range_raise_value_error(field, value):
    seg = _segment(**{field: value})
    want = "field out of range for 8 bytes: %r" % value
    for encode in (wire.encode_message, Segment.tag_input):
        with pytest.raises(ValueError) as err:
            encode(seg if encode is Segment.tag_input else _enveloped(seg))
        assert str(err.value) == want


def test_payload_of_four_gibibytes_raises_value_error():
    with pytest.raises(ValueError) as err:
        wire.encode_message(_enveloped(_segment(payload=_Huge())))
    assert str(err.value) == "field out of range for 4 bytes: 4294967296"


class _Name(str):
    pass


class _Number(int):
    pass


@pytest.mark.parametrize("msg", [
    DataPacket(src_ip=_Name("n0"), dst_ip="n4", segment=_segment()),
    _enveloped(_segment(src_port=True)),
    _enveloped(_segment(seq=_Number(12345))),
], ids=["str-subclass-src_ip", "bool-port", "int-subclass-seq"])
def test_an_inexact_envelope_encodes_to_plain_bytes(msg):
    # a strict parse would not give msg back type for type, so the frame
    # cannot carry it: the bytes are the reference encoder's, the type is
    # plain bytes, and a decode is a fresh parse
    data = wire.encode_message(msg)
    assert data == _old_encode(msg)
    assert type(data) is bytes
    _assert_decodes_as_a_fresh_parse(data)


def test_an_exact_envelope_carries_itself():
    msg = _enveloped(_segment(role=wire.ROLE_DATA, payload=b"abc"))
    data = wire.encode_message(msg)
    assert type(data) is wire._Frame
    assert data.msg is msg
    assert data == _old_encode(msg)
    assert wire.decode_message(data) is msg


# --- record semantics --------------------------------------------------------

def _records():
    seg = _segment(role=wire.ROLE_DATA, payload=b"x")
    return [_rreq(), _msg(_rreq()), seg,
            DataPacket(src_ip="n0", dst_ip="n4", segment=seg)]


@pytest.mark.parametrize("record", _records(),
                         ids=lambda r: type(r).__name__)
def test_records_are_immutable_and_hashable(record):
    with pytest.raises(AttributeError):
        setattr(record, type(record)._fields[0], None)
    assert hash(record) == hash(type(record)(*record))
    changed = record._replace(**{type(record)._fields[1]: "n9"})
    assert changed != record and type(changed) is type(record)


def _buffered():
    """A Segment and a DataPacket whose payloads are callers' bytearrays."""
    return [_segment(role=wire.ROLE_DATA, payload=bytearray(b"buf")),
            DataPacket(src_ip="n0", dst_ip="n4", segment=_segment(
                role=wire.ROLE_DATA, payload=bytearray(b"buf")))]


@pytest.mark.parametrize("record", _records()[1:] + [
    pytest.param(r, id=type(r).__name__ + "-bytearray") for r in _buffered()],
                         ids=lambda r: type(r).__name__)
def test_decode_gives_back_the_record_type(record):
    # a Segment travels in its envelope and is read back out of it
    bare = type(record) is Segment
    data = wire.encode_message(_enveloped(record) if bare else record)

    def decoded(msg):
        return msg.segment if bare else msg

    got = decoded(wire.decode_message(data))
    assert got == record
    assert type(got) is type(record)
    _assert_decodes_as_a_fresh_parse(data)
    seg = record.segment if type(record) is DataPacket else record
    if type(seg) is Segment and type(seg.payload) is bytearray:
        # the caller reuses its buffer; what was decoded does not change
        seg.payload[:] = b"new"
        _assert_decodes_as_a_fresh_parse(data)
        assert repr(got) == repr(decoded(wire._parse(data)))
