"""Canonical wire codec for routing messages and transport segments.

Every encoding is injective and every decoder is strict: minimal big-endian
integers, exact digest widths, zero padding bits, no trailing bytes. Parse
errors carry the byte position so a fuzzed or tampered input points at the
first offending field.
"""

from __future__ import annotations

import struct
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .crypto import (
    AggregateSignature, DIGEST_BYTES, digest, digest_int, digest_stream,
)

KIND_RREQ = 0x01
KIND_RREP = 0x02
KIND_RERR = 0x03
KIND_SEGMENT = 0x10   # the segment record inside a data envelope
KIND_DATA = 0x11

ROLE_SYN = 1
ROLE_SYN_ACK = 2
ROLE_ACK = 3
ROLE_DATA = 4
ROLE_FIN = 5
ROLE_FIN_ACK = 6

ROUTE_KIND_NAMES = {KIND_RREQ: "RREQ", KIND_RREP: "RREP", KIND_RERR: "RERR"}
ROLE_NAMES = {ROLE_SYN: "SYN", ROLE_SYN_ACK: "SYN_ACK", ROLE_ACK: "ACK",
              ROLE_DATA: "DATA", ROLE_FIN: "FIN", ROLE_FIN_ACK: "FIN_ACK"}


class ParseError(ValueError):
    def __init__(self, position: int, reason: str):
        super().__init__("offset %d: %s" % (position, reason))
        self.position = position
        self.reason = reason


# --- primitive fields -------------------------------------------------------

def encode_bigint(value: int) -> bytes:
    if value < 0:
        raise ValueError("big integers on the wire are unsigned")
    if value == 0:
        return b"\x00\x00\x00\x00"
    width = (value.bit_length() + 7) // 8
    return width.to_bytes(4, "big") + value.to_bytes(width, "big")


def read_bigint(data: bytes, pos: int) -> Tuple[int, int]:
    length, pos = _read_uint(data, pos, 4)
    if pos + length > len(data):
        raise ParseError(pos, "integer truncated (need %d bytes)" % length)
    raw = data[pos:pos + length]
    if length > 0 and raw[0] == 0:
        raise ParseError(pos, "non-minimal integer encoding")
    return int.from_bytes(raw, "big"), pos + length


def _read_uint(data: bytes, pos: int, width: int) -> Tuple[int, int]:
    if pos + width > len(data):
        raise ParseError(pos, "truncated %d-byte integer" % width)
    return int.from_bytes(data[pos:pos + width], "big"), pos + width


def _read_token(data: bytes, pos: int) -> Tuple[str, int]:
    length, pos = _read_uint(data, pos, 2)
    if pos + length > len(data):
        raise ParseError(pos, "token truncated")
    try:
        return data[pos:pos + length].decode("utf-8"), pos + length
    except UnicodeDecodeError:
        raise ParseError(pos, "token is not valid utf-8") from None


def _read_digest(data: bytes, pos: int) -> Tuple[bytes, int]:
    if pos + DIGEST_BYTES > len(data):
        raise ParseError(pos, "truncated digest")
    return data[pos:pos + DIGEST_BYTES], pos + DIGEST_BYTES


def encode_public(public: Tuple[int, int]) -> bytes:
    """Canonical public key bytes: the id preimage and signing-hash suffix."""
    return encode_bigint(public[0]) + encode_bigint(public[1])


# --- routing messages -------------------------------------------------------

class RouteCore(NamedTuple):
    """Immutable originator-owned part of a routing message.

    Per-kind fields stay at their defaults for the other kinds; the encoder
    enforces that so encodings stay injective.
    """

    kind: int
    src_ip: str
    src_id: bytes
    src_seq: int
    bct_id: int
    dst_ip: str
    dst_seq: int = 0              # replies only
    dh_p: int = 0                 # requests only
    dh_g: int = 0                 # requests only
    dh_payload: int = 0           # requests carry R2, replies carry R4
    originator_id: bytes = b""    # error reports only


class RouteMessage(NamedTuple):
    """A routing message. Its level fixes the signature-mode byte the codec
    writes before it: 0, the full chain, at level 1; 1, the origin signature
    plus the last hop's binding, at level 0."""

    core: RouteCore
    hops: Tuple[bytes, ...]
    sec_level: int
    aggregate: Optional[AggregateSignature]
    source_sig: Optional[int]


class Segment(NamedTuple):
    """A transport segment: the record a DataPacket carries, and what its
    tag covers; never a frame of its own."""

    role: int
    src_port: int
    dst_port: int
    seq: int
    ack: int
    payload: bytes
    tag: bytes

    def tag_input(self) -> bytes:
        """Everything the authentication tag covers: all fields but itself."""
        return segment_tag_input(*self[:6])


class DataPacket(NamedTuple):
    """Minimal forwarding envelope; deliberately unauthenticated."""

    src_ip: str
    dst_ip: str
    segment: Segment


Message = Union[RouteMessage, DataPacket]


# The fixed-width runs of a core: kind and src_ip's length; src_seq,
# bct_id and dst_ip's length; a reply's dst_seq. Of a route message: the
# hop count; the signature-mode byte, the level and the signer count; the
# overflow-bit count. An unsigned message's run is a constant per level.
_CORE_HEAD = struct.Struct(">BH")
_CORE_SEQS = struct.Struct(">QQH")
_U64 = struct.Struct(">Q")
_U32 = struct.Struct(">I")
_CHAIN_HEAD = struct.Struct(">BBI")
_UNSIGNED = (_CHAIN_HEAD.pack(1, 0, 0), _CHAIN_HEAD.pack(0, 1, 0))


def encode_core(core: RouteCore) -> bytes:
    """A core's bytes, each run of fixed-width fields packed at once and the
    whole joined once. A token or sequence number that does not fit its
    width raises one ValueError that names the core."""
    (kind, src_ip, src_id, src_seq, bct_id, dst_ip, dst_seq, dh_p, dh_g,
     dh_payload, originator_id) = core
    if kind not in ROUTE_KIND_NAMES:
        raise ValueError("unknown routing kind %r" % kind)
    if len(src_id) != DIGEST_BYTES:
        raise ValueError("source id must be %d bytes" % DIGEST_BYTES)
    _require_defaults(core)
    try:
        src = src_ip.encode("utf-8")
        dst = dst_ip.encode("utf-8")
        head = (_CORE_HEAD.pack(kind, len(src)), src, src_id,
                _CORE_SEQS.pack(src_seq, bct_id, len(dst)), dst)
        if kind == KIND_RREQ:
            return b"".join(head + (encode_bigint(dh_p), encode_bigint(dh_g),
                                    encode_bigint(dh_payload)))
        if kind == KIND_RREP:
            return b"".join(head + (_U64.pack(dst_seq),
                                    encode_bigint(dh_payload)))
        if len(originator_id) != DIGEST_BYTES:
            raise ValueError("error reports need a 32-byte originator id")
        return b"".join(head + (originator_id,))
    except struct.error as err:
        raise ValueError("route core field out of range: %s" % err) from None


def _require_defaults(core: RouteCore) -> None:
    stray = []
    if core.kind != KIND_RREP and core.dst_seq != 0:
        stray.append("dst_seq")
    if core.kind != KIND_RREQ and (core.dh_p != 0 or core.dh_g != 0):
        stray.append("dh_p/dh_g")
    if core.kind == KIND_RERR and core.dh_payload != 0:
        stray.append("dh_payload")
    if core.kind != KIND_RERR and core.originator_id != b"":
        stray.append("originator_id")
    if stray:
        raise ValueError("fields not used by this kind: %s" % ", ".join(stray))


def _read_core(data: bytes, pos: int) -> Tuple[RouteCore, int]:
    kind = data[pos]
    pos += 1
    src_ip, pos = _read_token(data, pos)
    src_id, pos = _read_digest(data, pos)
    src_seq, pos = _read_uint(data, pos, 8)
    bct_id, pos = _read_uint(data, pos, 8)
    dst_ip, pos = _read_token(data, pos)
    dst_seq = dh_p = dh_g = dh_payload = 0
    originator_id = b""
    if kind == KIND_RREQ:
        dh_p, pos = read_bigint(data, pos)
        dh_g, pos = read_bigint(data, pos)
        dh_payload, pos = read_bigint(data, pos)
    elif kind == KIND_RREP:
        dst_seq, pos = _read_uint(data, pos, 8)
        dh_payload, pos = read_bigint(data, pos)
    else:
        originator_id, pos = _read_digest(data, pos)
    return RouteCore(kind, src_ip, src_id, src_seq, bct_id, dst_ip, dst_seq,
                     dh_p, dh_g, dh_payload, originator_id), pos


def _encode_route_message(msg: RouteMessage, encoded: bytes) -> bytes:
    """A route message's frame after its core's `encoded`, checked and
    packed in one pass: each hop's width, the level, the aggregate's value
    and overflow bits and the standalone signature are checked, each with
    its own ValueError. Each run of fixed-width fields is one struct pack
    and the frame is one join. As for an envelope, the frame carries the
    message only when every field has its exact type, so that a strict
    parse gives it back type for type: the core's fields through chained
    `is` tests, each hop in the loop that checks its width, and the
    overflow bits by a count made in C."""
    core, hops, sec_level, agg, sig = msg
    exact = (type(core) is RouteCore and type(hops) is tuple
             and type(sec_level) is int and _exact_core(core))
    for hop in hops:
        if len(hop) != DIGEST_BYTES:
            raise ValueError("hop records are 32-byte ids")
        if type(hop) is not bytes:
            exact = False
    if sec_level not in (0, 1):
        raise ValueError("bad security level %r" % sec_level)
    parts = [encoded, _U32.pack(len(hops)), *hops]
    if agg is None:
        parts.append(_UNSIGNED[sec_level])
    else:
        bits = agg.overflow_bits
        parts += (_CHAIN_HEAD.pack(1 - sec_level, sec_level,
                                   agg.signer_count),
                  encode_bigint(agg.value), _U32.pack(len(bits)),
                  _pack_bits(bits))
        exact = (exact and type(agg) is AggregateSignature
                 and type(agg.value) is int and type(bits) is tuple
                 and list(map(type, bits)).count(int) == len(bits))
    if sig is None:
        parts.append(b"\x00")
    else:
        parts.append(b"\x01" + encode_bigint(sig))
        exact = exact and type(sig) is int
    data = b"".join(parts)
    if exact:
        data = _Frame(data)
        data.msg = msg
        data.label = ROUTE_KIND_NAMES[core.kind]
    return data


def _exact_core(core: RouteCore) -> bool:
    """Whether every field of `core` has the exact type a parse gives it."""
    (kind, src_ip, src_id, src_seq, bct_id, dst_ip, dst_seq, dh_p, dh_g,
     dh_payload, originator_id) = core
    return (type(kind) is type(src_seq) is type(bct_id) is type(dst_seq)
            is type(dh_p) is type(dh_g) is type(dh_payload) is int
            and type(src_ip) is type(dst_ip) is str
            and type(src_id) is type(originator_id) is bytes)


def _pack_bits(bits: Tuple[int, ...]) -> bytes:
    """The bits, first bit first, as one integer zero-padded to whole
    bytes."""
    value = 0
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError("overflow bits are 0 or 1")
        value = value << 1 | (bit == 1)
    n = len(bits)
    return (value << (-n % 8)).to_bytes((n + 7) // 8, "big")


def _read_route_message(data: bytes, pos: int) -> Tuple[RouteMessage, int]:
    core, pos = _read_core(data, pos)
    count, pos = _read_uint(data, pos, 4)
    if pos + count * DIGEST_BYTES > len(data):
        raise ParseError(pos, "hop list truncated")
    hops = tuple(data[pos + i * DIGEST_BYTES:pos + (i + 1) * DIGEST_BYTES]
                 for i in range(count))
    pos += count * DIGEST_BYTES
    sig_mode, pos = _read_uint(data, pos, 1)
    sec_level, pos = _read_uint(data, pos, 1)
    if sec_level not in (0, 1):
        raise ParseError(pos - 1, "bad security level %d" % sec_level)
    if sig_mode != 1 - sec_level:
        raise ParseError(pos - 2, "signature mode %d at security level %d"
                         % (sig_mode, sec_level))
    signer_count, pos = _read_uint(data, pos, 4)
    aggregate = None
    if signer_count:
        value, pos = read_bigint(data, pos)
        nbits, pos = _read_uint(data, pos, 4)
        if nbits != signer_count - 1:
            raise ParseError(pos - 4, "overflow bit count %d != signers-1 %d"
                             % (nbits, signer_count - 1))
        nbytes = (nbits + 7) // 8
        if pos + nbytes > len(data):
            raise ParseError(pos, "overflow bits truncated")
        packed = data[pos:pos + nbytes]
        bits = tuple((packed[i // 8] >> (7 - i % 8)) & 1 for i in range(nbits))
        for i in range(nbits, nbytes * 8):
            if (packed[i // 8] >> (7 - i % 8)) & 1:
                raise ParseError(pos, "nonzero padding bit")
        pos += nbytes
        aggregate = AggregateSignature(value=value, overflow_bits=bits)
    flag, pos = _read_uint(data, pos, 1)
    if flag not in (0, 1):
        raise ParseError(pos - 1, "bad standalone-signature flag")
    source_sig = None
    if flag:
        source_sig, pos = read_bigint(data, pos)
    return RouteMessage(core=core, hops=hops, sec_level=sec_level,
                        aggregate=aggregate, source_sig=source_sig), pos


# --- transport segments -----------------------------------------------------

# Kind byte, role, src_port, dst_port, seq, ack, payload length; an
# envelope's address token length.
_SEGMENT_HEAD = struct.Struct(">BBQQQQI")
_TOKEN_LENGTH = struct.Struct(">H")
_DATA_KIND = bytes([KIND_DATA])


def segment_tag_input(role: int, src_port: int, dst_port: int, seq: int,
                      ack: int, payload: bytes) -> bytes:
    """What the tag of a segment of these fields covers, made from the
    fields alone: the kind byte and 37-byte header, packed at once, then
    the payload."""
    if role not in ROLE_NAMES:
        raise ValueError("unknown segment role %r" % role)
    try:
        head = _SEGMENT_HEAD.pack(KIND_SEGMENT, role, src_port, dst_port,
                                  seq, ack, len(payload))
    except struct.error as err:
        raise ValueError("segment field out of range: %s" % err) from None
    return head + payload


def _read_segment(data: bytes, pos: int) -> Tuple[Segment, int]:
    role, pos = _read_uint(data, pos, 1)
    if role not in ROLE_NAMES:
        raise ParseError(pos - 1, "unknown segment role %d" % role)
    src_port, pos = _read_uint(data, pos, 8)
    dst_port, pos = _read_uint(data, pos, 8)
    seq, pos = _read_uint(data, pos, 8)
    ack, pos = _read_uint(data, pos, 8)
    plen, pos = _read_uint(data, pos, 4)
    if pos + plen > len(data):
        raise ParseError(pos, "payload truncated")
    payload = data[pos:pos + plen]
    pos += plen
    tag, pos = _read_digest(data, pos)
    return Segment(role, src_port, dst_port, seq, ack, payload, tag), pos


# --- top level ---------------------------------------------------------------

class _Frame(bytes):
    """Frame bytes carrying `msg`, the message they encode, and `label`, its
    trace label. Only encode_message makes one, for a message that a strict
    parse of the bytes gives back type for type; a slice, join or copy of
    one is plain bytes."""


def encode_message(msg: Message, encoded: Optional[bytes] = None) -> bytes:
    """The frame of `msg`. A route message's frame starts with its core's
    encoding: a caller that made encode_core(msg.core) for a signer hash
    passes it as `encoded`, and it is not made again."""
    kind = type(msg)
    if kind is DataPacket:
        return _encode_envelope(msg)
    if kind is not RouteMessage:
        raise TypeError("cannot encode %r" % kind)
    if encoded is None:
        encoded = encode_core(msg.core)
    return _encode_route_message(msg, encoded)


def _encode_envelope(msg: DataPacket) -> bytes:
    """An envelope's frame, checked and packed in one pass.

    This runs once per segment sent. Both token lengths and the segment
    header go through struct packers, and the frame is one join. The frame
    carries the message only when every field has its exact type, so that
    a strict parse gives it back type for type (chained `is` tests); a
    bool, a bytearray or a subclass packs to the same bytes as plain bytes.
    A bad tag or role, or a token or segment field that does not fit its
    width, raises one ValueError that names the segment or the envelope.
    """
    src_ip, dst_ip, seg = msg
    role, src_port, dst_port, seq, ack, payload, tag = seg
    if len(tag) != DIGEST_BYTES:
        raise ValueError("segment tag must be %d bytes" % DIGEST_BYTES)
    if role not in ROLE_NAMES:
        raise ValueError("unknown segment role %r" % role)
    try:
        src = src_ip.encode("utf-8")
        src_length = _TOKEN_LENGTH.pack(len(src))
        dst = dst_ip.encode("utf-8")
        data = b"".join((
            _DATA_KIND, src_length, src, _TOKEN_LENGTH.pack(len(dst)), dst,
            _SEGMENT_HEAD.pack(KIND_SEGMENT, role, src_port, dst_port, seq,
                               ack, len(payload)),
            payload, tag))
    except struct.error as err:
        raise ValueError("envelope field out of range: %s" % err) from None
    if (type(src_ip) is type(dst_ip) is str and type(seg) is Segment
            and type(payload) is type(tag) is bytes
            and type(role) is type(src_port) is type(dst_port) is type(seq)
            is type(ack) is int):
        data = _Frame(data)
        data.msg = msg
        data.label = ROLE_NAMES[role]
    return data


def decode_message(data: bytes) -> Message:
    """Strict decode of one frame; raises ParseError at the first bad byte.

    A frame encode_message returned is not parsed: it carries its message,
    which every neighbour of a broadcast and the trace label read. Any other
    bytes take the strict parse. The messages are immutable all the way down
    (NamedTuple records holding ints, strings, bytes, tuples and a frozen
    AggregateSignature), so callers can share them and change a copy with
    `._replace`. A ParseError is raised afresh on every call.
    """
    if type(data) is _Frame:
        return data.msg
    if not isinstance(data, bytes):
        # unlike bytes(data), memoryview() refuses an int, not zero-fills
        data = bytes(memoryview(data))
    return _parse(data)


def _parse(data: bytes) -> Message:
    if not data:
        raise ParseError(0, "empty message")
    kind = data[0]
    if kind in ROUTE_KIND_NAMES:
        msg, pos = _read_route_message(data, 0)
    elif kind == KIND_DATA:
        pos = 1
        src_ip, pos = _read_token(data, pos)
        dst_ip, pos = _read_token(data, pos)
        if pos >= len(data) or data[pos] != KIND_SEGMENT:
            raise ParseError(pos, "envelope must contain a segment")
        seg, pos = _read_segment(data, pos + 1)
        msg = DataPacket(src_ip, dst_ip, seg)
    else:
        raise ParseError(0, "unknown message kind 0x%02x" % kind)
    if pos != len(data):
        raise ParseError(pos, "%d trailing bytes" % (len(data) - pos))
    return msg


def describe(data: bytes) -> str:
    """Human label for trace records; tolerant of undecodable payloads.

    A frame encode_message returned carries its label; any other bytes are
    labelled from decode_message's strict parse."""
    if type(data) is _Frame:
        return data.label
    try:
        msg = decode_message(data)
    except ParseError:
        return "RAW"
    if type(msg) is DataPacket:
        return ROLE_NAMES[msg.segment.role]
    return ROUTE_KIND_NAMES[msg.core.kind]


# --- signer hashes -----------------------------------------------------------

def signer_hash(encoded: bytes, hops: Tuple[bytes, ...], key: bytes) -> int:
    """Hash that the newest signer signs: the encoded core (encode_core), the
    hop records up to and including its own (none for the originator), and
    its own encoded key (encode_public); each appended hop extends the signed
    bytes by exactly its record."""
    return digest_int(digest(encoded + b"".join(hops) + key))


def signer_hashes(encoded: bytes, hops: Tuple[bytes, ...],
                  keys: Sequence[bytes]) -> List[int]:
    """signer_hash(encoded, hops[:i], keys[i]) for every signer i of a chain.

    One running hash takes the encoded core and then one hop per signer,
    and is copied for each signer's encoded key, so a chain of k hops
    hashes O(k) bytes instead of re-hashing every prefix.
    """
    if len(keys) != len(hops) + 1:
        raise ValueError("%d public keys for %d signers"
                         % (len(keys), len(hops) + 1))
    running = digest_stream(encoded)
    out = []
    for i, key in enumerate(keys):
        if i:
            running.update(hops[i - 1])
        h = running.copy()
        h.update(key)
        out.append(digest_int(h.digest()))
    return out
