"""Connection-oriented transfer with authenticated segments.

A TcpEndpoint rides on a RouterNode: outbound segments go through the route
table, inbound ones arrive via the router's data path. Secure endpoints tag
every segment with a keyed digest bound to both node identities and the
session key agreed during route discovery, and derive initial sequence
numbers from that key. The responder side is deliberately stateless before
the third handshake segment: its initial number is a cookie it can recompute,
so nothing is allocated for a half-open exchange. Plain endpoints model the
classic vulnerable behavior instead: fixed counter-based initial numbers, a
bounded half-open table with oldest-first eviction, and no authentication.

Reliability is stop-and-wait: one outstanding segment, fixed retransmission
timeout, bounded retries. Enough to exercise loss recovery without hiding
the protocol behavior under window management.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from . import wire
from .crypto import SessionKey, digest, digest_int, mac_tag, mac_verify
from .identity import UnknownIdentityError

MASK = 0xFFFFFFFF
CLIENT_ISN_BASE = 1000
SERVER_ISN_BASE = 2000
ISN_STEP = 64
KEY_WAIT_LIMIT = 20
_UNTAGGED = b"\x00" * 32   # a plain endpoint's tag

ConnKey = Tuple[str, int, int]   # (peer ip, local port, remote port)


def _keyed_number(label: bytes, client_port: int, server_port: int,
                  client_id: bytes, server_id: bytes, key: SessionKey) -> int:
    """A secure client's initial-number offset, or a server's cookie."""
    return digest_int(digest(
        label + client_port.to_bytes(8, "big") + server_port.to_bytes(8, "big")
        + client_id + server_id + key.key_bytes)) & MASK


@dataclass
class TcpConfig:
    mss: int
    rto: int
    max_retries: int
    half_open_capacity: int


@dataclass
class Connection:
    peer_ip: str
    local_port: int
    remote_port: int
    state: str = "key_wait"
    snd_nxt: int = 0
    snd_una: int = 0
    rcv_nxt: int = 0
    send_buf: bytearray = field(default_factory=bytearray)
    inflight: Optional[wire.Segment] = None
    retries: int = 0
    close_after_drain: bool = False


class TcpEndpoint:
    def __init__(self, router, config: TcpConfig):
        self.router = router
        self.config = config
        self.net = router.net
        self.metrics = router.metrics
        self.secure = router.config.secure
        self.conns: Dict[ConnKey, Connection] = {}
        self.listening: set = set()
        self.half_open: "OrderedDict[ConnKey, int]" = OrderedDict()
        self._connect_count = 0
        self._syn_count = 0
        router.transport = self

    # --- app surface ----------------------------------------------------------

    def listen(self, port: int) -> None:
        self.listening.add(port)

    def connect(self, peer_ip: str, local_port: int, remote_port: int,
                data: bytes = b"", close: bool = False) -> ConnKey:
        key = (peer_ip, local_port, remote_port)
        conn = Connection(peer_ip=peer_ip, local_port=local_port,
                          remote_port=remote_port, send_buf=bytearray(data),
                          close_after_drain=close)
        self.conns[key] = conn
        self._event("connect", conn)
        if self.secure and self.router.session(peer_ip) is None:
            try:
                self.router.ensure_discovery(peer_ip)
            except UnknownIdentityError:
                self._end(conn, "failed")
                return key
            self._arm("kw", key, 0)
            return key
        self._begin_handshake(conn)
        return key

    # --- handshake ------------------------------------------------------------

    def _begin_handshake(self, conn: Connection) -> None:
        conn.snd_una = conn.snd_nxt = self._client_isn(conn)
        conn.state = "syn_sent"
        self._event("syn_sent", conn)
        syn = self._make(conn, wire.ROLE_SYN)
        conn.snd_nxt = (conn.snd_nxt + 1) & MASK   # the SYN takes one number
        self._ship(conn, syn)

    def _client_isn(self, conn: Connection) -> int:
        base = (CLIENT_ISN_BASE + ISN_STEP * self._connect_count) & MASK
        self._connect_count += 1
        if not self.secure:
            return base
        session = self.router.session(conn.peer_ip)
        return (base + _keyed_number(
            b"isn", conn.local_port, conn.remote_port, self.router.node_id,
            session.peer_id, session.key)) & MASK

    def _cookie(self, peer_ip: str, seg: wire.Segment) -> int:
        """The server's initial number for the client that sent `seg`."""
        session = self.router.session(peer_ip)
        return _keyed_number(b"cookie", seg.src_port, seg.dst_port,
                             session.peer_id, self.router.node_id, session.key)

    # --- segment construction ---------------------------------------------------

    def _make(self, conn: Connection, role: int,
              payload: bytes = b"") -> wire.Segment:
        """A tagged segment at the connection's send and receive points."""
        return self._segment(conn.peer_ip, role, conn.local_port,
                             conn.remote_port, conn.snd_nxt, conn.rcv_nxt,
                             payload)

    def _segment(self, peer_ip: str, role: int, src_port: int,
                 dst_port: int, seq: int, ack: int,
                 payload: bytes) -> wire.Segment:
        """The segment of these fields to `peer_ip`, tagged if this endpoint
        is secure: one record, built once its tag is made."""
        tag = _UNTAGGED
        if self.secure:
            session = self.router.session(peer_ip)
            tag = mac_tag(wire.segment_tag_input(role, src_port, dst_port,
                                                 seq, ack, payload)
                          + self.router.node_id + session.peer_id,
                          session.key)
        return wire.Segment(role, src_port, dst_port, seq, ack, payload, tag)

    def _ship(self, conn: Connection, seg: wire.Segment) -> None:
        """Send `seg`, which awaits its ack, and arm its retransmission:
        the one path of a first send and of every resend."""
        self.router.send_segment(conn.peer_ip, seg)
        conn.inflight = seg
        self._arm("rx", (conn.peer_ip, conn.local_port, conn.remote_port),
                  (seg.seq, seg.role))

    def _arm(self, what: str, key: ConnKey, detail) -> None:
        # perfbench/tracer.py counts a retransmission timer from this call's
        # arguments by position (tag, then data[0] == "rx"); keep both
        self.net.schedule(self.config.rto, self.on_timer, "tcp",
                          (what, key, detail))

    # --- timers -----------------------------------------------------------------

    def on_timer(self, tag, data) -> None:
        what, key, detail = data
        conn = self.conns.get(key)
        if conn is None or conn.state in ("closed", "failed"):
            return
        if what == "kw":
            if conn.state != "key_wait":
                return
            if self.router.session(conn.peer_ip) is not None:
                self._begin_handshake(conn)
            elif detail + 1 >= KEY_WAIT_LIMIT:
                self._end(conn, "failed")
            else:
                self._arm("kw", key, detail + 1)
            return
        # retransmission check
        seq, role = detail
        cur = conn.inflight
        if cur is None or cur.seq != seq or cur.role != role:
            return
        if conn.retries >= self.config.max_retries:
            self._end(conn, "failed")
            return
        conn.retries += 1
        # built afresh: a route repair may have rotated the session key
        # since the original send, and the old tag would no longer verify
        self._ship(conn, self._segment(conn.peer_ip, *cur[:6]))

    # --- receive path -------------------------------------------------------------

    def on_segment(self, peer_ip: str, seg: wire.Segment) -> Optional[str]:
        if self.secure and not self._tag_ok(peer_ip, seg):
            return "tag_mismatch"
        key = (peer_ip, seg.dst_port, seg.src_port)
        conn = self.conns.get(key)
        if seg.role == wire.ROLE_SYN:
            return self._on_syn(peer_ip, seg, key, conn)
        if seg.role == wire.ROLE_SYN_ACK:
            return self._on_syn_ack(seg, conn)
        if conn is None:
            conn = self._try_promote(peer_ip, seg, key)
            if conn is None:
                return "out_of_phase"
            if seg.role == wire.ROLE_ACK:
                return None   # the promoting third segment, consumed
        if seg.role == wire.ROLE_FIN_ACK:
            return self._on_fin_ack(seg, conn)
        if conn.state not in ("established", "fin_wait"):
            return "out_of_phase"
        if seg.role == wire.ROLE_ACK:
            return self._on_ack(seg, conn)
        if seg.role == wire.ROLE_DATA:
            return self._on_data(seg, conn)
        return self._on_fin(seg, conn)

    def _tag_ok(self, peer_ip: str, seg: wire.Segment) -> bool:
        session = self.router.session(peer_ip)
        if session is None:
            return False
        return mac_verify(seg.tag_input() + session.peer_id
                          + self.router.node_id, session.key, seg.tag)

    def _on_syn(self, peer_ip: str, seg: wire.Segment, key: ConnKey,
                conn: Optional[Connection]) -> Optional[str]:
        if conn is not None or seg.dst_port not in self.listening:
            return "out_of_phase"
        if self.secure:
            isn_s = self._cookie(peer_ip, seg)
        elif key in self.half_open:
            isn_s = self.half_open[key]   # duplicate SYN, answer again
        else:
            if len(self.half_open) >= self.config.half_open_capacity:
                self.half_open.popitem(last=False)
                self.metrics.evictions += 1
            isn_s = (SERVER_ISN_BASE + ISN_STEP * self._syn_count) & MASK
            self._syn_count += 1
            self.half_open[key] = isn_s
            if len(self.half_open) > self.metrics.peak_half_open:
                self.metrics.peak_half_open = len(self.half_open)
        if self.router.registry.find_ip(peer_ip) is None:
            return None   # a ghost: send_segment could not address a reply
        self.router.send_segment(peer_ip, self._segment(
            peer_ip, wire.ROLE_SYN_ACK, seg.dst_port, seg.src_port, isn_s,
            (seg.seq + 1) & MASK, b""))
        return None

    def _on_syn_ack(self, seg: wire.Segment,
                    conn: Optional[Connection]) -> Optional[str]:
        if conn is None:
            return "out_of_phase"
        if conn.state == "established":
            self._ack(conn)   # our final ack was lost; repeat it
            return None
        if conn.state != "syn_sent":
            return "out_of_phase"
        reason = self._take_ack(seg, conn)
        if reason is not None:
            return reason
        conn.rcv_nxt = (seg.seq + 1) & MASK
        conn.state = "established"
        self._event("established", conn)
        self._ack(conn)
        self._pump(conn)
        return None

    def _try_promote(self, peer_ip: str, seg: wire.Segment,
                     key: ConnKey) -> Optional[Connection]:
        """Server-side allocation, strictly on a correctly-acking segment."""
        if seg.dst_port not in self.listening:
            return None
        if self.secure:
            isn_s = self._cookie(peer_ip, seg)
            if seg.ack != (isn_s + 1) & MASK:
                return None
        else:
            isn_s = self.half_open.get(key)
            if isn_s is None or seg.ack != (isn_s + 1) & MASK:
                return None
            del self.half_open[key]
        conn = Connection(peer_ip=peer_ip, local_port=seg.dst_port,
                          remote_port=seg.src_port, state="established",
                          snd_nxt=(isn_s + 1) & MASK,
                          snd_una=(isn_s + 1) & MASK, rcv_nxt=seg.seq)
        self.conns[key] = conn
        self._event("alloc", conn)
        self._event("established", conn)
        return conn

    def _take_ack(self, seg: wire.Segment, conn: Connection) -> Optional[str]:
        """Complete the segment in flight if `seg` acks all of it: the one
        place an ack of any role moves `snd_una`."""
        if seg.ack != conn.snd_nxt:
            return "bad_ack_number"
        conn.snd_una = seg.ack
        conn.inflight = None
        return None

    def _on_ack(self, seg: wire.Segment, conn: Connection) -> Optional[str]:
        if seg.ack == conn.snd_una:
            return None   # stale duplicate, harmless
        reason = self._take_ack(seg, conn)
        if reason is None:
            self._pump(conn)
        return reason

    def _on_data(self, seg: wire.Segment, conn: Connection) -> Optional[str]:
        if seg.seq == conn.rcv_nxt:
            conn.rcv_nxt = (conn.rcv_nxt + len(seg.payload)) & MASK
            self._event("deliver", conn, data=seg.payload)
            self._ack(conn)
            return None
        behind = (conn.rcv_nxt - seg.seq) & MASK
        if 0 < behind <= (1 << 31):
            self._ack(conn)   # resynchronize the sender
            if self.secure:
                return "replay"
            self._event("resync_ack", conn)
            return None
        return "out_of_phase"

    def _ack(self, conn: Connection) -> None:
        self.router.send_segment(conn.peer_ip, self._make(conn, wire.ROLE_ACK))

    def _on_fin(self, seg: wire.Segment, conn: Connection) -> Optional[str]:
        conn.rcv_nxt = (seg.seq + 1) & MASK
        self.router.send_segment(conn.peer_ip,
                                 self._make(conn, wire.ROLE_FIN_ACK))
        self._end(conn, "closed")
        return None

    def _on_fin_ack(self, seg: wire.Segment,
                    conn: Connection) -> Optional[str]:
        if conn.state != "fin_wait":
            return "out_of_phase"
        reason = self._take_ack(seg, conn)
        if reason is None:
            self._end(conn, "closed")
        return reason

    # --- send side --------------------------------------------------------------

    def _pump(self, conn: Connection) -> None:
        if conn.state != "established" or conn.inflight is not None:
            return
        conn.retries = 0   # a new segment: its resends count from here
        if conn.send_buf:
            chunk = bytes(conn.send_buf[:self.config.mss])
            del conn.send_buf[:len(chunk)]
            seg = self._make(conn, wire.ROLE_DATA, chunk)
            conn.snd_nxt = (conn.snd_nxt + len(chunk)) & MASK
            self._ship(conn, seg)
            return
        if conn.close_after_drain:
            seg = self._make(conn, wire.ROLE_FIN)
            conn.snd_nxt = (conn.snd_nxt + 1) & MASK
            conn.state = "fin_wait"
            self._ship(conn, seg)

    # --- bookkeeping --------------------------------------------------------------

    def _end(self, conn: Connection, state: str) -> None:
        """Set `conn` "closed" or "failed": the one place a connection ends."""
        conn.state = state
        conn.inflight = None
        self._event(state, conn)

    def _event(self, kind: str, conn: Connection, **fields) -> None:
        self.net.log(self.router.ip, kind, peer=conn.peer_ip,
                     local_port=conn.local_port, remote_port=conn.remote_port,
                     **fields)
