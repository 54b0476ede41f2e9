"""Adversary node behaviors and the attack-outcome oracle.

Each attack kind is an insider behavior: the adversary holds registered keys
and full knowledge of the protocol, but not other nodes' private keys or
session keys. The judge classifies a finished run:

* succeeded   - the kind-specific harm state was reached;
* detected    - no harm, and receivers dropped frames the attacker (or its
                wormhole partner) sent, for reasons that identify this
                kind of tampering;
* neutralized - no harm and no such drops (the attack simply had no grip,
                e.g. a relay wormhole that secure nodes treat as ordinary
                duplicates, or a flood against a stateless listener).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, NamedTuple, Optional, Tuple

from . import wire
from .crypto import (AggregateSignature, digest, rsa_encrypt, NodeKeys,
                     RsaKeyPair)
from .identity import Registry
from .routing import append_signer, originate, send_message
from .sim import Network, dropped
from .transport import CLIENT_ISN_BASE, MASK


class Kind(NamedTuple):
    nodes: Tuple[str, ...]      # node fields a spec names besides `attacker`
    # drop reasons that count as recognizing the attack; empty when the
    # defense works by denying it any effect rather than by flagging
    # packets, so a clean run is judged neutralized
    telltale: Tuple[str, ...]
    params: Tuple[str, ...] = ()   # AttackSpec parameters this kind reads


KINDS: Dict[str, Kind] = {
    "seq_inflate": Kind(("src", "dst"), ("verify_failed",), ("inflate_to",)),
    "hop_shorten": Kind(("src", "dst"), ("verify_failed", "malformed"),
                        ("max_distance",)),
    # the forged reply claims seq inflate_to
    "redirect": Kind(("src", "dst"), ("verify_failed", "id_mismatch"),
                     ("inflate_to",)),
    "tunnel": Kind(("partner", "src", "dst"), ()),
    "impersonate": Kind(("src", "dst"), ("verify_failed", "id_mismatch")),
    "fake_rerr": Kind(("src", "dst", "through"),
                      ("verify_failed", "id_mismatch")),
    "syn_flood": Kind(("dst",), (), ("rate", "duration")),
    "session_hijack": Kind(("src", "dst"), ("tag_mismatch",), ("marker",)),
    "ack_inject": Kind(("src", "dst"), ("tag_mismatch",)),
}


@dataclass
class AttackSpec:
    kind: str
    attacker: str
    partner: Optional[str] = None    # second wormhole endpoint
    src: Optional[str] = None        # victim flow source / impersonated node
    dst: Optional[str] = None        # victim flow destination / server
    through: Optional[str] = None    # on-path node a forged report names
    start: int = 1
    sec_level: int = 1
    client_port: int = 5000
    server_port: int = 80
    rate: int = 50
    duration: int = 5
    capacity: int = 8
    marker: bytes = b"HIJACKED"
    inflate_to: int = 900000
    max_distance: int = 2
    expected_payload: bytes = b""


class AttackerNode:
    """Sim handler enacting one AttackSpec. Never installs routes or keys."""

    def __init__(self, signing: RsaKeyPair, registry: Registry, net: Network,
                 spec: AttackSpec):
        own = registry.by_ip(spec.attacker)
        self.ip, self.node_id, self.key_bytes = \
            own.ip, own.node_id, own.key_bytes
        self.signing = signing
        self.registry = registry
        self.net = net
        self.spec = spec
        self._seen = set()
        self._fired = False
        self._ghost = 0
        net.add_node(self.ip, self)
        if hasattr(self, "_fire_" + spec.kind):
            rounds = spec.duration if spec.kind == "syn_flood" else 1
            net.schedule(spec.start, self.on_timer, rounds)

    # --- sim handler interface ----------------------------------------------

    def on_receive(self, sender: str, payload: bytes) -> Optional[str]:
        kind = self.spec.kind
        if kind == "tunnel":
            self._relay(sender, payload)
        elif kind in ("seq_inflate", "hop_shorten", "redirect"):
            try:
                msg = wire.decode_message(payload)
            except wire.ParseError:
                return None
            if isinstance(msg, wire.RouteMessage):
                self._handle_route(sender, msg)
        return None

    # --- timers -------------------------------------------------------------

    def on_timer(self, rounds: int) -> None:
        """Fire this kind's forgery; again each tick while rounds are left."""
        getattr(self, "_fire_" + self.spec.kind)()
        if rounds > 1:
            self.net.schedule(1, self.on_timer, rounds - 1)

    # --- wormhole relay -------------------------------------------------------

    def _relay(self, sender: str, payload: bytes) -> None:
        if sender == self.spec.partner:
            self.net.broadcast(self.ip, payload)
            return
        frame = digest(payload)
        if frame in self._seen:
            return
        self._seen.add(frame)
        self.net.tunnel_send(self.ip, self.spec.partner, payload)

    # --- on-path tampering ------------------------------------------------------

    def _handle_route(self, sender: str, msg: wire.RouteMessage) -> None:
        core = msg.core
        key = (core.kind, core.src_id, core.bct_id)
        if key in self._seen:
            return
        self._seen.add(key)
        if self.spec.kind == "redirect":
            if (core.kind == wire.KIND_RREQ and core.dst_ip == self.spec.dst
                    and not self._fired):
                self._fired = True
                self._forge_reply(sender, core)
            return
        if core.kind == wire.KIND_RREQ:
            if self.spec.kind == "seq_inflate":
                msg = msg._replace(
                    core=core._replace(src_seq=self.spec.inflate_to))
            else:
                if msg.hops:   # the oracle credits only requests actually cut
                    self.net.log(self.ip, "shortened", origin=core.src_ip,
                                 seq=core.src_seq, removed=len(msg.hops))
                # pretend the chain so far is a bare origin signature and
                # that the request arrived straight from the source
                agg = msg.aggregate
                if agg is not None:
                    agg = AggregateSignature(value=agg.value, overflow_bits=())
                msg = msg._replace(hops=(), aggregate=agg)
        elif core.kind != wire.KIND_RREP:
            return
        self._send_as_hop(msg, wire.encode_core(msg.core))

    def _send_as_hop(self, msg: wire.RouteMessage, encoded: bytes,
                      to: Optional[str] = None) -> None:
        """Send `msg`, whose core `encoded` encodes, with this node appended
        as a signing hop."""
        send_message(self, append_signer(msg, encoded, self.signing,
                                         self.key_bytes, self.node_id),
                     encoded, to)

    def _forge_reply(self, victim: str, req: wire.RouteCore) -> None:
        target = self.registry.by_ip(self.spec.dst)
        core = wire.RouteCore(kind=wire.KIND_RREP, src_ip=self.spec.dst,
                              src_id=target.node_id,
                              src_seq=self.spec.inflate_to,
                              bct_id=req.bct_id, dst_ip=req.src_ip,
                              dst_seq=req.src_seq, dh_payload=0)
        self._send_as_hop(*self._fake_origin(core, target), victim)

    def _fake_origin(self, core, claimed) -> Tuple[wire.RouteMessage, bytes]:
        """`core` signed as if `claimed` were its origin, though with this
        node's key, so it cannot verify; with the core's encoding."""
        return originate(core, self.signing, claimed.key_bytes,
                         self.spec.sec_level)

    # --- timed forgeries ----------------------------------------------------------

    def _fire_impersonate(self) -> None:
        claimed = self.registry.by_ip(self.spec.src)
        target = self.registry.by_ip(self.spec.dst)
        sealed = rsa_encrypt(8, target.encryption_public)
        core = wire.RouteCore(kind=wire.KIND_RREQ, src_ip=self.spec.src,
                              src_id=claimed.node_id, src_seq=50, bct_id=7700,
                              dst_ip=self.spec.dst, dh_p=23, dh_g=5,
                              dh_payload=sealed)
        self._send_as_hop(*self._fake_origin(core, claimed))

    def _fire_fake_rerr(self) -> None:
        reporter = self.registry.by_ip(self.spec.through)
        unreachable = self.registry.by_ip(self.spec.dst)
        core = wire.RouteCore(kind=wire.KIND_RERR, src_ip=self.spec.through,
                              src_id=reporter.node_id, src_seq=7777, bct_id=0,
                              dst_ip=self.spec.src,
                              originator_id=unreachable.node_id)
        send_message(self, *self._fake_origin(core, reporter),
                     self.spec.through)

    def _fire_session_hijack(self) -> None:
        # first connection, no data yet
        self._inject(wire.ROLE_DATA, self.spec.src, self.spec.dst,
                     (CLIENT_ISN_BASE + 1) & MASK, 0, self.spec.marker)

    def _fire_ack_inject(self) -> None:
        # race the real responder with a forged second handshake segment
        self._inject(wire.ROLE_SYN_ACK, self.spec.dst, self.spec.src, 555000,
                     (CLIENT_ISN_BASE + 1) & MASK, b"")

    def _inject(self, role, src, dst, seq, ack, payload) -> None:
        """Unicast to `dst` a zero-tag segment of the flow as if from `src`."""
        ports = (self.spec.client_port, self.spec.server_port)
        if src == self.spec.dst:
            ports = ports[::-1]
        seg = wire.Segment(role, *ports, seq, ack, payload, b"\x00" * 32)
        pkt = wire.DataPacket(src, dst, seg)
        self.net.unicast(self.ip, dst, wire.encode_message(pkt))

    def _fire_syn_flood(self) -> None:
        port, dst, tag = self.spec.server_port, self.spec.dst, b"\x5a" * 32
        for _ in range(self.spec.rate):
            n = self._ghost
            self._ghost += 1
            # positional: building a NamedTuple by keyword costs more
            seg = wire.Segment(wire.ROLE_SYN, 40000 + n, port,
                               (7919 * n) & MASK, 0, b"", tag)
            pkt = wire.DataPacket("ghost%d" % n, dst, seg)
            self.net.unicast(self.ip, dst, wire.encode_message(pkt))


def deploy(spec: AttackSpec, keys: Dict[str, NodeKeys], registry: Registry,
           net: Network) -> None:
    """Instantiate the attacker node(s) an AttackSpec calls for: a tunnel's
    partner runs the same spec with the two ends swapped."""
    specs = [spec]
    if spec.kind == "tunnel":
        specs.append(replace(spec, attacker=spec.partner,
                             partner=spec.attacker))
    for one in specs:
        AttackerNode(keys[one.attacker].signing, registry, net, one)


# --- outcome oracle -----------------------------------------------------------

def judge(spec: AttackSpec, metrics) -> str:
    """Verdict of a finished run, read off its Network.metrics."""
    if _harm(spec, metrics):
        return "succeeded"
    telltale = {dropped(reason) for reason in KINDS[spec.kind].telltale}
    if not telltale:   # nothing to find: skip the walk of the trace
        return "neutralized"
    senders = {spec.attacker, spec.partner}
    if any(rec.src in senders and rec.disposition in telltale
           for rec in metrics.trace):
        return "detected"
    return "neutralized"


def _harm(spec: AttackSpec, metrics) -> bool:
    kind = spec.kind
    if kind == "seq_inflate":
        issued = 0
        for _, n, k, i in metrics.events:   # harm: a seq src never issued
            if k == "discovery" and n == spec.src:
                issued = max(issued, i["seq"])
            elif (k == "route" and n != spec.attacker and i["via"] == "RREQ"
                  and i["dst"] == spec.src and i["seq"] > issued):
                return True
        return False
    installs = [(ev.node, ev.fields) for ev in metrics.of("route")]

    def routed(at, to, via):   # `at` installed a route to `to` through `via`
        return any(n == at and i["dst"] == to and i["next_hop"] in via
                   for n, i in installs)

    if kind == "hop_shorten":   # a route a request it cut short taught
        cut = {i["seq"] for _, n, _, i in metrics.of("shortened")
               if n == spec.attacker and i["origin"] == spec.src}
        return any(n == spec.dst and i["dst"] == spec.src
                   and i["via"] == "RREQ" and i["next_hop"] == spec.attacker
                   and i["seq"] in cut and i["distance"] <= spec.max_distance
                   for n, i in installs)
    if kind == "redirect":
        return routed(spec.src, spec.dst, {spec.attacker})
    if kind == "tunnel":
        colluders = {spec.attacker, spec.partner}
        return (routed(spec.src, spec.dst, colluders)
                or routed(spec.dst, spec.src, colluders))
    if kind == "impersonate":
        return routed(spec.dst, spec.src, {spec.attacker})
    if kind == "fake_rerr":   # src accepted reports `through` never sent
        accepted = sum(n == spec.src and i["reporter"] == spec.through
                       for _, n, _, i in metrics.of("rerr_accepted"))
        sent = sum(ev.node == spec.through for ev in metrics.of("rerr_sent"))
        return accepted > sent
    if kind == "syn_flood":
        return metrics.peak_half_open >= spec.capacity
    if kind == "session_hijack":
        return any(spec.marker in v
                   for v in metrics.delivered_payloads.values())
    if kind == "ack_inject":   # src took the forgery and the flow broke
        forged = any((r.src, r.dst, r.kind, r.disposition)
                     == (spec.attacker, spec.src, "SYN_ACK", "delivered")
                     for r in metrics.trace)
        got = metrics.delivered_payloads.get(
            (spec.dst, spec.src, spec.server_port, spec.client_port), b"")
        return forged and got != spec.expected_payload
    raise ValueError("unknown attack kind %r" % kind)
