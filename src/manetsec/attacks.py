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
from typing import Dict, Optional, Tuple

from . import wire
from .crypto import (AggregateSignature, digest, rsa_encrypt, NodeKeys,
                     RsaKeyPair)
from .identity import Registry, derive_id
from .routing import append_signer, sign_origin
from .sim import Network, dropped
from .transport import CLIENT_ISN_BASE, MASK

ATTACK_KINDS = ("seq_inflate", "hop_shorten", "redirect", "tunnel",
                "impersonate", "fake_rerr", "syn_flood", "session_hijack",
                "ack_inject")

# Drop reasons that count as recognizing each attack. Empty sets mean the
# defense works by denying the attack any effect rather than by flagging
# packets, so a clean run is judged neutralized.
DETECTION: Dict[str, Tuple[str, ...]] = {
    "seq_inflate": ("verify_failed",),
    "hop_shorten": ("verify_failed", "malformed"),
    "redirect": ("verify_failed", "id_mismatch"),
    "impersonate": ("verify_failed", "id_mismatch"),
    "fake_rerr": ("verify_failed", "id_mismatch"),
    "session_hijack": ("tag_mismatch",),
    "ack_inject": ("tag_mismatch",),
    "tunnel": (),
    "syn_flood": (),
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

    def __init__(self, name: str, signing: RsaKeyPair, registry: Registry,
                 net: Network, spec: AttackSpec):
        self.ip = name
        self.signing = signing
        self.node_id = derive_id(signing.public)
        self.registry = registry
        self.net = net
        self.spec = spec
        self._seen = set()
        self._fired = False
        self._ghost = 0
        net.add_node(name, self)
        if spec.kind == "syn_flood":
            net.schedule(spec.start, self.on_timer, "flood", spec.duration)
        elif spec.kind in ("impersonate", "fake_rerr", "session_hijack",
                           "ack_inject"):
            net.schedule(spec.start, self.on_timer, "fire", None)

    # --- sim handler interface ----------------------------------------------

    def on_receive(self, sender: str, payload: bytes) -> Optional[str]:
        kind = self.spec.kind
        if kind == "tunnel":
            self._relay(sender, payload)
            return None
        if kind in ("seq_inflate", "hop_shorten", "redirect"):
            try:
                msg = wire.decode_message(payload)
            except wire.ParseError:
                return None
            if isinstance(msg, wire.RouteMessage):
                self._handle_route(sender, msg)
        return None

    # --- timers -------------------------------------------------------------

    def on_timer(self, what: str, detail) -> None:
        if what == "flood":
            self._flood_burst()
            if detail > 1:
                self.net.schedule(1, self.on_timer, "flood", detail - 1)
        elif not self._fired:
            self._fired = True
            fire = getattr(self, "_fire_" + self.spec.kind)
            fire()

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
                self._forward_inflated(msg)
            else:
                self._forward_shortened(msg)
        elif core.kind == wire.KIND_RREP:
            self._forward_as_is(msg)

    def _forward_inflated(self, msg: wire.RouteMessage) -> None:
        core = replace(msg.core, src_seq=self.spec.inflate_to)
        self._sign_and_send(core, msg.hops, msg.aggregate, msg.source_sig)

    def _forward_shortened(self, msg: wire.RouteMessage) -> None:
        # pretend the chain so far is a bare origin signature and that the
        # request arrived straight from the source
        agg = msg.aggregate
        if agg is not None:
            agg = AggregateSignature(value=agg.value, overflow_bits=(),
                                     signer_count=1)
        self._sign_and_send(msg.core, (), agg, msg.source_sig)

    def _forward_as_is(self, msg: wire.RouteMessage) -> None:
        self._sign_and_send(msg.core, msg.hops, msg.aggregate, msg.source_sig)

    def _forge_reply(self, victim: str, req: wire.RouteCore) -> None:
        target = self.registry.by_ip(self.spec.dst)
        core = wire.RouteCore(kind=wire.KIND_RREP, src_ip=self.spec.dst,
                              src_id=target.node_id,
                              src_seq=self.spec.inflate_to,
                              bct_id=req.bct_id, dst_ip=req.src_ip,
                              dst_seq=req.src_seq, dh_payload=0)
        self._sign_and_send(core, (), *self._fake_origin(core, target),
                            to=victim)

    def _fake_origin(self, core, claimed):
        """(aggregate, standalone signature) claiming `claimed` as origin,
        though made with this node's key, so it cannot verify."""
        fake = sign_origin(core, self.signing, claimed.signing_public)
        return fake, fake.value if self.spec.sec_level == 0 else None

    def _sign_and_send(self, core, hops, agg, src_sig, to=None) -> None:
        """Append this node as a signing hop; unicast to `to` or broadcast."""
        hops, agg = append_signer(core, hops, agg, self.signing, self.node_id)
        self._send(core, hops, agg, src_sig, to)

    def _send(self, core, hops, agg, src_sig, to) -> None:
        level = self.spec.sec_level
        payload = wire.encode_message(wire.RouteMessage(
            core=core, hops=hops, sig_mode=wire.sig_mode_for(level),
            sec_level=level, aggregate=agg, source_sig=src_sig))
        if to is None:
            self.net.broadcast(self.ip, payload)
        else:
            self.net.unicast(self.ip, to, payload)

    # --- one-shot forgeries -------------------------------------------------------

    def _fire_impersonate(self) -> None:
        claimed = self.registry.by_ip(self.spec.src)
        target = self.registry.by_ip(self.spec.dst)
        sealed = rsa_encrypt(8, target.encryption_public)
        core = wire.RouteCore(kind=wire.KIND_RREQ, src_ip=self.spec.src,
                              src_id=claimed.node_id, src_seq=50, bct_id=7700,
                              dst_ip=self.spec.dst, dh_p=23, dh_g=5,
                              dh_payload=sealed)
        self._sign_and_send(core, (), *self._fake_origin(core, claimed))

    def _fire_fake_rerr(self) -> None:
        reporter = self.registry.by_ip(self.spec.through)
        unreachable = self.registry.by_ip(self.spec.dst)
        core = wire.RouteCore(kind=wire.KIND_RERR, src_ip=self.spec.through,
                              src_id=reporter.node_id, src_seq=7777, bct_id=0,
                              dst_ip=self.spec.src,
                              originator_id=unreachable.node_id)
        self._send(core, (), *self._fake_origin(core, reporter),
                   to=self.spec.through)

    def _fire_session_hijack(self) -> None:
        seq = (CLIENT_ISN_BASE + 1) & MASK    # first connection, no data yet
        seg = wire.Segment(role=wire.ROLE_DATA,
                           src_port=self.spec.client_port,
                           dst_port=self.spec.server_port, seq=seq, ack=0,
                           payload=self.spec.marker, tag=b"\x00" * 32)
        pkt = wire.DataPacket(src_ip=self.spec.src, dst_ip=self.spec.dst,
                              segment=seg)
        self.net.unicast(self.ip, self.spec.dst, wire.encode_message(pkt))

    def _fire_ack_inject(self) -> None:
        # race the real responder with a forged second handshake segment
        seg = wire.Segment(role=wire.ROLE_SYN_ACK,
                           src_port=self.spec.server_port,
                           dst_port=self.spec.client_port, seq=555000,
                           ack=(CLIENT_ISN_BASE + 1) & MASK, payload=b"",
                           tag=b"\x00" * 32)
        pkt = wire.DataPacket(src_ip=self.spec.dst, dst_ip=self.spec.src,
                              segment=seg)
        self.net.unicast(self.ip, self.spec.src, wire.encode_message(pkt))

    def _flood_burst(self) -> None:
        for _ in range(self.spec.rate):
            n = self._ghost
            self._ghost += 1
            seg = wire.Segment(role=wire.ROLE_SYN, src_port=40000 + n,
                               dst_port=self.spec.server_port,
                               seq=(7919 * n) & MASK, ack=0, payload=b"",
                               tag=b"\x5a" * 32)
            pkt = wire.DataPacket(src_ip="ghost%d" % n, dst_ip=self.spec.dst,
                                  segment=seg)
            self.net.unicast(self.ip, self.spec.dst,
                             wire.encode_message(pkt))


def deploy(spec: AttackSpec, keys: Dict[str, NodeKeys], registry: Registry,
           net: Network):
    """Instantiate the attacker node(s) an AttackSpec calls for."""
    nodes = [AttackerNode(spec.attacker, keys[spec.attacker].signing,
                          registry, net, spec)]
    if spec.kind == "tunnel":
        mirrored = replace(spec, attacker=spec.partner,
                           partner=spec.attacker)
        nodes.append(AttackerNode(spec.partner, keys[spec.partner].signing,
                                  registry, net, mirrored))
    return nodes


# --- outcome oracle -----------------------------------------------------------

def judge(spec: AttackSpec, metrics, registry: Registry, trace) -> str:
    """Verdict of a finished run; `trace` is its Network.trace."""
    if _harm(spec, metrics, registry):
        return "succeeded"
    senders = {spec.attacker, spec.partner}
    telltale = {dropped(reason) for reason in DETECTION[spec.kind]}
    if any(rec.src in senders and rec.disposition in telltale
           for rec in trace):
        return "detected"
    return "neutralized"


def _id_hex(registry: Registry, ip: str) -> str:
    return registry.by_ip(ip).node_id.hex()


def _harm(spec: AttackSpec, metrics, registry: Registry) -> bool:
    kind = spec.kind
    installs = [(ev.node, ev.fields) for ev in metrics.of("route")]
    if kind == "seq_inflate":
        return any(i["seq"] >= spec.inflate_to and n != spec.attacker
                   for n, i in installs)
    if kind == "hop_shorten":
        origin = _id_hex(registry, spec.src)
        return any(n == spec.dst and i["dst"] == origin
                   and i["distance"] <= spec.max_distance for n, i in installs)
    if kind == "redirect":
        target = _id_hex(registry, spec.dst)
        return any(n == spec.src and i["dst"] == target
                   and i["next_hop"] == spec.attacker for n, i in installs)
    if kind == "tunnel":
        colluders = {spec.attacker, spec.partner}
        s_hex = _id_hex(registry, spec.src)
        d_hex = _id_hex(registry, spec.dst)
        return any(
            (n == spec.src and i["dst"] == d_hex
             and i["next_hop"] in colluders)
            or (n == spec.dst and i["dst"] == s_hex
                and i["next_hop"] in colluders)
            for n, i in installs)
    if kind == "impersonate":
        claimed = _id_hex(registry, spec.src)
        return any(n == spec.dst and i["dst"] == claimed
                   and i["next_hop"] == spec.attacker for n, i in installs)
    if kind == "fake_rerr":
        return any(ev.node == spec.src for ev in metrics.of("rerr_accepted"))
    if kind == "syn_flood":
        return metrics.peak_half_open >= spec.capacity
    if kind == "session_hijack":
        return any(spec.marker in v
                   for v in metrics.delivered_payloads.values())
    if kind == "ack_inject":
        got = metrics.delivered_payloads.get(
            (spec.dst, spec.src, spec.server_port, spec.client_port), b"")
        return got != spec.expected_payload
    raise ValueError("unknown attack kind %r" % kind)
