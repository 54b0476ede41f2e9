"""On-demand route discovery with chained per-hop signatures.

Each node runs one RouterNode. Route requests flood outward collecting hop
records and signatures; replies unicast back along reverse routes and carry
the responder's half of the key exchange. Two verification depths exist:

* level 1 carries the whole hop chain and every receiver unwinds all of it;
* level 0 keeps only the previous hop's binding over the originator
  signature, and only the endpoints check the originator relation.

Unsecured (baseline) nodes run the same message flow with no signatures and
no checks beyond well-formedness; the attack tests rely on that contrast.

Next hops always point at the physical sender of the accepted copy. In
secure mode the claimed last hop record must match that sender, which is
what makes replayed or re-attributed messages detectable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from . import wire
from .crypto import (
    AggregateSignature,
    DhParams,
    SessionKey,
    derive_seed,
    dh_public,
    dh_shared,
    generate_dh_group,
    is_probable_prime,
    make_dh_params,
    NodeKeys,
    rsa_decrypt,
    rsa_encrypt,
    rsa_sign_first,
    sas_aggregate_step,
    sas_unwind_step,
    sas_unwind_verify,
    RsaKeyPair,
)
from .identity import Registry, UnknownIdentityError, derive_id
from .sim import Network

MAX_CASE2_HOPS = 1
DISCOVERY_TIMEOUT = 50        # ticks before a discovery attempt is retired
MAX_DISCOVERY_ATTEMPTS = 3
SEND_QUEUE_LIMIT = 16         # segments held per target awaiting a route


def sign_origin(core: wire.RouteCore, key: RsaKeyPair,
                public: Optional[Tuple[int, int]] = None
                ) -> AggregateSignature:
    """Signer 0's signature over `core`, bound to `public`.

    `public` defaults to the signer's own key; a forger names another
    node's key here, which makes the signature claim that node as origin.
    """
    h = wire.signer_hash(core, (), 0, public or key.public)
    return rsa_sign_first(h, key)


def append_signer(core: wire.RouteCore, hops: Tuple[bytes, ...],
                  agg: Optional[AggregateSignature], key: RsaKeyPair,
                  node_id: bytes):
    """(hops + node_id, agg with that hop's signature folded in).

    An unsigned message (agg None) gets the hop record and stays unsigned.
    """
    new_hops = hops + (node_id,)
    if agg is None:
        return new_hops, None
    h = wire.signer_hash(core, new_hops, len(new_hops), key.public)
    return new_hops, sas_aggregate_step(agg, h, key)


@dataclass
class NodeConfig:
    name: str
    keys: NodeKeys    # keys.encryption is made on first read
    secure: bool = True
    sec_level: int = 1
    master_seed: int = 0
    dh_bits: int = 64


@dataclass
class RouteEntry:
    next_hop: str
    distance: int
    seq: int


@dataclass
class PendingDiscovery:
    target_ip: str
    params: Optional[DhParams]
    start_tick: int
    attempt: int


@dataclass
class FlowState:
    bct_id: int
    toward_src: Optional[str] = None
    toward_dst: Optional[str] = None


class RouterNode:
    def __init__(self, config: NodeConfig, registry: Registry, net: Network):
        self.config = config
        self.registry = registry
        self.net = net
        self.metrics = net.metrics
        self.node_id = derive_id(config.keys.signing.public)
        self.ip = config.name
        self.seq = 0
        self._bct_counter = 0
        self.routes: Dict[bytes, RouteEntry] = {}
        self.pending: Dict[int, PendingDiscovery] = {}
        self.flows: Dict[Tuple[bytes, bytes], FlowState] = {}
        self.seen: set = set()
        self.session_keys: Dict[Tuple[bytes, int], SessionKey] = {}
        self.latest_key: Dict[bytes, int] = {}
        self.active_targets: set = set()
        self.send_queue: Dict[str, List[wire.Segment]] = {}
        self.transport = None
        self.rng = random.Random(
            derive_seed(config.master_seed, "node", config.name))
        # bases for testing requesters' groups; a stream of its own, so the
        # checks move no other draw
        self._group_rng = random.Random(
            derive_seed(config.master_seed, "group-check", config.name))
        net.add_node(config.name, self)

    # --- discovery ----------------------------------------------------------

    def start_discovery(self, dst_ip: str, _attempt: int = 1) -> int:
        dest = self.registry.by_ip(dst_ip)
        self.seq += 1
        self._bct_counter += 1
        bct = self._bct_counter
        params = None
        exchange = {}
        if self.config.secure:
            p, g = generate_dh_group(self.config.dh_bits, self.rng)
            params = make_dh_params(p, g, self.rng)
            if params.p >= dest.encryption_public[0]:
                raise ValueError("exchange group too wide for peer key")
            sealed = rsa_encrypt(dh_public(params), dest.encryption_public)
            exchange = dict(dh_p=params.p, dh_g=params.g, dh_payload=sealed)
        core = wire.RouteCore(kind=wire.KIND_RREQ, src_ip=self.ip,
                              src_id=self.node_id, src_seq=self.seq,
                              bct_id=bct, dst_ip=dst_ip, **exchange)
        msg = self._originate(core)
        self.pending[bct] = PendingDiscovery(dst_ip, params, self.net.tick,
                                             _attempt)
        self.active_targets.add(dst_ip)
        self.metrics.log(self.net.tick, self.ip, "discovery", target=dst_ip,
                         bct=bct, attempt=_attempt)
        self._send(msg)
        self.net.schedule(DISCOVERY_TIMEOUT, self._retire, bct)
        return bct

    def ensure_discovery(self, dst_ip: str) -> None:
        """Start a discovery for dst_ip unless one is already pending."""
        if not any(pd.target_ip == dst_ip for pd in self.pending.values()):
            self.start_discovery(dst_ip)

    def session_key_for(self, peer_ip: str) -> Optional[SessionKey]:
        try:
            peer_id = self.registry.by_ip(peer_ip).node_id
        except UnknownIdentityError:
            return None
        bct = self.latest_key.get(peer_id)
        if bct is None:
            return None
        return self.session_keys.get((peer_id, bct))

    # --- sending ------------------------------------------------------------

    def _originate(self, core: wire.RouteCore) -> wire.RouteMessage:
        """A message that starts at this node: signed as origin, seen."""
        level = self.config.sec_level
        agg = src_sig = None
        if self.config.secure:
            agg = sign_origin(core, self.config.keys.signing)
            self.metrics.signed += 1
            if level == 0:
                src_sig = agg.value
        self.seen.add(self._seen_key(core))
        return wire.RouteMessage(core=core, hops=(),
                                 sig_mode=wire.sig_mode_for(level),
                                 sec_level=level, aggregate=agg,
                                 source_sig=src_sig)

    def _forward(self, msg: wire.RouteMessage) -> wire.RouteMessage:
        """`msg` with this node appended as the newest hop and signer."""
        hops, agg, src_sig = msg.hops, msg.aggregate, None
        if not self.config.secure:
            agg = None
        elif self.config.sec_level == 0:
            # strip the predecessor, rebind over the origin signature
            src_sig = msg.source_sig
            hops = ()
            agg = AggregateSignature(value=src_sig, overflow_bits=(),
                                     signer_count=1)
        hops, agg = append_signer(msg.core, hops, agg,
                                  self.config.keys.signing, self.node_id)
        if agg is not None:
            self.metrics.signed += 1
        return replace(msg, hops=hops, aggregate=agg, source_sig=src_sig)

    def _send(self, msg: wire.RouteMessage, to: Optional[str] = None) -> None:
        """Unicast to the neighbour `to`, or broadcast when it is None."""
        payload = wire.encode_message(msg)
        if to is None:
            self.net.broadcast(self.ip, payload)
        else:
            self.net.unicast(self.ip, to, payload)

    # --- verification -------------------------------------------------------

    def _verify(self, msg: wire.RouteMessage, sender: str,
                terminal: bool) -> Optional[str]:
        core = msg.core
        try:
            origin = self.registry.get(core.src_id)
            hop_ids = [self.registry.get(h) for h in msg.hops]
        except UnknownIdentityError:
            return "unknown_identity"
        if not self.config.secure:
            return None
        if (msg.sig_mode != wire.sig_mode_for(self.config.sec_level)
                or msg.sec_level != self.config.sec_level):
            return "malformed"
        try:
            sender_id = self.registry.by_ip(sender).node_id
        except UnknownIdentityError:
            return "unknown_identity"
        expected_last = msg.hops[-1] if msg.hops else core.src_id
        if sender_id != expected_last:
            return "id_mismatch"
        agg = msg.aggregate
        if agg is None:
            return "verify_failed"
        if self.config.sec_level == 1:
            if agg.signer_count != len(msg.hops) + 1:
                return "malformed"
            publics = [origin.signing_public]
            publics += [ident.signing_public for ident in hop_ids]
            per_signer = list(zip(wire.signer_hashes(core, msg.hops, publics),
                                  publics))
            try:
                ok = sas_unwind_verify(agg, per_signer)
            except ValueError:
                return "malformed"
            self.metrics.verified += agg.signer_count
            return None if ok else "verify_failed"
        # level 0
        if msg.source_sig is None:
            return "verify_failed"
        if len(msg.hops) > MAX_CASE2_HOPS:
            return "malformed"
        if agg.signer_count != len(msg.hops) + 1:
            return "malformed"
        if msg.hops:
            last = hop_ids[0]
            n_last = last.signing_public[0]
            if not 0 <= agg.value < n_last:
                return "verify_failed"
            h = wire.signer_hash(core, msg.hops, 1, last.signing_public)
            recovered = sas_unwind_step(agg.value, h, last.signing_public,
                                        agg.overflow_bits[0])
            self.metrics.verified += 1
            if recovered != msg.source_sig:
                return "verify_failed"
        elif agg.value != msg.source_sig:
            return "verify_failed"
        if terminal:
            n0, e0 = origin.signing_public
            if not 0 <= msg.source_sig < n0:
                return "verify_failed"
            h0 = wire.signer_hash(core, (), 0, origin.signing_public)
            self.metrics.verified += 1
            if pow(msg.source_sig, e0, n0) != h0 % n0:
                return "verify_failed"
        return None

    # --- receive path -------------------------------------------------------

    def on_receive(self, sender: str, payload: bytes) -> Optional[str]:
        try:
            msg = wire.decode_message(payload)
        except wire.ParseError:
            return "malformed"
        if isinstance(msg, wire.DataPacket):
            return self._on_data(sender, msg, payload)
        if not isinstance(msg, wire.RouteMessage):
            return "malformed"   # bare segments never travel node to node
        core = msg.core
        if self._seen_key(core) in self.seen:
            return "duplicate"
        terminal = core.dst_ip == self.ip
        reason = self._verify(msg, sender, terminal)
        if reason:
            return reason
        if core.kind == wire.KIND_RREQ:
            return self._on_rreq(sender, msg, terminal)
        if core.kind == wire.KIND_RREP:
            return self._on_rrep(sender, msg, terminal)
        return self._on_rerr(sender, msg, terminal)

    def _retire(self, bct: int) -> None:
        """Discovery timeout: retry the attempt, or give its target up."""
        pd = self.pending.pop(bct, None)
        if pd is None:
            return
        if pd.attempt < MAX_DISCOVERY_ATTEMPTS:
            self.start_discovery(pd.target_ip, _attempt=pd.attempt + 1)
        else:
            self.active_targets.discard(pd.target_ip)
            self.send_queue.pop(pd.target_ip, None)

    def _seen_key(self, core: wire.RouteCore):
        return (core.kind, core.src_id, core.bct_id, core.src_seq)

    def _on_rreq(self, sender: str, msg: wire.RouteMessage,
                 terminal: bool) -> Optional[str]:
        core = msg.core
        try:
            dst_id = self.registry.by_ip(core.dst_ip).node_id
        except UnknownIdentityError:
            return "unknown_identity"
        self.seen.add(self._seen_key(core))
        self._install(core.src_id, sender, len(msg.hops) + 1, core.src_seq,
                      via="RREQ")
        flow = self.flows.setdefault((core.src_id, dst_id),
                                     FlowState(bct_id=core.bct_id))
        flow.bct_id = core.bct_id
        flow.toward_src = sender
        if terminal:
            return self._answer_request(core)
        self._send(self._forward(msg))
        return None

    def _answer_request(self, core: wire.RouteCore) -> Optional[str]:
        sealed = 0
        if self.config.secure:
            reason, sealed = self._respond_key_exchange(core)
            if reason:
                return reason
        self.seq += 1
        reply = wire.RouteCore(kind=wire.KIND_RREP, src_ip=self.ip,
                               src_id=self.node_id, src_seq=self.seq,
                               bct_id=core.bct_id, dst_ip=core.src_ip,
                               dst_seq=core.src_seq, dh_payload=sealed)
        msg = self._originate(reply)
        route = self.routes.get(core.src_id)
        if route is not None:
            self._send(msg, route.next_hop)
        return None

    def _respond_key_exchange(self, core) -> Tuple[Optional[str], int]:
        p, g = core.dh_p, core.dh_g
        if p < 7 or p % 2 == 0 or not 2 <= g <= p - 2:
            return "malformed", 0
        try:
            origin = self.registry.get(core.src_id)
            theirs = rsa_decrypt(core.dh_payload, self.config.keys.encryption)
        except (UnknownIdentityError, ValueError):
            return "malformed", 0
        if not 0 < theirs < p:
            return "malformed", 0
        if p >= origin.encryption_public[0]:
            return "malformed", 0
        # p must be a safe prime 2q + 1, tested last so its width is bounded
        # by the key check; random bases, because a requester can pick a
        # composite that passes any fixed set
        if not (is_probable_prime(p, self._group_rng)
                and is_probable_prime((p - 1) // 2, self._group_rng)):
            return "malformed", 0
        params = make_dh_params(p, g, self.rng)
        key = dh_shared(theirs, params)
        self._store_key(core.src_id, core.bct_id, key)
        sealed = rsa_encrypt(dh_public(params), origin.encryption_public)
        return None, sealed

    def _store_key(self, peer_id: bytes, bct: int, key: SessionKey,
                   initiated: bool = False) -> None:
        self.session_keys[(peer_id, bct)] = key
        self.latest_key[peer_id] = bct
        self.metrics.log(self.net.tick, self.ip, "session_key",
                         peer=peer_id.hex(), bct=bct, key=key.value,
                         initiated=initiated)

    def _on_rrep(self, sender: str, msg: wire.RouteMessage,
                 terminal: bool) -> Optional[str]:
        core = msg.core
        try:
            src_node_id = self.registry.by_ip(core.dst_ip).node_id
        except UnknownIdentityError:
            return "unknown_identity"
        if terminal:
            pd = self.pending.get(core.bct_id)
            if pd is None or self.registry.get(core.src_id).ip != pd.target_ip:
                return "no_pending"
            if self.config.secure:
                reason = self._finish_key_exchange(core, pd)
                if reason:
                    return reason
        self.seen.add(self._seen_key(core))
        self._install(core.src_id, sender, len(msg.hops) + 1, core.src_seq,
                      via="RREP")
        flow = self.flows.setdefault((src_node_id, core.src_id),
                                     FlowState(bct_id=core.bct_id))
        flow.toward_dst = sender
        if terminal:
            del self.pending[core.bct_id]
            self.metrics.discovery_latency_ticks.append(
                self.net.tick - pd.start_tick)
            self._flush_queue(pd.target_ip)
            return None
        route = self.routes.get(src_node_id)
        if route is None:
            return "no_route"
        self._send(self._forward(msg), route.next_hop)
        return None

    def _finish_key_exchange(self, core, pd: PendingDiscovery) -> Optional[str]:
        try:
            theirs = rsa_decrypt(core.dh_payload, self.config.keys.encryption)
        except ValueError:
            return "malformed"
        if pd.params is None or not 0 < theirs < pd.params.p:
            return "malformed"
        self._store_key(core.src_id, core.bct_id, dh_shared(theirs, pd.params),
                        initiated=True)
        return None

    def _on_rerr(self, sender: str, msg: wire.RouteMessage,
                 terminal: bool) -> Optional[str]:
        core = msg.core
        try:
            src_node_id = self.registry.by_ip(core.dst_ip).node_id
            unreachable = self.registry.get(core.originator_id)
        except UnknownIdentityError:
            return "unknown_identity"
        flow = self.flows.get((src_node_id, core.originator_id))
        if self.config.secure:
            if flow is None or flow.toward_dst != sender:
                return "id_mismatch"
        elif flow is None and core.originator_id not in self.routes:
            return "no_route"
        self.seen.add(self._seen_key(core))
        self.metrics.log(self.net.tick, self.ip, "rerr_accepted",
                         reporter=core.src_id.hex(),
                         unreachable=core.originator_id.hex())
        self.routes.pop(core.originator_id, None)
        if flow is not None:
            flow.toward_dst = None
        if terminal:
            if unreachable.ip in self.active_targets:
                self.start_discovery(unreachable.ip)
            return None
        fwd = self._forward(msg)
        target = flow.toward_src if flow is not None else None
        if target is None:
            route = self.routes.get(src_node_id)
            target = route.next_hop if route else None
        if target is not None:
            self._send(fwd, target)
        return None

    def _report_break(self, src_node_id: bytes, dst_node_id: bytes) -> None:
        flow = self.flows.get((src_node_id, dst_node_id))
        self.routes.pop(dst_node_id, None)
        src = self.registry.get(src_node_id)
        self.seq += 1
        core = wire.RouteCore(kind=wire.KIND_RERR, src_ip=self.ip,
                              src_id=self.node_id, src_seq=self.seq,
                              bct_id=flow.bct_id if flow else 0,
                              dst_ip=src.ip, originator_id=dst_node_id)
        msg = self._originate(core)
        self.metrics.log(self.net.tick, self.ip, "rerr_sent")
        if flow is not None and flow.toward_src is not None:
            self._send(msg, flow.toward_src)

    # --- data path ----------------------------------------------------------

    def send_segment(self, dst_ip: str, seg: wire.Segment) -> None:
        try:
            dst_id = self.registry.by_ip(dst_ip).node_id
        except UnknownIdentityError:
            return
        route = self.routes.get(dst_id)
        if route is None:
            queue = self.send_queue.setdefault(dst_ip, [])
            if len(queue) >= SEND_QUEUE_LIMIT:
                queue.pop(0)
            queue.append(seg)
            self.ensure_discovery(dst_ip)
            return
        pkt = wire.DataPacket(src_ip=self.ip, dst_ip=dst_ip, segment=seg)
        if not self.net.unicast(self.ip, route.next_hop,
                                wire.encode_message(pkt)):
            # next hop gone: forget the route, retry through a fresh discovery
            self.routes.pop(dst_id, None)
            self.send_segment(dst_ip, seg)

    def _flush_queue(self, dst_ip: str) -> None:
        for seg in self.send_queue.pop(dst_ip, []):
            self.send_segment(dst_ip, seg)

    def _on_data(self, sender: str, pkt: wire.DataPacket,
                 raw: bytes) -> Optional[str]:
        if pkt.dst_ip == self.ip:
            if self.transport is not None:
                return self.transport.on_segment(pkt.src_ip, pkt.segment)
            return None
        try:
            dst_id = self.registry.by_ip(pkt.dst_ip).node_id
        except UnknownIdentityError:
            return "no_route"
        route = self.routes.get(dst_id)
        if route is None:
            return "no_route"
        if not self.net.unicast(self.ip, route.next_hop, raw):
            try:
                src_id = self.registry.by_ip(pkt.src_ip).node_id
            except UnknownIdentityError:
                self.routes.pop(dst_id, None)
                return None
            self._report_break(src_id, dst_id)
        return None

    # --- route table --------------------------------------------------------

    def _install(self, dst_id: bytes, next_hop: str, distance: int, seq: int,
                 via: str) -> None:
        if dst_id == self.node_id:
            return
        old = self.routes.get(dst_id)
        if old is not None and (old.seq > seq or
                                (old.seq == seq and old.distance <= distance)):
            return
        self.routes[dst_id] = RouteEntry(next_hop=next_hop, distance=distance,
                                         seq=seq)
        self.metrics.log(self.net.tick, self.ip, "route", dst=dst_id.hex(),
                         next_hop=next_hop, distance=distance, seq=seq,
                         via=via)
