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
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

from . import wire
from .crypto import (
    AggregateSignature,
    DhParams,
    SessionKey,
    derive_seed,
    dh_public,
    dh_shared,
    generate_dh_group,
    is_safe_prime,
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
from .identity import NodeIdentity, Registry, UnknownIdentityError
from .sim import Network

MAX_CASE2_HOPS = 1
DISCOVERY_TIMEOUT = 50        # ticks before a discovery attempt is retired
MAX_DISCOVERY_ATTEMPTS = 3
SEND_QUEUE_LIMIT = 16         # segments held per target awaiting a route


# Every `encoded` here is wire.encode_core of its message's core, made once
# per hop by the node that makes or accepts the message.

def originate(core: wire.RouteCore, key: Optional[RsaKeyPair],
              key_bytes: bytes,
              sec_level: int) -> Tuple[wire.RouteMessage, bytes]:
    """`core` as a message with no hops, signed by signer 0 with `key` and
    bound to the encoded public key `key_bytes`; at level 0 it also carries
    that signature standalone. With `key` None it is unsigned. Returned
    with the core's encoding.

    `key_bytes` is the signer's own key; a forger names another node's key
    here, which makes the signature claim that node as origin.
    """
    encoded = wire.encode_core(core)
    agg = source_sig = None
    if key is not None:
        agg = rsa_sign_first(wire.signer_hash(encoded, (), key_bytes), key)
        if sec_level == 0:
            source_sig = agg.value
    return wire.RouteMessage(core, (), sec_level, agg, source_sig), encoded


def append_signer(msg: Tuple, encoded: bytes, key: RsaKeyPair,
                  key_bytes: bytes, node_id: bytes) -> wire.RouteMessage:
    """`msg` (a RouteMessage, or its five fields) with `node_id` appended as
    a hop and its signature under `key` (encoded public key `key_bytes`)
    folded in; an unsigned message (aggregate None) gets the hop and stays
    unsigned. Built once, by position."""
    core, hops, sec_level, agg, source_sig = msg
    hops += (node_id,)
    if agg is not None:
        h = wire.signer_hash(encoded, hops, key_bytes)
        agg = sas_aggregate_step(agg, h, key)
    return wire.RouteMessage(core, hops, sec_level, agg, source_sig)


def send_message(node, msg: wire.RouteMessage, encoded: bytes,
                 to: Optional[str] = None) -> None:
    """Send `msg` from `node` (a router or an attacker: its `net` and `ip`)
    to the neighbour `to`, or broadcast it when `to` is None."""
    payload = wire.encode_message(msg, encoded)
    if to is None:
        node.net.broadcast(node.ip, payload)
    else:
        node.net.unicast(node.ip, to, payload)


@dataclass
class NodeConfig:
    name: str
    keys: NodeKeys    # keys.encryption is made on first read
    secure: bool
    sec_level: int
    master_seed: int
    dh_bits: int


@dataclass
class RouteEntry:
    next_hop: str
    distance: int
    seq: int


@dataclass
class Want:
    """A wanted target: its attempts in flight (bct -> DH params, attempt
    number) and the newest segments waiting for a route. A break report
    restarts discovery toward a target that has a record; a chain that gives
    up clears the queue, and deletes the record unless another attempt
    toward the target is in flight."""
    attempts: Dict[int, Tuple[Optional[DhParams], int]] = field(
        default_factory=dict)
    queue: Deque[wire.Segment] = field(
        default_factory=lambda: deque(maxlen=SEND_QUEUE_LIMIT))


class Session(NamedTuple):
    """The newest key agreed with a peer, and the peer's id it binds."""
    key: SessionKey
    peer_id: bytes


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
        own = registry.by_ip(config.name)
        self.ip, self.node_id, self.key_bytes = \
            own.ip, own.node_id, own.key_bytes
        self.seq = 0
        self._bct_counter = 0
        # per-peer tables are keyed by address; flows by (originator, target)
        self.routes: Dict[str, RouteEntry] = {}
        self.wants: Dict[str, Want] = defaultdict(Want)
        self.flows: Dict[Tuple[str, str], FlowState] = {}
        self.seen: set = set()
        self.sessions: Dict[str, Session] = {}
        self.transport = None
        # the exchange's stream, seeded by _stream at its first draw
        self.rng: Optional[random.Random] = None
        net.add_node(config.name, self)

    def _stream(self) -> random.Random:
        """This node's stream for the exchange's groups, its exponents and
        the bases that test a requester's group, seeded from the master
        seed and the node's name; most routers of a run draw from none."""
        if self.rng is None:
            self.rng = random.Random(derive_seed(self.config.master_seed,
                                                 "node", self.config.name))
        return self.rng

    # --- discovery ----------------------------------------------------------

    def start_discovery(self, dst_ip: str, _attempt: int = 1) -> int:
        dest = self.registry.by_ip(dst_ip)
        self._bct_counter += 1
        bct = self._bct_counter
        params = None
        exchange = {}
        if self.config.secure:
            rng = self._stream()
            p, g = generate_dh_group(self.config.dh_bits, rng)
            params = make_dh_params(p, g, rng)
            if params.p >= dest.encryption_public[0]:
                raise ValueError("exchange group too wide for peer key")
            sealed = rsa_encrypt(dh_public(params), dest.encryption_public)
            exchange = dict(dh_p=params.p, dh_g=params.g, dh_payload=sealed)
        msg, encoded = self._originate(wire.KIND_RREQ, bct, dst_ip,
                                       **exchange)
        self.wants[dst_ip].attempts[bct] = (params, _attempt)
        self.net.log(self.ip, "discovery", target=dst_ip, bct=bct,
                     attempt=_attempt, seq=self.seq)
        send_message(self, msg, encoded)
        self.net.schedule(DISCOVERY_TIMEOUT, self._retire, dst_ip, bct)
        return bct

    def ensure_discovery(self, dst_ip: str) -> None:
        """Start a discovery for dst_ip unless an attempt is in flight."""
        if dst_ip not in self.wants or not self.wants[dst_ip].attempts:
            self.start_discovery(dst_ip)

    # --- sending ------------------------------------------------------------

    def _originate(self, kind: int, bct: int, dst_ip: str,
                   **fields) -> Tuple[wire.RouteMessage, bytes]:
        """A message from this node under its next sequence number: signed
        as origin, and seen; with its core's encoding."""
        self.seq += 1
        core = wire.RouteCore(kind=kind, src_ip=self.ip, src_id=self.node_id,
                              src_seq=self.seq, bct_id=bct, dst_ip=dst_ip,
                              **fields)
        self.seen.add(self._seen_key(core))
        key = None
        if self.config.secure:
            key = self.config.keys.signing
            self.metrics.signed += 1
        return originate(core, key, self.key_bytes, self.config.sec_level)

    def _forward(self, msg: wire.RouteMessage,
                 encoded: bytes) -> wire.RouteMessage:
        """`msg` cut to its level's chain, then signed on by append_signer.
        A secure message reaches here verified at this node's level, so it
        holds an aggregate, and at level 0 an origin signature."""
        core, hops, sec_level, agg, source_sig = msg
        if not self.config.secure:
            agg = source_sig = None
        else:
            self.metrics.signed += 1
            if sec_level == 0:
                # strip the predecessor, rebind over the origin signature
                hops, agg = (), AggregateSignature(source_sig, ())
            else:   # level 1 relays no standalone origin signature
                source_sig = None
        return append_signer((core, hops, sec_level, agg, source_sig),
                             encoded, self.config.keys.signing,
                             self.key_bytes, self.node_id)

    # --- verification -------------------------------------------------------

    def _verify(self, msg: wire.RouteMessage, encoded: bytes, sender: str,
                terminal: bool, origin: NodeIdentity,
                hop_nodes: List[NodeIdentity]) -> Optional[str]:
        if not self.config.secure:
            return None
        if msg.sec_level != self.config.sec_level:
            return "malformed"
        # the claimed last hop, resolved by on_receive, must be the sender
        if (hop_nodes[-1] if hop_nodes else origin).ip != sender:
            return "id_mismatch"
        agg = msg.aggregate
        if agg is None:
            return "verify_failed"
        if self.config.sec_level == 1:
            if agg.signer_count != len(msg.hops) + 1:
                return "malformed"
            signers = [origin] + hop_nodes
            hashes = wire.signer_hashes(encoded, msg.hops,
                                        [node.key_bytes for node in signers])
            per_signer = [(h, node.signing_public)
                          for h, node in zip(hashes, signers)]
            ok = sas_unwind_verify(agg, per_signer)
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
            last = hop_nodes[0]
            n_last = last.signing_public[0]
            if not 0 <= agg.value < n_last:
                return "verify_failed"
            h = wire.signer_hash(encoded, msg.hops, last.key_bytes)
            recovered = sas_unwind_step(agg.value, h, last.signing_public,
                                        agg.overflow_bits[0])
            self.metrics.verified += 1
            if recovered != msg.source_sig:
                return "verify_failed"
        elif agg.value != msg.source_sig:
            return "verify_failed"
        if terminal:
            # a value past the modulus fails before it counts as a check
            if not 0 <= msg.source_sig < origin.signing_public[0]:
                return "verify_failed"
            h0 = wire.signer_hash(encoded, (), origin.key_bytes)
            self.metrics.verified += 1
            if not sas_unwind_verify(AggregateSignature(msg.source_sig, ()),
                                     [(h0, origin.signing_public)]):
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
        core = msg.core
        seen_key = self._seen_key(core)
        if seen_key in self.seen:
            return "duplicate"
        # identities before signatures: an unknown one costs no RSA work;
        # the destination is looked up only to drop an unregistered one
        try:
            origin = self.registry.get(core.src_id)
            hop_nodes = [self.registry.get(h) for h in msg.hops]
            self.registry.by_ip(core.dst_ip)
            if core.kind == wire.KIND_RERR:
                unreachable = self.registry.get(core.originator_id)
        except UnknownIdentityError:
            return "unknown_identity"
        terminal = core.dst_ip == self.ip
        # the one encoding of the core at this hop: every signer hash and
        # the forwarded frame start with it
        encoded = wire.encode_core(core)
        reason = self._verify(msg, encoded, sender, terminal, origin,
                              hop_nodes)
        if reason:
            return reason
        if core.kind == wire.KIND_RREQ:
            reason = self._on_rreq(sender, msg, encoded, terminal, origin)
        elif core.kind == wire.KIND_RREP:
            reason = self._on_rrep(sender, msg, encoded, terminal, origin)
        else:
            reason = self._on_rerr(sender, msg, encoded, terminal, origin,
                                   unreachable)
        if reason is None:
            self.seen.add(seen_key)
        return reason

    def _retire(self, dst_ip: str, bct: int) -> None:
        """Discovery timeout: retry the attempt, or give its chain up."""
        # get, not [], so a stale timer recreates no deleted record
        want = self.wants.get(dst_ip)
        attempt = want.attempts.pop(bct, None) if want else None
        if attempt is None:
            return
        if attempt[1] < MAX_DISCOVERY_ATTEMPTS:
            self.start_discovery(dst_ip, _attempt=attempt[1] + 1)
        else:
            want.queue.clear()
            if not want.attempts:
                del self.wants[dst_ip]

    def _seen_key(self, core: wire.RouteCore):
        return (core.kind, core.src_id, core.bct_id, core.src_seq)

    def _on_rreq(self, sender: str, msg: wire.RouteMessage, encoded: bytes,
                 terminal: bool, origin: NodeIdentity) -> Optional[str]:
        core = msg.core
        theirs = 0
        if terminal and self.config.secure:
            # checked before any state changes, so a refused request
            # leaves none behind
            theirs = self._check_key_exchange(core, origin)
            if theirs is None:
                return "malformed"
        self._install(msg, origin, sender)
        flow = self.flows.setdefault((origin.ip, core.dst_ip),
                                     FlowState(bct_id=core.bct_id))
        flow.bct_id = core.bct_id
        flow.toward_src = sender
        if terminal:
            self._answer_request(core, origin, theirs)
            return None
        send_message(self, self._forward(msg, encoded), encoded)
        return None

    def _answer_request(self, core: wire.RouteCore, origin: NodeIdentity,
                        theirs: int) -> None:
        """Reply to a request for this node; a secure node completes the
        exchange with the requester's checked half, `theirs`."""
        sealed = 0
        if self.config.secure:
            params = make_dh_params(core.dh_p, core.dh_g, self._stream())
            self._store_key(origin, core.bct_id, dh_shared(theirs, params))
            sealed = rsa_encrypt(dh_public(params), origin.encryption_public)
        msg, encoded = self._originate(wire.KIND_RREP, core.bct_id,
                                       core.src_ip, dst_seq=core.src_seq,
                                       dh_payload=sealed)
        route = self.routes.get(origin.ip)
        if route is not None:
            send_message(self, msg, encoded, route.next_hop)

    def _check_key_exchange(self, core: wire.RouteCore,
                            origin: NodeIdentity) -> Optional[int]:
        """The requester's decrypted half, or None if the request's group or
        half is unsound; tests only, so it changes no routing state. Above
        78 bits its prime test advances the node stream, from which the
        reply's exponent is drawn next."""
        p, g = core.dh_p, core.dh_g
        if p < 7 or p % 2 == 0 or not 2 <= g <= p - 2:
            return None
        theirs = self._open_half(core.dh_payload, p)
        if theirs is None or p >= origin.encryption_public[0]:
            return None
        # p must be a safe prime 2q + 1, tested last so its width is bounded
        # by the key check; above 78 bits with bases drawn from the node
        # stream, because a requester can pick a composite that passes any
        # fixed set there
        if not is_safe_prime(p, self._stream()):
            return None
        return theirs

    def _open_half(self, sealed: int, p: int) -> Optional[int]:
        """The peer's exchange half sealed to this node, or None unless it
        decrypts to a value in (0, p)."""
        try:
            theirs = rsa_decrypt(sealed, self.config.keys.encryption)
        except ValueError:
            return None
        return theirs if 0 < theirs < p else None

    def session(self, peer_ip: str) -> Optional[Session]:
        """The transport's session with `peer_ip`: the newest agreed."""
        return self.sessions.get(peer_ip)

    def _store_key(self, peer: NodeIdentity, bct: int, key: SessionKey,
                   initiated: bool = False) -> None:
        self.sessions[peer.ip] = Session(key, peer.node_id)
        self.net.log(self.ip, "session_key", peer=peer.ip, bct=bct,
                     key=key.value, initiated=initiated)

    def _on_rrep(self, sender: str, msg: wire.RouteMessage, encoded: bytes,
                 terminal: bool, origin: NodeIdentity) -> Optional[str]:
        core = msg.core
        if terminal:
            want = self.wants.get(origin.ip)
            if want is None or core.bct_id not in want.attempts:
                return "no_pending"
            if self.config.secure:
                params, _ = want.attempts[core.bct_id]
                theirs = self._open_half(core.dh_payload, params.p)
                if theirs is None:
                    return "malformed"
                # the replier's name was checked against the target above
                self._store_key(origin, core.bct_id,
                                dh_shared(theirs, params), initiated=True)
        else:
            # a relay with no onward route drops the reply unchanged
            route = self.routes.get(core.dst_ip)
            if route is None:
                return "no_route"
        self._install(msg, origin, sender)
        flow = self.flows.setdefault((core.dst_ip, origin.ip),
                                     FlowState(bct_id=core.bct_id))
        flow.toward_dst = sender
        if terminal:
            del want.attempts[core.bct_id]
            self.net.log(self.ip, "discovered", target=origin.ip,
                         bct=core.bct_id)
            # a segment sent back to the queue waits behind the ones popped
            for _ in range(len(want.queue)):
                self.send_segment(origin.ip, want.queue.popleft())
            return None
        send_message(self, self._forward(msg, encoded), encoded,
                     route.next_hop)
        return None

    def _on_rerr(self, sender: str, msg: wire.RouteMessage, encoded: bytes,
                 terminal: bool, origin: NodeIdentity,
                 unreachable: NodeIdentity) -> Optional[str]:
        core = msg.core
        flow = self.flows.get((core.dst_ip, unreachable.ip))
        if self.config.secure:
            if flow is None or flow.toward_dst != sender:
                return "id_mismatch"
        elif flow is None and unreachable.ip not in self.routes:
            return "no_route"
        self.net.log(self.ip, "rerr_accepted", reporter=origin.ip,
                     unreachable=unreachable.ip)
        self.routes.pop(unreachable.ip, None)
        if flow is not None:
            flow.toward_dst = None
        if terminal:
            if unreachable.ip in self.wants:
                self.start_discovery(unreachable.ip)
            return None
        fwd = self._forward(msg, encoded)
        target = flow.toward_src if flow is not None else None
        if target is None:
            route = self.routes.get(core.dst_ip)
            target = route.next_hop if route else None
        if target is not None:
            send_message(self, fwd, encoded, target)
        return None

    def _report_break(self, src_ip: str, dst_ip: str) -> None:
        flow = self.flows.get((src_ip, dst_ip))
        unreachable = self.registry.by_ip(dst_ip)
        msg, encoded = self._originate(wire.KIND_RERR,
                                       flow.bct_id if flow else 0, src_ip,
                                       originator_id=unreachable.node_id)
        self.net.log(self.ip, "rerr_sent")
        if flow is not None and flow.toward_src is not None:
            send_message(self, msg, encoded, flow.toward_src)

    # --- data path ----------------------------------------------------------

    def send_segment(self, dst_ip: str, seg: wire.Segment) -> None:
        route = self.routes.get(dst_ip)
        if route is None:
            if self.registry.find_ip(dst_ip) is None:
                return
            self.wants[dst_ip].queue.append(seg)
            self.ensure_discovery(dst_ip)
            return
        pkt = wire.DataPacket(self.ip, dst_ip, seg)
        if not self.net.unicast(self.ip, route.next_hop,
                                wire.encode_message(pkt)):
            # next hop gone: forget the route, retry through a fresh discovery
            self.routes.pop(dst_ip, None)
            self.send_segment(dst_ip, seg)

    def _on_data(self, sender: str, pkt: wire.DataPacket,
                 raw: bytes) -> Optional[str]:
        if pkt.dst_ip == self.ip:
            return self.transport.on_segment(pkt.src_ip, pkt.segment)
        route = self.routes.get(pkt.dst_ip)
        if route is None:
            return "no_route"
        if not self.net.unicast(self.ip, route.next_hop, raw):
            self.routes.pop(pkt.dst_ip, None)
            if self.registry.find_ip(pkt.src_ip) is not None:
                self._report_break(pkt.src_ip, pkt.dst_ip)
        return None

    # --- route table --------------------------------------------------------

    def _install(self, msg: wire.RouteMessage, origin: NodeIdentity,
                 next_hop: str) -> None:
        """Learn the route to `origin` that accepted `msg` teaches."""
        dst_ip = origin.ip
        if dst_ip == self.ip:
            return
        distance, seq = len(msg.hops) + 1, msg.core.src_seq
        old = self.routes.get(dst_ip)
        if old is not None and (old.seq > seq or
                                (old.seq == seq and old.distance <= distance)):
            return
        self.routes[dst_ip] = RouteEntry(next_hop=next_hop, distance=distance,
                                         seq=seq)
        self.net.log(self.ip, "route", dst=dst_ip, next_hop=next_hop,
                     distance=distance, seq=seq,
                     via=wire.ROUTE_KIND_NAMES[msg.core.kind])
