"""Declarative runs described by JSON documents.

A scenario file names the nodes, the radio links, a timeline of events
(discoveries, flows, link flaps, adversary attachment), and the run length.
Running one yields a transmission trace and a metrics report whose bytes are
a pure function of the document plus any overrides, which is what makes runs
comparable across modes and replayable for verification.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from . import attacks, identity, routing, sim, transport
from .crypto import NodeKeys, derive_seed, generate_node_keys

MODES = ("secure", "baseline")

# Widest keys and exchange groups a scenario may ask for. Every discovery
# generates a fresh safe-prime group, steeply slower with width (on a 2-core
# Xeon, median and worst of 40 seeds: 0.013 and 0.054 s at 256 bits, 0.048
# and 0.36 s at 512; 0.68 and 3.2 s at 1024, of 6 seeds), and a 2048-bit
# signing pair takes about 0.06 s, so wider values would make a run hang
# rather than fail.
MAX_KEY_BITS = 2048
MAX_DH_BITS = 512

_TOP_FIELDS = {"seed", "key_bits", "dh_bits", "mode", "sec_level",
               "half_open_capacity", "run_until", "nodes", "links", "events",
               "tcp"}
_LINK_FIELDS = {"a", "b", "latency", "loss", "tunnel"}
_TCP_FIELDS = {"mss", "rto", "max_retries"}
_EVENT_FIELDS = {
    "start_discovery": {"node", "target"},
    "start_flow": {"client", "server", "client_port", "server_port",
                   "payload", "close"},
    "link_down": {"a", "b"},
    "link_up": {"a", "b"},
    "attach_attack": {"attack"},
}


class ScenarioError(ValueError):
    """A scenario document problem; the message names the offending field."""


@dataclass
class LinkSpec:
    a: str
    b: str
    latency: int
    loss: float
    tunnel: bool


@dataclass
class FlowSpec:
    tick: int
    client: str
    server: str
    client_port: int
    server_port: int
    payload: bytes
    close: bool


@dataclass
class Scenario:
    seed: int
    nodes: List[str]
    links: List[LinkSpec]
    key_bits: int
    dh_bits: int
    mode: str
    sec_level: int
    run_until: int
    tcp: transport.TcpConfig
    discoveries: List[Tuple[int, str, str]] = field(default_factory=list)
    flows: List[FlowSpec] = field(default_factory=list)
    link_changes: List[Tuple[int, str, str, bool]] = field(default_factory=list)
    attack_specs: List[attacks.AttackSpec] = field(default_factory=list)

    def attacker_names(self) -> List[str]:
        """Every attacker and wormhole partner, in spec order."""
        return [name for s in self.attack_specs
                for name in (s.attacker, s.partner) if name is not None]


def _known_fields(doc: dict, allowed, where: str,
                  what: str = "unexpected field") -> None:
    for key in doc:
        if key not in allowed:
            raise ScenarioError("%s: %s %r" % (where, what, key))


def _utf8(text: str, where: str) -> bytes:
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:
        raise ScenarioError("%s: not encodable as UTF-8 (lone surrogate?)"
                            % where) from None


def _need(doc: dict, key: str, where: str):
    if key not in doc:
        raise ScenarioError("%s: missing required field %r" % (where, key))
    return doc[key]


def _int_field(doc: dict, key: str, where: str, default=None, minimum=0,
               maximum=None):
    if key not in doc and default is not None:
        return default
    v = _need(doc, key, where)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ScenarioError("%s.%s: expected an integer, got %r"
                            % (where, key, v))
    if v < minimum:
        raise ScenarioError("%s.%s: must be >= %d" % (where, key, minimum))
    if maximum is not None and v > maximum:
        raise ScenarioError("%s.%s: must be <= %d" % (where, key, maximum))
    return v


def _str_field(doc: dict, key: str, where: str, default=None):
    if key not in doc and default is not None:
        return default
    v = _need(doc, key, where)
    if not isinstance(v, str):
        raise ScenarioError("%s.%s: expected a string, got %r"
                            % (where, key, v))
    _utf8(v, "%s.%s" % (where, key))
    return v


def _node_field(doc: dict, key: str, where: str, declared: set) -> str:
    name = _str_field(doc, key, where)
    if name not in declared:
        raise ScenarioError("%s.%s: %r is not a declared node"
                            % (where, key, name))
    return name


def load_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ScenarioError("cannot read scenario: %s" % err) from None
    except UnicodeDecodeError as err:
        raise ScenarioError("scenario is not UTF-8: %s" % err) from None
    except json.JSONDecodeError as err:
        raise ScenarioError("scenario is not valid JSON: %s" % err) from None
    except RecursionError:
        raise ScenarioError("scenario nests too deeply to read") from None
    return doc


def parse(doc, **overrides) -> Scenario:
    """Check `doc` and bind every setting of its run.

    Each override that is not None replaces the document's own top-level
    field before any check, so it obeys the rule for that field.
    """
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    doc = dict(doc, **{k: v for k, v in overrides.items() if v is not None})
    _known_fields(doc, _TOP_FIELDS, "scenario", "unknown top-level field")

    seed = _int_field(doc, "seed", "scenario")
    key_bits = _int_field(doc, "key_bits", "scenario", default=256, minimum=64,
                          maximum=MAX_KEY_BITS)
    if key_bits % 2:
        raise ScenarioError("scenario.key_bits: must be even")
    dh_bits = _int_field(doc, "dh_bits", "scenario", default=64, minimum=16,
                         maximum=MAX_DH_BITS)
    if dh_bits >= key_bits:
        # a discovery encrypts DH values mod p under a peer's key_bits-wide
        # modulus, so the group must be narrower than every key
        raise ScenarioError("scenario.dh_bits: must be below key_bits (%d), "
                            "got %d" % (key_bits, dh_bits))
    mode = _str_field(doc, "mode", "scenario", default="secure")
    if mode not in MODES:
        raise ScenarioError("scenario.mode: expected one of %s, got %r"
                            % ("/".join(MODES), mode))
    sec_level = _int_field(doc, "sec_level", "scenario", default=1)
    if sec_level not in (0, 1):
        raise ScenarioError("scenario.sec_level: must be 0 or 1")
    capacity = _int_field(doc, "half_open_capacity", "scenario", default=8,
                          minimum=1)
    run_until = _int_field(doc, "run_until", "scenario", default=400,
                           minimum=1)

    nodes_raw = _need(doc, "nodes", "scenario")
    if not isinstance(nodes_raw, list) or not nodes_raw:
        raise ScenarioError("scenario.nodes: expected a non-empty array")
    nodes: List[str] = []   # in order; membership is tested on `declared`
    declared = set()
    for i, name in enumerate(nodes_raw):
        where = "nodes[%d]" % i
        if not isinstance(name, str) or not name:
            raise ScenarioError("%s: node names are non-empty strings" % where)
        if "\t" in name or name.splitlines() != [name]:
            # a trace line holds names between tabs, and verify-trace splits
            # the trace at every line boundary str.splitlines knows
            raise ScenarioError("%s: node names may not contain tabs or "
                                "line breaks" % where)
        if len(_utf8(name, where)) > 0xFFFF:
            # a name travels as a wire token with a 16-bit length
            raise ScenarioError("%s: node names are at most 65535 UTF-8 "
                                "bytes" % where)
        if name in declared:
            raise ScenarioError("%s: duplicate node name %r" % (where, name))
        nodes.append(name)
        declared.add(name)

    links_raw = doc.get("links", [])
    if not isinstance(links_raw, list):
        raise ScenarioError("scenario.links: expected an array")
    links: List[LinkSpec] = []
    seen_links = set()
    for i, item in enumerate(links_raw):
        where = "links[%d]" % i
        if not isinstance(item, dict):
            raise ScenarioError("%s: expected an object" % where)
        _known_fields(item, _LINK_FIELDS, where)
        a = _node_field(item, "a", where, declared)
        b = _node_field(item, "b", where, declared)
        if a == b:
            raise ScenarioError("%s: link endpoints must differ" % where)
        pair = frozenset((a, b))
        if pair in seen_links:
            raise ScenarioError("%s: duplicate link %s-%s" % (where, a, b))
        seen_links.add(pair)
        tunnel = item.get("tunnel", False)
        if not isinstance(tunnel, bool):
            raise ScenarioError("%s.tunnel: expected true or false" % where)
        latency = _int_field(item, "latency", where,
                             default=0 if tunnel else 1,
                             minimum=0 if tunnel else 1)
        loss = item.get("loss", 0.0)
        if not isinstance(loss, (int, float)) or isinstance(loss, bool):
            raise ScenarioError("%s.loss: expected a number" % where)
        if not 0.0 <= loss <= 1.0:
            raise ScenarioError("%s.loss: must be between 0 and 1" % where)
        links.append(LinkSpec(a=a, b=b, latency=latency, loss=float(loss),
                              tunnel=tunnel))

    tcp = doc.get("tcp", {})
    if not isinstance(tcp, dict):
        raise ScenarioError("scenario.tcp: expected an object")
    _known_fields(tcp, _TCP_FIELDS, "scenario.tcp")
    tcp_cfg = transport.TcpConfig(
        mss=_int_field(tcp, "mss", "scenario.tcp", default=512, minimum=1),
        rto=_int_field(tcp, "rto", "scenario.tcp", default=10, minimum=1),
        max_retries=_int_field(tcp, "max_retries", "scenario.tcp", default=2),
        half_open_capacity=capacity)

    sc = Scenario(seed=seed, nodes=nodes, links=links, key_bits=key_bits,
                  dh_bits=dh_bits, mode=mode, sec_level=sec_level,
                  run_until=run_until, tcp=tcp_cfg)

    events = doc.get("events", [])
    if not isinstance(events, list):
        raise ScenarioError("scenario.events: expected an array")
    for i, ev in enumerate(events):
        where = "events[%d]" % i
        if not isinstance(ev, dict):
            raise ScenarioError("%s: expected an object" % where)
        tick = _int_field(ev, "tick", where)
        kind = _str_field(ev, "kind", where)
        if kind not in _EVENT_FIELDS:
            raise ScenarioError("%s: unknown event kind %r" % (where, kind))
        _known_fields(ev, _EVENT_FIELDS[kind] | {"tick", "kind"}, where)
        if kind == "start_discovery":
            node = _node_field(ev, "node", where, declared)
            target = _node_field(ev, "target", where, declared)
            if node == target:
                raise ScenarioError("%s: a node cannot discover itself"
                                    % where)
            sc.discoveries.append((tick, node, target))
        elif kind == "start_flow":
            client = _node_field(ev, "client", where, declared)
            server = _node_field(ev, "server", where, declared)
            if client == server:
                raise ScenarioError("%s: flow endpoints must differ" % where)
            cp = _int_field(ev, "client_port", where, default=5000, minimum=1)
            sp = _int_field(ev, "server_port", where, default=80, minimum=1)
            if cp > 0xFFFF or sp > 0xFFFF:
                raise ScenarioError("%s: ports must fit in 16 bits" % where)
            payload = _str_field(ev, "payload", where, default="")
            close = ev.get("close", True)
            if not isinstance(close, bool):
                raise ScenarioError("%s.close: expected true or false" % where)
            sc.flows.append(FlowSpec(tick=tick, client=client, server=server,
                                     client_port=cp, server_port=sp,
                                     payload=payload.encode("utf-8"),
                                     close=close))
        elif kind in ("link_down", "link_up"):
            a = _node_field(ev, "a", where, declared)
            b = _node_field(ev, "b", where, declared)
            if frozenset((a, b)) not in seen_links:
                raise ScenarioError("%s: no such link %s-%s" % (where, a, b))
            sc.link_changes.append((tick, a, b, kind == "link_up"))
        else:
            raw = ev.get("attack")
            if not isinstance(raw, dict):
                raise ScenarioError("%s: missing 'attack' object" % where)
            sc.attack_specs.append(_parse_attack(raw, tick, where, declared))

    _cross_validate(sc)
    return sc


def _parse_attack(raw: dict, tick: int, where: str,
                  declared: set) -> attacks.AttackSpec:
    """An AttackSpec of the attacker and the node fields its kind names."""
    where = where + ".attack"
    kind = _str_field(raw, "kind", where)
    if kind not in attacks.KINDS:
        raise ScenarioError("%s.kind: unknown attack kind %r" % (where, kind))
    names = ("attacker", *attacks.KINDS[kind].nodes)
    _known_fields(raw, {"kind", *names}, where,
                  "%s attack: unexpected field" % kind)
    nodes = {name: _node_field(raw, name, where, declared) for name in names}
    return attacks.AttackSpec(kind=kind, start=max(tick, 1), **nodes)


def _cross_validate(sc: Scenario) -> None:
    """Check the events against each other, and bind each attack spec to
    the security level, the half-open capacity and, for a segment forgery,
    to the flow it targets (its ports and the payload the server should
    receive)."""
    kinds = [s.kind for s in sc.attack_specs]
    if len(kinds) != len(set(kinds)):
        raise ScenarioError("events: at most one attack of each kind per "
                            "scenario (one verdict per kind)")
    bad = set()
    for name in sc.attacker_names():
        if name in bad:
            raise ScenarioError("events: %r is named as an adversary more "
                                "than once (one adversary per node)" % name)
        bad.add(name)
    for tick, node, target in sc.discoveries:
        for name in (node, target):
            if name in bad:
                raise ScenarioError("events: %r is an adversary and cannot "
                                    "take part in a discovery" % name)
    connections = {}
    for f in sc.flows:
        for name in (f.client, f.server):
            if name in bad:
                raise ScenarioError("events: %r is an adversary and cannot "
                                    "be a flow endpoint" % name)
        # each end keys a connection by (peer, local port, remote port), so
        # a second flow between the same two (node, port) ends, in either
        # direction, would take over the first one's connection
        ends = frozenset([(f.client, f.client_port),
                          (f.server, f.server_port)])
        first = connections.setdefault(ends, f)
        if first is not f:
            raise ScenarioError(
                "events: start_flow %s and start_flow %s would share the "
                "connection between %s:%d and %s:%d"
                % (_flow_text(first), _flow_text(f), first.client,
                   first.client_port, first.server, first.server_port))
    for i, s in enumerate(sc.attack_specs):
        for name in (s.src, s.dst, s.through):
            if name is not None and name in bad:
                raise ScenarioError("events: attack %r names adversary %r as "
                                    "a victim" % (s.kind, name))
        s = replace(s, capacity=sc.tcp.half_open_capacity,
                    sec_level=sc.sec_level)
        if s.kind in ("session_hijack", "ack_inject"):
            flow = next((f for f in sc.flows if f.client == s.src
                         and f.server == s.dst), None)
            if flow is None:
                raise ScenarioError("events: attack %r needs a start_flow "
                                    "from %r to %r to target"
                                    % (s.kind, s.src, s.dst))
            if s.kind == "session_hijack":
                _check_marker(sc.flows)
            s = replace(s, client_port=flow.client_port,
                        server_port=flow.server_port,
                        expected_payload=flow.payload)
        sc.attack_specs[i] = s


def _flow_text(f: FlowSpec) -> str:
    return "%s:%d->%s:%d at tick %d" % (f.client, f.client_port, f.server,
                                        f.server_port, f.tick)


def _check_marker(flows: List[FlowSpec]) -> None:
    """A hijack counts as harm once its marker shows up in delivered bytes,
    so no honest payload, the targeted flow's included, may contain it."""
    for f in flows:
        if attacks.HIJACK_MARKER in f.payload:
            raise ScenarioError("events: attack 'session_hijack' marker %r "
                                "occurs in the payload of the flow %s->%s"
                                % (attacks.HIJACK_MARKER.decode("utf-8"),
                                   f.client, f.server))


@dataclass
class RunResult:
    scenario: Scenario
    net: sim.Network
    metrics: sim.Metrics
    registry: identity.Registry
    routers: Dict[str, routing.RouterNode]
    endpoints: Dict[str, transport.TcpEndpoint]

    def trace_text(self) -> str:
        return self.net.trace_text()

    def metrics_json(self) -> str:
        m = self.metrics
        doc = {
            **m.trace_totals(),   # control_bytes, data_bytes, drops
            "attack_verdicts": dict(sorted(m.attack_verdicts.items())),
            "discovery_latency_ticks": m.discovery_latency_ticks,
            "key_agreement": _key_agreement(m),
            "peak_half_open": m.peak_half_open,
            "routes_installed": len(m.of("route")),
            "signature_ops": {"signed": m.signed, "verified": m.verified},
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _key_agreement(metrics: sim.Metrics) -> bool:
    """True iff every completed exchange derived the same key at both ends."""
    groups: Dict[tuple, set] = {}
    for _, node, _, rec in metrics.of("session_key"):
        if rec["initiated"]:
            key = (node, rec["peer"], rec["bct"])
        else:
            key = (rec["peer"], node, rec["bct"])
        groups.setdefault(key, set()).add(rec["key"])
    return all(len(vals) == 1 for vals in groups.values())


def build_registry(sc: Scenario) -> Tuple[identity.Registry,
                                          Dict[str, NodeKeys]]:
    """Registry and {name: NodeKeys} for the nodes of `sc`.

    The keys derive from sc.seed. Every node's signing pair is made here. Its
    encryption pair is made on first use, and only the endpoints of a
    discovery use one, so it is made here for each node that a flow
    (client, server), a discovery (node, target) or an attack (src, dst)
    names: that keeps key generation out of Network.run. Any other node's
    pair is made only if something reads it.
    """
    reg = identity.Registry()
    keys = {}
    for name in sc.nodes:
        keys[name] = generate_node_keys(derive_seed(sc.seed, "keys", name),
                                        sc.key_bits)
        reg.add(identity.NodeIdentity(keys[name], name))
    endpoints = {name for f in sc.flows for name in (f.client, f.server)}
    endpoints.update(name for _, node, target in sc.discoveries
                     for name in (node, target))
    endpoints.update(name for s in sc.attack_specs for name in (s.src, s.dst)
                     if name is not None)
    for name in endpoints:
        keys[name].encryption    # made now, outside the run
    return reg, keys


def run_scenario(doc, *, mode: Optional[str] = None,
                 sec_level: Optional[int] = None,
                 seed: Optional[int] = None) -> RunResult:
    """Parse with the overrides, build, run, and judge."""
    sc = parse(doc, mode=mode, sec_level=sec_level, seed=seed)
    reg, keys = build_registry(sc)
    net = sim.Network(seed=sc.seed)
    metrics = net.metrics
    bad = set(sc.attacker_names())
    secure = sc.mode == "secure"
    routers: Dict[str, routing.RouterNode] = {}
    endpoints: Dict[str, transport.TcpEndpoint] = {}
    for name in sc.nodes:
        if name in bad:
            continue
        cfg = routing.NodeConfig(name=name, keys=keys[name], secure=secure,
                                 sec_level=sc.sec_level, master_seed=sc.seed,
                                 dh_bits=sc.dh_bits)
        routers[name] = routing.RouterNode(cfg, reg, net)
        endpoints[name] = transport.TcpEndpoint(routers[name], sc.tcp)
    for spec in sc.attack_specs:
        attacks.deploy(spec, keys, reg, net)
        if spec.kind == "syn_flood":
            # the flood aims at a listener; open the port it targets
            endpoints[spec.dst].listen(spec.server_port)
    for l in sc.links:
        net.add_link(l.a, l.b, latency=l.latency, loss=l.loss,
                     tunnel=l.tunnel)
    for tick, node, target in sc.discoveries:
        net.schedule(tick, routers[node].start_discovery, target)
    for f in sc.flows:
        def start(f=f):
            endpoints[f.server].listen(f.server_port)
            endpoints[f.client].connect(f.server, f.client_port,
                                        f.server_port, data=f.payload,
                                        close=f.close)
        net.schedule(f.tick, start)
    for tick, a, b, up in sc.link_changes:
        net.schedule(tick, net.set_link, a, b, up)

    net.run(until=sc.run_until)

    for spec in sc.attack_specs:
        metrics.attack_verdicts[spec.kind] = attacks.judge(spec, metrics)
    return RunResult(scenario=sc, net=net, metrics=metrics, registry=reg,
                     routers=routers, endpoints=endpoints)
