"""Shared test helpers that stand in for library hooks: a frame recorder,
a pinned rng, a pinned exchange group and a count of group searches; the
one builder of hand-driven networks; and shared test data: hand-checkable
toy keys and the secure-mode verdicts."""

import contextlib

import pytest

from manetsec import crypto, routing, scenario, sim, wire


def _toy_key(p, q, e, d):
    """A hand-built key over the primes p and q, with its CRT fields."""
    return crypto.RsaKeyPair(n=p * q, e=e, d=d, p=p, q=q, dp=d % (p - 1),
                             dq=d % (q - 1), qinv=pow(q, -1, p))


# Toy keypairs small enough to check against hand arithmetic.
TOY1 = _toy_key(11, 17, e=7, d=23)    # 187 = 11 * 17
TOY2 = _toy_key(11, 13, e=7, d=103)   # 143 = 11 * 13

# The verdict each attack kind gets against secure nodes; against baseline
# nodes every kind succeeds.
EXPECTED_SECURE = {
    "seq_inflate": "detected",
    "hop_shorten": "detected",
    "redirect": "detected",
    "tunnel": "neutralized",
    "impersonate": "detected",
    "fake_rerr": "detected",
    "syn_flood": "neutralized",
    "session_hijack": "detected",
    "ack_inject": "detected",
}


@contextlib.contextmanager
def capture_frames():
    """Record (src, dst, payload) of every frame any Network transmits.

    Wraps Network._transmit for the duration of the block, so every frame
    a trace record is made for is seen, lost or not.
    """
    frames = []
    original = sim.Network._transmit

    def transmit(self, src, dst, payload, link):
        frames.append((src, dst, payload))
        return original(self, src, dst, payload, link)

    sim.Network._transmit = transmit
    try:
        yield frames
    finally:
        sim.Network._transmit = original


def decode_or_error(decode, data):
    """decode(data), or the (position, reason) of the ParseError it raises."""
    try:
        return decode(data)
    except wire.ParseError as err:
        return (err.position, err.reason)


class FixedRng:
    """Stands in for a node's rng so every exponent it draws is `value`."""

    def __init__(self, value):
        self.value = value

    def randrange(self, start, stop):
        return self.value


@contextlib.contextmanager
def pinned_group(router, p, g, r):
    """Discoveries `router` starts in the block use group (p, g), exponent r.

    generate_dh_group returns (p, g) as routing binds it, and the router's
    rng is a FixedRng(r), so make_dh_params gives DhParams(p, g, r).
    """
    original_group, original_rng = routing.generate_dh_group, router.rng
    routing.generate_dh_group = lambda bits, rng: (p, g)
    router.rng = FixedRng(r)
    try:
        yield
    finally:
        routing.generate_dh_group = original_group
        router.rng = original_rng


@pytest.fixture
def frames():
    with capture_frames() as captured:
        yield captured


@pytest.fixture
def group_searches(monkeypatch):
    """The widths of the group searches generate_dh_group makes, one per
    memo miss."""
    made = []
    search = crypto._search_dh_group

    def counted(bits, rng):
        made.append(bits)
        return search(bits, rng)

    monkeypatch.setattr(crypto, "_search_dh_group", counted)
    return made


class Puppet:
    """Inert sim handler for nodes the test drives by hand."""

    def __init__(self):
        self.received = []

    def on_receive(self, sender, payload):
        self.received.append((sender, payload))
        return None


class Inbox:
    """Stub transport: records (source, payload) of each delivered segment."""

    def __init__(self):
        self.received = []

    def on_segment(self, peer_ip, seg):
        self.received.append((peer_ip, seg.payload))
        return None


def build_network(names, links, *, seed, key_bits, secure, sec_level,
                  dh_bits, key_seed=None, stubs=(), responder_secrets=None):
    """(net, routers, registry, metrics, keys) of a network the test drives.

    Keys and registry come from scenario.build_registry, derived from
    `key_seed` (default `seed`); the network and each router's draws derive
    from `seed`. A name in `stubs` is a Puppet, every other one a router
    whose transport is an Inbox. A responder's exponent is pinned to
    `responder_secrets[name]`. Links are (a, b[, add_link keywords]).
    """
    doc = {"seed": seed if key_seed is None else key_seed,
           "key_bits": key_bits, "dh_bits": dh_bits, "nodes": list(names)}
    reg, keys = scenario.build_registry(scenario.parse(doc))
    net = sim.Network(seed=seed)
    routers = {}
    for n in names:
        if n in stubs:
            routers[n] = Puppet()
            net.add_node(n, routers[n])
            continue
        cfg = routing.NodeConfig(name=n, keys=keys[n], secure=secure,
                                 sec_level=sec_level, master_seed=seed,
                                 dh_bits=dh_bits)
        routers[n] = routing.RouterNode(cfg, reg, net)
        routers[n].transport = Inbox()
        if n in (responder_secrets or {}):
            # a node that only answers draws nothing else from its rng
            routers[n].rng = FixedRng(responder_secrets[n])
    for a, b, *options in links:
        net.add_link(a, b, **(options[0] if options else {}))
    return net, routers, reg, net.metrics, keys
