"""Shared test helpers that stand in for library hooks: a frame recorder,
a pinned rng, a pinned exchange group and a count of group searches; and
shared test data: hand-checkable toy keys and the secure-mode verdicts."""

import contextlib

import pytest

from manetsec import crypto, routing, sim, wire


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
