"""Shared test helpers that stand in for library hooks: a frame recorder
and a pinned rng."""

import contextlib

import pytest

from manetsec import sim


@contextlib.contextmanager
def capture_frames():
    """Record (src, dst, payload) of every frame any Network transmits.

    Wraps Network._transmit for the duration of the block, so every frame
    a trace record is made for is seen, lost or not.
    """
    frames = []
    original = sim.Network._transmit

    def transmit(self, src, dst, payload, link, kind):
        frames.append((src, dst, payload))
        return original(self, src, dst, payload, link, kind)

    sim.Network._transmit = transmit
    try:
        yield frames
    finally:
        sim.Network._transmit = original


class FixedRng:
    """Stands in for a node's rng so every exponent it draws is `value`."""

    def __init__(self, value):
        self.value = value

    def randrange(self, start, stop):
        return self.value


@pytest.fixture
def frames():
    with capture_frames() as captured:
        yield captured
