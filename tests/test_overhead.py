"""Overhead as a curve over route length: one discovery over a line of k+1
nodes, k = 1..24 hops, at both security levels and in baseline mode.

The nodes' names have equal width and the keys are 128 bits wide, so a
frame's size changes with k only through its hop records and the minimal
widths of its integers. Frame sizes are checked against the wire layout,
computed here field by field.
"""

import pytest

from conftest import capture_frames
from manetsec import crypto, scenario, wire

MAX_HOPS = 24
MODES = {"L1": ("secure", 1), "L0": ("secure", 0), "baseline": ("baseline", 1)}


def _line(k):
    names = ["n%02d" % i for i in range(k + 1)]
    return {"seed": 1, "key_bits": 128, "nodes": names,
            "links": [{"a": a, "b": b} for a, b in zip(names, names[1:])],
            "run_until": 2 * k + 10,
            "events": [{"tick": 1, "kind": "start_discovery",
                        "node": names[0], "target": names[-1]}]}


@pytest.fixture(scope="module")
def sweep():
    """(mode, k) -> (the run's metrics, its largest RREQ frame, the
    crypto.rsa_public cache statistics of the run, from an empty cache)."""
    runs = {}
    for k in range(1, MAX_HOPS + 1):
        for label, (mode, level) in MODES.items():
            crypto.rsa_public.cache_clear()
            with capture_frames() as frames:
                r = scenario.run_scenario(_line(k), mode=mode,
                                          sec_level=level)
            rreqs = [p for _, _, p in frames if p[0] == wire.KIND_RREQ]
            runs[label, k] = (r.metrics, max(rreqs, key=len),
                              crypto.rsa_public.cache_info())
    return runs


def _bigint(value):
    """Bytes of a wire integer: a 4-byte length, then the minimal bytes."""
    return 4 + (value.bit_length() + 7) // 8


def _signature_block(msg):
    """Bytes from the signer count to the end of the frame."""
    size = 4                                   # signer count
    agg = msg.aggregate
    if agg is not None:
        size += _bigint(agg.value) + 4 + (len(agg.overflow_bits) + 7) // 8
    size += 1                                  # standalone-signature flag
    if msg.source_sig is not None:
        size += _bigint(msg.source_sig)
    return size


def _request_bytes(msg):
    core = msg.core
    size = 1 + 2 + len(core.src_ip) + 32 + 8 + 8 + 2 + len(core.dst_ip)
    size += _bigint(core.dh_p) + _bigint(core.dh_g) + _bigint(core.dh_payload)
    size += 4 + 32 * len(msg.hops)             # hop records
    size += 2                                  # mode and level bytes
    return size + _signature_block(msg)


@pytest.mark.parametrize("k", range(1, MAX_HOPS + 1))
def test_signature_checks_and_latency_per_route_length(sweep, k):
    verified = {"L1": k * (k + 1), "L0": 2 * k, "baseline": 0}
    computed = {"L1": 2 * k, "L0": 2 * k, "baseline": 0}
    for label in MODES:
        metrics, _, cache = sweep[label, k]
        assert metrics.verified == verified[label], label
        assert metrics.discovery_latency_ticks == [2 * k], label
        # each check raises one value to the public exponent, and in one
        # process a relay's re-unwound links are computed only once
        assert cache.hits + cache.misses == metrics.verified, label
        assert cache.misses == computed[label], label


@pytest.mark.parametrize("k", range(1, MAX_HOPS + 1))
def test_largest_request_follows_the_wire_layout(sweep, k):
    frames = {label: sweep[label, k][1] for label in MODES}
    msgs = {label: wire.decode_message(f) for label, f in frames.items()}
    for label, msg in msgs.items():
        assert len(frames[label]) == _request_bytes(msg), label
    # the baseline and L1 carry every relay's hop record; L0 only the last
    assert len(msgs["baseline"].hops) == len(msgs["L1"].hops) == k - 1
    assert msgs["baseline"].aggregate is None
    assert msgs["L1"].aggregate.signer_count == k
    assert len(msgs["L0"].hops) == min(k - 1, 1)
    assert msgs["L0"].aggregate.signer_count == min(k, 2)
    assert msgs["L0"].source_sig is not None
    if k > 1:
        # 32 B per hop record, and nothing else grows in the baseline
        assert len(frames["baseline"]) == \
            len(sweep["baseline", k - 1][1]) + 32


def test_control_byte_order_depends_on_route_length(sweep):
    ctl = {key: run[0].trace_totals()["control_bytes"]
           for key, run in sweep.items()}
    hops = range(1, MAX_HOPS + 1)
    assert all(ctl["L1", k] > ctl["baseline", k] for k in hops)
    # L0 carries the origin signature standalone as well, which outweighs
    # L1's shorter chains on the shortest routes ...
    assert [k for k in hops if ctl["L1", k] > ctl["L0", k]] == \
        list(range(4, MAX_HOPS + 1))
    # ... and from 7 hops on it sends less than the baseline's hop lists
    assert [k for k in hops if ctl["L0", k] > ctl["baseline", k]] == \
        list(range(1, 7))
