"""Layer timing by wrapping manetsec's public functions from the outside.

Two instruments live here:

* RunClock wraps Network.run alone. It is the only wrapper an untraced run
  carries, and it marks where a run's set-up ends and its simulation starts.
* Tracer wraps every function and method listed in TARGETS and records one
  span per call in memory. reduce() turns a run's spans into per-layer
  figures after the run's clock has stopped, and clears them.

A module that bound a function with a from-import holds its own reference,
so a function is rebound at every manetsec module that holds it, and
installing fails if an original is left behind anywhere.
"""

from __future__ import annotations

import sys
from time import perf_counter

MARK = "_perfbench_target"

# (target, layer). A target is "module.function" or "module.Class.method" in
# manetsec; the layer is the prefix of its per-layer metrics.
TARGETS = (
    ("crypto.generate_node_keys", "crypto.keygen"),
    ("crypto.is_probable_prime", "crypto.primality"),
    ("crypto.rsa_sign_first", "crypto.sign"),
    ("crypto.sas_aggregate_step", "crypto.sign"),
    ("crypto.sas_unwind_verify", "crypto.unwind"),
    ("crypto.sas_unwind_step", "crypto.unwind"),
    ("crypto.rsa_encrypt", "crypto.rsa_crypt"),
    ("crypto.rsa_decrypt", "crypto.rsa_crypt"),
    ("crypto.generate_dh_group", "crypto.dh_group"),
    ("crypto.mac_tag", "crypto.mac"),
    ("crypto.mac_verify", "crypto.mac"),
    ("wire.signer_hash", "wire.signer_hash"),
    ("wire.decode_message", "wire.decode"),
    ("wire.encode_message", "wire.encode"),
    ("sim.Network.run", "sim"),
    ("sim.Network.broadcast", "sim.send"),
    ("sim.Network.unicast", "sim.send"),
    ("sim.Network.tunnel_send", "sim.send"),
    ("routing.RouterNode.on_receive", "routing.rx"),
    ("routing.RouterNode.start_discovery", "routing.discovery"),
    ("routing.RouterNode.send_segment", "routing.send"),
    ("transport.TcpEndpoint.on_segment", "transport.rx"),
    ("transport.TcpEndpoint.on_timer", "transport.timer"),
    ("transport.TcpEndpoint.connect", "transport.connect"),
    ("identity.Registry.get", "identity.lookup"),
    ("identity.Registry.by_ip", "identity.lookup"),
    ("attacks.AttackerNode.on_receive", "attacks.rx"),
    ("attacks.AttackerNode.on_timer", "attacks.timer"),
    ("scenario.parse", "scenario.parse"),
    ("scenario.RunResult.metrics_json", "scenario.report"),
    ("scenario.RunResult.trace_text", "scenario.report"),
)
LAYERS = tuple(sorted({layer for _, layer in TARGETS}))

# A transport send is a RouterNode.send_segment call made directly by one of
# these; it is a retransmission when made by a retransmission timer.
_TRANSPORT_LAYERS = ("transport.rx", "transport.timer", "transport.connect")

# The span's extra field, from a call's arguments and result: 1 for a
# retransmission timer, 1 for a primality test that passed, encoded size.
_EXTRA = {
    "transport.TcpEndpoint.on_timer":
        lambda args, result: int(args[1] == "tcp" and args[2][0] == "rx"),
    "crypto.is_probable_prime": lambda args, result: int(bool(result)),
    "wire.encode_message": lambda args, result: len(result),
}


def _modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if name == "manetsec" or name.startswith("manetsec.")]


def _resolve(target: str):
    """(owner, attribute) of a target; the owner is a module or a class."""
    parts = target.split(".")
    owner = sys.modules["manetsec." + parts[0]]
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def installed_wrappers() -> set:
    """Targets that currently carry a wrapper anywhere in manetsec."""
    found = set()
    for mod in _modules():
        for value in vars(mod).values():
            if hasattr(value, MARK):
                found.add(getattr(value, MARK))
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr in vars(value).values():
                    if hasattr(attr, MARK):
                        found.add(getattr(attr, MARK))
    return found


def _rebind(target: str, make_wrapper):
    """Wrap a target at every binding site; return a restore list."""
    owner, attr = _resolve(target)
    original = vars(owner)[attr]
    sites = [(owner, attr)]
    if not isinstance(owner, type):
        sites += [(mod, name) for mod in _modules()
                  for name, value in vars(mod).items()
                  if value is original and (mod, name) != (owner, attr)]
    wrapper = make_wrapper(original)
    wrapper.__wrapped__ = original
    setattr(wrapper, MARK, target)
    for site, name in sites:
        setattr(site, name, wrapper)
    for mod in _modules():
        if any(value is original for value in vars(mod).values()):
            raise AssertionError("%s is still bound unwrapped in %s"
                                 % (target, mod.__name__))
    if isinstance(owner, type) and vars(owner)[attr] is not wrapper:
        raise AssertionError("%s was not rebound" % target)
    return [(site, name, original) for site, name in sites]


def _restore(restore: list) -> None:
    for site, name, original in restore:
        setattr(site, name, original)


class RunClock:
    """Entry and exit times of Network.run; one call per scenario run."""

    TARGET = "sim.Network.run"

    def __init__(self):
        self.entry = self.exit = 0.0
        self.calls = 0

    def install(self) -> None:
        def make(original):
            def run(net, until):
                self.calls += 1
                self.entry = perf_counter()
                try:
                    return original(net, until)
                finally:
                    self.exit = perf_counter()
            return run
        _rebind(self.TARGET, make)

    def reset(self) -> None:
        self.entry = self.exit = 0.0
        self.calls = 0


class Tracer:
    """Records a span (target, start, end, parent, event, outer, extra) per
    wrapped call.

    parent is the index of the enclosing span, or -1. Spans of one
    dispatched simulator event share an event id: a span opened directly
    under Network.run starts an event, and its descendants inherit it.
    outer is 1 when no enclosing span belongs to the same layer, so layer
    totals count nested calls (mac_verify -> mac_tag) once. extra is set
    by _EXTRA for the targets it names and 0 otherwise.
    """

    def __init__(self):
        self.spans: list = []
        self._target_layer = [LAYERS.index(layer) for _, layer in TARGETS]
        self._restore: list = []

    def install(self) -> None:
        if self._restore:
            raise AssertionError("tracer is already installed")
        stack: list = []   # (slot, target index, event) of open spans
        depth = [0] * len(LAYERS)
        run_target = [t for t, _ in TARGETS].index("sim.Network.run")
        for index, (target, _) in enumerate(TARGETS):
            maker = self._maker(index, target, stack, depth, run_target)
            self._restore += _rebind(target, maker)

    def remove(self) -> None:
        _restore(reversed(self._restore))
        self._restore = []

    def _maker(self, index, target, stack, depth, run_target):
        spans = self.spans
        layer = self._target_layer[index]
        extra_of = _EXTRA.get(target)

        def make(fn):
            def traced(*args, **kwargs):
                slot = len(spans)
                spans.append(None)
                if stack:
                    parent, ptarget, pevent = stack[-1]
                    event = slot if ptarget == run_target else pevent
                else:
                    parent = -1
                    event = slot
                outer = 1 if depth[layer] == 0 else 0
                depth[layer] += 1
                stack.append((slot, index, event))
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    depth[layer] -= 1
                    spans[slot] = (index, start, end, parent, event, outer, 0)
                if extra_of is not None:
                    spans[slot] = (index, start, end, parent, event, outer,
                                   extra_of(args, result))
                return result
            return traced
        return make

    def reduce(self) -> dict:
        """Per-layer figures for the spans recorded so far, then clear."""
        spans = self.spans
        if any(s is None for s in spans):
            raise AssertionError("reduce() called with spans still open")
        layer_of = [LAYERS[i] for i in self._target_layer]
        child = [0.0] * len(spans)
        for _, start, end, parent, _, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for layer in LAYERS:
            out[layer + ".calls"] = 0
            out[layer + ".s"] = 0.0
            out[layer + ".self_s"] = 0.0
        prime_true = encode_bytes = sends = retx = 0
        events = set()
        for slot, (index, start, end, parent, event, outer, extra) in \
                enumerate(spans):
            layer = layer_of[index]
            dur = end - start
            out[layer + ".self_s"] += dur - child[slot]
            if outer:
                out[layer + ".calls"] += 1
                out[layer + ".s"] += dur
            events.add(event)
            if layer == "crypto.primality":
                prime_true += extra
            elif layer == "wire.encode":
                encode_bytes += extra
            elif layer == "routing.send" and parent >= 0:
                parent_layer = layer_of[spans[parent][0]]
                if parent_layer in _TRANSPORT_LAYERS:
                    sends += 1
                    retx += spans[parent][6]
        out["crypto.primes_accepted"] = prime_true
        out["wire.encode.bytes"] = encode_bytes
        out["transport.sends"] = sends
        out["transport.retx"] = retx
        out["spans"] = len(spans)
        out["events"] = len(events)
        spans.clear()
        return out
