"""Deterministic discrete-event network: integer ticks, seeded loss, traces.

The queue holds scheduled calls, run in (tick, insertion sequence) order;
a frame delivery is one of them. A node handler implements only
on_receive(sender, payload), which returns None or a drop reason; timers
are calls a node schedules on itself.

Determinism contract: neighbor iteration is sorted by name and the only
randomness is the seeded per-run loss stream. Same topology, same schedule,
same seed -> byte-identical trace.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple

from .crypto import derive_seed
from . import wire

ROUTING_KINDS = frozenset(wire.ROUTE_KIND_NAMES.values())
SEGMENT_KINDS = frozenset(wire.ROLE_NAMES.values())


class Event(NamedTuple):
    """One entry of the run's event log; README "Event log" lists the kinds."""
    tick: int
    node: str
    kind: str
    fields: dict


@dataclass
class Metrics:
    """Run-wide counters plus the event log verdict oracles consume."""

    control_bytes: int = 0
    data_bytes: int = 0
    discovery_latency_ticks: List[int] = field(default_factory=list)
    signed: int = 0
    verified: int = 0
    drops: Dict[str, int] = field(default_factory=dict)
    attack_verdicts: Dict[str, str] = field(default_factory=dict)
    peak_half_open: int = 0
    # append-only, kept out of the exported document
    events: List[Event] = field(default_factory=list)

    def drop(self, reason: str) -> None:
        self.drops[reason] = self.drops.get(reason, 0) + 1

    def log(self, tick: int, node: str, kind: str, **fields) -> None:
        self.events.append(Event(tick, node, kind, fields))

    def of(self, kind: str) -> List[Event]:
        return [ev for ev in self.events if ev.kind == kind]

    @property
    def delivered_payloads(self) -> Dict[tuple, bytes]:
        """Bytes handed up per (node, peer, local_port, remote_port)."""
        chunks: Dict[tuple, list] = {}
        for _, node, _, f in self.of("deliver"):
            chunks.setdefault((node, f["peer"], f["local_port"],
                               f["remote_port"]), []).append(f["data"])
        return {key: b"".join(parts) for key, parts in chunks.items()}


@dataclass
class LinkState:
    latency: int
    loss: float
    up: bool = True
    tunnel: bool = False


def dropped(reason: str) -> str:
    """Trace disposition of a frame its receiver dropped for `reason`."""
    return "dropped_by_receiver(%s)" % reason


@dataclass
class TraceRecord:
    tick: int
    src: str
    dst: str
    kind: str
    size: int
    disposition: str

    def line(self) -> str:
        return "%d\t%s\t%s\t%s\t%d\t%s" % (self.tick, self.src, self.dst,
                                           self.kind, self.size,
                                           self.disposition)


class Network:
    def __init__(self, seed: int, metrics: Metrics):
        self.metrics = metrics
        self.tick = 0
        self.trace: List[TraceRecord] = []
        self._queue: list = []
        self._seq = 0
        self._handlers: Dict[str, object] = {}
        self._links: Dict[frozenset, LinkState] = {}
        self._neighbors: Dict[str, List[str]] = {}
        self._loss_rng = random.Random(derive_seed(seed, "loss"))

    # --- topology ---------------------------------------------------------

    def add_node(self, name: str, handler) -> None:
        if name in self._handlers:
            raise ValueError("duplicate node name %s" % name)
        self._handlers[name] = handler
        self._neighbors[name] = []

    def add_link(self, a: str, b: str, latency: int = 1, loss: float = 0.0,
                 tunnel: bool = False) -> None:
        if a not in self._handlers or b not in self._handlers:
            raise ValueError("link endpoints must be nodes: %s-%s" % (a, b))
        if a == b:
            raise ValueError("self links are not allowed")
        if not tunnel and latency < 1:
            raise ValueError("link latency must be >= 1 tick")
        if not 0.0 <= loss <= 1.0:
            raise ValueError("loss probability out of range")
        key = frozenset((a, b))
        if key in self._links:
            raise ValueError("duplicate link %s-%s" % (a, b))
        self._links[key] = LinkState(latency=latency, loss=loss, tunnel=tunnel)
        if not tunnel:
            # broadcast fan-out iterates this; keep it sorted for determinism
            self._neighbors[a] = sorted(self._neighbors[a] + [b])
            self._neighbors[b] = sorted(self._neighbors[b] + [a])

    def set_link(self, a: str, b: str, up: bool) -> None:
        key = frozenset((a, b))
        if key not in self._links:
            raise ValueError("no such link %s-%s" % (a, b))
        self._links[key].up = up

    # --- scheduling ---------------------------------------------------------

    def schedule(self, delay: int, fn: Callable[..., None], *args) -> None:
        """Call fn(*args) `delay` ticks from now."""
        heapq.heappush(self._queue, (self.tick + delay, self._seq, fn, args))
        self._seq += 1

    # --- transmission -------------------------------------------------------

    def _record(self, src: str, dst: str, payload: bytes,
                label: str) -> TraceRecord:
        rec = TraceRecord(tick=self.tick, src=src, dst=dst, kind=label,
                          size=len(payload), disposition="lost")
        self.trace.append(rec)
        if label in ROUTING_KINDS:
            self.metrics.control_bytes += len(payload)
        elif label in SEGMENT_KINDS:
            self.metrics.data_bytes += len(payload)
        return rec

    def _transmit(self, src: str, dst: str, payload: bytes, link: LinkState,
                  label: str) -> None:
        rec = self._record(src, dst, payload, label)
        if link.loss > 0.0 and self._loss_rng.random() < link.loss:
            return   # disposition stays "lost"
        idx = len(self.trace) - 1
        self.schedule(link.latency, self._deliver, src, dst, payload, idx)

    def broadcast(self, src: str, payload: bytes) -> None:
        label = None
        for nb in self._neighbors[src]:
            link = self._links[frozenset((src, nb))]
            if link.up:
                if label is None:
                    label = wire.describe(payload)   # once per broadcast
                self._transmit(src, nb, payload, link, label)

    def unicast(self, src: str, dst: str, payload: bytes) -> bool:
        """Send over the direct link; False means no live link (caller's
        signal that the next hop is gone)."""
        link = self._links.get(frozenset((src, dst)))
        if link is None or not link.up or link.tunnel:
            return False
        self._transmit(src, dst, payload, link, wire.describe(payload))
        return True

    def tunnel_send(self, src: str, dst: str, payload: bytes) -> bool:
        link = self._links.get(frozenset((src, dst)))
        if link is None or not link.tunnel or not link.up:
            return False
        self._transmit(src, dst, payload, link, wire.describe(payload))
        return True

    # --- main loop ----------------------------------------------------------

    def run(self, until: int) -> None:
        while self._queue and self._queue[0][0] <= until:
            self.tick, _, fn, args = heapq.heappop(self._queue)
            fn(*args)
        self.tick = until

    def _deliver(self, src: str, dst: str, payload: bytes, idx: int) -> None:
        rec = self.trace[idx]
        link = self._links.get(frozenset((src, dst)))
        if link is None or not link.up:
            return   # went down in flight; stays "lost"
        reason = self._handlers[dst].on_receive(src, payload)
        if reason is None:
            rec.disposition = "delivered"
        else:
            rec.disposition = dropped(reason)
            self.metrics.drop(reason)

    # --- outputs ------------------------------------------------------------

    def trace_text(self) -> str:
        if not self.trace:
            return ""
        return "\n".join(rec.line() for rec in self.trace) + "\n"
