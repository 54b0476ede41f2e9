"""Deterministic discrete-event network: integer ticks, seeded loss, traces.

The queue holds scheduled calls, run in (tick, insertion sequence) order;
a frame delivery is one of them. It keeps the calls due at each tick in a
list, in the order they were scheduled, and a heap of the ticks that have
calls (a calendar queue with one bucket per tick), so scheduling a call is
a dict lookup and an append. A node handler implements only
on_receive(sender, payload), which returns None or a drop reason; timers
are calls a node schedules on itself.

Determinism contract: neighbor iteration is sorted by name and the only
randomness is the seeded per-run loss stream. Same topology, same schedule,
same seed -> byte-identical trace.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Callable, Dict, List, NamedTuple, Optional

from .crypto import derive_seed
from . import wire
from .wire import _Frame

ROUTING_KINDS = frozenset(wire.ROUTE_KIND_NAMES.values())
SEGMENT_KINDS = frozenset(wire.ROLE_NAMES.values())
_NO_LINKS: dict = {}   # the links of a name that is not a node
# Every reason a receiver's on_receive may return; README "Outputs" lists
# them. Each has one disposition string, shared by every record it ends.
DROP_REASONS = ("bad_ack_number", "duplicate", "id_mismatch", "malformed",
                "no_pending", "no_route", "out_of_phase", "replay",
                "tag_mismatch", "unknown_identity", "verify_failed")
_DISPOSITION = {r: "dropped_by_receiver(%s)" % r for r in DROP_REASONS}
_REASON = {d: r for r, d in _DISPOSITION.items()}
TEXT_CHUNK = 4096   # trace records formatted per join in trace_text


class TraceRecord(NamedTuple):
    """One frame hop of the trace, made on demand by TraceView."""
    tick: int
    src: str
    dst: str
    kind: str
    size: int
    disposition: str


# A record from a row of the zipped columns, made in C: half the cost of
# calling TraceRecord, whose __new__ is a Python function.
_record = partial(tuple.__new__, TraceRecord)


class TraceView(Sequence):
    """Read-only records over a Metrics' trace columns, made as they are
    read: indexing, slicing, iteration and == with a list of records."""

    __slots__ = ("_metrics",)

    def __init__(self, metrics: Metrics):
        self._metrics = metrics

    def __len__(self) -> int:
        return len(self._metrics.ticks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(_record,
                            zip(*[c[i] for c in self._metrics.columns()])))
        return TraceRecord(*[c[i] for c in self._metrics.columns()])

    def __iter__(self):
        return map(_record, zip(*self._metrics.columns()))

    def __eq__(self, other) -> bool:
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented


class Event(NamedTuple):
    """One entry of the run's event log; README "Event log" lists the kinds."""
    tick: int
    node: str
    kind: str
    fields: dict


@dataclass
class Metrics:
    """A run's one record; drops, bytes and latencies are read off its logs.
    The trace is kept as one list per field, a frame hop at one index of
    each, so a run makes no object per frame; `trace` reads it as records."""

    ticks: List[int] = field(default_factory=list)
    srcs: List[str] = field(default_factory=list)
    dsts: List[str] = field(default_factory=list)
    kinds: List[str] = field(default_factory=list)
    sizes: List[int] = field(default_factory=list)
    ends: List[str] = field(default_factory=list)   # the dispositions
    signed: int = 0
    verified: int = 0
    attack_verdicts: Dict[str, str] = field(default_factory=dict)
    peak_half_open: int = 0
    evictions: int = 0   # half-open entries evicted from a full table
    # append-only through Network.log, kept out of the exported document
    events: List[Event] = field(default_factory=list)

    @property
    def trace(self) -> TraceView:
        return TraceView(self)

    def columns(self) -> tuple:
        """The trace's lists, in TraceRecord's field order."""
        return (self.ticks, self.srcs, self.dsts, self.kinds, self.sizes,
                self.ends)

    def of(self, kind: str) -> List[Event]:
        return [ev for ev in self.events if ev.kind == kind]

    def trace_totals(self) -> Dict[str, object]:
        """control_bytes, data_bytes and drops (by reason)."""
        sizes = {}
        for kind, size in zip(self.kinds, self.sizes):
            sizes[kind] = sizes.get(kind, 0) + size
        return {"control_bytes": sum(sizes.get(k, 0) for k in ROUTING_KINDS),
                "data_bytes": sum(sizes.get(k, 0) for k in SEGMENT_KINDS),
                "drops": self.drops}

    @property
    def drops(self) -> Dict[str, int]:
        """Frames dropped, by reason, in the order each reason first shows."""
        drops = {_REASON[end]: n for end, n in Counter(self.ends).items()
                 if end in _REASON}
        if self.evictions:   # the evicting SYN itself is delivered
            drops["table_full"] = self.evictions
        return drops

    @property
    def discovery_latency_ticks(self) -> List[int]:
        """Ticks from each `discovery` to its `discovered`, in that order."""
        started, latencies = {}, []
        for tick, node, kind, f in self.events:
            if kind == "discovery":
                started[node, f["bct"]] = tick
            elif kind == "discovered":
                latencies.append(tick - started[node, f["bct"]])
        return latencies

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
    """Trace disposition of a frame its receiver dropped for `reason`, one
    of DROP_REASONS; any other reason is a ValueError."""
    try:
        return _DISPOSITION[reason]
    except KeyError:
        raise ValueError("unknown drop reason %r" % (reason,)) from None


class Network:
    def __init__(self, seed: int):
        self.metrics = Metrics()
        self.trace = self.metrics.trace
        self.tick = 0
        self._due: Dict[int, list] = {}   # tick -> [(fn, args), ...]
        self._ticks: List[int] = []        # heap of the keys of _due
        self._handlers: Dict[str, object] = {}
        # _links[a][b] is _links[b][a]: one state per undirected link
        self._links: Dict[str, Dict[str, LinkState]] = {}
        self._neighbors: Dict[str, List[str]] = {}
        self._seed = seed
        # seeded in add_link; set here as a later attribute slows each frame
        self._loss_rng: Optional[random.Random] = None
        self._delivery = self._deliver   # bound once, queued per frame

    # --- topology ---------------------------------------------------------

    def add_node(self, name: str, handler) -> None:
        if name in self._handlers:
            raise ValueError("duplicate node name %s" % name)
        self._handlers[name] = handler
        self._links[name] = {}
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
        if b in self._links[a]:
            raise ValueError("duplicate link %s-%s" % (a, b))
        if loss > 0.0 and self._loss_rng is None:
            # only _transmit draws, and only over a lossy link
            self._loss_rng = random.Random(derive_seed(self._seed, "loss"))
        link = LinkState(latency=latency, loss=loss, tunnel=tunnel)
        self._links[a][b] = self._links[b][a] = link
        if not tunnel:
            # broadcast fan-out iterates this; keep it sorted for determinism
            self._neighbors[a] = sorted(self._neighbors[a] + [b])
            self._neighbors[b] = sorted(self._neighbors[b] + [a])

    def set_link(self, a: str, b: str, up: bool) -> None:
        link = self._links.get(a, _NO_LINKS).get(b)
        if link is None:
            raise ValueError("no such link %s-%s" % (a, b))
        link.up = up

    # --- scheduling ---------------------------------------------------------

    def schedule(self, delay: int, fn: Callable[..., None], *args) -> None:
        """Call fn(*args) `delay` ticks from now, after every call already
        due then; a delay-0 call made during a tick runs later that tick."""
        self._calls_at(self.tick + delay).append((fn, args))

    def _calls_at(self, tick: int) -> list:
        """The list of calls due at `tick`, opened if it has none yet."""
        calls = self._due.get(tick)
        if calls is None:
            calls = self._due[tick] = []
            heapq.heappush(self._ticks, tick)
        return calls

    # --- transmission -------------------------------------------------------

    def _transmit(self, src: str, dst: str, payload: bytes,
                  link: LinkState) -> None:
        """Trace one frame and queue its delivery. A frame the encoder made
        carries its label; other bytes are labelled by wire.describe."""
        m = self.metrics
        i = len(m.ticks)
        m.ticks.append(self.tick)
        m.srcs.append(src)
        m.dsts.append(dst)
        m.kinds.append(payload.label if type(payload) is _Frame
                       else wire.describe(payload))
        m.sizes.append(len(payload))
        m.ends.append("lost")
        if link.loss > 0.0 and self._loss_rng.random() < link.loss:
            return   # disposition stays "lost"
        self._calls_at(self.tick + link.latency).append(
            (self._delivery, (src, dst, payload, link, i)))

    def broadcast(self, src: str, payload: bytes) -> None:
        links = self._links[src]
        for nb in self._neighbors[src]:
            link = links[nb]
            if link.up:
                self._transmit(src, nb, payload, link)

    def unicast(self, src: str, dst: str, payload: bytes) -> bool:
        """Send over the direct link; False means no live link (caller's
        signal that the next hop is gone)."""
        link = self._links.get(src, _NO_LINKS).get(dst)
        if link is None or not link.up or link.tunnel:
            return False
        self._transmit(src, dst, payload, link)
        return True

    def tunnel_send(self, src: str, dst: str, payload: bytes) -> bool:
        link = self._links.get(src, _NO_LINKS).get(dst)
        if link is None or not link.tunnel or not link.up:
            return False
        self._transmit(src, dst, payload, link)
        return True

    # --- main loop ----------------------------------------------------------

    def run(self, until: int) -> None:
        """Run every call due at or before `until`, in (tick, insertion)
        order; an `until` behind the clock runs nothing and leaves the clock
        where it is. A call that raises ends the run and drops the calls
        after it in its tick: do not run a Network again after an exception."""
        due, ticks = self._due, self._ticks
        while ticks and ticks[0] <= until:
            # popped before its calls run: a delay-0 call one of them makes
            # opens a fresh list for this tick, which the next pass runs
            self.tick = tick = heapq.heappop(ticks)
            for fn, args in due.pop(tick):
                fn(*args)
        self.tick = max(self.tick, until)

    def _deliver(self, src: str, dst: str, payload: bytes, link: LinkState,
                 i: int) -> None:
        """Deliver trace record i's frame and write its disposition."""
        if not link.up:
            return   # went down in flight; stays "lost"
        reason = self._handlers[dst].on_receive(src, payload)
        self.metrics.ends[i] = ("delivered" if reason is None
                                else dropped(reason))

    # --- outputs ------------------------------------------------------------

    def log(self, node: str, kind: str, **fields) -> None:
        """Append an event at the current tick, so ticks never decrease."""
        self.metrics.events.append(Event(self.tick, node, kind, fields))

    def trace_text(self) -> str:
        """One tab-separated line per record, each ending in a newline: one
        f-string per row of the zipped columns, joined per chunk of
        TEXT_CHUNK rows, so at most one chunk's line strings are alive at
        once, and the chunks joined once."""
        rows = zip(*self.metrics.columns())
        return "".join(["".join([
            f"{tick}\t{src}\t{dst}\t{kind}\t{size}\t{end}\n"
            for tick, src, dst, kind, size, end in islice(rows, TEXT_CHUNK)])
            for _ in range(0, len(self.trace), TEXT_CHUNK)])
