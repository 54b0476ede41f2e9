"""Layered benchmark of manetsec: end-to-end timings, per-layer spans, and a
digest check of every run's outputs.

    python3 perfbench/run.py --workload grid-control --seed 1 --seconds 30
    python3 perfbench/run.py --workload line-bulk --trace 1
    python3 perfbench/run.py --workload all

Run from anywhere; the package is imported from ../src relative to this
file, never from an installed copy. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones from a traced run, alternated with untraced repetitions of the same
inputs so the tracing overhead and the digest match can be measured.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import os
import resource
import statistics
import struct
import subprocess
import sys
from time import perf_counter

import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")
DEFAULT_SEED = 1
CHILD_TIMEOUT_S = 180

# Seconds one repetition takes on the pinning host, reference block
# included. A run makes round(--seconds / this) repetitions, so the work it
# does, and its attempted and failed counts, depend only on the workload,
# the seed and --seconds, never on how fast the host happens to be.
NOMINAL_REP_S = {"grid-control": 2.9, "line-bulk": 1.0,
                 "attack-matrix": 1.55}
# A traced repetition runs the inputs twice, once with every wrapper on.
TRACED_REP_FACTOR = 2.4

# The reference block: a fixed piece of work independent of manetsec, timed
# before the first repetition and after each one. On a shared virtual
# machine the speed drifts by a fifth or more over tens of seconds, so each
# repetition's times are scaled by REF_NOMINAL_S over the mean of its two
# neighbouring blocks: end-to-end timings read as seconds on a host running
# the block in REF_NOMINAL_S. Raw wall-clock medians are printed beside them.
REF_KERNELS = 150
REF_NOMINAL_S = 0.1
_REF_MODULUS = (1 << 511) + 111
_REF_EXPONENT = (1 << 255) + 12345

DROP_REASONS = ("bad_ack_number", "duplicate", "id_mismatch", "malformed",
                "no_pending", "no_route", "out_of_phase", "replay",
                "table_full", "tag_mismatch", "unknown_identity",
                "verify_failed")


class OutputMismatch(Exception):
    """A repetition's outputs differ from what they must be."""


def load_manetsec():
    """Import manetsec.scenario from this checkout's src/ or exit 2."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        from manetsec import scenario
    except ImportError as err:
        print("error: cannot import manetsec from %s: %s" % (src, err),
              file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(scenario.__file__).startswith(src + os.sep):
        print("error: manetsec resolved outside %s: %s"
              % (src, scenario.__file__), file=sys.stderr)
        sys.exit(2)
    return scenario


def _flows(doc: dict):
    for ev in doc.get("events", []):
        if ev["kind"] == "start_flow":
            yield (ev["client"], ev["server"], ev.get("client_port", 5000),
                   ev.get("server_port", 80),
                   ev.get("payload", "").encode("utf-8"))


def judge_run(text: str, expected, result, sim) -> dict:
    """Operation outcomes of one scenario run, checked outside the clock.

    Generated runs count each start_flow (delivered exactly?) and each
    start_discovery (route held at the end?). Attack runs count one
    operation: the verdict against the expected table.
    """
    doc = json.loads(text)
    out = {"attempted": 0, "failed": 0, "good_bytes": 0, "problems": []}
    delivered = result.metrics.delivered_payloads
    for client, server, cport, sport, payload in _flows(doc):
        got = delivered.get((server, client, sport, cport), b"")
        if got == payload:
            out["good_bytes"] += len(payload)
        if expected is None:
            out["attempted"] += 1
            out["failed"] += got != payload
            if not payload.startswith(got):
                out["problems"].append("flow %s->%s:%d delivered bytes that "
                                       "were never sent" % (client, server,
                                                            cport))
    if expected is None:
        for ev in doc.get("events", []):
            if ev["kind"] == "start_discovery":
                target = result.registry.by_ip(ev["target"]).node_id
                out["attempted"] += 1
                out["failed"] += target not in result.routers[
                    ev["node"]].routes
    else:
        out["attempted"] += 1
        verdicts = result.metrics.attack_verdicts
        if verdicts != expected:
            out["failed"] += 1
            out["problems"].append("verdicts %s, expected %s"
                                   % (verdicts, expected))
    trace = result.net.trace
    out["frames"] = len(trace)
    out["lost"] = sum(r.disposition == "lost" for r in trace)
    out["dropped"] = sum(r.disposition.startswith("dropped") for r in trace)
    out["route_received"] = sum(r.kind in sim.ROUTING_KINDS
                                and r.disposition != "lost" for r in trace)
    out["discoveries_completed"] = len(
        result.metrics.discovery_latency_ticks)
    out["drops"] = dict(result.metrics.drops)
    return out


def repetition(scenario, clock, runs, trace=None) -> dict:
    """Run one repetition's scenarios; time, hash and judge each."""
    rec = {"run_s": 0.0, "setup_s": 0.0, "sim_s": 0.0, "attempted": 0,
           "failed": 0, "good_bytes": 0, "frames": 0, "lost": 0,
           "dropped": 0, "route_received": 0, "discoveries_completed": 0,
           "drops": {}, "problems": [], "layers": {}}
    trace_hash, metrics_hash = hashlib.sha256(), hashlib.sha256()
    for text, overrides, expected in runs:
        gc.collect()
        clock.reset()
        start = perf_counter()
        doc = json.loads(text)
        called = perf_counter()
        result = scenario.run_scenario(doc, **overrides)
        metrics_text = result.metrics_json()
        trace_text = result.trace_text()
        end = perf_counter()
        if clock.calls != 1:
            raise AssertionError("Network.run called %d times in one run"
                                 % clock.calls)
        rec["run_s"] += end - start
        rec["setup_s"] += clock.entry - called
        rec["sim_s"] += clock.exit - clock.entry
        trace_hash.update(trace_text.encode("utf-8"))
        metrics_hash.update(metrics_text.encode("utf-8"))
        outcome = judge_run(text, expected, result, scenario.sim)
        for key, value in outcome.items():
            if key == "drops":
                for reason, n in value.items():
                    rec["drops"][reason] = rec["drops"].get(reason, 0) + n
            elif key == "problems":
                rec["problems"] += value
            else:
                rec[key] += value
        if trace is not None:
            for key, value in trace.reduce().items():
                rec["layers"][key] = rec["layers"].get(key, 0) + value
    rec["digests"] = [trace_hash.hexdigest(), metrics_hash.hexdigest()]
    rec["runs"] = len(runs)
    return rec


def load_pins(workload: str, seed: int) -> list:
    if seed != DEFAULT_SEED:
        return []
    with open(PINS, "r", encoding="utf-8") as fh:
        pins = json.load(fh)
    if pins["seed"] != DEFAULT_SEED:
        raise AssertionError("pins.json was recorded for another seed")
    return pins["workloads"].get(workload, [])


def check_outputs(workload: str, rep: int, rec: dict, pins: list,
                  label: str) -> None:
    print("digest %s rep %d %s trace=%s metrics=%s"
          % (workload, rep, label, rec["digests"][0], rec["digests"][1]))
    if rep < len(pins) and rec["digests"] != pins[rep]:
        raise OutputMismatch("%s repetition %d (%s): digests %s differ from "
                             "the pinned %s" % (workload, rep, label,
                                                rec["digests"], pins[rep]))
    if rec["problems"]:
        raise OutputMismatch("%s repetition %d (%s): %s"
                             % (workload, rep, label,
                                "; ".join(rec["problems"])))


def _guard_untraced() -> None:
    wrapped = tracer.installed_wrappers()
    if wrapped != {tracer.RunClock.TARGET}:
        raise AssertionError("untraced run carries wrappers %s"
                             % sorted(wrapped))


def _reference_kernel() -> bytes:
    """Big-integer modular exponentiation (as in RSA, DH and primality
    tests) and byte packing, heap and dict work (as in the codecs and the
    event loop), in roughly equal parts."""
    x = pow(0x1234567890ABCDEF1234567890ABCDEF, _REF_EXPONENT, _REF_MODULUS)
    heap = []
    rec = b""
    for i in range(300):
        rec = struct.pack(">HIQ", i & 0xFFFF, i * 7, x & 0xFFFFFFFF) + rec[:8]
        a, b, c = struct.unpack_from(">HIQ", rec)
        heapq.heappush(heap, (c ^ i, a, {"id": b, "len": len(rec)}))
    while heap:
        heapq.heappop(heap)
    return hashlib.sha256(rec).digest()


def reference_block() -> float:
    """Wall seconds of one reference block."""
    start = perf_counter()
    for _ in range(REF_KERNELS):
        _reference_kernel()
    return perf_counter() - start


def planned_reps(workload: str, seconds: float, traced: bool) -> int:
    cost = NOMINAL_REP_S[workload] * (TRACED_REP_FACTOR if traced else 1.0)
    return max(1, round(seconds / cost))


def measure(workload: str, seed: int, seconds: float, traced: bool):
    """A fixed number of repetitions, about `seconds` long on the pinning
    host; returns (plain, traced) records."""
    scenario = load_manetsec()
    attack_docs = workloads.attack_documents(ROOT)
    pins = load_pins(workload, seed)
    clock = tracer.RunClock()
    clock.install()
    spans = tracer.Tracer() if traced else None
    plain_reps, traced_reps = [], []
    reps = planned_reps(workload, seconds, traced)
    ref_before = reference_block()
    for rep in range(reps):
        runs = workloads.repetition_runs(workload, seed, rep, attack_docs)
        _guard_untraced()
        rec = repetition(scenario, clock, runs)
        _guard_untraced()
        check_outputs(workload, rep, rec, pins, "untraced")
        plain_reps.append(rec)
        if traced:
            spans.install()
            try:
                trec = repetition(scenario, clock, runs, spans)
            finally:
                spans.remove()
            _guard_untraced()
            check_outputs(workload, rep, trec, pins, "traced")
            if trec["digests"] != rec["digests"]:
                raise OutputMismatch("%s repetition %d: traced digests %s "
                                     "differ from untraced %s"
                                     % (workload, rep, trec["digests"],
                                        rec["digests"]))
            traced_reps.append(trec)
        ref_after = reference_block()
        rec["ref_s"] = (ref_before + ref_after) / 2.0
        ref_before = ref_after
    if reps > len(pins) and seed == DEFAULT_SEED:
        print("note: repetitions %d.. have no pinned digests; only the "
              "per-run checks covered them" % len(pins))
    return plain_reps, traced_reps


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def scaled(rec: dict, key: str) -> float:
    """A repetition's time in seconds at the reference host speed."""
    return rec[key] * REF_NOMINAL_S / rec["ref_s"]


def end_to_end(reps: list) -> dict:
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def median(key):
        return statistics.median(scaled(r, key) for r in reps)

    sim_total = sum(scaled(r, "sim_s") for r in reps)
    return {
        "run_s": (median("run_s"), "s"),
        "setup_s": (median("setup_s"), "s"),
        "sim_s": (median("sim_s"), "s"),
        "frames_per_s": (sum(r["frames"] for r in reps) / sim_total, "1/s"),
        "goodput_Bps": (sum(r["good_bytes"] for r in reps) / sim_total,
                        "B/s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(plain: list, traced: list) -> dict:
    def med(key):
        return statistics.median(r["layers"][key] for r in traced)

    def med_rec(key):
        return statistics.median(r[key] for r in traced)

    def total(key):
        return sum(r["layers"][key] for r in traced)

    out = {}
    for layer, stats in (
            ("crypto.keygen", ("calls", "s")),
            ("crypto.primality", ("calls", "s")),
            ("crypto.sign", ("calls", "s")),
            ("crypto.unwind", ("calls", "s")),
            ("wire.signer_hash", ("calls", "s")),
            ("crypto.rsa_crypt", ("s",)),
            ("crypto.dh_group", ("calls", "s")),
            ("crypto.mac", ("calls", "s")),
            ("wire.decode", ("calls", "s")),
            ("wire.encode", ("calls", "s")),
            ("sim.send", ("calls", "s")),
            ("routing.rx", ("calls", "self_s")),
            ("routing.discovery", ("calls",)),
            ("transport.rx", ("calls", "self_s")),
            ("transport.timer", ("calls",)),
            ("identity.lookup", ("calls", "s")),
            ("attacks.rx", ("s",)),
            ("attacks.timer", ("s",)),
            ("scenario.parse", ("s",)),
            ("scenario.report", ("s",))):
        for stat in stats:
            unit = "count" if stat == "calls" else "s"
            out["%s.%s" % (layer, stat)] = (med("%s.%s" % (layer, stat)),
                                            unit)
    out["crypto.prime_yield"] = (
        _ratio(total("crypto.primes_accepted"),
               total("crypto.primality.calls")), "ratio")
    out["wire.encode.bytes"] = (med("wire.encode.bytes"), "B")
    out["wire.decodes_per_encode"] = (
        _ratio(total("wire.decode.calls"), total("wire.encode.calls")),
        "ratio")
    out["sim.self_s"] = (med("sim.self_s"), "s")
    out["sim.frames"] = (med_rec("frames"), "count")
    out["sim.frames.lost"] = (med_rec("lost"), "count")
    out["sim.frames.dropped"] = (med_rec("dropped"), "count")
    out["routing.discovery_yield"] = (
        _ratio(sum(r["discoveries_completed"] for r in traced),
               total("routing.discovery.calls")), "ratio")
    drops = [r["drops"] for r in traced]
    out["routing.dup_ratio"] = (
        _ratio(sum(d.get("duplicate", 0) for d in drops),
               sum(r["route_received"] for r in traced)), "ratio")
    for reason in DROP_REASONS:
        out["drops." + reason] = (
            statistics.median(d.get(reason, 0) for d in drops), "count")
    out["drops.other"] = (statistics.median(
        sum(n for k, n in d.items() if k not in DROP_REASONS)
        for d in drops), "count")
    out["transport.retx_ratio"] = (
        _ratio(total("transport.retx"), total("transport.sends")), "ratio")
    out["trace_overhead"] = (
        statistics.median(r["run_s"] for r in traced)
        / statistics.median(r["run_s"] for r in plain) - 1.0, "ratio")
    out["fail_ratio"] = (
        _ratio(sum(r["failed"] for r in plain),
               sum(r["attempted"] for r in plain)), "ratio")
    return out


def report(workload: str, plain: list, traced: list) -> dict:
    attempted = sum(r["attempted"] for r in plain)
    failed = sum(r["failed"] for r in plain)
    print("workload %s: %d repetitions of %d scenario run(s)"
          % (workload, len(plain), plain[0]["runs"]))
    q1, q2, q3 = _quartiles([r["ref_s"] for r in plain])
    print("  reference block median %.4f s  q1 %.4f  q3 %.4f  (nominal %.4f)"
          % (q2, q1, q3, REF_NOMINAL_S))
    for key in ("run_s", "setup_s", "sim_s"):
        q1, q2, q3 = _quartiles([scaled(r, key) for r in plain])
        raw = statistics.median(r[key] for r in plain)
        print("  %-8s median %.4f s  q1 %.4f  q3 %.4f  n=%d  (wall %.4f s)"
              % (key, q2, q1, q3, len(plain), raw))
    print("  fail_ratio %d/%d = %.4f" % (failed, attempted,
                                         _ratio(failed, attempted)))
    if traced:
        print("  traced: %d spans in %d simulator events per repetition "
              "(medians)" % (statistics.median(r["layers"]["spans"]
                                               for r in traced),
                             statistics.median(r["layers"]["events"]
                                               for r in traced)))
    metrics = per_layer(plain, traced) if traced else end_to_end(plain)
    for name, (value, unit) in metrics.items():
        print("  %-28s %.6g %s" % (name, value, unit))
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is its own."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print("error: workload %s exited %d" % (name, proc.returncode),
                  file=sys.stderr)
            status = status or proc.returncode
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"]["%s/%s" % (name, key)] = value
    if status == 0:
        print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        plain, traced = measure(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    except OutputMismatch as err:
        print("error: output check failed: %s" % err, file=sys.stderr)
        return 1
    print(json.dumps(report(args.workload, plain, traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
