"""Behaviour lock: sha256 of trace.tsv and metrics.json, and of every
transmitted frame, for every shipped scenario in both modes at both security
levels.

The digests in golden_digests.json were recorded before the key and decode
caches existed, and those in golden_frames.json before route signing moved
into one helper; a change that moves one must say why. golden_keygen.json
holds the sha256 of `keygen --seed 7` output for every shipped scenario,
recorded before node identities were made only from keys. The frame digest
covers (src, dst, length, payload) of each frame in transmission order, so
it also sees bytes that trace.tsv reduces to a size, such as a forged
signature of the usual width. To print the digests of the current code (for
review, not to overwrite blindly):

    PYTHONPATH=src python tests/test_golden.py

The same runs also check that the outputs explain themselves: the written
trace accounts for metrics.json's byte totals and drops, every event kind
logged has the fields README's "Event log" table gives it, and every logged
field that names a node holds a declared node name. They, and runs on seeded
random graphs, also guard the message each frame carries: each frame
decodes, after the run ends, to what a fresh strict parse of its bytes
gives, type for type, and no frame of a shipped run takes the strict parse
at all; and with every receiver made to strict-parse, each run gives its
golden digests. Three scenarios run once more in secure mode with crypto.powmod's
OpenSSL binding off and crypto's memos empty, so builtin pow alone must
give the same digests.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import re
from unittest import mock

import pytest

from conftest import capture_frames, decode_or_error
from topology import random_connected
from manetsec import cli, crypto, scenario, wire

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCEN = os.path.join(ROOT, "scenarios")
HERE = os.path.dirname(os.path.abspath(__file__))


def _load(name):
    with open(os.path.join(HERE, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


PINNED = _load("golden_digests.json")
PINNED_FRAMES = _load("golden_frames.json")
PINNED_KEYGEN = _load("golden_keygen.json")
KEYGEN_SEED = 7


def _runs():
    """(key, scenario file, mode, sec_level) for every pinned combination."""
    for name in sorted(os.listdir(SCEN)):
        for mode in scenario.MODES:
            for level in (0, 1):
                key = "%s/%s/%d" % (name[:-len(".json")], mode, level)
                yield key, os.path.join(SCEN, name), mode, level


@functools.lru_cache(maxsize=None)
def _run(path, mode, level):
    """(trace.tsv text, metrics.json text, frame digest, event log,
    misdecoded frames, strict parses made) of one run."""
    with capture_frames() as frames, \
            mock.patch.object(wire, "_parse", wraps=wire._parse) as parse:
        result = scenario.run_scenario(scenario.load_file(path), mode=mode,
                                       sec_level=level)
    h = hashlib.sha256()
    for src, dst, payload in frames:
        h.update(("%s\t%s\t%d\n" % (src, dst, len(payload))).encode())
        h.update(payload)
    return (result.trace_text(), result.metrics_json(), h.hexdigest(),
            tuple(result.metrics.events), _misdecoded(frames),
            parse.call_count)


def _misdecoded(frames):
    """Send-order indices of the captured frames whose decode differs from
    a fresh strict parse of the same bytes. Comparing reprs tells bytes from
    bytearray, tuple from list and int from bool."""
    assert frames
    return [i for i, (_, _, payload) in enumerate(frames)
            if repr(decode_or_error(wire.decode_message, payload))
            != repr(decode_or_error(wire._parse, payload))]


def _digests(path, mode, level, run=_run):
    """({trace, metrics} digests, frame digest) of one run."""
    trace, metrics, frames = run(path, mode, level)[:3]
    return ({"trace": hashlib.sha256(trace.encode()).hexdigest(),
             "metrics": hashlib.sha256(metrics.encode()).hexdigest()},
            frames)


def test_every_shipped_combination_is_pinned():
    keys = sorted(key for key, _, _, _ in _runs())
    assert keys == sorted(PINNED)
    assert keys == sorted(PINNED_FRAMES)
    assert sorted(PINNED_KEYGEN) == [n[:-len(".json")]
                                     for n in sorted(os.listdir(SCEN))]


@pytest.mark.parametrize("key,path,mode,level",
                         list(_runs()), ids=[r[0] for r in _runs()])
def test_outputs_match_the_golden_digests(key, path, mode, level):
    assert _digests(path, mode, level)[0] == PINNED[key]


@pytest.mark.parametrize("key,path,mode,level",
                         list(_runs()), ids=[r[0] for r in _runs()])
def test_transmitted_frames_match_the_golden_frames(key, path, mode, level):
    assert _digests(path, mode, level)[1] == PINNED_FRAMES[key]


@pytest.mark.parametrize("name", ["line5_discovery", "attack_redirect",
                                  "overhead_line5"])
def test_builtin_pow_fallback_matches_the_golden_digests(name, monkeypatch):
    # with the OpenSSL binding off and crypto's memos empty, builtin pow
    # computes every key, group and signature of these runs itself
    monkeypatch.setattr(crypto, "_bn_mod_exp", None)
    monkeypatch.setattr(crypto, "_dh_groups", {})
    crypto._node_keys.cache_clear()
    crypto.rsa_public.cache_clear()
    for level in (0, 1):
        key = "%s/secure/%d" % (name, level)
        path = os.path.join(SCEN, name + ".json")
        assert _digests(path, "secure", level, _run.__wrapped__) == \
            (PINNED[key], PINNED_FRAMES[key])


def test_a_strict_parse_of_every_frame_gives_the_golden_digests(
        monkeypatch):
    # the frame carrier is exact: with every receiver reading a fresh strict
    # parse of a frame's bytes, not the message the frame carries, each
    # shipped run gives its golden trace and metrics (ROADMAP item 6)
    monkeypatch.setattr(wire, "decode_message",
                        lambda data: wire._parse(bytes(data)))
    for key, path, mode, level in _runs():
        trace, metrics, *_, parses = _run.__wrapped__(path, mode, level)
        assert parses, key
        assert {"trace": hashlib.sha256(trace.encode()).hexdigest(),
                "metrics": hashlib.sha256(metrics.encode()).hexdigest()} \
            == PINNED[key], key


def _keygen_digest(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["keygen", "--scenario",
                         os.path.join(SCEN, name + ".json"),
                         "--seed", str(KEYGEN_SEED)]) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_KEYGEN))
def test_keygen_output_matches_the_golden_digests(name):
    assert _keygen_digest(name) == PINNED_KEYGEN[name]


# trace.tsv kinds, as README's "Outputs" names them
ROUTING_FRAMES = {"RREQ", "RREP", "RERR"}
SEGMENT_FRAMES = {"SYN", "SYN_ACK", "ACK", "DATA", "FIN", "FIN_ACK"}
DROPPED = re.compile(r"dropped_by_receiver\((\w+)\)\Z")


@pytest.mark.parametrize("key,path,mode,level",
                         list(_runs()), ids=[r[0] for r in _runs()])
def test_written_trace_explains_the_metrics(key, path, mode, level):
    trace, metrics = _run(path, mode, level)[:2]
    control = data = 0
    drops = {}
    for line in trace.splitlines():
        _, _, _, kind, size, disposition = line.split("\t")
        if kind in ROUTING_FRAMES:
            control += int(size)
        elif kind in SEGMENT_FRAMES:
            data += int(size)
        match = DROPPED.match(disposition)
        if match:
            drops[match.group(1)] = drops.get(match.group(1), 0) + 1
    doc = json.loads(metrics)
    doc["drops"].pop("table_full", None)   # the evicting SYN is delivered
    assert (control, data, drops) == \
        (doc["control_bytes"], doc["data_bytes"], doc["drops"])


@functools.lru_cache(maxsize=None)
def _documented_events():
    """{kind: field names} from the table under README's "Event log"."""
    with open(os.path.join(ROOT, "README.md"), "r", encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Event log\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for row in section.splitlines():
        cells = row.split("|")
        if len(cells) == 5 and cells[1].strip().startswith("`"):
            fields = frozenset(re.findall(r"`(\w+)`", cells[3]))
            for kind in re.findall(r"`(\w+)`", cells[1]):
                table[kind] = fields
    return table


@pytest.mark.parametrize("key,path,mode,level",
                         list(_runs()), ids=[r[0] for r in _runs()])
def test_logged_events_match_the_readme_table(key, path, mode, level):
    documented = _documented_events()
    assert "deliver" in documented and documented["rerr_sent"] == set()
    logged = {(ev.kind, frozenset(ev.fields))
              for ev in _run(path, mode, level)[3]}
    for kind, fields in logged:
        assert documented.get(kind) == fields, (kind, sorted(fields))


# the logged fields that name a node, by event kind
NODE_FIELDS = {
    "route": ("dst", "next_hop"),
    "session_key": ("peer",),
    "rerr_accepted": ("reporter", "unreachable"),
    "discovery": ("target",),
    "discovered": ("target",),
    "shortened": ("origin",),
    **{kind: ("peer",) for kind in ("connect", "syn_sent", "established",
                                    "alloc", "failed", "closed",
                                    "resync_ack", "deliver")},
}


@pytest.mark.parametrize("key,path,mode,level",
                         list(_runs()), ids=[r[0] for r in _runs()])
def test_logged_node_fields_are_node_names(key, path, mode, level):
    nodes = set(scenario.load_file(path)["nodes"])
    for ev in _run(path, mode, level)[3]:
        for name in NODE_FIELDS.get(ev.kind, ()):
            assert ev.fields[name] in nodes, (ev.kind, name, ev.fields[name])


@pytest.mark.parametrize("key,path,mode,level",
                         list(_runs()), ids=[r[0] for r in _runs()])
def test_every_frame_decodes_as_a_fresh_parse(key, path, mode, level):
    assert _run(path, mode, level)[4] == []


@pytest.mark.parametrize("key,path,mode,level",
                         list(_runs()), ids=[r[0] for r in _runs()])
def test_no_frame_takes_the_strict_parse(key, path, mode, level):
    """Each frame a shipped run decodes, at delivery or for its trace label,
    is one encode_message returned, so it carries its message. A strict
    parse here means the encoder stopped attaching the message, which no
    output byte would show."""
    assert _run(path, mode, level)[5] == 0


def _random_graph_doc(index, sec_level):
    """A secure run on a seeded random connected graph, where one pair of
    nodes opens a flow each way."""
    rng = random.Random(7100 + index)
    names = ["n%d" % i for i in range(rng.randrange(5, 13))]
    links = random_connected(names, rng)
    a, b = rng.sample(names, 2)
    return {"seed": 7100 + index, "key_bits": 128, "dh_bits": 32,
            "sec_level": sec_level, "run_until": 300, "nodes": names,
            "links": [{"a": x, "b": y} for x, y in links],
            "events": [
                {"tick": 1, "kind": "start_flow", "client": a, "server": b,
                 "payload": "forward"},
                {"tick": 2, "kind": "start_flow", "client": b, "server": a,
                 "client_port": 5001, "payload": "reverse"}]}


@pytest.mark.parametrize("level", [1, 0])
def test_random_graph_frames_decode_as_a_fresh_parse(level):
    for index in range(10):
        with capture_frames() as frames:
            scenario.run_scenario(_random_graph_doc(index, level))
        assert _misdecoded(frames) == [], index


if __name__ == "__main__":
    out = {}
    for key, path, mode, level in _runs():
        outputs, frames = _digests(path, mode, level)
        out[key] = dict(outputs, frames=frames)
    out["keygen"] = {name: _keygen_digest(name) for name in PINNED_KEYGEN}
    print(json.dumps(out, indent=1, sort_keys=True))
