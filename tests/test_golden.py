"""Behaviour lock: sha256 of trace.tsv and metrics.json, and of every
transmitted frame, for every shipped scenario in both modes at both security
levels.

The digests in golden_digests.json were recorded before the key and decode
caches existed, and those in golden_frames.json before route signing moved
into one helper; a change that moves one must say why. The frame digest
covers (src, dst, length, payload) of each frame in transmission order, so
it also sees bytes that trace.tsv reduces to a size, such as a forged
signature of the usual width. To print the digests of the current code (for
review, not to overwrite blindly):

    PYTHONPATH=src python tests/test_golden.py
"""

import functools
import hashlib
import json
import os

import pytest

from conftest import capture_frames
from manetsec import scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCEN = os.path.join(ROOT, "scenarios")
HERE = os.path.dirname(os.path.abspath(__file__))


def _load(name):
    with open(os.path.join(HERE, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


PINNED = _load("golden_digests.json")
PINNED_FRAMES = _load("golden_frames.json")


def _runs():
    """(key, scenario file, mode, sec_level) for every pinned combination."""
    for name in sorted(os.listdir(SCEN)):
        for mode in scenario.MODES:
            for level in (0, 1):
                key = "%s/%s/%d" % (name[:-len(".json")], mode, level)
                yield key, os.path.join(SCEN, name), mode, level


@functools.lru_cache(maxsize=None)
def _digests(path, mode, level):
    """({trace, metrics} digests, frame digest) of one run."""
    with capture_frames() as frames:
        result = scenario.run_scenario(scenario.load_file(path), mode=mode,
                                       sec_level=level)
    h = hashlib.sha256()
    for src, dst, payload in frames:
        h.update(("%s\t%s\t%d\n" % (src, dst, len(payload))).encode())
        h.update(payload)
    return ({"trace": hashlib.sha256(result.trace_text().encode()).hexdigest(),
             "metrics": hashlib.sha256(
                 result.metrics_json().encode()).hexdigest()},
            h.hexdigest())


def test_every_shipped_combination_is_pinned():
    keys = sorted(key for key, _, _, _ in _runs())
    assert keys == sorted(PINNED)
    assert keys == sorted(PINNED_FRAMES)


@pytest.mark.parametrize("key,path,mode,level",
                         list(_runs()), ids=[r[0] for r in _runs()])
def test_outputs_match_the_golden_digests(key, path, mode, level):
    assert _digests(path, mode, level)[0] == PINNED[key]


@pytest.mark.parametrize("key,path,mode,level",
                         list(_runs()), ids=[r[0] for r in _runs()])
def test_transmitted_frames_match_the_golden_frames(key, path, mode, level):
    assert _digests(path, mode, level)[1] == PINNED_FRAMES[key]


if __name__ == "__main__":
    out = {}
    for key, path, mode, level in _runs():
        outputs, frames = _digests(path, mode, level)
        out[key] = dict(outputs, frames=frames)
    print(json.dumps(out, indent=1, sort_keys=True))
