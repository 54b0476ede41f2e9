"""Behaviour lock: sha256 of trace.tsv and metrics.json for every shipped
scenario in both modes at both security levels.

The digests in golden_digests.json were recorded before the key and decode
caches existed; a change that moves one must say why. To print the digests
of the current code (for review, not to overwrite blindly):

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os

import pytest

from manetsec import scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCEN = os.path.join(ROOT, "scenarios")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_digests.json")

with open(GOLDEN, "r", encoding="utf-8") as _fh:
    PINNED = json.load(_fh)


def _runs():
    """(key, scenario file, mode, sec_level) for every pinned combination."""
    for name in sorted(os.listdir(SCEN)):
        for mode in scenario.MODES:
            for level in (0, 1):
                key = "%s/%s/%d" % (name[:-len(".json")], mode, level)
                yield key, os.path.join(SCEN, name), mode, level


def _digests(path, mode, level):
    result = scenario.run_scenario(scenario.load_file(path), mode=mode,
                                   sec_level=level)
    return {"trace": hashlib.sha256(result.trace_text().encode()).hexdigest(),
            "metrics": hashlib.sha256(
                result.metrics_json().encode()).hexdigest()}


def test_every_shipped_combination_is_pinned():
    assert sorted(key for key, _, _, _ in _runs()) == sorted(PINNED)


@pytest.mark.parametrize("key,path,mode,level",
                         list(_runs()), ids=[r[0] for r in _runs()])
def test_outputs_match_the_golden_digests(key, path, mode, level):
    assert _digests(path, mode, level) == PINNED[key]


if __name__ == "__main__":
    print(json.dumps({key: _digests(path, mode, level)
                      for key, path, mode, level in _runs()},
                     indent=1, sort_keys=True))
