"""Repetition 0 of each benchmark workload, at the pinned seed, gives the
trace and metrics digests that `perfbench/pins.json` pins for it. The
digests are taken as `perfbench/run.py` takes them: one SHA-256 over the
trace texts of a repetition's runs in order, one over their metrics texts."""

import hashlib
import importlib.util
import json
import os

import pytest

from manetsec import scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
with open(os.path.join(ROOT, "perfbench", "pins.json"), encoding="utf-8") as fh:
    PINS = json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_repetition_zero_reproduces_its_pinned_digests(workload):
    runs = workloads.repetition_runs(workload, PINS["seed"], 0,
                                     workloads.attack_documents(ROOT))
    trace_hash, metrics_hash = hashlib.sha256(), hashlib.sha256()
    for text, overrides, _ in runs:
        result = scenario.run_scenario(json.loads(text), **overrides)
        trace_hash.update(result.trace_text().encode("utf-8"))
        metrics_hash.update(result.metrics_json().encode("utf-8"))
    assert [trace_hash.hexdigest(), metrics_hash.hexdigest()] == \
        PINS["workloads"][workload][0]
