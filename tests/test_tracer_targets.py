"""The benchmark's tracer wraps library functions by name; each name it
lists must still be a function defined where it says. Its judge reads the
routers' state after a run, which must still mean what it reads."""

import importlib.util
import inspect
import json
import os

import pytest

from manetsec import crypto, scenario, transport  # imports every traced module
from manetsec.identity import NodeIdentity, Registry, UnknownIdentityError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(ROOT, "perfbench", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_is_a_function_defined_on_its_owner():
    tracer = _load_perfbench("tracer")
    assert tracer.TARGETS
    for target, _ in tracer.TARGETS:
        owner, attr = tracer._resolve(target)
        value = vars(owner).get(attr)
        assert inspect.isfunction(value), target
        assert value.__qualname__ == target.split(".", 1)[1], target
    # the tracer reads these calls' arguments by position
    names = {t for t, _ in tracer.TARGETS}
    assert set(tracer._EXTRA) <= names
    owner, attr = tracer._resolve("transport.TcpEndpoint.on_timer")
    assert list(inspect.signature(vars(owner)[attr]).parameters) == \
        ["self", "tag", "data"]


def test_transport_timers_carry_the_arguments_the_tracer_reads(monkeypatch):
    tracer = _load_perfbench("tracer")
    calls = []
    on_timer = transport.TcpEndpoint.on_timer

    def recorded(self, *args):
        calls.append((self,) + args)
        return on_timer(self, *args)

    monkeypatch.setattr(transport.TcpEndpoint, "on_timer", recorded)
    doc = {"seed": 4, "key_bits": 128, "dh_bits": 32, "run_until": 600,
           "nodes": ["a", "b", "c"],
           "links": [{"a": "a", "b": "b", "loss": 0.2},
                     {"a": "b", "b": "c", "loss": 0.2}],
           "events": [{"tick": 1, "kind": "start_flow", "client": "a",
                       "server": "c", "payload": "x" * 4000}]}
    scenario.run_scenario(doc)
    assert calls
    for _, tag, data in calls:
        assert tag == "tcp"
        what, key, detail = data
        assert what in ("kw", "rx")
    extra = tracer._EXTRA["transport.TcpEndpoint.on_timer"]
    assert sum(extra(args, None) for args in calls) >= 1


def test_each_registry_lookup_is_one_traced_call():
    tracer = _load_perfbench("tracer")
    ident = NodeIdentity(crypto.generate_node_keys(1, 128), "n0")
    reg = Registry()
    reg.add(ident)
    spans = tracer.Tracer()
    spans.install()
    try:
        reg.get(ident.node_id)
        reg.by_ip("n0")
        for lookup, key in ((reg.get, b"\x01" * 32), (reg.by_ip, "n9")):
            with pytest.raises(UnknownIdentityError):
                lookup(key)
    finally:
        spans.remove()
    assert len(spans.spans) == 4
    assert spans.reduce()["identity.lookup.calls"] == 4


@pytest.mark.xfail(strict=True, reason=(
    "perfbench's judge_run looks a start_discovery's target up in "
    "RouterNode.routes by node id, but routes are keyed by address; "
    "ROADMAP item 4 reads them by address"))
def test_the_judge_counts_a_held_route_as_a_found_one(monkeypatch):
    # run.py imports its sibling modules by their bare names
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    run = _load_perfbench("run")
    with open(os.path.join(ROOT, "scenarios", "line5_discovery.json"),
              encoding="utf-8") as fh:
        text = fh.read()
    result = scenario.run_scenario(json.loads(text))
    assert "e" in result.routers["a"].routes
    outcome = run.judge_run(text, None, result, scenario.sim)
    assert outcome["attempted"] == 1
    assert outcome["failed"] == 0
