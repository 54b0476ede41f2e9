"""The benchmark's tracer wraps library functions by name; each name it
lists must still be a function defined where it says."""

import importlib.util
import inspect
import os

import manetsec.scenario  # noqa: F401  (imports every traced module)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_is_a_function_defined_on_its_owner():
    tracer = _load_tracer()
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
