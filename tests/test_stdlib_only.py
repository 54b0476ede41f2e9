"""The package declares `dependencies = []`: every module it ships imports
only the standard library and its own modules."""

import ast
import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "manetsec")
MODULES = sorted(n for n in os.listdir(SRC) if n.endswith(".py"))


def _absolute_imports(path):
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_every_module_is_checked():
    assert "wire.py" in MODULES and "crypto.py" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_only_the_standard_library(name):
    path = os.path.join(SRC, name)
    outside = ["%s:%d %s" % (name, line, module)
               for line, module in _absolute_imports(path)
               if module.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
