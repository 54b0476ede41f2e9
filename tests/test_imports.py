"""Every name a module imports is used in it: the package's modules and the
tests' own, read as syntax trees. `from __future__ import annotations`
binds nothing and is exempt."""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRS = [os.path.join(ROOT, "src", "manetsec"), os.path.join(ROOT, "tests")]
MODULES = sorted(os.path.relpath(os.path.join(d, n), ROOT)
                 for d in DIRS for n in os.listdir(d) if n.endswith(".py"))


def unused_imports(source):
    """(line, name) of each name `source` imports and never uses."""
    tree = ast.parse(source)
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name)
                         for a in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return [(line, name) for line, name in imported if name not in read]


def test_every_module_is_checked():
    assert {"src/manetsec/wire.py", "tests/conftest.py"} <= set(MODULES)


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import json\nimport os.path\n"
              "from typing import Dict, List\n"
              "x: Dict[str, int] = {}\nos.sep\n")
    assert unused_imports(source) == [(2, "json"), (4, "List")]


@pytest.mark.parametrize("path", MODULES)
def test_every_imported_name_is_used(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []
