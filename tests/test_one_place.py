"""Each signing step of a route message has one home: `rsa_sign_first` is
called only by `routing.originate`, `sas_aggregate_step` only by
`routing.append_signer`, and in `routing` a `RouteMessage` is built only by
those two. Verification in `routing` goes through the aggregate checks of
`crypto`, never through a bare RSA public operation. Calls are found by
walking each module's syntax tree and named by their innermost function."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "manetsec")


def calls(source, module):
    """(callee name, qualified name of the innermost enclosing function or
    of the module) of every call in source."""
    found = []

    def walk(node, owner, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = prefix + child.name
                walk(child, owner if isinstance(child, ast.ClassDef)
                     else name, name + ".")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name):
                    found.append((func.id, owner))
                elif isinstance(func, ast.Attribute):
                    found.append((func.attr, owner))
            walk(child, owner, prefix)

    walk(ast.parse(source), module, module + ".")
    return found


def callers(sources, callee, modules=None):
    """Sorted distinct owners of the calls to `callee` in {module: source},
    over `modules` only if given."""
    return sorted({owner for module, source in sources.items()
                   if modules is None or module in modules
                   for name, owner in calls(source, module)
                   if name == callee})


def package_sources():
    sources = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                sources[name[:-3]] = fh.read()
    return sources


def test_a_call_is_named_by_its_innermost_function():
    source = ('x = f()\n'
              'class A:\n'
              '    def g(self):\n'
              '        def h():\n'
              '            return m.f(1)\n'
              '        return f(h())\n')
    assert sorted(calls(source, "m")) == [
        ("f", "m"), ("f", "m.A.g"), ("f", "m.A.g.h"), ("h", "m.A.g")]
    assert callers({"m": source}, "f") == ["m", "m.A.g", "m.A.g.h"]


def test_each_signing_step_has_one_home():
    sources = package_sources()
    assert callers(sources, "rsa_sign_first") == ["routing.originate"]
    assert callers(sources, "sas_aggregate_step") == \
        ["routing.append_signer"]
    assert callers(sources, "RouteMessage", ["routing"]) == \
        ["routing.append_signer", "routing.originate"]
    assert callers(sources, "rsa_public", ["routing"]) == []
    assert callers(sources, "powmod", ["routing"]) == []
