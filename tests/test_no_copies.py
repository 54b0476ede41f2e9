"""No two functions of the package share a body: a step written out twice
belongs in one function both call. Bodies are compared as syntax trees,
docstrings stripped; a body of one statement (a delegating call, a
`return`) is too short to count as a copy."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "manetsec")
MIN_STATEMENTS = 2


def _body(fn):
    """fn's statements without its docstring."""
    body = fn.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    return body


def _qualified_functions(tree, prefix=""):
    """(qualified name, node) of every function in tree, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = prefix + node.name
            if not isinstance(node, ast.ClassDef):
                yield name, node
            yield from _qualified_functions(node, name + ".")
        else:
            yield from _qualified_functions(node, prefix)


def copied_bodies(sources):
    """Groups of function names, from {module name: source}, that share a
    body of MIN_STATEMENTS or more statements; each group sorted."""
    by_body = {}
    for module, source in sorted(sources.items()):
        for name, fn in _qualified_functions(ast.parse(source)):
            body = _body(fn)
            if len(body) >= MIN_STATEMENTS:
                key = tuple(ast.dump(stmt) for stmt in body)
                by_body.setdefault(key, []).append("%s.%s" % (module, name))
    return sorted(sorted(names) for names in by_body.values()
                  if len(names) > 1)


def test_a_copied_body_is_found():
    source = ('class A:\n'
              '    def f(self, x):\n'
              '        """one"""\n'
              '        y = x + 1\n'
              '        return y\n'
              '    def short(self):\n'
              '        return 1\n'
              'def g(x):\n'
              '    def inner(x):\n'
              '        y = x + 1\n'
              '        return y\n'
              '    return inner(x)\n'
              'def h():\n'
              '    return 1\n')
    assert copied_bodies({"m": source}) == [["m.A.f", "m.g.inner"]]


def test_no_two_functions_share_a_body():
    sources = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                sources[name[:-3]] = fh.read()
    assert copied_bodies(sources) == []
