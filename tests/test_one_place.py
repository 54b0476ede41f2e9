"""Each signing step of a route message has one home: `rsa_sign_first` is
called only by `routing.originate`, `sas_aggregate_step` only by
`routing.append_signer`, and in `routing` a `RouteMessage` is built only by
those two. Verification in `routing` goes through the aggregate checks of
`crypto`, never through a bare RSA public operation. A peer's session key is
read only through `RouterNode.session`. A transport segment that awaits its
ack is sent and armed only by `TcpEndpoint._ship`; an ack completes it only
in `TcpEndpoint._take_ack`, and a connection ends only in `TcpEndpoint._end`.
A random stream is made only where it is first needed, and the classes on
the per-frame path set every attribute in `__init__`. Only
`Network._transmit` grows the trace's columns and only `Network._deliver`
writes a disposition. Calls and attribute uses are found by walking each
module's syntax tree and named by their innermost function."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "manetsec")


def owned(source, module):
    """(node, qualified name of the innermost enclosing function or of the
    module) of every node in source."""
    found = []

    def walk(node, owner, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = prefix + child.name
                walk(child, owner if isinstance(child, ast.ClassDef)
                     else name, name + ".")
                continue
            found.append((child, owner))
            walk(child, owner, prefix)

    walk(ast.parse(source), module, module + ".")
    return found


def calls(source, module):
    """(callee name, owner as in `owned`) of every call in source."""
    found = []
    for node, owner in owned(source, module):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                found.append((func.id, owner))
            elif isinstance(func, ast.Attribute):
                found.append((func.attr, owner))
    return found


def attribute_uses(source, module, attr):
    """Sorted distinct (use, owner as in `owned`) of every `.attr` in source:
    the use is "write" where it, or an item of it, is assigned or deleted,
    else "read"."""
    nodes = owned(source, module)
    stored = (ast.Store, ast.Del)
    items_written = {id(node.value) for node, _ in nodes
                     if isinstance(node, ast.Subscript)
                     and isinstance(node.ctx, stored)}
    return sorted({("write" if isinstance(node.ctx, stored)
                    or id(node) in items_written else "read", owner)
                   for node, owner in nodes
                   if isinstance(node, ast.Attribute) and node.attr == attr})


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


def test_an_attribute_use_is_a_write_only_where_it_or_an_item_is_stored():
    source = ('class A:\n'
              '    def __init__(self):\n'
              '        self.t: dict = {}\n'
              '    def put(self, k):\n'
              '        self.t[k] = 1\n'
              '    def drop(self, k):\n'
              '        del self.t[k]\n'
              '    def get(self, k):\n'
              '        return self.t.get(k), self.t[k], o.t\n')
    assert attribute_uses(source, "m", "t") == [
        ("read", "m.A.get"), ("write", "m.A.__init__"),
        ("write", "m.A.drop"), ("write", "m.A.put")]


def test_each_signing_step_has_one_home():
    sources = package_sources()
    assert callers(sources, "rsa_sign_first") == ["routing.originate"]
    assert callers(sources, "sas_aggregate_step") == \
        ["routing.append_signer"]
    assert callers(sources, "RouteMessage", ["routing"]) == \
        ["routing.append_signer", "routing.originate"]
    assert callers(sources, "rsa_public", ["routing"]) == []
    assert callers(sources, "powmod", ["routing"]) == []


def test_a_peers_session_key_has_one_reader():
    # the transport's key choice lives in the router, so a change to which
    # key a segment uses changes RouterNode.session alone
    sources = package_sources()
    assert [module for module, source in sources.items()
            if attribute_uses(source, module, "sessions")] == ["routing"]
    assert attribute_uses(sources["routing"], "routing", "sessions") == [
        ("read", "routing.RouterNode.session"),
        ("write", "routing.RouterNode.__init__"),
        ("write", "routing.RouterNode._store_key")]


def attribute_stores(nodes, attr):
    """(value, owner) of every `x.attr = value` among `owned` nodes."""
    return [(node.value, owner) for node, owner in nodes
            if isinstance(node, ast.Assign)
            and any(isinstance(target, ast.Attribute)
                    and target.attr == attr for target in node.targets)]


def connection_keywords(nodes, name):
    """(value, owner) of every `Connection(..., name=value)`."""
    return [(keyword.value, owner) for node, owner in nodes
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "Connection"
            for keyword in node.keywords if keyword.arg == name]


def test_a_segment_that_awaits_its_ack_has_one_send_path():
    # a resend is the first send again, so a change to how such a segment
    # is tagged or timed changes TcpEndpoint._ship alone; other handlers
    # only clear `inflight`
    nodes = owned(package_sources()["transport"], "transport")
    arms = [(node.args[0], owner) for node, owner in nodes
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "_arm"]
    assert all(isinstance(what, ast.Constant) for what, _ in arms)
    assert sorted(owner for what, owner in arms if what.value == "rx") == \
        ["transport.TcpEndpoint._ship"]
    stores = attribute_stores(nodes, "inflight")
    assert sorted(owner for value, owner in stores
                  if not (isinstance(value, ast.Constant)
                          and value.value is None)) == \
        ["transport.TcpEndpoint._ship"]
    # and only taking its ack or ending the connection clears it
    assert sorted(owner for value, owner in stores
                  if isinstance(value, ast.Constant)
                  and value.value is None) == \
        ["transport.TcpEndpoint._end", "transport.TcpEndpoint._take_ack"]


def test_an_ack_completes_a_segment_in_one_place():
    # the rule that an ack must cover the whole segment in flight, and
    # anything timed from that ack, live in TcpEndpoint._take_ack alone
    source = package_sources()["transport"]
    assert [owner for use, owner in
            attribute_uses(source, "transport", "snd_una")
            if use == "write"] == ["transport.TcpEndpoint._begin_handshake",
                                   "transport.TcpEndpoint._take_ack"]
    assert [owner for value, owner in
            connection_keywords(owned(source, "transport"), "snd_una")] == \
        ["transport.TcpEndpoint._try_promote"]


def test_a_connection_ends_in_one_place():
    # whatever a connection does as it closes or fails lives in
    # TcpEndpoint._end alone: no other code sets either state
    nodes = owned(package_sources()["transport"], "transport")
    ending = [owner for value, owner in attribute_stores(nodes, "state")
              + connection_keywords(nodes, "state")
              if not (isinstance(value, ast.Constant)
                      and value.value not in ("closed", "failed"))]
    assert ending == ["transport.TcpEndpoint._end"]


def test_routing_encodes_a_core_where_it_is_made_or_accepted():
    sources = package_sources()
    assert callers(sources, "encode_core", ["routing"]) == \
        ["routing.RouterNode.on_receive", "routing.originate"]


def class_def(source, name):
    """The ClassDef of `name` in source."""
    return next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ClassDef) and node.name == name)


def self_attributes_set(function):
    """Names of the `self.x` that `function` assigns."""
    return {node.attr for node in ast.walk(function)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


def test_a_random_stream_is_made_only_where_it_is_first_needed():
    # a router seeds its stream at its first draw and a network its loss
    # stream at its first lossy link (README "Benchmark")
    assert callers(package_sources(), "Random") == [
        "crypto.NodeKeys.__init__", "routing.RouterNode._stream",
        "sim.Network.add_link"]


def test_per_frame_classes_set_every_attribute_in_init():
    # an attribute first set after __init__, or a cached_property's entry
    # in the instance dict, costs every later read its fast path
    sources = package_sources()
    for module, name in (("routing", "RouterNode"), ("sim", "Network")):
        cls = class_def(sources[module], name)
        methods = [node for node in cls.body
                   if isinstance(node, ast.FunctionDef)]
        decorators = {ast.unparse(d) for m in methods
                      for d in m.decorator_list}
        assert not any("cached_property" in d for d in decorators), name
        init = next(m for m in methods if m.name == "__init__")
        for method in methods:
            assert self_attributes_set(method) <= self_attributes_set(init), \
                (name, method.name)


TRACE_COLUMNS = ("ticks", "srcs", "dsts", "kinds", "sizes", "ends")
LIST_MUTATORS = {"append", "clear", "extend", "insert", "pop", "remove",
                 "reverse", "sort"}


def test_a_frame_is_traced_in_one_place():
    # the trace's columns grow only where a frame is sent, and a frame's
    # disposition changes only where it is delivered, so the columns stay
    # one record per index
    sources = package_sources()
    changed = sorted({(node.func.attr, node.func.value.attr, owner)
                      for module, source in sources.items()
                      for node, owner in owned(source, module)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and isinstance(node.func.value, ast.Attribute)
                      and node.func.value.attr in TRACE_COLUMNS
                      and node.func.attr in LIST_MUTATORS})
    assert changed == sorted(("append", column, "sim.Network._transmit")
                             for column in TRACE_COLUMNS)
    for column in TRACE_COLUMNS:
        writes = [owner for module, source in sources.items()
                  for use, owner in attribute_uses(source, module, column)
                  if use == "write"]
        assert writes == (["sim.Network._deliver"] if column == "ends"
                          else []), column
