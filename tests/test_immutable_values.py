"""Values are not changed after they are built, and memos are filled only
where they are computed.

The chart's shared constants, `RationalFunction`'s derivative memo and the
memos on a `Connection` rest on this: a value handed out once may be handed
out again, a derivative taken once stays the derivative, and a product table
memoized under its field objects stays the table of those fields.  Every
module under src/flataffine is parsed, not imported, and each of these is
refused:

- an assignment to a guarded attribute, through `=`, an augmented or
  annotated assignment, `del`, a loop target, `setattr` or
  `object.__setattr__`, outside the places that build it: `.terms` in
  `Polynomial.__init__` and `_of`; `.num` and `.den` in
  `RationalFunction._of` and `_scale` (which the constructor and
  `_reduced` call); `._partials` (the derivative memo) in
  `RationalFunction.diff`; a field's `.components` in `VectorField.__init__`
  and `_of`, and a tensor report's in `TensorReport.__post_init__` (its
  dataclass `__init__` is generated); `Connection`'s memos `._torsion`,
  `._curvature` and `._tables` in `Connection._wrap`, which every
  constructor calls, and in `torsion`, `curvature` and `product_table`,
  which fill them; its dense view `._gamma` in the `Connection.gamma`
  property alone, which derives it from the rows on first access;
- a write into a value's dict in place, a `.terms` or `.components` dict:
  an item assignment or deletion, a mutating dict method, or an in-place
  kernel (`_add_scaled`, `_add_at`) with the dict as its target, on the
  attribute itself or on a local name bound to it;
- the same writes into the `._tables` memo dict outside `Connection._wrap`
  and `product_table`.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flataffine"

GUARDED = {"num", "den", "terms", "_partials", "components",
           "_torsion", "_curvature", "_tables", "_gamma"}
BUILDERS = {
    ("symcore/polynomial.py", "Polynomial.__init__"): {"terms"},
    ("symcore/polynomial.py", "Polynomial._of"): {"terms"},
    ("symcore/ratfunc.py", "RationalFunction._of"): {"num", "den"},
    ("symcore/ratfunc.py", "RationalFunction._scale"): {"num", "den"},
    ("symcore/ratfunc.py", "RationalFunction.diff"): {"_partials"},
    ("geometry.py", "VectorField.__init__"): {"components"},
    ("geometry.py", "VectorField._of"): {"components"},
    ("geometry.py", "TensorReport.__post_init__"): {"components"},
    ("geometry.py", "Connection._wrap"): {"_torsion", "_curvature", "_tables"},
    ("geometry.py", "Connection.gamma"): {"_gamma"},
    ("geometry.py", "torsion"): {"_torsion"},
    ("geometry.py", "curvature"): {"_curvature"},
    ("geometry.py", "product_table"): {"_tables"},
}
# dicts that are values, never written in place, and memo dicts, written in
# place only where their attribute may be assigned
VALUE_DICTS = {"terms", "components"}
MEMO_DICTS = {"_tables"}
MUTATORS = {"__setitem__", "__delitem__", "clear", "pop", "popitem", "setdefault",
            "update", "__ior__"}
IN_PLACE_KERNELS = {"_add_scaled", "_add_at"}


def _targets(node):
    """The expressions a statement stores into or deletes."""
    if isinstance(node, ast.Assign):
        roots = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For, ast.AsyncFor)):
        roots = [node.target]
    elif isinstance(node, ast.Delete):
        roots = node.targets
    elif isinstance(node, (ast.With, ast.AsyncWith)):
        roots = [item.optional_vars for item in node.items if item.optional_vars]
    elif isinstance(node, ast.comprehension):
        roots = [node.target]
    else:
        return
    stack = list(roots)
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        elif isinstance(target, ast.Starred):
            stack.append(target.value)
        else:
            yield target


def _dict_attr(expr, aliases):
    """The guarded dict attribute that `expr` is, directly or through a local
    alias, or None."""
    if isinstance(expr, ast.Attribute) and expr.attr in VALUE_DICTS | MEMO_DICTS:
        return expr.attr
    if isinstance(expr, ast.Name):
        return aliases.get(expr.id)
    return None


def _set_attr(call):
    """The attribute name a `setattr` or `object.__setattr__` call sets, or None."""
    func = call.func
    if (isinstance(func, ast.Name) and func.id == "setattr"
            or isinstance(func, ast.Attribute) and func.attr == "__setattr__"):
        if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant):
            return call.args[1].value
    return None


def _scopes(tree):
    """(qualified name, function node) for every function, and ("", module)."""
    yield "", tree
    stack = [("", tree)]
    while stack:
        prefix, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    yield name, child
                stack.append((name + ".", child))
            else:
                stack.append((prefix, child))


def _own_nodes(scope):
    """The nodes of one function body, without those of nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def violations(source: str, module: str):
    """`module:line: what` for every guarded write in one module's source."""
    tree = ast.parse(source)
    found = []
    for qualname, scope in _scopes(tree):
        allowed = BUILDERS.get((module, qualname), set())
        nodes = list(_own_nodes(scope))
        aliases = {t.id: attr for node in nodes if isinstance(node, ast.Assign)
                   and (attr := _dict_attr(node.value, {})) for t in node.targets
                   if isinstance(t, ast.Name)}

        def refuse(node, what):
            found.append(f"{module}:{node.lineno}: {what}")

        def written(expr):
            """The guarded dict that `expr` is, when this scope may not write into it."""
            attr = _dict_attr(expr, aliases)
            return attr if attr in VALUE_DICTS or attr in MEMO_DICTS - allowed else None

        for node in nodes:
            for target in _targets(node):
                if (isinstance(target, ast.Attribute) and target.attr in GUARDED
                        and target.attr not in allowed):
                    refuse(node, f"assigns .{target.attr}")
                elif isinstance(target, ast.Subscript) and (attr := written(target.value)):
                    refuse(node, f"writes into a {attr} dict")
            if isinstance(node, ast.Call):
                func = node.func
                if (attr := _set_attr(node)) in GUARDED - allowed:
                    refuse(node, f"sets .{attr}")
                elif (isinstance(func, ast.Attribute) and func.attr in MUTATORS
                        and (attr := written(func.value))):
                    refuse(node, f"calls {func.attr} on a {attr} dict")
                elif (isinstance(func, ast.Name) and func.id in IN_PLACE_KERNELS
                        and node.args and (attr := written(node.args[0]))):
                    refuse(node, f"passes a {attr} dict to {func.id}")
    return found


def test_no_module_changes_a_built_value():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    found = []
    for path in modules:
        found += violations(path.read_text(), path.relative_to(PACKAGE).as_posix())
    assert found == []


def test_each_allowed_writer_exists_and_writes():
    # the allowed places exist and do write what they are allowed to
    for (module, qualname), attrs in BUILDERS.items():
        source = (PACKAGE / module).read_text()
        scopes = dict(_scopes(ast.parse(source)))
        stored = set()
        for node in _own_nodes(scopes[qualname]):
            for t in _targets(node):
                if isinstance(t, ast.Subscript):   # a memo filled in place
                    t = t.value
                if isinstance(t, ast.Attribute):
                    stored.add(t.attr)
            if isinstance(node, ast.Call) and _set_attr(node):
                stored.add(_set_attr(node))
        assert attrs <= stored, (module, qualname)


def test_the_guard_finds_each_kind_of_write():
    source = '''
def f(p, q, r):
    p.num = 1
    q.den += 1
    r.terms[(0,)] = 1
    del r.terms[(0,)]
    setattr(p, "terms", {})
    p.terms.update({})
    terms = q.terms
    terms[(1,)] = 2
    terms.pop((1,))
    _add_scaled(r.terms, (0,), 1, [])
    p._partials, x = {}, 1
    for p.den in []:
        pass

class RationalFunction:
    def diff(self, variable):
        self._partials = {}
        self.num = 0

    def _scale(self, num, den):
        self.num = num
        self.den = den
        self.terms = {}
'''
    found = violations(source, "symcore/ratfunc.py")
    lines = sorted(int(f.split(":")[1]) for f in found)
    assert lines == [3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 20, 25]
    # copies and fresh dicts may be written freely
    assert violations('''
def g(p):
    out = dict(p.terms)
    out[(0,)] = 1
    rem = {}
    _add_scaled(rem, (0,), 1, p.terms.items())
    return out
''', "symcore/polynomial.py") == []


def test_the_guard_finds_each_kind_of_write_to_fields_and_memos():
    source = '''
def f(X, report, conn):
    X.components = {}
    report.components[(1,)] = 0
    comps = X.components
    comps[0] = 1
    del comps[0]
    X.components.update({})
    _add_at(X.components, 0, 1)
    _add_at(comps, 0, 1)
    object.__setattr__(report, "components", {})
    conn._torsion = None
    conn._curvature, conn._tables = None, {}
    conn._tables[0] = 1
    tables = conn._tables
    tables.setdefault(0, 1)
    setattr(conn, "_tables", {})
    conn._gamma = ()

class Connection:
    def _wrap(self):
        self._torsion = None
        self._curvature = None
        self._tables = {}
        self.components = {}
        self._gamma = None

def product_table(conn, X):
    conn._tables[0] = 1
    conn._tables.pop(0)
    conn._torsion = None
    _add_at(X.components, 0, 1)

def torsion(conn):
    conn._torsion = 1
    conn._tables[0] = 1
'''
    found = violations(source, "geometry.py")
    lines = sorted(int(f.split(":")[1]) for f in found)
    assert lines == [3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 13, 14, 16, 17, 18, 25, 26, 31, 32,
                     36]
    # copies and fresh dicts may be written freely, the memos where they are filled
    assert violations('''
def g(X, conn):
    out = dict(X.components)
    out[0] = 1
    _add_at(out, 1, X.components[0])
    return out

class TensorReport:
    def __post_init__(self):
        object.__setattr__(self, "components", {})

def curvature(conn):
    conn._curvature = 1

class Connection:
    @property
    def gamma(self):
        gamma = self._gamma = ()
        return gamma
''', "geometry.py") == []
