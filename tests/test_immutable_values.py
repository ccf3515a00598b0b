"""Polynomials and rational functions are not changed after they are built.

The chart's shared constants and `RationalFunction`'s derivative memo rest on
this: a value handed out once may be handed out again, and a derivative
taken once stays the derivative.  Every module under src/flataffine is
parsed, not imported, and each of these is refused:

- an assignment to `.num`, `.den`, `.terms` or `._partials` (the memo slot),
  through `=`, an augmented or annotated assignment, `del`, a loop target or
  `setattr`, outside the places that build the value: `Polynomial.__init__`
  and `_of` for `terms`; `RationalFunction._of` and `_scale` (which the
  constructor and `_reduced` call) for `num` and `den`;
  `RationalFunction.diff`, which fills the memo, for `_partials`;
- a write into a `.terms` dict in place: an item assignment or deletion, a
  mutating dict method, or `_add_scaled` (the in-place kernel) with the dict
  as its target, on `x.terms` itself or on a local name bound to it.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flataffine"

GUARDED = {"num", "den", "terms", "_partials"}
BUILDERS = {
    ("symcore/polynomial.py", "Polynomial.__init__"): {"terms"},
    ("symcore/polynomial.py", "Polynomial._of"): {"terms"},
    ("symcore/ratfunc.py", "RationalFunction._of"): {"num", "den"},
    ("symcore/ratfunc.py", "RationalFunction._scale"): {"num", "den"},
    ("symcore/ratfunc.py", "RationalFunction.diff"): {"_partials"},
}
MUTATORS = {"__setitem__", "__delitem__", "clear", "pop", "popitem", "setdefault",
            "update", "__ior__"}
IN_PLACE_KERNELS = {"_add_scaled"}


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


def _is_terms(expr, aliases) -> bool:
    return (isinstance(expr, ast.Attribute) and expr.attr == "terms"
            or isinstance(expr, ast.Name) and expr.id in aliases)


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
        aliases = {t.id for node in nodes if isinstance(node, ast.Assign)
                   and _is_terms(node.value, ()) for t in node.targets
                   if isinstance(t, ast.Name)}

        def refuse(node, what):
            found.append(f"{module}:{node.lineno}: {what}")

        for node in nodes:
            for target in _targets(node):
                if (isinstance(target, ast.Attribute) and target.attr in GUARDED
                        and target.attr not in allowed):
                    refuse(node, f"assigns .{target.attr}")
                elif isinstance(target, ast.Subscript) and _is_terms(target.value, aliases):
                    refuse(node, "writes into a terms dict")
            if isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Name) and func.id == "setattr"
                        and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)
                        and node.args[1].value in GUARDED - allowed):
                    refuse(node, f"sets .{node.args[1].value}")
                elif (isinstance(func, ast.Attribute) and func.attr in MUTATORS
                        and _is_terms(func.value, aliases)):
                    refuse(node, f"calls {func.attr} on a terms dict")
                elif (isinstance(func, ast.Name) and func.id in IN_PLACE_KERNELS
                        and node.args and _is_terms(node.args[0], aliases)):
                    refuse(node, f"passes a terms dict to {func.id}")
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
        stored = {t.attr for node in _own_nodes(scopes[qualname])
                  for t in _targets(node) if isinstance(t, ast.Attribute)}
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
