"""Every rational the algebra layer stores is an int when it is integral.

The invariant, `tests/helpers.py::assert_stored`: a stored rational is an int
when it is integral and a `Fraction` otherwise, never a bool, a float or a
`Fraction` over 1.  Two guards hold `algebra.py` and `linalg.py` to it:

- their source has no `/` or `/=` outside `linalg._Echelon`, the division
  kernel over fields whose elements are never bare ints, since true division
  of two ints gives a float;
- spies on `SCAlgebra._wrap` (every algebra's rows), `Subspace._set` (every
  subspace's rows) and `_FieldSpan.coordinates` (what `express_in_basis` and
  `product_table` read off) check every value they see during `run_document`
  on the shipped task file and during one GL2 envelope pass.

Every scalar that enters a polynomial, a constant rational function or an
algebra's constants goes through one rule, `symcore.polynomial._rational`; it
is compared in value and type with the copy the algebra layer kept before
(`helpers.oracle_rational`), and so are the coefficients that
`Polynomial(...)` and `RationalFunction.constant` store.  A string is read
only by the task-file grammar: each of the seven readers refuses a decimal,
a space, a zero denominator and an exponent with `parse_rational`'s message,
in bounded time (`Fraction("1e5000000")` alone takes seconds).
"""
import ast
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from flataffine import Chart, Polynomial, RationalFunction, compute_envelope
from flataffine.algebra import SCAlgebra, Subspace, parse_rational
from flataffine.cli import run_document
from flataffine.geometry import _FieldSpan, independent_fields
from flataffine.symcore.polynomial import _rational
from helpers import assert_stored_row, assert_stored_vector, gln_scene, oracle_rational

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "flataffine"
SHIPPED = ROOT / "docs" / "example-tasks.json"


# ----- no true division ----------------------------------------------------------------


def divisions(source: str):
    """(line, class) of each `/` and `/=` outside the class `_Echelon`."""
    found = []
    stack = [(node, None) for node in ast.parse(source).body]
    while stack:
        node, owner = stack.pop()
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if owner != "_Echelon" and (
                isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                or isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div)):
            found.append((node.lineno, owner))
        stack.extend((child, owner) for child in ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("module", ["algebra.py", "linalg.py"])
def test_no_true_division_outside_the_division_kernel(module):
    assert divisions((SOURCE / module).read_text()) == []


def test_the_division_guard_finds_each_kind():
    source = ("class _Echelon:\n    def add(self, a, b):\n        return a / b\n"
              "def f(a, b):\n    a /= b\n    return [x / b for x in a]\n"
              "class Other:\n    x = 1 / 2\n")
    assert sorted(divisions(source)) == [(5, None), (6, None), (8, "Other")]


# ----- one scalar rule --------------------------------------------------------------


SCALARS = [0, 7, -3, 10 ** 30, True, False, Fraction(6, 3), Fraction(-4), Fraction(1, 3),
           Fraction(-10 ** 20, 3), "5", "-6/4", "2/3", "8/4", "0/7", 0.5, 2.0, -0.0, -1.25]


@pytest.mark.parametrize("value", SCALARS, ids=[repr(v) for v in SCALARS])
def test_the_scalar_rule_matches_the_copy_it_replaced(value):
    expected = oracle_rational(value)
    chart = Chart("line", ("x",))
    stored = [_rational(value),
              Polynomial(chart, {(0,): value}).terms.get((0,), 0),
              RationalFunction.constant(chart, value).num.terms.get((0,), 0)]
    for got in stored:
        assert got == expected and type(got) is type(expected), (got, expected)
    assert type(expected) is (int if expected.denominator == 1 else Fraction)


_LINE = Chart("line", ("x",))
_UNIT = SCAlgebra(["a"], [[[1]]])
READERS = {
    "SCAlgebra": lambda v: SCAlgebra(["a"], [[[v]]]),
    "from_products": lambda v: SCAlgebra.from_products(["a"], {("a", "a"): {"a": v}}),
    "product": lambda v: _UNIT.product([v], [1]),
    "Subspace": lambda v: Subspace(1, [[v]]),
    "Polynomial": lambda v: Polynomial(_LINE, {(0,): v}),
    "RationalFunction.constant": lambda v: RationalFunction.constant(_LINE, v),
    "Polynomial.evaluate": lambda v: Polynomial(_LINE, {(1,): 1}).evaluate({"x": v}),
}


@pytest.mark.parametrize("reader", READERS)
def test_every_reader_refuses_what_the_task_file_refuses_in_bounded_time(reader):
    for value in ["1.5", " 1", "1/0", "1e5000000"]:
        with pytest.raises(ValueError) as expected:
            parse_rational(value)
        start = time.process_time()
        with pytest.raises(ValueError) as got:
            READERS[reader](value)
        assert time.process_time() - start < 0.5, value
        assert str(got.value) == str(expected.value)


# ----- every stored rational on the real paths -----------------------------------------


@pytest.fixture
def stored(monkeypatch):
    """Counts the values the spies check: algebra rows, subspace rows and
    coordinate rows."""
    seen = {"algebra": 0, "subspace": 0, "coordinates": 0}
    wrap, set_rows, coordinates = SCAlgebra._wrap, Subspace._set, _FieldSpan.coordinates

    def spy_wrap(self, basis_names, rows, unit_index):
        wrap(self, basis_names, rows, unit_index)
        for row in self.rows:
            for cell in row:
                assert_stored_row(cell, self.dim)
                seen["algebra"] += len(cell)

    def spy_set(self, ambient_dim, span):
        set_rows(self, ambient_dim, span)
        for row in self.rows:
            assert_stored_vector(row)
            seen["subspace"] += len(row)

    def spy_coordinates(self, targets):
        solutions = coordinates(self, targets)
        for row in solutions:
            assert_stored_row(row, self._last + 1 - self._top)
            seen["coordinates"] += len(row)
        return solutions

    monkeypatch.setattr(SCAlgebra, "_wrap", spy_wrap)
    monkeypatch.setattr(Subspace, "_set", spy_set)
    monkeypatch.setattr(_FieldSpan, "coordinates", spy_coordinates)
    return seen


def test_the_shipped_document_stores_only_stored_rationals(stored):
    code, reports = run_document(json.loads(SHIPPED.read_text()))
    assert code == 0 and len(reports) == 11
    assert all(count > 0 for count in stored.values()), stored


def test_a_gl2_envelope_pass_stores_only_stored_rationals(stored):
    scene = gln_scene(2)
    inv_names, inv_fields = scene.invariant_fields()
    names, fields = independent_fields(inv_fields + scene.f_fields,
                                       inv_names + scene.f_names)
    generators = [name for name in names if name.startswith("E")]
    report = compute_envelope(scene.connect(), fields, names, generators)
    assert report.closure.rank == 16 and all(report.checks.values())
    assert all(count > 0 for count in stored.values()), stored
