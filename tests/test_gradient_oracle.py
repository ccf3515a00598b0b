"""One gradient per value, and the derivative kernels that read it.

`RationalFunction._gradient()` is {axis: nonzero partial} over the variables
that the value's numerator, or its denominator unless that is the chart's
shared 1, contains, in ascending axis; `diff(variable)` is its entry there or
the chart's shared 0.  The oracle is the per-variable `diff` it replaced,
`helpers.oracle_diff`: one partial per request, with the shared row of a
constant or a variable over the shared 1.  On seeded values (polynomials,
true denominators, `Fraction` coefficients, constants, variables, the shared
0 and 1, a negated 0, a variable and a 1 over an equal copy of 1) `diff`
must give the oracle's result in canonical form and term order, the
gradient's keys must be exactly the axes of its nonzero results, in
ascending order, every zero partial must be the shared 0, a partial n'/1 with
n' = 1 must be the shared 1, and an unknown variable must raise and store
nothing.  Three mutants of the gradient must be caught.

The kernels: `_first_derivatives` builds n vectors in one sweep, and must
give the values and insertion order of n `_nabla_coordinate` calls, on seeded
connections with symbols, the commuting-frame connection and the GL2 frame;
`_hessian` and `solve_iat_ansatz` read the gradients, and must match the
route through `oracle_diff` on GL3, the commuting frame and the shipped task
file's solve-iat task.
"""
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from flataffine import Chart, Polynomial, RationalFunction, UnknownVariableError, cli, geometry
from flataffine.geometry import _first_derivatives, _hessian, _nabla_coordinate, solve_iat_ansatz
from helpers import (
    assert_canonical,
    gln_scene,
    oracle_add_at,
    oracle_diff,
    random_polynomial,
    random_rational_function,
)
from test_geometry_oracle import (
    CHARTS,
    COMMUTING_FRAME_ANSATZ,
    commuting_frame_connection,
    pair_numbering,
    random_connection,
    random_fields,
)

SHIPPED = Path(__file__).resolve().parent.parent / "docs" / "example-tasks.json"


def layout(f):
    """A rational function's numerator and denominator terms, in order."""
    return list(f.num.terms.items()), list(f.den.terms.items())


def seeded_values(seed):
    """Fresh values on a fresh four-variable chart, so no gradient is built
    yet; the chart's shared values are among them."""
    rng = random.Random(f"gradient-{seed}")
    chart = Chart(f"gradient-{seed}", ("x", "y", "z", "w"))

    def poly(terms):
        return Polynomial(chart, terms)

    zero, one = RationalFunction.zero(chart), RationalFunction.one(chart)
    equal_one = Polynomial.constant(chart, 1)
    values = [RationalFunction(random_polynomial(rng, chart)) for _ in range(4)]
    values += [random_rational_function(rng, chart, 2) for _ in range(4)]
    values += [
        RationalFunction(poly({(1, 0, 0, 0): 1, (0, 2, 0, 0): Fraction(1, 3)})),  # x + y^2/3
        RationalFunction(poly({(1, 0, 1, 0): 1, (0, 0, 0, 0): 2})),   # x*z + 2: d_x is z
        RationalFunction(poly({(0, 0, 3, 0): Fraction(-2, 5)})),   # one variable only
        RationalFunction(poly({(1, 0, 0, 0): 1}), poly({(0, 1, 0, 0): 1, (0, 0, 0, 0): -2})),
        RationalFunction(poly({(0, 1, 0, 0): 3}), poly({(2, 0, 0, 0): 1})),   # 3y/x^2
        RationalFunction.constant(chart, Fraction(-2, 3)), RationalFunction.constant(chart, 5),
        zero, one, -zero,
        RationalFunction._of(Polynomial.variable(chart, "y"), Polynomial.one(chart)),
        RationalFunction._of(Polynomial.variable(chart, "x"), equal_one),
        RationalFunction._of(equal_one, equal_one),
    ]
    values += [RationalFunction.variable(chart, v) for v in chart.variables]
    return chart, values


def reference_gradient(a):
    """{axis: oracle partial} over the axes where the oracle's is nonzero."""
    chart = a.num.chart
    return {axis: d for axis, v in enumerate(chart.variables) if (d := oracle_diff(a, v))}


def check_gradients(gradient_of, values, chart):
    zero = RationalFunction.zero(chart)
    for a in values:
        gradient = gradient_of(a)
        expected = reference_gradient(a)
        assert list(gradient) == list(expected)
        for axis, d in gradient.items():
            assert layout(d) == layout(expected[axis])
            for p in (d.num, d.den):
                assert_canonical(p)
        assert zero not in gradient.values()


def test_the_seeded_values_reach_every_case():
    for seed in range(4):
        chart, values = seeded_values(seed)
        one = chart._one
        assert any(a.den is not one and not a.den.is_constant() for a in values)
        # a variable that only the denominator contains
        assert any(not a.num.diff(v).terms and a.den.diff(v).terms
                   for a in values for v in chart.variables)
        assert any(type(c) is Fraction for a in values for c in a.num.terms.values())
        # a derivative n'/1 with n' = 1, of a value that is not a variable
        assert any(a.den is one and len(a.num.terms) > 1 and a.num.diff(v).is_one()
                   for a in values for v in chart.variables)
        # a value that does not contain every variable
        assert any(not a.diff(v) and a.num.terms for a in values for v in chart.variables)


@pytest.mark.parametrize("seed", range(4))
def test_diff_matches_the_oracle_in_canonical_form_and_term_order(seed):
    chart, values = seeded_values(seed)
    rng = random.Random(seed)
    requests = [(a, v) for a in values for v in chart.variables] * 2
    rng.shuffle(requests)
    first = {}
    for a, v in requests:
        got = a.diff(v)
        expected = oracle_diff(a, v)
        assert layout(got) == layout(expected)
        for p in (got.num, got.den):
            assert_canonical(p)
        assert first.setdefault((id(a), v), got) is got


@pytest.mark.parametrize("seed", range(4))
def test_the_gradient_holds_exactly_the_nonzero_partials_in_ascending_axis(seed):
    chart, values = seeded_values(seed)
    check_gradients(RationalFunction._gradient, values, chart)
    for a in values:
        gradient = a._gradient()
        assert a._partials is gradient and a._gradient() is gradient
        assert all(a.diff(chart.variables[axis]) is d for axis, d in gradient.items())


def _num_only(a):
    """Mutant: the axes of the numerator alone."""
    chart = a.num.chart
    axes = {axis for exps in a.num.terms for axis, e in enumerate(exps) if e}
    return {axis: oracle_diff(a, chart.variables[axis]) for axis in sorted(axes)
            if oracle_diff(a, chart.variables[axis])}


def _every_axis(a):
    """Mutant: a zero partial kept at every axis the value does not contain."""
    return {axis: oracle_diff(a, v) for axis, v in enumerate(a.num.chart.variables)}


def _descending(a):
    return dict(reversed(list(reference_gradient(a).items())))


@pytest.mark.parametrize("mutant", [_num_only, _every_axis, _descending],
                         ids=["numerator-only", "every-axis", "descending"])
def test_the_gradient_check_catches_mutants(mutant):
    chart, values = seeded_values(0)
    with pytest.raises(AssertionError):
        check_gradients(mutant, values, chart)


@pytest.mark.parametrize("seed", range(4))
def test_every_zero_partial_is_the_shared_zero(seed):
    chart, values = seeded_values(seed)
    zero = RationalFunction.zero(chart)
    seen = 0
    for a in values:
        for v in chart.variables:
            if not oracle_diff(a, v):
                assert a.diff(v) is zero
                seen += 1
    assert seen


def test_a_derivative_one_over_the_shared_one_is_the_shared_one():
    chart, values = seeded_values(0)
    one, shared = RationalFunction.one(chart), chart._one
    seen = 0
    for a in values:
        for axis, v in enumerate(chart.variables):
            if a.den is shared and a.num.diff(v).is_one():
                assert a.diff(v) is one and a._gradient()[axis] is one
                seen += 1
    assert seen > chart.dim
    # a variable's gradient is {axis: shared 1}, a constant's is empty
    for axis, v in enumerate(chart.variables):
        assert RationalFunction.variable(chart, v)._gradient() == {axis: one}
        assert RationalFunction.variable(chart, v)._gradient()[axis] is one
    for a in (one, RationalFunction.zero(chart), RationalFunction.constant(chart, 7)):
        assert a._gradient() == {}


def test_an_unknown_variable_raises_and_stores_nothing():
    chart, values = seeded_values(1)
    for a in values[:3]:
        a.diff("x")
    for a in values:
        before = getattr(a, "_partials", None)
        items = None if before is None else list(before.items())
        for _ in range(2):
            with pytest.raises(UnknownVariableError):
                a.diff("u")
        after = getattr(a, "_partials", None)
        assert after is before
        assert (None if after is None else list(after.items())) == items
    assert getattr(values[3], "_partials", None) is None


# ----- the kernels ---------------------------------------------------------------------


def vector_layout(vec):
    return [(k, layout(c)) for k, c in vec.items()]


def first_derivative_cases():
    """(connection, fields): seeded connections with symbols, the
    commuting-frame connection and the GL2 frame connection."""
    cases = []
    for seed in range(6):
        rng = random.Random(f"first-{seed}")
        chart = CHARTS[2 + seed % 2]
        conn = random_connection(rng, chart, rng.choice([0.3, 1.0]), seed % 3 != 0)
        cases.append((conn, random_fields(rng, chart, 4)))
    conn = commuting_frame_connection()
    cases.append((conn, random_fields(random.Random("first-commuting"), conn.chart, 4)))
    scene = gln_scene(2)
    cases.append((scene.connect(), scene.invariant_fields()[1] + scene.f_fields))
    return cases


def test_first_derivatives_match_one_nabla_coordinate_per_axis():
    symbols = 0
    for conn, fields in first_derivative_cases():
        symbols += sum(len(vec) for row in conn._rows for vec in row)
        for X in fields:
            first = _first_derivatives(conn, X)
            assert len(first) == conn.chart.dim
            for a, vec in enumerate(first):
                assert vector_layout(vec) == \
                    vector_layout(_nabla_coordinate(conn, a, X.components))
    assert symbols > 20


def oracle_hessian(conn, t, number, curved):
    """`_hessian` as it was, on derivatives taken by `oracle_diff`: every
    d_a t, and d_i d_j t at every i <= j where d_j t is nonzero."""
    variables = conn.chart.variables
    d1 = [oracle_diff(t, v) for v in variables]
    out = {}
    for j, dj in enumerate(d1):
        if dj:
            for i in range(j + 1):
                h = oracle_diff(dj, variables[i])
                if h:
                    out[number[i][j]] = h
    for p, symbols in curved:
        for l, g in symbols:
            if d1[l]:
                oracle_add_at(out, p, -(g * d1[l]))
    return out


def shipped_solve_task():
    doc = cli.load_document(json.loads(SHIPPED.read_text()))
    (task,) = [t for t in doc.tasks if t["kind"] == "solve-iat"]
    return task["connection"], task["ansatz"]


def hessian_scene(name):
    if name == "gl3":
        scene = gln_scene(3)
        # x11*x33 + x22^2 has a Hessian entry at (x22, x22) between the
        # pair (x11, x33)'s two mixed partials
        return scene.connect(), list(scene.chart.variables) + [
            "x12^2", "x11*x23", "x31^3", "x11*x33 + x22^2", "1"]
    if name == "commuting-frame":
        return commuting_frame_connection(), COMMUTING_FRAME_ANSATZ
    return shipped_solve_task()


SCENES = ["gl3", "commuting-frame", "shipped"]


@pytest.mark.parametrize("name", SCENES)
def test_hessian_matches_the_oracle_diff_route(name):
    conn, ansatz = hessian_scene(name)
    number, curved = pair_numbering(conn)
    nonzero = 0
    for t in ansatz:
        t = geometry._as_rf(conn.chart, t)
        got = _hessian(t._gradient(), number, curved)
        expected = oracle_hessian(conn, t, number, curved)
        assert [(p, layout(h)) for p, h in got.items()] == \
            [(p, layout(h)) for p, h in expected.items()]
        nonzero += bool(got)
    assert nonzero
    if name != "gl3":
        assert curved


@pytest.mark.parametrize("name", SCENES)
def test_solve_iat_ansatz_matches_the_oracle_diff_route(name, monkeypatch):
    conn, ansatz = hessian_scene(name)
    got = solve_iat_ansatz(conn, ansatz)
    # every kernel reads gradients taken by `oracle_diff`, one request per variable
    monkeypatch.setattr(RationalFunction, "_gradient", reference_gradient)
    fresh, fresh_ansatz = hessian_scene(name)
    expected = solve_iat_ansatz(fresh, fresh_ansatz)
    monkeypatch.undo()
    assert got and len(got) == len(expected)
    assert [vector_layout(f.components) for f in got] == \
        [vector_layout(f.components) for f in expected]
