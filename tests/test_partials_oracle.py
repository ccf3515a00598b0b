"""One table of partials per field, and zero targets that skip the span.

`geometry._partials(Y)` is the table {a: {k: d_a Y^k}} of Y's nonzero
partials, and `geometry._derivative_along(X, table)` sums X^a d over X's
components and the table's column at a.  `lie_bracket` builds the two tables
it needs; `commutator_matches_brackets` and `connection_from_frame` build one
per field and read it at every pair.  `_FieldSpan.coordinates` gives a target
with no components the row () without `_row` or `reduce`.

This module compares the kernels with the pairwise kernel they replaced
(`helpers.pairwise_derivative_along`, one `diff` and one truth test per pair
of components), in value and in dict and term insertion order, on the
half-plane, GL2 and GL3 fields and on seeded rational fields; compares
`express_in_basis` on zero targets, and `NotInSpanError.index`, with the
route through `_row` and `reduce`; spies on `_row`; and compares whole
envelope reports with the route that takes every derivative pairwise and
every zero target through the span.
"""
import random

import pytest

from flataffine import Chart, VectorField, compute_envelope, lie_bracket
from flataffine import envelope, geometry, linalg
from flataffine.geometry import (
    NotInSpanError,
    _derivative_along,
    _partials,
    express_in_basis,
    independent_fields,
    product_table,
)
from helpers import (
    aff_line_connection,
    chart_xy,
    gln_scene,
    pairwise_derivative_along,
    pairwise_lie_bracket,
    random_rational_function,
    six_iat_fields,
)


def layout(components):
    """A sparse vector with its insertion order: each key with its value's
    numerator and denominator terms, in their insertion order."""
    return [(k, list(c.num.terms.items()), list(c.den.terms.items()))
            for k, c in components.items()]


def random_fields(seed):
    """Seeded fields on two or three variables: the zero field, components
    with true denominators, polynomials in one variable only and zeros."""
    rng = random.Random(f"partials-{seed}")
    chart = rng.choice([chart_xy(), Chart("xyz", ("x", "y", "z"))])
    fields = [VectorField.zero(chart)]
    for _ in range(5):
        coeffs = []
        for _ in range(chart.dim):
            kind = rng.randrange(3)
            if kind == 0:
                coeffs.append(random_rational_function(rng, chart, 2))
            elif kind == 1:
                var = rng.choice(chart.variables)
                coeffs.append(f"{rng.randint(-3, 3) or 1}*{var}^{rng.randint(1, 3)}"
                              f" + {rng.randint(-2, 2)}")
            else:
                coeffs.append(0)
        fields.append(VectorField(chart, coeffs))
    return fields


def field_set(kind):
    if kind == "halfplane":
        return six_iat_fields(chart_xy())[1]
    if kind == "gl2":
        scene = gln_scene(2)
        return scene.invariant_fields()[1] + scene.f_fields
    if kind == "gl3":
        scene = gln_scene(3)
        return random.Random(kind).sample(scene.invariant_fields()[1] + scene.f_fields, 12)
    return random_fields(kind)


KINDS = ["halfplane", "gl2", "gl3"] + list(range(6))


def test_the_seeded_fields_reach_every_case():
    fields = [f for seed in range(6) for f in random_fields(seed)]
    comps = [c for f in fields for c in f.components.values()]
    assert any(f.is_zero() for f in fields)
    assert any(not c.den.is_constant() for c in comps)
    # a component free of some variable, and so a column of a table shorter
    # than its field's components
    assert any(c.diff(v).num.is_zero() for c in comps for v in c.num.chart.variables)
    assert any(len(column) < len(f.components) for f in fields
               for column in _partials(f).values())


@pytest.mark.parametrize("kind", KINDS)
def test_partials_table_holds_the_nonzero_partials_in_component_order(kind):
    for Y in field_set(kind):
        table = _partials(Y)
        expected = {}
        for a, var in enumerate(Y.chart.variables):
            column = [(k, c.diff(var)) for k, c in Y.components.items() if c.diff(var)]
            if column:
                expected[a] = column
        assert {a: list(column.items()) for a, column in table.items()} == expected
        assert list(table) == sorted(table)
        # each partial is the memoized one
        assert all(d is Y.components[k].diff(Y.chart.variables[a])
                   for a, column in table.items() for k, d in column.items())


@pytest.mark.parametrize("kind", KINDS)
def test_derivative_along_a_table_matches_the_pairwise_kernel(kind):
    fields = field_set(kind)
    tables = [_partials(Y) for Y in fields]
    for X in fields:
        for Y, table in zip(fields, tables):
            assert layout(_derivative_along(X, table)) == \
                layout(pairwise_derivative_along(X, Y))


@pytest.mark.parametrize("kind", KINDS)
def test_lie_bracket_matches_the_pairwise_bracket(kind):
    fields = field_set(kind)
    for X in fields:
        for Y in fields:
            assert layout(lie_bracket(X, Y).components) == \
                layout(pairwise_lie_bracket(X, Y).components)


def test_partials_are_read_from_the_field_as_it_is_now():
    chart = chart_xy()
    Y = VectorField(chart, ["x^2", "y"])
    assert _partials(Y) == {0: {0: VectorField(chart, ["2*x", "0"]).components[0]},
                            1: {1: VectorField(chart, ["1", "0"]).components[0]}}
    Y.components[0] = VectorField(chart, ["x*y", "0"]).components[0]
    X = VectorField(chart, ["1", "1"])
    assert lie_bracket(X, Y) == pairwise_lie_bracket(X, Y)
    assert VectorField._of(chart, _derivative_along(X, _partials(Y))) == \
        VectorField(chart, ["x + y", "1"])


# ----- zero targets ----------------------------------------------------------------------


def span_coordinates(self, targets):
    """`_FieldSpan.coordinates` with every target, the zero field too, read
    through `_row` and `reduce`."""
    solutions = []
    for index, t in enumerate(targets):
        row = self._row(t.components)
        if row is not None:
            residual, scale = self._span.reduce(*row)
            if not residual or min(residual) >= self._top:
                solutions.append(tuple(sorted(
                    (self._last - m, x) for m, x in linalg._read(residual, scale).items())))
                continue
        raise NotInSpanError("target is not in the constant span of the basis", index=index)
    return solutions


def outcome(targets, basis):
    try:
        return express_in_basis(targets, basis)
    except NotInSpanError as err:
        return ("NotInSpanError", err.index, str(err))


def express_cases():
    chart = chart_xy()
    fields = six_iat_fields(chart)[1]
    zero = VectorField.zero(chart)
    outside = VectorField(chart, ["x^3", "0"])
    sum01 = fields[0] + fields[1]
    return [
        ([zero, fields[2], zero, sum01, zero], fields),
        # a dependent basis field gets coefficient zero
        ([zero, sum01 + fields[3], zero], [fields[0], fields[1], sum01, fields[3]]),
        # an empty basis
        ([zero, zero], []),
        ([zero, fields[0], zero], []),
        # a zero target before and after one outside the span
        ([zero, outside, zero], fields),
        ([outside, zero], fields),
        ([zero, zero, outside], fields),
        ([zero, fields[4], outside, zero], fields[:5]),
    ]


@pytest.mark.parametrize("case", range(len(express_cases())))
def test_zero_targets_match_the_route_through_the_span(case, monkeypatch):
    targets, basis = express_cases()[case]
    got = outcome(targets, basis)
    with monkeypatch.context() as patch:
        patch.setattr(geometry._FieldSpan, "coordinates", span_coordinates)
        expected = outcome(targets, basis)
    assert got == expected
    if isinstance(got, list):
        assert len(got) == len(targets)
        assert all(row == () for t, row in zip(targets, got) if t.is_zero())
    else:
        assert not targets[got[1]].is_zero()


def test_the_span_never_reads_a_zero_target(monkeypatch):
    row = geometry._FieldSpan._row
    seen = []
    monkeypatch.setattr(geometry._FieldSpan, "_row",
                        lambda self, components: seen.append(components) or row(self, components))
    scene = gln_scene(2)
    inv_names, inv_fields = scene.invariant_fields()
    names, fields = independent_fields(inv_fields + scene.f_fields, inv_names + scene.f_names)
    conn = scene.connect()
    ambient = product_table(conn, fields, names)
    products = [geometry.covariant_derivative(conn, X, Y) for X in fields for Y in fields]
    zeros = sum(p.is_zero() for p in products)
    assert len(fields) == 16 and zeros == 128
    assert len(seen) == 256 - zeros and all(seen)
    del seen[:]
    report = compute_envelope(conn, fields, names, [n for n in names if n.startswith("E")])
    assert report.ambient == ambient and all(report.checks.values())
    # the 120 brackets i < j, of which 50 are zero
    assert len(seen) == 120 - 50 and all(seen)
    for targets, basis in express_cases():
        outcome(targets, basis)
    assert all(seen)


# ----- whole reports ---------------------------------------------------------------------


def envelope_inputs(kind):
    """(connection, fields, names, generators), the connection built here, so
    that it is built by the route in force."""
    if kind == "halfplane":
        names, fields = six_iat_fields(chart_xy())
        return aff_line_connection(chart_xy()), fields, names, ["e1-", "e2-"]
    scene = gln_scene({"gl2": 2, "gl3": 3}[kind])
    inv_names, inv_fields = scene.invariant_fields()
    names, fields = independent_fields(inv_fields + scene.f_fields, inv_names + scene.f_names)
    return scene.connect(), fields, names, [n for n in names if n.startswith("E")]


@pytest.mark.parametrize("kind", ["halfplane", "gl2", "gl3"])
def test_envelope_report_matches_the_pairwise_route(kind, monkeypatch):
    conn, fields, names, generators = envelope_inputs(kind)
    got = compute_envelope(conn, fields, names, generators).to_json_dict()
    with monkeypatch.context() as patch:
        # every derivative along taken pairwise: a "table" is the field itself
        patch.setattr(geometry, "_partials", lambda Y: Y)
        patch.setattr(envelope, "_partials", lambda Y: Y)
        patch.setattr(geometry, "_derivative_along", pairwise_derivative_along)
        patch.setattr(geometry._FieldSpan, "coordinates", span_coordinates)
        old_conn, old_fields, old_names, old_generators = envelope_inputs(kind)
        expected = compute_envelope(old_conn, old_fields, old_names,
                                    old_generators).to_json_dict()
    assert old_conn == conn and old_fields == fields
    assert got == expected
    assert all(got["checks"].values())
