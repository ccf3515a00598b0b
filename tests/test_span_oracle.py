"""Span questions against the versions they replaced.

Every span question of the algebra and envelope layers now goes through one
sparse, fully reduced echelon kernel over Q, on integer rows
(`linalg._QSpan`): `express_in_basis` reduces the basis once and reads each
target off it,
`independent_fields` keeps the fields that add a pivot, `subalgebra_closure`
runs semi-naive rounds and `restrict_to_subspace` reads coordinates at the
pivot columns.  This module keeps the earlier versions as oracles: the
single-right-hand-side solve, the greedy "keep the field if it grows the
span" loop, `express_in_basis` and `restrict_to_subspace` on `solve`, and the
`rref`-rounds `subalgebra_closure`, and compares them with the production code
on seeded random inputs and on coordinate closures: the whole space, reached
partway through a round (GL2) or by spanning generators, and the half-plane
rank 5.  `Subspace.named_basis`, which reads the integer rows, is compared
with the dense scan it replaced.  `express_in_basis` answers in
`SCAlgebra.rows`' stored form: its rows are checked for that form, and made
dense (`helpers.dense_express`) they are compared with the oracle's solution
lists.
The module also keeps the per-slot denominator clearing that `_cleared`
replaced, the normalising quotient rule for polynomial derivatives and the
dict comparison of `Polynomial.is_one` as oracles for their fast paths.
`_FieldSpan` numbers the slots of the cleared numerators as it meets them, so
its rows are compared with the oracle's dense rows up to the order of the
columns.  The earlier oracles read the dense coordinate rows, which are kept
in `helpers.dense_coordinate_rows`.  `_FieldSpan.coordinates` tries a
target's new denominator by dividing the fields' common one by it, with no
lcm; one test counts the lcm calls and checks both outcomes against the
solve oracle.
"""
import random
from collections import Counter
from fractions import Fraction

import pytest

from flataffine import (
    Connection,
    DependentFieldsError,
    NotInSpanError,
    Polynomial,
    RationalFunction,
    SCAlgebra,
    Subspace,
    VectorField,
    geometry,
    linalg,
    parse_expr,
    product_table,
    restrict_to_subspace,
    solve_iat_ansatz,
    subalgebra_closure,
)
from flataffine.algebra import _to_vector
from flataffine.geometry import _cleared, _FieldSpan, express_in_basis, independent_fields
from flataffine.linalg import rank, rref, solve
from flataffine.symcore import exact_div, grlex_key, poly_lcm
from helpers import (
    assert_stored_row,
    assert_stored_vector,
    chart_xy,
    dense_coordinate_rows,
    dense_express,
    gln_scene,
    is_polynomial,
    random_polynomial,
    random_rational_function,
    six_field_table_algebra,
)


# ----- oracles -------------------------------------------------------------------------


def oracle_solve(rows, rhs, *, zero=Fraction(0)):
    """One exact solution of rows·x = rhs, or None when inconsistent."""
    if not rows:
        return None if any(e != zero for e in rhs) else []
    ncols = len(rows[0])
    augmented = [list(r) + [b] for r, b in zip(rows, rhs)]
    reduced, pivots = rref(augmented, zero=zero)
    if ncols in pivots:
        return None
    x = [zero] * ncols
    for i, c in enumerate(pivots):
        x[c] = reduced[i][ncols]
    return x


def oracle_independent_fields(fields, names):
    """Greedy sublist keeping each field that grows the span."""
    kept_fields, kept_names = [], []
    current_rank = 0
    for f, name in zip(fields, names):
        candidate = kept_fields + [f]
        r = rank(dense_coordinate_rows(candidate))
        if r > current_rank:
            kept_fields.append(f)
            kept_names.append(name)
            current_rank = r
    return kept_names, kept_fields


def oracle_coordinate_rows(fields):
    """Coordinates with one lcm and one exact division per coefficient slot."""
    if not fields:
        return []
    chart = fields[0].chart
    common = Polynomial.one(chart)
    for f in fields:
        for c in f.coeffs:
            common = poly_lcm(common, c.den)
    cleared = [[c.num * exact_div(common, c.den) for c in f.coeffs] for f in fields]
    axes = {(k, exps) for polys in cleared for k, p in enumerate(polys) for exps in p.terms}
    axis_list = sorted(axes, key=lambda a: (a[0],) + tuple(grlex_key(a[1])))
    return [[polys[k].terms.get(exps, Fraction(0)) for (k, exps) in axis_list]
            for polys in cleared]


def same_up_to_slot_numbering(rows, dense):
    """Whether the sparse rows {slot: x} hold no zero entry, number their
    slots 0, 1, ..., and, made dense, have the columns of the dense rows in
    some order."""
    slots = sorted({s for row in rows for s in row})
    if slots != list(range(len(slots))) or len(rows) != len(dense) \
            or not all(x for row in rows for x in row.values()):
        return False
    made_dense = [[row.get(s, Fraction(0)) for s in slots] for row in rows]
    return Counter(zip(*made_dense)) == Counter(zip(*dense))


def oracle_diff(f, variable):
    """The quotient rule through the normalising constructor."""
    return RationalFunction(f.num.diff(variable) * f.den - f.num * f.den.diff(variable),
                            f.den * f.den)


def oracle_is_one(p):
    return p.terms == {(0,) * p.chart.dim: Fraction(1)}


def oracle_express(target, basis):
    """Coordinates of one target, or None when it is outside the constant span."""
    rows = dense_coordinate_rows([target] + basis)
    columns = [[rows[1 + b][a] for b in range(len(basis))] for a in range(len(rows[0]))]
    return oracle_solve(columns, rows[0])


def oracle_express_in_basis(targets, basis):
    """All targets in one exact solve against the basis columns."""
    targets, basis = list(targets), list(basis)
    rows = dense_coordinate_rows(targets + basis)
    columns = [col[len(targets):] for col in zip(*rows)]
    solutions = solve(columns, rows[:len(targets)])
    for index, sol in enumerate(solutions):
        if sol is None:
            raise NotInSpanError(
                "target is not in the constant span of the basis", index=index)
    return solutions


def oracle_subalgebra_closure(A, generators):
    """Rounds of span <- span + span·span, each one rref of the rows and all
    their products, until the rank stays."""
    vectors = [list(_to_vector(g, A.dim)) for g in generators]
    rows, _ = rref(vectors)
    for _ in range(A.dim + 1):
        products = [list(A.product(u, v)) for u in rows for v in rows]
        new_rows, _ = rref(rows + products)
        if len(new_rows) == len(rows):
            return Subspace(A.dim, rows)
        rows = new_rows
    raise AssertionError("closure iteration ended on a non-closed span")


def oracle_restrict_to_subspace(A, space):
    """Every product of two rows solved against the rows in one `solve`."""
    rows = space.rows
    r = len(rows)
    basis_names = space.named_basis(A.basis_names) or [f"v{i + 1}" for i in range(r)]
    cols = [[row[c] for row in rows] for c in range(space.ambient_dim)]
    coords = solve(cols, [A.product(u, v) for u in rows for v in rows])
    if None in coords:
        raise ValueError("subspace is not closed under the product")
    return SCAlgebra(basis_names, [coords[i * r:(i + 1) * r] for i in range(r)])


def oracle_named_basis(space, ambient_names):
    """Names of the rows when each `Fraction` row is a unit vector."""
    names = []
    for row in space.rows:
        hot = [k for k, x in enumerate(row) if x]
        if len(hot) != 1 or row[hot[0]] != 1:
            return None
        names.append(ambient_names[hot[0]])
    return names


# ----- random inputs --------------------------------------------------------------------


def low_rank_matrix(rng, nrows, ncols, r):
    left = [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(nrows)]
    right = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
             for _ in range(r)]
    return [[sum(a * right[k][j] for k, a in enumerate(row)) for j in range(ncols)]
            for row in left]


def mixed_rhs(rng, rows, count):
    """Right-hand sides: images rows·x (consistent) mixed with random vectors."""
    ncols = len(rows[0])
    out = []
    for _ in range(count):
        if rng.random() < 0.5:
            x = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(ncols)]
            out.append([sum(a * b for a, b in zip(row, x)) for row in rows])
        else:
            out.append([Fraction(rng.randint(-4, 4)) for _ in rows])
    return out


def combination(rng, chart, fields):
    total = VectorField.zero(chart)
    for f in fields:
        lam = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        if lam:
            total = total + f.scaled(lam)
    return total


def field_list(rng, chart, nbase):
    """Base fields plus duplicates and constant combinations, shuffled."""
    base = [VectorField(chart, [random_rational_function(rng, chart, 2)
                                for _ in range(chart.dim)]) for _ in range(nbase)]
    fields = list(base)
    for _ in range(nbase):
        if rng.random() < 0.5:
            fields.append(rng.choice(base))
        else:
            fields.append(combination(rng, chart, rng.sample(base, rng.randint(1, nbase))))
    rng.shuffle(fields)
    return fields


# ----- comparisons ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_batched_solve_matches_single_rhs_oracle(seed):
    rng = random.Random(seed)
    consistent = inconsistent = 0
    for _ in range(25):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = low_rank_matrix(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
        rhs_list = mixed_rhs(rng, rows, rng.randint(0, 6))
        got = solve(rows, rhs_list)
        assert got == [oracle_solve(rows, rhs) for rhs in rhs_list]
        consistent += sum(1 for x in got if x is not None)
        inconsistent += sum(1 for x in got if x is None)
    assert consistent and inconsistent


def test_batched_solve_without_rows_or_rhs():
    assert solve([], [[], []]) == [[], []]
    rows = [[Fraction(1), Fraction(2)]]
    assert solve(rows, []) == []
    # an inconsistent first right-hand side takes a pivot; the second, a
    # multiple of it, must still be reported inconsistent
    rows = [[Fraction(1)], [Fraction(0)]]
    assert solve(rows, [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(2)],
                        [Fraction(3), Fraction(0)]]) == [None, None, [Fraction(3)]]


@pytest.mark.parametrize("seed", range(6))
def test_independent_fields_matches_greedy_oracle(seed):
    rng = random.Random(100 + seed)
    chart = chart_xy()
    fields = field_list(rng, chart, rng.randint(1, 4))
    names = [f"f{i}" for i in range(len(fields))]
    got = independent_fields(fields, names)
    assert got == oracle_independent_fields(fields, names)
    assert len(got[0]) == rank(dense_coordinate_rows(fields))


def test_independent_fields_edge_cases():
    chart = chart_xy()
    zero = VectorField.zero(chart)
    assert independent_fields([], []) == ([], [])
    assert independent_fields([zero, zero], ["a", "b"]) == \
        oracle_independent_fields([zero, zero], ["a", "b"]) == ([], [])
    with pytest.raises(ValueError):
        independent_fields([zero], ["a", "b"])


DENOMINATED = ("1/(x+1)", "y/(x+1)", "x*y + 1/(y+2)", "x/(y+2) - 1/(x+1)")


def plant_dependents(rng, fresh, zero, scale, size):
    """`size` items, fresh ones but for two or three planted at random
    positions: a zero, a scaled earlier item or a rational combination of
    earlier items (a zero where none comes earlier)."""
    planted = set(rng.sample(range(size), rng.randint(2, 3)))
    items = []
    for position in range(size):
        roll = rng.random()
        if position not in planted:
            items.append(fresh())
        elif not items or roll < 0.2:
            items.append(zero)
        elif roll < 0.5:
            items.append(scale(rng.choice(items), Fraction(rng.choice((-3, -1, 2, 5)),
                                                           rng.randint(1, 4))))
        else:
            total = zero
            for item in rng.sample(items, rng.randint(1, len(items))):
                total = total + scale(item, Fraction(rng.choice((-2, -1, 1, 3)),
                                                     rng.randint(1, 3)))
            items.append(total)
    return items


def fresh_term(rng, chart):
    """A random rational function, or a polynomial plus a multiple of a term
    whose denominator is not 1."""
    if rng.random() < 0.5:
        return random_rational_function(rng, chart, 2)
    return (RationalFunction(random_polynomial(rng, chart, 2))
            + parse_expr(rng.choice(DENOMINATED), chart) * Fraction(rng.randint(1, 5)))


def first_dropped(kept, names):
    """The first name that a kept sublist leaves out, and how many it leaves out."""
    dropped = [name for name in names if name not in kept]
    return dropped[0], len(dropped)


@pytest.mark.parametrize("seed", range(6))
def test_dependent_index_is_the_first_one_the_greedy_oracle_drops(seed):
    """`solve_iat_ansatz` and `product_table` report the first dependent
    entry, not a later one: every list holds at least two."""
    rng = random.Random(800 + seed)
    chart = chart_xy()
    conn = Connection.zero(chart)
    for _ in range(4):
        terms = plant_dependents(rng, lambda: fresh_term(rng, chart),
                                 RationalFunction.zero(chart), lambda t, lam: t * lam,
                                 rng.randint(3, 7))
        probe = [VectorField(chart, [t, 0]) for t in terms]
        index, count = first_dropped(
            oracle_independent_fields(probe, range(len(terms)))[0], range(len(terms)))
        assert count >= 2
        with pytest.raises(DependentFieldsError, match="ansatz terms are linearly dependent") \
                as err:
            solve_iat_ansatz(conn, terms)
        assert err.value.index == index

        fields = plant_dependents(
            rng, lambda: VectorField(chart, [fresh_term(rng, chart), fresh_term(rng, chart)]),
            VectorField.zero(chart), lambda f, lam: f.scaled(lam), rng.randint(3, 7))
        names = [f"f{k}" for k in range(len(fields))]
        kept = independent_fields(fields, names)
        assert kept == oracle_independent_fields(fields, names)
        name, count = first_dropped(kept[0], names)
        assert count >= 2
        with pytest.raises(DependentFieldsError) as err:
            product_table(conn, fields, names)
        assert err.value.index == names.index(name)
        assert str(err.value) == \
            f"field {name!r} is a constant combination of the fields before it"


@pytest.mark.parametrize("seed", range(6))
def test_express_in_basis_matches_one_target_at_a_time(seed):
    rng = random.Random(200 + seed)
    chart = chart_xy()
    basis = field_list(rng, chart, rng.randint(1, 3))
    targets = []
    for _ in range(6):
        if rng.random() < 0.6:
            targets.append(combination(rng, chart, basis))
        else:
            targets.append(VectorField(chart, [random_rational_function(rng, chart, 2)
                                               for _ in range(chart.dim)]))
    expected = [oracle_express(t, basis) for t in targets]
    if None in expected:
        with pytest.raises(NotInSpanError) as err:
            express_in_basis(targets, basis)
        assert err.value.index == expected.index(None)
    else:
        assert dense_express(targets, basis) == expected
    inside = [t for t, e in zip(targets, expected) if e is not None]
    assert dense_express(inside, basis) == [e for e in expected if e is not None]
    for row in express_in_basis(inside, basis):
        assert_stored_row(row, len(basis))


def test_express_in_basis_with_empty_basis():
    chart = chart_xy()
    assert express_in_basis([], []) == []
    with pytest.raises(NotInSpanError) as err:
        express_in_basis([VectorField.zero(chart), VectorField(chart, ["x", "0"])], [])
    assert err.value.index == 1


def shared_denominator_fields(rng, chart):
    """Fields whose coefficients share a few denominators, with zero slots.

    The pool holds 1, a constant (normalised to 1) and up to three
    non-constant denominators, one of them possibly with an associate; some
    coefficients are fresh random rational functions and some fields are zero.
    """
    pool = [Polynomial.one(chart), Polynomial.constant(chart, 3)]
    while len(pool) < rng.randint(3, 5):
        den = random_polynomial(rng, chart, 2, 2)
        if not den.is_constant():
            pool.append(den)
    if rng.random() < 0.5:
        pool.append(pool[-1] * Fraction(-2, 3))
    fields = []
    for _ in range(rng.randint(1, 8)):
        if rng.random() < 0.15:
            fields.append(VectorField.zero(chart))
            continue
        coeffs = []
        for _ in range(chart.dim):
            roll = rng.random()
            if roll < 0.25:
                coeffs.append(RationalFunction.zero(chart))
            elif roll < 0.8:
                coeffs.append(RationalFunction(random_polynomial(rng, chart, 2),
                                               rng.choice(pool)))
            else:
                coeffs.append(random_rational_function(rng, chart, 2))
        fields.append(VectorField(chart, coeffs))
    return fields


def dense_numerators(numerators):
    """`_cleared`'s sparse numerators made dense in the oracle's column order."""
    axes = {(k, exps) for polys in numerators for k, p in polys.items() for exps in p.terms}
    axis_list = sorted(axes, key=lambda a: (a[0],) + tuple(grlex_key(a[1])))
    return [[polys[k].terms.get(exps, Fraction(0)) if k in polys else Fraction(0)
             for (k, exps) in axis_list] for polys in numerators]


def span_rows(chart, fields):
    """The rows {slot: x} of the fields' cleared numerators, at the slots
    that `_FieldSpan` numbered."""
    slots = _FieldSpan(chart, fields)._slots
    numerators = _cleared(chart, [f.components for f in fields])[2]
    return [{slots[(k, exps)]: x for k, p in polys.items() for exps, x in p.terms.items()}
            for polys in numerators]


@pytest.mark.parametrize("seed", range(8))
def test_coordinate_rows_match_per_slot_clearing(seed):
    rng = random.Random(300 + seed)
    chart = chart_xy()
    distinct = 0
    for _ in range(12):
        fields = shared_denominator_fields(rng, chart)
        numerators = _cleared(chart, [f.components for f in fields])[2]
        assert all(p for polys in numerators for p in polys.values())
        assert dense_numerators(numerators) == oracle_coordinate_rows(fields)
        assert same_up_to_slot_numbering(span_rows(chart, fields), oracle_coordinate_rows(fields))
        distinct = max(distinct, len({c.den for f in fields for c in f.coeffs if c}))
    assert distinct >= 3


def test_coordinate_rows_of_zero_and_polynomial_fields():
    chart = chart_xy()
    zero = VectorField.zero(chart)
    assert _cleared(chart, [zero.components, zero.components])[2] == [{}, {}]
    assert _FieldSpan(chart, [zero, zero])._slots == {}
    assert oracle_coordinate_rows([zero, zero]) == [[], []]
    fields = [VectorField(chart, ["x^2", "0"]), zero, VectorField(chart, ["2", "x*y"])]
    common, multiplier, numerators = _cleared(chart, [f.components for f in fields])
    assert common.is_one() and multiplier is None
    assert dense_numerators(numerators) == oracle_coordinate_rows(fields)
    assert same_up_to_slot_numbering(span_rows(chart, fields), oracle_coordinate_rows(fields))


@pytest.mark.parametrize("seed", range(4))
def test_diff_matches_normalising_quotient_rule(seed):
    rng = random.Random(400 + seed)
    chart = chart_xy()
    polynomial = 0
    for _ in range(40):
        if rng.random() < 0.5:
            f = RationalFunction(random_polynomial(rng, chart))
        else:
            f = random_rational_function(rng, chart)
        polynomial += is_polynomial(f)
        for v in chart.variables:
            got, want = f.diff(v), oracle_diff(f, v)
            assert got.num.sorted_terms() == want.num.sorted_terms()
            assert got.den.sorted_terms() == want.den.sorted_terms()
    assert 0 < polynomial < 40


def test_is_one_matches_dict_comparison():
    chart = chart_xy()
    x = Polynomial.variable(chart, "x")
    cases = [Polynomial.zero(chart), Polynomial.one(chart), Polynomial.constant(chart, 2),
             x + 1, x, Polynomial.constant(chart, Fraction(1, 2)) * 2]
    assert [p.is_one() for p in cases] == [oracle_is_one(p) for p in cases] \
        == [False, True, False, False, False, True]


def test_coordinate_rows_take_one_lcm_per_distinct_denominator(monkeypatch):
    calls = []

    def counting_lcm(p, q):
        calls.append(q)
        return poly_lcm(p, q)

    monkeypatch.setattr(geometry, "poly_lcm", counting_lcm)
    chart = chart_xy()
    _cleared(chart, [{}] * 5)
    _FieldSpan(chart, [VectorField.zero(chart)] * 5)
    assert calls == []
    fields = [VectorField(chart, [f"{k}/x", f"{k}/(x*y)"]) for k in range(1, 51)]
    numerators = _cleared(chart, [f.components for f in fields])[2]
    assert sorted(map(str, calls)) == ["x", "x*y"]
    assert dense_numerators(numerators) == oracle_coordinate_rows(fields)
    calls.clear()
    _FieldSpan(chart, fields)
    assert sorted(map(str, calls)) == ["x", "x*y"]
    assert same_up_to_slot_numbering(span_rows(chart, fields), oracle_coordinate_rows(fields))


# ----- the echelon kernel in the algebra layer -------------------------------------------


def sparse_algebra(rng, dim, *, fractional, nilpotent):
    """Constants with few nonzero cells; `nilpotent` keeps c[i][j][k] = 0
    unless k > max(i, j), so closures of late basis vectors stay small."""
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(max(i, j) + 1 if nilpotent else 0, dim):
                if rng.random() < 0.2:
                    c[i][j][k] = Fraction(rng.choice((-3, -1, 1, 2)),
                                          rng.randint(1, 4) if fractional else 1)
    return SCAlgebra([f"b{k + 1}" for k in range(dim)], c)


def sparse_vector(rng, dim, start=0):
    return [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if k >= start and rng.random() < 0.4 else Fraction(0) for k in range(dim)]


def restrict_outcome(restrict, A, space):
    try:
        return restrict(A, space)
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("seed", range(12))
def test_closure_and_restriction_match_rref_and_solve_oracles(seed):
    rng = random.Random(500 + seed)
    dim = rng.randint(3, 7)
    A = sparse_algebra(rng, dim, fractional=seed % 2 == 1, nilpotent=seed % 3 != 0)
    partial = not_closed = 0
    for _ in range(6):
        start = rng.randrange(dim) if seed % 3 != 0 else 0
        gens = [sparse_vector(rng, dim, start) for _ in range(rng.randint(0, 3))]
        closure = subalgebra_closure(A, gens)
        assert closure == oracle_subalgebra_closure(A, gens)
        assert type(closure.rows) is tuple
        for row in closure.rows:
            assert_stored_vector(row)
        partial += closure.rank < dim
        restricted = restrict_to_subspace(A, closure)
        assert restricted == oracle_restrict_to_subspace(A, closure)
        # a random span, usually not closed: the same algebra or the same error
        space = Subspace(dim, [sparse_vector(rng, dim) for _ in range(rng.randint(1, dim))])
        got = restrict_outcome(restrict_to_subspace, A, space)
        assert got == restrict_outcome(oracle_restrict_to_subspace, A, space)
        not_closed += isinstance(got, str)
    if seed % 3 != 0:
        assert partial
    if seed % 3 == 0:
        assert not_closed


@pytest.mark.parametrize("left", [True, False])
def test_closure_multiplies_new_vectors_by_old_ones_on_both_sides(left):
    # b1·b1 = b2, and b3 is only b2·b1 (left) or only b1·b2: the product of
    # the second round's new vector b2 with the old b1, in one order
    c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    c[0][0][1] = Fraction(1)
    if left:
        c[1][0][2] = Fraction(1)
    else:
        c[0][1][2] = Fraction(1)
    A = SCAlgebra(["b1", "b2", "b3"], c)
    closure = subalgebra_closure(A, [[1, 0, 0]])
    assert closure.rank == 3
    assert closure == oracle_subalgebra_closure(A, [[1, 0, 0]])


def test_restriction_of_a_span_that_is_not_closed_raises():
    # b1·b1 = b2 leaves span{b1}
    A = SCAlgebra(["b1", "b2"], [[[0, 1], [0, 0]], [[0, 0], [0, 0]]])
    space = Subspace(2, [[1, 0]])
    for restrict in (restrict_to_subspace, oracle_restrict_to_subspace):
        with pytest.raises(ValueError, match="not closed"):
            restrict(A, space)


def coordinate_closures():
    """Closures whose echelon rows are unit vectors: the whole space, reached
    partway through a round (the GL2 envelope's 16-field table and its seven
    generators E*) or by generators that span it (seeded), and the
    half-plane rank-5 closure of e1-, e2-."""
    scene = gln_scene(2)
    inv_names, inv_fields = scene.invariant_fields()
    names, fields = independent_fields(inv_fields + scene.f_fields, inv_names + scene.f_names)
    A = product_table(scene.connect(), fields, names)
    generators = [A.basis_vector(i) for i, name in enumerate(names) if name.startswith("E")]
    assert len(generators) == 7
    yield "gl2-envelope", A, generators, 16
    for seed in range(4):
        rng = random.Random(f"spanning-{seed}")
        dim = rng.randint(3, 6)
        yield (f"spanning-{seed}", sparse_algebra(rng, dim, fractional=True, nilpotent=False),
               [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)]
                for _ in range(dim)], dim)
    A = six_field_table_algebra()
    yield "half-plane", A, [A.basis_vector(0), A.basis_vector(1)], 5


COORDINATE_CLOSURES = {name: case for name, *case in coordinate_closures()}


@pytest.mark.parametrize("name", COORDINATE_CLOSURES)
def test_coordinate_closures_and_restrictions_match_the_oracles(name):
    A, generators, rank = COORDINATE_CLOSURES[name]
    closure = subalgebra_closure(A, generators)
    assert closure == oracle_subalgebra_closure(A, generators)
    assert closure.rank == rank
    assert closure.named_basis(A.basis_names) is not None
    restricted = restrict_to_subspace(A, closure)
    assert restricted == oracle_restrict_to_subspace(A, closure)
    for row in restricted.rows:
        for cell in row:
            assert_stored_row(cell, restricted.dim)


def test_gl2_closure_stops_adding_at_full_rank(monkeypatch):
    # the rank reaches 16 at the 28th vector formed (generators and
    # products); 6 of them are zero products, which are skipped, so 22 are
    # added.  Run to the end of its rounds, the closure added 263
    A, generators, _ = COORDINATE_CLOSURES["gl2-envelope"]
    adds = []
    add = linalg._QSpan.add
    monkeypatch.setattr(linalg._QSpan, "add", lambda span, vec: adds.append(vec) or add(span, vec))
    assert subalgebra_closure(A, generators).rank == 16
    assert len(adds) == 22 and all(adds)


@pytest.mark.parametrize("name", ["gl2-envelope", "half-plane"])
def test_restriction_of_a_coordinate_span_that_is_not_closed(name):
    # the generators' own span: a coordinate span that their products leave
    A, generators, rank = COORDINATE_CLOSURES[name]
    space = Subspace(A.dim, generators)
    assert space.named_basis(A.basis_names) is not None and space.rank < rank
    got = restrict_outcome(restrict_to_subspace, A, space)
    assert got == restrict_outcome(oracle_restrict_to_subspace, A, space)
    assert got == "subspace is not closed under the product"


def test_subspace_rows_are_the_canonical_rref():
    rng = random.Random(600)
    for _ in range(30):
        dim = rng.randint(1, 6)
        vectors = [sparse_vector(rng, dim) for _ in range(rng.randint(0, 5))]
        reduced, _ = rref([list(v) for v in vectors])
        assert Subspace(dim, vectors).rows == tuple(tuple(r) for r in reduced)


def test_named_basis_matches_the_dense_scan():
    # named_basis reads the integer rows: one entry each, so each is some e_p
    rng = random.Random(601)
    coordinate = 0
    for _ in range(60):
        dim = rng.randint(1, 6)
        names = [f"b{k + 1}" for k in range(dim)]
        axes = rng.sample(range(dim), rng.randint(0, dim))
        vectors = [[Fraction(rng.choice((1, 2, -2, 3))) if k == p else Fraction(0)
                    for k in range(dim)] for p in axes]
        if rng.random() < 0.5:
            vectors.append(sparse_vector(rng, dim))
        space = Subspace(dim, vectors)
        assert space.named_basis(names) == oracle_named_basis(space, names)
        coordinate += space.named_basis(names) is not None
    assert 0 < coordinate < 60   # both kinds of span occur


# ----- the echelon kernel in the coordinate layer ----------------------------------------


def express_outcome(express, targets, basis):
    try:
        return express(targets, basis)
    except NotInSpanError as err:
        return ("not in span", err.index)


@pytest.mark.parametrize("seed", range(8))
def test_express_in_basis_matches_the_solve_oracle(seed):
    rng = random.Random(700 + seed)
    chart = chart_xy()
    outside = dependent = 0
    for _ in range(4):
        basis = field_list(rng, chart, rng.randint(1, 3))
        targets = [combination(rng, chart, basis) for _ in range(rng.randint(0, 5))]
        if rng.random() < 0.5:
            targets.insert(rng.randint(0, len(targets)), VectorField(
                chart, [random_rational_function(rng, chart, 2) for _ in range(chart.dim)]))
        got = express_outcome(dense_express, targets, basis)
        assert got == express_outcome(oracle_express_in_basis, targets, basis)
        if isinstance(got, tuple):
            outside += 1
            continue
        for row in express_in_basis(targets, basis):
            assert_stored_row(row, len(basis))
        # a basis field that depends on the ones before it gets coefficient zero
        kept = set(independent_fields(basis, list(range(len(basis))))[0])
        dependent += len(basis) - len(kept)
        for solution in got:
            assert len(solution) == len(basis)
            assert all(x == 0 for b, x in enumerate(solution) if b not in kept)
            assert_stored_vector(solution)
    assert outside or dependent


def test_express_in_basis_edge_cases_match_the_solve_oracle():
    chart = chart_xy()
    x_field, y_field = VectorField(chart, ["x", "0"]), VectorField(chart, ["0", "y"])
    cases = [([], []), ([VectorField.zero(chart)], []), ([x_field], []),
             ([x_field, x_field.scaled(2)], [x_field, x_field.scaled(3)]),
             ([y_field, x_field], [x_field])]
    for targets, basis in cases:
        assert express_outcome(dense_express, targets, basis) == \
            express_outcome(oracle_express_in_basis, targets, basis)
    assert dense_express([x_field.scaled(2)], [x_field, x_field.scaled(3)]) == \
        [[Fraction(2), Fraction(0)]]
    assert express_outcome(express_in_basis, [y_field, x_field], [x_field]) == \
        ("not in span", 0)
    # with no nonzero coordinate at all, each solution still has one entry per
    # basis field (the solve oracle returned empty lists here)
    zero = VectorField.zero(chart)
    assert dense_express([zero], [zero, zero]) == [[Fraction(0), Fraction(0)]]


def test_targets_are_read_over_the_basis_denominator():
    """A target is cleared over the basis's common denominator: one with a
    denominator no basis component has but that divides it, one whose
    denominator does not divide it, one with a monomial at no basis slot and
    one over a polynomial basis, each against the solve oracle."""
    chart = chart_xy()
    basis = [VectorField(chart, ["1/x + 1/y", "0"]), VectorField(chart, ["1/y", "0"])]
    polynomial_basis = [VectorField(chart, ["x", "0"]), VectorField(chart, ["0", "y"])]
    cases = [
        ([VectorField(chart, ["1/x", "0"])], basis),
        ([VectorField(chart, ["2/x - 3/y", "0"]), VectorField(chart, ["1/(x+1)", "0"])], basis),
        ([VectorField(chart, ["1/y", "0"]), VectorField(chart, ["0", "1/y"])], basis),
        ([VectorField(chart, ["x", "y"]), VectorField(chart, ["1/x", "0"])], polynomial_basis),
        ([VectorField(chart, ["x^2", "0"])], polynomial_basis),
    ]
    for targets, fields in cases:
        got = express_outcome(dense_express, targets, fields)
        assert got == express_outcome(oracle_express_in_basis, targets, fields)
    assert dense_express([VectorField(chart, ["1/x", "0"])], basis) == \
        [[Fraction(1), Fraction(-1)]]
    assert express_outcome(express_in_basis, cases[1][0], basis) == ("not in span", 1)
    assert express_outcome(express_in_basis, cases[2][0], basis) == ("not in span", 1)
    assert express_outcome(express_in_basis, cases[3][0], polynomial_basis) == \
        ("not in span", 1)


def test_coordinates_decide_divisibility_without_an_lcm(monkeypatch):
    """A target's denominator that no field has is tried by dividing the
    fields' common denominator by it: `_FieldSpan.coordinates` takes no lcm,
    still refuses a denominator that does not divide the common one and
    reads the same coordinates as the solve oracle for one that does."""
    calls = []

    def counting_lcm(p, q):
        calls.append(q)
        return poly_lcm(p, q)

    chart = chart_xy()
    basis = [VectorField(chart, ["1/x + 1/y", "0"]), VectorField(chart, ["1/y", "0"])]
    divides = [VectorField(chart, ["1/x", "0"]), VectorField(chart, ["2/x - 3/y", "0"])]
    does_not = [VectorField(chart, ["1/x", "0"]), VectorField(chart, ["1/(x+1)", "0"])]
    expected = [express_outcome(oracle_express_in_basis, targets, basis)
                for targets in (divides, does_not)]
    spans = [_FieldSpan(chart, basis) for _ in range(2)]
    monkeypatch.setattr(geometry, "poly_lcm", counting_lcm)
    got = [express_outcome(lambda targets, _: span.coordinates(targets), targets, basis)
           for span, targets in zip(spans, (divides, does_not))]
    assert calls == []
    dense = [[dict(row).get(k, Fraction(0)) for k in range(len(basis))] for row in got[0]]
    assert [dense, got[1]] == expected
    assert got[1] == ("not in span", 1)
