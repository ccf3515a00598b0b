"""The covariant-derivative kernel against the hand-written sums it replaced.

`covariant_derivative`, `curvature`, the IAT residuals, `product_table` and
the round trip of `connection_from_frame` all contract Christoffel symbols
through one kernel, `geometry._nabla_coordinate`, on the sparse rows
`Connection._rows` and sparse field components {k: value}; the kernel's
outputs are made dense here before they are compared.  `connection_from_frame`
builds its products with `geometry._combination`.  This module keeps the
earlier versions, each of which wrote the contraction out by hand over the
dense symbols (`helpers.dense_gamma`), as oracles and compares them value by
value on seeded random
connections in dimensions 1 to 3 (all-zero, sparse and dense symbols,
polynomial and non-polynomial entries), on fields with zero slots, on the
half-plane frame connections and on the GL2 frame connection.  Two tests
break the frame connection on purpose, through a lost derivative or a wrong
inverse, and check that its round trip refuses the result.  `connection_from_frame` is compared with the
earlier version, which inverted the frame matrix and multiplied dense
matrices for every frame, on seeded frames in dimensions 1 to 3 and on the
GL3 frame; it now inverts the frame matrix only when some Christoffel part is
nonzero.  `Frame` proves its matrix nonsingular by its rank at one integer
point and takes the rank over Q(x) only when that point cannot; its verdict
is compared with the rank over Q(x) on seeded dense binomial matrices,
singular ones included.  The point's matrix is built from the fields'
nonzero components only; the dense evaluation of every entry that it
replaced is kept as an oracle and gives the same verdict on seeded
polynomial and rational frames, on frames with a pole or a vanishing
determinant at the point, and on a singular frame.  Wherever no denominator
vanishes, the certificate's matrix, evaluated in stored rationals, is the
dense `Fraction` evaluation entry by entry, with an int exactly where an
entry is integral.  The oracles here sum through `helpers.oracle_add_at`,
the accumulator that tests every summand for zero.

`solve_iat_ansatz` is compared with the earlier solver, which ran the full
residual over all n^2 coordinate pairs on every one-slot candidate t·d_s, on
the half-plane frame connections with shuffled subsets of the example
ansatz, on the zero connection with random polynomial and rational terms and
on the GL2 and GL3 frame connections.  Both the solver and `_iat_residuals`
use only the pairs i <= j, which the flatness of every connection they accept
makes sufficient; two tests check that reason on the oracle itself.  The
solver now sums each candidate's residuals from per-term Hessians
(`geometry._hessian`) and per-slot connection terms (`geometry._slot_terms`);
the solver before that split, and the `linalg._nullspace_rows` that reduced
every free column's vector, are kept verbatim as oracles too.  They are
compared on shuffled ansätze over the half-plane and GL3 connections and
over the flat connection of a commuting frame on three variables, whose
symbols are nonzero and not all constant, with polynomial and rational
terms that make the Hessian's correction, the middle terms and the
connection terms each nonzero; four hand-made mutants of those parts
(no doubling at a = b, either gamma-gamma sum dropped, no Hessian
correction) must change the solver's output.  `_slot_terms` now reads its
connection term A_s off `_iat_residuals`, as the residual table of the
coordinate field d_s; the version that wrote out the derivatives and both
gamma-gamma sums by hand is kept verbatim as `previous_slot_terms` and
compared slot by slot on the commuting-frame, half-plane, GL2 and GL3
connections, where A_s is also checked against the residuals of d_s.
`_nullspace_rows`, which now builds each touched free column's vector in
integers, is compared with the version that built it from `Fraction`s on
the empty span, on spans with untouched and with touched free columns and
on spans with no free column.

A field stores only its nonzero components, and `==` compares those dicts,
so the last tests check that field arithmetic, brackets, covariant
derivatives, product-table products and solver outputs keep no zero value,
including results that cancel, and that equal fields hash alike whatever the
order of their keys.  The field constructor, which coerces, checks and keeps
each coefficient in one pass, is compared with the three-pass constructor it
replaced on seeded mixes of str, int, `Fraction`, `Polynomial` and
`RationalFunction` coefficients, zeros, foreign charts, bad strings and
wrong lengths: the same components in the same order, or the same exception
with the same message.  One case per kind of coefficient (str, int,
`Fraction`, `Polynomial`, a `RationalFunction` on the field's chart, on an
equal copy of it and on a foreign chart, an unreadable value, and the shared
0 of the field's chart, of an equal copy and of a foreign chart) pins the
components or the error, in a list of the right length and in a too-long
one; a list of the chart's shared 0 alone gives the zero field or the
length error.

A connection stores its symbols as rows only.  The dense constructor,
`from_sparse` and `connection_from_frame` must build the same rows, dense
symbols, value, hash and tensor reports on the seeded random connections and
frames, and torsion, which reads mirror symbols from the rows, must match a
dense oracle.

Two shortcuts hold on an affine chart, one with no Christoffel symbol.
`_affine_certificate` passes an affine field there without its residuals;
on GL3's frame connection, aff(3) and `Connection.zero`, with seeded
affine, quadratic and rational fields, its verdict and witness are those of
the residuals and of the full-scan oracle, and `product_table` builds the
same tables and witnesses with the certificate switched off.  A planted
certificate that skips the symbol test passes d/dx on the half-plane
connection nabla11, which fails at (1, 1); the comparison catches it.
`connection_from_frame` subtracts E_a(E_b) from a defining product only
where the two differ; the kernel that subtracted everywhere is kept as an
oracle, and the rows agree on seeded frames with zero and nonzero gamma.
"""
import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from flataffine import (
    Chart,
    Connection,
    Frame,
    NotFlatError,
    Polynomial,
    RationalFunction,
    SingularFrameError,
    VectorField,
    connection_from_frame,
    covariant_derivative,
    curvature,
    is_flat_affine,
    is_infinitesimal_affine,
    lie_bracket,
    solve_iat_ansatz,
)
from flataffine.geometry import (
    _first_derivatives, _iat_residuals, _iat_witness, _nabla_coordinate)
from flataffine import geometry, linalg
from flataffine.symcore import require_same_chart
from helpers import (
    aff_frame,
    aff_line_connection,
    aff_line_lsa,
    aff_scene,
    alpha_connection,
    assert_stored_vector,
    alpha_family,
    chart_xy,
    dense_component_rows,
    dense_constants,
    dense_coordinate_rows,
    dense_gamma,
    field_span_rank,
    gln_scene,
    mat_mul,
    oracle_add_at,
    pairwise_derivative_along,
    random_algebra,
    random_polynomial,
    random_rational_function,
    six_iat_fields,
    zero_algebra,
)

EXAMPLE_TASKS = Path(__file__).resolve().parent.parent / "docs" / "example-tasks.json"


# ----- oracles -------------------------------------------------------------------------


def oracle_covariant_derivative(conn, X, Y):
    """nabla_X Y with components sum_i X^i d_i Y^k + sum_{i,j} gamma[i][j][k] X^i Y^j."""
    require_same_chart(conn, X)
    require_same_chart(conn, Y)
    chart = conn.chart
    n = chart.dim
    gamma = dense_gamma(conn)
    out = [RationalFunction.zero(chart) for _ in range(n)]
    for i, xi in enumerate(X.coeffs):
        if xi.is_zero():
            continue
        var = chart.variables[i]
        for k in range(n):
            dk = Y.coeffs[k].diff(var)
            if dk:
                out[k] = out[k] + xi * dk
        for j, yj in enumerate(Y.coeffs):
            if yj.is_zero():
                continue
            xy = xi * yj
            for k in range(n):
                g = gamma[i][j][k]
                if g:
                    out[k] = out[k] + g * xy
    return VectorField(chart, out)


def oracle_curvature(conn):
    """All n^4 components R^l_{ijk} of R(d_i, d_j) d_k, zeros included, as a
    dict keyed by 1-based index tuples (computed afresh, not cached).

    R^l_{ijk} = d_i gamma^l_{jk} - d_j gamma^l_{ik}
                + sum_m (gamma^l_{im} gamma^m_{jk} - gamma^l_{jm} gamma^m_{ik}).
    """
    chart = conn.chart
    n = chart.dim
    gamma = dense_gamma(conn)
    comps = {}
    for l in range(n):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    term = gamma[j][k][l].diff(chart.variables[i]) \
                        - gamma[i][k][l].diff(chart.variables[j])
                    for m in range(n):
                        a = gamma[i][m][l]
                        b = gamma[j][k][m]
                        if a and b:
                            term = term + a * b
                        a = gamma[j][m][l]
                        b = gamma[i][k][m]
                        if a and b:
                            term = term - a * b
                    comps[(l + 1, i + 1, j + 1, k + 1)] = term
    return comps


def oracle_nabla_coordinate(conn, axis, X):
    """nabla_{d_axis} X without building the coordinate field."""
    chart = conn.chart
    var = chart.variables[axis]
    n = chart.dim
    gamma = dense_gamma(conn)
    out = []
    for k in range(n):
        total = X.coeffs[k].diff(var)
        for m, xm in enumerate(X.coeffs):
            g = gamma[axis][m][k]
            if g and xm:
                total = total + g * xm
        out.append(total)
    return VectorField(chart, out)


def oracle_iat_residuals(conn, X):
    """residual(i, j) = nabla_{d_i} nabla_{d_j} X - nabla_{(nabla_{d_i} d_j)} X."""
    chart = conn.chart
    n = chart.dim
    gamma = dense_gamma(conn)
    first = [oracle_nabla_coordinate(conn, j, X) for j in range(n)]
    residuals = []
    for i in range(n):
        for j in range(n):
            field = oracle_nabla_coordinate(conn, i, first[j])
            for m in range(n):
                g = gamma[i][j][m]
                if g:
                    field = field - first[m].scaled(g)
            residuals.append(((i + 1, j + 1), field))
    return residuals


def oracle_solve_iat_ansatz(conn, ansatz):
    """Nullspace basis of the IAT equations on the one-slot candidates t·d_s
    (slot-major), from each candidate's residuals over all n^2 pairs."""
    if not is_flat_affine(conn):
        raise NotFlatError("the ansatz solver requires a flat affine connection")
    chart = conn.chart
    n = chart.dim
    probe = [VectorField(chart, [t] + [0] * (n - 1)) for t in ansatz]
    if linalg.rank(dense_coordinate_rows(probe)) != len(probe):
        raise ValueError("ansatz terms are linearly dependent")
    zero = RationalFunction.zero(chart)
    candidates = [VectorField(chart, [p.coeffs[0] if k == slot else zero for k in range(n)])
                  for slot in range(n) for p in probe]
    residuals = [[list(field.coeffs) for _, field in oracle_iat_residuals(conn, cand)]
                 for cand in candidates]
    equations = []
    for residuals_at_pair in zip(*residuals):
        equations.extend(zip(*dense_component_rows(chart, residuals_at_pair)))
    solutions = []
    for vec in linalg.nullspace(equations, ncols=len(candidates)):
        field = VectorField.zero(chart)
        for w, cand in zip(vec, candidates):
            if w:
                field = field + cand.scaled(w)
        solutions.append(field)
    return solutions


def previous_nullspace_rows(span, ncols):
    """`linalg._nullspace_rows` before unit rows were merged in by pivot:
    every free column's vector goes through the second `_QSpan`."""
    pivots = span.rows
    basis = {f: {f: 1} for f in range(ncols) if f not in pivots}
    for p, row in pivots.items():
        a = row[p]
        for f, x in row.items():
            if f != p:
                basis[f][p] = -x if a == 1 else Fraction(-x, a)
    null = linalg._QSpan()
    for vec in basis.values():
        null.add(linalg._integral(vec)[0])
    return null.basis()


def previous_solve_iat_ansatz(conn, ansatz):
    """The solver before its residuals were split into per-term Hessians and
    per-slot connection terms: each candidate's first derivatives and
    residuals built on their own, at every pair i <= j."""
    if not is_flat_affine(conn):
        raise NotFlatError(NotFlatError.ANSATZ)
    chart = conn.chart
    n = chart.dim
    terms = [geometry._as_rf(chart, t) for t in ansatz]
    probe = [VectorField._of(chart, {0: t} if t else {}) for t in terms]
    kept, _ = geometry.independent_fields(probe, range(len(terms)))
    if len(kept) != len(terms):
        raise geometry.DependentFieldsError("ansatz terms are linearly dependent",
                                            min(set(range(len(terms))).difference(kept)))
    variables = chart.variables
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    rows = conn._rows
    d_gamma = {(i, j, s, k): g.diff(var)
               for j in range(n) for s in range(n) for k, g in rows[j][s]
               for i, var in enumerate(variables)}
    tables = []
    for t in terms:
        d1 = [t.diff(var) for var in variables]
        tables.append((t, d1, {(i, j): d1[j] and d1[j].diff(variables[i]) for i, j in pairs}))
    residuals = [[] for _ in pairs]
    for c, (s, (t, d1, d2)) in enumerate(product(range(n), tables)):
        first = []
        for j in range(n):
            comps = {s: d1[j]} if d1[j] else {}
            for k, g in rows[j][s]:
                oracle_add_at(comps, k, g * t)
            first.append(comps)
        for (i, j), at_pair in zip(pairs, residuals):
            res = {s: d2[i, j]} if d2[i, j] else {}
            for k, g in rows[j][s]:
                oracle_add_at(res, k, d_gamma[i, j, s, k] * t + g * d1[i])
            for m, v in first[j].items():
                for k, g in rows[i][m]:
                    oracle_add_at(res, k, g * v)
            for l, g in rows[i][j]:
                for k, v in first[l].items():
                    oracle_add_at(res, k, -(g * v))
            if res:
                at_pair.append((c, res))
    span = linalg._QSpan()
    for at_pair in residuals:
        slots = {}
        numerators = geometry._cleared(chart, [res for _, res in at_pair])[2]
        for (c, _), polys in zip(at_pair, numerators):
            for k, p in polys.items():
                for exps, x in p.terms.items():
                    slots.setdefault((k, exps), {})[c] = x
        for equation in slots.values():
            span.add(linalg._integral(equation)[0])
    size = len(terms)
    return [VectorField._of(chart, geometry._combination((w, {c // size: terms[c % size]})
                                                         for c, w in row.items()))
            for row in previous_nullspace_rows(span, n * size)]


def previous_slot_terms(conn, s, number, curved):
    """`geometry._slot_terms` before A_s was read off `_iat_residuals`: the
    derivatives and both gamma-gamma sums written out by hand, over the
    (number, nonzero gamma[i][j]) pairs `curved`."""
    n = conn.chart.dim
    variables = conn.chart.variables
    rows = conn._rows
    spread = [[] for _ in range(n)]
    A = {}
    for j in range(n):
        for m, g in rows[j][s]:
            for a in range(n):
                spread[a].append((number[a][j], m, g + g if a == j else g))
            for i in range(j + 1):
                vec = A.setdefault(number[i][j], {})
                d = g.diff(variables[i])
                if d:
                    oracle_add_at(vec, m, d)
                for k, h in rows[i][m]:
                    oracle_add_at(vec, k, g * h)
    for p, symbols in curved:
        vec = A.setdefault(p, {})
        for l, g in symbols:
            for k, h in rows[l][s]:
                oracle_add_at(vec, k, -(g * h))
    return spread, {p: vec for p, vec in A.items() if vec}


def pair_numbering(conn):
    """(number, curved) as `solve_iat_ansatz` builds them: number[a][b] is
    the row-major number of the pair (min(a, b), max(a, b)), and curved
    lists (number, nonzero gamma[i][j]) for the pairs i <= j."""
    n = conn.chart.dim
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    number = [[pairs.index((min(a, b), max(a, b))) for b in range(n)] for a in range(n)]
    curved = [(p, conn._rows[i][j]) for p, (i, j) in enumerate(pairs) if conn._rows[i][j]]
    return number, curved


def oracle_witness(conn, X):
    """The first pair, in row-major order over all n^2 pairs, whose residual
    is nonzero; None when X is infinitesimal affine."""
    return next((pair for pair, field in oracle_iat_residuals(conn, X)
                 if not field.is_zero()), None)


def oracle_connection_from_frame(frame, constants):
    """The connection with nabla_{E_a} E_b = sum_k c[a][b][k] E_k on the frame."""
    chart = frame.chart
    n = chart.dim
    zero = RationalFunction.zero(chart)
    c = dense_constants(constants)
    A = [[f.coeffs[i] for i in range(n)] for f in frame.fields]
    A_inv = linalg.invert(A, zero=zero)
    A_inv_t = [[A_inv[j][i] for j in range(n)] for i in range(n)]
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        q = []
        for a in range(n):
            q_row = []
            for b in range(n):
                total = zero
                for m in range(n):
                    cm = c[a][b][m]
                    if cm:
                        total = total + A[m][k] * cm
                for i in range(n):
                    if A[a][i]:
                        d = A[b][k].diff(chart.variables[i])
                        if d:
                            total = total - A[a][i] * d
                q_row.append(total)
            q.append(q_row)
        g_k = mat_mul(mat_mul(A_inv, q, zero=zero), A_inv_t, zero=zero)
        for i in range(n):
            for j in range(n):
                gamma[i][j][k] = g_k[i][j]
    conn = Connection(chart, gamma)
    for a in range(n):
        for b in range(n):
            expected = VectorField.zero(chart)
            for m in range(n):
                cm = c[a][b][m]
                if cm:
                    expected = expected + frame.fields[m].scaled(cm)
            got = oracle_covariant_derivative(conn, frame.fields[a], frame.fields[b])
            if got != expected:
                raise AssertionError(
                    f"frame round-trip failed at pair ({a + 1}, {b + 1})")
    return conn


# ----- inputs --------------------------------------------------------------------------


CHARTS = {1: Chart("line", ("x",)), 2: Chart("plane", ("x", "y")),
          3: Chart("space", ("x", "y", "z"))}


def random_entry(rng, chart, rational):
    """A polynomial of degree at most 1, divided by x or x + 1 (x the first
    variable) when `rational`; small, so second covariant derivatives stay cheap."""
    entry = RationalFunction(random_polynomial(rng, chart, max_degree=1, max_terms=2))
    if rational:
        entry = entry / (RationalFunction.variable(chart, chart.variables[0])
                         + rng.randint(0, 1))
    return entry


def random_connection(rng, chart, density, rational):
    """Each symbol is nonzero with probability `density`."""
    n = chart.dim
    return Connection(chart, [[[random_entry(rng, chart, rational) if rng.random() < density
                                else 0 for _ in range(n)] for _ in range(n)]
                               for _ in range(n)])


def random_fields(rng, chart, count):
    """The zero field, each coordinate field, then fields with random zero slots."""
    n = chart.dim
    fields = [VectorField.zero(chart)] + [VectorField.coordinate(chart, i) for i in range(n)]
    for _ in range(count):
        fields.append(VectorField(chart, [
            random_entry(rng, chart, rng.random() < 0.5) if rng.random() < 0.6 else 0
            for _ in range(n)]))
    return fields


CASES = {}
for _dim in (1, 2, 3):
    CASES[f"dim{_dim}-zero"] = (_dim, 0.0, False)
    for _density, _label in ((0.25, "sparse"), (1.0, "dense")):
        for _rational in (False, True):
            CASES[f"dim{_dim}-{_label}-{'rational' if _rational else 'polynomial'}"] = \
                (_dim, _density, _rational)


def case_connection(name):
    dim, density, rational = CASES[name]
    rng = random.Random(name)
    return rng, random_connection(rng, CHARTS[dim], density, rational)


# ----- comparisons ---------------------------------------------------------------------


def dense(chart, vec):
    """The component list of a kernel's sparse vector {k: value}, which must
    hold no zero entry."""
    assert all(vec.values())
    return [vec.get(k, RationalFunction.zero(chart)) for k in range(chart.dim)]


def assert_kernel_matches(conn, fields):
    chart = conn.chart
    n = chart.dim
    for X in fields:
        vec = {k: c for k, c in enumerate(X.coeffs) if c}
        for axis in range(n):
            assert dense(chart, _nabla_coordinate(conn, axis, vec)) == \
                list(oracle_nabla_coordinate(conn, axis, X).coeffs)
        assert [(pair, dense(chart, res)) for pair, res in
                _iat_residuals(conn, _first_derivatives(conn, X))] == \
            [(pair, list(field.coeffs)) for pair, field in oracle_iat_residuals(conn, X)
             if pair[0] <= pair[1]]
        for Y in fields:
            assert covariant_derivative(conn, X, Y) == oracle_covariant_derivative(conn, X, Y)


def assert_curvature_matches(conn):
    """The report holds exactly the oracle's nonzero components, and reads
    every other component as zero."""
    report = curvature(conn)
    expected = oracle_curvature(conn)
    assert report.components == {idx: rf for idx, rf in expected.items() if rf}
    assert all(report.component(*idx) == rf for idx, rf in expected.items())
    assert report.is_zero == (not any(expected.values()))


@pytest.mark.parametrize("name", list(CASES))
def test_random_connection_matches_oracles(name):
    rng, conn = case_connection(name)
    assert_curvature_matches(conn)
    assert_kernel_matches(conn, random_fields(rng, conn.chart, 1))


def test_dense_rational_curvature_keeps_its_hash():
    """Every symbol nonzero and over x or x + 1 on five variables: the
    heaviest quotient-rule load of the curvature kernel, pinned by the sha256
    of its sorted nonzero components."""
    conn = random_connection(random.Random("c5"), Chart("c5", ("x", "y", "z", "w", "v")),
                             1.0, True)
    components = sorted(curvature(conn).components.items())
    assert len(components) == 500
    text = "\n".join(f"{idx} {value}" for idx, value in components)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "1b64ec370fa671f3307193e5d312aa88ebec4a9b612ad78c514ac84b7beb25ee"


def test_curvature_of_one_christoffel_vector_off_the_diagonal():
    """Only gamma[1][3] is nonzero, so each R^l_{i13} = d_i gamma[1][3]^l has
    its mirror R^l_{1i3} = -R^l_{i13}; both must be there."""
    chart = CHARTS[3]
    x, y, z = (RationalFunction.variable(chart, v) for v in chart.variables)
    gamma = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    gamma[0][2] = [y, x * z, 1 / (x + 1)]
    conn = Connection(chart, gamma)
    assert_curvature_matches(conn)
    report = curvature(conn)
    # d_y gamma[1][3] = (1, 0, 0) and d_z gamma[1][3] = (0, x, 0)
    assert report.nonzero == [(1, 1, 2, 3), (1, 2, 1, 3), (2, 1, 3, 3), (2, 3, 1, 3)]
    assert report.component(1, 2, 1, 3) == -report.component(1, 1, 2, 3) == 1
    assert report.component(2, 3, 1, 3) == -report.component(2, 1, 3, 3) == x


def test_rows_list_the_nonzero_symbols_in_order():
    _, conn = case_connection("dim3-sparse-rational")
    n, gamma = conn.chart.dim, dense_gamma(conn)
    for i in range(n):
        for m in range(n):
            assert conn._rows[i][m] == tuple((k, gamma[i][m][k])
                                             for k in range(n) if gamma[i][m][k])
    assert any(len(conn._rows[i][m]) not in (0, n) for i in range(n) for m in range(n))
    zero = Connection.zero(CHARTS[2])
    assert zero._rows == (((), ()), ((), ()))


@pytest.mark.parametrize("algebra", [aff_line_lsa(), alpha_family(2), alpha_family(-1)],
                         ids=["aff-lsa", "alpha2", "alpha-1"])
def test_halfplane_frame_connections_match_oracles(algebra):
    frame = aff_frame(chart_xy())
    conn = connection_from_frame(frame, algebra)
    assert conn == oracle_connection_from_frame(frame, algebra)
    assert_curvature_matches(conn)
    _, fields = six_iat_fields(chart_xy())
    assert_kernel_matches(conn, fields + random_fields(random.Random(1), chart_xy(), 2))


@pytest.mark.parametrize("seed", range(3))
def test_random_frame_connections_match_oracle(seed):
    rng = random.Random(seed)
    chart = CHARTS[2]
    while True:
        fields = [VectorField(chart, [random_entry(rng, chart, False) for _ in range(2)])
                  for _ in range(2)]
        try:
            frame = Frame(fields)
        except ValueError:
            continue
        break
    algebra = random_algebra(rng, 2)
    conn = connection_from_frame(frame, algebra)
    assert conn == oracle_connection_from_frame(frame, algebra)
    assert_curvature_matches(conn)


def test_gl2_frame_connection_matches_oracles():
    scene = gln_scene(2)
    conn = scene.connect()
    assert conn == oracle_connection_from_frame(scene.frame, scene.constants)
    assert_curvature_matches(conn)
    _, invariant = scene.invariant_fields()
    fields = invariant[:3] + scene.f_fields[:3] + random_fields(random.Random(2), scene.chart, 1)
    assert_kernel_matches(conn, fields)


def random_frame(rng, chart, rational):
    """A seeded frame whose coefficients are zero or one term of degree at most 1,
    divided by x or x + 1 when `rational`; singular draws are skipped.  Dense
    binomial entries make some 3 x 3 frame connections take seconds."""
    def entry():
        if rng.random() < 0.4:
            return 0
        e = RationalFunction(random_polynomial(rng, chart, max_degree=1, max_terms=1))
        if rational:
            e = e / (RationalFunction.variable(chart, chart.variables[0]) + rng.randint(0, 1))
        return e

    while True:
        fields = [VectorField(chart, [entry() for _ in range(chart.dim)])
                  for _ in range(chart.dim)]
        try:
            return Frame(fields)
        except SingularFrameError:
            continue


@pytest.fixture
def invert_calls(monkeypatch):
    """The arguments of each `linalg.invert` call made in the test, in order."""
    calls = []
    original = linalg.invert

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, "invert", counting)
    return calls


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("rational", [False, True], ids=["polynomial", "rational"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_seeded_frame_connections_match_oracle(dim, rational, seed, invert_calls):
    rng = random.Random(f"frame-{dim}-{rational}-{seed}")
    frame = random_frame(rng, CHARTS[dim], rational)
    algebra = random_algebra(rng, dim)
    conn = connection_from_frame(frame, algebra)
    # a frame on an affine chart of its connection (gamma = 0) needs no inverse
    assert len(invert_calls) == any(g for row in dense_gamma(conn) for vec in row for g in vec)
    assert conn == oracle_connection_from_frame(frame, algebra)


@pytest.mark.parametrize("order_seed", [None, 7], ids=["rows-order", "seeded-order"])
def test_gl3_frame_connection_matches_oracle(order_seed):
    pairs = [(r, s) for r in range(1, 4) for s in range(1, 4)]
    order = None if order_seed is None else random.Random(order_seed).sample(pairs, 9)
    scene = gln_scene(3, order)
    conn = scene.connect()
    assert conn == oracle_connection_from_frame(scene.frame, scene.constants)
    assert conn == Connection.zero(scene.chart)


def test_frame_matrix_is_inverted_only_for_a_christoffel_part(invert_calls):
    gl2 = gln_scene(2)
    gl2_connection = gl2.connect()
    gln_scene(3).connect()
    assert invert_calls == []
    assert gl2_connection == Connection.zero(gl2.chart)
    conn = connection_from_frame(aff_frame(chart_xy()), aff_line_lsa())
    assert len(invert_calls) == 1
    assert conn != Connection.zero(chart_xy())


ROUND_TRIP_FAILED = r"^frame round-trip failed at pair \(\d, \d\)$"


def test_round_trip_refuses_a_connection_built_from_a_wrong_derivative(monkeypatch):
    """On the GL2 frame every Christoffel part q is zero.  A derivative along
    E_a(E_b) that lost one entry makes q, and so gamma, nonzero; the round
    trip takes its own derivatives, so it must refuse that connection."""
    scene = gln_scene(2)
    original = geometry._derivative_along
    dropped = []

    def lossy(X, partials):
        along = original(X, partials)
        if along and not dropped:
            dropped.append(along.popitem())
        return along

    monkeypatch.setattr(geometry, "_derivative_along", lossy)
    with pytest.raises(AssertionError, match=ROUND_TRIP_FAILED):
        connection_from_frame(scene.frame, scene.constants)
    assert len(dropped) == 1


def test_round_trip_refuses_a_connection_built_from_a_wrong_inverse(monkeypatch):
    """On the alpha = 2 half-plane frame q is nonzero, so gamma is read
    through the inverse frame matrix; one wrong entry there must be caught."""
    original = linalg.invert
    calls = []

    def perturbed(*args, **kwargs):
        inverse = original(*args, **kwargs)
        inverse[0][0] = inverse[0][0] + 1
        calls.append(1)
        return inverse

    monkeypatch.setattr(linalg, "invert", perturbed)
    with pytest.raises(AssertionError, match=ROUND_TRIP_FAILED):
        connection_from_frame(aff_frame(chart_xy()), alpha_family(2))
    assert calls == [1]


def test_singular_frames_are_refused():
    chart = CHARTS[3]
    fields = singular_frame_fields()
    with pytest.raises(SingularFrameError):
        Frame(fields)
    # past the constructor, a singular frame matrix is still refused where
    # the Christoffel part needs its inverse
    frame = Frame.__new__(Frame)
    frame.chart, frame.fields = chart, tuple(fields)
    with pytest.raises(SingularFrameError):
        connection_from_frame(frame, random_algebra(random.Random(3), 3))


@pytest.fixture
def symbolic_rank_calls(monkeypatch):
    """The matrices of each `linalg.rank` call over Q(x) made in the test, in order."""
    calls = []
    original = linalg.rank

    def counting(rows, **kwargs):
        if not isinstance(kwargs.get("zero", Fraction(0)), Fraction):
            calls.append(rows)
        return original(rows, **kwargs)

    monkeypatch.setattr(linalg, "rank", counting)
    return calls


def test_frames_are_proved_nonsingular_at_a_point(symbolic_rank_calls):
    gln_scene(3)
    frames = [random_frame(random.Random(f"frame-{dim}-{rational}-{seed}"), CHARTS[dim],
                           rational)
              for dim in (1, 2, 3) for rational in (False, True) for seed in range(2)]
    del symbolic_rank_calls[:]   # a singular draw that random_frame skipped
    for frame in frames:
        assert Frame(frame.fields).fields == frame.fields
    assert symbolic_rank_calls == []


@pytest.mark.parametrize("dim, rows", [
    (1, [["x - 2"]]),                      # the point is (2): det x - 2 vanishes there
    (2, [["y", "x"], ["3", "2"]]),         # the point is (2, 3): det 2y - 3x
    (1, [["1/(x - 2)"]]),                  # a denominator vanishes at the point
    (2, [["x", "1/(y - 3)"], ["1", "0"]]),
], ids=["det-1", "det-2", "denominator-1", "denominator-2"])
def test_a_frame_the_point_cannot_certify_takes_the_symbolic_rank(dim, rows,
                                                                  symbolic_rank_calls):
    chart = CHARTS[dim]
    fields = [VectorField(chart, row) for row in rows]
    assert Frame(fields).fields == tuple(fields)
    assert len(symbolic_rank_calls) == 1


def oracle_values_at_primes(chart, matrix):
    """The matrix of `geometry._full_rank_at_primes` before it read the
    fields and worked in stored rationals: every entry of the dense matrix
    evaluated at the prime point as a `Fraction`, or None when a
    denominator vanishes there (the verdict is then False)."""
    point = dict(zip(chart.variables, geometry._primes(chart.dim)))
    try:
        return [[c.evaluate(point) for c in row] for row in matrix]
    except ZeroDivisionError:
        return None


def singular_frame_fields():
    chart = CHARTS[3]
    x, y, z = (RationalFunction.variable(chart, v) for v in chart.variables)
    rows = [[x, y / z, x], [x * y, 1 / (x + 1), z]]
    # the third row is x/y times the first plus z times the second
    rows.append([x / y * a + z * b for a, b in zip(*rows)])
    return [VectorField(chart, row) for row in rows]


def certificate_cases():
    """(fields, pinned verdict): seeded frames, polynomial and rational, with
    no pin; frames with a pole or a zero determinant at the prime point, and
    the singular frame, each pinned False."""
    for dim in (1, 2, 3):
        for rational in (False, True):
            for seed in range(4):
                rng = random.Random(f"certificate-frame-{dim}-{rational}-{seed}")
                yield random_frame(rng, CHARTS[dim], rational).fields, None
    for dim, rows in [(1, [["x - 2"]]), (2, [["y", "x"], ["3", "2"]]), (1, [["1/(x - 2)"]]),
                      (2, [["x", "1/(y - 3)"], ["1", "0"]]),
                      (3, [["1/(z - 5)", "0", "0"], ["0", "y", "0"], ["0", "0", "x"]]),
                      (3, [["0", "0", "1/(z - 5)"], ["0", "y", "0"], ["x", "0", "0"]])]:
        yield [VectorField(CHARTS[dim], row) for row in rows], False
    yield singular_frame_fields(), False


def test_the_certificate_matches_the_dense_evaluation(monkeypatch):
    """The same verdict as the dense `Fraction` evaluation, and, wherever no
    denominator vanishes, the same matrix entry by entry, each entry a
    stored rational: an int exactly when it is integral."""
    ranked = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows, **kw: ranked.append(rows) or rank(rows, **kw))
    verdicts = []
    kinds = set()
    for fields, pinned in certificate_cases():
        chart = fields[0].chart
        del ranked[:]
        verdict = geometry._full_rank_at_primes(chart, fields)
        expected = oracle_values_at_primes(chart, [f.coeffs for f in fields])
        if expected is None:   # a pole: no matrix is ranked
            assert ranked == [] and verdict is False
        else:
            (values,) = ranked
            assert values == expected
            for x in (x for row in values for x in row):
                assert type(x) in (int, Fraction) and (type(x) is int) == (x.denominator == 1)
                kinds.add(type(x))
            assert verdict == (rank(expected) == len(fields))
        assert pinned is None or verdict is pinned
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts
    assert kinds == {int, Fraction}


def test_frame_verdict_matches_the_symbolic_rank():
    """Seeded dense binomial 2 x 2 and 3 x 3 matrices, every other one made
    singular by a row that is a Q(x) combination of the others."""
    verdicts = []
    for dim in (2, 3):
        chart = CHARTS[dim]
        zero = RationalFunction.zero(chart)
        for seed in range(8):
            rng = random.Random(f"certificate-{dim}-{seed}")
            rows = [[random_entry(rng, chart, rng.random() < 0.5) for _ in range(dim)]
                    for _ in range(dim)]
            if seed % 2:
                weights = [random_entry(rng, chart, True) for _ in range(dim - 1)]
                rows[-1] = [sum((w * row[c] for w, row in zip(weights, rows)), zero)
                            for c in range(dim)]
            nonsingular = linalg.rank(rows, zero=zero) == dim
            fields = [VectorField(chart, row) for row in rows]
            if nonsingular:
                assert Frame(fields).fields == tuple(fields)
            else:
                with pytest.raises(SingularFrameError):
                    Frame(fields)
            verdicts.append(nonsingular)
    assert True in verdicts and False in verdicts


# ----- the ansatz solver -----------------------------------------------------------------


def example_ansatz():
    task = next(t for t in json.loads(EXAMPLE_TASKS.read_text())["tasks"]
                if t["kind"] == "solve-iat")
    return task["ansatz"]


def flat_halfplane_connections():
    """The flat half-plane frame connections; every one but alpha1, whose
    symbols are all zero, has nonzero symbols with nonzero derivatives."""
    conns = {f"alpha{a}": alpha_connection(a) for a in (-1, 1, 2, 3)}
    conns["aff-lsa"] = aff_line_connection()
    return conns


def independent_terms(rng, chart, count, rational):
    """The constant 1 and the first variable, then random terms up to `count` in
    all, each independent of those before it; about half of them rational
    functions when `rational`."""
    terms = [RationalFunction.one(chart), RationalFunction.variable(chart, chart.variables[0])]
    while len(terms) < count:
        if rational and rng.random() < 0.5:
            t = random_rational_function(rng, chart, max_degree=2)
        else:
            t = RationalFunction(random_polynomial(rng, chart))
        probe = [VectorField(chart, [s] + [0] * (chart.dim - 1)) for s in terms + [t]]
        if field_span_rank(probe) == len(probe):
            terms.append(t)
    return terms


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", ["alpha-1", "alpha1", "alpha2", "alpha3", "aff-lsa"])
def test_solver_matches_oracle_on_halfplane_connections(name, seed):
    conn = flat_halfplane_connections()[name]
    rng = random.Random(f"{name}-{seed}")
    ansatz = example_ansatz()
    ansatz = rng.sample(ansatz, rng.randint(len(ansatz) - 4, len(ansatz)))
    solutions = solve_iat_ansatz(conn, ansatz)
    assert solutions == oracle_solve_iat_ansatz(conn, ansatz)
    assert solutions


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("rational", [False, True], ids=["polynomial", "rational"])
@pytest.mark.parametrize("dim", [2, 3])
def test_solver_matches_oracle_on_the_zero_connection(dim, rational, seed):
    rng = random.Random(f"zero-{dim}-{rational}-{seed}")
    chart = CHARTS[dim]
    conn = Connection.zero(chart)
    ansatz = independent_terms(rng, chart, 6, rational)
    solutions = solve_iat_ansatz(conn, ansatz)
    assert solutions == oracle_solve_iat_ansatz(conn, ansatz)
    # 1 and x in every slot are always solutions
    assert len(solutions) >= 2 * dim


def test_solver_matches_oracle_on_gl2():
    scene = gln_scene(2)
    ansatz = [f"x{r}{s}" for (r, s) in scene.pairs] + ["1", "x11*x22"]
    solutions = solve_iat_ansatz(scene.connect(), ansatz)
    assert solutions == oracle_solve_iat_ansatz(scene.connect(), ansatz)
    assert len(solutions) == 4 * 5


@pytest.mark.parametrize("order_seed", [None, 7], ids=["rows-order", "seeded-order"])
def test_solver_matches_oracle_on_gl3(order_seed):
    pairs = [(r, s) for r in range(1, 4) for s in range(1, 4)]
    rng = random.Random(order_seed)
    order = None if order_seed is None else rng.sample(pairs, 9)
    scene = gln_scene(3, order)
    conn = scene.connect()
    ansatz = [f"x{r}{s}" for (r, s) in pairs]
    if order_seed is not None:
        # one term with a nonzero second derivative, so one pair has equations
        rng.shuffle(ansatz)
        ansatz.append("x12^2")
    solutions = solve_iat_ansatz(conn, ansatz)
    assert solutions == oracle_solve_iat_ansatz(conn, ansatz)
    assert set(solutions) == set(scene.f_fields)


def commuting_frame_connection():
    """The flat connection of the commuting frame d_x + 2x d_y + (y - x^2) d_z,
    d_y + x d_z, d_z with zero constants: its four nonzero symbols are
    gamma[x][x] = -2 d_y + 4x d_z and gamma[x][y] = gamma[y][x] = -d_z."""
    chart = CHARTS[3]
    frame = Frame([VectorField(chart, ["1", "2*x", "y - x^2"]),
                   VectorField(chart, ["0", "1", "x"]), VectorField(chart, ["0", "0", "1"])])
    return connection_from_frame(frame, zero_algebra(("e1", "e2", "e3")))


# polynomial terms, whose span holds 1 and the affine coordinates x, y - x^2
# and z - x*y + x^3 of the frame, and rational ones, whose equations have
# denominators
COMMUTING_FRAME_ANSATZ = ["1", "x", "y", "z", "x^2", "x*y", "x^3", "y^2", "x*z",
                          "1/(x + 1)", "y/(x + 1)", "z/(y + 2)"]


def test_the_commuting_frame_connection_reaches_every_residual_part():
    conn = commuting_frame_connection()
    chart = conn.chart
    assert is_flat_affine(conn)
    x = RationalFunction.variable(chart, "x")
    symbols = [g for row in dense_gamma(conn) for vec in row for g in vec if g]
    assert len(symbols) == 4 and 4 * x in symbols
    n = chart.dim
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    number, curved = pair_numbering(conn)
    slot_terms = [geometry._slot_terms(conn, s, number) for s in range(n)]
    assert any(A for _, A in slot_terms)
    # some gamma[a][s] d_a t lands on the diagonal pair (a, a), doubled
    middle = diagonal = hessian = corrected = False
    for t in COMMUTING_FRAME_ANSATZ:
        t = geometry.parse_expr(t, chart)
        d1 = [t.diff(v) for v in chart.variables]
        for spread, _ in slot_terms:
            for a in range(n):
                if d1[a] and spread[a]:
                    middle = True
                    diagonal |= any(p == number[a][a] for p, _, _ in spread[a])
        H = geometry._hessian(t._gradient(), number, curved)
        plain = {number[i][j]: d1[j].diff(chart.variables[i]) for i, j in pairs}
        hessian |= bool(H)
        corrected |= H != {p: h for p, h in plain.items() if h}
    assert middle and diagonal and hessian and corrected


def slot_term_connection(name):
    """The commuting-frame connection, a half-plane frame connection by name,
    or the GL2 or GL3 frame connection ("gl2", "gl3")."""
    if name == "commuting-frame":
        return commuting_frame_connection()
    if name in ("gl2", "gl3"):
        return gln_scene(int(name[2])).connect()
    return flat_halfplane_connections()[name]


@pytest.mark.parametrize("name", ["commuting-frame", "alpha-1", "alpha1", "alpha2",
                                  "alpha3", "aff-lsa", "gl2", "gl3"])
def test_slot_terms_match_the_previous_kernel_and_the_residuals_of_d_s(name):
    """Slot by slot, `_slot_terms` gives the spread and A of the hand-written
    version, and A is the residual table of the coordinate field d_s."""
    conn = slot_term_connection(name)
    chart = conn.chart
    number, curved = pair_numbering(conn)
    parts = []
    for s in range(chart.dim):
        spread, A = geometry._slot_terms(conn, s, number)
        assert (spread, A) == previous_slot_terms(conn, s, number, curved)
        first = _first_derivatives(conn, VectorField.coordinate(chart, s))
        assert A == {p: res for p, (_, res) in enumerate(_iat_residuals(conn, first)) if res}
        parts.append(bool(A))
    # alpha1 and the frame connections of GL(n) have no symbol, so every A
    # is empty; the others have some nonzero A
    assert any(parts) == (name not in ("alpha1", "gl2", "gl3"))


def test_solver_matches_oracles_on_the_commuting_frame_connection():
    conn = commuting_frame_connection()
    solutions = solve_iat_ansatz(conn, COMMUTING_FRAME_ANSATZ)
    assert solutions == previous_solve_iat_ansatz(conn, COMMUTING_FRAME_ANSATZ)
    assert solutions == oracle_solve_iat_ansatz(conn, COMMUTING_FRAME_ANSATZ)
    assert len(solutions) >= 3
    assert all(is_infinitesimal_affine(conn, X).holds for X in solutions)


@pytest.mark.parametrize("seed", range(3))
def test_solver_matches_the_previous_solver(seed):
    """Shuffled ansatz orders on the commuting frame, the half-plane and GL3
    connections, with rational terms in the first two."""
    rng = random.Random(f"previous-{seed}")
    cases = [(commuting_frame_connection(), list(COMMUTING_FRAME_ANSATZ))]
    cases += [(conn, example_ansatz()) for conn in flat_halfplane_connections().values()]
    pairs = [(r, s) for r in range(1, 4) for s in range(1, 4)]
    scene = gln_scene(3, rng.sample(pairs, 9))
    cases.append((scene.connect(), [f"x{r}{s}" for r, s in pairs] + ["x12^2", "1"]))
    for conn, ansatz in cases:
        rng.shuffle(ansatz)
        assert solve_iat_ansatz(conn, ansatz) == previous_solve_iat_ansatz(conn, ansatz)


def mutant_hessian(gradient, number, curved):
    """H_t without its gamma correction: the plain second derivatives."""
    out = {}
    for j, dj in gradient.items():
        for i in range(j + 1):
            h = dj.diff(dj.chart.variables[i])
            if h:
                out[number[i][j]] = h
    return out


def mutant_slot_terms(mutation):
    """`_slot_terms` with one fault: "no-doubling" adds gamma[b][s] d_a t once
    at a = b, "no-first-sum" and "no-second-sum" drop a gamma-gamma sum of A."""
    def slot_terms(conn, s, number):
        n = conn.chart.dim
        rows = conn._rows
        curved = [(number[i][j], rows[i][j]) for i in range(n) for j in range(i, n)
                  if rows[i][j]]
        spread = [[] for _ in range(n)]
        A = {}
        for j in range(n):
            for m, g in rows[j][s]:
                for a in range(n):
                    doubled = a == j and mutation != "no-doubling"
                    spread[a].append((number[a][j], m, g + g if doubled else g))
                for i in range(j + 1):
                    vec = A.setdefault(number[i][j], {})
                    d = g.diff(conn.chart.variables[i])
                    if d:
                        oracle_add_at(vec, m, d)
                    if mutation != "no-first-sum":
                        for k, h in rows[i][m]:
                            oracle_add_at(vec, k, g * h)
        if mutation != "no-second-sum":
            for p, symbols in curved:
                vec = A.setdefault(p, {})
                for l, g in symbols:
                    for k, h in rows[l][s]:
                        oracle_add_at(vec, k, -(g * h))
        return spread, {p: vec for p, vec in A.items() if vec}
    return slot_terms


@pytest.mark.parametrize("mutant", ["no-doubling", "no-first-sum", "no-second-sum",
                                    "no-hessian-correction"])
def test_the_oracles_catch_mutants_of_the_residual_parts(mutant, monkeypatch):
    conn = commuting_frame_connection()
    expected = previous_solve_iat_ansatz(conn, COMMUTING_FRAME_ANSATZ)
    assert solve_iat_ansatz(conn, COMMUTING_FRAME_ANSATZ) == expected
    if mutant == "no-hessian-correction":
        monkeypatch.setattr(geometry, "_hessian", mutant_hessian)
    else:
        monkeypatch.setattr(geometry, "_slot_terms", mutant_slot_terms(mutant))
    assert solve_iat_ansatz(conn, COMMUTING_FRAME_ANSATZ) != expected


def nullspace_spans():
    """{name: (span, ncols)}: the empty span, spans whose free columns no row
    touches, spans with no free column, and seeded sparse spans."""
    rng = random.Random("nullspace")
    cases = {"empty-0": ([], 0), "empty-5": ([], 5),
             "units": ([[0, 2, 0, 0], [0, 0, 0, 3]], 4),
             "untouched-and-touched": ([[1, 0, 2, 0, 0], [0, 1, Fraction(-1, 3), 0, 0]], 5),
             # column 2's integer vector (6 at 2, -3 at 0, -6 at 1) is not primitive
             "lcm-not-primitive": ([[2, 0, 1, 0], [0, 3, 3, 1]], 4),
             "full": ([[2, 1, 0], [1, 1, 1], [0, 0, 5]], 3),
             "full-identity": ([[1, 0], [0, 1]], 2)}
    for seed in range(6):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 12)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.3 else 0
                 for _ in range(ncols)] for _ in range(nrows)]
        cases[f"seeded-{seed}"] = (rows, ncols)
    return {name: (linalg._q_span(rows), ncols) for name, (rows, ncols) in cases.items()}


NULLSPACE_SPANS = nullspace_spans()


@pytest.mark.parametrize("span, ncols", NULLSPACE_SPANS.values(), ids=list(NULLSPACE_SPANS))
def test_nullspace_rows_match_the_previous_kernel(span, ncols):
    rows = linalg._nullspace_rows(span, ncols)
    assert rows == previous_nullspace_rows(span, ncols)
    for row in rows:
        assert_stored_vector(row.values())
    assert [min(row) for row in rows] == sorted(min(row) for row in rows)


def test_nullspace_families_reach_every_case():
    kinds = set()
    for span, ncols in NULLSPACE_SPANS.values():
        free = [f for f in range(ncols) if f not in span.rows]
        touched = {f for p, row in span.rows.items() for f in row if f != p}
        kinds.add("untouched" if set(free) - touched else "none-untouched")
        kinds.add("touched" if touched else "none-touched")
        kinds.add("free" if free else "no-free")
    assert kinds == {"untouched", "none-untouched", "touched", "none-touched", "free",
                     "no-free"}


@pytest.mark.parametrize("name", ["alpha-1", "alpha1", "alpha2", "alpha3", "aff-lsa"])
def test_oracle_residuals_are_symmetric_on_flat_connections(name):
    conn = flat_halfplane_connections()[name]
    _, fields = six_iat_fields(conn.chart)
    for X in fields + random_fields(random.Random(name), conn.chart, 3):
        residuals = dict(oracle_iat_residuals(conn, X))
        for (i, j), field in residuals.items():
            assert field == residuals[j, i]


def test_witness_is_the_first_failure_of_the_full_scan():
    cases = []
    for name, conn in flat_halfplane_connections().items():
        rng = random.Random(name)
        for _ in range(3):
            cases.append((conn, VectorField(conn.chart, [
                random_polynomial(rng, conn.chart) for _ in range(2)])))
    scene = gln_scene(3)
    cases.append((scene.connect(), VectorField(scene.chart, ["x11^2"] + [0] * 8)))
    failures = 0
    for conn, X in cases:
        report = is_infinitesimal_affine(conn, X)
        expected = oracle_witness(conn, X)
        assert report.holds == (expected is None)
        assert report.witness == expected
        failures += not report.holds
    assert failures == len(cases)


# ----- the stored form of a field ----------------------------------------------------------


def assert_stored(field):
    """`components` holds 0-based keys inside the chart and no zero value,
    which `==` rests on, and agrees with the dense view."""
    assert all(0 <= k < field.chart.dim and c for k, c in field.components.items())
    assert VectorField(field.chart, field.coeffs) == field


@pytest.mark.parametrize("name", ["dim1-dense-rational", "dim2-sparse-polynomial",
                                  "dim3-dense-rational"])
def test_field_results_keep_no_zero_component(name):
    rng, conn = case_connection(name)
    chart = conn.chart
    zero = VectorField.zero(chart)
    fields = random_fields(rng, chart, 3)
    for X in fields:
        cancelled = [X - X, X + -X, -X + X, X.scaled(0), lie_bracket(X, X)]
        for Z in cancelled:
            assert_stored(Z)
            assert Z == zero and Z.is_zero() and str(Z) == "0"
        for Y in fields:
            # X + (Y - X) cancels X's components wherever Y has none
            results = [X + Y, X - Y, -X, X.scaled(random_entry(rng, chart, True)),
                       lie_bracket(X, Y), covariant_derivative(conn, X, Y), X + (Y - X)]
            for Z in results:
                assert_stored(Z)
            assert X + (Y - X) == Y


def test_products_and_solutions_keep_no_zero_component(monkeypatch):
    """The products that `product_table` reads off its basis span, some of
    which cancel to zero, and the fields `solve_iat_ansatz` returns."""
    conn = aff_line_connection()
    names, fields = six_iat_fields(conn.chart)
    products = []

    def capture(span, targets):
        products.extend(targets)
        return coordinates(span, targets)

    coordinates = geometry._FieldSpan.coordinates
    monkeypatch.setattr(geometry._FieldSpan, "coordinates", capture)
    geometry.product_table(conn, fields, names)
    assert len(products) == 36
    for Z in products:
        assert_stored(Z)
    assert VectorField.zero(conn.chart) in products
    for name, conn in flat_halfplane_connections().items():
        solutions = solve_iat_ansatz(conn, example_ansatz())
        assert solutions
        for Z in solutions:
            assert_stored(Z)


def test_equal_fields_have_equal_hashes_in_any_key_order():
    rng, conn = case_connection("dim3-dense-rational")
    for X in random_fields(rng, conn.chart, 4):
        reordered = VectorField._of(X.chart, dict(reversed(list(X.components.items()))))
        rebuilt = VectorField(X.chart, X.coeffs)
        assert reordered == X == rebuilt
        assert hash(reordered) == hash(X) == hash(rebuilt)
        assert str(reordered) == str(X) == str(rebuilt)
    chart = CHARTS[3]
    a, b = RationalFunction.variable(chart, "x"), RationalFunction.constant(chart, 2)
    X, Y = VectorField._of(chart, {2: a, 0: b}), VectorField._of(chart, {0: b, 2: a})
    assert X == Y == VectorField(chart, [b, 0, a])
    assert hash(X) == hash(Y) == hash(VectorField(chart, [b, 0, a]))
    assert str(X) == str(Y) == "(2)*d/dx + (x)*d/dz"


def oracle_field_components(chart, coeffs):
    """`VectorField.__init__` before it took one pass: every coefficient
    coerced, then the length checked, then the charts, then the nonzero
    components kept."""
    coeffs = tuple(geometry._as_rf(chart, c) for c in coeffs)
    if len(coeffs) != chart.dim:
        raise ValueError(f"expected {chart.dim} coefficients, got {len(coeffs)}")
    if any(c.chart is not chart and c.chart != chart for c in coeffs):
        raise ValueError("coefficient chart does not match the field chart")
    return {k: c for k, c in enumerate(coeffs) if c}


def field_outcome(build, chart, coeffs):
    """The components as a list of items, in dict order, or the exception's
    type and message."""
    try:
        components = build(chart, iter(coeffs))
    except (TypeError, ValueError) as err:
        return type(err), str(err)
    return list(components.items())


FOREIGN = Chart("foreign", ("x", "y", "z"))
EQUAL_SPACE = Chart("space", ("x", "y", "z"))   # equal to CHARTS[3], another object


def random_coefficient(rng, chart):
    """A zero or nonzero coefficient as a str, int, Fraction, Polynomial or
    RationalFunction; one draw in eight is instead a value on another chart
    or on an equal copy of the space chart, an unparsable or unknown-variable
    string, or a value no coercion accepts."""
    if rng.random() < 0.125:
        return rng.choice(["x +", "q", "1/0", 1.5, None, RationalFunction.zero(FOREIGN),
                           RationalFunction.variable(FOREIGN, "y"),
                           RationalFunction.variable(EQUAL_SPACE, "y")])
    entry = random_entry(rng, chart, rng.random() < 0.5)
    zero = rng.random() < 0.3
    kind = rng.randrange(5)
    if kind == 0:
        return "0" if zero else str(entry)
    if kind == 1:
        return 0 if zero else rng.randint(-3, 3) or 1
    if kind == 2:
        return Fraction(0) if zero else Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 4))
    if kind == 3:
        return Polynomial.zero(chart) if zero else random_polynomial(rng, chart, 2, 3)
    return RationalFunction.zero(chart) if zero else entry


def field_cases(seed):
    """Seeded coefficient lists of length dim - 1 to dim + 1 on the line and
    in space, mostly of the right length."""
    rng = random.Random(f"field-{seed}")
    for _ in range(150):
        chart = CHARTS[rng.choice((1, 3, 3))]
        length = chart.dim + rng.choice((-1, 0, 0, 0, 0, 1))
        yield chart, [random_coefficient(rng, chart) for _ in range(length)]


@pytest.mark.parametrize("seed", range(3))
def test_the_field_constructor_matches_the_three_pass_constructor(seed):
    kinds = set()
    for chart, coeffs in field_cases(seed):
        got = field_outcome(lambda c, cs: VectorField(c, cs).components, chart, coeffs)
        assert got == field_outcome(oracle_field_components, chart, coeffs)
        kinds.add(got[0] if isinstance(got, tuple) else "field")
        if not isinstance(got, tuple):
            assert all(c for _, c in got)
    assert {"field", ValueError, TypeError} <= kinds


def test_the_field_constructor_keeps_the_error_precedence():
    space = CHARTS[3]
    foreign = RationalFunction.variable(FOREIGN, "x")
    cases = [
        # an unparsable string inside a too-short list: the parse error first
        (["x", "x +"], "ExprSyntaxError"),
        # an uncoercible value after a foreign one in a too-long list
        ([foreign, 1, 2, 1.5], "TypeError"),
        # a foreign value in a too-long list: the length first
        ([foreign, 1, 2, 3], "expected 3 coefficients, got 4"),
        ([1, foreign, 0], "coefficient chart does not match the field chart"),
        ([0, "0", Fraction(0)], []),
        ([RationalFunction.variable(EQUAL_SPACE, "z"), Polynomial.zero(space), "y/x"], [0, 2]),
        ([], "expected 3 coefficients, got 0"),
    ]
    for coeffs, expected in cases:
        got = field_outcome(lambda c, cs: VectorField(c, cs).components, space, coeffs)
        assert got == field_outcome(oracle_field_components, space, coeffs)
        if isinstance(expected, list):
            assert [k for k, _ in got] == expected
        elif expected in ("ExprSyntaxError", "TypeError"):
            assert got[0].__name__ == expected
        else:
            assert got == (ValueError, expected)


LENGTH_3_OF_4 = (ValueError, "expected 3 coefficients, got 4")


@pytest.mark.parametrize("value, expected, too_long", [
    ("x*y/2", {0: "1/2*x*y", 2: "y"}, LENGTH_3_OF_4),
    (3, {0: "3", 2: "y"}, LENGTH_3_OF_4),
    (Fraction(2, 3), {0: "2/3", 2: "y"}, LENGTH_3_OF_4),
    (Polynomial.variable(CHARTS[3], "x") + 1, {0: "x + 1", 2: "y"}, LENGTH_3_OF_4),
    (RationalFunction.variable(CHARTS[3], "z"), {0: "z", 2: "y"}, LENGTH_3_OF_4),
    (RationalFunction.variable(EQUAL_SPACE, "z") / RationalFunction.variable(EQUAL_SPACE, "x"),
     {0: "(z)/(x)", 2: "y"}, LENGTH_3_OF_4),
    (RationalFunction.variable(FOREIGN, "y"),
     (ValueError, "coefficient chart does not match the field chart"), LENGTH_3_OF_4),
    (1.5, (TypeError, "cannot interpret 1.5 as a rational function"),
     (TypeError, "cannot interpret 1.5 as a rational function")),
    (RationalFunction.zero(CHARTS[3]), {2: "y"}, LENGTH_3_OF_4),
    (RationalFunction.zero(EQUAL_SPACE), {2: "y"}, LENGTH_3_OF_4),
    (RationalFunction.zero(FOREIGN),
     (ValueError, "coefficient chart does not match the field chart"), LENGTH_3_OF_4),
], ids=["str", "int", "fraction", "polynomial", "same-chart", "equal-chart", "foreign-chart",
        "unreadable", "shared-zero", "equal-chart-zero", "foreign-chart-zero"])
def test_each_kind_of_coefficient_gives_the_same_field(value, expected, too_long):
    """The components, or the exception and message, of a field built from one
    coefficient of each kind; a too-long list is refused for its length
    before its chart, and after every coefficient is read.  A list of the
    chart's shared 0 alone is the zero field, or refused for its length."""
    space = CHARTS[3]
    for coeffs, outcome in (([value, 0, "y"], expected), ([value, 0, "y", 1], too_long)):
        got = field_outcome(lambda c, cs: VectorField(c, cs).components, space, coeffs)
        assert got == field_outcome(oracle_field_components, space, coeffs)
        if isinstance(outcome, dict):
            assert {k: str(c) for k, c in got} == outcome
            if isinstance(value, RationalFunction) and value:   # kept as given
                assert got[0][1] is value
        else:
            assert got == outcome
    zero = RationalFunction.zero(space)
    for coeffs, outcome in (([zero] * 3, []), ([zero] * 4, LENGTH_3_OF_4),
                            ([zero] * 2, (ValueError, "expected 3 coefficients, got 2"))):
        got = field_outcome(lambda c, cs: VectorField(c, cs).components, space, coeffs)
        assert got == field_outcome(oracle_field_components, space, coeffs) == outcome


# ----- the stored form of a connection ------------------------------------------------------


def oracle_torsion(conn):
    """The nonzero T^k_{ij} = gamma[i][j][k] - gamma[j][i][k], read off the
    dense symbols."""
    n, gamma = conn.chart.dim, dense_gamma(conn)
    comps = {}
    for i, j, k in product(range(n), repeat=3):
        t = gamma[i][j][k] - gamma[j][i][k]
        if t:
            comps[k + 1, i + 1, j + 1] = t
    return comps


def sparse_entries(rng, conn):
    """The nonzero symbols of `conn` as `from_sparse` entries (k, i, j, value),
    1-based, in a seeded order, with some absent symbols given as "0"."""
    n, gamma = conn.chart.dim, dense_gamma(conn)
    entries = [(k + 1, i + 1, j + 1, g) for i, j, k in product(range(n), repeat=3)
               if (g := gamma[i][j][k]) or rng.random() < 0.2]
    entries = [(k, i, j, g if g else "0") for k, i, j, g in entries]
    rng.shuffle(entries)
    return entries


def assert_same_connections(conns):
    """The same rows, dense symbols, value, hash and reports; the dense
    symbols hold the chart's shared 0 where a symbol is absent, and torsion
    agrees with the dense oracle."""
    first = conns[0]
    chart = first.chart
    zero = RationalFunction.zero(chart)
    for conn in conns:
        assert conn._rows == first._rows
        assert conn == first and hash(conn) == hash(first)
        gamma = dense_gamma(conn)
        assert gamma == dense_gamma(first)
        for row, symbols in zip(gamma, conn._rows):
            for vec, present in zip(row, symbols):
                present = dict(present)
                assert all(g is present[k] if k in present else g is zero
                           for k, g in enumerate(vec))
        for tensor in (geometry.torsion, curvature):
            assert list(tensor(conn).components.items()) == \
                list(tensor(first).components.items())
    assert dict(geometry.torsion(first).components) == oracle_torsion(first)


@pytest.mark.parametrize("name", list(CASES))
def test_dense_and_sparse_constructors_build_the_same_rows(name):
    rng, conn = case_connection(name)
    chart = conn.chart
    assert_same_connections([conn, Connection.from_sparse(chart, sparse_entries(rng, conn)),
                             Connection(chart, dense_gamma(conn))])
    assert_curvature_matches(conn)


@pytest.mark.parametrize("rational", [False, True], ids=["polynomial", "rational"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_frame_connections_are_built_as_rows(dim, rational):
    rng = random.Random(f"frame-{dim}-{rational}-0")
    frame = random_frame(rng, CHARTS[dim], rational)
    algebra = random_algebra(rng, dim)
    conn = connection_from_frame(frame, algebra)
    dense = oracle_connection_from_frame(frame, algebra)
    assert_same_connections([conn, dense, Connection.from_sparse(
        conn.chart, sparse_entries(rng, dense))])


# ----- affine-chart shortcuts ------------------------------------------------------------


def affine_chart_cases():
    """(connection, fields) on zero connections: GL3's frame connection, aff(3)
    and `Connection.zero` in dimensions 2 and 3, each with seeded affine,
    quadratic and rational fields (besides their own fields on GL3 and aff(3))."""
    gl3 = gln_scene(3, random.Random(5).sample([(r, s) for r in range(1, 4)
                                                  for s in range(1, 4)], 9))
    _, invariant = gl3.invariant_fields()
    aff_conn, aff_fields, _ = aff_scene(3)
    cases = {"gl3": (gl3.connect(), invariant[::4] + gl3.f_fields[::20]),
             "aff3": (aff_conn, aff_fields[::3]),
             "zero2": (Connection.zero(CHARTS[2]), []),
             "zero3": (Connection.zero(CHARTS[3]), [])}
    for name, (conn, fields) in cases.items():
        rng = random.Random(f"certificate-{name}")
        chart = conn.chart
        for entry in (lambda: random_polynomial(rng, chart, max_degree=1),
                      lambda: random_polynomial(rng, chart, max_degree=2),
                      lambda: random_rational_function(rng, chart, max_degree=1)):
            for _ in range(3):
                fields.append(VectorField(chart, [entry() if rng.random() < 0.5 else 0
                                                  for _ in range(chart.dim)]))
    return cases


AFFINE_CHART_CASES = affine_chart_cases()


def certificate_disagreements(conn, fields):
    """The fields whose verdict or witness from `is_infinitesimal_affine`, or
    from the symbolic route the certificate skips, differs from the oracle's;
    also asserts that a certified field has no oracle witness."""
    wrong = []
    for X in fields:
        expected = oracle_witness(conn, X)
        report = is_infinitesimal_affine(conn, X)
        if (report.holds != (expected is None) or report.witness != expected
                or _iat_witness(conn, _first_derivatives(conn, X)) != expected
                or geometry._affine_certificate(conn, X) and expected is not None):
            wrong.append((X, report, expected))
    return wrong


@pytest.mark.parametrize("name", list(AFFINE_CHART_CASES))
def test_the_affine_certificate_matches_the_residuals_on_zero_connections(name):
    conn, fields = AFFINE_CHART_CASES[name]
    assert certificate_disagreements(conn, fields) == []
    certified = [geometry._affine_certificate(conn, X) for X in fields]
    # both routes are reached: certified fields, and failures the residuals find
    assert any(certified)
    assert any(oracle_witness(conn, X) is not None for X in fields)


def test_the_affine_certificate_needs_a_chart_without_symbols(monkeypatch):
    """On the half-plane connection nabla11 (two symbols) the affine field
    d/dx fails at (1, 1); a certificate that skips the symbol test passes it,
    and the oracle comparison catches that."""
    conn = aff_line_connection()
    assert sum(map(len, (vec for row in conn._rows for vec in row))) == 2
    fields = [VectorField.coordinate(conn.chart, 0), VectorField.coordinate(conn.chart, 1)]
    assert not geometry._affine_certificate(conn, fields[0])
    assert is_infinitesimal_affine(conn, fields[0]).witness == (1, 1)
    assert certificate_disagreements(conn, fields) == []

    def no_symbol_test(conn, X):
        return all(c.den.is_one() and all(sum(e) <= 1 for e in c.num.terms)
                   for c in X.components.values())

    monkeypatch.setattr(geometry, "_affine_certificate", no_symbol_test)
    wrong = certificate_disagreements(conn, fields)
    assert [(X, report.holds, expected) for X, report, expected in wrong] == \
        [(fields[0], True, (1, 1))]


@pytest.mark.parametrize("name", ["gl3", "aff3"])
def test_product_tables_are_the_same_without_the_certificate(name, monkeypatch):
    """product_table on certified fields, and on one more field the residuals
    refuse, gives the same table and the same witness as with every field
    sent through the residuals."""
    conn, fields = AFFINE_CHART_CASES[name]
    chart = conn.chart
    affine = [X for X in fields if geometry._affine_certificate(conn, X)]
    names, affine = geometry.independent_fields(affine, [f"a{k}" for k in range(len(affine))])
    quadratic = VectorField(chart, [RationalFunction.variable(chart, chart.variables[0]) ** 2]
                            + [0] * (chart.dim - 1))
    outcomes = []
    for certificate in (geometry._affine_certificate, lambda conn, X: False):
        monkeypatch.setattr(geometry, "_affine_certificate", certificate)
        # a fresh connection each time, so no memoized table answers
        fresh = Connection._of(chart, conn._rows)
        table = geometry.product_table(fresh, affine[:3], names[:3])
        with pytest.raises(geometry.IATViolationError) as err:
            geometry.product_table(fresh, affine[:2] + [quadratic], names[:2] + ["q"])
        outcomes.append((table, err.value.field_name, err.value.witness))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1:] == ("q", (1, 1))


def previous_connection_from_frame(frame, constants):
    """`connection_from_frame` as it was before it compared E_a(E_b) with the
    defining product: every q[a][b] copied and every derivative subtracted."""
    chart = frame.chart
    n = chart.dim
    zero = RationalFunction.zero(chart)
    E = [f.components for f in frame.fields]
    expected = [[geometry._combination((x, E[k]) for k, x in constants.rows[a][b])
                 for b in range(n)] for a in range(n)]
    q = [[dict(expected[a][b]) for b in range(n)] for a in range(n)]
    for a, b in product(range(n), repeat=2):
        for k, d in pairwise_derivative_along(frame.fields[a], frame.fields[b]).items():
            oracle_add_at(q[a][b], k, -d)
    if any(vec for row in q for vec in row):
        A = [f.coeffs for f in frame.fields]
        A_inv = linalg.invert(A, zero=zero)
        half = [[geometry._combination(zip(A_inv[i], (q[a][b] for a in range(n))))
                 for b in range(n)] for i in range(n)]
        return Connection._of(chart, geometry._sorted_rows(
            [[geometry._combination(zip(A_inv[j], half[i])) for j in range(n)]
             for i in range(n)]))
    return Connection.zero(chart)


def seeded_frames():
    """(frame, constants) with zero gamma (the GL2 and GL3 frames in seeded
    orders, constant frames with the zero algebra) and with nonzero gamma
    (the half-plane frames, seeded frames with seeded algebras)."""
    pairs2 = [(r, s) for r in range(1, 3) for s in range(1, 3)]
    pairs3 = [(r, s) for r in range(1, 4) for s in range(1, 4)]
    cases = []
    for seed in range(2):
        rng = random.Random(f"frame-q-{seed}")
        for scene in (gln_scene(2, rng.sample(pairs2, 4)), gln_scene(3, rng.sample(pairs3, 9))):
            cases.append((scene.frame, scene.constants))
        for dim in (2, 3):
            chart = CHARTS[dim]
            while True:
                try:
                    frame = Frame([VectorField(chart, [rng.randint(-2, 2) for _ in range(dim)])
                                   for _ in range(dim)])
                    break
                except SingularFrameError:
                    continue
            cases.append((frame, zero_algebra([f"b{i}" for i in range(dim)])))
            for rational in (False, True):
                cases.append((random_frame(rng, chart, rational), random_algebra(rng, dim)))
    for algebra in (aff_line_lsa(), alpha_family(2), alpha_family(-1)):
        cases.append((aff_frame(chart_xy()), algebra))
    return cases


def test_frame_connections_match_the_subtract_everywhere_kernel():
    zero_gamma = 0
    for frame, constants in seeded_frames():
        conn = connection_from_frame(frame, constants)
        assert conn._rows == previous_connection_from_frame(frame, constants)._rows
        zero_gamma += conn == Connection.zero(conn.chart)
    assert zero_gamma == 8   # of 19
