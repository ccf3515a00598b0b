"""Structure-constant kernels against the dense loops they replaced.

`product` and `left_mult_matrix` run on one Fraction linear-combination
kernel; the associativity, left-symmetry and Jacobi scans run on integer
constants scaled by their common denominator; `LieAlgebraSC` is a validated
`SCAlgebra` sharing its JSON entry writer.  This module keeps the earlier
hand-written Fraction loops as oracles and compares verdicts,
lexicographically-first witnesses, vectors, matrices and JSON on seeded random
algebras with integer and with rational constants, on the matrix algebras
M2(Q) and M3(Q) in a random rational basis and on the GL2 ambient table.  The
matrix algebras and the GL2 table are associative and their commutators
satisfy Jacobi, so the passing paths run with real cancellation; one perturbed
constant moves the first witness away from (1, 1, 1).  Algebras built by
`product_table`, `restrict_to_subspace` and `opposite`, which skip the public
constructor's coercion, are checked to be in its canonical form.
"""
import random
from fractions import Fraction

import pytest

from flataffine import (
    JacobiError,
    LieAlgebraSC,
    SCAlgebra,
    Subspace,
    adjoin_unit,
    check_associative,
    check_left_symmetric,
    commutator_algebra,
    left_mult_matrix,
    opposite,
    product_table,
    restrict_to_subspace,
    subalgebra_closure,
)
from flataffine.geometry import independent_fields
from flataffine.linalg import invert
from helpers import (
    GL2Scene,
    aff_line_connection,
    random_algebra,
    six_field_table_algebra,
    six_iat_fields,
)


# ----- oracles -------------------------------------------------------------------------


def oracle_product(A, u, v):
    out = [Fraction(0)] * A.dim
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj:
                continue
            scale = ui * vj
            for k, ck in enumerate(A.c[i][j]):
                if ck:
                    out[k] += scale * ck
    return tuple(out)


def oracle_associator(A, i, j, k):
    n = A.dim
    left = [Fraction(0)] * n
    for l, cl in enumerate(A.c[i][j]):
        if cl:
            for m, cm in enumerate(A.c[l][k]):
                if cm:
                    left[m] += cl * cm
    right = [Fraction(0)] * n
    for l, cl in enumerate(A.c[j][k]):
        if cl:
            for m, cm in enumerate(A.c[i][l]):
                if cm:
                    right[m] += cl * cm
    return tuple(a - b for a, b in zip(left, right))


def oracle_check_associative(A):
    n = A.dim
    zero = (Fraction(0),) * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if oracle_associator(A, i, j, k) != zero:
                    return False, (i + 1, j + 1, k + 1)
    return True, None


def oracle_check_left_symmetric(A):
    n = A.dim
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for k in range(n):
                if oracle_associator(A, i, j, k) != oracle_associator(A, j, i, k):
                    return False, (i + 1, j + 1, k + 1)
    return True, None


def oracle_jacobi_witness(f, n):
    zero = (Fraction(0),) * n
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = [Fraction(0)] * n
                for (a, b, cidx) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = f[b][cidx]
                    for l, il in enumerate(inner):
                        if il:
                            for m, fm in enumerate(f[a][l]):
                                if fm:
                                    total[m] += il * fm
                if tuple(total) != zero:
                    return (i + 1, j + 1, k + 1)
    return None


def oracle_left_mult_matrix(A, vec):
    n = A.dim
    m = [[Fraction(0)] * n for _ in range(n)]
    for i, vi in enumerate(vec):
        if not vi:
            continue
        for j in range(n):
            for k, ck in enumerate(A.c[i][j]):
                if ck:
                    m[k][j] += vi * ck
    return m


def oracle_entries(c, pairs):
    entries = []
    for i, j in pairs:
        vec = c[i][j]
        if any(vec):
            entries.append({"left": i + 1, "right": j + 1,
                            "result": [str(x) for x in vec]})
    return entries


def oracle_lie_json(L):
    n = L.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return {"dim": n, "basis": list(L.basis_names), "brackets": oracle_entries(L.c, pairs)}


def oracle_algebra_json(A):
    n = A.dim
    pairs = [(i, j) for i in range(n) for j in range(n)]
    doc = {"dim": n, "basis": list(A.basis_names), "products": oracle_entries(A.c, pairs)}
    if A.unit_index is not None:
        doc["unit"] = A.unit_index + 1
    return doc


def oracle_commutator_constants(A):
    n = A.dim
    return [[tuple(a - b for a, b in zip(A.c[i][j], A.c[j][i])) for j in range(n)]
            for i in range(n)]


# ----- inputs --------------------------------------------------------------------------


def random_rational(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def random_vector(rng, n):
    return [random_rational(rng) if rng.random() < 0.6 else Fraction(0) for _ in range(n)]


def matrix_algebra(rng, size):
    """M_size(Q) in the basis b_k = sum_m T[k][m] E_m for a random invertible T."""
    n = size * size
    while True:
        T = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        try:
            T_inv = invert(T)
            break
        except ValueError:
            continue

    def unit_product(a, b):
        # E_(p,q) E_(r,s) = [q == r] E_(p,s), with E_(p,q) at index p*size + q
        (p, q), (r, s) = divmod(a, size), divmod(b, size)
        return p * size + s if q == r else None

    c = []
    for i in range(n):
        row = []
        for j in range(n):
            in_units = [Fraction(0)] * n
            for a, ta in enumerate(T[i]):
                for b, tb in enumerate(T[j]):
                    m = unit_product(a, b)
                    if ta and tb and m is not None:
                        in_units[m] += ta * tb
            row.append([sum((in_units[m] * T_inv[m][k] for m in range(n)), Fraction(0))
                        for k in range(n)])
        c.append(row)
    return SCAlgebra([f"b{k + 1}" for k in range(n)], c)


def random_rational_algebra(rng, dim):
    """Sparse constants p/q with q in 2..7, so the common denominator varies."""
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if rng.random() < 0.3:
                    c[i][j][k] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(2, 7))
    return SCAlgebra([f"b{k + 1}" for k in range(dim)], c)


def gl2_ambient():
    """The product table of the GL2 envelope: 7 invariant and 9 linear fields."""
    scene = GL2Scene()
    inv_names, inv_fields = scene.invariant_fields()
    names, fields = independent_fields(inv_fields + scene.f_fields, inv_names + scene.f_names)
    return product_table(scene.connection, fields, names)


def perturbed(rng, A, fractional=False):
    """A copy of A with one structure constant moved by a nonzero rational
    (a non-integer one when `fractional`)."""
    n = A.dim
    c = [[list(vec) for vec in row] for row in A.c]
    i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    delta = rng.choice((-1, 1)) * Fraction(rng.randint(1, 3), rng.randint(1, 2))
    while fractional and delta.denominator == 1:
        delta = rng.choice((-1, 1)) * Fraction(rng.randint(1, 6), rng.randint(2, 7))
    c[i][j][k] += delta
    return SCAlgebra(A.basis_names, c)


def rescaled(rng, A):
    """A in the basis lambda_k b_k: c[i][j][k] becomes lambda_i lambda_j / lambda_k
    times it, so an associative A stays associative with mixed denominators."""
    lam = [Fraction(rng.randint(1, 5), rng.randint(1, 7)) for _ in range(A.dim)]
    return SCAlgebra(A.basis_names, [[[lam[i] * lam[j] / lam[k] * x for k, x in enumerate(vec)]
                                      for j, vec in enumerate(row)]
                                     for i, row in enumerate(A.c)])


GL2_AMBIENT = gl2_ambient()


def inputs():
    for seed in range(12):
        yield f"random-{seed}", random_algebra(random.Random(seed), 2 + seed % 4)
    for seed in range(8):
        yield f"rational-{seed}", random_rational_algebra(random.Random(seed), 2 + seed % 4)
    # M3 (dimension 9, dense constants) takes seconds per scan, so one seed
    for size, seed in ((2, 0), (2, 1), (2, 2), (3, 0)):
        rng = random.Random(100 + seed)
        M = matrix_algebra(rng, size)
        yield f"M{size}-{seed}", M
        yield f"M{size}-{seed}-perturbed", perturbed(rng, M)
        if size == 2:
            yield f"M2-{seed}-rescaled", rescaled(rng, M)
    yield "GL2", GL2_AMBIENT
    rng = random.Random(200)
    for seed in range(10):
        yield f"GL2-perturbed-{seed}", perturbed(rng, GL2_AMBIENT, fractional=True)
    # a full oracle scan of a passing 16-dim table takes most of a second, so the
    # rescaled GL2 table (mixed denominators) enters only perturbed
    GL2_rescaled = rescaled(rng, GL2_AMBIENT)
    for seed in range(3):
        yield f"GL2-rescaled-perturbed-{seed}", perturbed(rng, GL2_rescaled, fractional=True)


CASES = dict(inputs())


# ----- comparisons ---------------------------------------------------------------------


@pytest.mark.parametrize("name, A", CASES.items(), ids=list(CASES))
def test_identity_checks_match_oracle(name, A):
    associative, left_symmetric = check_associative(A), check_left_symmetric(A)
    assert (associative.holds, associative.witness) == oracle_check_associative(A)
    assert (left_symmetric.holds, left_symmetric.witness) == oracle_check_left_symmetric(A)
    if name.startswith(("M", "GL2")) and "perturbed" not in name:
        assert associative.holds and left_symmetric.holds


@pytest.mark.parametrize("name, A", CASES.items(), ids=list(CASES))
def test_commutator_and_jacobi_match_oracle(name, A):
    f = oracle_commutator_constants(A)
    expected = oracle_jacobi_witness(f, A.dim)
    if name.startswith(("M", "GL2")) and "perturbed" not in name:
        assert expected is None
    if expected is None:
        lie = commutator_algebra(A)
        assert [list(row) for row in lie.c] == f
        assert lie.to_json_dict() == oracle_lie_json(lie)
        assert isinstance(lie, SCAlgebra) and lie != SCAlgebra(A.basis_names, f)
    else:
        with pytest.raises(JacobiError) as err:
            commutator_algebra(A)
        assert err.value.witness == expected
        with pytest.raises(JacobiError) as err:
            LieAlgebraSC(A.basis_names, f)
        assert err.value.witness == expected


@pytest.mark.parametrize("name, A", CASES.items(), ids=list(CASES))
def test_products_and_matrices_match_oracle(name, A):
    rng = random.Random(name)
    for _ in range(5):
        u, v = random_vector(rng, A.dim), random_vector(rng, A.dim)
        assert A.product(u, v) == oracle_product(A, u, v)
        assert left_mult_matrix(A, v) == oracle_left_mult_matrix(A, v)
    assert A.to_json_dict() == oracle_algebra_json(A)


def test_lie_json_keeps_brackets_with_i_below_j():
    lie = commutator_algebra(matrix_algebra(random.Random(7), 2))
    doc = lie.to_json_dict()
    assert doc == oracle_lie_json(lie)
    assert doc["brackets"] and all(e["left"] < e["right"] for e in doc["brackets"])
    assert "products" not in doc


# ----- canonical form of the algebras built without the public constructor ------------


def built_algebras():
    rng = random.Random(300)
    yield "table-gl2", GL2_AMBIENT
    names, fields = six_iat_fields()
    table = product_table(aff_line_connection(), fields, names)
    yield "table-six", table
    yield "opposite-six", opposite(table)
    yield "opposite-unital", opposite(adjoin_unit(table))
    closure = subalgebra_closure(table, [table.basis_vector(0), table.basis_vector(1)])
    yield "restricted-six", restrict_to_subspace(table, closure)
    # plain int rows (the closure of e1-, e2- scaled): the subspace holds Fractions
    rows = [[2 * int(i == k) for i in range(6)] for k in range(5)]
    yield "restricted-int-rows", restrict_to_subspace(six_field_table_algebra(),
                                                      Subspace(6, rows))
    for seed in range(6):
        A = CASES[f"rational-{seed}"]
        gens = [[Fraction(rng.randint(-2, 2)) for _ in range(A.dim)] for _ in range(2)]
        yield f"restricted-rational-{seed}", restrict_to_subspace(A, subalgebra_closure(A, gens))
        yield f"opposite-rational-{seed}", opposite(A)


BUILT = dict(built_algebras())


@pytest.mark.parametrize("name, A", BUILT.items(), ids=list(BUILT))
def test_built_algebras_are_canonical(name, A):
    assert A == SCAlgebra(A.basis_names, A.c, A.unit_index)
    assert type(A.c) is tuple and len(A.c) == A.dim
    for row in A.c:
        assert type(row) is tuple and len(row) == A.dim
        for vec in row:
            assert type(vec) is tuple and len(vec) == A.dim
            assert all(type(x) is Fraction for x in vec)
