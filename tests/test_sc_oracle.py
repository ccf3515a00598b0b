"""Structure-constant kernels against the dense loops they replaced.

`SCAlgebra` stores its constants as sparse rows, rows[i][j] = ((k, x), ...)
over the nonzero x, its only form; `product`, `left_mult_matrix`,
serialisation and the commutator read them.  The
associativity, left-symmetry and Jacobi scans run on integer constants scaled
by their common denominator, one pass per basis pair (i, j) that sums the
identity for every k at once and reports the pair's smallest failing k;
`LieAlgebraSC` is a validated `SCAlgebra` sharing its JSON entry writer.
This module keeps the earlier dense Fraction loops, the dense `_product` among
them, as oracles and compares verdicts, lexicographically-first witnesses,
vectors, matrices and JSON on seeded random algebras with integer and with
rational constants, on seeded sparse rational algebras (dimension 2 to 6,
density 0.05 to 0.4), on sparse matrix-unit algebras, on the matrix algebras
M2(Q) and M3(Q) in a random rational basis and on the GL2 ambient table.  The
matrix algebras and the GL2 table are associative and their commutators
satisfy Jacobi, so the passing paths run with real cancellation; one perturbed
constant moves the first witness away from (1, 1, 1).  Seeded cases whose
first failing pair fails only past its smallest k, while a later pair fails at
its smallest k, check that the scans report the pair first and then the k.
`restrict_to_subspace`, which multiplies the closure's integer rows and
reads each product's coordinates over its support through a pivot map, or
reads a span of unit vectors straight off the table's cells, is compared
with the loop over every pivot, run on a division `_Echelon` and dense
Fraction products, on closures whose echelon rows are not basis vectors, on
coordinate closures (the whole space, and the half-plane rank 5) and on
spans that are not closed, coordinate spans among them.  `_product`, the
integer kernel behind `product`, must give D du dv times the oracle product
of u and v, for the algebra's denominator lcm D and the vectors' du and dv.
Algebras built by `product_table`, `restrict_to_subspace`,
`opposite` and `adjoin_unit`, which skip the public constructor's coercion,
are checked to be in its canonical form.  `SCAlgebra.from_products`, which
reads only the entries it is given, is compared with the dense dim^3 build
through the public constructor on seeded tables and on each error that
build raises (an unknown name, unit or coefficient type, a bad coefficient
string, a repeated basis name).
"""
import random
import re
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
from flataffine.algebra import _scaled_constants
from flataffine.linalg import _Echelon, _integral, invert
from helpers import (
    aff_line_connection,
    assert_stored,
    assert_stored_vector,
    dense_constants,
    gln_scene,
    perturbed,
    random_algebra,
    six_field_table_algebra,
    six_iat_fields,
    unit_matrix_algebra,
)


# ----- oracles -------------------------------------------------------------------------


def oracle_product(A, u, v):
    c = dense_constants(A)
    out = [Fraction(0)] * A.dim
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj:
                continue
            scale = ui * vj
            for k, ck in enumerate(c[i][j]):
                if ck:
                    out[k] += scale * ck
    return tuple(out)


def oracle_lincomb(n, terms):
    """The sum of scale * vector over (scale, vector) terms, skipping zero entries."""
    out = [Fraction(0)] * n
    for scale, vector in terms:
        if scale:
            for k, x in enumerate(vector):
                if x:
                    out[k] += scale * x
    return tuple(out)


def oracle_dense_product(c, u, v):
    """The dense `SCAlgebra._product` of Fraction vectors, over the cells of
    the dense constants c."""
    return oracle_lincomb(len(c), ((ui * vj, c[i][j])
                                  for i, ui in enumerate(u) if ui
                                  for j, vj in enumerate(v) if vj))


def oracle_associator(c, i, j, k):
    """(e_i e_j) e_k - e_i (e_j e_k) over the dense constants c."""
    n = len(c)
    left = [Fraction(0)] * n
    for l, cl in enumerate(c[i][j]):
        if cl:
            for m, cm in enumerate(c[l][k]):
                if cm:
                    left[m] += cl * cm
    right = [Fraction(0)] * n
    for l, cl in enumerate(c[j][k]):
        if cl:
            for m, cm in enumerate(c[i][l]):
                if cm:
                    right[m] += cl * cm
    return tuple(a - b for a, b in zip(left, right))


def oracle_check_associative(A):
    n, c = A.dim, dense_constants(A)
    zero = (Fraction(0),) * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if oracle_associator(c, i, j, k) != zero:
                    return False, (i + 1, j + 1, k + 1)
    return True, None


def oracle_check_left_symmetric(A):
    n, c = A.dim, dense_constants(A)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for k in range(n):
                if oracle_associator(c, i, j, k) != oracle_associator(c, j, i, k):
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
    n, c = A.dim, dense_constants(A)
    m = [[Fraction(0)] * n for _ in range(n)]
    for i, vi in enumerate(vec):
        if not vi:
            continue
        for j in range(n):
            for k, ck in enumerate(c[i][j]):
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
    return {"dim": n, "basis": list(L.basis_names),
            "brackets": oracle_entries(dense_constants(L), pairs)}


def oracle_algebra_json(A):
    n = A.dim
    pairs = [(i, j) for i in range(n) for j in range(n)]
    doc = {"dim": n, "basis": list(A.basis_names),
           "products": oracle_entries(dense_constants(A), pairs)}
    if A.unit_index is not None:
        doc["unit"] = A.unit_index + 1
    return doc


def oracle_commutator_constants(A):
    n, c = A.dim, dense_constants(A)
    return [[tuple(a - b for a, b in zip(c[i][j], c[j][i])) for j in range(n)]
            for i in range(n)]


def oracle_failures(A, kind):
    """Every failing basis triple (0-based, lexicographic) of one scan: the
    associator, the left-symmetric identity, or Jacobi for the commutators."""
    n, c = A.dim, dense_constants(A)
    zero = (Fraction(0),) * n
    if kind == "associative":
        return [(i, j, k) for i in range(n) for j in range(n) for k in range(n)
                if oracle_associator(c, i, j, k) != zero]
    if kind == "left-symmetric":
        return [(i, j, k) for i in range(n) for j in range(n) if i != j for k in range(n)
                if oracle_associator(c, i, j, k) != oracle_associator(c, j, i, k)]
    f = dense_constants(SCAlgebra(A.basis_names, oracle_commutator_constants(A)))
    return [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)
            if oracle_jacobi_witness_at(f, i, j, k)]


def oracle_jacobi_witness_at(f, i, j, k):
    """True iff the Jacobi sum of the dense bracket constants f at (i, j, k)
    is nonzero."""
    total = [Fraction(0)] * len(f)
    for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
        for l, il in enumerate(f[b][d]):
            for m, fm in enumerate(f[a][l]):
                total[m] += il * fm
    return any(total)


def oracle_restrict_to_subspace(A, space):
    """The restriction loop that read every product at every pivot column,
    on a division `_Echelon` built from the space's rows, read as `Fraction`s
    (the division kernel's field elements), and on dense `Fraction`
    products, so no integer kernel is under it."""
    echelon = _Echelon()
    for row in space.rows:
        echelon.add({k: Fraction(x) for k, x in enumerate(row) if x})
    pivots = sorted(echelon.rows)
    vectors = [echelon.rows[p] for p in pivots]
    basis_names = space.named_basis(A.basis_names) or [f"v{i + 1}" for i in range(len(vectors))]
    c = dense_constants(A)
    rows = []
    for u in vectors:
        row = []
        for v in vectors:
            dense = oracle_dense_product(c, [u.get(k, 0) for k in range(A.dim)],
                                         [v.get(k, 0) for k in range(A.dim)])
            w = {k: x for k, x in enumerate(dense) if x}
            if echelon.reduce(w):
                raise ValueError("subspace is not closed under the product")
            row.append(tuple((a, w[p]) for a, p in enumerate(pivots) if p in w))
        rows.append(tuple(row))
    return SCAlgebra._of(basis_names, tuple(rows))


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


def sparse_rational_algebra(seed):
    """Dimension 2 to 6, each constant nonzero with a seeded probability
    between 0.05 and 0.4, with values p/q, q in 1..5."""
    rng = random.Random(f"sparse-{seed}")
    dim, density = rng.randint(2, 6), rng.uniform(0.05, 0.4)
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if rng.random() < density:
                    c[i][j][k] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 5))
    return SCAlgebra([f"b{k + 1}" for k in range(dim)], c)


def gl2_ambient():
    """The product table of the GL2 envelope: 7 invariant and 9 linear fields."""
    scene = gln_scene(2)
    inv_names, inv_fields = scene.invariant_fields()
    names, fields = independent_fields(inv_fields + scene.f_fields, inv_names + scene.f_names)
    return product_table(scene.connect(), fields, names)


def rescaled(rng, A):
    """A in the basis lambda_k b_k: c[i][j][k] becomes lambda_i lambda_j / lambda_k
    times it, so an associative A stays associative with mixed denominators."""
    lam = [Fraction(rng.randint(1, 5), rng.randint(1, 7)) for _ in range(A.dim)]
    return SCAlgebra(A.basis_names, [[[lam[i] * lam[j] / lam[k] * x for k, x in enumerate(vec)]
                                      for j, vec in enumerate(row)]
                                     for i, row in enumerate(dense_constants(A))])


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
    for size, strict in ((3, False), (4, True)):
        M = unit_matrix_algebra(size, strict)
        name = f"units-{size}{'-strict' if strict else ''}"
        yield name, M
        rng = random.Random(150 + size)
        for seed in range(4):
            yield f"{name}-perturbed-{seed}", perturbed(rng, M, fractional=seed % 2 == 1)
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
        assert [list(row) for row in dense_constants(lie)] == f
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
    c = dense_constants(A)
    for _ in range(5):
        u, v = random_vector(rng, A.dim), random_vector(rng, A.dim)
        assert A.product(u, v) == oracle_product(A, u, v) == oracle_dense_product(c, u, v)
        # the integer kernel: D du dv times the product of u and v
        (iu, du), (iv, dv) = (_integral({k: x for k, x in enumerate(w) if x}) for w in (u, v))
        sparse = A._product(iu, iv)
        assert all(type(x) is int for x in sparse.values())
        scale = _scaled_constants(A)[0] * du * dv
        assert sparse == {k: x * scale
                          for k, x in enumerate(oracle_dense_product(c, u, v)) if x}
        assert left_mult_matrix(A, v) == oracle_left_mult_matrix(A, v)
    zero = [0] * A.dim
    assert left_mult_matrix(A, zero) == oracle_left_mult_matrix(A, zero)
    assert A.to_json_dict() == oracle_algebra_json(A)
    # an integer table is its own integer constants; any other is scaled once
    D, scaled = _scaled_constants(A)
    integral = all(type(x) is int for row in A.rows for cell in row for _, x in cell)
    assert (D == 1) == integral and (scaled is A.rows) == integral


def test_left_mult_matrix_in_dimension_zero():
    A = SCAlgebra((), [])
    assert left_mult_matrix(A, ()) == oracle_left_mult_matrix(A, ()) == []
    with pytest.raises(ValueError, match="expected a vector of length 0"):
        left_mult_matrix(A, (Fraction(1),))


SCANS = ("associative", "left-symmetric", "jacobi")


def scan_witness(A, kind):
    """The first witness of one library scan, 0-based, or None when it holds."""
    if kind == "jacobi":
        try:
            commutator_algebra(A)
        except JacobiError as err:
            with pytest.raises(JacobiError) as again:
                LieAlgebraSC(A.basis_names, oracle_commutator_constants(A))
            assert again.value.witness == err.witness
            return tuple(x - 1 for x in err.witness)
        return None
    report = (check_associative if kind == "associative" else check_left_symmetric)(A)
    assert report.holds is (report.witness is None)
    return None if report.holds else tuple(x - 1 for x in report.witness)


def fails_late(kind, failures):
    """True when the first failing pair fails only past its smallest k (1, or
    j + 1 for Jacobi) and a later pair fails at its smallest k."""
    def smallest(j):
        return j + 1 if kind == "jacobi" else 0
    i, j, k = failures[0]
    return k > smallest(j) and any((a, b) > (i, j) and c == smallest(b)
                                   for a, b, c in failures)


@pytest.mark.parametrize("seed", range(60))
def test_sparse_rational_scans_match_oracle(seed):
    A = sparse_rational_algebra(seed)
    for kind in SCANS:
        failures = oracle_failures(A, kind)
        assert scan_witness(A, kind) == (failures[0] if failures else None)


@pytest.mark.parametrize("kind", SCANS)
def test_a_pair_failing_late_comes_before_a_later_pair_failing_early(kind):
    # a scan that stopped at the first pair failing at its smallest k, or
    # that read k in another order, would report the later pair
    found = 0
    for seed in range(60, 1000):
        A = sparse_rational_algebra(seed)
        failures = oracle_failures(A, kind)
        if failures and fails_late(kind, failures):
            assert scan_witness(A, kind) == failures[0]
            found += 1
            if found == 8:
                return
    pytest.fail(f"only {found} seeded {kind} cases fail late")


def restriction_cases():
    """Closures in seeded rational algebras, the whole space included, and
    proper closures of one or two generators, whose echelon rows are not
    basis vectors."""
    for seed in range(4):
        A = CASES[f"rational-{seed}"]
        rng = random.Random(f"restrict-{seed}")
        gens = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(A.dim)]
                for _ in range(2)]
        yield f"rational-{seed}", A, subalgebra_closure(A, gens)
    for name, count in (("M2-0", 1), ("M2-1", 1), ("M2-0-rescaled", 1), ("M3-0", 1),
                        ("units-3", 1), ("units-4-strict", 1), ("units-4-strict", 2)):
        A = CASES[name]
        rng = random.Random(f"restrict-{name}-{count}")
        gens = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(A.dim)]
                for _ in range(count)]
        yield f"{name}-{count}", A, subalgebra_closure(A, gens)


RESTRICTIONS = {name: (A, space) for name, A, space in restriction_cases()}


@pytest.mark.parametrize("name", RESTRICTIONS)
def test_restriction_matches_the_all_pivot_loop(name):
    A, space = RESTRICTIONS[name]
    restricted = restrict_to_subspace(A, space)
    assert restricted == oracle_restrict_to_subspace(A, space)
    assert restricted.rows == SCAlgebra(restricted.basis_names,
                                        dense_constants(restricted)).rows
    if not name.startswith("rational"):
        assert 0 < space.rank < A.dim
        assert space.named_basis(A.basis_names) is None
        assert any(x not in (0, 1) for row in space.rows for x in row)


def coordinate_restriction_cases():
    """Generators whose closure has unit-vector echelon rows, which the
    restriction reads off the table: the GL2 envelope's seven E* (rank 16,
    reached partway through a round), seeded generators that span their
    algebra, and the half-plane e1-, e2- (rank 5 of 6)."""
    yield "gl2-envelope", GL2_AMBIENT, [
        GL2_AMBIENT.basis_vector(i)
        for i, name in enumerate(GL2_AMBIENT.basis_names) if name.startswith("E")]
    for seed in range(4):
        A = CASES[f"rational-{seed}"]
        rng = random.Random(f"spanning-{seed}")
        yield (f"spanning-rational-{seed}", A,
               [[random_rational(rng) for _ in range(A.dim)] for _ in range(A.dim)])
    table = six_field_table_algebra()
    yield "half-plane", table, [table.basis_vector(0), table.basis_vector(1)]


COORDINATE_RESTRICTIONS = {name: (A, gens) for name, A, gens in coordinate_restriction_cases()}


@pytest.mark.parametrize("name", COORDINATE_RESTRICTIONS)
def test_coordinate_restriction_matches_the_all_pivot_loop(name):
    A, generators = COORDINATE_RESTRICTIONS[name]
    space = subalgebra_closure(A, generators)
    assert space.named_basis(A.basis_names) is not None
    assert space.rank == {"gl2-envelope": 16, "half-plane": 5}.get(name, A.dim)
    restricted = restrict_to_subspace(A, space)
    assert restricted == oracle_restrict_to_subspace(A, space)
    assert restricted.rows == SCAlgebra(restricted.basis_names,
                                        dense_constants(restricted)).rows
    if space.rank == A.dim:
        assert restricted.rows is A.rows


@pytest.mark.parametrize("name", ["gl2-envelope", "half-plane"])
def test_restriction_to_a_coordinate_span_that_is_not_closed(name):
    # the generators' own span, which their products leave
    A, generators = COORDINATE_RESTRICTIONS[name]
    space = Subspace(A.dim, generators)
    assert space.named_basis(A.basis_names) is not None
    assert space.rank < subalgebra_closure(A, generators).rank
    with pytest.raises(ValueError) as oracle:
        oracle_restrict_to_subspace(A, space)
    with pytest.raises(ValueError) as err:
        restrict_to_subspace(A, space)
    assert str(err.value) == str(oracle.value)


@pytest.mark.parametrize("seed", range(4))
def test_restriction_to_a_span_that_is_not_closed(seed):
    rng = random.Random(f"open-{seed}")
    A = CASES[f"M2-{seed % 3}"]
    u, v = ([Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(A.dim)]
            for _ in range(2))
    space = Subspace(A.dim, [u, v])
    assert subalgebra_closure(A, [u, v]).rank > space.rank
    with pytest.raises(ValueError) as oracle:
        oracle_restrict_to_subspace(A, space)
    with pytest.raises(ValueError) as err:
        restrict_to_subspace(A, space)
    assert str(err.value) == str(oracle.value)


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
    yield "unital-six", adjoin_unit(table)
    yield "opposite-unital", opposite(adjoin_unit(table))
    yield "commutator-six", commutator_algebra(table)
    # c[a][b] - c[b][a] = 1/2 - (-1/2): a difference of Fractions stored as the int 1
    halves = SCAlgebra.from_products(("a", "b"), {("a", "b"): {"a": Fraction(1, 2)},
                                                  ("b", "a"): {"a": Fraction(-1, 2)}})
    yield "commutator-halves", commutator_algebra(halves)
    closure = subalgebra_closure(table, [table.basis_vector(0), table.basis_vector(1)])
    yield "restricted-six", restrict_to_subspace(table, closure)
    # plain int rows (the closure of e1-, e2- scaled), read out over their
    # pivot entries
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
    c = dense_constants(A)
    assert A.rows == SCAlgebra(A.basis_names, c, A.unit_index).rows
    assert type(A.rows) is tuple and len(A.rows) == A.dim
    for row in A.rows:
        assert type(row) is tuple and len(row) == A.dim
        for cell in row:
            assert type(cell) is tuple
            assert [k for k, _ in cell] == sorted({k for k, _ in cell})
            assert all(type(k) is int and 0 <= k < A.dim for k, _ in cell)
            for _, x in cell:
                assert_stored(x)
    assert type(c) is tuple and len(c) == A.dim
    for row in c:
        assert type(row) is tuple and len(row) == A.dim
        for vec in row:
            assert type(vec) is tuple and len(vec) == A.dim
            assert_stored_vector(vec)


# ----- from_products: the entries given, against the dense build ------------------------


# the task-file grammar, the oracle's own copy: a string coefficient is "p" or "p/q"
ORACLE_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def oracle_coefficient(x):
    """`Fraction(x)`, with a string read by the task-file grammar and refused
    with its two messages."""
    if not isinstance(x, str):
        return Fraction(x)
    if not ORACLE_RATIONAL.fullmatch(x):
        raise ValueError(f'bad rational {x!r}: write an integer, "p" or "p/q"')
    p, _, q = x.partition("/")
    try:
        return Fraction(int(p), int(q or 1))
    except (ValueError, ZeroDivisionError) as err:
        raise ValueError(f"bad rational {x!r}: {err}") from None


def oracle_from_products(basis_names, products, unit=None):
    """`SCAlgebra.from_products` as a dense dim^3 build through the public
    constructor, which coerces every entry."""
    names = tuple(basis_names)
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (left, right), combo in products.items():
        row = c[index[left]][index[right]]
        for name, coeff in combo.items():
            row[index[name]] = oracle_coefficient(coeff)
    return SCAlgebra(names, c, index[unit] if unit is not None else None)


def random_products(rng, names):
    """A seeded sparse table whose coefficients are ints, Fractions and
    strings, zeros among them; a cell may be an empty dict."""
    coefficients = [0, 1, -2, Fraction(3, 4), Fraction(0), "5/6", "-1", "0", Fraction(-7, 3)]
    products = {}
    for left in names:
        for right in names:
            if rng.random() < 0.4:
                products[left, right] = {name: rng.choice(coefficients)
                                         for name in rng.sample(names, rng.randint(0, min(3, len(names))))}
    return products


def outcome(build, *args):
    try:
        return build(*args)
    except Exception as err:   # the two builds must raise alike
        return type(err), str(err)


FROM_PRODUCTS = {}
for _seed in range(8):
    _rng = random.Random(f"from-products-{_seed}")
    _names = [f"b{k}" for k in range(_rng.randint(1, 6))]
    FROM_PRODUCTS[f"seeded-{_seed}"] = (_names, random_products(_rng, _names),
                                        _rng.choice([None] + _names))
_names = ["a", "b"]
FROM_PRODUCTS.update({
    "unknown-left": (_names, {("a", "a"): {"a": 1}, ("c", "a"): {"a": 1}}, None),
    "unknown-right": (_names, {("a", "c"): {"a": 1}}, None),
    "unknown-result": (_names, {("a", "b"): {"a": 1, "z": 2}}, None),
    "unknown-unit": (_names, {("a", "b"): {"a": 1}}, "u"),
    "bad-string": (_names, {("a", "b"): {"a": "1/x"}}, None),
    "zero-denominator": (_names, {("a", "b"): {"a": "1/0"}}, None),
    "none-coefficient": (_names, {("b", "b"): {"b": None}}, None),
    "list-coefficient": (_names, {("b", "a"): {"a": 1, "b": [1]}}, None),
    "repeated-name": (["a", "b", "a"], {("a", "b"): {"b": 1}}, None),
    "empty-table": (_names, {}, "b"),
})


@pytest.mark.parametrize("names, products, unit", FROM_PRODUCTS.values(),
                         ids=list(FROM_PRODUCTS))
def test_from_products_matches_the_dense_build(names, products, unit):
    got = outcome(SCAlgebra.from_products, names, products, unit)
    expected = outcome(oracle_from_products, names, products, unit)
    if isinstance(expected, SCAlgebra):
        assert got == expected
        assert got.rows == expected.rows and got.unit_index == expected.unit_index
        for row in got.rows:
            for cell in row:
                for _, x in cell:
                    assert_stored(x)
    else:
        assert got == expected


def test_from_products_cases_reach_every_error():
    kinds = set()
    for case in FROM_PRODUCTS.values():
        result = outcome(oracle_from_products, *case)
        kinds.add(result[0] if isinstance(result, tuple) else type(result))
    assert kinds == {SCAlgebra, KeyError, ValueError, TypeError}


def test_from_products_on_a_subclass_builds_a_plain_algebra():
    """No `LieAlgebraSC` is built without its checks: this table is not
    antisymmetric."""
    A = LieAlgebraSC.from_products(("a", "b"), {("a", "b"): {"a": 1}})
    assert type(A) is SCAlgebra
    assert A == SCAlgebra.from_products(("a", "b"), {("a", "b"): {"a": 1}})
