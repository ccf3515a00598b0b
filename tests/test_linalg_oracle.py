"""The sparse echelon rref over every exact field against the earlier dense loop.

`linalg.rref` adds the rows, as sparse dicts, to one span kernel
(`linalg._QSpan`, on integer rows, over Q; `linalg._Echelon` over any other
field) and reads the canonical rows off it, sorted by pivot and made dense.
`tests/test_qspan_oracle.py` compares the two kernels directly.  This module
keeps the earlier dense Fraction Gauss-Jordan loop verbatim as `oracle_rref`.
`rank`, `solve`, `nullspace`, `invert` and `in_row_space` are all built on
`rref`, so their earlier results are those of the same functions with
`linalg.rref` replaced by the oracle.  Every function is compared with its
earlier self, value by value and pivot by pivot, on seeded matrices:
denominators 1 to 12 with zero rows and zero columns, the all-zero and the
empty matrix, wide sparse 0/±1 matrices shaped like the GL2 system
[A | b1 ... b256], tall 272 x 16 ones, rank-deficient products and numerators
near 2^200.  Every entry of a result must be in stored form: an int when it
is integral, a `Fraction` otherwise.

The oracle is also the earlier dense loop over every other field, which
`rref` over the rational functions ran until it moved onto `_Echelon` as well;
`rref`, `rank` and `invert` are compared with their earlier selves over the
rational functions too: dense, sparse, wide, tall, rank-deficient and
zero matrices over Q(x, y), and the GL2 frame matrix in seeded row orders.
"""
import random
from fractions import Fraction

import pytest

from flataffine import Chart, RationalFunction, linalg
from flataffine.linalg import in_row_space, invert, nullspace, rank, rref, solve
from helpers import assert_stored_vector, gln_scene, mat_mul, random_polynomial


def oracle_rref(rows, *, zero=Fraction(0)):
    """Reduced row-echelon form.

    Returns (reduced_rows, pivot_columns) with zero rows dropped.  Over an
    exact field the result is canonical for the row space.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c] != zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [e / pv for e in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != zero:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


@pytest.fixture
def earlier(monkeypatch):
    """Call a linalg function as it behaved on top of the oracle rref."""
    def call(fn, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "rref", oracle_rref)
            return fn(*args, **kwargs)
    return call


# ----- seeded matrices -----------------------------------------------------------


def rational_matrix(rng, rows, cols, *, density=0.7):
    """Entries p/q with q in 1..12, then one zero row and one zero column."""
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < density
          else Fraction(0) for _ in range(cols)] for _ in range(rows)]
    if rows > 1:
        m[rng.randrange(rows)] = [Fraction(0)] * cols
    if cols > 1:
        c = rng.randrange(cols)
        for row in m:
            row[c] = Fraction(0)
    return m


def sparse_sign_matrix(rng, rows, cols, density):
    return [[Fraction(rng.choice((1, -1))) if rng.random() < density else Fraction(0)
             for _ in range(cols)] for _ in range(rows)]


def mat_vec(m, x):
    return [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in m]


def low_rank_matrix(rng, rows, cols, inner):
    left = rational_matrix(rng, rows, inner, density=1.0)
    right = rational_matrix(rng, inner, cols, density=1.0)
    return mat_mul(left, right)


def big_matrix(rng, rows, cols):
    """Numerators within 10^6 of ±2^200, over denominators 1 to 12."""
    return [[Fraction(rng.choice((1, -1)) * 2 ** 200 + rng.randint(-10 ** 6, 10 ** 6),
                      rng.randint(1, 12)) for _ in range(cols)] for _ in range(rows)]


def gl2_shaped_system(rng):
    """A sparse 0/±1 16 x 16 A and 256 right-hand sides, half of them A·x."""
    a = sparse_sign_matrix(rng, 16, 16, 0.15)
    rhs = []
    for k in range(256):
        if k % 2:
            rhs.append(mat_vec(a, [Fraction(rng.randint(-1, 1)) for _ in range(16)]))
        else:
            rhs.append([row[0] for row in sparse_sign_matrix(rng, 16, 1, 0.1)])
    return a, rhs


def square_rational_matrix(rng, n):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)]
            for _ in range(n)]


CASES = {
    "rational-5x7": lambda rng: rational_matrix(rng, 5, 7),
    "rational-7x5": lambda rng: rational_matrix(rng, 7, 5),
    "rational-6x6": lambda rng: rational_matrix(rng, 6, 6),
    "rational-dense-5x5": lambda rng: square_rational_matrix(rng, 5),
    "rational-1x1": lambda rng: [[Fraction(rng.randint(1, 9), rng.randint(1, 12))]],
    "rational-1x6": lambda rng: rational_matrix(rng, 1, 6),
    "rational-6x1": lambda rng: rational_matrix(rng, 6, 1),
    "zero-4x3": lambda rng: [[Fraction(0)] * 3 for _ in range(4)],
    "zero-1x1": lambda rng: [[Fraction(0)]],
    "wide-sparse-16x272": lambda rng: sparse_sign_matrix(rng, 16, 272, 0.1),
    "wide-sparse-4x68": lambda rng: sparse_sign_matrix(rng, 4, 68, 0.1),
    "tall-sparse-272x16": lambda rng: sparse_sign_matrix(rng, 272, 16, 0.12),
    "low-rank-8x9": lambda rng: low_rank_matrix(rng, 8, 9, 3),
    "low-rank-9x8": lambda rng: low_rank_matrix(rng, 9, 8, 5),
    "low-rank-6x6": lambda rng: low_rank_matrix(rng, 6, 6, 4),
    "big-4x5": lambda rng: big_matrix(rng, 4, 5),
    "big-5x5": lambda rng: big_matrix(rng, 5, 5),
    "big-low-rank-5x6": lambda rng: mat_mul(big_matrix(rng, 5, 2), big_matrix(rng, 2, 6)),
}
SEEDS = (1, 2, 3)
SQUARE = ("rational-6x6", "rational-dense-5x5", "rational-1x1", "zero-1x1",
          "low-rank-6x6", "big-5x5")
# the earlier loop needs about 20 s to reduce the 256-vector nullspace basis of
# the 16 x 272 case; wide nullspaces are compared on the 4 x 68 one
NULLSPACE_CASES = [name for name in CASES if name != "wide-sparse-16x272"]


def case(name, seed):
    rng = random.Random(f"{name}-{seed}")
    return rng, CASES[name](rng)


def all_stored(rows):
    """Every entry in stored form: an int when integral, else a Fraction."""
    for row in rows:
        assert_stored_vector(row)
    return True


def with_ints(m):
    """The same matrix with every integral entry as an int."""
    return [[int(x) if x.denominator == 1 else x for x in row] for row in m]


# ----- comparisons ---------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(CASES))
def test_rref_and_rank_match_the_oracle(name, seed):
    _, m = case(name, seed)
    expected = oracle_rref(m)
    got = rref(m)
    assert got == expected
    assert all_stored(got[0])
    assert rref(with_ints(m)) == expected
    assert rank(m) == len(expected[0])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", NULLSPACE_CASES)
def test_nullspace_matches_the_oracle(name, seed, earlier):
    _, m = case(name, seed)
    ncols = len(m[0])
    null = nullspace(m, ncols)
    assert null == earlier(nullspace, m, ncols)
    assert all_stored(null)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(CASES))
def test_in_row_space_matches_the_oracle(name, seed, earlier):
    rng, m = case(name, seed)
    ncols = len(m[0])
    inside = [sum((w * row[k] for w, row in zip(weights, m)), Fraction(0))
              for weights in [[Fraction(rng.randint(-3, 3)) for _ in m]] for k in range(ncols)]
    probes = [inside, [Fraction(0)] * ncols,
              [Fraction(rng.randint(-5, 5), rng.randint(1, 12)) for _ in range(ncols)]]
    for v in probes:
        assert in_row_space(m, v) == earlier(in_row_space, m, v)
    assert in_row_space(m, inside)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(CASES))
def test_solve_matches_the_oracle(name, seed, earlier):
    rng, m = case(name, seed)
    ncols = len(m[0])
    consistent = [mat_vec(m, [Fraction(rng.randint(-4, 4), rng.randint(1, 6))
                              for _ in range(ncols)]) for _ in range(3)]
    arbitrary = [[Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in m]
                 for _ in range(3)]
    rhs = consistent + arbitrary
    expected = earlier(solve, m, rhs)
    got = solve(m, rhs)
    assert got == expected
    assert None not in got[:3]
    if rank(m) < len(m):
        assert None in expected[3:]
    assert all_stored(x for x in got if x is not None)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SQUARE)
def test_invert_matches_the_oracle(name, seed, earlier):
    _, m = case(name, seed)
    assert len(m) == len(m[0])
    try:
        expected = earlier(invert, m)
    except ValueError:
        with pytest.raises(ValueError):
            invert(m)
        return
    got = invert(m)
    assert got == expected
    assert all_stored(got)


def test_gl2_shaped_solve_matches_the_oracle(earlier):
    rng = random.Random(16)
    for _ in range(2):
        a, rhs = gl2_shaped_system(rng)
        expected = earlier(solve, a, rhs)
        assert solve(a, rhs) == expected
        assert all(x is not None for x in expected[1::2])
    augmented = [row + [b[i] for b in rhs] for i, row in enumerate(a)]
    assert rref(augmented) == oracle_rref(augmented)


def test_empty_matrix(earlier):
    assert rref([]) == oracle_rref([]) == ([], [])
    assert rank([]) == 0
    assert nullspace([], 3) == earlier(nullspace, [], 3)
    assert solve([], [[], []]) == [[], []]
    assert invert([]) == earlier(invert, []) == []
    assert in_row_space([], [Fraction(1)]) == earlier(in_row_space, [], [Fraction(1)])
    assert rref([[], []]) == oracle_rref([[], []]) == ([], [])


# ----- the echelon over Q(x, y) ---------------------------------------------------


QX = Chart("qx", ("x", "y"))
QX_ZERO = RationalFunction.zero(QX)


def rf_entry(rng):
    """A quotient of two random polynomials of degree at most 1."""
    den = random_polynomial(rng, QX, max_degree=1, max_terms=2)
    while den.is_zero():
        den = random_polynomial(rng, QX, max_degree=1, max_terms=2)
    return RationalFunction(random_polynomial(rng, QX, max_degree=1, max_terms=3), den)


def rf_matrix(rng, rows, cols, density):
    return [[rf_entry(rng) if rng.random() < density else QX_ZERO for _ in range(cols)]
            for _ in range(rows)]


def rf_low_rank(rng, rows, cols):
    """The last row is a Q(x, y)-combination of the others."""
    m = rf_matrix(rng, rows - 1, cols, 0.6)
    weights = [rf_entry(rng) for _ in m]
    m.append([sum((w * row[k] for w, row in zip(weights, m)), QX_ZERO)
              for k in range(cols)])
    return m


def gl2_frame_matrix(rng):
    rows = [list(f.coeffs) for f in gln_scene(2).frame.fields]
    rng.shuffle(rows)
    return rows


QX_CASES = {
    "dense-3x3": lambda rng: rf_matrix(rng, 3, 3, 1.0),
    "sparse-3x3": lambda rng: rf_matrix(rng, 3, 3, 0.4),
    "wide-2x5": lambda rng: rf_matrix(rng, 2, 5, 0.5),
    "tall-4x2": lambda rng: rf_matrix(rng, 4, 2, 0.6),
    "low-rank-3x3": lambda rng: rf_low_rank(rng, 3, 3),
    "low-rank-3x4": lambda rng: rf_low_rank(rng, 3, 4),
    "zero-row-3x3": lambda rng: rf_matrix(rng, 2, 3, 0.8) + [[QX_ZERO] * 3],
    "zero-2x2": lambda rng: [[QX_ZERO] * 2 for _ in range(2)],
    "gl2-frame-4x4": gl2_frame_matrix,
}
QX_SQUARE = ("dense-3x3", "sparse-3x3", "low-rank-3x3", "zero-row-3x3", "zero-2x2",
             "gl2-frame-4x4")


def qx_case(name, seed):
    """The matrix with the zero of its entries' field."""
    m = QX_CASES[name](random.Random(f"qx-{name}-{seed}"))
    return m, RationalFunction.zero(m[0][0].chart)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(QX_CASES))
def test_generic_rref_matches_the_oracle(name, seed):
    m, zero = qx_case(name, seed)
    expected = oracle_rref(m, zero=zero)
    assert rref(m, zero=zero) == expected
    assert rank(m, zero=zero) == len(expected[0])
    if name.startswith("low-rank"):
        assert len(expected[0]) < len(m)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", QX_SQUARE)
def test_generic_invert_matches_the_oracle(name, seed, earlier):
    m, zero = qx_case(name, seed)
    try:
        expected = earlier(invert, m, zero=zero)
    except ValueError:
        with pytest.raises(ValueError):
            invert(m, zero=zero)
        return
    assert invert(m, zero=zero) == expected
