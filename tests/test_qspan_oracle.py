"""The integer span kernel over Q against the division kernel it replaced.

`linalg._QSpan` holds a span of Q^n as fully reduced echelon rows of
integers: each row primitive, with a positive pivot entry and no entry at any
other row's pivot column, and it eliminates by cross-multiplication.
`linalg._Echelon`, which divides by the pivot, stays in the library for the
rational functions and serves here as the oracle over Q, with the division
`_nullspace_rows` it used to feed kept verbatim below.  On seeded sparse
matrices, both kernels must give the same pivots, the same rows once each
integer row is divided by its pivot entry, the same `add` answers, the same
`reduce` residual as Fractions and the same nullspace, and every entry read
out must be in stored form: an int when it is integral, else a `Fraction`.  The integer form is checked as well: `reduce`
returns its residual over the least denominator, and the rows are primitive
with positive pivot entries.  Hand-made mutants of the kernel must fail the
check.
"""
import random
from fractions import Fraction
from math import gcd

import pytest

from flataffine import linalg
from flataffine.linalg import _Echelon, _integral, _nullspace_rows, _QSpan, _read, _sub_scaled
from helpers import assert_stored_vector


# ----- the division kernel's nullspace (test oracle only) ------------------------------


def oracle_nullspace_rows(echelon, ncols):
    """The right nullspace of the span of a division `_Echelon`, as the rows
    of its reduced row-echelon basis, sorted by pivot."""
    pivots = echelon.rows
    basis = {f: {f: Fraction(1)} for f in range(ncols) if f not in pivots}
    for p, row in pivots.items():
        for f, x in row.items():
            if f != p:
                basis[f][p] = -x
    null = _Echelon()
    for vec in basis.values():
        null.add(vec)
    return [null.rows[p] for p in sorted(null.rows)]


# ----- seeded sparse matrices -----------------------------------------------------------


def sparse_rows(rng, nrows, ncols, density, entry):
    rows = []
    for _ in range(nrows):
        row = {c: entry(rng) for c in range(ncols) if rng.random() < density}
        rows.append({c: x for c, x in row.items() if x})
    return rows


def small_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 12))


def small_int(rng):
    # pivot entries other than +-1 arise from these
    return rng.choice((-6, -4, -3, -2, 2, 3, 4, 5, 7, 9))


def huge(rng):
    return Fraction(rng.choice((-1, 1)) * (2 ** 200 + rng.randint(-10 ** 6, 10 ** 6)),
                    rng.randint(1, 12))


def unit(rng):
    return rng.choice((-1, 1))


def with_zero_rows(rng, rows):
    for _ in range(rng.randint(1, 3)):
        rows.insert(rng.randint(0, len(rows)), {})
    return rows


def label_system(rng, n=16, slots=256):
    """Rows shaped like the GL2 coordinate system: sparse 0/+-1 slots and a
    -1 in a label column of each row's own past every slot."""
    rows = []
    for b in range(n):
        row = {c: unit(rng) for c in rng.sample(range(slots), rng.randint(1, 4))}
        row[slots + n - 1 - b] = -1
        rows.append(row)
    # a dependent row: the sum of two earlier ones, with its own label
    dep = dict(rows[1])
    for c, x in rows[3].items():
        dep[c] = dep.get(c, 0) + x
    rows.append({c: x for c, x in dep.items() if x and c < slots})
    return rows, slots + n


def cases():
    """(name, rows, ncols) for every family, three seeds each."""
    for seed in range(3):
        rng = random.Random(f"qspan-{seed}")
        rows = with_zero_rows(rng, sparse_rows(rng, 7, 9, 0.5, small_fraction))
        yield f"denominators-{seed}", rows, 9
        yield f"pivots-not-unit-{seed}", sparse_rows(rng, 6, 8, 0.6, small_int), 8
        yield f"rank-deficient-{seed}", rank_deficient(rng), 10
        yield f"huge-{seed}", sparse_rows(rng, 5, 7, 0.6, huge), 7
        yield f"zero-rows-{seed}", [{}, {}, {}], 4
        rows, ncols = label_system(rng)
        yield f"label-system-{seed}", rows, ncols
        yield f"wide-{seed}", sparse_rows(rng, 16, 272, 0.02, unit), 272
        yield f"tall-{seed}", sparse_rows(rng, 272, 16, 0.15, small_fraction), 16
    yield "empty", [], 0
    yield "empty-rows", [], 5


def rank_deficient(rng):
    """Combinations of three random rows with rational weights."""
    base = sparse_rows(rng, 3, 10, 0.5, small_fraction)
    rows = []
    for _ in range(6):
        weights = [small_fraction(rng) for _ in base]
        row = {}
        for w, b in zip(weights, base):
            for c, x in b.items():
                row[c] = row.get(c, 0) + w * x
        rows.append({c: x for c, x in row.items() if x})
    return rows


CASES = {name: (rows, ncols) for name, rows, ncols in cases()}


def probes(rng, rows, ncols):
    """Vectors to reduce: the rows themselves, combinations of them (in the
    span) and random vectors (usually not)."""
    out = [dict(r) for r in rows[:6]]
    for _ in range(4):
        vec = {}
        for r in rng.sample(rows, min(3, len(rows))):
            w = small_fraction(rng)
            for c, x in r.items():
                vec[c] = vec.get(c, 0) + w * x
        out.append({c: x for c, x in vec.items() if x})
    if ncols:
        out.append({c: small_fraction(rng) for c in rng.sample(range(ncols), min(3, ncols))})
    return [{c: x for c, x in v.items() if x} for v in out]


# ----- the check ------------------------------------------------------------------------


def check_kernel(span_class, name):
    rows, ncols = CASES[name]
    span, oracle = span_class(), _Echelon()
    for row in rows:
        got = span.add(_integral(row)[0])
        want = oracle.add({c: Fraction(x) for c, x in row.items()})
        assert (got is None) == (want is None)
        if got is not None:
            p = min(got)
            assert _read(got, got[p]) == want
    assert sorted(span.rows) == sorted(oracle.rows)
    pivots = set(span.rows)
    for p, row in span.rows.items():
        assert all(type(x) is int and x for x in row.values())
        assert row[p] > 0
        assert gcd(*row.values()) == 1
        assert not (pivots - {p}) & set(row)
        normalised = _read(row, row[p])
        assert normalised == oracle.rows[p]
        assert_stored_vector(normalised.values())
    rng = random.Random(f"probe-{name}")
    for vec in probes(rng, rows, ncols):
        residual, scale = span.reduce(*_integral(vec))
        want = oracle.reduce({c: Fraction(x) for c, x in vec.items()})
        assert _read(residual, scale) == want
        # the residual over the least denominator
        assert (residual, scale) == _integral(want)
    null = _nullspace_rows(span, ncols)
    assert null == oracle_nullspace_rows(oracle, ncols)
    for row in null:
        assert_stored_vector(row.values())
    assert len(null) == ncols - len(span.rows)


@pytest.mark.parametrize("name", CASES)
def test_integer_kernel_matches_the_division_kernel(name):
    check_kernel(_QSpan, name)


def test_the_families_reach_every_branch():
    """Non-unit and negative pivots, denominators past 1 and nullspaces occur."""
    non_unit = scaled = 0
    for rows, ncols in CASES.values():
        span = _QSpan()
        for row in rows:
            vec, d = _integral(row)
            scaled += d > 1
            span.add(vec)
        non_unit += any(r[p] != 1 for p, r in span.rows.items())
    assert non_unit >= 6 and scaled >= 6
    # rows that start with a negative entry, whose sign the kernel flips
    assert sum(row[min(row)] < 0 for rows, _ in CASES.values() for row in rows if row) >= 20


def test_rref_rank_and_nullspace_read_fractions_of_the_kernel():
    rows = [[2, 4, Fraction(1, 3)], [0, 0, 0], [Fraction(1, 2), 1, 5]]
    reduced, pivots = linalg.rref(rows)
    assert pivots == [0, 2]
    assert reduced == [[1, 2, 0], [0, 0, 1]]
    for row in reduced:
        assert_stored_vector(row)
    assert linalg.rank(rows) == 2
    assert linalg.nullspace(rows, 3) == [[1, Fraction(-1, 2), 0]]
    assert linalg.rref([]) == ([], [])


# ----- hand-made mutants ----------------------------------------------------------------


class NonPrimitive(_QSpan):
    """The new row keeps its content."""
    __slots__ = ()

    def add(self, vec):
        res, _ = self.reduce(vec)
        if not res:
            return None
        p = min(res)
        if res[p] < 0:
            res = {m: -y for m, y in res.items()}
        return _finish(self, res, p)


class NegativePivot(_QSpan):
    """The new row is divided by its content but keeps its sign."""
    __slots__ = ()

    def add(self, vec):
        res, _ = self.reduce(vec)
        if not res:
            return None
        p = min(res)
        g = gcd(*res.values())
        return _finish(self, {m: y // g for m, y in res.items()}, p)


class NoBackSubstitution(_QSpan):
    """Earlier rows keep their entries at the new pivot column."""
    __slots__ = ()

    def add(self, vec):
        res, _ = self.reduce(vec)
        if not res:
            return None
        p = min(res)
        g = gcd(*res.values())
        if res[p] < 0:
            g = -g
        res = {m: y // g for m, y in res.items()}
        self.rows[p] = res
        return res


class DroppedScale(_QSpan):
    """reduce cross-multiplies without recording the scale."""
    __slots__ = ()

    def reduce(self, vec, scale=1):
        out = dict(vec)
        for p in vec:
            row = self.rows.get(p)
            if row is None:
                continue
            x, a = out[p], row[p]
            g = gcd(a, x)
            out = {m: (a // g) * y for m, y in out.items()}
            _sub_scaled(out, x // g, row)
        return out, scale


class NotLeast(_QSpan):
    """reduce keeps a denominator that its residual shares a factor with."""
    __slots__ = ()

    def reduce(self, vec, scale=1):
        out = dict(vec)
        for p in vec:
            row = self.rows.get(p)
            if row is None:
                continue
            x, a = out[p], row[p]
            g = gcd(a, x)
            out = {m: (a // g) * y for m, y in out.items()}
            scale *= a // g
            _sub_scaled(out, x // g, row)
        return out, scale


class NoGcdAtNonUnitPivots(_QSpan):
    """Back-substitution never divides an updated row by its content."""
    __slots__ = ()

    def add(self, vec):
        res, _ = self.reduce(vec)
        if not res:
            return None
        p = min(res)
        g = gcd(*res.values())
        if res[p] < 0:
            g = -g
        return _finish(self, {m: y // g for m, y in res.items()}, p, primitive=False)


def _finish(span, res, p, primitive=True):
    """The back-substitution of `_QSpan.add`, optionally without the gcd."""
    a = res[p]
    for q, other in list(span.rows.items()):
        y = other.get(p)
        if y:
            g = gcd(a, y)
            other = {m: (a // g) * z for m, z in other.items()}
            _sub_scaled(other, y // g, res)
            c = gcd(*other.values())
            if primitive and c != 1:
                other = {m: z // c for m, z in other.items()}
            span.rows[q] = other
    span.rows[p] = res
    return res


MUTANTS = [NonPrimitive, NegativePivot, NoBackSubstitution, DroppedScale, NotLeast,
           NoGcdAtNonUnitPivots]


def test_the_correct_finish_passes():
    """The mutants share `_finish`; without a mutation it is a correct kernel."""
    class Finished(_QSpan):
        __slots__ = ()

        def add(self, vec):
            res, _ = self.reduce(vec)
            if not res:
                return None
            p = min(res)
            g = gcd(*res.values())
            if res[p] < 0:
                g = -g
            return _finish(self, {m: y // g for m, y in res.items()}, p)

    for name in CASES:
        check_kernel(Finished, name)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.__name__ for m in MUTANTS])
def test_the_check_catches_mutants(mutant):
    failed = 0
    for name in CASES:
        try:
            check_kernel(mutant, name)
        except (AssertionError, KeyError):   # KeyError: a row left at another pivot
            failed += 1
    assert failed
