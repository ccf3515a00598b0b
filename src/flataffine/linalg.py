"""Exact linear algebra over Q, and over any other exact field.

The functions other than `nullspace` (Q only) work with any element type
supporting +, -, *, / and truthiness (Fraction, RationalFunction); pass `zero`
(and `one` to `invert`) when the field is not the rationals.  Matrices are
lists of row lists; no input is mutated.  Over Q (a `Fraction` zero, the
default) the entries may be ints or Fractions and every result entry is a
`Fraction`.

A span is held as sparse, fully reduced echelon rows by one of two kernels;
the entry field chooses which.  Over Q, `_QSpan` keeps each row as a
primitive integer vector with a positive pivot entry and eliminates by
cross-multiplication (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp., 1968); a `Fraction`
is built only where an entry leaves it (`_read`).  Every function here over
Q, and every span question of the algebra and envelope layers, runs on it.
Over any other field (the rational functions of a frame matrix), `_Echelon`
divides by the pivot.  The reduced row-echelon form is unique, and each of
its rows has one primitive integer multiple with a positive pivot entry, so
over Q both give the same pivots, rows, coordinates and nullspaces.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_QZERO = Fraction(0)
_QONE = Fraction(1)


def rref(rows, *, zero=_QZERO):
    """Reduced row-echelon form.

    Returns (reduced_rows, pivot_columns) with zero rows dropped.  Over an
    exact field the result is canonical for the row space: the rows go, as
    sparse dicts, into one span kernel (`_QSpan` over Q, `_Echelon`
    otherwise), whose rows sorted by pivot are that canonical form, made
    dense with `zero`.
    """
    if isinstance(zero, Fraction):
        span = _q_span(rows)
        pivots = sorted(span.rows)
        reduced = span.basis()
    else:
        echelon = _Echelon()
        for row in rows:
            echelon.add({c: x for c, x in enumerate(row) if x})
        pivots = sorted(echelon.rows)
        reduced = [echelon.rows[p] for p in pivots]
    columns = range(len(rows[0]) if rows else 0)
    return [[r.get(c, zero) for c in columns] for r in reduced], pivots


def rank(rows, *, zero=_QZERO) -> int:
    return len(rref(rows, zero=zero)[0])


def nullspace(rows, ncols: int):
    """Basis of the right nullspace over Q, returned in reduced row-echelon form.

    The rows are those of `_nullspace_rows`, made dense; the ansatz solver
    reads that helper directly on its own sparse equations.
    """
    return [[r.get(c, _QZERO) for c in range(ncols)]
            for r in _nullspace_rows(_q_span(rows), ncols)]


def solve(rows, rhs_list, *, zero=_QZERO):
    """One exact solution of rows·x = b for each b in rhs_list, or None for a b
    that is inconsistent; all are read off one rref of [rows | b1 ... bm].

    Free variables are set to zero, which makes each solution deterministic;
    it is the unique solution when the columns are independent.  No library
    code calls it (spans go through `_QSpan`); it stays because the
    benchmark's tracer patches it by name.
    """
    if not rows:
        return [[] for _ in rhs_list]
    ncols = len(rows[0])
    augmented = [list(r) + [b[i] for b in rhs_list] for i, r in enumerate(rows)]
    reduced, pivots = rref(augmented, zero=zero)
    # rows past the rank of `rows` are zero on it: b is consistent iff its
    # column is zero there
    rank_a = sum(1 for c in pivots if c < ncols)
    solutions = []
    for j in range(ncols, ncols + len(rhs_list)):
        x = [zero] * ncols
        for i, c in enumerate(pivots[:rank_a]):
            x[c] = reduced[i][j]
        consistent = all(row[j] == zero for row in reduced[rank_a:])
        solutions.append(x if consistent else None)
    return solutions


def invert(rows, *, zero=_QZERO, one=_QONE):
    """Matrix inverse, read off the rref of [rows | I]; raises ValueError on
    singular input."""
    n = len(rows)
    augmented = []
    for i, r in enumerate(rows):
        if len(r) != n:
            raise ValueError("matrix must be square")
        ident = [one if j == i else zero for j in range(n)]
        augmented.append(list(r) + ident)
    reduced, pivots = rref(augmented, zero=zero)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in reduced]


def in_row_space(rows, vector, *, zero=_QZERO) -> bool:
    """Whether vector lies in the row space of rows.  No library code calls
    it; it stays because the benchmark's tracer patches it by name."""
    reduced, _ = rref(rows, zero=zero)
    extended, _ = rref(reduced + [list(vector)], zero=zero)
    return len(extended) == len(reduced)


def _sub_scaled(out: dict, x, row: dict) -> None:
    """out -= x * row for sparse vectors {column: value}, dropping the zeros."""
    for m, y in row.items():
        z = out[m] - x * y if m in out else -(x * y)
        if z:
            out[m] = z
        else:
            del out[m]


def _q_span(rows) -> "_QSpan":
    """The row space of a matrix of ints and Fractions."""
    span = _QSpan()
    for row in rows:
        span.add(_integral({c: x for c, x in enumerate(row) if x})[0])
    return span


def _integral(vec: dict):
    """(w, d) for a sparse vector of ints and Fractions: the least d > 0
    that makes w = d * vec integral, and w as a dict of ints."""
    d = lcm(*[x.denominator for x in vec.values()])
    if d == 1:
        return {m: x.numerator for m, x in vec.items()}, 1
    return {m: x.numerator * (d // x.denominator) for m, x in vec.items()}, d


def _read(vec: dict, d: int) -> dict:
    """The sparse vector vec / d of an integer vector, as `Fraction`s: where
    an entry leaves the integer kernel."""
    if d == 1:
        return {m: Fraction(x) for m, x in vec.items()}
    return {m: Fraction(x, d) for m, x in vec.items()}


def _nullspace_rows(span: "_QSpan", ncols: int) -> list:
    """The right nullspace in Q^ncols of `span`, as the rows of its reduced
    row-echelon basis: sparse dicts of `Fraction`s, sorted by pivot.

    Each free column f (no pivot there) gives the vector with 1 at f and
    -rows[p][f] / rows[p][p] at each pivot column p; every entry of a fully
    reduced row off its own pivot is at a free column.  The vector of a free
    column that some row touches, times the lcm of those rows' pivot
    entries, is an integer vector; these go into a second `_QSpan`, which
    makes each primitive, so their basis is the canonical one.  An untouched
    free column f gives the unit vector e_f, which is already a reduced row:
    every other vector, and so every row of that basis, is 0 at f, and e_f
    is 0 at their pivots.  So the unit rows are merged in by pivot (a row's
    least column) without being reduced.
    """
    pivots = span.rows
    touched = {}
    for p, row in pivots.items():
        for f, x in row.items():
            if f != p:
                touched.setdefault(f, {})[p] = x
    null = _QSpan()
    for f, column in sorted(touched.items()):
        L = lcm(*[pivots[p][p] for p in column])
        null.add({f: L} | {p: -x * (L // pivots[p][p]) for p, x in column.items()})
    units = [{f: _QONE} for f in range(ncols) if f not in pivots and f not in touched]
    return sorted(null.basis() + units, key=min)


class _QSpan:
    """A subspace of Q^n held as sparse, fully reduced echelon rows of
    integers.

    Vectors are dicts {column: int} without zero entries.  `rows` maps each
    pivot column p to its row: a primitive vector (its entries' gcd is 1)
    with a positive entry at p and no entry at any other row's pivot column;
    divided by that entry, it is the row `_Echelon` holds.  A row r with
    pivot entry a removes column p from w as w <- (a/g) w - (w[p]/g) r, with
    g = gcd(a, w[p]): where a = 1 that is w - w[p] r, with no gcd and no
    rescaling.  A row's content divides its pivot entry, so only a row whose
    pivot entry is not 1 takes a gcd to stay primitive.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = {}

    def basis(self) -> list:
        """The reduced row-echelon basis, sorted by pivot: each row over its
        pivot entry, as `Fraction`s."""
        return [_read(row, row[p]) for p, row in sorted(self.rows.items())]

    def reduce(self, vec: dict, scale: int = 1):
        """The residual of vec / scale (vec integral, scale > 0), as (w, d):
        w / d = vec / scale - sum_p (vec[p] / scale) rows[p] / rows[p][p],
        w integral and d > 0 least; w is empty iff vec is in the span."""
        out = dict(vec)
        rows = self.rows
        for p in vec:
            row = rows.get(p)
            if row is None:
                continue
            x = out[p]   # no other row has an entry at column p
            a = row[p]
            if a != 1:
                g = gcd(a, x)
                a //= g
                x //= g
                if a != 1:
                    out = {m: a * y for m, y in out.items()}
                    scale *= a
            _sub_scaled(out, x, row)
        if scale != 1:
            g = gcd(scale, *out.values())
            if g != 1:
                out = {m: y // g for m, y in out.items()}
                scale //= g
        return out, scale

    def add(self, vec: dict):
        """Add the integer vector vec to the span and return its new row (a
        dict no later call changes), or None when vec is in the span
        already."""
        res, _ = self.reduce(vec)
        if not res:
            return None
        p = min(res)
        a = res[p]
        if a != 1:
            g = gcd(*res.values())
            if a < 0:
                g = -g
            res = {m: y // g for m, y in res.items()}
            a //= g
        # back-substitution: clear column p from the other rows (new dicts, so
        # a row handed out earlier never changes)
        rows = self.rows
        for q, other in list(rows.items()):
            y = other.get(p)
            if y:
                if a != 1:
                    g = gcd(a, y)
                    other = {m: (a // g) * z for m, z in other.items()}
                    y //= g
                else:
                    other = dict(other)
                _sub_scaled(other, y, res)
                if other[q] != 1:
                    g = gcd(*other.values())
                    if g != 1:
                        other = {m: z // g for m, z in other.items()}
                rows[q] = other
        rows[p] = res
        return res


class _Echelon:
    """A subspace of F^n, over any exact field F, held as sparse, fully
    reduced echelon rows; over Q, `_QSpan` holds the same rows as integers.

    Vectors are dicts {column: value} without zero entries.  `rows` maps
    each pivot column p to its row: entry 1 at p and no entry at any other
    row's pivot column.  So a vector v of the span is sum_p v[p] * rows[p]:
    its coordinates are its own entries at the pivot columns, and reducing v
    is one pass over them, with no cascade.  A new row takes the lowest column
    of its residual as pivot, so the rows sorted by pivot are the span's
    canonical reduced row-echelon basis.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = {}

    def reduce(self, vec: dict) -> dict:
        """The residual vec - sum_p vec[p] * rows[p]; empty iff vec is in the span."""
        out = dict(vec)
        rows = self.rows
        for p, x in vec.items():
            row = rows.get(p)
            if row is not None:
                _sub_scaled(out, x, row)
        return out

    def add(self, vec: dict):
        """Add vec to the span and return its new row (a dict no later call
        changes), or None when vec is in the span already."""
        res = self.reduce(vec)
        if not res:
            return None
        p = min(res)
        pv = res[p]
        row = {m: y / pv for m, y in res.items()}
        # back-substitution: clear column p from the other rows (new dicts, so
        # a row handed out earlier never changes)
        rows = self.rows
        for q, other in list(rows.items()):
            x = other.get(p)
            if x:
                other = dict(other)
                _sub_scaled(other, x, row)
                rows[q] = other
        rows[p] = row
        return row
