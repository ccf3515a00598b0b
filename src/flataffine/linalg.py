"""Exact linear algebra over any exact field, on one sparse elimination.

The functions other than `nullspace` (Q only) work with any element type
supporting +, -, *, / and truthiness (Fraction, RationalFunction); pass `zero`
(and `one` to `invert`) when the field is not the rationals.  Matrices are
lists of row lists; no input is mutated.  Over Q (a `Fraction` zero, the
default) the entries may be ints or Fractions and every result entry is a
`Fraction`.

`_Echelon`, a span held as sparse, fully reduced echelon rows, is the one
elimination for every field: `rref`, and so every function here, runs on it,
and it answers every span question of the algebra and envelope layers.
"""
from __future__ import annotations

from fractions import Fraction

_QZERO = Fraction(0)
_QONE = Fraction(1)


def rref(rows, *, zero=_QZERO):
    """Reduced row-echelon form.

    Returns (reduced_rows, pivot_columns) with zero rows dropped.  Over an
    exact field the result is canonical for the row space: the rows go, as
    sparse dicts, into one `_Echelon`, whose rows sorted by pivot are that
    canonical form, made dense with `zero`.  Over Q each entry is coerced
    with `Fraction`, as ints would divide to floats.
    """
    entry = Fraction if isinstance(zero, Fraction) else (lambda x: x)
    echelon = _Echelon()
    for row in rows:
        echelon.add({c: entry(x) for c, x in enumerate(row) if x})
    pivots = sorted(echelon.rows)
    columns = range(len(rows[0]) if rows else 0)
    return [[echelon.rows[p].get(c, zero) for c in columns] for p in pivots], pivots


def rank(rows, *, zero=_QZERO) -> int:
    return len(rref(rows, zero=zero)[0])


def nullspace(rows, ncols: int):
    """Basis of the right nullspace over Q, returned in reduced row-echelon form.

    The rows are those of `_nullspace_rows`, made dense; the ansatz solver
    reads that helper directly on its own sparse equations.
    """
    echelon = _Echelon()
    for row in rows:
        echelon.add({c: Fraction(x) for c, x in enumerate(row) if x})
    return [[r.get(c, _QZERO) for c in range(ncols)] for r in _nullspace_rows(echelon, ncols)]


def solve(rows, rhs_list, *, zero=_QZERO):
    """One exact solution of rows·x = b for each b in rhs_list, or None for a b
    that is inconsistent; all are read off one rref of [rows | b1 ... bm].

    Free variables are set to zero, which makes each solution deterministic;
    it is the unique solution when the columns are independent.  No library
    code calls it (spans go through `_Echelon`); it stays because the
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


def _nullspace_rows(echelon: "_Echelon", ncols: int) -> list:
    """The right nullspace in Q^ncols of the span `echelon` holds, as the rows
    of its reduced row-echelon basis: sparse dicts sorted by pivot.

    Each free column f (no pivot there) gives the vector with 1 at f and
    -rows[p][f] at each pivot column p; every entry of a fully reduced row
    off its own pivot is at a free column.  Those vectors go into a second
    `_Echelon`, so the basis is the canonical one.
    """
    pivots = echelon.rows
    basis = {f: {f: _QONE} for f in range(ncols) if f not in pivots}
    for p, row in pivots.items():
        for f, x in row.items():
            if f != p:
                basis[f][p] = -x
    null = _Echelon()
    for vec in basis.values():
        null.add(vec)
    return [null.rows[p] for p in sorted(null.rows)]


class _Echelon:
    """A subspace of F^n, over any exact field F, held as sparse, fully
    reduced echelon rows.

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
