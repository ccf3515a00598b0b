"""Exact linear algebra: dense over any exact field, sparse over Q.

The dense functions work with any element type supporting +, -, *, / and
truthiness (Fraction, RationalFunction).  Pass `zero` and `one` when the
field is not the rationals.  Matrices are lists of row lists; no input is
mutated.  Over the rationals (a `Fraction` zero, the default) the entries may
be ints or Fractions, every elimination runs on integer rows and every result
entry is a `Fraction`.

`_Echelon` is the sparse kernel over Q that answers every span question of
the algebra and envelope layers: it holds a span as fully reduced echelon
rows, so the work follows the nonzero entries.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_QZERO = Fraction(0)
_QONE = Fraction(1)


def rref(rows, *, zero=_QZERO):
    """Reduced row-echelon form.

    Returns (reduced_rows, pivot_columns) with zero rows dropped.  Over an
    exact field the result is canonical for the row space.  Q runs on the
    integer kernel `_rref_q`; the loop below serves the other fields.
    """
    if isinstance(zero, Fraction):
        return _rref_q(rows)
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
        m[r] = [e / pv if e else e for e in m[r]]
        # a - f*b is a wherever the pivot row has b = 0
        support = [(j, b) for j, b in enumerate(m[r]) if b]
        for i in range(len(m)):
            if i != r and m[i][c] != zero:
                f = m[i][c]
                row = m[i]
                for j, b in support:
                    row[j] = row[j] - f * b
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def _rref_q(rows):
    """rref over Q by fraction-free Gauss-Jordan elimination.

    Each row is scaled to integers by the lcm of its denominators, and every
    row combination a*row_i - b*row_r is divided by its content, so the rows
    stay primitive.  Row spaces and pivots are those of the rational matrix;
    the canonical rows are built once at the end, pivot row / pivot entry.
    """
    m = []
    for row in rows:
        dens = [e.denominator for e in row]
        d = lcm(*dens)
        m.append([e.numerator for e in row] if d == 1 else
                 [e.numerator * (d // q) for e, q in zip(row, dens)])
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        prow = m[r]
        a = prow[c]
        for i, row in enumerate(m):
            b = row[c]
            if b and i != r:
                g = gcd(a, b)
                a_g, b_g = a // g, b // g
                row = [a_g * x - b_g * y for x, y in zip(row, prow)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return [[Fraction(x, row[c]) if x else _QZERO for x in row]
            for row, c in zip(m, pivots)], pivots


def rank(rows, *, zero=_QZERO) -> int:
    return len(rref(rows, zero=zero)[0])


def nullspace(rows, ncols: int, *, zero=_QZERO, one=_QONE):
    """Basis of the right nullspace, returned in reduced row-echelon form."""
    reduced, pivots = rref(rows, zero=zero)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for i, pc in enumerate(pivots):
            v[pc] = zero - reduced[i][f]
        basis.append(v)
    return rref(basis, zero=zero)[0]


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
    """Matrix inverse by Gauss-Jordan; raises ValueError on singular input."""
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
        z = out.get(m, _QZERO) - x * y
        if z:
            out[m] = z
        else:
            del out[m]


class _Echelon:
    """A subspace of Q^n held as sparse, fully reduced echelon rows.

    Vectors are dicts {column: Fraction} without zero entries.  `rows` maps
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
