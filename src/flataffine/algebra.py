"""Finite-dimensional algebras given by structure constants over the rationals.

Conventions:
  * constants are stored sparse: rows[i][j] is the product basis_i · basis_j
    as a tuple of (k, x) pairs, one per nonzero coefficient x (a `Fraction`)
    of basis_k, in ascending k (all indices 0-based internally).  Every
    library function reads these rows, so its work follows the nonzero cells;
  * `c`, the dense tuple with c[i][j][k] the coefficient of basis_k in
    basis_i · basis_j, is a view derived from the rows on first access, for
    callers outside the library;
  * every witness and every JSON index is reported 1-based, matching the
    mathematical indexing of the checks;
  * the serialized form is
      {"dim": n, "basis": [names], "products": [{"left": i, "right": j,
       "result": ["p/q", ...]}]}
    with omitted products meaning zero; a Lie algebra (an SCAlgebra checked
    for antisymmetry and Jacobi) writes only the pairs i < j, under "brackets".
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import linalg

Vector = tuple[Fraction, ...]
Row = tuple[tuple[int, Fraction], ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of an identity scan: holds, or the first failing triple (1-based)."""
    holds: bool
    witness: tuple | None = None


class JacobiError(ValueError):
    """Commutator constants violate the Jacobi identity."""

    def __init__(self, witness: tuple):
        super().__init__(
            f"Jacobi identity fails at basis triple {witness}; "
            "the product is neither associative nor left-symmetric")
        self.witness = witness


def _to_vector(values, dim: int) -> Vector:
    vec = tuple(Fraction(v) for v in values)
    if len(vec) != dim:
        raise ValueError(f"expected a vector of length {dim}, got {len(vec)}")
    return vec


def _row(vec) -> Row:
    """The sparse row of a dense vector."""
    return tuple((k, x) for k, x in enumerate(vec) if x)


def _sparse(vec) -> dict:
    """A dense vector as a dict {k: x} over its nonzero entries."""
    return {k: x for k, x in enumerate(vec) if x}


def _dense(n: int, items) -> Vector:
    """The length-n `Fraction` tuple with the (k, x) items and zeros elsewhere."""
    out = [_ZERO] * n
    for k, x in items:
        out[k] = x
    return tuple(out)


def _difference(u: Row, v: Row) -> Row:
    """u - v for sparse rows."""
    if not v:
        return u
    out = dict(u)
    for k, x in v:
        out[k] = out.get(k, _ZERO) - x
    return tuple((k, x) for k, x in sorted(out.items()) if x)


def _negated(u: Row) -> Row:
    return tuple((k, -x) for k, x in u)


class SCAlgebra:
    """An algebra presented by structure constants; no identity is assumed."""

    __slots__ = ("dim", "basis_names", "rows", "unit_index", "_c")

    def __init__(self, basis_names, c, unit_index: int | None = None):
        """Build from dense constants c[i][j][k] (any values `Fraction` accepts)."""
        n = len(c)
        if any(len(row) != n for row in c):
            raise ValueError("structure constants must be n x n x n")
        self._wrap(basis_names, tuple(tuple(_row(_to_vector(vec, n)) for vec in row)
                                      for row in c), unit_index)

    @classmethod
    def _of(cls, basis_names, rows, unit_index: int | None = None) -> "SCAlgebra":
        """Wrap sparse rows that are already in the stored form (an n x n tuple
        of (k, x) tuples, ascending k, nonzero `Fraction` x), without coercing
        them again; only names and unit are checked."""
        self = object.__new__(cls)
        self._wrap(basis_names, rows, unit_index)
        return self

    def _wrap(self, basis_names, rows, unit_index):
        self.basis_names = tuple(basis_names)
        self.dim = len(self.basis_names)
        if len(set(self.basis_names)) != self.dim:
            raise ValueError("basis names must be unique")
        if len(rows) != self.dim:
            raise ValueError("structure constants must be n x n x n")
        if unit_index is not None and not (0 <= unit_index < self.dim):
            raise ValueError("unit index out of range")
        self.rows = rows
        self.unit_index = unit_index
        self._c = None

    @property
    def c(self) -> tuple:
        """The dense constants c[i][j][k], derived from `rows` on first access."""
        if self._c is None:
            n = self.dim
            self._c = tuple(tuple(_dense(n, cell) for cell in row) for row in self.rows)
        return self._c

    @classmethod
    def from_products(cls, basis_names, products, unit: str | None = None) -> "SCAlgebra":
        """Build from a sparse table {(left_name, right_name): {name: coeff}}."""
        names = tuple(basis_names)
        n = len(names)
        index = {name: i for i, name in enumerate(names)}
        c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for (left, right), combo in products.items():
            row = c[index[left]][index[right]]
            for name, coeff in combo.items():
                row[index[name]] = Fraction(coeff)
        return cls(names, c, index[unit] if unit is not None else None)

    def basis_index(self, name: str) -> int:
        try:
            return self.basis_names.index(name)
        except ValueError:
            raise KeyError(f"no basis element named {name!r}") from None

    def basis_vector(self, i: int) -> Vector:
        return tuple(Fraction(int(j == i)) for j in range(self.dim))

    def product(self, u, v) -> Vector:
        """Bilinear product of two coordinate vectors."""
        n = self.dim
        return _dense(n, self._product(_sparse(_to_vector(u, n)),
                                       _sparse(_to_vector(v, n))).items())

    def _product(self, u: dict, v: dict) -> dict:
        """`product` of two sparse vectors {k: x}, as a sparse vector."""
        out = {}
        rows = self.rows
        for i, x in u.items():
            row = rows[i]
            for j, y in v.items():
                cell = row[j]
                if cell:
                    xy = x * y
                    for k, z in cell:
                        out[k] = out.get(k, _ZERO) + xy * z
        return {k: x for k, x in out.items() if x}

    def __eq__(self, other) -> bool:
        # a Lie algebra never equals the plain algebra with the same constants
        return (type(other) is type(self)
                and self.basis_names == other.basis_names
                and self.rows == other.rows
                and self.unit_index == other.unit_index)

    def __hash__(self):
        return hash((self.basis_names, self.rows, self.unit_index))

    def __repr__(self):
        return f"<{type(self).__name__} dim={self.dim} basis={self.basis_names}>"

    # ----- serialization --------------------------------------------------

    def _entries(self, pairs) -> list:
        """JSON entries of the nonzero products among the (i, j) pairs, 1-based."""
        n, rows = self.dim, self.rows
        return [{"left": i + 1, "right": j + 1,
                 "result": [str(x) for x in _dense(n, rows[i][j])]}
                for i, j in pairs if rows[i][j]]

    def to_json_dict(self) -> dict:
        n = self.dim
        doc = {"dim": n, "basis": list(self.basis_names),
               "products": self._entries((i, j) for i in range(n) for j in range(n))}
        if self.unit_index is not None:
            doc["unit"] = self.unit_index + 1
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SCAlgebra":
        n = doc["dim"]
        names = tuple(doc["basis"])
        if len(names) != n:
            raise ValueError("basis length does not match dim")
        c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for entry in doc.get("products", ()):
            i, j = entry["left"] - 1, entry["right"] - 1
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"product index out of range: {entry}")
            c[i][j] = [Fraction(x) for x in entry["result"]]
        unit = doc.get("unit")
        return cls(names, c, None if unit is None else unit - 1)


class LieAlgebraSC(SCAlgebra):
    """An SCAlgebra whose product is a Lie bracket.

    Antisymmetry and Jacobi are checked at construction; the bracket is
    `product` and its constants are `rows`.
    """

    __slots__ = ()

    def __init__(self, basis_names, f):
        super().__init__(basis_names, f)
        self._require_lie()

    @classmethod
    def _checked(cls, basis_names, rows) -> "LieAlgebraSC":
        """`_of` for stored-form rows that still need both checks."""
        lie = cls._of(basis_names, rows)
        lie._require_lie()
        return lie

    def _require_lie(self) -> None:
        rows, n = self.rows, self.dim
        # (i, j) fails iff (j, i) does, so the first failing pair has i <= j
        for i in range(n):
            for j in range(i, n):
                if rows[i][j] != _negated(rows[j][i]):
                    raise ValueError(f"bracket is not antisymmetric at ({i + 1}, {j + 1})")
        _require_jacobi(self)

    def to_json_dict(self) -> dict:
        """The brackets [b_i, b_j] with i < j; the rest follow by antisymmetry."""
        n = self.dim
        return {"dim": n, "basis": list(self.basis_names),
                "brackets": self._entries((i, j) for i in range(n)
                                          for j in range(i + 1, n))}


class Subspace:
    """A subspace of Q^n held as reduced row-echelon basis rows (canonical)."""

    __slots__ = ("ambient_dim", "rows")

    def __init__(self, ambient_dim: int, rows):
        echelon = linalg._Echelon()
        for r in rows:
            echelon.add(_sparse(_to_vector(r, ambient_dim)))
        self._set(ambient_dim, echelon)

    @classmethod
    def _of(cls, ambient_dim: int, echelon) -> "Subspace":
        """The span of a `linalg._Echelon` over Q^ambient_dim."""
        self = object.__new__(cls)
        self._set(ambient_dim, echelon)
        return self

    def _set(self, ambient_dim, echelon):
        self.ambient_dim = ambient_dim
        # sorted by pivot, the echelon rows are the reduced row-echelon basis
        self.rows = tuple(_dense(ambient_dim, echelon.rows[p].items())
                          for p in sorted(echelon.rows))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def named_basis(self, ambient_names):
        """Names of the rows when the span is exactly a coordinate subspace."""
        names = []
        for row in self.rows:
            hot = [k for k, x in enumerate(row) if x]
            if len(hot) != 1 or row[hot[0]] != 1:
                return None
            names.append(ambient_names[hot[0]])
        return names

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def __repr__(self):
        return f"<Subspace rank={self.rank} of dim {self.ambient_dim}>"


# ----- identity checks ------------------------------------------------------


def _scaled_constants(A: SCAlgebra) -> list:
    """Sparse integer constants s[i][j] = ((l, D * c[i][j][l]), ...), read
    from the stored rows (so over the nonzero l, ascending).

    D is the lcm of the constants' denominators (1 on integer tables), so an
    associator or a Jacobi sum computed from s is exactly D^2 times the true
    one: every zero test and every first witness is the same.
    """
    D = lcm(*{x.denominator for row in A.rows for cell in row for _, x in cell})
    return [[tuple((l, x.numerator * (D // x.denominator)) for l, x in cell) for cell in row]
            for row in A.rows]


def _nonzero_columns(s) -> list:
    """nz[l] = the set of k with s[l][k] nonzero."""
    return [{k for k, cell in enumerate(row) if cell} for row in s]


def _accumulate(total: dict, sign: int, coeffs, rows) -> None:
    """total += sign * sum of x * rows[l] over (l, x) in coeffs (sparse integer rows)."""
    for l, x in coeffs:
        x *= sign
        for m, y in rows[l]:
            total[m] = total.get(m, 0) + x * y


# Each scan visits, for every (i, j), only the k at which some term of its
# identity can be nonzero, in ascending order: every skipped triple has all
# terms zero, so the verdict and the first witness are those of the full scan.


def check_left_symmetric(A: SCAlgebra) -> CheckReport:
    """Left-symmetric identity: the associator is symmetric in its first two slots.

    Checking on basis triples suffices by trilinearity.  The witness is the
    first failing (i, j, k) in lexicographic order, 1-based.
    """
    s = _scaled_constants(A)
    cols = list(zip(*s))   # cols[k][l] = s[l][k]
    nz = _nonzero_columns(s)
    for i, si in enumerate(s):
        for j, sj in enumerate(s):
            if i == j:
                continue
            # the terms need b_i b_k, b_j b_k, or b_l b_k with l in the
            # support of b_i b_j or of b_j b_i, to be nonzero
            ks = nz[i].union(nz[j], *(nz[l] for l, _ in si[j]), *(nz[l] for l, _ in sj[i]))
            for k in sorted(ks):
                col = cols[k]
                # (b_i b_j) b_k - b_i (b_j b_k) - (b_j b_i) b_k + b_j (b_i b_k)
                total = {}
                _accumulate(total, 1, si[j], col)
                _accumulate(total, -1, sj[k], si)
                _accumulate(total, -1, sj[i], col)
                _accumulate(total, 1, si[k], sj)
                if any(total.values()):
                    return CheckReport(False, (i + 1, j + 1, k + 1))
    return CheckReport(True)


def check_associative(A: SCAlgebra) -> CheckReport:
    s = _scaled_constants(A)
    cols = list(zip(*s))   # cols[k][l] = s[l][k]
    nz = _nonzero_columns(s)
    for i, si in enumerate(s):
        for j, sj in enumerate(s):
            # the terms need b_j b_k, or b_l b_k with l in the support of
            # b_i b_j, to be nonzero
            ks = nz[j].union(*(nz[l] for l, _ in si[j]))
            for k in sorted(ks):
                # (b_i b_j) b_k - b_i (b_j b_k)
                total = {}
                _accumulate(total, 1, si[j], cols[k])
                _accumulate(total, -1, sj[k], si)
                if any(total.values()):
                    return CheckReport(False, (i + 1, j + 1, k + 1))
    return CheckReport(True)


def _require_jacobi(L: SCAlgebra) -> None:
    """Raise JacobiError at the first triple i < j < k (1-based) where Jacobi
    fails for the constants of L."""
    n, s = L.dim, _scaled_constants(L)
    nz = _nonzero_columns(s)
    nz_left = _nonzero_columns(list(zip(*s)))   # nz_left[i] = {k : s[k][i] nonzero}
    for i in range(n):
        for j in range(i + 1, n):
            # the terms need [b_i, b_j], [b_j, b_k] or [b_k, b_i] to be nonzero
            if s[i][j]:
                ks = range(j + 1, n)
            else:
                ks = sorted(k for k in nz[j] | nz_left[i] if k > j)
            for k in ks:
                # [b_i,[b_j,b_k]] + [b_j,[b_k,b_i]] + [b_k,[b_i,b_j]]
                total = {}
                for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
                    _accumulate(total, 1, s[b][d], s[a])
                if any(total.values()):
                    raise JacobiError((i + 1, j + 1, k + 1))


def commutator_algebra(A: SCAlgebra) -> LieAlgebraSC:
    """Lie algebra of commutators, f[i][j] = c[i][j] - c[j][i].

    Raises JacobiError (with the first failing triple) when the commutators
    do not satisfy Jacobi, which signals the input is neither associative nor
    left-symmetric.
    """
    n, rows = A.dim, A.rows
    f = [[()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            f[i][j] = _difference(rows[i][j], rows[j][i])
            f[j][i] = _negated(f[i][j])
    lie = LieAlgebraSC._of(A.basis_names, tuple(map(tuple, f)))   # antisymmetric
    _require_jacobi(lie)
    return lie


# ----- subspaces and constructions ------------------------------------------


def subalgebra_closure(A: SCAlgebra, generators) -> Subspace:
    """Smallest subspace containing the generators and closed under the product.

    The span S is held as one echelon basis (`linalg._Echelon`), spanned by
    the vectors added to it so far.  The rounds are semi-naive: a round
    multiplies only the pairs with a vector added in the previous round
    (new·new, new·old, old·new), reduces each product once and adds the ones
    that leave S.  An old·old pair was multiplied in an earlier round, so its
    product lies in S already.  When a round adds nothing, the product of
    every two spanning vectors lies in S, so S·S lies in S by bilinearity: S
    is closed, and it is the smallest closed span, since every vector added
    is a product within it.  Each round that goes on grows the rank, so a
    round adds nothing after at most dim rounds.
    """
    echelon = linalg._Echelon()
    new = [echelon.add(_sparse(_to_vector(g, A.dim))) for g in generators]
    new = [u for u in new if u is not None]
    old = []
    for _ in range(A.dim + 1):
        if not new:
            return Subspace._of(A.dim, echelon)
        pairs = [(u, v) for u in new for v in old + new] + [(u, v) for u in old for v in new]
        old += new
        new = []
        for u, v in pairs:
            row = echelon.add(A._product(u, v))
            if row is not None:
                new.append(row)
    raise AssertionError("closure rounds went on past the dimension")


def restrict_to_subspace(A: SCAlgebra, space: Subspace) -> SCAlgebra:
    """The algebra induced on a product-closed subspace, in row coordinates,
    with the ambient names when the rows are basis vectors and v1 ... vr
    otherwise.

    The rows are in reduced row-echelon form: row a has entry 1 at its pivot
    column p_a and 0 at every other row's pivot column.  So a vector
    w = sum_a lambda_a row_a of the span has w[p_a] = lambda_a: the
    coordinates of a product are its entries at the pivot columns, and it
    lies in the span iff w - sum_a w[p_a] row_a is zero, which is checked for
    every product.
    """
    vectors = [_sparse(row) for row in space.rows]
    pivots = [min(v) for v in vectors]
    echelon = linalg._Echelon()
    echelon.rows = dict(zip(pivots, vectors))   # already fully reduced
    basis_names = space.named_basis(A.basis_names) or [f"v{i + 1}" for i in range(len(vectors))]
    rows = []
    for u in vectors:
        row = []
        for v in vectors:
            w = A._product(u, v)
            if echelon.reduce(w):
                raise ValueError("subspace is not closed under the product")
            row.append(tuple((a, w[p]) for a, p in enumerate(pivots) if p in w))
        rows.append(tuple(row))
    return SCAlgebra._of(basis_names, tuple(rows))


def opposite(A: SCAlgebra) -> SCAlgebra:
    """Same space, reversed product: c'[i][j] = c[j][i]."""
    return SCAlgebra._of(A.basis_names, tuple(zip(*A.rows)), A.unit_index)


def adjoin_unit(A: SCAlgebra, unit_name: str = "1") -> SCAlgebra:
    """Append a two-sided unit as the last basis element.

    Old structure constants are unchanged at their indices.
    """
    if A.unit_index is not None:
        raise ValueError("algebra already has a designated unit")
    if unit_name in A.basis_names:
        raise ValueError(f"basis already contains {unit_name!r}")
    n = A.dim
    names = A.basis_names + (unit_name,)
    rows = tuple(row + (((i, _ONE),),) for i, row in enumerate(A.rows))   # x · 1 = x
    rows += (tuple(((i, _ONE),) for i in range(n + 1)),)                   # 1 · x = x
    return SCAlgebra._of(names, rows, unit_index=n)


def left_mult_matrix(A: SCAlgebra, v) -> list:
    """Matrix of x -> v·x in the basis (rows k, columns j)."""
    vec = _to_vector(v, A.dim)
    n = A.dim
    m = [[_ZERO] * n for _ in range(n)]
    for i, vi in enumerate(vec):
        if vi:
            for j, cell in enumerate(A.rows[i]):
                for k, x in cell:
                    m[k][j] += vi * x
    return m


def is_unit(A: SCAlgebra, v) -> bool:
    """Invertibility of v in a unital associative algebra.

    True iff the left-multiplication matrix is invertible over the rationals;
    requires a designated unit.
    """
    if A.unit_index is None:
        raise ValueError("algebra has no designated unit element")
    echelon = linalg._Echelon()
    for row in left_mult_matrix(A, v):
        echelon.add(_sparse(row))
    return len(echelon.rows) == A.dim
