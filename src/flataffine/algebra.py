"""Finite-dimensional algebras given by structure constants over the rationals.

Conventions:
  * constants are stored as c[i][j][k] = coefficient of basis_k in the product
    basis_i · basis_j (all 0-based internally);
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


def _lincomb(n: int, terms) -> Vector:
    """The sum of scale * vector over (scale, vector) terms, skipping zero entries."""
    out = [Fraction(0)] * n
    for scale, vector in terms:
        if scale:
            for k, x in enumerate(vector):
                if x:
                    out[k] += scale * x
    return tuple(out)


def _difference(u: Vector, v: Vector) -> Vector:
    """u - v for `Fraction` tuples, subtracting only where v is nonzero."""
    out = list(u)
    for k, x in enumerate(v):
        if x:
            out[k] -= x
    return tuple(out)


def _to_vector(values, dim: int) -> Vector:
    vec = tuple(Fraction(v) for v in values)
    if len(vec) != dim:
        raise ValueError(f"expected a vector of length {dim}, got {len(vec)}")
    return vec


class SCAlgebra:
    """An algebra presented by structure constants; no identity is assumed."""

    __slots__ = ("dim", "basis_names", "c", "unit_index")

    def __init__(self, basis_names, c, unit_index: int | None = None):
        n = len(c)
        if any(len(row) != n for row in c):
            raise ValueError("structure constants must be n x n x n")
        self._wrap(basis_names, tuple(tuple(_to_vector(vec, n) for vec in row) for row in c),
                   unit_index)

    @classmethod
    def _of(cls, basis_names, c, unit_index: int | None = None) -> "SCAlgebra":
        """Wrap constants that are already an n x n tuple of length-n `Fraction`
        tuples, without coercing them again; only names and unit are checked."""
        self = object.__new__(cls)
        self._wrap(basis_names, c, unit_index)
        return self

    def _wrap(self, basis_names, c, unit_index):
        self.basis_names = tuple(basis_names)
        self.dim = len(self.basis_names)
        if len(set(self.basis_names)) != self.dim:
            raise ValueError("basis names must be unique")
        if len(c) != self.dim:
            raise ValueError("structure constants must be n x n x n")
        if unit_index is not None and not (0 <= unit_index < self.dim):
            raise ValueError("unit index out of range")
        self.c = c
        self.unit_index = unit_index

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
        return self._product(_to_vector(u, self.dim), _to_vector(v, self.dim))

    def _product(self, u, v) -> Vector:
        """`product` of two vectors that are already length-dim `Fraction` sequences."""
        return _lincomb(self.dim, ((ui * vj, self.c[i][j])
                                   for i, ui in enumerate(u) if ui
                                   for j, vj in enumerate(v) if vj))

    def __eq__(self, other) -> bool:
        # a Lie algebra never equals the plain algebra with the same constants
        return (type(other) is type(self)
                and self.basis_names == other.basis_names
                and self.c == other.c
                and self.unit_index == other.unit_index)

    def __hash__(self):
        return hash((self.basis_names, self.c, self.unit_index))

    def __repr__(self):
        return f"<{type(self).__name__} dim={self.dim} basis={self.basis_names}>"

    # ----- serialization --------------------------------------------------

    def _entries(self, pairs) -> list:
        """JSON entries of the nonzero products among the (i, j) pairs, 1-based."""
        return [{"left": i + 1, "right": j + 1, "result": [str(x) for x in self.c[i][j]]}
                for i, j in pairs if any(self.c[i][j])]

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
    `product` and its constants are `c`.
    """

    __slots__ = ()

    def __init__(self, basis_names, f):
        super().__init__(basis_names, f)
        n = self.dim
        for i in range(n):
            for j in range(n):
                if any(a + b for a, b in zip(self.c[i][j], self.c[j][i])):
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
        self.ambient_dim = ambient_dim
        reduced, _ = linalg.rref([_to_vector(r, ambient_dim) for r in rows])
        self.rows = tuple(tuple(r) for r in reduced)

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
    """Sparse integer constants s[i][j] = [(l, D * c[i][j][l]) for the nonzero l].

    D is the lcm of the constants' denominators (1 on integer tables), so an
    associator or a Jacobi sum computed from s is exactly D^2 times the true
    one: every zero test and every first witness is the same.
    """
    D = lcm(*{x.denominator for row in A.c for vec in row for x in vec})
    return [[[(l, x.numerator * (D // x.denominator)) for l, x in enumerate(vec) if x]
             for vec in row] for row in A.c]


def _accumulate(total: dict, sign: int, coeffs, rows) -> None:
    """total += sign * sum of x * rows[l] over (l, x) in coeffs (sparse integer rows)."""
    for l, x in coeffs:
        x *= sign
        for m, y in rows[l]:
            total[m] = total.get(m, 0) + x * y


def check_left_symmetric(A: SCAlgebra) -> CheckReport:
    """Left-symmetric identity: the associator is symmetric in its first two slots.

    Checking on basis triples suffices by trilinearity.  The witness is the
    first failing (i, j, k) in lexicographic order, 1-based.
    """
    s = _scaled_constants(A)
    cols = list(zip(*s))   # cols[k][l] = s[l][k]
    for i, si in enumerate(s):
        for j, sj in enumerate(s):
            if i == j:
                continue
            for k, col in enumerate(cols):
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
    for i, si in enumerate(s):
        for j, sj in enumerate(s):
            for k, col in enumerate(cols):
                # (b_i b_j) b_k - b_i (b_j b_k)
                total = {}
                _accumulate(total, 1, si[j], col)
                _accumulate(total, -1, sj[k], si)
                if any(total.values()):
                    return CheckReport(False, (i + 1, j + 1, k + 1))
    return CheckReport(True)


def _require_jacobi(L: SCAlgebra) -> None:
    """Raise JacobiError at the first triple i < j < k (1-based) where Jacobi
    fails for the constants L.c."""
    n, s = L.dim, _scaled_constants(L)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
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
    n = A.dim
    f = tuple(tuple(_difference(A.c[i][j], A.c[j][i]) for j in range(n)) for i in range(n))
    lie = LieAlgebraSC._of(A.basis_names, f)   # antisymmetric by construction
    _require_jacobi(lie)
    return lie


# ----- subspaces and constructions ------------------------------------------


def subalgebra_closure(A: SCAlgebra, generators) -> Subspace:
    """Smallest subspace containing the generators and closed under the product.

    Iterates span <- span + span·span with row reduction until the rank
    stabilizes (at most dim rounds); the final round's elimination, which
    leaves the rank unchanged, is the check that the span is product-closed.
    """
    vectors = [list(_to_vector(g, A.dim)) for g in generators]
    rows, _ = linalg.rref(vectors)
    for _ in range(A.dim + 1):
        products = [list(A._product(u, v)) for u in rows for v in rows]
        new_rows, _ = linalg.rref(rows + products)
        if len(new_rows) == len(rows):
            return Subspace(A.dim, rows)
        rows = new_rows
    raise AssertionError("closure iteration ended on a non-closed span")


def restrict_to_subspace(A: SCAlgebra, space: Subspace) -> SCAlgebra:
    """The algebra induced on a product-closed subspace, in row coordinates,
    with the ambient names when the rows are basis vectors and v1 ... vr
    otherwise."""
    rows = space.rows
    r = len(rows)
    basis_names = space.named_basis(A.basis_names) or [f"v{i + 1}" for i in range(r)]
    cols = [[row[c] for row in rows] for c in range(space.ambient_dim)]
    coords = linalg.solve(cols, [A._product(u, v) for u in rows for v in rows])
    if None in coords:
        raise ValueError("subspace is not closed under the product")
    return SCAlgebra._of(basis_names, tuple(tuple(tuple(v) for v in coords[i * r:(i + 1) * r])
                                            for i in range(r)))


def opposite(A: SCAlgebra) -> SCAlgebra:
    """Same space, reversed product: c'[i][j] = c[j][i]."""
    n = A.dim
    c = tuple(tuple(A.c[j][i] for j in range(n)) for i in range(n))
    return SCAlgebra._of(A.basis_names, c, A.unit_index)


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
    c = [[[Fraction(0)] * (n + 1) for _ in range(n + 1)] for _ in range(n + 1)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i][j][k] = A.c[i][j][k]
    for i in range(n + 1):
        c[i][n][i] = Fraction(1)   # x · 1 = x
        c[n][i][i] = Fraction(1)   # 1 · x = x
    return SCAlgebra(names, c, unit_index=n)


def left_mult_matrix(A: SCAlgebra, v) -> list:
    """Matrix of x -> v·x in the basis (rows k, columns j)."""
    vec = _to_vector(v, A.dim)
    n = A.dim
    columns = [_lincomb(n, ((vi, A.c[i][j]) for i, vi in enumerate(vec)))
               for j in range(n)]
    return [list(row) for row in zip(*columns)]


def is_unit(A: SCAlgebra, v) -> bool:
    """Invertibility of v in a unital associative algebra.

    True iff the left-multiplication matrix is invertible over the rationals;
    requires a designated unit.
    """
    if A.unit_index is None:
        raise ValueError("algebra has no designated unit element")
    return linalg.rank(left_mult_matrix(A, v)) == A.dim
