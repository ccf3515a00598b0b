"""Finite-dimensional algebras given by structure constants over the rationals.

Conventions:
  * constants are stored sparse: rows[i][j] is the product basis_i · basis_j
    as a tuple of (k, x) pairs, one per nonzero coefficient x (a `Fraction`)
    of basis_k, in ascending k (all indices 0-based internally).  Every
    library function reads these rows, so its work follows the nonzero cells;
  * `c`, the dense tuple with c[i][j][k] the coefficient of basis_k in
    basis_i · basis_j, is a view derived from the rows on first access, for
    callers outside the library;
  * the integer constants D * c, with D the lcm of the denominators
    (`_scaled_constants`), are derived on first use as well, and kept: the
    identity scans, `product`, the closure and the restriction all multiply
    through them;
  * every witness and every JSON index is reported 1-based, matching the
    mathematical indexing of the checks;
  * the serialized form is
      {"dim": n, "basis": [names], "products": [{"left": i, "right": j,
       "result": ["p/q", ...]}]}
    with omitted products meaning zero; a Lie algebra (an SCAlgebra checked
    for antisymmetry and Jacobi) writes only the pairs i < j, under "brackets".
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm

from . import linalg

Vector = tuple[Fraction, ...]
Row = tuple[tuple[int, Fraction], ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class CheckReport:
    """A verdict: holds, or the first failing basis tuple (1-based): a triple
    of an identity scan, or a coordinate pair of the IAT test (`IATReport`)."""
    holds: bool
    witness: tuple | None = None


class JacobiError(ValueError):
    """Commutator constants violate the Jacobi identity."""

    def __init__(self, witness: tuple):
        super().__init__(
            f"Jacobi identity fails at basis triple {witness}; "
            "the product is neither associative nor left-symmetric")
        self.witness = witness


class TaskFileError(ValueError):
    """Schema violation: `message`, at `path` into the document read."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{path}: {message}")
        self.message = message
        self.path = path


def _require(condition, message, path):
    if not condition:
        raise TaskFileError(message, path)


_KIND_NAMES = {str: "a string", list: "a list", int: "an integer"}


def _typed(value, kind, what, path):
    """`value` when it is a str, list or int (not a bool), as `kind` asks."""
    ok = type(value) is int if kind is int else isinstance(value, kind)
    _require(ok, f"{what} must be {_KIND_NAMES[kind]}", path)
    return value


def _index(value, dim, what, path):
    """`value` when it is an integer between 1 and dim (a 1-based index)."""
    _require(1 <= _typed(value, int, what, path) <= dim,
             f"{what} must be between 1 and {dim}", path)
    return value


# Fraction() also reads exponents, and "1e999999999" has no time bound
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(x) -> Fraction:
    """A rational given as an integer (not a bool) or a string "p/q" or "p";
    ValueError for anything else, a zero denominator included."""
    if type(x) is int:
        return Fraction(x)
    if not (isinstance(x, str) and _RATIONAL.fullmatch(x)):
        raise ValueError(f'bad rational {x!r}: write an integer, "p" or "p/q"')
    # the grammar's p and q are int() literals: Fraction(x) reads the same value
    p, _, q = x.partition("/")
    try:
        return Fraction(int(p), int(q) if q else 1)
    except (ValueError, ZeroDivisionError) as err:   # too many digits, q = 0
        raise ValueError(f"bad rational {x!r}: {err}") from None


def _fraction(x, path):
    """`parse_rational`, with its error at `path`."""
    try:
        return parse_rational(x)
    except ValueError as err:
        raise TaskFileError(str(err), path) from None


def _to_vector(values, dim: int) -> Vector:
    """The values as a tuple of Fractions; an entry that is one already is kept."""
    vec = tuple(v if type(v) is Fraction else Fraction(v) for v in values)
    if len(vec) != dim:
        raise ValueError(f"expected a vector of length {dim}, got {len(vec)}")
    return vec


def _sparse(vec) -> dict:
    """A dense vector as a dict {k: x} over its nonzero entries."""
    return {k: x for k, x in enumerate(vec) if x}


def _dense(n: int, items, zero=_ZERO) -> Vector:
    """The length-n tuple with the (k, x) items and `zero` elsewhere."""
    out = [zero] * n
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

    __slots__ = ("dim", "basis_names", "rows", "unit_index", "_c", "_scaled")

    def __init__(self, basis_names, c, unit_index: int | None = None):
        """Build from dense constants c[i][j][k] (any values `Fraction` accepts)."""
        n = len(c)
        if any(len(row) != n for row in c):
            raise ValueError("structure constants must be n x n x n")
        rows = tuple(tuple(tuple((k, x) for k, x in enumerate(_to_vector(vec, n)) if x)
                           for vec in row) for row in c)
        self._wrap(basis_names, rows, unit_index)

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
        self._c = self._scaled = None

    @property
    def c(self) -> tuple:
        """The dense constants c[i][j][k], derived from `rows` on first access."""
        if self._c is None:
            n = self.dim
            self._c = tuple(tuple(_dense(n, cell) for cell in row) for row in self.rows)
        return self._c

    @staticmethod
    def from_products(basis_names, products, unit: str | None = None) -> "SCAlgebra":
        """Build from a sparse table {(left_name, right_name): {name: coeff}};
        only the given entries are read, and zero coefficients are dropped.
        The result is a plain SCAlgebra, also when called on a subclass."""
        names = tuple(basis_names)
        n = len(names)
        index = {name: i for i, name in enumerate(names)}
        rows = [[()] * n for _ in range(n)]
        for (left, right), combo in products.items():
            i, j = index[left], index[right]
            cell = {index[name]: Fraction(coeff) for name, coeff in combo.items()}
            rows[i][j] = tuple((k, x) for k, x in sorted(cell.items()) if x)
        return SCAlgebra._of(names, tuple(map(tuple, rows)),
                             index[unit] if unit is not None else None)

    def basis_index(self, name: str) -> int:
        try:
            return self.basis_names.index(name)
        except ValueError:
            raise KeyError(f"no basis element named {name!r}") from None

    def basis_vector(self, i: int) -> Vector:
        if type(i) is not int or not 0 <= i < self.dim:
            raise ValueError(f"basis index {i!r} is not between 0 and {self.dim - 1}")
        return tuple(_ONE if j == i else _ZERO for j in range(self.dim))

    def product(self, u, v) -> Vector:
        """Bilinear product of two coordinate vectors."""
        n = self.dim
        (u, du), (v, dv) = (linalg._integral(_sparse(_to_vector(w, n))) for w in (u, v))
        return _dense(n, linalg._read(self._product(u, v),
                                      _scaled_constants(self)[0] * du * dv).items())

    def _product(self, u: dict, v: dict) -> dict:
        """D times the product of two integer sparse vectors {k: x}, where
        D = `_scaled_constants(self)[0]`: an integer sparse vector, read off
        the integer constants."""
        s = _scaled_constants(self)[1]
        out = {}
        get = out.get
        for i, x in u.items():
            row = s[i]
            for j, y in v.items():
                cell = row[j]
                if cell:
                    xy = x * y
                    for k, z in cell:
                        out[k] = get(k, 0) + xy * z
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
        """JSON entries of the nonzero products among the (i, j) pairs, 1-based;
        every zero coefficient is the one shared string "0"."""
        n, rows = self.dim, self.rows
        return [{"left": i + 1, "right": j + 1,
                 "result": list(_dense(n, ((k, str(x)) for k, x in rows[i][j]), "0"))}
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
        """The algebra `to_json_dict` wrote, every value checked as
        docs/taskfile.md says: TaskFileError at the first bad one, with its
        path in `doc`; a bad rational once every entry's shape passed.  The
        "brackets" of `LieAlgebraSC.to_json_dict` are refused.  The work
        follows the entries given, not dim^3."""
        _require(isinstance(doc, dict), "an algebra must be a JSON object", "")
        n = _typed(doc.get("dim"), int, '"dim"', "/dim")
        names = doc.get("basis")
        _require(isinstance(names, list) and all(isinstance(b, str) for b in names),
                 '"basis" must be a list of strings', "/basis")
        unit = _index(doc["unit"], n, '"unit"', "/unit") if "unit" in doc else None
        _require("brackets" not in doc,
                 'an algebra is read from "products", not "brackets"', "/brackets")
        cells = {}   # (left, right) -> sparse result
        bad = None   # the first bad rational, raised once every entry's shape passed
        for k, item in enumerate(_typed(doc.get("products", []), list, '"products"',
                                        "/products")):
            path = f"/products/{k}"
            _require(isinstance(item, dict), "product entries must be objects", path)
            pair = tuple(_index(item.get(key), n, f'"{key}"', f"{path}/{key}")
                         for key in ("left", "right"))
            _require(pair not in cells, f"product {pair} is given twice", path)
            result = _typed(item.get("result"), list, '"result"', f"{path}/result")
            _require(len(result) == n, f'"result" must have {n} entries', f"{path}/result")
            values = ((m, _fraction(x, f"{path}/result/{m}")) for m, x in enumerate(result))
            try:
                cells[pair] = tuple((m, x) for m, x in values if x)
            except TaskFileError as err:
                bad = bad or err
        if bad:
            raise bad
        _require(len(names) == n, "basis length does not match dim", "/basis")
        _require(len(set(names)) == n, "basis names must be unique", "/basis")
        rows = [[()] * n for _ in range(n)]
        for (i, j), cell in cells.items():
            rows[i - 1][j - 1] = cell
        return cls._of(names, tuple(map(tuple, rows)), None if unit is None else unit - 1)


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

    @classmethod
    def from_json_dict(cls, doc: dict) -> "LieAlgebraSC":
        """The Lie algebra whose "products" list gives both [b_i, b_j] and
        [b_j, b_i], as a task file does, read as an SCAlgebra is; antisymmetry
        and Jacobi are then checked."""
        lie = super().from_json_dict(doc)
        lie._require_lie()
        return lie

    def to_json_dict(self) -> dict:
        """The brackets [b_i, b_j] with i < j; the rest follow by antisymmetry."""
        n = self.dim
        return {"dim": n, "basis": list(self.basis_names),
                "brackets": self._entries((i, j) for i in range(n)
                                          for j in range(i + 1, n))}


class Subspace:
    """A subspace of Q^n held as its reduced row-echelon basis `rows`
    (canonical, `Fraction` entries), read off the `linalg._QSpan` it keeps:
    each primitive integer row over its pivot entry, the one place a
    `Fraction` is built.  The form is unique, so these are the rows a
    division-based elimination gives."""

    __slots__ = ("ambient_dim", "rows", "_span")

    def __init__(self, ambient_dim: int, rows):
        self._set(ambient_dim, linalg._q_span(_to_vector(r, ambient_dim) for r in rows))

    @classmethod
    def _of(cls, ambient_dim: int, span) -> "Subspace":
        """The span of a `linalg._QSpan` over Q^ambient_dim."""
        self = object.__new__(cls)
        self._set(ambient_dim, span)
        return self

    def _set(self, ambient_dim, span):
        self.ambient_dim = ambient_dim
        self._span = span
        self.rows = tuple(_dense(ambient_dim, row.items()) for row in span.basis())

    @property
    def rank(self) -> int:
        return len(self.rows)

    def named_basis(self, ambient_names):
        """Names of the rows when the span is exactly a coordinate subspace:
        then each primitive integer row has one entry, and it is e_p."""
        rows = self._span.rows
        if all(len(row) == 1 for row in rows.values()):
            return [ambient_names[p] for p in sorted(rows)]
        return None

    def to_json_dict(self, ambient_names) -> dict:
        return {"rank": self.rank, "rows": [[str(x) for x in row] for row in self.rows],
                "named_basis": self.named_basis(ambient_names)}

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def __repr__(self):
        return f"<Subspace rank={self.rank} of dim {self.ambient_dim}>"


# ----- identity checks ------------------------------------------------------


def _scaled_constants(A: SCAlgebra) -> tuple:
    """(D, s): the sparse integer constants s[i][j] = ((l, D * c[i][j][l]),
    ...), read from the stored rows (so over the nonzero l, ascending), with D
    the lcm of the constants' denominators (1 on integer tables).  Built on
    first use and kept in the algebra's `_scaled` slot, as `c` is kept.

    An associator or a Jacobi sum computed from s is exactly D^2 times the
    true one, so every zero test and every first witness is the same; a
    product of integer vectors through s is D times the true one.
    """
    if A._scaled is None:
        D = lcm(*{x.denominator for row in A.rows for cell in row for _, x in cell})
        A._scaled = D, tuple(tuple(tuple((l, x.numerator * (D // x.denominator)) for l, x in cell)
                                   for cell in row) for row in A.rows)
    return A._scaled


def _first_failure(A: SCAlgebra, pairs, terms):
    """The first basis triple (i, j, k), 1-based, at which an identity fails,
    or None; one pass per basis pair (i, j) of `pairs`, in lexicographic order.

    terms(s, neg, i, j), on the integer constants s and their negation neg,
    gives (coeffs, composites, low): the identity at (i, j, k) for every k at
    once is the map sum_l x L_l over (l, x) in coeffs, plus L_a L_b over
    (s[a] or neg[a], b) in composites, where L_l: b_k -> b_l b_k, at the
    k >= low only.  A pass sums it in one dict over the keys k * n + m (the
    coefficient of b_m at k), and its first witness is its smallest k with a
    nonzero entry, so the verdict and witness are those of the triple scan.
    Each L_l is flattened once, over its nonzero constants in ascending (k, m).
    """
    s, n = _scaled_constants(A)[1], A.dim
    # keys[k][m] = k * n + m, each int built once: every term reads the same
    # objects, so no key is allocated in the loops and lookups match by identity
    keys = [list(range(k * n, k * n + n)) for k in range(n)]
    flat = [[(keys[k][m], y) for k, cell in enumerate(row) for m, y in cell] for row in s]
    split = [[(keys[k], m, y) for k, cell in enumerate(row) for m, y in cell] for row in s]
    # start[l][k]: the first entry of flat[l] and of split[l] at k or past it
    start = [list(accumulate(map(len, row), initial=0)) for row in s]
    neg = [[cell and tuple([(m, -y) for m, y in cell]) for cell in row] for row in s]
    for i, j in pairs:
        coeffs, composites, low = terms(s, neg, i, j)
        total = {}
        get = total.get
        for l, x in coeffs:
            for key, y in flat[l][start[l][low]:] if low else flat[l]:
                total[key] = get(key, 0) + x * y
        for outer, b in composites:
            for row_keys, l, x in split[b][start[b][low]:] if low else split[b]:
                for m, y in outer[l]:
                    key = row_keys[m]
                    total[key] = get(key, 0) + x * y
        if any(total.values()):
            return i + 1, j + 1, min(key for key, x in total.items() if x) // n + 1
    return None


def check_left_symmetric(A: SCAlgebra) -> CheckReport:
    """Left-symmetric identity: the associator is symmetric in its first two slots.

    Checking on basis triples suffices by trilinearity.  The witness is the
    first failing (i, j, k) in lexicographic order, 1-based.
    """
    n = A.dim
    # (b_i b_j) b_k - b_i (b_j b_k) - (b_j b_i) b_k + b_j (b_i b_k)
    witness = _first_failure(A, ((i, j) for i in range(n) for j in range(n) if i != j),
                             lambda s, neg, i, j: (s[i][j] + neg[j][i],
                                                   ((neg[i], j), (s[j], i)), 0))
    return CheckReport(witness is None, witness)


def _associator_failure(A: SCAlgebra, rows):
    """The first basis triple (i, j, k), 1-based, with i in `rows` (ascending
    basis indices), at which A is not associative, or None."""
    n = A.dim
    # (b_i b_j) b_k - b_i (b_j b_k)
    return _first_failure(A, ((i, j) for i in rows for j in range(n)),
                          lambda s, neg, i, j: (s[i][j], ((neg[i], j),), 0))


def check_associative(A: SCAlgebra) -> CheckReport:
    """Associativity on basis triples; the witness is the first failing
    (i, j, k) in lexicographic order, 1-based.

    Only the rows of a generating set S (`_generating_indices`) are scanned,
    each as the search yields it, so the search stops at a failing row.
    T = {x : (xy)z = x(yz) for all y, z} is a subspace closed under the
    product, since ((x1 x2) y) z = (x1 (x2 y)) z = x1 ((x2 y) z) =
    x1 (x2 (y z)) = (x1 x2)(y z); so A is associative iff every b_f, f in S,
    lies in T.  The first row i that fails is in S: otherwise b_i lies in
    the closure of the b_f with f in S and f < i, which pass, so it lies in
    T.  So the rows of S give the full scan's first witness.
    """
    witness = _associator_failure(A, _generating_indices(A))
    return CheckReport(witness is None, witness)


def _require_jacobi(L: SCAlgebra) -> None:
    """Raise JacobiError at the first triple i < j < k (1-based) where Jacobi
    fails for the constants of L, which must be antisymmetric.

    By antisymmetry the Jacobi sum at (i, j, k),
    [b_i,[b_j,b_k]] + [b_j,[b_k,b_i]] + [b_k,[b_i,b_j]], is
    (ad_i ad_j - ad_j ad_i - ad_[b_i, b_j]) b_k.  At k <= j it is a sum with a
    repeated index, which is zero, or the sum at a triple whose pair came
    earlier and passed; so only k > j is read.
    """
    n = L.dim
    witness = _first_failure(L, ((i, j) for i in range(n) for j in range(i + 1, n)),
                             lambda s, neg, i, j: (neg[i][j], ((s[i], j), (neg[j], i)), j + 1))
    if witness is not None:
        raise JacobiError(witness)


def _commutator(A: SCAlgebra) -> LieAlgebraSC:
    """The commutators f[i][j] = c[i][j] - c[j][i], with no Jacobi scan: for a
    caller that knows A is associative, whose commutator is a Lie algebra.

    Only the pairs i < j are subtracted; f[j][i] = -f[i][j] and f[i][i] = 0
    are the tuples that subtracting there would give.
    """
    rows, n = A.rows, A.dim
    f = [[()] * n for _ in range(n)]
    for i in range(n):
        row, fi = rows[i], f[i]
        for j in range(i + 1, n):
            fi[j] = _difference(row[j], rows[j][i])
            f[j][i] = _negated(fi[j])
    return LieAlgebraSC._of(A.basis_names, tuple(map(tuple, f)))


def commutator_algebra(A: SCAlgebra) -> LieAlgebraSC:
    """Lie algebra of commutators, f[i][j] = c[i][j] - c[j][i].

    Raises JacobiError (with the first failing triple) when the commutators
    do not satisfy Jacobi, which signals the input is neither associative nor
    left-symmetric.
    """
    lie = _commutator(A)
    _require_jacobi(lie)
    return lie


# ----- subspaces and constructions ------------------------------------------


def _close(A: SCAlgebra, span, new: list, old: list) -> None:
    """Run the semi-naive closure rounds on `span`, in place, until a round
    adds nothing or the span has rank dim.  `old` and `new` span it, every
    product of two vectors of `old` lies in it, and `new` holds the rows
    added since; on return `old` holds them all, and `span` is closed (a
    round stopped at full rank leaves products unread, but Q^dim is closed)."""
    for _ in range(A.dim + 1):
        if not new or len(span.rows) == A.dim:
            old += new
            return
        pairs = [(u, v) for u in new for v in old + new] + [(u, v) for u in old for v in new]
        old += new
        new = []
        for u, v in pairs:
            row = span.add(A._product(u, v))
            if row is not None:
                new.append(row)
                if len(span.rows) == A.dim:
                    break
    raise AssertionError("closure rounds went on past the dimension")


def subalgebra_closure(A: SCAlgebra, generators) -> Subspace:
    """Smallest subspace containing the generators and closed under the product.

    The span S is held as one echelon basis of integer rows
    (`linalg._QSpan`), spanned by the vectors added to it so far: the
    generators cleared of denominators, then integer products of its rows
    (`SCAlgebra._product`), each a nonzero multiple of the true product, so
    a `Fraction` is built only when the `Subspace` reads its rows.  The
    rounds (`_close`) are semi-naive: a round
    multiplies only the pairs with a vector added in the previous round
    (new·new, new·old, old·new), reduces each product once and adds the ones
    that leave S.  An old·old pair was multiplied in an earlier round, so its
    product lies in S already.  When a round adds nothing, the product of
    every two spanning vectors lies in S, so S·S lies in S by bilinearity: S
    is closed, and it is the smallest closed span, since every vector added
    is a product within it.  Each round that goes on grows the rank, so a
    round adds nothing after at most dim rounds.  They stop as soon as S has
    rank dim, partway through a round too: S is then Q^dim, which is closed
    under any product, and every vector added is a product within the
    closure, so S is the closure.
    """
    span = linalg._QSpan()
    new = [span.add(linalg._integral(_sparse(_to_vector(g, A.dim)))[0]) for g in generators]
    _close(A, span, [u for u in new if u is not None], [])
    return Subspace._of(A.dim, span)


def _generating_indices(A: SCAlgebra):
    """Yield ascending basis indices whose basis vectors generate A: each b_f
    that lies outside the closure of those before it, until the closure is
    Q^dim.  The rounds resume from that closure (`_close`: its spanning
    vectors' products lie in it already), and only once f is consumed, so a
    caller that stops early skips the rest of the search."""
    span, old = linalg._QSpan(), []
    for f in range(A.dim):
        if len(span.rows) == A.dim:
            return
        row = span.add({f: 1})
        if row is not None:
            yield f
            _close(A, span, [row], old)


def restrict_to_subspace(A: SCAlgebra, space: Subspace) -> SCAlgebra:
    """The algebra induced on a product-closed subspace of Q^dim, in row
    coordinates, with the ambient names when the rows are basis vectors and
    v1 ... vr otherwise; ValueError if a product leaves it or it is not in Q^dim.

    The rows are in reduced row-echelon form: row a has entry 1 at its pivot
    column p_a and 0 at every other row's pivot column.  So a vector
    w = sum_a lambda_a row_a of the span has w[p_a] = lambda_a: the
    coordinates of a product are its entries at the pivot columns, and it
    lies in the span iff w - sum_a w[p_a] row_a is zero, which is checked for
    every product.  The coordinates are read over the support of w, through
    the map p_a -> a.

    When every row is a unit vector e_{p_a}, row_a row_b is the table's cell
    rows[p_a][p_b]: it lies in the span iff its support lies among the
    pivots, and its coordinates are the cell re-indexed by p_a -> a, which
    leaves the table's own rows when every column is a pivot.  Otherwise the
    products are taken in integers: the span's row r_a is row_a times its
    pivot entry r_a[p_a], and `SCAlgebra._product` scales by D, so the
    integer product of r_a and r_b is D r_a[p_a] r_b[p_b] times row_a row_b.
    A coordinate, the one `Fraction` built, is its entry over that scale.
    """
    if space.ambient_dim != A.dim:
        raise ValueError(f"the subspace lies in Q^{space.ambient_dim}, not in Q^{A.dim}")
    echelon = sorted(space._span.rows.items())   # (p_a, r_a) by pivot
    index = {p: a for a, (p, _) in enumerate(echelon)}
    names = space.named_basis(A.basis_names)
    if names is not None:
        if len(index) == A.dim:
            return SCAlgebra._of(names, A.rows)
        cells = [[A.rows[p][q] for q in index] for p in index]
        if any(m not in index for row in cells for cell in row for m, _ in cell):
            raise ValueError("subspace is not closed under the product")
        return SCAlgebra._of(names, tuple(tuple(tuple((index[m], x) for m, x in cell)
                                                for cell in row) for row in cells))
    D = _scaled_constants(A)[0]
    rows = []
    for p, u in echelon:
        row = []
        for q, v in echelon:
            w = A._product(u, v)
            if space._span.reduce(w)[0]:
                raise ValueError("subspace is not closed under the product")
            coords = {index[m]: x for m, x in w.items() if m in index}
            row.append(tuple(sorted(linalg._read(coords, D * u[p] * v[q]).items())))
        rows.append(tuple(row))
    return SCAlgebra._of([f"v{i + 1}" for i in range(len(echelon))], tuple(rows))


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
    """Matrix of x -> v·x in the basis (rows k, columns j): column j is v·e_j."""
    v = _to_vector(v, A.dim)
    columns = (A.product(v, A.basis_vector(j)) for j in range(A.dim))
    return [list(row) for row in zip(*columns)]


def is_unit(A: SCAlgebra, v) -> bool:
    """Invertibility of v in a unital associative algebra.

    True iff the left-multiplication matrix is invertible over the rationals;
    requires a designated unit.
    """
    if A.unit_index is None:
        raise ValueError("algebra has no designated unit element")
    return linalg.rank(left_mult_matrix(A, v)) == A.dim
