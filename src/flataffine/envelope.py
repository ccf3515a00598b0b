"""End-to-end envelope computation.

From a flat affine connection, a verified ambient basis of infinitesimal
affine transformations and a generator set, produce the product table of the
ambient space, the closure of the generators, and the associative envelope:
the opposite of the closure algebra.  Every verification step is recorded in
the report; precondition failures raise with the failing object named.
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    LieAlgebraSC,
    SCAlgebra,
    Subspace,
    _associator_failure,
    _commutator,
    _difference,
    _negated,
    check_associative,
    commutator_algebra,
    opposite,
    restrict_to_subspace,
    subalgebra_closure,
)
from .geometry import Connection, express_in_basis, lie_bracket, product_table
from .render import render_table_text

OPPOSITE_CONVENTION = ("envelope constants are the opposite of the ambient "
                       "product restricted to the closure")


@dataclass(frozen=True)
class EnvelopeReport:
    ambient: SCAlgebra
    generator_names: tuple
    closure: Subspace
    envelope: SCAlgebra
    commutator: LieAlgebraSC
    checks: dict
    convention: str = OPPOSITE_CONVENTION

    def to_json_dict(self) -> dict:
        return {
            "convention": self.convention,
            "generators": list(self.generator_names),
            "ambient": self.ambient.to_json_dict(),
            "closure": {"ambient_dim": self.closure.ambient_dim,
                        **self.closure.to_json_dict(self.ambient.basis_names)},
            "envelope": self.envelope.to_json_dict(),
            "commutator": self.commutator.to_json_dict(),
            "checks": dict(self.checks),
        }

    def to_text(self) -> str:
        lines = [f"generators: {', '.join(self.generator_names)}",
                 f"closure rank: {self.closure.rank} "
                 f"(ambient dimension {self.closure.ambient_dim})"]
        named = self.closure.named_basis(self.ambient.basis_names)
        if named is not None:
            lines.append(f"closure basis: {', '.join(named)}")
        lines.append(f"note: {self.convention}")
        for name, outcome in self.checks.items():
            lines.append(f"check {name}: {'ok' if outcome else 'FAILED'}")
        lines.append("envelope multiplication table (rows = left factor):")
        lines.append(render_table_text(self.envelope))
        return "\n".join(lines)


def _bracket_check(fields, table: SCAlgebra) -> tuple:
    """(holds, brackets): `brackets` is the n x n table of the Lie brackets
    [X_i, X_j] in the fields' coordinates, rows in the table's stored form,
    and `holds` says whether c[i][j] - c[j][i] equals [X_i, X_j] at every pair.

    The brackets (`lie_bracket`) use plain partial derivatives, not the
    product's nabla, so the check does not rest on what it verifies.  Only
    the pairs i < j are computed: the kernel is exactly antisymmetric
    ([X_j, X_i] = -[X_i, X_j], [X_i, X_i] = 0) and `express_in_basis` is
    linear, so at a mirrored pair both sides are the negations of those at
    (i, j), and on the diagonal both sides are zero.
    """
    n, rows = table.dim, table.rows
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    brackets = [[()] * n for _ in range(n)]
    holds = True
    for got, (i, j) in zip(express_in_basis([lie_bracket(fields[i], fields[j])
                                             for i, j in pairs], fields), pairs):
        brackets[i][j], brackets[j][i] = got, _negated(got)
        holds = holds and got == _difference(rows[i][j], rows[j][i])
    return holds, tuple(map(tuple, brackets))


def commutator_matches_brackets(fields, table: SCAlgebra) -> bool:
    """Cross-check that antisymmetrized product-table constants equal the
    structure constants computed independently from Lie brackets of the
    fields (`_bracket_check`)."""
    return _bracket_check(fields, table)[0]


def compute_envelope(conn: Connection, ambient_fields, names, generators) -> EnvelopeReport:
    """Run the envelope algorithm end to end.

    `generators` is a subset of `names`, each listed once (KeyError for an
    unknown name, then ValueError for a repeated one); generator fields are
    taken from the ambient list by name, never re-parsed.  The checks, in
    report order:

    * `flat_affine` and `iat:<name>` are True whenever a report is made:
      `product_table` raises NotFlatError or IATViolationError instead (and
      DependentFieldsError unless the fields are a basis of their span).
    * `ambient_associative` scans the ambient table's rows of the generators
      and of the unit vectors off the closure's pivots (`check_associative`
      has the lemma: a table is associative iff the rows of a generating set
      pass).  These generate the ambient algebra: the closure's fully reduced
      rows and those unit vectors have distinct pivots, so they span Q^n.
    * `ambient_commutator_matches_lie_brackets` compares c[i][j] - c[j][i]
      with the fields' Lie brackets in their coordinates (`_bracket_check`).
      It catches an error in the product's antisymmetric part; one in its
      symmetric part, c[i][j] + c[j][i], is invisible to every commutator.
    * `closure_product_closed` is the literal True, not a test: the closure
      rounds stop only when a round adds nothing, or at full rank, where the
      span is Q^n, closed under any product; and `restrict_to_subspace`
      raises ValueError on a product that leaves the span, so a span that is
      not closed never reaches a report.
    * `envelope_associative` is the ambient verdict when the closure is the
      whole space and the envelope's rows are the ambient rows transposed,
      compared cell by cell: A^op is associative iff A is, since
      (xy)z = x(yz) in A reads z.(y.x) = (z.y).x in A^op.  Otherwise (a
      proper closure, or an `opposite` that went wrong) the envelope itself
      is scanned.
    * `envelope_commutator_is_opposite_of_restricted_brackets` compares the
      envelope's commutator with the Lie brackets restricted to the closure:
      the envelope's product at (i, j) is the restricted product at (j, i),
      so its commutator there is the restricted commutator at (j, i), which
      is the restricted bracket [v_j, v_i] = -[v_i, v_j].  The
      expected side comes from `express_in_basis` and `restrict_to_subspace`
      on the bracket table, and shares no call with the construction, so it
      catches a missing or partial `opposite` and a wrong `_difference`; it
      is False when a bracket leaves the closure.  Like the ambient
      cross-check, it cannot see the symmetric part of the product.

    The envelope's commutator is built without a Jacobi scan when
    `envelope_associative` holds, since the commutator of an associative
    algebra is a Lie algebra; otherwise `commutator_algebra` scans it and
    raises JacobiError at the first failing triple.
    """
    fields = list(ambient_fields)
    names = list(names)
    generator_names = list(generators)
    for g in generator_names:
        if g not in names:
            raise KeyError(f"generator {g!r} is not among the ambient field names")
    for index, g in enumerate(generator_names):
        if g in generator_names[:index]:
            raise ValueError(f"generator {g!r} is listed twice")
    ambient = product_table(conn, fields, names)
    indices = [ambient.basis_index(g) for g in generator_names]
    closure = subalgebra_closure(ambient, [ambient.basis_vector(i) for i in indices])
    # the generators and the unit vectors off the closure's pivots generate the ambient
    pivots = closure._span.rows
    rows = sorted(set(indices).union(f for f in range(ambient.dim) if f not in pivots))
    checks = {"flat_affine": True}
    checks.update((f"iat:{name}", True) for name in names)
    checks["ambient_associative"] = _associator_failure(ambient, rows) is None
    matches, brackets = _bracket_check(fields, ambient)
    checks["ambient_commutator_matches_lie_brackets"] = matches
    checks["closure_product_closed"] = True
    restricted = restrict_to_subspace(ambient, closure)
    envelope = opposite(restricted)
    if restricted.rows == ambient.rows and envelope.rows == tuple(zip(*ambient.rows)):
        associative = checks["ambient_associative"]
    else:
        associative = check_associative(envelope).holds
    checks["envelope_associative"] = associative
    commutator = _commutator(envelope) if associative else commutator_algebra(envelope)
    try:
        expected = restrict_to_subspace(SCAlgebra._of(ambient.basis_names, brackets), closure)
    except ValueError:   # a bracket leaves the closure
        expected = None
    checks["envelope_commutator_is_opposite_of_restricted_brackets"] = \
        expected is not None and commutator.rows == tuple(zip(*expected.rows))
    return EnvelopeReport(
        ambient=ambient,
        generator_names=tuple(generator_names),
        closure=closure,
        envelope=envelope,
        commutator=commutator,
        checks=checks,
    )


def verify_bi_invariant_criterion(L: LieAlgebraSC, A: SCAlgebra) -> bool:
    """True iff A is associative and its commutators reproduce L entrywise."""
    if L.dim != A.dim:
        raise ValueError(
            f"dimension mismatch: Lie algebra has {L.dim}, algebra has {A.dim}")
    if not check_associative(A).holds:
        return False
    # the commutator of an associative algebra is a Lie algebra: no Jacobi scan
    return _commutator(A).rows == L.rows
