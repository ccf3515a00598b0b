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
    _difference,
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


def commutator_matches_brackets(fields, table: SCAlgebra) -> bool:
    """Cross-check that antisymmetrized product-table constants equal the
    structure constants computed independently from Lie brackets of the
    fields.

    The brackets (`lie_bracket`) use plain partial derivatives, not the
    product's nabla, so the check does not rest on what it verifies.  Only
    the pairs i < j are computed: the kernel is exactly antisymmetric
    ([X_j, X_i] = -[X_i, X_j], [X_i, X_i] = 0) and `express_in_basis` is
    linear, so at a mirrored pair both sides are the negations of those at
    (i, j), and on the diagonal both sides are zero.  Both sides are
    compared as rows in the table's stored form, which `express_in_basis`
    returns.
    """
    n, rows = table.dim, table.rows
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    brackets = [lie_bracket(fields[i], fields[j]) for i, j in pairs]
    return all(got == _difference(rows[i][j], rows[j][i])
               for got, (i, j) in zip(express_in_basis(brackets, fields), pairs))


def compute_envelope(conn: Connection, ambient_fields, names, generators) -> EnvelopeReport:
    """Run the envelope algorithm end to end.

    `generators` is a subset of `names`; generator fields are taken from the
    ambient list by name, never re-parsed.
    """
    fields = list(ambient_fields)
    names = list(names)
    generator_names = list(generators)
    for g in generator_names:
        if g not in names:
            raise KeyError(f"generator {g!r} is not among the ambient field names")
    # product_table raises NotFlatError or IATViolationError unless these hold,
    # and DependentFieldsError unless the fields are a basis of their span
    ambient = product_table(conn, fields, names)
    checks = {"flat_affine": True}
    checks.update((f"iat:{name}", True) for name in names)
    checks["ambient_associative"] = check_associative(ambient).holds
    checks["ambient_commutator_matches_lie_brackets"] = \
        commutator_matches_brackets(fields, ambient)
    generator_vectors = [ambient.basis_vector(ambient.basis_index(g))
                         for g in generator_names]
    closure = subalgebra_closure(ambient, generator_vectors)
    # closed by construction; restrict_to_subspace tests every product of two
    # basis rows for membership in the span and raises if one leaves it
    checks["closure_product_closed"] = True
    restricted = restrict_to_subspace(ambient, closure)
    envelope = opposite(restricted)
    checks["envelope_associative"] = check_associative(envelope).holds
    commutator = commutator_algebra(envelope)
    # the envelope is an opposite algebra, so its commutator is the negation
    # of the closure-restricted ambient commutator (= restricted Lie brackets)
    r = restricted.rows
    checks["envelope_commutator_is_opposite_of_restricted_brackets"] = all(
        commutator.rows[i][j] == _difference(r[j][i], r[i][j])
        for i in range(commutator.dim) for j in range(commutator.dim))
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
    commutator = commutator_algebra(A)
    return commutator.rows == L.rows
