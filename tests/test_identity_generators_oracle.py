"""Associativity verdicts from a generating set's rows, against the all-pairs scan.

T = {x : (xy)z = x(yz) for all y, z} is a subspace closed under the product,
so an algebra is associative iff every element of a generating set lies in T,
which that element's rows of the identity scan decide.  `check_associative`
scans the rows of the basis vectors that `algebra._generating_indices` yields:
each b_f outside the closure of those before it, the closure resumed from the
span so far.  The first failing row is always among them, so the witness is
the all-pairs scan's.  `compute_envelope` reads `ambient_associative` off the
rows of the generators and of the unit vectors off the closure's pivots, which
together generate the ambient algebra.

This module keeps the all-pairs scan as `oracle_check_associative` and
compares verdicts and witnesses on seeded random tables of dimension 1 to 7,
on group algebras of Z/n in the group basis and in a random basis, on
matrix-unit algebras, on zero-product tables (where every basis vector is its
own generator) and on one-constant perturbations of the associative ones.  A
generating set chosen from the last basis vector down, which often misses the
first failing row, still gives the oracle's verdict.  The envelope's ambient
verdict is compared with the oracle on the GL2, half-plane six-field (a proper
closure, rank 5 of 6) and alpha=2 scenes, on a perturbed GL2 table, and with a
closure that stops one round early, so that more rows are read.
"""
import random
from fractions import Fraction

import pytest

from flataffine import SCAlgebra, Subspace, check_associative, compute_envelope, subalgebra_closure
from flataffine import algebra, envelope, linalg
from flataffine.algebra import CheckReport, _first_failure, _generating_indices
from flataffine.geometry import independent_fields
from flataffine.linalg import invert
from helpers import (
    aff_line_connection,
    alpha2_fields,
    alpha_connection,
    chart_xy,
    gln_scene,
    perturbed,
    random_algebra,
    six_iat_fields,
    subspace_contains,
    unit_matrix_algebra,
    zero_algebra,
)


# ----- oracle --------------------------------------------------------------------------


def oracle_check_associative(A):
    """The scan of every basis pair (i, j), each for every k at once."""
    n = A.dim
    # (b_i b_j) b_k - b_i (b_j b_k)
    witness = _first_failure(A, ((i, j) for i in range(n) for j in range(n)),
                             lambda s, neg, i, j: (s[i][j], ((neg[i], j),), 0))
    return CheckReport(witness is None, witness)


def generates(A, indices) -> bool:
    return subalgebra_closure(A, [A.basis_vector(f) for f in indices]).rank == A.dim


# ----- inputs --------------------------------------------------------------------------


def group_algebra(n):
    """Q[Z/n] in the group basis g^0, ..., g^(n-1): g^a g^b = g^((a + b) mod n)."""
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            c[a][b][(a + b) % n] = Fraction(1)
    return SCAlgebra([f"g{a}" for a in range(n)], c)


def in_random_basis(rng, A):
    """A in the basis b_i = sum_a T[i][a] e_a, T invertible with entries in -2..2."""
    n = A.dim
    while True:
        T = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        try:
            T_inv = invert(T)
            break
        except ValueError:
            continue
    c = [[[sum((w[m] * T_inv[m][k] for m in range(n)), Fraction(0)) for k in range(n)]
          for w in (A.product(T[i], T[j]) for j in range(n))] for i in range(n)]
    return SCAlgebra([f"b{k + 1}" for k in range(n)], c)


def inputs():
    for dim in range(1, 8):
        for seed in range(4):
            yield f"random-{dim}-{seed}", random_algebra(random.Random(f"gen-{dim}-{seed}"), dim)
    associative = [(f"Z{n}", group_algebra(n)) for n in range(1, 7)]
    associative += [(f"Z{n}-random-basis", in_random_basis(random.Random(f"z{n}"), group_algebra(n)))
                    for n in range(1, 7)]
    associative += [("M2", unit_matrix_algebra(2)), ("M3", unit_matrix_algebra(3)),
                    ("M2-random-basis", in_random_basis(random.Random("m2"), unit_matrix_algebra(2))),
                    ("upper-3", unit_matrix_algebra(3, strict=True)),
                    ("upper-4", unit_matrix_algebra(4, strict=True))]
    for name, A in associative:
        yield name, A
        rng = random.Random(f"perturbed-{name}")
        for seed in range(3):
            yield f"{name}-perturbed-{seed}", perturbed(rng, A)
    for n in range(5):
        yield f"zero-{n}", zero_algebra([f"z{k + 1}" for k in range(n)])


CASES = dict(inputs())


# ----- check_associative ---------------------------------------------------------------


@pytest.mark.parametrize("name, A", CASES.items(), ids=list(CASES))
def test_check_associative_matches_the_all_pairs_scan(name, A):
    report = check_associative(A)
    assert report == oracle_check_associative(A)
    if "perturbed" not in name and not name.startswith("random"):
        assert report.holds
    indices = list(_generating_indices(A))
    assert indices == sorted(set(indices)) and generates(A, indices)
    if not report.holds:
        # why the generating rows give the first witness: its row is among them
        assert report.witness[0] - 1 in indices


def test_the_cases_reach_both_verdicts():
    verdicts = [check_associative(A).holds for A in CASES.values()]
    assert verdicts.count(True) >= 25 and verdicts.count(False) >= 40


def test_no_zero_vector_reaches_the_span(monkeypatch):
    """The closure rounds and the generating-set search skip zero products,
    and a closure skips zero generators: `_QSpan.add` is never handed an
    empty vector, and every witness and closure rank is the oracles'."""
    from test_span_oracle import oracle_subalgebra_closure
    rng = random.Random("no-zero-vector")
    runs = []
    for A in CASES.values():
        generators = [[0] * A.dim] + [A.basis_vector(f) for f in range(A.dim)
                                       if rng.random() < 0.4]
        runs.append((A, generators, oracle_check_associative(A),
                     oracle_subalgebra_closure(A, generators).rank))
    added = []
    add = linalg._QSpan.add
    monkeypatch.setattr(linalg._QSpan, "add", lambda span, vec: added.append(vec) or add(span, vec))
    for A, generators, verdict, rank in runs:
        assert check_associative(A) == verdict
        assert subalgebra_closure(A, generators).rank == rank
    assert len(added) > 500 and all(added)


@pytest.mark.parametrize("n", range(5))
def test_a_zero_product_makes_every_basis_vector_a_generator(n):
    A = zero_algebra([f"z{k + 1}" for k in range(n)])
    assert list(_generating_indices(A)) == list(range(n))
    assert check_associative(A) == CheckReport(True, None)


@pytest.mark.parametrize("name, expected", [
    ("Z6", ["g0", "g1"]), ("Z6-random-basis", ["b1", "b2"]),
    ("M3", ["E11", "E12", "E13", "E21", "E31"]),
    ("upper-4", ["E12", "E13", "E14", "E23", "E24", "E34"])])
def test_the_search_yields_each_basis_vector_outside_the_closure_so_far(name, expected):
    # g1 generates Z/6 past the unit g0.  In M3, E11 and E12 span a closed
    # subalgebra that E13 joins, E21 with them generates every E_1q and E_2q,
    # and E31 the rest.  In the strictly upper triangular part every E_pq comes
    # before the units whose product it is, so each one is a generator
    A = CASES[name]
    assert [A.basis_names[f] for f in _generating_indices(A)] == expected


def descending_generators(A):
    """Basis indices whose vectors generate A, picked from the last one down,
    so the first failing row need not be among them."""
    chosen = []
    for f in reversed(range(A.dim)):
        space = subalgebra_closure(A, [A.basis_vector(g) for g in chosen])
        if not subspace_contains(space, A.basis_vector(f)):
            chosen.append(f)
    return sorted(chosen)


def test_a_generating_set_without_the_first_failing_row_gives_the_verdict():
    missed = 0
    for name, A in CASES.items():
        indices = descending_generators(A)
        assert generates(A, indices), name
        oracle = oracle_check_associative(A)
        witness = algebra._associator_failure(A, indices)
        assert (witness is None) == oracle.holds, name
        if not oracle.holds:
            missed += oracle.witness[0] - 1 not in indices
    assert missed >= 10


# ----- the envelope's ambient verdict --------------------------------------------------


def gl2_scene():
    scene = gln_scene(2)
    inv_names, inv_fields = scene.invariant_fields()
    names, fields = independent_fields(inv_fields + scene.f_fields, inv_names + scene.f_names)
    return scene.connect(), fields, names, [n for n in names if n.startswith("E")]


def halfplane_scene():
    names, fields = six_iat_fields(chart_xy())
    return aff_line_connection(chart_xy()), fields, names, ["e1-", "e2-"]


def alpha2_scene():
    names, fields = alpha2_fields(chart_xy())
    return alpha_connection(2, chart_xy()), fields, names, names


SCENES = {"GL2": gl2_scene, "halfplane": halfplane_scene, "alpha2": alpha2_scene}


def spy_rows(monkeypatch):
    """Record (algebra, rows, witness) of every ambient verdict that
    `compute_envelope` takes."""
    calls = []
    rows_scan = envelope._associator_failure

    def spy(A, rows):
        rows = list(rows)
        calls.append((A, rows, rows_scan(A, rows)))
        return calls[-1][2]
    monkeypatch.setattr(envelope, "_associator_failure", spy)
    return calls


@pytest.mark.parametrize("scene", SCENES.values(), ids=list(SCENES))
def test_the_envelope_ambient_verdict_matches_the_oracle(monkeypatch, scene):
    calls = spy_rows(monkeypatch)
    report = compute_envelope(*scene())
    assert report.checks["ambient_associative"] == oracle_check_associative(report.ambient).holds
    (A, rows, _), = calls
    assert A is report.ambient and generates(A, rows)
    # the generators' rows, and the rows off the closure's pivots
    pivots = report.closure._span.rows
    generators = {A.basis_index(g) for g in report.generator_names}
    assert rows == sorted(generators | {f for f in range(A.dim) if f not in pivots})


@pytest.mark.parametrize("seed", range(4))
def test_the_envelope_ambient_verdict_on_a_perturbed_table_matches_the_oracle(monkeypatch, seed):
    table, rng = envelope.product_table, random.Random(f"perturbed-GL2-envelope-{seed}")
    monkeypatch.setattr(envelope, "product_table", lambda *args: perturbed(rng, table(*args)))
    calls = spy_rows(monkeypatch)
    # the envelope of a perturbed table is not associative, and its
    # commutator's Jacobi scan raises after the ambient verdict
    with pytest.raises(algebra.JacobiError):
        compute_envelope(*gl2_scene())
    (A, rows, witness), = calls
    assert witness is not None and not oracle_check_associative(A).holds
    assert generates(A, rows)


def one_round_short(A, generators):
    """The span that the closure rounds reach one round before they stop (the
    generators' span when no round adds anything): each round adds every
    product of the span's rows, so it is a subspace of the closure that need
    not be closed."""
    spans = [Subspace(A.dim, generators)]
    while True:
        rows = spans[-1].rows
        grown = Subspace(A.dim, list(rows) + [A.product(u, v) for u in rows for v in rows])
        if grown == spans[-1]:
            return spans[max(len(spans) - 2, 0)]
        spans.append(grown)


@pytest.mark.parametrize("scene", SCENES.values(), ids=list(SCENES))
def test_a_closure_stopped_early_reads_more_rows_and_keeps_the_verdict(monkeypatch, scene):
    calls = spy_rows(monkeypatch)
    full = compute_envelope(*scene())
    monkeypatch.setattr(envelope, "subalgebra_closure", one_round_short)
    early = one_round_short(full.ambient, [full.ambient.basis_vector(full.ambient.basis_index(g))
                                           for g in full.generator_names])
    if early == full.closure:
        compute_envelope(*scene())
    else:
        # the span is not closed, so the restriction refuses it after the verdict
        with pytest.raises(ValueError, match="not closed under the product"):
            compute_envelope(*scene())
    (A, rows, _), (B, early_rows, witness) = calls
    assert A == B and set(rows) <= set(early_rows) and generates(B, early_rows)
    assert (witness is None) == full.checks["ambient_associative"] \
        == oracle_check_associative(A).holds
