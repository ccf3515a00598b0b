"""Structure-constant algebra: identity checks, closure, units, serialization."""
import random
import time
from fractions import Fraction

import pytest

from flataffine import (
    JacobiError,
    LieAlgebraSC,
    SCAlgebra,
    Subspace,
    adjoin_unit,
    check_associative,
    check_left_symmetric,
    commutator_algebra,
    is_unit,
    left_mult_matrix,
    opposite,
    subalgebra_closure,
)
from flataffine.algebra import TaskFileError, _to_vector, parse_rational
from flataffine.linalg import solve
from helpers import (
    aff_line_lsa,
    alpha_family,
    mat_mul,
    random_algebra,
    six_field_table_algebra,
    subspace_contains,
    subspace_coordinates,
    zero_algebra,
)


def F(x):
    return Fraction(x)


# ----- brute-force oracles ----------------------------------------------------


def brute_left_symmetric(A):
    """Direct evaluation of the defining identity on all basis triples."""
    n = A.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                bi, bj, bk = (A.basis_vector(t) for t in (i, j, k))
                lhs = tuple(a - b for a, b in zip(
                    A.product(A.product(bi, bj), bk), A.product(bi, A.product(bj, bk))))
                rhs = tuple(a - b for a, b in zip(
                    A.product(A.product(bj, bi), bk), A.product(bj, A.product(bi, bk))))
                if lhs != rhs:
                    return False
    return True


def brute_associative(A):
    n = A.dim
    zero = (F(0),) * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                bi, bj, bk = (A.basis_vector(t) for t in (i, j, k))
                diff = tuple(a - b for a, b in zip(
                    A.product(A.product(bi, bj), bk), A.product(bi, A.product(bj, bk))))
                if diff != zero:
                    return False
    return True


def brute_has_inverse(A, v):
    """Solve v·w = w·v = 1 as a stacked exact linear system."""
    n = A.dim
    unit = A.basis_vector(A.unit_index)
    left = left_mult_matrix(A, v)
    right = [[sum(F(v[i]) * A.c[j][i][k] for i in range(n)) for j in range(n)]
             for k in range(n)]
    stacked = [row for row in left] + [row for row in right]
    rhs = list(unit) + list(unit)
    return solve(stacked, [rhs]) != [None]


# ----- left-symmetric / associative checks --------------------------------------


def test_aff_line_is_left_symmetric():
    assert check_left_symmetric(aff_line_lsa()).holds


def test_zero_product_is_left_symmetric():
    assert check_left_symmetric(zero_algebra(("a", "b"))).holds


def test_derived_case_matches_brute_force():
    # e1e1 = e2, e2e1 = e1, all else zero
    A = SCAlgebra.from_products(("e1", "e2"),
                                {("e1", "e1"): {"e2": 1}, ("e2", "e1"): {"e1": 1}})
    assert check_left_symmetric(A).holds == brute_left_symmetric(A)


def test_left_symmetric_witness_is_first_lex():
    rng = random.Random(303)
    for _ in range(40):
        A = random_algebra(rng, 2)
        report = check_left_symmetric(A)
        assert report.holds == brute_left_symmetric(A)
        if not report.holds:
            assert report.witness is not None
            i, j, k = report.witness
            assert 1 <= i <= 2 and 1 <= j <= 2 and 1 <= k <= 2


def test_six_field_table_is_associative():
    assert check_associative(six_field_table_algebra()).holds


def test_unital_2dim_example_associative():
    A = SCAlgebra.from_products(
        ("e1", "e2"),
        {("e1", "e1"): {"e1": 1}, ("e1", "e2"): {"e2": 1}, ("e2", "e1"): {"e2": 1}})
    assert check_associative(A).holds


def test_aff_line_not_associative_with_witness():
    report = check_associative(aff_line_lsa())
    assert not report.holds
    assert report.witness == (1, 1, 2)
    assert brute_associative(aff_line_lsa()) is False


# ----- commutator algebra --------------------------------------------------------


def test_aff_line_commutator_is_aff_bracket():
    lie = commutator_algebra(aff_line_lsa())
    # [e1, e2] = e2, hand-derived by subtracting transposed constants
    assert lie.c[0][1] == (F(0), F(1))
    assert lie.c[1][0] == (F(0), F(-1))


def test_commutative_algebra_gives_abelian():
    A = SCAlgebra.from_products(("a", "b"), {("a", "b"): {"a": 1}, ("b", "a"): {"a": 1}})
    lie = commutator_algebra(A)
    assert all(not any(vec) for row in lie.c for vec in row)


def test_six_field_table_commutator_is_antisymmetrization():
    A = six_field_table_algebra()
    lie = commutator_algebra(A)
    for i in range(A.dim):
        for j in range(A.dim):
            expected = tuple(a - b for a, b in zip(A.c[i][j], A.c[j][i]))
            assert lie.c[i][j] == expected


def test_jacobi_error_on_non_lie_admissible():
    # commutators give [b1,b2]=b3, [b1,b3]=b1, [b2,b3]=b2, whose Jacobi sum
    # at (1,2,3) is 2*b3
    A = SCAlgebra.from_products(
        ("b1", "b2", "b3"),
        {("b1", "b2"): {"b3": 1}, ("b1", "b3"): {"b1": 1}, ("b2", "b3"): {"b2": 1}})
    with pytest.raises(JacobiError) as err:
        commutator_algebra(A)
    assert err.value.witness == (1, 2, 3)


def test_lie_algebra_constructor_validates():
    with pytest.raises(ValueError, match=r"not antisymmetric at \(1, 2\)"):
        LieAlgebraSC(("a", "b"), [[[0, 0], [1, 0]], [[1, 0], [0, 0]]])
    with pytest.raises(ValueError, match="unique"):
        LieAlgebraSC(("a", "a"), [[[0, 0], [0, 0]], [[0, 0], [0, 0]]])


# ----- closure --------------------------------------------------------------------


def test_closure_of_six_field_table_generators():
    A = six_field_table_algebra()
    space = subalgebra_closure(A, [A.basis_vector(0), A.basis_vector(1)])
    assert space.rank == 5
    assert space.named_basis(A.basis_names) == ["e1-", "e2-", "C3", "C4", "C5"]
    # C6 stays out
    assert not subspace_contains(space, A.basis_vector(5))


def test_closure_full_basis_is_everything():
    A = six_field_table_algebra()
    space = subalgebra_closure(A, [A.basis_vector(i) for i in range(A.dim)])
    assert space.rank == A.dim


def test_closure_of_idempotent_rank_one():
    A = SCAlgebra.from_products(("e", "f", "g"), {("e", "e"): {"e": 1}})
    space = subalgebra_closure(A, [A.basis_vector(0)])
    assert space.rank == 1


def test_closure_idempotent_and_product_closed_random():
    rng = random.Random(404)
    for _ in range(25):
        dim = rng.randint(2, 4)
        A = random_algebra(rng, dim)
        gens = [[F(rng.randint(-2, 2)) for _ in range(dim)]
                for _ in range(rng.randint(1, dim))]
        space = subalgebra_closure(A, gens)
        again = subalgebra_closure(A, [list(r) for r in space.rows])
        assert again == space
        for u in space.rows:
            for v in space.rows:
                assert subspace_contains(space, A.product(u, v))


# ----- opposite, unit adjunction, units --------------------------------------------


def test_opposite_involution_and_examples():
    A = six_field_table_algebra()
    assert opposite(opposite(A)) == A
    # commutative algebra equals its opposite
    B = SCAlgebra.from_products(("a", "b"), {("a", "b"): {"a": 1}, ("b", "a"): {"a": 1}})
    assert opposite(B) == B
    # aff-line product: e2 ·op e1 = e1·e2 = e2
    op = opposite(aff_line_lsa())
    assert op.c[1][0] == (F(0), F(1))


def test_opposite_preserves_associativity_verdict_random():
    rng = random.Random(505)
    for _ in range(20):
        A = random_algebra(rng, 3)
        assert check_associative(A).holds == check_associative(opposite(A)).holds


def test_adjoin_unit_dual_numbers():
    A = adjoin_unit(zero_algebra(("e",)))
    assert A.dim == 2
    assert A.basis_names == ("e", "1")
    assert A.unit_index == 1
    e, one = A.basis_vector(0), A.basis_vector(1)
    assert A.product(e, e) == (F(0), F(0))
    assert A.product(one, e) == e and A.product(e, one) == e
    assert A.product(one, one) == one


def test_adjoin_unit_preserves_associativity():
    big = adjoin_unit(six_field_table_algebra())
    assert check_associative(big).holds


def test_is_unit_beta_pattern():
    # A = unit adjoined to <e> with e·e = e; v = 1 + t e is a unit iff t != -1
    A = adjoin_unit(SCAlgebra.from_products(("e",), {("e", "e"): {"e": 1}}))
    def v(t):
        return (F(t), F(1))
    assert not is_unit(A, v(-1))
    assert is_unit(A, v(2))
    assert is_unit(A, (F(0), F(1)))          # v = 1
    assert not is_unit(A, (F(0), F(0)))      # v = 0


def test_is_unit_requires_designated_unit():
    with pytest.raises(ValueError):
        is_unit(six_field_table_algebra(), six_field_table_algebra().basis_vector(0))


def test_is_unit_agrees_with_bruteforce_inverse():
    rng = random.Random(606)
    A = adjoin_unit(six_field_table_algebra())
    assert check_associative(A).holds
    for _ in range(12):
        v = [F(rng.randint(-2, 2)) for _ in range(A.dim)]
        assert is_unit(A, v) == brute_has_inverse(A, v)


# ----- left multiplication ----------------------------------------------------------


def test_left_mult_zero():
    A = six_field_table_algebra()
    assert left_mult_matrix(A, [F(0)] * 6) == [[F(0)] * 6 for _ in range(6)]


def test_left_mult_homomorphism_on_six_field_table():
    A = six_field_table_algebra()
    v = A.basis_vector(0)   # e1-
    w = A.basis_vector(4)   # C5
    lhs = left_mult_matrix(A, A.product(v, w))
    rhs = mat_mul(left_mult_matrix(A, v), left_mult_matrix(A, w))
    assert lhs == rhs


def test_left_mult_aff_line_e1():
    m = left_mult_matrix(aff_line_lsa(), (F(1), F(0)))
    assert m == [[F(2), F(0)], [F(0), F(1)]]


# ----- properties tying checks together ----------------------------------------------


def test_associative_implies_commutator_jacobi_random():
    rng = random.Random(707)
    seen = 0
    while seen < 20:
        A = random_algebra(rng, 3)
        if not check_associative(A).holds:
            continue
        commutator_algebra(A)  # must not raise
        seen += 1


def test_left_symmetric_implies_jacobi():
    rng = random.Random(808)
    instances = [aff_line_lsa()] + [alpha_family(a) for a in range(1, 6)]
    while len(instances) < 24:
        A = random_algebra(rng, 2)
        if check_left_symmetric(A).holds:
            instances.append(A)
    for A in instances:
        assert check_left_symmetric(A).holds
        commutator_algebra(A)  # Jacobi must hold, no error


# ----- subspace and serialization ------------------------------------------------------


def test_subspace_coordinates():
    space = Subspace(3, [[F(1), F(0), F(1)], [F(0), F(1), F(0)]])
    assert subspace_coordinates(space, [F(2), F(3), F(2)]) == [F(2), F(3)]
    assert subspace_coordinates(space, [F(0), F(0), F(1)]) is None


def test_named_basis_only_for_coordinate_subspaces():
    space = Subspace(3, [[F(1), F(0), F(0)], [F(0), F(0), F(1)]])
    assert space.named_basis(("a", "b", "c")) == ["a", "c"]
    slanted = Subspace(3, [[F(1), F(1), F(0)]])
    assert slanted.named_basis(("a", "b", "c")) is None


def test_restrict_to_slanted_subspace_autonames():
    from flataffine import restrict_to_subspace
    A = SCAlgebra.from_products(("b1", "b2"), {("b1", "b1"): {"b1": 1, "b2": 1}})
    space = subalgebra_closure(A, [(F(1), F(1))])
    assert space.rank == 1
    assert space.named_basis(A.basis_names) is None
    restricted = restrict_to_subspace(A, space)
    assert restricted.basis_names == ("v1",)
    assert restricted.c[0][0] == (F(1),)


def test_restrict_rejects_non_closed_subspace():
    from flataffine import restrict_to_subspace
    A = aff_line_lsa()
    space = Subspace(2, [[F(0), F(1)]])   # span{e2}; e2·e2 = e1 escapes
    with pytest.raises(ValueError, match="not closed"):
        restrict_to_subspace(A, space)


def test_restrict_refuses_a_subspace_of_another_space():
    from flataffine import restrict_to_subspace
    A = aff_line_lsa()
    # a pivot past the algebra's basis, and a coordinate span that reads as Q^2
    for rows in ([[0, 0, 1]], [[1, 0, 0], [0, 1, 0]]):
        with pytest.raises(ValueError, match=r"lies in Q\^3, not in Q\^2"):
            restrict_to_subspace(A, Subspace(3, rows))


def test_basis_vector_refuses_an_index_outside_the_basis():
    A = aff_line_lsa()
    assert A.basis_vector(1) == (Fraction(0), Fraction(1))
    for i in (2, 7, -1):
        with pytest.raises(ValueError, match="not between 0 and 1"):
            A.basis_vector(i)


@pytest.mark.parametrize("index", [0.5, 1.0, True, False, "1"],
                         ids=["half", "float", "true", "false", "string"])
def test_basis_vector_refuses_an_index_that_is_not_an_int(index):
    # 0.5 read as the zero vector, and True and 1.0 as index 1
    with pytest.raises(ValueError, match="not between 0 and 1"):
        aff_line_lsa().basis_vector(index)


def test_generator_vectors_reuse_their_fractions():
    """A basis vector is built from one shared 0 and one shared 1, and the
    closure's coercion keeps an entry that is a `Fraction` already."""
    A = six_field_table_algebra()
    vectors = [A.basis_vector(i) for i in range(A.dim)]
    assert len({id(x) for vec in vectors for x in vec}) == 2
    assert all(x is y for x, y in zip(_to_vector(vectors[2], A.dim), vectors[2]))
    assert _to_vector([1, "1/2", Fraction(3)], 3) == (Fraction(1), Fraction(1, 2), Fraction(3))


def test_json_round_trip():
    for A in (six_field_table_algebra(), aff_line_lsa(),
              adjoin_unit(SCAlgebra.from_products(("e",), {("e", "e"): {"e": 1}}))):
        doc = A.to_json_dict()
        back = SCAlgebra.from_json_dict(doc)
        assert back == A
    doc = six_field_table_algebra().to_json_dict()
    assert all(isinstance(x, str) for entry in doc["products"] for x in entry["result"])
    assert min(entry["left"] for entry in doc["products"]) == 1


def test_lie_from_json_dict_builds_no_unchecked_lie_algebra():
    # neither table is antisymmetric, so no LieAlgebraSC may come of it
    for A in (aff_line_lsa(), six_field_table_algebra()):
        with pytest.raises(ValueError, match="not antisymmetric"):
            LieAlgebraSC.from_json_dict(A.to_json_dict())


@pytest.mark.parametrize("entry", ["1e999999999", "1.5", 0.5, True, " 1", "1/0"])
def test_from_json_dict_refuses_what_is_not_a_rational(entry):
    doc = {"dim": 1, "basis": ["e"], "products": [{"left": 1, "right": 1, "result": [entry]}]}
    started = time.process_time()
    with pytest.raises(ValueError, match="bad rational"):
        SCAlgebra.from_json_dict(doc)
    # Fraction("1e999999999") would build a 415 MB integer before answering
    assert time.process_time() - started < 0.5
    doc["products"][0]["result"] = ["-3/4"]
    assert SCAlgebra.from_json_dict(doc).rows == ((((0, Fraction(-3, 4)),),),)


def _rational_literals(rng):
    """Strings of the accepted language [+-]?[0-9]+(/[0-9]+)?: signs, leading
    zeros, zero numerators and denominators, and literals past int()'s
    4300-digit limit in either place."""
    def digits(n):
        return "".join(rng.choice("0123456789") for _ in range(n))

    out = ["1/0", "-0/0", "+7/00", "0", "-0", "007/010", "1" * 5000,
           "-1/" + "2" * 5000, "3" * 4300, "1/" + "9" * 4301]
    for _ in range(300):
        literal = rng.choice(("", "+", "-")) + digits(rng.randint(1, 30))
        if rng.random() < 0.6:
            literal += "/" + digits(rng.randint(1, 30))
        out.append(literal)
    return out


def _outcome(parse, x):
    try:
        return parse(x)
    except (ValueError, ZeroDivisionError) as err:
        return type(err), str(err)


@pytest.mark.parametrize("seed", range(3))
def test_parse_rational_reads_what_fraction_reads(seed):
    # Fraction(str) is the oracle for the accepted language; its errors are
    # reported with the same texts
    def oracle(x):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as err:
            raise ValueError(f"bad rational {x!r}: {err}") from None

    outcomes = set()
    for x in _rational_literals(random.Random(f"rational-{seed}")):
        got = _outcome(parse_rational, x)
        assert got == _outcome(oracle, x)
        if isinstance(got, Fraction):
            outcomes.add(Fraction)
        else:
            outcomes.add(got[1].partition(": ")[2].partition("(")[0].split()[0])
    # values, zero denominators and over-long literals all occur
    assert outcomes == {Fraction, "Fraction", "Exceeds"}


def test_from_json_dict_builds_the_entries_it_is_given():
    doc = {"dim": 2, "basis": ["e", "f"], "products": [
        {"left": 1, "right": 2, "result": ["0", "-2/3"]},
        {"left": 2, "right": 2, "result": ["0", "0"]}]}
    A = SCAlgebra.from_json_dict(doc)
    assert A.rows == (((), ((1, Fraction(-2, 3)),)), ((), ()))
    assert A == SCAlgebra(("e", "f"), [[[0, 0], [0, Fraction(-2, 3)]], [[0, 0], [0, 0]]])
    # a pair given twice is refused at its second entry, as the task file does
    for entry, path, message in (
            ({"left": 1, "right": 2, "result": ["1", "0"]}, "/products/2",
             r"product \(1, 2\) is given twice"),
            ({"left": 2, "right": 1, "result": ["1"]}, "/products/2/result",
             '"result" must have 2 entries'),
            ({"left": 3, "right": 1, "result": ["1", "0"]}, "/products/2/left",
             '"left" must be between 1 and 2')):
        with pytest.raises(TaskFileError, match=message) as err:
            SCAlgebra.from_json_dict(dict(doc, products=doc["products"] + [entry]))
        assert err.value.path == path
    # the work follows the entries given, not dim^3
    names = [f"b{k}" for k in range(128)]
    started = time.process_time()
    big = SCAlgebra.from_json_dict({"dim": 128, "basis": names, "products": [
        {"left": 1, "right": 128, "result": ["0"] * 127 + ["5"]}]})
    assert time.process_time() - started < 0.5
    assert big.rows[0][127] == ((127, Fraction(5)),)
    assert sum(1 for row in big.rows for cell in row if cell) == 1


def test_lie_from_json_dict_checks_what_it_builds():
    lie = commutator_algebra(six_field_table_algebra())
    doc = lie.to_json_dict()
    for cls in (SCAlgebra, LieAlgebraSC):
        with pytest.raises(ValueError, match="brackets"):
            cls.from_json_dict(doc)
    del doc["brackets"]
    doc["products"] = [{"left": i + 1, "right": j + 1,
                        "result": [str(x) for x in lie.c[i][j]]}
                       for i in range(lie.dim) for j in range(lie.dim) if lie.rows[i][j]]
    assert LieAlgebraSC.from_json_dict(doc) == lie
    doc["products"] = [{"left": 1, "right": 2, "result": ["0"] * (lie.dim - 1) + ["1"]}]
    with pytest.raises(ValueError, match="not antisymmetric"):
        LieAlgebraSC.from_json_dict(doc)
