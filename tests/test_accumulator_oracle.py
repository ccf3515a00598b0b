"""The sparse accumulator `geometry._add_at` against the one it replaced.

`_add_at(vec, k, x)` adds a nonzero x at k and tests only the sum for zero:
Q(x) has no zero divisors, so a product of nonzero values is nonzero, and
every caller passes a component, a tested partial, a Christoffel symbol, or
a product or negation of such values.  The accumulator before that, which
also tested x itself, is kept as `helpers.oracle_add_at`.  The kernels that
sum through `_add_at` (`_combination`, `_derivative_along`,
`_nabla_coordinate`, `curvature` and `solve_iat_ansatz`) run twice on seeded
rational inputs, once as shipped and once with the oracle in its place, and
must give the same values in the same dict insertion order.  The inputs
include sums that cancel to zero, where a key is dropped and may come back
at the end of the dict.  A spy over the shipped task file, a GL2 envelope
pass and a GL3 pass checks the precondition itself: no call passes a zero x.
"""
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from flataffine import (
    Chart,
    Connection,
    RationalFunction,
    VectorField,
    compute_envelope,
    curvature,
    is_flat_affine,
    is_infinitesimal_affine,
    solve_iat_ansatz,
)
from flataffine import geometry
from flataffine.cli import run_document
from flataffine.geometry import independent_fields
from helpers import (
    alpha_connection,
    aff_line_connection,
    gln_scene,
    oracle_add_at,
    random_polynomial,
    random_rational_function,
)

CHART = Chart("xyz", ("x", "y", "z"))
SHIPPED = Path(__file__).resolve().parent.parent / "docs" / "example-tasks.json"


def both_routes(monkeypatch, run):
    """run() as shipped, then with `oracle_add_at` as the accumulator; run
    must build its inputs afresh, since a connection memoizes its tensors."""
    got = run()
    with monkeypatch.context() as patch:
        patch.setattr(geometry, "_add_at", oracle_add_at)
        expected = run()
    return got, expected


def assert_same_in_order(got: dict, expected: dict):
    """The same keys in the same insertion order, equal values, no zero."""
    assert list(got) == list(expected)
    assert all(got[k] == expected[k] for k in got)
    assert all(got.values())


def parse(text):
    return geometry._as_rf(CHART, text)


def nonzero_entry(rng):
    """A nonzero polynomial or rational function on CHART."""
    while True:
        x = (random_rational_function(rng, CHART, max_degree=2) if rng.random() < 0.5
             else RationalFunction(random_polynomial(rng, CHART, max_degree=2)))
        if x:
            return x


def sparse_vector(rng):
    return {k: nonzero_entry(rng) for k in range(CHART.dim) if rng.random() < 0.7}


def random_field(rng):
    return VectorField._of(CHART, sparse_vector(rng))


def random_symbols(rng, density):
    """Sparse Christoffel symbols (k, i, j, value), 1-based, for `from_sparse`."""
    n = CHART.dim
    return [(k, i, j, nonzero_entry(rng)) for i in range(1, n + 1) for j in range(1, n + 1)
            for k in range(1, n + 1) if rng.random() < density]


# ----- sums of products ------------------------------------------------------------


def combination_cases(rng):
    """Random (w, V) terms with zero and scalar weights; the same terms then
    their negations, which cancel everywhere; and the same terms, their
    negations and a sample of them again, whose keys come back in a new order."""
    terms = []
    for _ in range(4):
        w = rng.choice([nonzero_entry(rng), rng.randint(-2, 2), Fraction(rng.randint(1, 5), 3)])
        terms.append((w, sparse_vector(rng)))
    negated = [(-w, vec) for w, vec in terms]
    return [terms, terms + negated, terms + negated + rng.sample(terms, 2),
            [t for pair in zip(terms, negated) for t in pair] + terms[::-1]]


@pytest.mark.parametrize("seed", range(4))
def test_combination_matches_the_oracle_accumulator(monkeypatch, seed):
    rng = random.Random(f"combination-{seed}")
    cancelled = 0
    for terms in combination_cases(rng):
        got, expected = both_routes(monkeypatch, lambda: geometry._combination(terms))
        assert_same_in_order(got, expected)
        cancelled += not got
    assert cancelled   # the terms followed by their negations sum to zero


def test_derivative_along_matches_the_oracle_accumulator(monkeypatch):
    rng = random.Random("derivative-along")
    # X = y d/dx - x d/dy kills every function of x^2 + y^2 and z: components
    # 0 and 2 of X(Y) cancel, component 1 is y
    rotation = VectorField._of(CHART, {0: parse("y"), 1: parse("-x")})
    invariant = VectorField._of(CHART, {0: parse("x^2 + y^2"), 1: parse("x"),
                                        2: parse("z/(x^2 + y^2 + 1)")})
    fields = [rotation, invariant] + [random_field(rng) for _ in range(5)]
    for X in fields:
        for Y in fields:
            got, expected = both_routes(
                monkeypatch, lambda: geometry._derivative_along(X, geometry._partials(Y)))
            assert_same_in_order(got, expected)
    assert geometry._derivative_along(rotation, geometry._partials(invariant)) == \
        {1: parse("y")}


@pytest.mark.parametrize("seed", range(3))
def test_nabla_coordinate_matches_the_oracle_accumulator(monkeypatch, seed):
    rng = random.Random(f"nabla-{seed}")
    # gamma[0][0][0] = -1/x: on Y^0 = x, d_x x + x * (-1/x) cancels
    conn = Connection.from_sparse(CHART, [(1, 1, 1, "-1/x")] + random_symbols(rng, 0.3))
    vectors = [{0: parse("x"), 1: parse("y")}] + [sparse_vector(rng) for _ in range(4)]
    cancelled = 0
    for vec in vectors:
        for axis in range(CHART.dim):
            got, expected = both_routes(
                monkeypatch, lambda: geometry._nabla_coordinate(conn, axis, vec))
            assert_same_in_order(got, expected)
            cancelled += 0 in vec and 0 not in got
    assert cancelled


@pytest.mark.parametrize("seed", range(3))
def test_curvature_matches_the_oracle_accumulator(monkeypatch, seed):
    rng = random.Random(f"curvature-{seed}")
    entries = random_symbols(rng, 0.25)
    got, expected = both_routes(
        monkeypatch, lambda: curvature(Connection.from_sparse(CHART, entries)).components)
    assert_same_in_order(dict(got), dict(expected))
    assert got


@pytest.mark.parametrize("alpha", [-1, 2, 3])
def test_a_flat_curvature_cancels_on_both_accumulators(monkeypatch, alpha):
    """The flat half-plane frame connections have nonzero symbols and zero
    curvature: every component is a sum that cancels."""
    got, expected = both_routes(monkeypatch,
                                lambda: curvature(alpha_connection(alpha)).components)
    assert dict(got) == dict(expected) == {}


def solver_output(conn, ansatz):
    return [list(f.components.items()) for f in solve_iat_ansatz(conn, ansatz)]


@pytest.mark.parametrize("name", ["alpha-1", "alpha2", "alpha3", "aff-lsa", "gl2"])
def test_solver_matches_the_oracle_accumulator(monkeypatch, name):
    if name == "gl2":
        scene = gln_scene(2)
        ansatz = [f"x{r}{s}" for (r, s) in scene.pairs] + ["1", "x11*x22", "1/x11"]
        build = scene.connect
    else:
        ansatz = next(t for t in json.loads(SHIPPED.read_text())["tasks"]
                      if t["kind"] == "solve-iat")["ansatz"]
        ansatz = random.Random(name).sample(ansatz, len(ansatz))
        build = aff_line_connection if name == "aff-lsa" else \
            (lambda: alpha_connection(int(name[len("alpha"):])))
    got, expected = both_routes(monkeypatch, lambda: solver_output(build(), ansatz))
    assert got == expected
    assert got


# ----- the precondition on real workloads ------------------------------------------


def gl2_envelope_pass():
    scene = gln_scene(2)
    inv_names, inv_fields = scene.invariant_fields()
    names, fields = independent_fields(inv_fields + scene.f_fields,
                                       inv_names + scene.f_names)
    generators = [name for name in names if name.startswith("E")]
    report = compute_envelope(scene.connect(), fields, names, generators)
    assert report.closure.rank == 16 and all(report.checks.values())


def gl3_pass():
    scene = gln_scene(3)
    conn = scene.connect()
    assert is_flat_affine(conn)
    _, fields = scene.invariant_fields()
    assert all(is_infinitesimal_affine(conn, f).holds for f in fields)
    control = VectorField(scene.chart, ["x11^2"] + ["0"] * 8)
    assert not is_infinitesimal_affine(conn, control).holds
    assert len(solve_iat_ansatz(conn, list(scene.chart.variables))) == 81


def shipped_document():
    code, _ = run_document(json.loads(SHIPPED.read_text()))
    assert code == 0


@pytest.mark.parametrize("workload", [shipped_document, gl2_envelope_pass, gl3_pass],
                         ids=["shipped", "gl2-envelope", "gl3"])
def test_every_summand_is_nonzero(monkeypatch, workload):
    summands = []
    original = geometry._add_at

    def spy(vec, k, x):
        summands.append(x)
        original(vec, k, x)

    monkeypatch.setattr(geometry, "_add_at", spy)
    workload()
    assert summands
    assert all(summands)
