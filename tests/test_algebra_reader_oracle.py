"""The algebra document's one reader against the checks it took over.

`SCAlgebra.from_json_dict` checks every value of an algebra document and
raises `TaskFileError` at the first bad one, with a path relative to the
document; `load_document` prefixes `/algebras/N`.  The oracle is the
loader-side algebra block the task file loader used to run, kept here
verbatim in behaviour: its own key checks, then the old reader (last entry
wins, `ValueError` without a path), then a second walk of the products for
the path of a bad rational, and "bad algebra: ..." at the entry otherwise.

On seeded mutants of the shipped task file's algebras, the loader gives the
oracle's path and message, except where the oracle refused the whole entry
for a basis of the wrong length or with a repeated name: the reader refuses
those at `/algebras/N/basis`.  On seeded type-swap and index mutants of the
shipped algebra documents, both readers load or raise the path error at a
path that names a value of the document or a key its object lacks; the old
reader raised `TypeError` and `KeyError` there.

`parse_rational` reads "p" as `int(p)` and "p/q" through one `Fraction`; the
oracle is the route it replaced, a second `Fraction` through the old
`_rational` (`helpers.oracle_rational`).  On
seeded literals both give the same value, the same type (an int exactly when
it is integral) and the same error text.
"""
import copy
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from flataffine.algebra import LieAlgebraSC, SCAlgebra, TaskFileError, parse_rational
from flataffine.cli import load_document
from flataffine.symcore.polynomial import _RATIONAL
from helpers import assert_stored_vector, oracle_rational
from test_algebra import _outcome as _parse_outcome, _rational_literals
from test_taskfile_fuzz import JSON_VALUES, _base_document, _names, _slots, mutate

EXAMPLE = Path(__file__).resolve().parent.parent / "docs" / "example-tasks.json"
READER_MUTANTS = 1500
LOADER_MUTANTS = 300


# ----- the loader-side checks and the reader they guarded (test oracle only) ------


def _require(condition, message, path):
    if not condition:
        raise TaskFileError(message, path)


def _typed(value, kind, what, path):
    names = {str: "a string", list: "a list", int: "an integer"}
    ok = type(value) is int if kind is int else isinstance(value, kind)
    _require(ok, f"{what} must be {names[kind]}", path)
    return value


def _fraction(x, path):
    try:
        return parse_rational(x)
    except ValueError as err:
        raise TaskFileError(str(err), path) from None


def old_from_json_dict(doc):
    """The reader before it checked its values: the last entry for a pair
    wins, and a bad value is a plain ValueError, or a TypeError or KeyError."""
    if "brackets" in doc:
        raise ValueError('an algebra is read from "products", not "brackets"')
    n = doc["dim"]
    names = tuple(doc["basis"])
    if len(names) != n:
        raise ValueError("basis length does not match dim")
    given = {}
    for entry in doc.get("products", ()):
        i, j = entry["left"] - 1, entry["right"] - 1
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"product index out of range: {entry}")
        given[i, j] = [parse_rational(x) for x in entry["result"]]
    rows = [[()] * n for _ in range(n)]
    for (i, j), vec in sorted(given.items()):
        if len(vec) != n:
            raise ValueError(f"expected a vector of length {n}, got {len(vec)}")
        rows[i][j] = tuple((k, x) for k, x in enumerate(vec) if x)
    unit = doc.get("unit")
    return SCAlgebra._of(names, tuple(map(tuple, rows)), None if unit is None else unit - 1)


def oracle_read(entry):
    """The old loader's algebra block after the name, "dim" and its cap, with
    paths relative to the entry."""
    dim = entry["dim"]
    _require(isinstance(entry.get("basis"), list)
             and all(isinstance(b, str) for b in entry["basis"]),
             '"basis" must be a list of strings', "/basis")
    if "unit" in entry:
        unit = _typed(entry["unit"], int, '"unit"', "/unit")
        _require(1 <= unit <= dim, f'"unit" must be between 1 and {dim}', "/unit")
    _require("brackets" not in entry, 'an algebra is read from "products", '
             'not "brackets"', "/brackets")
    products = _typed(entry.get("products", []), list, '"products"', "/products")
    pairs = set()
    for k, item in enumerate(products):
        ipath = f"/products/{k}"
        _require(isinstance(item, dict), "product entries must be objects", ipath)
        for key in ("left", "right"):
            index = _typed(item.get(key), int, f'"{key}"', f"{ipath}/{key}")
            _require(1 <= index <= dim, f'"{key}" must be between 1 and {dim}',
                     f"{ipath}/{key}")
        pair = (item["left"], item["right"])
        _require(pair not in pairs, f"product {pair} is given twice", ipath)
        pairs.add(pair)
        result = _typed(item.get("result"), list, '"result"', f"{ipath}/result")
        _require(len(result) == dim, f'"result" must have {dim} entries', f"{ipath}/result")
    try:
        return old_from_json_dict(entry)
    except (ValueError, KeyError) as err:
        for k, item in enumerate(products):
            for m, x in enumerate(item["result"]):
                _fraction(x, f"/products/{k}/result/{m}")
        raise TaskFileError(f"bad algebra: {err}", "") from None


# ----- mutants ---------------------------------------------------------------------


def _outcome(load, doc):
    try:
        load(doc)
    except TaskFileError as err:
        return err.path, err.message
    return None


def _index_mutation(rng, doc):
    """Set a "dim", "unit", "left" or "right" of `doc` to an integer near its range."""
    slots = [(c, k) for c, k in _slots(doc, []) if k in ("dim", "unit", "left", "right")]
    container, key = rng.choice(slots)
    n = doc["dim"] if type(doc.get("dim")) is int else 2
    container[key] = rng.choice((-1, 0, 1, n, n + 1, rng.randint(-3, n + 3)))


def _algebra_mutants(seed, count):
    """(label, document): seeded mutants of each shipped algebra document."""
    algebras = json.loads(EXAMPLE.read_text())["algebras"]
    rng = random.Random(seed)
    for i in range(count):
        doc = copy.deepcopy(rng.choice(algebras))
        del doc["name"]
        doc.setdefault("unit", 1)   # so that "unit" is mutated too
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.4:
                _index_mutation(rng, doc)
            else:
                container, key = rng.choice(_slots(doc, []))
                container[key] = copy.deepcopy(rng.choice(
                    [v for v in JSON_VALUES if type(v) is not type(container[key])]))
        yield i, doc


def _resolves(doc, path):
    """Whether `path` names a value of `doc` or a key its object lacks."""
    node = doc
    tokens = path.split("/")[1:]
    try:
        for token in tokens[:-1]:
            node = node[int(token)] if isinstance(node, list) else node[token]
        if not tokens:
            return True
        if isinstance(node, list):
            return 0 <= int(tokens[-1]) < len(node)
        return isinstance(node, dict)
    except (KeyError, IndexError, ValueError, TypeError):
        return False


# ----- tests -------------------------------------------------------------------------


@pytest.mark.parametrize("cls", [SCAlgebra, LieAlgebraSC])
def test_reader_loads_or_names_the_bad_value_of_every_mutant(cls):
    loaded = refused = 0
    for i, doc in _algebra_mutants(f"reader-{cls.__name__}", READER_MUTANTS):
        try:
            algebra = cls.from_json_dict(copy.deepcopy(doc))
        except TaskFileError as err:
            assert _resolves(doc, err.path), (i, err.path, doc)
            assert str(err) == f"{err.path}: {err.message}"
            refused += 1
            continue
        except ValueError as err:   # a table that is no Lie bracket
            assert cls is LieAlgebraSC and not isinstance(err, TaskFileError), (i, err)
            continue
        except Exception as err:    # any other exception is the failure
            pytest.fail(f"mutant {i} raised {type(err).__name__}: {err}")
        assert type(algebra) is cls and algebra.dim == doc["dim"]
        loaded += 1
    assert loaded and refused


def test_reader_gives_the_values_the_old_reader_gave():
    for i, doc in _algebra_mutants("values", READER_MUTANTS):
        try:
            algebra = SCAlgebra.from_json_dict(copy.deepcopy(doc))
        except TaskFileError:
            continue
        assert algebra == old_from_json_dict(doc), i
        for row in algebra.rows:
            for cell in row:
                assert_stored_vector(x for _, x in cell)


# the two whole-entry errors of the oracle, and the reader's path and message for each
BASIS_MOVES = {"bad algebra: basis length does not match dim":
               "basis length does not match dim",
               "bad algebra: basis names must be unique": "basis names must be unique"}


def test_loader_gives_the_old_paths_and_messages(monkeypatch):
    original = _base_document()
    names = _names(original)
    rng = random.Random("loader")
    mutants = []
    while len(mutants) < LOADER_MUTANTS:
        doc = copy.deepcopy(original)
        for _ in range(rng.randint(1, 3)):
            mutate(rng, doc["algebras"], names)
        mutants.append(doc)
    mutants += [copy.deepcopy(original) for _ in range(2)]
    mutants[-2]["algebras"][0]["basis"].append("e3")
    mutants[-1]["algebras"][1]["basis"][1] = "e1-"
    got = [_outcome(load_document, copy.deepcopy(doc)) for doc in mutants]
    monkeypatch.setattr(SCAlgebra, "from_json_dict", staticmethod(oracle_read))
    expected = [_outcome(load_document, doc) for doc in mutants]
    moved = 0
    for doc, new, old in zip(mutants, got, expected):
        if new != old:
            (path, message), (old_path, old_message) = new, old
            assert path == old_path + "/basis" and message == BASIS_MOVES[old_message], \
                (new, old)
            moved += 1
    assert moved >= 2
    assert sum(old is not None for old in expected) > LOADER_MUTANTS // 4


# ----- parse_rational against the route it replaced -----------------------------------


def old_parse_rational(x):
    """`parse_rational` as it was: the same grammar check, then a second
    `Fraction` through the old `_rational`."""
    if type(x) is int:
        return x
    if not (isinstance(x, str) and _RATIONAL.fullmatch(x)):
        raise ValueError(f'bad rational {x!r}: write an integer, "p" or "p/q"')
    p, _, q = x.partition("/")
    try:
        return oracle_rational(Fraction(int(p), int(q) if q else 1))
    except (ValueError, ZeroDivisionError) as err:
        raise ValueError(f"bad rational {x!r}: {err}") from None


# signs, leading zeros, a zero numerator, integral and reducible quotients, the
# digit limit in p and in q, q = 0, and values outside the grammar
RATIONAL_CASES = ["+5", "-5", "+0", "-0", "0007", "-007/010", "0/7", "-0/7", "6/3", "-4/6",
                  "+12/-4", "4/-6", "1" * 4301, "1/" + "1" * 4301, "1" * 4300, "1/0", "-1/00",
                  "0/0", "", "/", "1/", "/2", " 1", "1 ", "1e5", "1.5", "1_0", "\u0661",
                  "1/2/3", 7, -7, 0, 2 ** 80, True, False, 1.0, None, [1], Fraction(1, 2)]


def _reads(parse, x):
    outcome = _parse_outcome(parse, x)
    return outcome if isinstance(outcome, tuple) else (type(outcome), outcome)


@pytest.mark.parametrize("seed", range(3))
def test_parse_rational_reads_what_the_old_route_read(seed):
    values = 0
    literals = _rational_literals(random.Random(f"old-route-{seed}"))
    for x in RATIONAL_CASES + literals:
        got = _reads(parse_rational, x)
        assert got == _reads(old_parse_rational, x), x
        if got[0] in (int, Fraction):
            assert (got[0] is int) == (got[1].denominator == 1), x
            values += 1
    assert values > len(literals) // 2


def test_a_refused_value_reports_its_path_once_every_shape_passed():
    doc = json.loads(EXAMPLE.read_text())
    products = doc["algebras"][1]["products"]
    products[2]["result"][1] = "1/0"
    products[4]["result"][0] = "one"      # a later bad value: the first one is reported
    with pytest.raises(TaskFileError) as err:
        load_document(copy.deepcopy(doc))
    assert err.value.path == "/algebras/1/products/2/result/1"
    assert err.value.message == "bad rational '1/0': Fraction(1, 0)"
    products[5]["left"] = 0               # a bad shape after both is reported first
    with pytest.raises(TaskFileError) as err:
        load_document(copy.deepcopy(doc))
    assert err.value.path == "/algebras/1/products/5/left"
    # so is a pair given again after an entry with a bad value, as the oracle has it
    products[5] = dict(products[2], result=products[5]["result"])
    with pytest.raises(TaskFileError) as err:
        load_document(copy.deepcopy(doc))
    assert err.value.path == "/algebras/1/products/5"
    assert err.value.message == f"product ({products[2]['left']}, {products[2]['right']}) " \
                                "is given twice"
    entry = doc["algebras"][1]
    assert _outcome(oracle_read, entry) == _outcome(SCAlgebra.from_json_dict, entry)
