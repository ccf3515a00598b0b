"""The report writer against `json.dump(report, fp, indent=2)`, its oracle.

`run_document` writes each `<id>.json` through `cli._write_json`, piece by
piece, because json's own encoder is pure Python once `indent` is set.  The
contract is byte equality with `json.dump(report, fp, indent=2)` plus a
newline: on the shipped task file's reports, on seeded random trees of every
JSON type json accepts (tuples and non-str keys included), and in the
`TypeError` json raises for a value or a key it cannot write.
"""
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from flataffine.cli import _write_json, run_document

SHIPPED = Path(__file__).resolve().parent.parent / "docs" / "example-tasks.json"
TREES = 400

# quotes, backslashes, control characters, non-ASCII (a lone surrogate, a
# character past the BMP, the line separator U+2028) and plain text
STRINGS = ["", "x", "e1-", '"', "\\", "a\"b\\c", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "ß/ü",
           "\u2028", "\ud800", "\U0001f600", "x^2/y", "1/2"]
FLOATS = [-0.0, 0.0, 1e-7, 1e300, -1e300, 2.5, 0.1, float("nan"), float("inf"),
          float("-inf"), 5e-324, 123456789.125]
INTS = [0, 1, -1, 2 ** 64, -(2 ** 64) - 1, 3 ** 100, 7]


def written(value) -> str:
    buf = io.StringIO()
    _write_json(buf.write, value)
    return buf.getvalue()


def _scalar(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return "".join(rng.choice(STRINGS) for _ in range(rng.randint(0, 3)))
    if kind == 1:
        return rng.choice(INTS + [rng.randint(-10 ** 30, 10 ** 30)])
    if kind == 2:
        return rng.choice(FLOATS + [rng.uniform(-1e6, 1e6)])
    return rng.choice((True, False, None))


def _key(rng):
    return rng.choice((rng.choice(STRINGS), rng.choice(INTS), rng.choice(FLOATS),
                       True, False, None, f"k{rng.randrange(100)}"))


def tree(rng, depth):
    """A random value nested at most `depth` containers deep: dicts with
    keys of every type json converts, lists, tuples, empty ones, lists of
    strings only and mixed lists."""
    kind = rng.randrange(6) if depth else 0
    if kind == 0:
        return _scalar(rng)
    size = rng.choice((0, 1, 2, rng.randint(3, 6)))
    if kind == 1:
        return {_key(rng): tree(rng, depth - 1) for _ in range(size)}
    if kind == 2:
        return [rng.choice(STRINGS) + str(k) for k in range(size)]
    items = [tree(rng, depth - 1) for _ in range(size)]
    return tuple(items) if kind == 3 else items


def test_every_report_of_the_shipped_file_is_json_dump_byte_for_byte(tmp_path):
    code, reports = run_document(json.loads(SHIPPED.read_text()), out_dir=tmp_path,
                                 fmt="both")
    assert code == 0 and len(reports) == 11
    for report in reports:
        text = (tmp_path / f"{report['id']}.json").read_text()
        assert text == json.dumps(report, indent=2) + "\n", report["id"]


@pytest.mark.parametrize("seed", range(3))
def test_random_trees_are_written_as_json_dumps_writes_them(seed):
    rng = random.Random(f"writer-{seed}")
    for i in range(TREES):
        value = tree(rng, rng.randint(0, 6))
        assert written(value) == json.dumps(value, indent=2), (i, value)


def test_the_fixed_shapes_are_written_as_json_dumps_writes_them():
    for value in ({}, [], (), [[]], [{}], {"a": ()}, {"a": {}}, ["x"], ("x", "y"), ["x", 1],
                  [1, "x"], ["x", ["y"]], {None: 1, True: 2, 3: 4, 2.5: 5, float("nan"): 6},
                  STRINGS, FLOATS, INTS, [True, False, None], 2 ** 64):
        assert written(value) == json.dumps(value, indent=2), value


def _json_error(value):
    with pytest.raises(TypeError) as err:
        json.dump(value, io.StringIO(), indent=2)
    return str(err.value)


@pytest.mark.parametrize("value", [Fraction(1, 2), {1, 2}, {(1, 2): 3}, [1, Fraction(1, 3)],
                                   ["x", {2}], {"a": {"b": (1, Fraction(2))}}, {frozenset(): 1}],
                         ids=["fraction", "set", "tuple-key", "fraction-item", "set-item",
                              "nested-fraction", "frozenset-key"])
def test_a_value_json_cannot_write_raises_json_s_type_error(value):
    message = _json_error(value)
    with pytest.raises(TypeError) as err:
        written(value)
    assert str(err.value) == message
