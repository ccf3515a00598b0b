"""Seeded structural mutations of the shipped task file against `load_document`
and the CLI.

Each mutant of `docs/example-tasks.json` must either load or be refused with
`TaskFileError` (which the CLI turns into exit code 2 and a JSON path); any
other exception would be a traceback for the user.  A seeded subset of the
mutants that load is run end to end by `main`, which must return 0, 1 or 2.

The base document gets a second chart with the same variables, so that a
`rename` can move a field onto a chart that is not its connection's.
"""
import copy
import json
import random
from pathlib import Path

import pytest

from flataffine.cli import TaskFileError, load_document, main

EXAMPLE = Path(__file__).resolve().parent.parent / "docs" / "example-tasks.json"
MUTANTS = 300
SEED = 2017
RUN_MUTANTS = 20    # about 0.1 s each

# one value of each JSON type, for type swaps
JSON_VALUES = ("x", "", 7, 0, -1, 2.5, True, False, None, [], ["x"], {}, {"name": "x"})


def _base_document():
    """The shipped task file plus a second chart, "halfplane2"."""
    doc = json.loads(EXAMPLE.read_text())
    doc["charts"].append({"name": "halfplane2", "variables": ["x", "y"]})
    return doc


def _slots(value, out):
    """Every (container, key) pair in the document, depth first."""
    if isinstance(value, dict):
        for key in value:
            out.append((value, key))
            _slots(value[key], out)
    elif isinstance(value, list):
        for key in range(len(value)):
            out.append((value, key))
            _slots(value[key], out)
    return out


def _names(doc):
    """The name strings the document defines, the targets of name references."""
    return sorted({entry["name"] for section in ("charts", "algebras", "fields",
                                                  "connections")
                   for entry in doc[section] if "name" in entry})


def mutate(rng, doc, names):
    """Apply one random mutation in place at a random slot; return its kind."""
    container, key = rng.choice(_slots(doc, []))
    value = container[key]
    kind = rng.choice(("delete", "retype", "rename", "truncate", "nest"))
    if kind == "delete":
        del container[key]
    elif kind == "retype":
        # a copy: a later mutation of the same document must not edit JSON_VALUES
        container[key] = copy.deepcopy(
            rng.choice([v for v in JSON_VALUES if type(v) is not type(value)]))
    elif kind == "rename":
        container[key] = rng.choice(names + ["undefined", "e1", "x"])
    elif kind == "truncate":
        if isinstance(value, list):
            del value[rng.randint(0, len(value)):]
        elif isinstance(container, list):
            del container[key:]
        else:
            container[key] = []
    else:
        container[key] = [value]
    return kind


def test_load_document_loads_or_refuses_every_mutant():
    original = _base_document()
    names = _names(original)
    load_document(copy.deepcopy(original))
    rng = random.Random(SEED)
    kinds = set()
    refused = 0
    for i in range(MUTANTS):
        doc = copy.deepcopy(original)
        applied = [mutate(rng, doc, names) for _ in range(rng.randint(1, 3))]
        kinds.update(applied)
        try:
            load_document(doc)
        except TaskFileError:
            refused += 1
        except Exception as err:    # any other exception is the failure
            pytest.fail(f"mutant {i} ({applied}) raised {type(err).__name__}: {err}")
    assert kinds == {"delete", "retype", "rename", "truncate", "nest"}
    assert 0 < refused < MUTANTS


def test_main_runs_loading_mutants_to_an_exit_code(tmp_path):
    original = _base_document()
    names = _names(original)
    rng = random.Random(SEED + 1)
    taskfile = tmp_path / "tasks.json"
    codes = []
    while len(codes) < RUN_MUTANTS:
        doc = copy.deepcopy(original)
        applied = [mutate(rng, doc, names) for _ in range(rng.randint(1, 3))]
        try:
            load_document(copy.deepcopy(doc))
        except TaskFileError:
            continue
        taskfile.write_text(json.dumps(doc))
        try:
            code = main(["run", str(taskfile)])
        except Exception as err:    # any exception is the failure
            pytest.fail(f"mutant {len(codes)} ({applied}) raised {type(err).__name__}: {err}")
        assert code in (0, 1, 2), applied
        codes.append(code)
    assert len(set(codes)) > 1
