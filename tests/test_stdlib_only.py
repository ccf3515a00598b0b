"""The library has no runtime dependency outside the standard library.

Every module under src/flataffine is parsed, not imported, so a dependency
is caught even where it sits behind a branch that no test takes.
"""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flataffine"


def _absolute_imports(path):
    """The top-level names of the absolute imports in one module, with line numbers."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_import_is_the_package_or_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    allowed = set(sys.stdlib_module_names) | {"flataffine"}
    foreign = [f"{path.relative_to(PACKAGE)}:{line}: {name}"
               for path in modules for line, name in _absolute_imports(path)
               if name not in allowed]
    assert foreign == []


def test_a_foreign_import_is_found(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os.path\nfrom . import x\nif 0:\n    from numpy import array\n")
    assert list(_absolute_imports(module)) == [(1, "os"), (4, "numpy")]
