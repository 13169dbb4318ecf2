"""Every name that a module of the package imports is used in that module.

No linter ships with the test extras, so this is the check that catches
an import left behind when the code that read it goes.  A name counts as
used when the module reads it, lists it in ``__all__``, or names it in a
string annotation.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "osgkit"


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    imported = []  # (line, bound name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a string annotation such as "tuple | None", or __all__
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return sorted((line, name) for line, name in imported if name not in used)


def test_unused_imports_are_found():
    source = "import os\nimport sys\nfrom typing import Callable, Iterable\n" \
             "x: 'Callable' = sys.argv\n__all__ = ['os']\n"
    assert unused_imports(source) == [(3, "Iterable")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
