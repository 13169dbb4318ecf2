"""Every name that a module of the package imports is used in that module,
and every private name that a module defines is read in the package.

No linter ships with the test extras, so these are the checks that catch
an import, or a private helper, left behind when the code that read it
goes.  An imported name counts as used when the module reads it, lists
it in ``__all__``, or names it in a string annotation.  A top-level
private name (``_x``) counts as read when some module of the package
loads it, reads it as an attribute, or imports it.
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


def unused_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) for each top-level private name of the given
    modules, {module: source}, that none of them reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return sorted(entry for entry in defined if entry[2] not in read)


def test_unused_private_names_are_found():
    sources = {
        "a.py": "class _Gone:\n    pass\n_LIMIT = 3\ndef _helper():\n    return _LIMIT\n"
                "def _dead():\n    _helper()\n__all__ = []\n",
        "b.py": "import a\nfrom a import _helper\nx = a._LIMIT\n",
    }
    assert unused_private_names(sources) == [("a.py", 1, "_Gone"), ("a.py", 6, "_dead")]


def test_no_unused_private_names():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_names(sources) == []
