"""Every name that a module of the package imports is used in that module,
every private name that a module defines is read in the package, the
package's caches are exactly the known ones, no module of it reads those
cached functions or ``check_theorem``, and its modules import each other
at module level only.

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


CACHE_DECORATORS = ("lru_cache", "cache", "cached_property")


def cached_functions(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, qualified name) of each function of the given modules,
    {module: source}, decorated with one of CACHE_DECORATORS, called or
    not, bare or as an attribute of ``functools``."""
    found = []

    def visit(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in child.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    name = getattr(target, "attr", getattr(target, "id", None))
                    if name in CACHE_DECORATORS:
                        found.append((module, prefix + child.name))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(module, child, f"{prefix}{child.name}.")

    for module, source in sources.items():
        visit(module, ast.parse(source), "")
    return sorted(found)


def test_cached_functions_are_found():
    source = (
        "import functools\n"
        "from functools import cache, cached_property, lru_cache\n"
        "@lru_cache(maxsize=8)\ndef a(x):\n    return x\n"
        "@functools.cache\ndef b(x):\n    return x\n"
        "class C:\n"
        "    @cached_property\n    def c(self):\n        return 1\n"
        "    @property\n    def d(self):\n        return 2\n"
        "    class Inner:\n"
        "        @functools.lru_cache\n        def e(self):\n            return 3\n"
        "def f(x):\n    @cache\n    def g(y):\n        return y\n    return g\n"
        "@staticmethod\ndef h():\n    pass\n"
    )
    assert cached_functions({"a.py": source}) == [
        ("a.py", "C.Inner.e"), ("a.py", "C.c"), ("a.py", "a"), ("a.py", "b"), ("a.py", "f.g"),
    ]


def test_no_new_caches():
    # the five structure-keyed caches whose hit ratios the benchmark reads;
    # the fact record caches nothing (it holds rows, and relations builds
    # the partitions of Green's relations and sigma from them), a sixth
    # cache fails here, and the list shrinks as the five go
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert cached_functions(sources) == [
        ("properties.py", "inverses_of"),
        ("properties.py", "is_inverse_ordered"),
        ("properties.py", "regularity"),
        ("relations.py", "greens_relations"),
        ("relations.py", "least_complete_semilattice_congruence"),
    ]


def function_level_imports(source: str) -> list[tuple[str, int, str]]:
    """(qualified function name, line, module) for each osgkit module that
    the given source imports inside a function, methods and nested
    functions included; ``from osgkit import m`` imports ``osgkit.m``."""
    found = []

    def modules(node):
        if isinstance(node, ast.Import):
            return [a.name for a in node.names]
        if isinstance(node, ast.ImportFrom) and node.module == "osgkit":
            return [f"osgkit.{a.name}" for a in node.names]
        if isinstance(node, ast.ImportFrom):
            return [node.module or ""]
        return []

    def visit(node, prefix, function):
        for child in ast.iter_child_nodes(node):
            if function:
                found.extend((function, child.lineno, m) for m in modules(child)
                             if m == "osgkit" or m.startswith("osgkit."))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{prefix}{child.name}.", prefix + child.name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", function)
            else:
                visit(child, prefix, function)

    visit(ast.parse(source), "", None)
    return sorted(found)


def test_function_level_imports_are_found():
    source = (
        "import os\n"
        "from osgkit import kernel\n"
        "if os.environ:\n    from osgkit import _kernel_py\n"
        "def a():\n    import json\n    from osgkit.relations import Partition\n"
        "class B:\n"
        "    def c(self):\n"
        "        if self:\n            import osgkit.theorems\n"
        "        def d():\n            from osgkit import properties, structure\n"
    )
    assert function_level_imports(source) == [
        ("B.c", 11, "osgkit.theorems"),
        ("B.c.d", 13, "osgkit.properties"),
        ("B.c.d", 13, "osgkit.structure"),
        ("a", 7, "osgkit.relations"),
    ]


def test_no_function_level_imports():
    # no import cycle is broken by importing inside a function; the two
    # imports left there keep the reference kernel unloaded until a
    # structure above the compiled kernel's orders needs its record or
    # its validation
    found = [(path.name, *entry) for path in sorted(PACKAGE.glob("*.py"))
             for entry in function_level_imports(path.read_text(encoding="utf-8"))]
    assert [(module, fn, name) for module, fn, _, name in found] == [
        ("properties.py", "facts", "osgkit._kernel_py"),
        ("structure.py", "validate", "osgkit._kernel_py"),
    ]


# the five cached functions and check_theorem: tests, oracles and the
# tracer read them, and the package decides on fact records instead
GUARDED = ("inverses_of", "regularity", "is_inverse_ordered", "greens_relations",
           "least_complete_semilattice_congruence", "check_theorem")


def guarded_reads(source: str) -> list[tuple[int, str]]:
    """(line, name) for each read of a GUARDED name in the given source,
    bare or as an attribute of an osgkit module it imports, outside the
    function of that name; a method of the same name is not read."""
    tree = ast.parse(source)
    modules = set()  # the expressions that name an osgkit module here
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "osgkit":
            modules.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names
                           if a.name.startswith("osgkit."))
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                name = child.id
            elif isinstance(child, ast.Attribute) and ast.unparse(child.value) in modules:
                name = child.attr
            else:
                name = None
            if name in GUARDED and name != function:
                found.append((child.lineno, name))
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else function)

    visit(tree, None)
    return sorted(found)


def test_guarded_reads_are_found():
    source = (
        "import osgkit.relations\n"
        "from osgkit import properties as p, theorems\n"
        "from osgkit.properties import regularity\n"
        "def check_theorem(s):\n    return check_theorem(s)\n"
        "def a(s, f):\n"
        "    f.regularity('regular')\n"
        "    return regularity(s), p.inverses_of(s, 0)\n"
        "b = [theorems.check_theorem, osgkit.relations.greens_relations]\n"
    )
    assert guarded_reads(source) == [
        (8, "inverses_of"), (8, "regularity"), (9, "check_theorem"), (9, "greens_relations"),
    ]


def test_package_reads_no_cached_function():
    found = [(path.name, *entry) for path in sorted(PACKAGE.glob("*.py"))
             for entry in guarded_reads(path.read_text(encoding="utf-8"))]
    assert found == []
