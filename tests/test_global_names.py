"""Static guards over the package source, without importing or running it.

Every global name a module's code reads must be bound.  A name that a
function uses but the module never assigns or imports only fails with
``NameError`` when that line runs, which for the acceptance suite can be
minutes into a test.  Python's own ``symtable`` finds such names, so no
linter is needed.

Every function, class and method the package defines must be read
somewhere in the package.  A definition only the tests call is code the
tests keep correct although no production path runs it; such code belongs
in ``tests/helpers.py``.  The ``ast`` scan below finds it by name.
"""

import ast
import builtins
import symtable
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted((ROOT / "src" / "siqrng").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)
MODULE_ATTRIBUTES = {
    "__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
    "__name__", "__package__", "__path__", "__spec__",
}


def _tables(table):
    yield table
    for child in table.get_children():
        yield from _tables(child)


def unbound_globals(path):
    """Return ``(scope, name)`` for each global read that nothing binds."""
    top = symtable.symtable(path.read_text(), str(path), "exec")
    global_syms = [
        (table.get_name(), sym)
        for table in _tables(top)
        for sym in table.get_symbols()
        if sym.is_global()
    ]
    bound = set(dir(builtins)) | MODULE_ATTRIBUTES | {
        sym.get_name() for _, sym in global_syms if sym.is_assigned() or sym.is_imported()
    }
    return sorted(
        (scope, sym.get_name())
        for scope, sym in global_syms
        if sym.is_referenced() and sym.get_name() not in bound
    )


def test_no_unbound_global_names():
    assert {"extractor.py", "test_acceptance.py"} <= {p.name for p in SCANNED}
    found = [
        f"{path.relative_to(ROOT)}: {scope} uses {name!r}"
        for path in SCANNED
        for scope, name in unbound_globals(path)
    ]
    assert not found, "names used but never assigned or imported:\n" + "\n".join(found)


def test_guard_flags_a_missing_import(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "import math\n"
        "from os import path as p\n"
        "X = 1\n"
        "def setter():\n"
        "    global Y\n"
        "    Y = 2\n"
        "def f(a):\n"
        "    return math.pi + p.sep + X + Y + len(a) + __file__ + missing(a)\n"
        "class C:\n"
        "    attr = also_missing\n"
        "    def m(self):\n"
        "        return [q + gone for q in absent]\n"
    )
    # comprehension scopes differ across Python versions, so compare names only
    names = {name for _, name in unbound_globals(source)}
    assert names == {"also_missing", "missing", "absent", "gone"}


# definitions kept although only the tests read them, each with its reason
TEST_ONLY_ALLOWED = {
    "_Parser.error": "argparse calls it on a usage error",
    "plan_x_count": "the paper's check-count planner (acceptance criterion 10)",
    "SeedSource.from_bits": "a seed of exact bits for tests that fix every seed bit",
}


def _imported_modules(tree) -> set[str]:
    """Names that a plain ``import`` statement binds in ``tree``."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names}


def _reads(tree, modules: set[str]) -> Counter:
    """How often each name is read as a ``Name`` or an ``Attribute``.  An
    attribute of one of ``modules`` (``np.zeros``) reads that module, not
    the package, and does not count."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
        or (isinstance(node, ast.Attribute)
            and not (isinstance(node.value, ast.Name) and node.value.id in modules))
    )


def _definitions(tree, prefix=""):
    """(qualified name, node) of every function, class and method."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node, f"{prefix}{node.name}.")


def unread_definitions(package: Path) -> list[str]:
    """``module:qualified.name`` of each non-dunder definition in ``package``
    whose name no code of the package reads, outside ``__init__.py`` and
    outside the definition itself."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    modules = {path: _imported_modules(tree) for path, tree in trees.items()}
    reads = sum((_reads(tree, modules[path]) for path, tree in trees.items()), Counter())
    return [
        f"{path.stem}:{qualname}"
        for path, tree in trees.items()
        for qualname, node in _definitions(tree)
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and reads[node.name] == _reads(node, modules[path])[node.name]
    ]


def test_package_defines_nothing_only_tests_read():
    found = [name for name in unread_definitions(ROOT / "src" / "siqrng")
             if name.split(":")[1] not in TEST_ONLY_ALLOWED]
    assert not found, (
        "defined in src/siqrng but read by no package code (move to tests/helpers.py, "
        "or allow with a reason):\n" + "\n".join(found)
    )


def test_allowed_definitions_are_still_test_only():
    unread = {name.split(":")[1] for name in unread_definitions(ROOT / "src" / "siqrng")}
    assert set(TEST_ONLY_ALLOWED) <= unread, "allowed but now read: " + ", ".join(
        sorted(set(TEST_ONLY_ALLOWED) - unread))


def test_guard_flags_an_unread_definition(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import exported_only\n")
    (tmp_path / "mod.py").write_text(
        "def used():\n"
        "    return 1\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def exported_only():\n"
        "    return used() + len(C())\n"
        "class C:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def read(self):\n"
        "        return self.read_too()\n"
        "    def read_too(self):\n"
        "        return self.read()\n"
        "    def unread(self):\n"
        "        return 0\n"
        "class Unused:\n"
        "    pass\n"
    )
    assert unread_definitions(tmp_path) == [
        "mod:recursive", "mod:exported_only", "mod:C.unread", "mod:Unused",
    ]


def test_guard_does_not_count_a_module_attribute_of_the_same_name(tmp_path):
    # np.zeros reads numpy's zeros, not the package's; other.used reads the
    # package's own module, bound by a relative import
    (tmp_path / "__init__.py").write_text("")
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n"
        "from . import other\n"
        "def zeros(n):\n"
        "    return n\n"
        "RESULT = np.zeros(3), other.used()\n"
    )
    (tmp_path / "other.py").write_text(
        "def used():\n"
        "    return 1\n"
    )
    assert unread_definitions(tmp_path) == ["mod:zeros"]
