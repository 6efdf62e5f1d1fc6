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

Every parameter with a default must be passed by some package call.  A
default only the tests override is a test seam: the production path runs
one value, and the others are code only the tests keep correct.  The same
scan matches calls to definitions by name.
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


# defaulted parameters only the tests pass, each with its reason
TEST_ONLY_PARAMETERS = {
    "cli:main(argv)": "the console script passes none; the tests pass the argument list",
}


def _defaulted(node, is_method: bool) -> list[tuple[int | None, str]]:
    """``(position, name)`` of each parameter of the function ``node`` that
    has a default; a keyword-only one has no position.  A method's
    positions count from the argument after ``self``."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    first_default = len(positional) - len(args.defaults)
    found = [(i, name) for i, name in enumerate(positional) if i >= first_default]
    if is_method:
        found = [(i - 1, name) for i, name in found]
    return found + [(None, a.arg) for a, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None]


def _passes(call, position: int | None, name: str) -> bool:
    """Whether ``call`` passes the parameter: by keyword, by position, or
    possibly through ``*`` or ``**``."""
    return any(k.arg in (None, name) for k in call.keywords) or any(
        isinstance(a, ast.Starred) for a in call.args) or (
        position is not None and len(call.args) > position)


def unpassed_defaults(package: Path) -> list[str]:
    """``module:qualified.name(parameter)`` of each defaulted parameter of a
    function or method in ``package`` (outside ``__init__.py``) that no
    call of the package passes, outside the definition itself.  A call
    matches by name; a call of an attribute of a plainly imported module
    (``np.zeros``) calls that module, not the package."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(package.glob("*.py"))}
    calls = {}
    for tree in trees.values():
        modules = _imported_modules(tree)
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if isinstance(func, ast.Name):
                calls.setdefault(func.id, []).append(node)
            elif isinstance(func, ast.Attribute) and not (
                    isinstance(func.value, ast.Name) and func.value.id in modules):
                calls.setdefault(func.attr, []).append(node)
    found = []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        for qualname, node in _definitions(tree):
            if isinstance(node, ast.ClassDef):
                continue
            is_method = "." in qualname and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
            own = {id(inner) for inner in ast.walk(node)}
            outside = [call for call in calls.get(node.name, []) if id(call) not in own]
            found += [f"{path.stem}:{qualname}({name})"
                      for position, name in _defaulted(node, is_method)
                      if not any(_passes(call, position, name) for call in outside)]
    return found


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


def test_package_passes_every_defaulted_parameter():
    found = set(unpassed_defaults(ROOT / "src" / "siqrng"))
    allowed = set(TEST_ONLY_PARAMETERS)
    assert found <= allowed, (
        "defaulted parameters no package call passes (make them constants, or allow "
        "with a reason):\n" + "\n".join(sorted(found - allowed)))
    assert allowed <= found, "allowed but now passed: " + ", ".join(sorted(allowed - found))


def test_guard_flags_a_parameter_no_call_passes(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import f\n")
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n"
        "def f(a, by_position=1, by_keyword=2, unpassed=3, *, keyword_only=4):\n"
        "    return f(a, unpassed=unpassed, keyword_only=keyword_only)\n"
        "def star(a=1):\n"
        "    return a\n"
        "def double_star(a=1):\n"
        "    return a\n"
        "def zeros(n=0):\n"
        "    return n\n"
        "class C:\n"
        "    def method(self, x=1, y=2):\n"
        "        return x + y\n"
        "    @staticmethod\n"
        "    def static(x=1, y=2):\n"
        "        return x + y\n"
        "RESULT = (f(0, 1, by_keyword=5), star(*[1]), double_star(**{}), C().method(1),\n"
        "          C.static(1), np.zeros(3))\n"
    )
    assert unpassed_defaults(tmp_path) == [
        "mod:f(unpassed)", "mod:f(keyword_only)", "mod:zeros(n)", "mod:C.method(y)",
        "mod:C.static(y)",
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
