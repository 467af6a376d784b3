"""Source hygiene checks on the ihcalc package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ihcalc"


def unused_imports(source):
    """Names a module imports (other than __future__ features) and never
    reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_import_is_detected():
    source = "from math import gcd, lcm\nimport os.path\n\nprint(lcm(2, 3))\n"
    assert unused_imports(source) == ["gcd", "os"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources):
    """Module-level `_`-prefixed functions, classes and constants that no
    module in `sources` (a list of source texts) reads."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    private = {n for n in defined if n.startswith("_") and not n.startswith("__")}
    return sorted(private - read)


def test_unread_private_name_is_detected():
    a = "_LIMIT = 3\n\ndef _used():\n    return 1\n\ndef _dead():\n    return _used()\n"
    b = "from a import _LIMIT\n"
    assert unread_private_names([a, b]) == ["_dead"]


def test_no_unread_private_names():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(sources) == []


def cached_functions(source):
    """Functions in `source` decorated with functools' `lru_cache` or
    `cache`, bare, called, or through the module (`functools.cache`)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in ("lru_cache", "cache"):
                    out.append(node.name)
    return out


def test_cached_function_is_detected():
    source = (
        "import functools\nfrom functools import lru_cache\n\n"
        "@lru_cache(maxsize=None)\ndef build(name):\n    return name\n\n"
        "@functools.cache\ndef table(name):\n    return name\n\n"
        "@staticmethod\ndef plain():\n    return 0\n"
    )
    assert cached_functions(source) == ["build", "table"]


def test_catalog_build_is_the_only_cache():
    # a cold CLI call must pay for its space: nothing else may keep a
    # build alive between calls of cli.main
    found = [(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
             for name in cached_functions(path.read_text())]
    assert found == [("catalog.py", "catalog_build")]


def defined_names(source):
    """Every function and class that `source` defines, methods included."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def test_defined_name_is_detected():
    source = "class A:\n    def col_dicts(self):\n        return 0\n\ndef f():\n    pass\n"
    assert defined_names(source) == {"A", "col_dicts", "f"}


def test_lattice_reference_stays_out_of_the_package():
    # the tests hold the package against this reference; a copy of it in
    # the package would make them compare the code with itself
    reference = defined_names((Path(__file__).parent / "lattice_reference.py").read_text())
    assert reference
    for path in sorted(PACKAGE.glob("*.py")):
        assert not reference & defined_names(path.read_text()), path.name


def references_to(source, names):
    """(enclosing function, name) for each read of a name in `names` in
    `source`, as a call or as a value; None outside any function."""
    found = set()

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                name = child.id
            else:
                name = child.attr if isinstance(child, ast.Attribute) else None
            if name in names:
                found.add((fn, name))
            visit(child, fn)

    visit(ast.parse(source), None)
    return sorted(found, key=lambda x: (str(x[0]), x[1]))


ELIMINATION = {"_column_pass", "_smith"}


def test_reference_to_the_elimination_is_detected():
    source = (
        "def kernel_image(A):\n    return _smith(_column_pass(A))\n\n"
        "def rank(A):\n    step = _column_pass\n    return len(step(A)) + ea._smith(A)\n\n"
        "PASSES = [_smith]\n"
    )
    assert references_to(source, ELIMINATION) == [
        (None, "_smith"), ("kernel_image", "_column_pass"), ("kernel_image", "_smith"),
        ("rank", "_column_pass"), ("rank", "_smith"),
    ]


def test_kernel_image_is_the_only_entry_into_the_elimination():
    # `rank` and `smith_normal_form` go through `kernel_image`, so they
    # cannot drift from the tables
    found = {(path.name, fn) for path in sorted(PACKAGE.glob("*.py"))
             for fn, _ in references_to(path.read_text(), ELIMINATION)}
    assert found == {("exactalg.py", "kernel_image")}


def names_in(source):
    """Every name `source` reads, binds or imports, attribute names and
    import aliases included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(filter(None, (node.name, node.asname)))
    return found


def test_named_class_is_detected():
    # imported under another name, read through a module, or called;
    # a string or comment that mentions it does not count
    assert "ExactMatrix" in names_in("from .exactalg import ExactMatrix as M\n")
    assert "ExactMatrix" in names_in("def f(ea):\n    return ea.ExactMatrix(1, 1)\n")
    assert "ExactMatrix" in names_in("D = ExactMatrix(2, 3)\n")
    assert "ExactMatrix" not in names_in("# ExactMatrix\ndoc = 'ExactMatrix'\n")


def test_table_path_builds_no_exact_matrix():
    # `ihcore` streams the columns of each boundary straight to
    # `kernel_image`; an ExactMatrix on the table path would be built and
    # then taken apart again
    assert "ExactMatrix" not in names_in((PACKAGE / "ihcore.py").read_text())
