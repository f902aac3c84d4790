"""The package stays pure Python with no runtime dependencies: pyproject
declares none, and every absolute import in ``src/peacock_sim`` names a
standard-library module.  Every name a module of the package or of the
tests imports is used there.  The sources are read with ``ast``, not
imported, so a third-party import fails here even where it is
installed."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "peacock_sim"
TESTS = ROOT / "tests"


def test_pyproject_declares_no_runtime_dependencies():
    section = None
    declared = []
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project]" and line.startswith("dependencies"):
            declared.append(line)
    assert declared == ["dependencies = []"]


def absolute_imports(path):
    """Top-level module names of the absolute imports in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    outside = {(path.name, name) for path in sources
               for name in absolute_imports(path)
               if name not in sys.stdlib_module_names}
    assert outside == set()


def imported_names(tree):
    """The names that the imports in ``tree`` bind."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]


def used_names(tree):
    """Every name ``tree`` reads or binds (the base of an attribute, as in
    ``math.log``, is a name too), and the strings of its ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(paths):
    """``(file name, name)`` for each imported name a file never uses."""
    unused = set()
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        used = used_names(tree)
        unused |= {(path.name, name) for name in imported_names(tree)
                   if name not in used}
    return unused


def test_package_uses_every_name_it_imports():
    assert unused_imports(sorted(PACKAGE.rglob("*.py"))) == set()


def test_tests_use_every_name_they_import():
    sources = sorted(TESTS.glob("*.py"))
    assert sources
    assert unused_imports(sources) == set()
