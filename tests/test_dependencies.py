"""The package stays pure Python with no runtime dependencies: pyproject
declares none, and every absolute import in ``src/peacock_sim`` names a
standard-library module.  The sources are read with ``ast``, not
imported, so a third-party import fails here even where it is installed."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "peacock_sim"


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
