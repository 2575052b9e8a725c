"""The runtime package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import locksched

PACKAGE = Path(locksched.__file__).resolve().parent


def _imports(path):
    """(line, top-level module) per import; relative imports give None."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, None if node.level else node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = [
        f"{path.name}:{line}: {module}"
        for path in sources
        for line, module in _imports(path)
        if module is not None and module not in sys.stdlib_module_names
    ]
    assert foreign == []
