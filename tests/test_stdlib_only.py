"""The runtime package imports nothing outside the standard library, and
each module uses every name it imports."""

import ast
import sys
from pathlib import Path

import locksched

PACKAGE = Path(locksched.__file__).resolve().parent


def _scan(path):
    """One walk of a module: (line, top-level module, bound name) per imported
    name, where a relative import's module is None, and the set of names read."""
    imports, used = [], set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.partition(".")[0]
                imports.append((node.lineno, top, alias.asname or top))
        elif isinstance(node, ast.ImportFrom):
            module = None if node.level else node.module.partition(".")[0]
            imports.extend((node.lineno, module, alias.asname or alias.name) for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imports, used


SCANS = {path: _scan(path) for path in sorted(PACKAGE.glob("*.py"))}


def test_package_imports_only_the_standard_library():
    assert SCANS
    foreign = [
        f"{path.name}:{line}: {module}"
        for path, (imports, _) in SCANS.items()
        for line, module, _ in imports
        if module is not None and module not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_package_modules_use_every_import():
    """``__init__.py`` imports to re-export, so it is left out."""
    unused = [
        f"{path.name}:{line}: {name}"
        for path, (imports, used) in SCANS.items()
        if path.name != "__init__.py"
        for line, module, name in imports
        if module != "__future__" and name not in used
    ]
    assert unused == []
