"""The runtime package imports nothing outside the standard library, and
each package and test module uses every name it imports."""

import ast
import sys
from pathlib import Path

import locksched

PACKAGE = Path(locksched.__file__).resolve().parent


def _scan(path):
    """One walk of a module: (line, top-level module, bound name) per imported
    name, where a relative import's module is None; the set of names read;
    the names of the classes it defines; and (line, names read) per
    module-level assignment whose value is a subscript, such as a typing
    alias."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imports, used, classes = [], set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.partition(".")[0]
                imports.append((node.lineno, top, alias.asname or top))
        elif isinstance(node, ast.ImportFrom):
            module = None if node.level else node.module.partition(".")[0]
            imports.extend((node.lineno, module, alias.asname or alias.name) for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.ClassDef):
            classes.add(node.name)
    aliases = [
        (node.lineno, {name.id for name in ast.walk(node.value) if isinstance(name, ast.Name)})
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Subscript)
    ]
    return imports, used, classes, aliases


SCANS = {path: _scan(path) for path in sorted(PACKAGE.glob("*.py"))}


def test_package_imports_only_the_standard_library():
    assert SCANS
    foreign = [
        f"{path.name}:{line}: {module}"
        for path, (imports, *_) in SCANS.items()
        for line, module, _ in imports
        if module is not None and module not in sys.stdlib_module_names
    ]
    assert foreign == []


def _unused_imports(scans):
    return [
        f"{path.name}:{line}: {name}"
        for path, (imports, used, *_) in scans.items()
        for line, module, name in imports
        if module != "__future__" and name not in used
    ]


def test_package_modules_use_every_import():
    """``__init__.py`` imports to re-export, so it is left out."""
    assert _unused_imports({path: scan for path, scan in SCANS.items() if path.name != "__init__.py"}) == []


def test_test_modules_use_every_import():
    scans = {path: _scan(path) for path in sorted(Path(__file__).resolve().parent.glob("*.py"))}
    assert scans
    assert _unused_imports(scans) == []


def test_no_module_level_typing_alias_names_a_package_class():
    """A module-level subscript such as ``Dict[str, FitResult]`` runs at
    import, and typing's subscription cache keeps the class, and so its
    module, alive.  A process that imports the package afresh several
    times, as ``bench/run.py`` does, then keeps every copy resident: one
    such alias in ``experiment`` raised the benchmark's ``peak_rss_mb`` by
    7-9%.  Annotations are not affected: ``from __future__ import
    annotations`` leaves them unevaluated."""
    classes = set().union(*(scan[2] for scan in SCANS.values()))
    aliases = [
        f"{path.name}:{line}: {', '.join(sorted(names & classes))}"
        for path, (*_, found) in SCANS.items()
        for line, names in found
        if names & classes
    ]
    assert aliases == []
