"""The runtime package imports nothing outside the standard library; the
test modules import nothing else but pytest, hypothesis, the package and
each other; and each package and test module uses every name it imports."""

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
TEST_SCANS = {path: _scan(path) for path in sorted(Path(__file__).resolve().parent.glob("*.py"))}


def _foreign_imports(scans, allowed=frozenset()):
    return [
        f"{path.name}:{line}: {module}"
        for path, (imports, *_) in scans.items()
        for line, module, _ in imports
        if module is not None and module not in sys.stdlib_module_names and module not in allowed
    ]


def test_package_imports_only_the_standard_library():
    assert SCANS
    assert _foreign_imports(SCANS) == []


def test_test_modules_import_only_the_standard_library_test_tools_and_the_package():
    """The suite needs nothing but pytest and hypothesis installed.  The walk
    sees imports inside functions too, so an oracle cannot reach for a
    solver package on the side."""
    siblings = {path.stem for path in TEST_SCANS}
    assert _foreign_imports(TEST_SCANS, {"pytest", "hypothesis", "locksched", *siblings}) == []


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
    assert TEST_SCANS
    assert _unused_imports(TEST_SCANS) == []


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


# The functions that may compare ``type(...)`` with ``int`` themselves:
# ``_check_int``, the one int rule, and the checks whose wording tests pin
# (``must be an integer``, ``must be ints``, ``pair of integers`` and the
# JSON readers' ``got true``).  Every other int check calls ``_check_int``.
OWN_INT_CHECKS = {
    "arrivals.py": {"MatchingInstance.__post_init__"},
    "experiment.py": {"ExperimentConfig.__post_init__", "_check_stream_pairs"},
    "schedule.py": {"_check_int", "schedule_from_json", "instance_from_json"},
}


def _type_int_comparisons(path):
    """(line, enclosing qualified name) per comparison of a ``type(...)``
    call with ``int`` in the module at ``path``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Compare):
                operands = [child.left, *child.comparators]
                if any(isinstance(o, ast.Name) and o.id == "int" for o in operands) and any(
                    isinstance(o, ast.Call) and isinstance(o.func, ast.Name) and o.func.id == "type" for o in operands
                ):
                    found.append((child.lineno, scope))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), "")
    return found


def test_int_checks_go_through_check_int():
    """No function outside ``OWN_INT_CHECKS`` writes the int rule out by
    hand, and each function listed there still does."""
    found = {path.name: _type_int_comparisons(path) for path in sorted(PACKAGE.glob("*.py"))}
    copies = [
        f"{name}:{line}: {scope}"
        for name, sites in found.items()
        for line, scope in sites
        if scope not in OWN_INT_CHECKS.get(name, ())
    ]
    assert copies == []
    assert {name: {scope for _, scope in sites} for name, sites in found.items() if sites} == OWN_INT_CHECKS
