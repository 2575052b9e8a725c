"""The README's library example runs, its commands parse, it names the
subcommands that take ``--out``, every name its module table gives in
parentheses exists, each module-table row is a short index entry that names
only public attributes of its module, builtins or subcommands, and its
Command line section names only real flags.  Every exported name exists,
every name the package imports is exported, and every exported class and
function has a docstring of its own in its source."""

import argparse
import ast
import builtins
import importlib
import inspect
import re
import shlex
from pathlib import Path

import pytest

import locksched
from locksched.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def _readme_commands():
    """Every ``locksched ...`` command of the README's sh blocks, backslash
    continuations joined."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("locksched "):
                commands.append(line)
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert commands
    for command in commands:
        try:
            build_parser().parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


def test_readme_module_table_names_exist():
    """A parenthesis of the module table that opens with backticked names,
    such as (`solve`) or (`solve_matching`, `best_fit`), names attributes
    of its row's module or CLI subcommands, so a removed helper cannot stay
    in the table."""
    rows = re.findall(r"^\| `locksched\.(\w+)` \|(.*)\|$", README.read_text(encoding="utf-8"), re.MULTILINE)
    assert rows
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    missing = []
    for module_name, text in rows:
        module = importlib.import_module(f"locksched.{module_name}")
        for names in re.findall(r"\(((?:`[A-Za-z_]\w*`(?:, )?)+)", text):
            missing += [f"{module_name}: {name}" for name in re.findall(r"`(\w+)`", names)
                        if not hasattr(module, name) and name not in subcommands]
    assert missing == []


def test_readme_module_table_rows_are_an_index():
    """Each module-table row has at most 60 words, and each backticked name in
    it, such as ``simulate`` or ``ArrivalDataset.minutes_for``, is public and an
    attribute of the row's module, a builtin or a CLI subcommand, so the
    table cannot grow back into a copy of the docstrings."""
    rows = re.findall(r"^\| `locksched\.(\w+)` \|(.*)\|$", README.read_text(encoding="utf-8"), re.MULTILINE)
    assert rows
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    problems = []
    for module_name, text in rows:
        module = importlib.import_module(f"locksched.{module_name}")
        words = len(text.split())
        if words > 60:
            problems.append(f"{module_name}: {words} words")
        for name in re.findall(r"`([A-Za-z_][\w.]*)`", text):
            parts = name.split(".")
            if any(part.startswith("_") for part in parts):
                problems.append(f"{module_name}: private {name}")
                continue
            target = module
            for part in parts:
                target = getattr(target, part, None)
            if target is None and not hasattr(builtins, name) and name not in subcommands:
                problems.append(f"{module_name}: unknown {name}")
    assert problems == []


def test_readme_command_line_section_names_only_real_flags():
    """Every ``--flag`` of the Command line section is an option of the
    top-level parser or of one of its subcommands."""
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Command line\n(.*?)(?=^## )", text, re.MULTILINE | re.DOTALL).group(1)
    flags = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    known = set(parser._option_string_actions)
    for subparser in subparsers.choices.values():
        known |= set(subparser._option_string_actions)
    assert flags
    assert sorted(flags - known) == []


def test_readme_names_the_subcommands_that_accept_out():
    (sentence,) = re.findall(r"The subcommands (.*?) accept\s+`--out -`", README.read_text(encoding="utf-8"))
    named = set(re.findall(r"`(\w+)`", sentence))
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    with_out = {name for name, p in subparsers.choices.items() if "--out" in p._option_string_actions}
    assert named == with_out


def test_exported_names_exist():
    assert [name for name in locksched.__all__ if not hasattr(locksched, name)] == []


def test_imported_names_are_exported():
    tree = ast.parse(Path(locksched.__file__).read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    assert [name for name in imported if name not in locksched.__all__] == []


def test_exported_functions_and_classes_have_docstrings():
    """Read from the AST of each definition, not from ``__doc__``, which Enum,
    dataclass and NamedTuple fill in on their own on some Python versions."""
    missing = []
    for name in locksched.__all__:
        obj = getattr(locksched, name)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        tree = ast.parse(Path(inspect.getsourcefile(obj)).read_text(encoding="utf-8"))
        (node,) = [n for n in tree.body if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name]
        if not ast.get_docstring(node):
            missing.append(name)
    assert missing == []
