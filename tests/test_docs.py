"""The README's library example runs, its commands parse, it names the
subcommands that take ``--out``, every name its module table gives in
parentheses exists, every exported name exists and every name the package
imports is exported."""

import argparse
import ast
import importlib
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
