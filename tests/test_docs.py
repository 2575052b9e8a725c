"""The README's library example runs, and every exported name exists."""

import re
from pathlib import Path

import locksched

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_exported_names_exist():
    assert [name for name in locksched.__all__ if not hasattr(locksched, name)] == []
