"""The README's library example runs as written, and its module map
names every module."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src" / "siflab"


def test_readme_library_example_runs(capsys):
    [example] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(example, "README.md", "exec"), {})
    assert "2 results: all PASS" in capsys.readouterr().out


def test_module_map_rows_are_the_modules():
    section = README.read_text().split("Module map", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", section, re.M)
    assert len(rows) == len(set(rows))
    assert set(rows) == {p.stem for p in SRC.glob("*.py")} - {"__init__"}
