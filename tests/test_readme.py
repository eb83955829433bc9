"""The README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    [example] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(example, "README.md", "exec"), {})
    assert "2 results: all PASS" in capsys.readouterr().out
