"""README's library quick start runs as written on the demo panel it describes."""

import re
from pathlib import Path

from phasesync.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def library_quick_start() -> str:
    """The fenced python block under the "Quick start (library)" heading."""
    section = README.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    match = re.search(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.DOTALL)
    assert match is not None, "no python block in README's library quick start"
    return match.group(1)


def test_library_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--regime", "coupled:120,uncoupled:120,coupled:120",
                 "--members", "10", "--seed", "7", "--out", "demo"]) == 0
    exec(compile(library_quick_start(), str(README), "exec"), {})
