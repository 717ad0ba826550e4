"""README's quick starts run as written, and its Layout names every module."""

import re
import shlex
from pathlib import Path

from phasesync.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def fenced_block(heading: str, language: str) -> str:
    """The first fenced block of a language under a README heading."""
    section = README.read_text(encoding="utf-8").split(f"## {heading}\n", 1)[1]
    match = re.search(rf"```{language}\n(.*?)```", section.split("\n## ", 1)[0], re.DOTALL)
    assert match is not None, f"no {language} block under README's {heading!r}"
    return match.group(1)


def test_cli_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data").symlink_to(ROOT / "data")
    text = fenced_block("Quick start (CLI)", "sh").replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in text.splitlines()]
    commands = [argv for argv in commands if argv]
    assert len(commands) == 6
    for argv in commands:
        assert argv[0] == "phasesync"
        assert main(argv[1:]) == 0, shlex.join(argv)


def test_library_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data").symlink_to(ROOT / "data")
    assert main(["gen", "--regime", "coupled:120,uncoupled:120,coupled:120",
                 "--members", "10", "--seed", "7", "--out", "demo"]) == 0
    exec(compile(fenced_block("Quick start (library)", "python"), str(README), "exec"), {})


def test_layout_names_every_module():
    layout = fenced_block("Layout", "")
    named = re.findall(r"^  (\w+)\.py ", layout, re.MULTILINE)
    modules = {path.stem for path in (ROOT / "src" / "phasesync").glob("*.py")}
    assert sorted(named) == sorted(modules - {"__init__", "__main__"})
