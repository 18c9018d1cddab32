"""The README's examples run as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from zslen import atoms
from zslen.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, fence: str) -> str:
    """The first fenced block with the given opening fence after a heading."""
    section = README[README.index(f"\n## {heading}\n"):]
    return re.search(rf"^{re.escape(fence)}\n(.*?)^```$", section, re.S | re.M).group(1)


COMMANDS = [
    shlex.split(line)[1:]
    for line in _block("Command line", "```").splitlines()
    if line.startswith("zslen ")
]


def test_readme_lists_the_commands():
    assert len(COMMANDS) == 12


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a[:3]) for a in COMMANDS])
def test_readme_command_exits_zero(capsys, monkeypatch, argv):
    # fresh atom sets, so the examples leave no warm memo for other tests
    monkeypatch.setattr(atoms, "_ATOMSET_CACHE", {})
    assert main(argv) == 0
    assert capsys.readouterr().out


def test_readme_library_snippet_prints_what_its_comments_state(monkeypatch):
    monkeypatch.setattr(atoms, "_ATOMSET_CACHE", {})
    snippet = _block("Library", "```python")
    expected = [line.rsplit("#", 1)[1].strip() for line in snippet.splitlines() if "print(" in line]
    assert expected == ["{2,4,5}", "NOT-CLOSED"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(snippet, {})
    assert out.getvalue().splitlines() == expected
