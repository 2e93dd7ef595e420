"""README's command lines run as written and print what it says they print."""

import shlex
from pathlib import Path

from ncburgers.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _command_lines():
    """(argv, documented stdout or None) for each ``ncburgers`` line of the
    "Command line" block; a ``# ...`` line right after a command is its
    documented output."""
    block = README.read_text().split("## Command line\n", 1)[1]
    lines = block.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    return [
        (shlex.split(line)[1:], nxt[2:] if nxt.startswith("# ") else None)
        for line, nxt in zip(lines, lines[1:] + [""])
        if line.startswith("ncburgers ")
    ]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # ``scene --out scene.txt`` writes here, and ``eval`` reads it
    commands = _command_lines()
    assert len(commands) == 9
    assert sum(documented is not None for _, documented in commands) == 2
    for argv, documented in commands:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if documented is not None:
            assert out == documented + "\n", argv
