"""The README's command-line transcripts, replayed byte for byte."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from tanglejones.cli import main

ROOT = Path(__file__).resolve().parent.parent


def transcripts() -> list[tuple[str, str]]:
    """(command, expected stdout) for each "$ tanglejones ..." line.

    A command's output runs to the next blank line, command or fence.
    """
    found = []
    for block in re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S):
        command = None
        for line in block.splitlines() + [""]:
            if line.startswith("$ "):
                command, output = line[2:], []
            elif command is not None and line:
                output.append(line + "\n")
            elif command is not None:
                found.append((command, "".join(output)))
                command = None
    return found


def test_readme_has_transcripts():
    assert len(transcripts()) >= 5


@pytest.mark.parametrize("command, expected", transcripts(), ids=[c for c, _ in transcripts()])
def test_readme_transcript(monkeypatch, capsys, command, expected):
    argv = shlex.split(command)
    assert argv[0] == "tanglejones"
    monkeypatch.chdir(ROOT)
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out == expected


def test_a_byte_order_mark_is_skipped(tmp_path, capsys):
    # Some editors start a UTF-8 file with a byte-order mark.
    expected = dict(transcripts())["tanglejones jones corpus/trefoil.tangle"]
    marked = tmp_path / "trefoil.tangle"
    marked.write_bytes(b"\xef\xbb\xbf" + (ROOT / "corpus" / "trefoil.tangle").read_bytes())
    assert main(["jones", str(marked)]) == 0
    assert capsys.readouterr().out == expected
