"""Every command-line output on the corpus, frozen as digests.

``cli_outputs.sha256`` holds one line per ``main`` call: the sha256 of its
exit code, stdout and stderr, then its argv with paths relative to the
corpus directory, where the calls run.  The calls are every corpus file
under decat, jones, bracket and mutate-check, every inside x outside pair
under pair, and ``basis 0..5``, each as text and as ``--json``.

A change that alters output on purpose regenerates the file with

    PYTHONPATH=src python -m tests.test_outputs > tests/cli_outputs.sha256
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from tanglejones.cli import main

from .helpers import CORPUS, corpus_names, corpus_tangle

DIGESTS = Path(__file__).resolve().parent / "cli_outputs.sha256"


def calls() -> list[list[str]]:
    files = [f"{name}.tangle" for name in corpus_names()]
    sides = {f: corpus_tangle(f[: -len(".tangle")]).side for f in files}
    plain = [[verb, f] for verb in ("decat", "jones", "bracket", "mutate-check") for f in files]
    plain += [
        ["pair", a, b]
        for a in files
        if sides[a] == "inside"
        for b in files
        if sides[b] == "outside"
    ]
    plain += [["basis", str(n)] for n in range(6)]
    return [argv for call in plain for argv in (call, [call[0], "--json", *call[1:]])]


def digest(argv: list[str]) -> str:
    """sha256 of one call's exit code, stdout and stderr; run in the corpus."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def current_lines() -> list[str]:
    here = os.getcwd()
    os.chdir(CORPUS)
    try:
        return [f"{digest(argv)}  {' '.join(argv)}" for argv in calls()]
    finally:
        os.chdir(here)


def test_every_cli_output_matches_its_digest():
    frozen = dict(line.split("  ", 1)[::-1] for line in DIGESTS.read_text().splitlines())
    now = dict(line.split("  ", 1)[::-1] for line in current_lines())
    assert sorted(now) == sorted(frozen), "the call list changed; regenerate the digests"
    changed = [argv for argv, sha in now.items() if frozen[argv] != sha]
    assert not changed, f"{len(changed)} calls changed output: {changed}"


if __name__ == "__main__":
    print("\n".join(current_lines()))
