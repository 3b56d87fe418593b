"""What the command line says about broken files, frozen as digests.

``cli_errors.sha256`` holds one line per ``main`` call: the sha256 of its
exit code, stdout and stderr, then the call's argv, which names the mutant.
Each mutant is a corpus file with one to three seeded token edits: a token
deleted, repeated, swapped with another or replaced from a pool of
directives, numbers, signs, line breaks, byte-order marks and bytes that
are not UTF-8, or the file cut short, or its line ends turned into CRLF or
CR.  Every mutant goes through ``decat``, ``jones`` and ``pair``, the last
against a corpus file of the other side.  The calls run in a directory that
holds the mutant as ``mNNN.tangle`` and a copy of that corpus file, named
by relative paths, so every message reads the same wherever the suite runs.

Most mutants fail to parse or to validate, so this pins the loader's and
the parser's wording and exit codes; the rest pin ordinary output.  A
change that alters a message on purpose regenerates the file with

    PYTHONPATH=src python -m tests.test_loader_errors > tests/cli_errors.sha256
"""

from __future__ import annotations

import os
import random
import re
import tempfile
from pathlib import Path

from .helpers import corpus_names, corpus_path, corpus_tangle
from .test_outputs import digest

DIGESTS = Path(__file__).resolve().parent / "cli_errors.sha256"
SEED = 2503
MUTANTS = 500

# Replacement tokens beyond the corpus's own: wrong numbers and signs, text
# that is not ASCII (an Arabic-Indic three passes isdecimal), line breaks
# that splitlines honours, byte-order marks and invalid UTF-8.
_POOL = [
    b"0", b"-1", b"+", b"-", b"x", b"#", b"1.5", b"+2", b"007",
    b"99999999999999999999", b"1001",
    "\u0663".encode(), "\u00ef".encode(), "\u2028".encode(), "\x85".encode(),
    b"\r", b"\n", b"\r\n", b"\x0b", b"\x0c", b"\xef\xbb\xbf", b"\xef\xbb",
    b"\xff", b"\xc3\x28", b"\xe2\x82", b"\x00",
]


def _partner(name: str) -> str:
    """A corpus file of the other side with the same endpoints, if any."""
    t = corpus_tangle(name)
    others = [m for m in corpus_names() if corpus_tangle(m).side != t.side]
    same = [m for m in others if corpus_tangle(m).endpoints == t.endpoints]
    return (same or others)[0]


def _mutate(data: bytes, rng: random.Random, pool: list[bytes]) -> bytes:
    # Only tokens before any '#' on their line are edited; a file of
    # comments alone is cut short.
    spans = []
    for line in re.finditer(rb"[^\r\n]+", data):
        code = line.group().split(b"#", 1)[0]
        spans += [(line.start() + m.start(), line.start() + m.end()) for m in re.finditer(rb"\S+", code)]
    kind = rng.randrange(14)
    if kind == 0 or not spans:
        return data[: rng.randrange(len(data) + 1)]
    if kind == 1:
        return data.replace(b"\n", b"\r\n")
    if kind == 2:
        return data.replace(b"\n", b"\r")
    if kind == 3:
        return b"\xef\xbb\xbf" + data
    # the edits below parse more often, and then mostly fail to validate
    numbers = [(a, b) for a, b in spans if data[a:b].isdigit()]
    if kind >= 9 and numbers:
        spans = numbers
    a, b = rng.choice(spans)
    if kind in (4, 9, 10):
        return data[:a] + str(1 + rng.randrange(29)).encode() + data[b:]
    if kind in (5, 11, 12):
        (a, b), (c, d) = sorted([(a, b), rng.choice(spans)])
        if b > c:
            return data
        return data[:a] + data[c:d] + data[b:c] + data[a:b] + data[d:]
    if kind == 6:
        return data[:a] + data[b:]
    if kind == 7:
        return data[:b] + b" " + data[a:b] + data[b:]
    return data[:a] + rng.choice(pool if kind == 8 else _POOL) + data[b:]


def mutants() -> list[tuple[str, bytes]]:
    """(corpus name, mutated bytes) for each seeded mutant, in order."""
    rng = random.Random(SEED)
    names = corpus_names()
    pool = _POOL + sorted({tok for name in names for tok in corpus_path(name).read_bytes().split()})
    out = []
    for _ in range(MUTANTS):
        name = rng.choice(names)
        data = corpus_path(name).read_bytes()
        for _ in range(1 + rng.randrange(3)):
            data = _mutate(data, rng, pool)
        out.append((name, data))
    return out


def current_lines() -> list[str]:
    lines = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for i, (name, data) in enumerate(mutants()):
                mutant = f"m{i:03d}.tangle"
                Path(mutant).write_bytes(data)
                partner = f"{_partner(name)}.tangle"
                Path(partner).write_bytes(corpus_path(partner[: -len(".tangle")]).read_bytes())
                ends = [mutant, partner] if corpus_tangle(name).side == "inside" else [partner, mutant]
                for argv in (["decat", mutant], ["jones", mutant], ["pair", *ends]):
                    lines.append(f"{digest(argv)}  {' '.join(argv)}")
                os.remove(mutant)
                os.remove(partner)
        finally:
            os.chdir(here)
    return lines


def test_every_mutant_reads_as_its_digest():
    frozen = DIGESTS.read_text().splitlines()
    now = current_lines()
    assert [line.split("  ", 1)[1] for line in now] == [
        line.split("  ", 1)[1] for line in frozen
    ], "the call list changed; regenerate the digests"
    changed = [b.split("  ", 1)[1] for a, b in zip(frozen, now) if a != b]
    assert not changed, f"{len(changed)} calls changed output: {changed[:10]}"


if __name__ == "__main__":
    print("\n".join(current_lines()))
