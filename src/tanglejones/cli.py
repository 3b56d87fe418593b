"""Command-line surface: tangle files in, canonical text or JSON out.

Verbs:

    decat FILE            invariant vector of a tangle
    pair INSIDE OUTSIDE   unnormalized Jones polynomial of the glued link
    jones FILE            Jones polynomial of a closed diagram
    bracket FILE          unnormalized bracket of a closed diagram
    basis N               all decorated cleaved links on 2N points
    mutate-check FILE     mutation-invariance report for a 4-endpoint tangle

Exit codes: 0 on success (and for --help), 1 on a semantic or validation
error, 2 on a usage error or on a parse error (reported with its line
number); ``main`` returns the code and never raises SystemExit.  Results go
to standard out, diagnostics to standard error.  A parsed file becomes a
``TangleDiagram``, which validates itself on construction, so each file is
checked once and a violation is reported as the file's path followed by
every message of ``validate``.

Tangle file format, line oriented; '#' starts a comment, blank lines are
ignored; the first three directives are mandatory and in this order:

    tangle <ident>
    side inside|outside
    endpoints <2n>
    cross <+|-> <a> <b> <c> <d>    # slots counterclockwise from the
    loop <count>                   # incoming under-strand; optional
    boundary <point> <edge>        # one line per point 1..2n
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from .cleaved import basis_count, basis_keys
from .decat import bracket, decat_vector, jones, pair
from .diagram import Crossing, DiagramError, TangleDiagram
from .halfpoly import HalfLaurent
from .mutation import mutation_check

__all__ = ["ParseError", "parse_tangle", "load_tangle", "main"]

_MANDATORY = ("tangle", "side", "endpoints")


class ParseError(Exception):
    """A tangle file failed to parse; carries the offending line number."""

    def __init__(self, line: int, message: str, source: str = "<string>"):
        super().__init__(f"{source}: line {line}: {message}")
        self.line = line


def _positive_int(token: str, what: str, lineno: int, source: str) -> int:
    if not token.isdecimal() or int(token) < 1:
        raise ParseError(lineno, f"{what} must be a positive integer, got {token!r}", source)
    return int(token)


def parse_tangle(text: str, source: str = "<string>") -> TangleDiagram:
    """Build a diagram from its text form.

    Raises :class:`ParseError` for a line that does not parse, and
    :class:`DiagramError` from the diagram's construction when the parsed
    code breaks an invariant.
    """
    name: str | None = None
    side: str | None = None
    endpoints: int | None = None
    crossings: list[Crossing] = []
    loops: int | None = None
    boundary: dict[int, int] = {}
    progress = 0
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive, args = tokens[0], tokens[1:]
        if progress < len(_MANDATORY):
            expected = _MANDATORY[progress]
            if directive != expected:
                raise ParseError(lineno, f"expected '{expected}' directive, got '{directive}'", source)
        elif directive in _MANDATORY:
            raise ParseError(lineno, f"duplicate '{directive}' directive", source)
        if directive == "tangle":
            if len(args) != 1:
                raise ParseError(lineno, "'tangle' takes exactly one identifier", source)
            name = args[0]
            progress = 1
        elif directive == "side":
            if len(args) != 1 or args[0] not in ("inside", "outside"):
                raise ParseError(lineno, "'side' must be 'inside' or 'outside'", source)
            side = args[0]
            progress = 2
        elif directive == "endpoints":
            if len(args) != 1 or not args[0].isdecimal():
                raise ParseError(lineno, "'endpoints' takes one nonnegative integer", source)
            endpoints = int(args[0])
            progress = 3
        elif directive == "cross":
            if len(args) != 5:
                raise ParseError(lineno, "'cross' takes a sign and four edge labels", source)
            if args[0] not in ("+", "-"):
                raise ParseError(lineno, f"crossing sign must be '+' or '-', got {args[0]!r}", source)
            slots = tuple(_positive_int(tok, "edge label", lineno, source) for tok in args[1:])
            crossings.append(Crossing(1 if args[0] == "+" else -1, slots))
        elif directive == "loop":
            if loops is not None:
                raise ParseError(lineno, "duplicate 'loop' directive", source)
            if len(args) != 1 or not args[0].isdecimal():
                raise ParseError(lineno, "'loop' takes one nonnegative integer", source)
            loops = int(args[0])
        elif directive == "boundary":
            if len(args) != 2:
                raise ParseError(lineno, "'boundary' takes a point and an edge label", source)
            point = _positive_int(args[0], "boundary point", lineno, source)
            edge = _positive_int(args[1], "edge label", lineno, source)
            if point in boundary:
                raise ParseError(lineno, f"duplicate boundary line for point {point}", source)
            boundary[point] = edge
        else:
            raise ParseError(lineno, f"unknown directive '{directive}'", source)
    if progress < len(_MANDATORY):
        raise ParseError(lineno + 1, f"missing '{_MANDATORY[progress]}' directive", source)
    assert name is not None and side is not None and endpoints is not None
    return TangleDiagram(name, side, endpoints, tuple(crossings), loops or 0, boundary)


def load_tangle(path: str | Path) -> TangleDiagram:
    """Parse one UTF-8 tangle file into a diagram, which validates itself.

    A byte-order mark is skipped.  A :class:`DiagramError` is raised again
    with the path in front, and so is an undecodable file, as a ValueError.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: {err}") from err
    try:
        return parse_tangle(text, source=str(path))
    except DiagramError as err:
        raise DiagramError(f"{path}: {err}") from err


def _poly_out(poly: HalfLaurent, as_json: bool) -> str:
    if as_json:
        return json.dumps({"terms": [list(term) for term in poly.sorted_terms()]})
    return poly.render()


def _cmd_decat(args: argparse.Namespace) -> int:
    v = decat_vector(load_tangle(args.file))
    if args.json:
        print(json.dumps(v.to_json()))
    else:
        text = v.render_text()
        if text:
            print(text)
    return 0


def _cmd_pair(args: argparse.Namespace) -> int:
    inside = load_tangle(args.inside)
    outside = load_tangle(args.outside)
    if inside.side != "inside":
        raise DiagramError(f"{args.inside}: first file must have side inside")
    if outside.side != "outside":
        raise DiagramError(f"{args.outside}: second file must have side outside")
    if inside.endpoints != outside.endpoints:
        raise DiagramError(
            f"endpoint mismatch: {inside.endpoints} versus {outside.endpoints}"
        )
    print(_poly_out(pair(decat_vector(inside), decat_vector(outside)), args.json))
    return 0


def _cmd_jones(args: argparse.Namespace) -> int:
    print(_poly_out(jones(load_tangle(args.file)), args.json))
    return 0


def _cmd_bracket(args: argparse.Namespace) -> int:
    print(_poly_out(bracket(load_tangle(args.file)), args.json))
    return 0


def _cmd_basis(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise ValueError(f"basis size must be nonnegative, got {args.n}")
    # Keys are written as they are rendered, so no basis-sized list is built.
    # They hold only [0-9,|+-] and brackets, so '"' + key + '"' is their JSON
    # form and the output matches json.dumps byte for byte.  JSON states the
    # count before the keys; text counts them as it writes them.
    out = sys.stdout
    if args.json:
        out.write(f'{{"n": {args.n}, "count": {basis_count(args.n)}, "keys": [')
        sep = ""
        for key in basis_keys(args.n):
            out.write(f'{sep}"{key}"')
            sep = ", "
        out.write("]}\n")
    else:
        count = 0
        for count, key in enumerate(basis_keys(args.n), start=1):
            out.write(f"{key}\n")
        out.write(f"count: {count}\n")
    return 0


def _cmd_mutate_check(args: argparse.Namespace) -> int:
    report = mutation_check(load_tangle(args.file))
    print(json.dumps(report.to_json()) if args.json else report.render())
    return 0 if report.all_pass else 1


@cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args never mutates the parser, and the
    # handlers look the library functions up as module globals at call time.
    parser = argparse.ArgumentParser(
        prog="tanglejones",
        description="Decategorified bordered Khovanov invariants of tangles.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.set_defaults(func=func)
        return p

    add("decat", _cmd_decat, "invariant vector of a tangle file").add_argument("file")
    p = add("pair", _cmd_pair, "pair an inside tangle with an outside tangle")
    p.add_argument("inside")
    p.add_argument("outside")
    add("jones", _cmd_jones, "Jones polynomial of a closed diagram").add_argument("file")
    add("bracket", _cmd_bracket, "unnormalized bracket of a closed diagram").add_argument("file")
    add("basis", _cmd_basis, "list the decorated cleaved links on 2N points").add_argument(
        "n", type=int
    )
    add("mutate-check", _cmd_mutate_check, "mutation-invariance report").add_argument("file")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # usage error (2) or --help (0); argparse wrote the message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as err:
        print(err, file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:  # DiagramError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
