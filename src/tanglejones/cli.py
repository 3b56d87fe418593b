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
from codecs import BOM_UTF8
from functools import cache
from pathlib import Path

from .cleaved import _key_blocks, basis_count
from .decat import bracket, decat_vector, jones, pair
from .diagram import Crossing, DiagramError, TangleDiagram
from .halfpoly import HalfLaurent
from .mutation import mutation_check

__all__ = ["ParseError", "parse_tangle", "load_tangle", "main"]

_MANDATORY = ("tangle", "side", "endpoints")
_SIGNS = {"+": 1, "-": -1}
# The longest refused token a message quotes; a longer one is named by its length.
_SHOWN = 64


class ParseError(Exception):
    """A tangle file failed to parse; carries the offending line number."""

    def __init__(self, line: int, message: str, source: str = "<string>"):
        super().__init__(f"{source}: line {line}: {message}")
        self.line = line


def _shown(token: str, as_repr: bool = True) -> str:
    """A refused token as a message names it: quoted up to ``_SHOWN``
    characters, by ``repr`` or else as is between single quotes, and by its
    length past that."""
    if len(token) > _SHOWN:
        return f"a token of {len(token)} characters"
    return repr(token) if as_repr else f"'{token}'"


def _size(token: str) -> int:
    """``int(token)`` for argparse, which words a refusal as it does for
    ``type=int``.  A token over ``_SHOWN`` characters is refused and named by
    its length, so no later message echoes its digits."""
    if len(token) <= _SHOWN:
        try:
            return int(token)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {_shown(token)}")


def _number(token: str, lineno: int, source: str) -> int:
    """A decimal token as an int and any other token as -1.  Every number in
    a file is read here; one of more than ``_SHOWN`` digits is a parse error
    that gives its length, so no later message echoes its digits."""
    if not token.isdecimal():
        return -1
    if len(token) > _SHOWN:
        raise ParseError(lineno, f"number has {len(token)} digits, more than {_SHOWN}", source)
    return int(token)


def _positive_int(token: str, what: str, lineno: int, source: str) -> int:
    value = _number(token, lineno, source)
    if value < 1:
        raise ParseError(lineno, f"{what} must be a positive integer, got {_shown(token)}", source)
    return value


def parse_tangle(text: str, source: str = "<string>") -> TangleDiagram:
    """Build a diagram from its text form.

    Raises :class:`ParseError` for a line that does not parse, and
    :class:`DiagramError` from the diagram's construction when the parsed
    code breaks an invariant.
    """
    if not isinstance(text, str):
        raise TypeError(f"text must be a str, got {type(text).__name__}")
    name: str | None = None
    side: str | None = None
    endpoints: int | None = None
    crossings: list[Crossing] = []
    loops: int | None = None
    boundary: dict[int, int] = {}
    progress = 0
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        directive, args = tokens[0], tokens[1:]
        if progress < len(_MANDATORY):
            expected = _MANDATORY[progress]
            if directive != expected:
                got = _shown(directive, as_repr=False)
                raise ParseError(lineno, f"expected '{expected}' directive, got {got}", source)
        elif directive in _MANDATORY:
            raise ParseError(lineno, f"duplicate '{directive}' directive", source)
        if directive == "cross":
            if len(args) != 5:
                raise ParseError(lineno, "'cross' takes a sign and four edge labels", source)
            sign = _SIGNS.get(args[0])
            if sign is None:
                raise ParseError(lineno, f"crossing sign must be '+' or '-', got {_shown(args[0])}", source)
            slots = tuple([_positive_int(tok, "edge label", lineno, source) for tok in args[1:]])
            crossings.append(Crossing(sign, slots))
        elif directive == "tangle":
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
            endpoints = _number(args[0], lineno, source) if len(args) == 1 else -1
            if endpoints < 0:
                raise ParseError(lineno, "'endpoints' takes one nonnegative integer", source)
            progress = 3
        elif directive == "loop":
            if loops is not None:
                raise ParseError(lineno, "duplicate 'loop' directive", source)
            loops = _number(args[0], lineno, source) if len(args) == 1 else -1
            if loops < 0:
                raise ParseError(lineno, "'loop' takes one nonnegative integer", source)
        elif directive == "boundary":
            if len(args) != 2:
                raise ParseError(lineno, "'boundary' takes a point and an edge label", source)
            point = _positive_int(args[0], "boundary point", lineno, source)
            edge = _positive_int(args[1], "edge label", lineno, source)
            if point in boundary:
                raise ParseError(lineno, f"duplicate boundary line for point {point}", source)
            boundary[point] = edge
        else:
            raise ParseError(lineno, f"unknown directive {_shown(directive, as_repr=False)}", source)
    if progress < len(_MANDATORY):
        raise ParseError(lineno + 1, f"missing '{_MANDATORY[progress]}' directive", source)
    assert name is not None and side is not None and endpoints is not None
    return TangleDiagram(name, side, endpoints, tuple(crossings), loops or 0, boundary)


def load_tangle(path: str | Path) -> TangleDiagram:
    """Parse one UTF-8 tangle file into a diagram, which validates itself.

    The file is read once, as bytes, and closed before it is parsed.  A
    byte-order mark is skipped, and line ends are whatever
    :meth:`str.splitlines` splits on.  A :class:`DiagramError` is raised
    again with the path in front, and so is an undecodable file, as a
    ValueError.
    """
    path = Path(path)
    with open(path, "rb", buffering=0) as file:
        data = file.read()
    # The mark is dropped before decoding, as the utf-8-sig codec does, and
    # so is a file that stops inside one, as text-mode reading does.
    if data[:3] == BOM_UTF8 or BOM_UTF8.startswith(data):
        data = data[3:]
    try:
        text = data.decode()
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
    # Keys are written a block at a time, one string per (inside, outside)
    # pair for its 2^k decorations, so no basis-sized list is built.  They
    # hold only [0-9,|+-] and brackets, so '"' + key + '"' is their JSON
    # form and the output matches json.dumps byte for byte.  JSON states the
    # count before the keys; text counts them as it writes them.
    out = sys.stdout
    if args.json:
        out.write(f'{{"n": {args.n}, "count": {basis_count(args.n)}, "keys": [')
        sep = '"'
        for head, tails in _key_blocks(args.n):
            out.write(sep + head + ('", "' + head).join(tails) + '"')
            sep = ', "'
        out.write("]}\n")
    else:
        count = 0
        for head, tails in _key_blocks(args.n):
            out.write(head + ("\n" + head).join(tails) + "\n")
            count += len(tails)
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
        "n", type=_size
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
