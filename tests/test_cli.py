"""Command-line surface: verbs, formats, exit codes, parse diagnostics."""

from __future__ import annotations

import contextlib
import io
import json
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglejones import TangleDiagram, cleaved, cli, decat, diagram, halfpoly, mutation, planar
from tanglejones.cli import ParseError, main, parse_tangle

from .helpers import (
    braid,
    braid_closure,
    cleaved_basis,
    corpus_names,
    corpus_path,
    corpus_tangle,
    tangle_text,
)

T_LEFT = str(corpus_path("t_left"))
T_RIGHT = str(corpus_path("t_right"))
UNKNOT = str(corpus_path("unknot"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decat_text(capsys):
    code, out, err = run(capsys, "decat", T_LEFT)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 12
    assert lines[0] == "[2,4|2,4|++] : -q^3"
    assert lines[-1] == "[4,2|4,2|--] : 1"


def test_decat_json(capsys):
    code, out, _ = run(capsys, "decat", "--json", T_LEFT)
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2
    assert len(payload["generators"]) == 12
    by_key = {g["key"]: g["terms"] for g in payload["generators"]}
    assert by_key["[4,2|2,4|+]"] == [[3, 1]]
    assert by_key["[2,4|2,4|++]"] == [[6, -1]]


def test_pair_text(capsys):
    code, out, _ = run(capsys, "pair", T_LEFT, T_RIGHT)
    assert code == 0
    assert out.strip() == "q^6 + q^4 + q^2 + 1"


def test_pair_json(capsys):
    code, out, _ = run(capsys, "pair", "--json", T_LEFT, T_RIGHT)
    assert code == 0
    assert json.loads(out) == {"terms": [[12, 1], [8, 1], [4, 1], [0, 1]]}


def test_pair_rejects_swapped_sides(capsys):
    code, _, err = run(capsys, "pair", T_RIGHT, T_LEFT)
    assert code == 1
    assert "first file must have side inside" in err
    code, _, err = run(capsys, "pair", T_LEFT, T_LEFT)
    assert code == 1
    assert "second file must have side outside" in err


def test_pair_rejects_mismatched_endpoints(capsys):
    code, _, err = run(capsys, "pair", str(corpus_path("strand1")), str(corpus_path("strand3_out")))
    assert code == 1
    assert "endpoint mismatch" in err


def test_jones_on_closed_diagram(capsys):
    code, out, _ = run(capsys, "jones", UNKNOT)
    assert code == 0
    assert out.strip() == "q + q^(-1)"


def test_jones_rejects_open_tangle(capsys):
    code, _, err = run(capsys, "jones", T_LEFT)
    assert code == 1
    assert err != ""


def test_bracket(capsys):
    code, out, _ = run(capsys, "bracket", str(corpus_path("kink_plus")))
    assert code == 0
    assert out.strip() == "1 + q^(-2)"


def test_basis_text(capsys):
    code, out, _ = run(capsys, "basis", "1")
    assert code == 0
    assert out.splitlines() == ["[2|2|+]", "[2|2|-]", "count: 2"]


def test_basis_json(capsys):
    code, out, _ = run(capsys, "basis", "--json", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert payload["count"] == 104
    assert len(payload["keys"]) == 104


@pytest.mark.parametrize("n", range(6))
def test_streamed_basis_matches_the_generators(capsys, n):
    keys = [g.key() for g in cleaved_basis(n)]
    code, out, err = run(capsys, "basis", str(n))
    assert (code, err) == (0, "")
    assert out == "\n".join(keys) + f"\ncount: {len(keys)}\n"
    code, out, err = run(capsys, "basis", "--json", str(n))
    assert (code, err) == (0, "")
    assert out == json.dumps({"n": n, "count": len(keys), "keys": keys}) + "\n"


@pytest.mark.parametrize("n, pairs", [(0, 1), (3, 25), (5, 1764)])
def test_basis_walks_the_matching_pairs_once_in_text(monkeypatch, capsys, n, pairs):
    # text counts the keys as it writes them; JSON states the count first
    seen = []
    real = cleaved._circle_count

    def spy(inside, outside):
        seen.append((inside, outside))
        return real(inside, outside)

    monkeypatch.setattr(cleaved, "_circle_count", spy)
    for flag, walks in (([], 1), (["--json"], 2)):
        seen.clear()
        assert run(capsys, "basis", *flag, str(n))[0] == 0
        assert len(seen) == walks * pairs == walks * len(set(seen))


def test_basis_6_count(capsys):
    code, out, _ = run(capsys, "basis", "6")
    assert code == 0
    assert out.endswith("\ncount: 165384\n")
    assert out.count("\n") == 165384 + 1


def test_basis_leaves_no_cache_behind(capsys):
    # The only caches kept across calls are one tuple of matchings per n and
    # the bounded memo of closed-diagram counts; the library keeps nothing
    # per pair of matchings or per generator.
    planar._matchings.cache_clear()
    decat._closed_counts.cache_clear()
    used = {5}
    for name in corpus_names():
        assert run(capsys, "decat", str(corpus_path(name)))[0] == 0
        used.add(corpus_tangle(name).endpoints // 2)
    assert run(capsys, "basis", "5")[0] == 0
    assert run(capsys, "basis", "--json", "5")[0] == 0
    assert not hasattr(cleaved.circles_of, "cache_info")
    assert planar._matchings.cache_info().currsize <= len(used)
    # one entry for each of the ten closed corpus files, none for a tangle
    memo = decat._closed_counts.cache_info()
    assert (memo.maxsize, memo.currsize) == (decat._CLOSED_MEMO, 10) == (32, 10)
    cached = {
        f"{module.__name__}.{name}"
        for module in (cleaved, cli, decat, diagram, halfpoly, mutation, planar)
        for name, obj in vars(module).items()
        if hasattr(obj, "cache_info")
    }
    assert cached == {
        "tanglejones.planar._matchings",
        "tanglejones.cli._build_parser",
        "tanglejones.decat._closed_counts",
    }


def test_basis_rejects_negative(capsys):
    code, _, err = run(capsys, "basis", "--", "-1")
    assert code == 1
    assert "nonnegative" in err


def test_basis_over_the_size_limit_is_rejected_at_once(capsys):
    # basis 8 walks 1430^2 pairs in about half a minute; from 9 on it never
    # finishes, and the limit is found without forming Catalan(N)
    assert cleaved._basis_pairs(8) == 1430**2 <= diagram._MAX_STATES
    tail = f"= {4862**2} (inside, outside) pairs, over the limit of {2**24}\n"
    for n, bound in [("9", ""), ("30", " >= Catalan(9)^2"), ("99999999999", " >= Catalan(9)^2")]:
        for json_flag in ([], ["--json"]):
            start = time.perf_counter()
            code, out, err = run(capsys, "basis", *json_flag, n)
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (1, ""), (n, json_flag)
            assert err == f"error: basis {n} walks Catalan({n})^2{bound} {tail}"


def test_mutate_check(capsys):
    code, out, _ = run(capsys, "mutate-check", T_LEFT)
    assert code == 0
    assert out.splitlines() == [
        "B-symmetry: PASS",
        "C-symmetry: PASS",
        "M*^2-invariance: PASS",
    ]


def test_mutate_check_json(capsys):
    code, out, _ = run(capsys, "mutate-check", "--json", T_LEFT)
    assert code == 0
    assert json.loads(out) == {
        "B-symmetry": True,
        "C-symmetry": True,
        "M*^2-invariance": True,
    }


def test_missing_file_is_semantic_error(tmp_path, capsys):
    code, _, err = run(capsys, "decat", "no/such/file.tangle")
    assert code == 1
    assert err != ""
    code, out, err = run(capsys, "decat", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and str(tmp_path) in err


def write(tmp_path, text):
    path = tmp_path / "t.tangle"
    path.write_text(text)
    return str(path)


def test_parse_error_reports_line(tmp_path, capsys):
    path = write(tmp_path, "tangle x\nside inside\nendpoints 0\nwobble 3\n")
    code, _, err = run(capsys, "decat", path)
    assert code == 2
    assert "line 4" in err
    assert "wobble" in err


def test_mandatory_directives_in_order(tmp_path, capsys):
    path = write(tmp_path, "side inside\ntangle x\nendpoints 0\n")
    code, _, err = run(capsys, "decat", path)
    assert code == 2
    assert "line 1" in err

    path = write(tmp_path, "tangle x\nside inside\n")
    code, _, err = run(capsys, "decat", path)
    assert code == 2
    assert "missing 'endpoints'" in err


def test_duplicate_boundary_point(tmp_path, capsys):
    path = write(
        tmp_path,
        "tangle x\nside inside\nendpoints 2\nboundary 1 1\nboundary 1 2\n",
    )
    code, _, err = run(capsys, "decat", path)
    assert code == 2
    assert "line 5" in err


def test_validation_failure_is_semantic(tmp_path, capsys):
    # edge 2 dangles: it appears only once
    path = write(tmp_path, "tangle x\nside inside\nendpoints 2\nboundary 1 1\nboundary 2 2\n")
    code, _, err = run(capsys, "decat", path)
    assert code == 1
    assert err != ""


@pytest.mark.parametrize("endpoints", [2_000_000, 2_000_000_000_000])
def test_missing_boundary_points_are_counted_not_listed(tmp_path, capsys, endpoints):
    # a three-line file must not make validation build or print one entry
    # per boundary point
    path = write(tmp_path, f"tangle big\nside inside\nendpoints {endpoints}\n")
    tracemalloc.start()
    try:
        code = main(["decat", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.encode()) < 1024
    assert peak < 1 << 20
    assert [f"boundary point {p} has no edge" in err for p in range(1, 7)] == [True] * 5 + [False]
    assert err.rstrip().endswith(f"and {endpoints - 5} more boundary points have no edge")


def test_nonplanar_code_is_rejected(tmp_path, capsys):
    # one crossing whose opposite slots are joined: no planar drawing has
    # it, yet it used to print a polynomial with exit 0
    path = write(tmp_path, "tangle x\nside inside\nendpoints 0\ncross + 1 2 1 2\n")
    for verb in ("jones", "bracket", "decat"):
        code, out, err = run(capsys, verb, path)
        assert code == 1
        assert out == ""
        assert "not planar" in err


@pytest.mark.parametrize("verb", ["jones", "bracket", "decat"])
def test_huge_loop_count_is_rejected_at_once(tmp_path, capsys, verb):
    # the state sum would expand (q + q^(-1))^loops and never return
    header = "tangle x\nside inside\nendpoints 0\n"
    huge = write(tmp_path, header + "loop 99999999999999999999\n")
    start = time.perf_counter()
    code, out, err = run(capsys, verb, huge)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == f"error: {huge}: loop count 99999999999999999999 exceeds the limit of 1000\n"
    code, out, err = run(capsys, verb, write(tmp_path, header + "loop 1000\n"))
    assert (code, err) == (0, "")
    assert out


def test_state_sums_over_the_size_limit_are_rejected_at_once(tmp_path, capsys):
    # 2^40 resolutions, Catalan(20) far matchings, or the 2^10 cut-circle
    # decorations of 10 parallel arcs would take hours or gigabytes
    chain = braid_closure("chain", 2, [(0, 1)] * 40)
    crossings, bottom, top = braid(2, [(0, 1)] * 40, "inside")
    twist_ends = dict(enumerate(bottom + top[::-1], start=1))
    arcs = [
        TangleDiagram(f"arcs{k}_{side}", side, k, (), 0, {p: (p + 1) // 2 for p in range(1, k + 1)})
        for k in (40, 20)
        for side in ("inside", "outside")
    ]
    files = {}
    for t in (chain, TangleDiagram("twist", "inside", 4, tuple(crossings), 0, twist_ends), *arcs):
        files[t.name] = tmp_path / f"{t.name}.tangle"
        files[t.name].write_text(tangle_text(t))
    over = {
        "chain": (40, 0, 2**40),
        "twist": (40, 2, 2**43),
        "arcs40_inside": (0, 20, 6564120420 * 2**20),
        "arcs20_inside": (0, 10, 16796 * 2**10),
    }
    for verb, *names in [
        ("jones", "chain"),
        ("bracket", "chain"),
        ("decat", "chain"),
        ("mutate-check", "twist"),
        ("decat", "arcs40_inside"),
        ("pair", "arcs40_inside", "arcs40_outside"),
        ("decat", "arcs20_inside"),
        ("pair", "arcs20_inside", "arcs20_outside"),
    ]:
        start = time.perf_counter()
        code, out, err = run(capsys, verb, *(str(files[name]) for name in names))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, ""), (verb, names)
        c, n, states = over[names[0]]
        assert err == (
            f"error: the state sum visits 2^{c} x Catalan({n}) x 2^{n} = {states} states, "
            f"over the limit of {2**24}\n"
        )
    # only the state sum is refused: single resolutions of the chain still trace
    assert [len(diagram.resolve(chain, (bit,) * 40)[0]) for bit in (0, 1)] == [2, 40]


@pytest.mark.parametrize(
    "verb, names, calls",
    [
        ("decat", ["t_left"], 1),
        ("jones", ["kt_closed"], 1),
        ("bracket", ["hopf"], 1),
        ("mutate-check", ["kt_inside"], 1),
        ("pair", ["kt_inside", "kt_outside"], 2),
    ],
    ids=["decat", "jones", "bracket", "mutate-check", "pair"],
)
def test_each_loaded_file_is_validated_once(monkeypatch, capsys, verb, names, calls):
    seen = []
    real = diagram.validate

    def spy(t):
        seen.append(t.name)
        return real(t)

    for module in (diagram, cli):
        if hasattr(module, "validate"):
            monkeypatch.setattr(module, "validate", spy)
    code, _, err = run(capsys, verb, *(str(corpus_path(name)) for name in names))
    assert (code, err) == (0, "")
    assert len(seen) == calls


# point 3 has no boundary line, so edge 2 ends only at point 4
_MISSING_POINT_3 = (
    "tangle bad\nside inside\nendpoints 4\nboundary 1 1\nboundary 2 1\nboundary 4 2\n"
)


@pytest.mark.parametrize(
    "argv",
    [["decat", "BAD"], ["pair", "BAD", "GOOD"], ["pair", "GOOD", "BAD"]],
    ids=["decat", "pair-bad-first", "pair-bad-second"],
)
def test_invalid_file_error_names_that_file(tmp_path, capsys, argv):
    bad = write(tmp_path, _MISSING_POINT_3)
    good = str(corpus_path("kt_inside" if argv[1] == "GOOD" else "kt_outside"))
    code, out, err = run(capsys, *({"BAD": bad, "GOOD": good}.get(a, a) for a in argv))
    assert (code, out) == (1, "")
    violations = "boundary point 3 has no edge; edge 2 has 1 ends, expected exactly 2"
    assert err == f"error: {bad}: {violations}\n"
    assert good not in err


@pytest.mark.parametrize(
    "argv",
    [["decat", "BAD"], ["pair", "BAD", "GOOD"], ["pair", "GOOD", "BAD"]],
    ids=["decat", "pair-bad-first", "pair-bad-second"],
)
def test_undecodable_file_error_names_that_file(tmp_path, capsys, argv):
    bad = tmp_path / "t.tangle"
    bad.write_bytes(b"\xfftangle x\n")
    good = str(corpus_path("kt_inside" if argv[1] == "GOOD" else "kt_outside"))
    code, out, err = run(capsys, *({"BAD": str(bad), "GOOD": good}.get(a, a) for a in argv))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {bad}: ")
    assert err.count(str(bad)) == 1
    assert good not in err


def test_parse_tangle_comments_and_blanks():
    t = parse_tangle("# header\n\ntangle x\nside inside\nendpoints 0\nloop 2 # two\n")
    assert t.loops == 2
    assert t.crossings == ()
    with pytest.raises(ParseError):
        parse_tangle("tangle x\nside inside\nendpoints 0\nloop 1\nloop 1\n")


def test_crossing_arity_and_sign(tmp_path, capsys):
    path = write(tmp_path, "tangle x\nside inside\nendpoints 0\ncross * 1 1 2 2\n")
    code, _, err = run(capsys, "decat", path)
    assert code == 2
    assert "sign" in err

    path = write(tmp_path, "tangle x\nside inside\nendpoints 0\ncross + 1 1 2\n")
    code, _, err = run(capsys, "decat", path)
    assert code == 2


@pytest.mark.parametrize(
    "text, line",
    [
        ("tangle x\nside inside\nendpoints \u00b2\n", 3),
        ("tangle x\nside inside\nendpoints 0\nloop \u00b2\n", 4),
        ("tangle x\nside inside\nendpoints 2\nboundary 1 \u00b2\n", 4),
        ("tangle x\nside inside\nendpoints 0\ncross + 1 \u00b2 2 1\n", 4),
    ],
    ids=["endpoints", "loop", "boundary", "cross"],
)
def test_non_decimal_digits_are_parse_errors(tmp_path, capsys, text, line):
    # '\u00b2' (superscript two) passes str.isdigit() but int() rejects it
    with pytest.raises(ParseError) as info:
        parse_tangle(text)
    assert info.value.line == line
    code, out, err = run(capsys, "decat", write(tmp_path, text))
    assert code == 2
    assert out == ""
    assert f"line {line}" in err


@pytest.mark.parametrize(
    "argv", [["frob"], ["basis", "x"], []], ids=["unknown-verb", "bad-int", "no-verb"]
)
def test_usage_errors_return_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage: tanglejones")
    assert "error:" in err


def test_help_returns_0(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: tanglejones")
    assert err == ""


def test_shared_parser_keeps_no_state_between_calls(capsys):
    code, out, _ = run(capsys, "basis", "--json", "1")
    assert code == 0
    assert json.loads(out)["count"] == 2
    code, out, _ = run(capsys, "basis", "1")
    assert code == 0
    assert out.splitlines() == ["[2|2|+]", "[2|2|-]", "count: 2"]

    assert run(capsys, "basis", "x")[0] == 2
    code, out, err = run(capsys, "jones", UNKNOT)
    assert (code, out, err) == (0, "q + q^(-1)\n", "")


def test_handlers_look_up_library_functions_at_call_time(monkeypatch, capsys):
    # Tracing wraps the module globals the handlers call; the parser built by
    # an earlier call must not have captured the originals.
    assert run(capsys, "decat", T_LEFT)[0] == 0
    seen = []
    real = cli.decat_vector

    def spy(t):
        seen.append(t.endpoints)
        return real(t)

    monkeypatch.setattr(cli, "decat_vector", spy)
    code, out, _ = run(capsys, "decat", T_LEFT)
    assert code == 0
    assert seen == [4]
    assert out.splitlines()[0] == "[2,4|2,4|++] : -q^3"


# Whole-token edits of corpus files.  Most tokens of a file are numbers, and
# numbers dominate the alphabet too, so many mutants parse and go on to reach
# validation and the engine rather than stopping at a parse error.
_TOKENS = [str(k) for k in range(13)] + [
    "+", "-", "tangle", "side", "endpoints", "cross", "loop", "boundary",
    "inside", "outside", "#", "\n", "x",
]  # fmt: skip
_EDITS = st.tuples(
    st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 500), st.sampled_from(_TOKENS)
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(corpus_names()), st.lists(_EDITS, min_size=1, max_size=2))
def test_main_never_raises_on_mutated_corpus_text(tmp_path_factory, name, edits):
    tokens = re.findall(r"\S+|\n", corpus_path(name).read_text())
    for kind, at, token in edits:
        at %= len(tokens) + (kind == "insert")
        if kind == "replace":
            tokens[at] = token
        elif kind == "insert":
            tokens.insert(at, token)
        else:
            del tokens[at]
    path = tmp_path_factory.getbasetemp() / "mutant.tangle"
    path.write_text("".join(t if t == "\n" else t + " " for t in tokens))
    for verb in ("decat", "jones", "bracket", "mutate-check"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main([verb, str(path)]) in (0, 1, 2)
