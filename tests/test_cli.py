"""Command-line surface: verbs, formats, exit codes, parse diagnostics."""

from __future__ import annotations

import json

import pytest

from tanglejones import cli
from tanglejones.cli import ParseError, main, parse_tangle

from .helpers import corpus_path

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
    assert "side inside" in err


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


def test_basis_rejects_negative(capsys):
    code, _, err = run(capsys, "basis", "--", "-1")
    assert code == 1
    assert "nonnegative" in err


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


def test_missing_file_is_semantic_error(capsys):
    code, _, err = run(capsys, "decat", "no/such/file.tangle")
    assert code == 1
    assert err != ""


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
