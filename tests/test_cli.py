"""End-to-end command-line checks, including the exit-code contract."""

import json
import os

import pytest

from leavitt import graphs as gr
from leavitt.cli import MAX_FINITARY_INDEX, MAX_PROBE_N, main

from .conftest import graph_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_plain(capsys):
    code, out, err = run(capsys, "analyze", graph_path("toeplitz"))
    assert code == 0
    assert "sinks: v2" in out
    assert "polynomial growth: True" in out


def test_analyze_chain_json(capsys):
    code, out, err = run(capsys, "analyze", graph_path("toeplitz"), "--chain", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["chain"]["s"] == 1
    assert doc["chain"]["layers"][0][0]["kind"] == "MatInfOverF"
    assert doc["V0"] == ["v2"]


def test_analyze_deterministic(capsys):
    first = run(capsys, "analyze", graph_path("two_loops"), "--chain", "--json")
    second = run(capsys, "analyze", graph_path("two_loops"), "--chain", "--json")
    assert first == second


def test_analyze_chain_analyses_the_graph_once(capsys, monkeypatch):
    """`analyze --chain` calls `graphs.analyze` once: `ideal_chain` reads the
    graph's cached components instead of analysing it again."""
    argv = ("analyze", graph_path("two_loops"), "--chain", "--json")
    expected = run(capsys, *argv)
    assert json.loads(expected[1])["chain"]["s"] == 2
    calls, analyze = [], gr.analyze
    monkeypatch.setattr(gr, "analyze", lambda g: calls.append(g) or analyze(g))
    assert run(capsys, *argv) == expected
    assert len(calls) == 1


def test_analyze_chain_text_builds_no_graph_dicts(capsys, monkeypatch):
    """Plain-text `analyze --chain` prints no stage graph, so it builds no
    graph dict; its output is the golden one.  JSON mode still builds them."""
    with open(os.path.join(os.path.dirname(__file__), "golden", "cli.json")) as fh:
        golden = {tuple(c["argv"]): c for c in json.load(fh)}
    calls, to_dict = [], gr.Graph.to_dict
    monkeypatch.setattr(gr.Graph, "to_dict", lambda g: calls.append(g) or to_dict(g))
    argv = ("analyze", "{tests}/graphs/two_loops.json", "--chain")
    code, out, _ = run(capsys, "analyze", graph_path("two_loops"), "--chain")
    assert (code, out) == (golden[argv]["exit"], golden[argv]["stdout"])
    assert calls == []
    run(capsys, "analyze", graph_path("two_loops"), "--chain", "--json")
    assert calls


def test_analyze_growth_violation(capsys):
    code, out, err = run(capsys, "analyze", graph_path("bad_growth"), "--chain")
    assert code == 3
    assert "intersect" in err


def test_analyze_missing_file(capsys):
    code, out, err = run(capsys, "analyze", "no_such_graph.json")
    assert code == 2


def test_calc_bindings(capsys):
    code, out, err = run(
        capsys,
        "calc",
        graph_path("toeplitz"),
        "a = c c'",
        "a - v1",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "a = v1 - f f'"
    assert lines[1] == "- f f'"


def test_calc_star_flag(capsys):
    code, out, err = run(capsys, "calc", graph_path("toeplitz"), "c f", "--star")
    assert code == 0
    assert out.strip() == "f' c'"


def test_calc_field_mismatch(capsys):
    code, out, err = run(
        capsys, "calc", graph_path("loop"), "x+1 c", "--field", "gf5"
    )
    assert code == 2  # gf5 cannot parse a polynomial literal
    code, out, err = run(
        capsys, "calc", graph_path("loop"), "x+1 c", "--field", "gf2^2"
    )
    assert code == 0


def test_calc_syntax_error(capsys):
    code, out, err = run(capsys, "calc", graph_path("loop"), "c + + c")
    assert code == 2


def test_calc_bad_field(capsys):
    code, out, err = run(capsys, "calc", graph_path("loop"), "c", "--field", "gf6")
    assert code == 4


def test_toeplitz_units(capsys):
    code, out, err = run(capsys, "toeplitz", "units", "2", "3")
    assert code == 0
    assert "y (1 - y x) x x" in out


def test_toeplitz_probe_json(capsys):
    code, out, err = run(capsys, "toeplitz", "probe", "-n", "5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "dimension_contradiction"
    assert doc["corner_dims"] == [1, 2, 3, 4, 5, 6]


def test_toeplitz_aut_apply(tmp_path, capsys):
    f = tmp_path / "phi.json"
    f.write_text(json.dumps({"alpha": "1", "g": {"finitary": [[1, 2, "1"]]}}))
    code, out, err = run(capsys, "toeplitz", "aut", str(f), "--apply", "e 1 1")
    assert code == 0
    assert "(1, 2)" in out


def test_toeplitz_aut_compose(tmp_path, capsys):
    f = tmp_path / "phi.json"
    h = tmp_path / "psi.json"
    f.write_text(json.dumps({"alpha": "1", "g": {"finitary": [[1, 2, "1"]]}}))
    h.write_text(json.dumps({"alpha": "3", "g": {"finitary": []}}))
    code, out, err = run(
        capsys, "toeplitz", "aut", str(f), str(h), "--compose", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == "3"


def test_toeplitz_involution(tmp_path, capsys):
    f = tmp_path / "T.json"
    f.write_text(
        json.dumps(
            {
                "T": {
                    "finitary": [[1, 2, "1"], [2, 1, "1"], [2, 2, "1"]],
                    "band": [[0, "1"]],
                }
            }
        )
    )
    code, out, err = run(capsys, "toeplitz", "involution", str(f))
    assert code == 0
    assert "Q^t Q = T holds" in out


def test_toeplitz_involution_capability_failure(tmp_path, capsys):
    f = tmp_path / "T.json"
    f.write_text(json.dumps({"T": {"finitary": [], "band": [[0, "2"]]}}))
    code, out, err = run(
        capsys, "toeplitz", "involution", str(f), "--field", "Q"
    )
    assert code == 5
    assert "square root" in err


def test_toeplitz_involution_non_square_alpha_message(tmp_path, capsys):
    """A value of Q without a rational root: exit 5 and the field's message."""
    f = tmp_path / "T.json"
    f.write_text(json.dumps({"T": {"finitary": [], "band": [[0, "3/2"]]}}))
    code, out, err = run(capsys, "toeplitz", "involution", str(f), "--field", "Q")
    assert (code, out) == (5, "")
    assert err == "error: no square root of 3/2 in the field\n"


@pytest.mark.parametrize("p", [3, 5, 7])
def test_toeplitz_involution_odd_prime_field_is_capability_failure(tmp_path, capsys, p):
    """An odd prime field takes no square roots at all: exit 5, as for a
    value without a root, and the field's own message on stderr."""
    f = tmp_path / "T.json"
    f.write_text(json.dumps({"T": {"finitary": [[1, 1, "1"]], "band": [[0, "1"]]}}))
    code, out, err = run(capsys, "toeplitz", "involution", str(f), "--field", "gf%d" % p)
    assert (code, out) == (5, "")
    assert err == "error: sqrt over GF(%d) is not supported (p odd)\n" % p


def _usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    return out.err


def test_toeplitz_aut_needs_a_mode(tmp_path, capsys):
    f = tmp_path / "phi.json"
    f.write_text(json.dumps({"alpha": "1", "g": {"finitary": [[1, 2, "1"]]}}))
    err = _usage_error(capsys, "toeplitz", "aut", str(f))
    assert "--compose" in err and "--apply" in err
    err = _usage_error(capsys, "toeplitz", "aut", str(f), "--compose")
    assert "argument --compose" in err and "two" in err


def test_toeplitz_probe_negative_truncation(capsys):
    err = _usage_error(capsys, "toeplitz", "probe", "-n", "-3")
    assert "argument -n/--truncation" in err and "-3" in err


def test_toeplitz_aut_apply_rejects_index_zero(tmp_path, capsys):
    f = tmp_path / "phi.json"
    f.write_text(json.dumps({"alpha": "1", "g": {"finitary": [[1, 2, "1"]]}}))
    code, out, err = run(capsys, "toeplitz", "aut", str(f), "--apply", "e 0 1")
    assert code == 4
    assert out == ""
    assert "indices must be >= 1" in err


def test_analyze_rejects_bad_ids(tmp_path, capsys):
    f = tmp_path / "g.json"
    f.write_text(json.dumps({"vertices": [["x"]], "edges": []}))
    code, out, err = run(capsys, "analyze", str(f))
    assert code == 2
    assert out == ""
    assert "['x']" in err


def _bad_document(tmp_path, capsys, doc, *argv):
    """Exit 2, nothing on stdout, and the error on stderr."""
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, "toeplitz", *argv[:1], str(f), *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: %s" % f)
    return err


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"alpha": "1", "g": {"finitary": [[0, 1, "1"]]}}, '[0, 1, "1"]: indices must be >= 1'),
        ({"alpha": "1", "g": {"finitary": [[2, -1, "1"]]}}, '[2, -1, "1"]: indices must be >= 1'),
        ({"alpha": "1", "g": {"finitary": [["a", 1, "1"]]}}, '["a", 1, "1"]: want [i, j, scalar]'),
        ({"alpha": "1", "g": {"finitary": [[1, 2]]}}, "[1, 2]: want [i, j, scalar]"),
        ({"alpha": "1", "g": {"finitary": [[1.5, 2, "1"]]}}, "[1.5, 2, \"1\"]: want [i, j, scalar]"),
        ({"alpha": "1", "g": {"finitary": [[1, 2, "zz"]]}}, "bad rational literal 'zz'"),
        ({"alpha": "1", "g": {"finitary": [[1, 2, None]]}}, "null is not a scalar literal"),
        ({"alpha": "1", "g": {"finitary": {"1": 2}}}, "'finitary' is not a list"),
        ({"alpha": "1", "g": {"band": [[0]]}}, "band record [0]: want [k, scalar]"),
        (
            {"alpha": "1", "g": {"finitary": [[1, 2, "1"], [1, 2, "2"]]}},
            '[1, 2, "2"]: repeats an earlier',
        ),
        ({"alpha": "1", "g": []}, "g: a matrix is a JSON object"),
        ({"alpha": [], "g": {}}, "alpha: [] is not a scalar literal"),
        ({"alpha": "1"}, "has no 'g'"),
        ({"g": {}}, "has no 'alpha'"),
        ([], "an automorphism is a JSON object, not list"),
    ],
)
def test_toeplitz_aut_rejects_bad_documents(tmp_path, capsys, doc, named):
    err = _bad_document(tmp_path, capsys, doc, "aut", "--apply", "c")
    assert named in err
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"alpha": "1", "g": {"finitary": []}}))
    err = _bad_document(tmp_path, capsys, doc, "aut", str(ok), "--compose")
    assert named in err


@pytest.mark.parametrize(
    "doc, named",
    [
        ([], "a matrix is a JSON object"),
        ({"T": [[1, 1, "1"]]}, "T: a matrix is a JSON object"),
        ({"T": {"finitary": [[1, 0, "1"]], "band": [[0, "1"]]}}, "indices must be >= 1"),
        ({"finitary": [[1, 1, 1, "1"]], "band": [[0, "1"]]}, "want [i, j, scalar]"),
    ],
)
def test_toeplitz_involution_rejects_bad_documents(tmp_path, capsys, doc, named):
    err = _bad_document(tmp_path, capsys, doc, "involution")
    assert named in err


def test_non_utf8_input_is_a_parse_error(tmp_path, capsys):
    f = tmp_path / "bin.json"
    f.write_bytes(b"\xff\xfe")
    for argv in (["toeplitz", "aut", str(f), "--apply", "c"], ["analyze", str(f)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "decode" in err


def test_toeplitz_aut_file_count(tmp_path, capsys):
    f = tmp_path / "phi.json"
    f.write_text(json.dumps({"alpha": "1", "g": {"finitary": [[1, 2, "1"]]}}))
    err = _usage_error(capsys, "toeplitz", "aut", str(f), str(f), "--apply", "c")
    assert "argument --apply: needs exactly one automorphism file, got 2" in err
    err = _usage_error(capsys, "toeplitz", "aut", str(f), str(f), str(f), "--compose")
    assert "argument --compose: needs exactly two automorphism files, got 3" in err


def test_finitary_index_cap(tmp_path, capsys):
    """An index past MAX_FINITARY_INDEX would ask for a dense block of that
    size; the loader refuses it, naming the file, the record and the cap."""
    cap = MAX_FINITARY_INDEX
    assert cap >= 60
    named = "indices must be <= MAX_FINITARY_INDEX = %d" % cap
    over = [cap + 1, 1, "1"]
    doc = {"alpha": "1", "g": {"finitary": [over]}}
    err = _bad_document(tmp_path, capsys, doc, "aut", "--apply", "c")
    assert "g: finitary record %s: %s" % (json.dumps(over), named) in err
    doc = {"T": {"finitary": [[1, cap + 1, "1"], [cap + 1, 1, "1"]], "band": [[0, "1"]]}}
    err = _bad_document(tmp_path, capsys, doc, "involution")
    assert named in err
    f = tmp_path / "at_cap.json"
    f.write_text(json.dumps({"alpha": "1", "g": {"finitary": [[cap, cap, "1"]]}}))
    code, out, err = run(capsys, "toeplitz", "aut", str(f), "--apply", "c", "--json")
    assert code == 0
    assert json.loads(out)["band"] == [[-1, "1"]]


DEEP = 10**5


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{f}"],
        ["calc", "{f}", "c"],
        ["toeplitz", "aut", "{f}", "--apply", "c"],
        ["toeplitz", "involution", "{f}"],
    ],
)
def test_deep_json_is_a_parse_error(tmp_path, capsys, argv):
    """The JSON decoder recurses once per level of nesting; a document
    nested past the recursion limit is an input error naming the file."""
    f = tmp_path / "deep.json"
    f.write_text("[" * DEEP)
    code, out, err = run(capsys, *[a.replace("{f}", str(f)) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: %s: " % f) and "recursion" in err


def test_deep_expressions_parse(capsys):
    deep = "(" * DEEP + "%s" + ")" * DEEP
    code, out, err = run(capsys, "calc", graph_path("toeplitz"), deep % "c")
    assert (code, out) == (0, "c\n")
    code, out, err = run(capsys, "toeplitz", "probe", "--b1", deep % "x", "--json")
    assert code == 0
    assert json.loads(out)["kind"] == "dimension_contradiction"


@pytest.mark.parametrize(
    "b1, want",
    [
        ("x +", 2),  # syntax error: 4 before the shared parser
        ("x z", 2),  # unknown character
        ("x + 0", 0),
        ("- y x x + x + y x x", 0),  # a leading sign, as in calc
        ("(- 1) - x", 4),  # parses; maps to -1 - t^-1, not t^-1
    ],
)
def test_toeplitz_probe_expression_errors(capsys, b1, want):
    code, out, err = run(capsys, "toeplitz", "probe", "--b1", b1)
    assert code == want
    if want == 2:
        assert out == "" and "at position" in err


def test_toeplitz_probe_truncation_cap(capsys):
    err = _usage_error(capsys, "toeplitz", "probe", "-n", str(MAX_PROBE_N + 1))
    assert "MAX_PROBE_N = %d" % MAX_PROBE_N in err


@pytest.mark.parametrize(
    "target, named",
    [
        ("e a b", "unknown target"),
        ("e 1", "unknown target"),
        ("e -1 2", "unknown target"),
        ("e 1 %d" % (MAX_FINITARY_INDEX + 1), "MAX_FINITARY_INDEX = %d" % MAX_FINITARY_INDEX),
        ("e 1 30000", "MAX_FINITARY_INDEX"),
        ("e 1 " + "9" * 5000, "MAX_FINITARY_INDEX"),
    ],
)
def test_toeplitz_aut_apply_target_errors(tmp_path, capsys, target, named):
    f = tmp_path / "phi.json"
    f.write_text(json.dumps({"alpha": "2", "g": {"finitary": [[1, 2, "1"]]}}))
    code, out, err = run(capsys, "toeplitz", "aut", str(f), "--apply", target)
    assert (code, out) == (4, "")
    assert named in err


def test_toeplitz_units_index_cap(capsys):
    cap = MAX_FINITARY_INDEX
    code, out, err = run(capsys, "toeplitz", "units", "1", str(cap + 1))
    assert (code, out) == (4, "")
    assert "MAX_FINITARY_INDEX = %d" % cap in err
    code, out, err = run(capsys, "toeplitz", "units", str(cap), "1", "--json")
    assert code == 0
    assert json.loads(out)["i"] == cap


@pytest.mark.parametrize("binding", ["v1 = c", "c = v1", "2 = c", "= c", "a' = c", "a b = c"])
def test_calc_binding_names_must_be_readable(capsys, binding):
    """A vertex or edge id would shadow the binding, and a name that is not
    an id token could never be read back."""
    code, out, err = run(capsys, "calc", graph_path("toeplitz"), binding, "c")
    assert (code, out) == (2, "")
    assert "cannot bind %r" % binding.split("=")[0].strip() in err
