"""The shared expression parser of `leavitt.expr` against the two
recursive-descent parsers it replaced (tests/reference_parsers.py), on
seeded random expressions and on their single-token deletions: both accept
with equal elements, or both reject.

The documented differences are allowed for `jac_parse` only: it now takes a
leading sign (so the reference reads "- t" as "0 - t"), and it rejects with
ParseError where the old parser raised JacobsonError or FieldError.
"""

import random

import pytest

from leavitt.algebra import (
    ParseError,
    edge_element,
    ghost_element,
    parse_element,
    vertex_element,
)
from leavitt.fields import FieldError, make_field
from leavitt.jacobson import JacobsonError, jac_parse

from . import reference_parsers as ref
from .conftest import CORPUS, load

MAX_DEPTH = 6
CALC_SCALARS = ["2", "3/4", "1", "0", "1/0", "12", "x+1", "x^2+x", "x^3+1", "x^20"]
PROBE_SCALARS = ["2", "3/4", "1", "0", "1/0", "7"]


def _scalars(field, literals):
    """The literals, those that `field` reads weighted 8 to 1."""
    valid = []
    for s in literals:
        try:
            field.parse(s)
            valid.append(s)
        except FieldError:
            pass
    return valid * 8 + literals


def _expr(rng, atoms, scalars, depth=0):
    """Tokens of expr := [sign] term {sign term}."""
    toks = [rng.choice("+-")] if rng.random() < 0.3 else []
    for i in range(rng.choice([1, 1, 2, 3])):
        if i:
            toks.append(rng.choice("+-"))
        toks += _term(rng, atoms, scalars, depth)
    return toks


def _term(rng, atoms, scalars, depth):
    """Tokens of term := [scalar] {"*"* factor}, bare scalars included."""
    toks = [rng.choice(scalars)] if rng.random() < 0.4 else []
    for _ in range(rng.choice([0, 1, 2, 3] if toks else [1, 1, 2, 3])):
        if rng.random() < 0.3:
            toks.append("*" * rng.randint(1, 2))
        if depth < MAX_DEPTH and rng.random() < 0.3:
            toks += ["("] + _expr(rng, atoms, scalars, depth + 1) + [")"]
        else:
            toks.append(rng.choice(atoms))
    return toks


def _cases(rng, atoms, scalars, n):
    """n random token lists, each followed by a copy with one token deleted."""
    for _ in range(n):
        toks = _expr(rng, atoms, scalars)
        yield toks
        cut = rng.randrange(len(toks))
        yield toks[:cut] + toks[cut + 1:]


def _join(rng, toks):
    # no space between tokens sometimes, to exercise the tokenizers too
    return "".join(t + rng.choice(["", " ", " ", " "]) for t in toks)


def _outcome(parse, text, errors):
    try:
        return parse(text)
    except errors:
        return "rejected"


def _compare(new, old, text, ref_text=None):
    got = _outcome(new, text, ParseError)
    want = _outcome(old, text if ref_text is None else ref_text, (ParseError, JacobsonError, FieldError))
    assert got == want, text
    return got != "rejected"


@pytest.mark.parametrize("field_spec", ["Q", "gf5", "gf2^4"])
@pytest.mark.parametrize("name", CORPUS)
def test_calc_parser_matches_reference(name, field_spec):
    g, field = load(name), make_field(field_spec)
    rng = random.Random("%s:%s" % (name, field_spec))
    v, e = g.vertices[0], g.edges[0][0]
    bindings = {
        "a": edge_element(g, field, e),
        "b_1": vertex_element(g, field, v) - ghost_element(g, field, e),
    }
    atoms = list(g.vertices) + [eid for eid, _, _ in g.edges]
    atoms += ["%s'" % eid for eid, _, _ in g.edges] + ["a", "a'", "b_1", "b_1'"]
    atoms = atoms * 4 + ["%s'" % v, "zz", "#"]  # and a few that are rejected
    accepted = total = 0
    for toks in _cases(rng, atoms, _scalars(field, CALC_SCALARS), 60):
        text = _join(rng, toks)
        accepted += _compare(
            lambda t: parse_element(t, g, field, bindings),
            lambda t: ref.parse_element(t, g, field, bindings),
            text,
        )
        total += 1
    assert accepted >= total // 4  # differences in the elements show only here


@pytest.mark.parametrize("field_spec", ["Q", "gf2^4"])
def test_probe_parser_matches_reference(field_spec):
    field = make_field(field_spec)
    rng = random.Random("probe:%s" % field_spec)
    atoms = ["x", "y"] * 4 + ["xy", "yx", "z"]
    accepted = total = 0
    for toks in _cases(rng, atoms, _scalars(field, PROBE_SCALARS), 150):
        # the reference reads a sign that opens an expression as "0 - ..."
        ref_toks = []
        for i, t in enumerate(toks):
            if t in ("+", "-") and (i == 0 or toks[i - 1] == "("):
                ref_toks.append("0")
            ref_toks.append(t)
        accepted += _compare(
            lambda t: jac_parse(t, field),
            lambda t: ref.jac_parse(t, field),
            " ".join(toks),
            " ".join(ref_toks),
        )
        total += 1
    assert accepted >= total // 4


def test_errors_carry_positions():
    g, field = load("toeplitz"), make_field("Q")
    cases = {"c +": 3, "c )": 2, "(c": 0, "c z'": 2, "c #": 2, "2//3 c": 1, "v1'": 0}
    for text, pos in cases.items():
        with pytest.raises(ParseError) as exc:
            parse_element(text, g, field)
        assert exc.value.pos == pos, text
    for text, pos in {"x +": 3, "x z": 2, "1/0 x": 0, "((x)": 0}.items():
        with pytest.raises(ParseError) as exc:
            jac_parse(text, field)
        assert exc.value.pos == pos, text
