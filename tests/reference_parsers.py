"""The expression parsers as they were before `leavitt.expr`, kept as the
reference that tests/test_parser_oracle.py compares the shared parser
against: the recursive-descent `_Parser` of `calc` and the `jac_parse` of
`toeplitz probe`, unchanged apart from their imports."""

import re

from leavitt.algebra import (
    ParseError,
    edge_element,
    ghost_element,
    identity_element,
    vertex_element,
)
from leavitt.jacobson import JacobsonError, jac_one, jac_x, jac_y

# ---------------------------------------------------------------------------
# expression parser
#
# expr   := [ "+" | "-" ] term { ("+" | "-") term }
# term   := [ scalar ] factor { "*"? factor }
# factor := id [ "'" ] | "(" expr ")"
#
# Scalar literals: integers, a/b rationals, and (for GF(2^k) fields) modulus
# polynomials written without spaces, e.g. "x^2+x+1".  Ids are graph vertex
# or edge identifiers; a trailing apostrophe is the ghost edge e*.
# ---------------------------------------------------------------------------

import re as _re

_TOKEN_RE = _re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<gfpoly>x\^\d+(?:\+(?:x\^\d+|x|1))*|x(?:\+(?:x\^\d+|x|1))+)
  | (?P<number>\d+(?:/\d+)?)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*'?)
  | (?P<op>[+\-*()])
    """,
    _re.VERBOSE,
)


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError("unexpected character %r" % text[pos], pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, g, field, bindings=None):
        self.tokens = _tokenize(text)
        self.i = 0
        self.g = g
        self.field = field
        self.bindings = bindings or {}

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self):
        el = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError("unexpected %r" % val, pos)
        return el

    def expr(self):
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            el = self.term()
            if val == "-":
                el = -el
        else:
            el = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                el = el + rhs if val == "+" else el - rhs
            else:
                return el

    def term(self):
        coeff = self.field.one()
        saw_scalar = False
        kind, val, pos = self.peek()
        if kind in ("number", "gfpoly"):
            self.next()
            coeff = self._scalar(kind, val, pos)
            saw_scalar = True
        el = None
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.next()
                continue
            if kind == "id" or (kind == "op" and val == "("):
                factor = self.factor()
                el = factor if el is None else el * factor
            else:
                break
        if el is None:
            if not saw_scalar:
                kind, val, pos = self.peek()
                raise ParseError("expected a term, got %r" % val, pos)
            # a bare scalar multiplies the identity (sum of vertices)
            el = identity_element(self.g, self.field)
        return el.scale(coeff)

    def factor(self):
        kind, val, pos = self.next()
        if kind == "op" and val == "(":
            el = self.expr()
            kind, val, pos = self.next()
            if not (kind == "op" and val == ")"):
                raise ParseError("expected ')'", pos)
            return el
        if kind != "id":
            raise ParseError("expected identifier", pos)
        ghost = val.endswith("'")
        name = val[:-1] if ghost else val
        if name in self.g.vertices:
            if ghost:
                raise ParseError("vertex %r cannot carry a ghost mark" % name, pos)
            return vertex_element(self.g, self.field, name)
        if name in self.g.ends:
            if ghost:
                return ghost_element(self.g, self.field, name)
            return edge_element(self.g, self.field, name)
        if name in self.bindings:
            el = self.bindings[name]
            return el.star() if ghost else el
        raise ParseError("unknown id %r" % name, pos)

    def _scalar(self, kind, val, pos):
        try:
            return self.field.parse(val)
        except Exception as exc:
            raise ParseError("bad scalar literal %r: %s" % (val, exc), pos)


def parse_element(text, g, field, bindings=None):
    """Parse an expression string into a normal-form element.

    `bindings` maps names to previously computed elements (CLI let-bindings).
    """
    return _Parser(text, g, field, bindings).parse()


_JTOKEN_RE = re.compile(
    r"\s+|(?P<number>\d+(?:/\d+)?)|(?P<id>[xy])|(?P<op>[+\-*()])"
)


def jac_parse(text, field):
    """Parse a word expression over x, y with coefficients into normal form."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _JTOKEN_RE.match(text, pos)
        if not m:
            raise JacobsonError("bad character %r at %d" % (text[pos], pos))
        if m.lastgroup:
            tokens.append((m.lastgroup, m.group()))
        pos = m.end()
    tokens.append(("end", ""))
    state = {"i": 0}

    def peek():
        return tokens[state["i"]]

    def advance():
        tok = tokens[state["i"]]
        state["i"] += 1
        return tok

    def expr():
        el = term()
        while peek()[0] == "op" and peek()[1] in "+-":
            op = advance()[1]
            rhs = term()
            el = el + rhs if op == "+" else el - rhs
        return el

    def term():
        coeff = field.one()
        saw_scalar = False
        if peek()[0] == "number":
            coeff = field.parse(advance()[1])
            saw_scalar = True
        el = None
        while True:
            kind, val = peek()
            if kind == "op" and val == "*":
                advance()
                continue
            if kind == "id" or (kind == "op" and val == "("):
                f = factor()
                el = f if el is None else el * f
            else:
                break
        if el is None:
            if not saw_scalar:
                raise JacobsonError("expected a term, got %r" % (peek()[1],))
            el = jac_one(field)
        return el.scale(coeff)

    def factor():
        kind, val = advance()
        if kind == "op" and val == "(":
            el = expr()
            kind, val = advance()
            if not (kind == "op" and val == ")"):
                raise JacobsonError("expected ')'")
            return el
        if kind == "id":
            return jac_x(field) if val == "x" else jac_y(field)
        raise JacobsonError("expected x, y or '('")

    el = expr()
    if peek()[0] != "end":
        raise JacobsonError("trailing input %r" % peek()[1])
    return el
