"""The expression grammar of `calc` and of `toeplitz probe`.

    expr   := [ "+" | "-" ] term { ("+" | "-") term }
    term   := [ scalar ] factor { "*"? factor }
    factor := atom | "(" expr ")"

A term may also be a bare scalar, which multiplies the identity, and `*`
may stand anywhere among a term's factors.  Each open parenthesis is one
frame on an explicit stack, so nesting is bounded by memory, not by the
interpreter's recursion limit.
"""

from __future__ import annotations

from .fields import FieldError

__all__ = ["ParseError", "parse_expression"]


class ParseError(ValueError):
    """Expression syntax error; carries the offending position."""

    def __init__(self, message, pos):
        self.pos = pos
        super().__init__("%s (at position %d)" % (message, pos))


def _tokenize(text, token_re):
    pos, tokens = 0, []
    while pos < len(text):
        m = token_re.match(text, pos)
        if not m:
            raise ParseError("unexpected character %r" % text[pos], pos)
        if m.lastgroup:
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# Where the parser stands: before an expression's leading sign, before a
# term's scalar, or among a term's factors.
_START, _TERM, _FACTORS = range(3)


def parse_expression(text, token_re, atom, one, field):
    """Parse `text` into an element.

    `token_re` matches one token: a `scalar`, an `id`, an `op` among
    `+-*()`, or whitespace (no named group).  `atom(name, pos)` is the
    element of an id, or raises ParseError; `one()` is the identity that a
    bare scalar multiplies; `field.parse` reads a scalar.
    """
    stack = []  # (total, sign, coeff, product, pos) of each open "("
    total = coeff = product = None
    sign, state = "+", _START
    for kind, val, pos in _tokenize(text, token_re):
        if kind == "op" and val in "+-" and state == _START:
            sign, state = val, _TERM
        elif kind == "scalar" and state != _FACTORS:
            try:
                coeff = field.parse(val)
            except FieldError as exc:
                raise ParseError("bad scalar literal %r: %s" % (val, exc), pos) from None
            state = _FACTORS
        elif kind == "op" and val == "*":
            state = _FACTORS
        elif kind == "id":
            el = atom(val, pos)
            product, state = el if product is None else product * el, _FACTORS
        elif kind == "op" and val == "(":
            stack.append((total, sign, coeff, product, pos))
            total = coeff = product = None
            sign, state = "+", _START
        else:  # a sign, ")" or the end closes the term
            if product is None and coeff is None:
                raise ParseError("expected a term, got %r" % (val or "end of input"), pos)
            el = one() if product is None else product
            if coeff is not None:
                el = el.scale(coeff)
            if sign == "-":
                el = -el
            total = el if total is None else total + el
            coeff = product = None
            if val in ("+", "-"):
                sign, state = val, _TERM
            elif val == ")" and stack:
                el, (total, sign, coeff, product, _) = total, stack.pop()
                product, state = el if product is None else product * el, _FACTORS
            elif kind == "end" and not stack:
                return total
            elif kind == "end":
                raise ParseError("unclosed '('", stack[-1][-1])
            else:
                raise ParseError("unexpected %r" % val, pos)
