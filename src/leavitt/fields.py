"""Exact field arithmetic: Q, GF(p) and GF(2^k).

Field values are plain Python values, and a field is a stateless set of
operations on them (the design of SymPy's polys domains):

  Q        int when integral, Fraction otherwise
  GF(p)    int in [0, p)
  GF(2^k)  int bitmask in [0, 2^k), bit i = x^i

Every value is canonical, so equality and hashing are exact; in every
field zero is 0 (falsy) and one is 1.  `add/sub/mul/div/neg/inv/sqrt` trust their arguments; a value
from a caller goes through `check_value` once, where it enters an
element.  GF(2^k) uses a fixed irreducible modulus per k (see MODULI) so
that results are reproducible bit for bit; its products, quotients and
square roots read exp/log tables built on first use, once per k.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cached_property

__all__ = [
    "Field",
    "Rationals",
    "PrimeField",
    "BinaryField",
    "FieldError",
    "make_field",
    "QQ",
]


class FieldError(ValueError):
    """Bad field descriptor, value outside its field or unsupported operation."""


# Irreducible moduli for GF(2^k), k = 1..16, given as bitmasks (bit i = x^i).
# Low-weight polynomials from the standard tables; irreducibility is
# re-checked in the test suite for every k.
MODULI = {
    1: 0b11,                 # x + 1
    2: 0b111,                # x^2 + x + 1
    3: 0b1011,               # x^3 + x + 1
    4: 0b10011,              # x^4 + x + 1
    5: 0b100101,             # x^5 + x^2 + 1
    6: 0b1000011,            # x^6 + x + 1
    7: 0b10000011,           # x^7 + x + 1
    8: 0b100011011,          # x^8 + x^4 + x^3 + x + 1
    9: 0b1000010001,         # x^9 + x^4 + 1
    10: 0b10000001001,       # x^10 + x^3 + 1
    11: 0b100000000101,      # x^11 + x^2 + 1
    12: 0b1000001010011,     # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,    # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,   # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,  # x^15 + x + 1
    16: 0b10001000000001011, # x^16 + x^12 + x^3 + x + 1
}


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """Operations on raw values; concrete fields override the arithmetic."""

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        raise NotImplementedError

    def check_value(self, c):
        """c itself if it is a canonical value of this field, else FieldError."""
        raise NotImplementedError

    def check_terms(self, terms):
        """A caller's coefficient dict, each value checked and zeros dropped."""
        check = self.check_value
        return {k: v for k, c in terms.items() if (v := check(c))}

    def _reject(self, c):
        raise FieldError("%r is not a value of %s" % (c, self))

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def _zero_division(self):
        raise ZeroDivisionError("division by zero in %s" % self)

    def sqrt(self, a):
        raise FieldError("sqrt is not supported over %s" % self)

    def parse(self, text):
        """Parse a scalar literal; raises FieldError on failure."""
        raise NotImplementedError

    def to_str(self, a):
        return str(a)

    def elements(self):
        raise FieldError("%s is not finite" % self)


def _q(r):
    """Canonical Q value: an integral Fraction becomes its int."""
    return r.numerator if r.denominator == 1 else r


class Rationals(Field):
    """The field Q: ints, and Fractions for the values that are not integral."""

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"

    def from_int(self, n):
        return n

    def check_value(self, c):
        if type(c) is int:
            return c
        if type(c) is Fraction:
            return _q(c)
        self._reject(c)

    def add(self, a, b):
        r = a + b
        return r.numerator if r.denominator == 1 else r

    def sub(self, a, b):
        r = a - b
        return r.numerator if r.denominator == 1 else r

    def mul(self, a, b):
        r = a * b
        return r.numerator if r.denominator == 1 else r

    def div(self, a, b):
        if not b:
            self._zero_division()
        return _q(Fraction(a, b))

    def neg(self, a):
        return -a

    def inv(self, a):
        return self.div(1, a)

    def sqrt(self, a):
        if a >= 0:
            num, den = _isqrt_exact(a.numerator), _isqrt_exact(a.denominator)
            if num is not None and den is not None:
                return _q(Fraction(num, den))
        raise FieldError("no square root of %s in the field" % self.to_str(a))

    def parse(self, text):
        try:
            return _q(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError("bad rational literal %r" % text) from exc


def _isqrt_exact(n):
    r = math.isqrt(n)
    return r if r * r == n else None


class PrimeField(Field):
    """GF(p) with least-residue representatives."""

    def __init__(self, p):
        if not _is_prime(p):
            raise FieldError("%d is not prime" % p)
        if p > 2**31:
            raise FieldError("prime %d too large" % p)
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p

    def from_int(self, n):
        return n % self.p

    def check_value(self, c):
        if type(c) is int and 0 <= c < self.p:
            return c
        self._reject(c)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if not a:
            self._zero_division()
        return pow(a, -1, self.p)

    def sqrt(self, a):
        # Total square roots only exist in characteristic 2; for odd p the
        # squaring map is 2-to-1 and the involution classification breaks
        # down, so we deliberately refuse rather than half-support it.
        if self.p != 2:
            raise FieldError("sqrt over GF(%d) is not supported (p odd)" % self.p)
        return a

    def parse(self, text):
        try:
            if "/" in text:
                num, den = text.split("/")
                return self.div(self.from_int(int(num)), self.from_int(int(den)))
            return self.from_int(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError("bad GF(%d) literal %r" % (self.p, text)) from exc

    def elements(self):
        return list(range(self.p))


_X_POWER_RE = re.compile(r"x\^(\d+)")


def _reduce(bits, k):
    """bits mod the degree-k modulus, by shift and xor."""
    modulus = MODULI[k]
    deg = bits.bit_length() - 1
    while deg >= k:
        bits ^= modulus << (deg - k)
        deg = bits.bit_length() - 1
    return bits


def _clmul(a, b, k):
    """a b in GF(2^k) by shift and add; used only to build the tables."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
    return _reduce(acc, k)


_TABLES = {}  # k -> (exp, log) of GF(2^k), built on first use


def _exp_log(k):
    """(exp, log) for GF(2^k): exp[i] = g^i for 0 <= i < 2 (2^k - 1), so a
    sum or difference of two logs (shifted by 2^k - 1) indexes exp without
    a reduction; log[a] for a != 0.  The generator g is the least element
    of order 2^k - 1: x itself is not always primitive (its order is 51
    for the k = 8 modulus)."""
    tables = _TABLES.get(k)
    if tables is None:
        order = (1 << k) - 1
        for g in range(1 if k == 1 else 2, 1 << k):
            exp = [1] * (2 * order)
            a = g
            for i in range(1, order):
                if a == 1:
                    break  # order of g divides i < 2^k - 1
                exp[i] = a
                a = _clmul(a, g, k)
            else:
                break
        exp[order:] = exp[:order]
        log = [0] * (order + 1)
        for i in range(order):
            log[exp[i]] = i
        tables = _TABLES[k] = (exp, log)
    return tables


class BinaryField(Field):
    """GF(2^k), values as bitmask polynomials mod a fixed irreducible."""

    def __init__(self, k):
        if k not in MODULI:
            raise FieldError("unsupported extension degree %d (need 1 <= k <= 16)" % k)
        self.k = k
        self.order = (1 << k) - 1  # of the multiplicative group

    def __eq__(self, other):
        return isinstance(other, BinaryField) and self.k == other.k

    def __hash__(self):
        return hash(("GF2^", self.k))

    def __repr__(self):
        return "GF(2^%d)" % self.k

    @cached_property
    def _exp(self):
        return _exp_log(self.k)[0]

    @cached_property
    def _log(self):
        return _exp_log(self.k)[1]

    def from_int(self, n):
        return n % 2

    def check_value(self, c):
        if type(c) is int and 0 <= c <= self.order:
            return c
        self._reject(c)

    def add(self, a, b):
        return a ^ b

    sub = add

    def neg(self, a):
        return a

    def mul(self, a, b):
        if a and b:
            log = self._log
            return self._exp[log[a] + log[b]]
        return 0

    def div(self, a, b):
        if not b:
            self._zero_division()
        if a:
            log = self._log
            return self._exp[log[a] - log[b] + self.order]
        return 0

    def inv(self, a):
        if not a:
            self._zero_division()
        return self._exp[self.order - self._log[a]]

    def sqrt(self, a):
        # Frobenius is bijective, and the order 2^k - 1 is odd, so halving
        # the log (mod the order) inverts squaring.
        if not a:
            return 0
        e = self._log[a]
        return self._exp[(e if e % 2 == 0 else e + self.order) >> 1]

    def parse(self, text):
        text = text.replace(" ", "")
        if text in ("0", "1"):
            return int(text)
        bits = 0
        for part in text.split("+"):
            if part == "1":
                bits ^= 1
            elif part == "x":
                bits ^= 2
            else:
                m = _X_POWER_RE.fullmatch(part)
                # x^order = 1, and int() refuses over 4300 digits
                if not m or len(m.group(1)) > 4000:
                    raise FieldError("bad GF(2^%d) literal %r" % (self.k, text))
                bits ^= 1 << int(m.group(1)) % self.order
        return _reduce(bits, self.k)

    def to_str(self, a):
        if a == 0:
            return "0"
        parts = []
        for i in range(a.bit_length() - 1, -1, -1):
            if a >> i & 1:
                parts.append("1" if i == 0 else ("x" if i == 1 else "x^%d" % i))
        return "+".join(parts)

    def elements(self):
        return list(range(self.order + 1))


QQ = Rationals()

# At most 12 digits: int() refuses over 4300, and trial division of a
# larger prime would run for minutes before PrimeField refuses it as too large.
_GF_RE = re.compile(r"gf(\d{1,12})$", re.IGNORECASE)
_GF2K_RE = re.compile(r"gf2\^(\d{1,12})$", re.IGNORECASE)


def make_field(spec):
    """Build a field from a descriptor: "Q", "gf<p>", "gf2^<k>" or "gf<2^k>"."""
    spec = spec.strip()
    if spec in ("Q", "q", "QQ"):
        return QQ
    m = _GF2K_RE.match(spec)
    if m:
        return BinaryField(int(m.group(1)))
    m = _GF_RE.match(spec)
    if m:
        n = int(m.group(1))
        if _is_prime(n):
            return PrimeField(n)
        k = n.bit_length() - 1
        if n == 2**k:
            return BinaryField(k)
        raise FieldError("gf%d: %d is neither prime nor a power of 2" % (n, n))
    raise FieldError("unknown field descriptor %r" % spec)
