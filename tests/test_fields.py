"""Field arithmetic, parsing, square roots, the GF(2^k) modulus table and
the GF(2^k) exp/log tables, checked against a shift-and-reduce multiply."""

import random
from fractions import Fraction

import pytest

from leavitt.fields import (
    MODULI,
    BinaryField,
    FieldError,
    PrimeField,
    _exp_log,
    make_field,
)


def test_make_field_descriptors():
    assert make_field("Q") is make_field("q")
    assert make_field("gf5") == PrimeField(5)
    assert make_field("gf2") == PrimeField(2)
    assert make_field("gf2^3") == BinaryField(3)
    assert make_field("gf8") == BinaryField(3)
    with pytest.raises(FieldError):
        make_field("gf6")
    with pytest.raises(FieldError):
        make_field("nonsense")
    # 13 digits and more are refused before any primality test or int()
    for spec in ("gf1000000000039", "gf" + "7" * 5000, "gf2^" + "1" * 5000):
        with pytest.raises(FieldError):
            make_field(spec)


def test_rational_arithmetic():
    f = make_field("Q")
    a = f.parse("2/3")
    b = f.parse("5")
    assert f.mul(a, b) == Fraction(10, 3)
    assert f.div(a, b) == Fraction(2, 15)
    assert f.sub(a, a) == 0
    assert f.to_str(f.parse("-7/2")) == "-7/2"


def test_rational_sqrt():
    f = make_field("Q")
    assert f.sqrt(f.parse("4/9")) == f.parse("2/3")
    assert f.sqrt(f.parse("0")) == f.zero()
    for text in ("2", "-1", "1/2"):
        with pytest.raises(FieldError, match="^no square root of %s in the field$" % text):
            f.sqrt(f.parse(text))


def test_prime_field_basics():
    f = PrimeField(5)
    assert f.mul(f.from_int(3), f.from_int(4)) == 2
    assert f.div(f.from_int(1), f.from_int(3)) == 2
    # every element of GF(2) has a square root (Frobenius is onto)
    g = PrimeField(2)
    for a in g.elements():
        assert g.mul(g.sqrt(a), g.sqrt(a)) == a


def test_prime_field_sqrt_unsupported():
    f = PrimeField(5)
    with pytest.raises(FieldError):
        f.sqrt(f.from_int(4))


def test_gf4_worked_example():
    f = BinaryField(2)
    x = f.parse("x")
    assert f.mul(x, x) == f.parse("x+1")
    s = f.sqrt(x)
    assert s == f.parse("x+1")
    assert f.mul(s, s) == x


def test_binary_field_sqrt_is_frobenius_inverse():
    for k in (2, 3, 4):
        f = BinaryField(k)
        for a in f.elements():
            s = f.sqrt(a)
            assert f.mul(s, s) == a


def test_binary_field_parse_roundtrip():
    f = BinaryField(4)
    for a in f.elements():
        assert f.parse(f.to_str(a)) == a


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_binary_field_parse_reduces_exponents(k):
    """x^e is x^(e mod 2^k - 1), so a large exponent costs nothing."""
    f = BinaryField(k)
    power = 1
    for e in range(3 * f.order + 2):
        assert f.parse("x^%d" % e) == power
        power = _ref_mul(power, 2, k)
    assert f.parse("x^%d+1" % (10**30 * f.order + 3)) == f.parse("x^3+1")
    with pytest.raises(FieldError):
        f.parse("x^" + "9" * 5000)


def test_field_axioms_random():
    rng = random.Random(20240501)
    fields = [make_field("Q"), PrimeField(7), BinaryField(3)]
    for f in fields:
        if f == make_field("Q"):
            pick = lambda: f.parse("%d/%d" % (rng.randint(-9, 9), rng.randint(1, 9)))
        else:
            elems = f.elements()
            pick = lambda: rng.choice(elems)
        add, mul = f.add, f.mul
        for _ in range(60):
            a, b, c = pick(), pick(), pick()
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
            if b:
                assert mul(f.div(a, b), b) == a


def _is_irreducible_gf2(mask, k):
    """Check irreducibility of the degree-k bitmask polynomial over GF(2).

    x^(2^k) = x in the quotient and x^(2^(k/p)) != x for each prime p | k
    is equivalent to irreducibility for the field-defining modulus.
    """

    def mulmod(a, b):
        out = 0
        while b:
            if b & 1:
                out ^= a
            b >>= 1
            a <<= 1
            if a >> k & 1:
                a ^= mask
        return out

    def frob_power(e):
        # x^(2^e) mod mask by repeated squaring of x
        v = 0b10
        for _ in range(e):
            v = mulmod(v, v)
        return v

    if frob_power(k) != 0b10:
        return False
    for p in range(2, k + 1):
        if k % p == 0 and all(p % q for q in range(2, p)):
            if frob_power(k // p) == 0b10:
                return False
    return True


def test_moduli_table_irreducible():
    assert sorted(MODULI) == list(range(1, 17))
    for k, mask in MODULI.items():
        assert mask >> k == 1, "modulus must have degree k"
        if k == 1:
            assert mask in (0b10, 0b11)
            continue
        assert _is_irreducible_gf2(mask, k)


def _ref_mul(a, b, k):
    """a b in GF(2^k) by shift and add, reducing by MODULI[k] bit by bit."""
    mask = MODULI[k]
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> k & 1:
            a ^= mask
    return out


def _ref_pow(a, e, k):
    r = 1
    while e:
        if e & 1:
            r = _ref_mul(r, a, k)
        a = _ref_mul(a, a, k)
        e >>= 1
    return r


def _prime_factors(n):
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


@pytest.mark.parametrize("k", range(1, 9))
def test_binary_tables_match_shift_and_reduce_on_every_pair(k):
    f = BinaryField(k)
    elems = f.elements()
    for a in elems:
        for b in elems:
            assert f.mul(a, b) == _ref_mul(a, b, k)
        if a:
            assert _ref_mul(a, f.inv(a), k) == 1
            assert f.div(a, a) == 1
        s = f.sqrt(a)
        assert _ref_mul(s, s, k) == a


@pytest.mark.parametrize("k", range(9, 17))
def test_binary_tables_match_shift_and_reduce_on_random_pairs(k):
    f = BinaryField(k)
    rng = random.Random(900 + k)
    for _ in range(2000):
        a, b = rng.randrange(2**k), rng.randrange(2**k)
        assert f.mul(a, b) == _ref_mul(a, b, k)
        if b:
            assert _ref_mul(f.div(a, b), b, k) == a
            assert _ref_mul(b, f.inv(b), k) == 1
        s = f.sqrt(a)
        assert _ref_mul(s, s, k) == a


@pytest.mark.parametrize("k", range(1, 17))
def test_table_generator_is_primitive(k):
    exp, log = _exp_log(k)
    order = 2**k - 1
    g = exp[1 % order]
    assert _ref_pow(g, order, k) == 1
    for p in _prime_factors(order):
        assert _ref_pow(g, order // p, k) != 1
    assert sorted(exp[:order]) == list(range(1, 2**k))
    assert all(exp[log[a]] == a for a in range(1, 2**k))


def test_x_is_not_primitive_for_the_k8_modulus():
    assert _ref_pow(0b10, 51, 8) == 1
    assert _exp_log(8)[0][1] != 0b10


def test_check_value_rejects_foreign_values():
    cases = [
        (make_field("Q"), [2, -3, Fraction(1, 2)], [1.5, "1", True, None]),
        (PrimeField(5), [0, 4], [5, -1, Fraction(1, 2), True]),
        (BinaryField(8), [0, 255], [256, -1, 2.0]),
    ]
    for f, good, bad in cases:
        for c in good:
            assert f.check_value(c) == c
        for c in bad:
            with pytest.raises(FieldError):
                f.check_value(c)
    # Q keeps integral values as ints
    assert type(make_field("Q").check_value(Fraction(4, 2))) is int
    assert type(make_field("Q").div(6, 3)) is int
