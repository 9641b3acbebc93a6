"""Automorphism group of the shift algebra and involution classification."""

import random

import pytest

from leavitt.fields import make_field
from leavitt.jacobson import AlmostToeplitzMatrix, invert_id_plus_finitary
from leavitt.automorphisms import (
    AutomorphismError,
    Involution,
    NoSquareRootError,
    ToeplitzAutomorphism,
    aut_apply,
    aut_compose,
    aut_invert,
    congruence_decompose,
    induced_scalar,
    involution_apply,
    involution_equivalence,
    pi_conjugate,
    reconstruct_conjugator,
)

from .reference_toeplitz import split


def rand_conjugator(rng, field, corner=4, entries=3):
    g = AlmostToeplitzMatrix.identity(field)
    for _ in range(entries):
        i, j = rng.randint(1, corner), rng.randint(1, corner)
        if i == j:
            continue
        c = field.from_int(rng.randint(-3, 3))
        if c:
            g = g + AlmostToeplitzMatrix.unit(field, i, j, c)
    if invert_id_plus_finitary(g) is None:
        return AlmostToeplitzMatrix.identity(field)
    return g


def rand_alpha(rng, field, fname):
    if fname == "Q":
        n = rng.choice([1, 2, 3, -1, -2])
        d = rng.choice([1, 2, 3])
        return field.parse("%d/%d" % (n, d))
    while True:
        a = field.from_int(rng.randint(1, 4))
        if a:
            return a


def rand_target(rng, field):
    which = rng.randint(0, 2)
    if which == 0:
        return AlmostToeplitzMatrix.shift_down(field)
    if which == 1:
        return AlmostToeplitzMatrix.shift_up(field)
    return AlmostToeplitzMatrix.unit(field, rng.randint(1, 3), rng.randint(1, 3))


def test_pi_conjugate_examples():
    field = make_field("Q")
    c = AlmostToeplitzMatrix.shift_down(field)
    alpha = field.from_int(3)
    out = pi_conjugate(alpha, c)
    assert split(out)[1] == {-1: field.parse("1/3")}
    e = AlmostToeplitzMatrix.unit(field, 2, 5)
    assert split(pi_conjugate(alpha, e))[0] == {(2, 5): field.from_int(27)}


@pytest.mark.parametrize("fname", ["Q", "gf5"])
def test_compose_is_action_composition(fname):
    field = make_field(fname)
    rng = random.Random(fname == "Q" and 808 or 809)
    for _ in range(40):
        phi = ToeplitzAutomorphism(rand_alpha(rng, field, fname), rand_conjugator(rng, field))
        psi = ToeplitzAutomorphism(rand_alpha(rng, field, fname), rand_conjugator(rng, field))
        a = rand_target(rng, field)
        assert aut_apply(aut_compose(phi, psi), a) == aut_apply(psi, aut_apply(phi, a))


@pytest.mark.parametrize("fname", ["Q", "gf5"])
def test_invert(fname):
    field = make_field(fname)
    rng = random.Random(2024)
    ident = ToeplitzAutomorphism.identity(field)
    for _ in range(25):
        phi = ToeplitzAutomorphism(rand_alpha(rng, field, fname), rand_conjugator(rng, field))
        inv = aut_invert(phi)
        for a in (
            AlmostToeplitzMatrix.shift_down(field),
            AlmostToeplitzMatrix.unit(field, 1, 1),
        ):
            assert aut_apply(inv, aut_apply(phi, a)) == a
        composed = aut_compose(phi, inv)
        assert aut_apply(composed, AlmostToeplitzMatrix.shift_down(field)) == aut_apply(
            ident, AlmostToeplitzMatrix.shift_down(field)
        )


def test_induced_scalar():
    field = make_field("Q")
    phi = ToeplitzAutomorphism(field.from_int(3), AlmostToeplitzMatrix.identity(field))
    assert induced_scalar(phi) == field.parse("1/3")
    # multiplicative under composition
    psi = ToeplitzAutomorphism(field.parse("1/2"), AlmostToeplitzMatrix.identity(field))
    assert induced_scalar(aut_compose(phi, psi)) == induced_scalar(phi) * induced_scalar(psi)


def test_conjugator_invariance_of_scalar():
    field = make_field("gf5")
    rng = random.Random(606)
    for _ in range(10):
        g = rand_conjugator(rng, field)
        phi = ToeplitzAutomorphism(field.from_int(2), g)
        assert induced_scalar(phi) == field.inv(field.from_int(2))


def _hidden_images(field, S, m):
    """phi(e_j1), phi(e_1j) for the hidden conjugator S."""
    S_inv = invert_id_plus_finitary(S)
    images = {}
    for j in range(1, m + 1):
        images[("col", j)] = S_inv * AlmostToeplitzMatrix.unit(field, j, 1) * S
        images[("row", j)] = S_inv * AlmostToeplitzMatrix.unit(field, 1, j) * S
    return images


@pytest.mark.parametrize("fname", ["Q", "gf5"])
def test_reconstruct_conjugator(fname):
    field = make_field(fname)
    rng = random.Random(321)
    m = 6
    for _ in range(20):
        S_hidden = rand_conjugator(rng, field, corner=m - 1)
        images = _hidden_images(field, S_hidden, m)
        S = reconstruct_conjugator(field, images, m)
        # recovered up to scalar: S S_hidden^-1 is scalar on the corner
        ratio = S * invert_id_plus_finitary(S_hidden)
        lam = split(ratio)[1].get(0)
        assert lam
        assert not split(ratio)[0]


def test_reconstruct_permutation_conjugator():
    """A conjugator with zeros on the corner diagonal (a swap of 1 and 2)."""
    field = make_field("Q")
    one = field.one()
    swap = AlmostToeplitzMatrix(
        field, {(1, 1): -one, (2, 2): -one, (1, 2): one, (2, 1): one}, {0: one}
    )
    for m in (3, 4):
        S = reconstruct_conjugator(field, _hidden_images(field, swap, m), m)
        assert S == swap


def test_reconstruct_rejects_bad_images():
    field = make_field("Q")
    images = _hidden_images(
        field, AlmostToeplitzMatrix.identity(field) + AlmostToeplitzMatrix.unit(field, 1, 2), 4
    )
    images[("row", 2)] = AlmostToeplitzMatrix.unit(field, 2, 2)
    with pytest.raises(AutomorphismError):
        reconstruct_conjugator(field, images, 4)


def test_standard_involution():
    field = make_field("gf2")
    iota = Involution.standard(field)
    c = AlmostToeplitzMatrix.shift_down(field)
    assert involution_apply(iota, c) == c.transpose()
    a = c + AlmostToeplitzMatrix.unit(field, 1, 3)
    assert involution_apply(iota, involution_apply(iota, a)) == a


def test_involution_antimultiplicative():
    field = make_field("gf2^2")
    T = AlmostToeplitzMatrix.identity(field) + AlmostToeplitzMatrix.unit(
        field, 1, 1, field.parse("x")
    ) + AlmostToeplitzMatrix.unit(field, 1, 2) + AlmostToeplitzMatrix.unit(field, 2, 1)
    iota = Involution(T)
    rng = random.Random(77)
    elems = field.elements()
    for _ in range(30):
        a = AlmostToeplitzMatrix.unit(field, rng.randint(1, 3), rng.randint(1, 3), rng.choice(elems[1:]))
        b = AlmostToeplitzMatrix.shift_down(field) + AlmostToeplitzMatrix.unit(field, 2, 2, rng.choice(elems[1:]))
        assert involution_apply(iota, a * b) == involution_apply(iota, b) * involution_apply(iota, a)


def _rand_symmetric_T(rng, field, corner=3):
    elems = [e for e in field.elements() if e]
    T = AlmostToeplitzMatrix.identity(field)
    for i in range(1, corner + 1):
        for j in range(i, corner + 1):
            if rng.random() < 0.5:
                c = rng.choice(elems)
                T = T + AlmostToeplitzMatrix.unit(field, i, j, c)
                if i != j:
                    T = T + AlmostToeplitzMatrix.unit(field, j, i, c)
    if invert_id_plus_finitary(T) is None:
        return None
    return T


@pytest.mark.parametrize("fname", ["gf2", "gf2^2"])
def test_congruence_decompose_random(fname):
    field = make_field(fname)
    rng = random.Random(fname == "gf2" and 10 or 20)
    done = 0
    while done < 25:
        T = _rand_symmetric_T(rng, field)
        if T is None:
            continue
        try:
            Q = congruence_decompose(T)
        except AutomorphismError:
            continue
        assert Q.transpose() * Q == T
        done += 1


def test_involution_equivalence_intertwines():
    field = make_field("gf2")
    T = (
        AlmostToeplitzMatrix.identity(field)
        + AlmostToeplitzMatrix.unit(field, 1, 2)
        + AlmostToeplitzMatrix.unit(field, 2, 1)
        + AlmostToeplitzMatrix.unit(field, 2, 2)
    )
    iota = Involution(T)
    Q = involution_equivalence(iota)
    std = Involution.standard(field)
    Q_inv = invert_id_plus_finitary(Q)
    rng = random.Random(5)
    for _ in range(50):
        a = AlmostToeplitzMatrix.unit(field, rng.randint(1, 4), rng.randint(1, 4))
        if rng.random() < 0.3:
            a = a + AlmostToeplitzMatrix.shift_up(field)
        # conjugation by Q carries iota to the standard involution
        lhs = Q * involution_apply(iota, a) * Q_inv
        rhs = involution_apply(std, Q * a * Q_inv)
        assert lhs == rhs


def test_no_square_root_over_Q():
    field = make_field("Q")
    T = AlmostToeplitzMatrix.identity(field).scale(field.from_int(2))
    with pytest.raises(NoSquareRootError):
        congruence_decompose(T)


def test_each_conjugator_is_inverted_once(monkeypatch):
    """The singularity check's inverse is kept and reused; it stays out of
    equality, repr and to_dict."""
    import leavitt.automorphisms as au

    field = make_field("gf5")
    calls = []

    def counting(m):
        calls.append(m)
        return invert_id_plus_finitary(m)

    monkeypatch.setattr(au, "invert_id_plus_finitary", counting)
    g = AlmostToeplitzMatrix.identity(field) + AlmostToeplitzMatrix.unit(field, 1, 2, 3)
    phi = ToeplitzAutomorphism(2, g)
    assert len(calls) == 1
    assert phi.g_inv * g == AlmostToeplitzMatrix.identity(field)
    c = AlmostToeplitzMatrix.shift_down(field)
    aut_apply(phi, c)
    aut_apply(phi, c)
    assert len(calls) == 1
    assert aut_apply(phi, aut_apply(aut_invert(phi), c)) == c
    assert len(calls) == 2  # the check of the inverse automorphism's conjugator
    assert phi == ToeplitzAutomorphism(2, g)
    assert "g_inv" not in repr(phi) and "g_inv" not in phi.to_dict()
    T = AlmostToeplitzMatrix.identity(field) + AlmostToeplitzMatrix.unit(field, 1, 1, 1)
    iota = Involution(T)
    calls.clear()
    assert involution_apply(iota, involution_apply(iota, c)) == c
    assert calls == []
    assert "T_inv" not in repr(iota)
