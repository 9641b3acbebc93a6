"""Automorphisms and involutions of the Toeplitz algebra in its matrix model.

An automorphism is stored as a pair (alpha, g): a nonzero scalar acting
through the geometric diagonal diag(1, alpha, alpha^2, ...) and an
invertible finitary perturbation of the identity.  The diagonal is never
materialized; its conjugation action scales entry (i, j) by alpha^(j-i),
which keeps everything inside the almost-Toeplitz forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .fields import FieldError
from .jacobson import AlmostToeplitzMatrix, invert_id_plus_finitary
from .linalg import accumulate

__all__ = [
    "ToeplitzAutomorphism",
    "Involution",
    "AutomorphismError",
    "pi_conjugate",
    "aut_apply",
    "aut_compose",
    "aut_invert",
    "induced_scalar",
    "reconstruct_conjugator",
    "involution_apply",
    "congruence_decompose",
    "involution_equivalence",
    "StuckAlternatingBlock",
]


class AutomorphismError(ValueError):
    pass


class StuckAlternatingBlock(AutomorphismError):
    """Symmetric elimination met an all-zero diagonal block it cannot pivot."""


def _scalar_pow(field, alpha, n):
    """alpha^n for a nonzero alpha and any integer n, by squaring."""
    if n < 0:
        alpha, n = field.inv(alpha), -n
    r = field.one()
    while n:
        if n & 1:
            r = field.mul(r, alpha)
        alpha = field.mul(alpha, alpha)
        n >>= 1
    return r


def pi_conjugate(alpha, m):
    """diag(1, alpha, alpha^2, ...)^-1 . m . diag(...): every key (i, j) of
    `m.terms`, the band keys (0, k) included, picks up alpha^(j-i)."""
    field = m.field
    if not alpha:
        raise AutomorphismError("alpha must be nonzero")
    powers = {k: _scalar_pow(field, alpha, k) for k in {j - i for i, j in m.terms}}
    mul = field.mul
    terms = {(i, j): mul(c, powers[j - i]) for (i, j), c in m.terms.items()}
    return AlmostToeplitzMatrix._make(field, terms)


@dataclass(frozen=True)
class ToeplitzAutomorphism:
    """Conjugation by pi(alpha) g with g = Id + finitary, invertible."""

    alpha: object  # nonzero value of g.field
    g: AlmostToeplitzMatrix
    # g^-1, made by the singularity check and reused by aut_apply/aut_invert
    g_inv: AlmostToeplitzMatrix = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha", self.g.field.check_value(self.alpha))
        if not self.alpha:
            raise AutomorphismError("alpha must be nonzero")
        # the inverter tests the form alpha Id + finitary; alpha must be 1
        g_inv = invert_id_plus_finitary(self.g)
        if self.g.terms[(0, 0)] != self.g.field.one():
            raise AutomorphismError("g must be Id + finitary")
        if g_inv is None:
            raise AutomorphismError("g is singular")
        object.__setattr__(self, "g_inv", g_inv)

    @classmethod
    def identity(cls, field):
        return cls(field.one(), AlmostToeplitzMatrix.identity(field))

    def to_dict(self):
        return {"alpha": self.g.field.to_str(self.alpha), "g": self.g.to_json()}


def aut_apply(phi, a):
    """phi acting on a: (pi(alpha) g)^-1 . a . (pi(alpha) g), exactly."""
    return phi.g_inv * pi_conjugate(phi.alpha, a) * phi.g


def aut_compose(phi, psi):
    """The automorphism acting as phi followed by psi.

    Conjugators multiply: pi(a) g . pi(b) h = pi(ab) . (pi(b)^-1 g pi(b)) . h,
    and the middle factor stays Id + finitary, which keeps the semidirect
    normal form explicit.
    """
    g_moved = pi_conjugate(psi.alpha, phi.g)
    return ToeplitzAutomorphism(phi.g.field.mul(phi.alpha, psi.alpha), g_moved * psi.g)


def aut_invert(phi):
    alpha_inv = phi.g.field.inv(phi.alpha)
    return ToeplitzAutomorphism(alpha_inv, pi_conjugate(alpha_inv, phi.g_inv))


def induced_scalar(phi):
    """The scalar a of the induced quotient map t -> a t (read off the
    band of the image of the lower shift; always alpha^-1 here)."""
    field = phi.g.field
    c = AlmostToeplitzMatrix.shift_down(field)
    image = aut_apply(phi, c)
    a = image.terms.get((0, -1), field.zero())
    assert a == field.inv(phi.alpha), "quotient scalar must be alpha^-1"
    band = {k for i, k in image.terms if not i}
    assert band == {-1}, "image of the shift must stay single-banded"
    return a


def reconstruct_conjugator(field, images, m):
    """Recover the conjugator from the images of e_j1 and e_1j, j <= m.

    images: dict with keys ("col", j) -> phi(e_j1) and ("row", j) -> phi(e_1j)
    as finitary AlmostToeplitzMatrix values.  Returns S, normalized so the
    first nonzero entry of its first column is 1, with
    phi(e_ij) = S^-1 e_ij S on the corner.  S is unique up to a scalar.

    The conjugator is assumed to be scalar (Id + finitary) with the
    perturbation supported strictly inside the m-corner; that is the only
    shape expressible in the almost-Toeplitz return type.
    """
    e11_img = images[("col", 1)]
    if images[("row", 1)] != e11_img:
        raise AutomorphismError("inconsistent images of the corner idempotent")
    if e11_img * e11_img != e11_img:
        raise AutomorphismError("image of e_11 is not idempotent")
    for j in range(1, m + 1):
        prod = images[("row", j)] * images[("col", j)]
        if prod != e11_img:
            raise AutomorphismError(
                "images violate e_1%d e_%d1 = e_11" % (j, j)
            )
        if not images[("col", j)] * images[("row", j)]:
            raise AutomorphismError("image of e_%d%d vanished" % (j, j))
    # fixed vector: a nonzero column of the idempotent phi(e_11)
    cols = {}
    for (i, j), c in e11_img.terms.items():
        if i:
            cols.setdefault(j, {})[i] = c
    if not cols:
        raise AutomorphismError("no fixed vector for the corner idempotent")
    w = cols[min(cols)]
    # columns of M: M eps_j = phi(e_j1) w; then phi(a) = M a M^-1 and the
    # conjugator in the orientation phi(a) = S^-1 a S is M^-1
    fin, add, mul = {}, field.add, field.mul
    for j in range(1, m + 1):
        vec = {}
        for (r, c), coeff in images[("col", j)].terms.items():
            if r and c in w:
                accumulate(vec, r, mul(coeff, w[c]), add)
        if not vec:
            raise AutomorphismError("degenerate image of e_%d1" % j)
        fin.update(((r, j), c) for r, c in vec.items())
    # beyond the given corner the conjugator is assumed scalar; infer the
    # scalar from the deepest available diagonal entry
    lam = fin.get((m, m))
    if not lam:
        raise AutomorphismError(
            "corner too small: column %d has no diagonal entry" % m
        )
    # M = lam Id + finitary: columns 1..m are exactly the vectors above
    minus_lam = field.neg(lam)
    for j in range(1, m + 1):
        accumulate(fin, (j, j), minus_lam, add)
    fin[(0, 0)] = lam
    M_scaled = AlmostToeplitzMatrix._make(field, fin).scale(field.inv(lam))
    S = invert_id_plus_finitary(M_scaled)
    if S is None:
        raise AutomorphismError("reconstructed conjugator is singular")
    # gauge: first nonzero entry of the first column equals 1
    first_col = {i: c for (i, j), c in S.terms.items() if i and j == 1}
    accumulate(first_col, 1, S.identity_scalar(), add)
    if not first_col:
        raise AutomorphismError("reconstructed conjugator has a zero column")
    pivot = first_col[min(first_col)]
    S = S.scale(field.inv(pivot))
    # verify on the corner; S is (M / lam)^-1 / pivot, so S^-1 needs no solve
    S_inv = M_scaled.scale(pivot)
    for i in range(1, m + 1):
        expected = S_inv * AlmostToeplitzMatrix.unit(field, i, 1) * S
        if expected != images[("col", i)]:
            raise AutomorphismError("reconstruction failed on e_%d1" % i)
        expected = S_inv * AlmostToeplitzMatrix.unit(field, 1, i) * S
        if expected != images[("row", i)]:
            raise AutomorphismError("reconstruction failed on e_1%d" % i)
    return S


@dataclass(frozen=True)
class Involution:
    """a -> T^-1 a^t T for a symmetric invertible T = alpha Id + finitary."""

    T: AlmostToeplitzMatrix
    # T^-1, made by the singularity check and reused by involution_apply
    T_inv: AlmostToeplitzMatrix = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        T_inv = invert_id_plus_finitary(self.T)  # tests the form alpha Id + finitary
        if not self.T.is_symmetric():
            raise AutomorphismError("T must be symmetric")
        if T_inv is None:
            raise AutomorphismError("T is singular")
        object.__setattr__(self, "T_inv", T_inv)

    @classmethod
    def standard(cls, field):
        return cls(AlmostToeplitzMatrix.identity(field))


def involution_apply(iota, a):
    return iota.T_inv * a.transpose() * iota.T


def congruence_decompose(T):
    """Q with Q^t Q = T, for symmetric invertible T = alpha Id + finitary.

    Needs sqrt(alpha) and square roots of the pivots met during symmetric
    elimination on the block where T differs from alpha Id; raises
    NoSquareRootError when the field cannot supply one and StuckAlternatingBlock
    when every remaining diagonal entry vanishes (possible only in
    characteristic 2).
    """
    field = T.field
    alpha = T.identity_scalar()
    if alpha is None:
        raise AutomorphismError("T must be alpha Id + finitary")
    if not T.is_symmetric():
        raise AutomorphismError("T must be symmetric")
    sqrt_alpha = _sqrt(field, alpha)
    n = T.support_bound()
    if n == 0:
        return AlmostToeplitzMatrix(field, band={0: sqrt_alpha})
    # normalize to Id + block and decompose the block
    inv_alpha = field.inv(alpha)
    mul, sub = field.mul, field.sub
    M = [[mul(c, inv_alpha) for c in row] for row in T.block(n)]
    remaining = list(range(n))
    q_rows = []
    while remaining:
        pivot = next((i for i in remaining if M[i][i]), None)
        if pivot is None:
            raise StuckAlternatingBlock(
                "all remaining diagonal entries are zero"
            )
        prow = M[pivot]
        s = _sqrt(field, prow[pivot])
        inv_piv, inv_s = field.inv(prow[pivot]), field.inv(s)
        row = {j: mul(prow[j], inv_s) for j in remaining if prow[j]}
        q_rows.append(row)
        remaining.remove(pivot)
        for i in remaining:
            if M[i][pivot]:
                c = mul(M[i][pivot], inv_piv)
                for j in row:
                    if j != pivot:
                        M[i][j] = sub(M[i][j], mul(c, prow[j]))
    # assemble: Q_block rows stacked in pivot order, block embedded in Id
    one, minus_one = field.one(), field.neg(field.one())
    terms = {(0, 0): one}
    for r, row in enumerate(q_rows, start=1):
        for j, c in row.items():
            terms[(r, j + 1)] = c
    for i in range(1, n + 1):
        accumulate(terms, (i, i), minus_one, field.add)
    Q = AlmostToeplitzMatrix._make(field, terms).scale(sqrt_alpha)
    assert Q.transpose() * Q == T, "congruence decomposition must be exact"
    return Q


class NoSquareRootError(AutomorphismError):
    """The field has no square root of a value, or takes none."""


def _sqrt(field, value):
    """sqrt(value); NoSquareRootError when the field has none or takes none."""
    try:
        return field.sqrt(value)
    except FieldError as exc:
        raise NoSquareRootError(str(exc)) from exc


def involution_equivalence(iota):
    """Q intertwining iota with plain transposition:
    transpose(Q a Q^-1) = Q iota(a) Q^-1 for all a.  Propagates
    NoSquareRootError / StuckAlternatingBlock from the decomposition."""
    return congruence_decompose(iota.T)
