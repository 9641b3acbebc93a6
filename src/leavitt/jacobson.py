"""The algebraic Toeplitz (Jacobson) algebra A = <x, y | xy = 1>.

Canonical basis: monomials y^i x^j (the relation is oriented xy -> 1, which
strictly shortens words, so rewriting terminates and products of basis
monomials are again basis monomials).  The faithful matrix model sends
y to the lower shift and x to the upper shift on an N x N index space;
elements of the ideal generated by 1 - yx become finitary matrices.
`AlmostToeplitzMatrix`, a `linalg.SparseElement` like `JacobsonElement`,
keys finitary entries (i, j), i, j >= 1, and diagonals (0, k) in one dict.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .expr import parse_expression
from .linalg import SpanBasis, SparseElement, accumulate, invert_block

__all__ = [
    "JacobsonElement",
    "AlmostToeplitzMatrix",
    "JacobsonError",
    "jac_one",
    "jac_x",
    "jac_y",
    "jac_monomial",
    "jac_parse",
    "jac_matrix_unit",
    "jac_to_matrix",
    "jac_quotient_laurent",
    "DescentState",
    "descent_measure",
    "corner_dimension",
    "corner_dimensions",
    "splitting_probe",
    "RefutationCertificate",
]


class JacobsonError(ValueError):
    pass


class JacobsonElement(SparseElement):
    """Finite-support map (i, j) -> nonzero raw field value, meaning
    sum a_ij y^i x^j."""

    __slots__ = ()
    _error = JacobsonError
    _mismatch = "elements over different fields"

    # aliased into the class dict, where the benchmark's tracer counts it
    __mul__ = SparseElement.__mul__

    @staticmethod
    def _pair(ctx, k1, k2):
        # (y^i x^j)(y^k x^l) = y^(i + max(0, k-j)) x^(l + max(0, j-k))
        (i, j), (k, l) = k1, k2
        return ((1, (i + max(0, k - j), l + max(0, j - k))),)

    def _check_key(self, key):
        if not (type(key) is tuple and len(key) == 2 and type(key[0]) is type(key[1]) is int
                and min(key) >= 0):
            raise JacobsonError("monomial key %r is not a pair of integers >= 0" % (key,))

    def format(self):
        parts = []
        for (i, j) in sorted(self.terms):
            word = " ".join(["y"] * i + ["x"] * j) or "1"
            cs = self.field.to_str(self.terms[(i, j)])
            parts.append(word if cs == "1" else "%s %s" % (cs, word))
        return " + ".join(parts) or "0"


def jac_one(field):
    return JacobsonElement._make(field, {(0, 0): field.one()})


def jac_x(field):
    return JacobsonElement._make(field, {(0, 1): field.one()})


def jac_y(field):
    return JacobsonElement._make(field, {(1, 0): field.one()})


def jac_monomial(field, i, j, coeff=None):
    return JacobsonElement(field, {(i, j): coeff if coeff is not None else field.one()})


def jac_matrix_unit(field, i, j):
    """e_ij = y^(i-1) (1 - yx) x^(j-1), expanded to normal form."""
    if i < 1 or j < 1:
        raise JacobsonError("matrix unit indices must be >= 1")
    one = field.one()
    return JacobsonElement._make(field, {(i - 1, j - 1): one, (i, j): field.neg(one)})


_JTOKEN_RE = re.compile(r"\s+|(?P<scalar>\d+(?:/\d+)?)|(?P<id>[xy])|(?P<op>[+\-*()])")


def jac_parse(text, field):
    """Parse a word expression over x, y with coefficients into normal form
    (grammar in `leavitt.expr`); "xy" is the word x y."""

    def atom(val, pos):
        return jac_x(field) if val == "x" else jac_y(field)

    return parse_expression(text, _JTOKEN_RE, atom, lambda: jac_one(field), field)


_FINITARY_KEY = "matrix unit indices must be >= 1 integers: finitary key %r"


class AlmostToeplitzMatrix(SparseElement):
    """Exact N x N matrix of the form (finitary) + sum_k b_k c^(k).

    c^(k) is the constant diagonal sum_{j-i=k} e_ij over rows and columns
    >= 1.  One `terms` dict holds both parts: key (i, j) with i, j >= 1 is
    the finitary entry e_ij, key (0, k) is b_k.  Row 0 is never a matrix
    row, so the two cannot collide, and j - i is the diagonal of every key.
    The class is closed under add, mul and transpose; band-band products
    re-enter the form with an explicit finitary correction, so no
    truncation ever happens.
    """

    __slots__ = ()
    _error = JacobsonError
    _mismatch = "matrices over different fields"

    def __init__(self, field, finitary=None, band=None):
        terms = dict(finitary or {})
        # row 0 holds the band, so a finitary key there is no matrix entry
        for key in terms:
            if type(key) is tuple and len(key) == 2 and key[0] == 0:
                raise JacobsonError(_FINITARY_KEY % (key,))
        terms.update(((0, k), c) for k, c in (band or {}).items())
        super().__init__(field, terms)

    def _check_key(self, key):
        # __init__ keeps finitary keys out of row 0: (0, k) is the band offset k
        if type(key) is tuple and len(key) == 2:
            i, j = key
            if type(i) is type(j) is int and (i == 0 or i >= 1 and j >= 1):
                return
            if type(i) is int and i == 0:
                raise JacobsonError("band offset %r is not an integer" % (j,))
        raise JacobsonError(_FINITARY_KEY % (key,))

    @classmethod
    def zero(cls, field):
        return cls._make(field, {})

    @classmethod
    def identity(cls, field):
        return cls._make(field, {(0, 0): field.one()})

    @classmethod
    def unit(cls, field, i, j, coeff=None):
        return cls(field, {(i, j): coeff if coeff is not None else field.one()})

    @classmethod
    def shift_down(cls, field):
        """The matrix sum e_{i+1,i} (image of y)."""
        return cls._make(field, {(0, -1): field.one()})

    @classmethod
    def shift_up(cls, field):
        """The matrix sum e_{i,i+1} (image of x)."""
        return cls._make(field, {(0, 1): field.one()})

    def entry(self, i, j):
        return self.field.add(self.terms.get((0, j - i), 0), self.terms.get((i, j), 0))

    def __mul__(self, other):
        self._compat(other)
        band, rows = {}, {}
        for (a, b), c in other.terms.items():
            if a:
                rows.setdefault(a, []).append((b, c))
            else:
                band[b] = c
        out, add, mul, neg = {}, self.field.add, self.field.mul, self.field.neg
        for (i, j), c1 in self.terms.items():
            if i:
                # e_ij c^(k) = e_{i, j+k}
                for k, c2 in band.items():
                    if j + k >= 1:
                        accumulate(out, (i, j + k), mul(c1, c2), add)
                # e_ij e_jb = e_ib
                for b, c2 in rows.get(j, ()):
                    accumulate(out, (i, b), mul(c1, c2), add)
                continue
            # key (0, j) is c^(j); c^(j) c^(l) = c^(j+l) minus the rows
            # whose middle index r + j would fall below 1
            for l, c2 in band.items():
                c = mul(c1, c2)
                accumulate(out, (0, j + l), c, add)
                if j < 0:
                    c = neg(c)
                    for r in range(max(1, 1 - (j + l)), -j + 1):
                        accumulate(out, (r, r + j + l), c, add)
            # c^(j) e_ab = e_{a-j, b}
            for a, row in rows.items():
                if a - j >= 1:
                    for b, c2 in row:
                        accumulate(out, (a - j, b), mul(c1, c2), add)
        return self._make(self.field, out)

    def transpose(self):
        return self._make(
            self.field, {(j, i) if i else (0, -j): c for (i, j), c in self.terms.items()}
        )

    def is_finitary(self):
        return all(i for i, _ in self.terms)

    def is_symmetric(self):
        return self == self.transpose()

    def identity_scalar(self):
        """alpha when the matrix is alpha Id + finitary, else None."""
        alpha = self.terms.get((0, 0))
        return alpha if alpha and all(i or not k for i, k in self.terms) else None

    def support_bound(self):
        """Least n with all finitary entries inside the n x n corner."""
        return max((max(k) for k in self.terms if k[0]), default=0)

    def block(self, n):
        """Dense n x n top-left block as lists of raw values."""
        return [[self.entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]

    def to_json(self):
        s, items = self.field.to_str, sorted(self.terms.items())
        return {
            "finitary": [[i, j, s(c)] for (i, j), c in items if i],
            "band": [[k, s(c)] for (i, k), c in items if not i],
        }

    def __repr__(self):
        s, items = self.field.to_str, sorted(self.terms.items())
        return "AlmostToeplitz(band=%r, finitary=%r)" % (
            {k: s(c) for (i, k), c in items if not i},
            {k: s(c) for k, c in items if k[0]},
        )


def invert_id_plus_finitary(m):
    """Inverse of a matrix of the form alpha Id + finitary; None if singular.

    Works on the finite block where the matrix differs from its diagonal
    scalar; outside it the inverse is alpha^-1 Id.
    """
    alpha = m.identity_scalar()
    if alpha is None:
        raise JacobsonError("matrix is not of the form alpha Id + finitary")
    field = m.field
    inv_alpha = field.inv(alpha)
    terms = {(0, 0): inv_alpha}
    n = m.support_bound()
    inv_block = invert_block(field, m.block(n), n)
    if inv_block is None:
        return None
    for i, row in enumerate(inv_block):
        row[i] = field.sub(row[i], inv_alpha)
        for j, c in enumerate(row):
            if c:
                terms[(i + 1, j + 1)] = c
    return AlmostToeplitzMatrix._make(field, terms)


def jac_to_matrix(a):
    """Faithful homomorphism y -> lower shift, x -> upper shift.

    y^i x^j maps to sum_{r >= 1} e_{r+i, r+j}: the band c^(j-i) minus its
    rows i - min(i, j) + 1 .. i.
    """
    field = a.field
    out, add, neg = {}, field.add, field.neg
    for (i, j), c in a.terms.items():
        accumulate(out, (0, j - i), c, add)
        c = neg(c)
        for r in range(i - min(i, j) + 1, i + 1):
            accumulate(out, (r, r + j - i), c, add)
    return AlmostToeplitzMatrix._make(field, out)


def jac_quotient_laurent(a):
    """Quotient map y -> t, x -> t^-1 onto F[t, t^-1]."""
    from .laurent import LaurentPoly

    out, add = {}, a.field.add
    for (i, j), c in a.terms.items():
        accumulate(out, i - j, c, add)
    return LaurentPoly._make(a.field, out)


@dataclass
class DescentState:
    P: set  # row-index set P(b)
    measures: list  # |a|, |b a|, ... until membership in rho
    N: int  # first k with b^k a in rho


def _rows_outside(m, P):
    return [i for i, _ in m.terms if i and i not in P]


def descent_measure(a, b, extra_steps=5):
    """Trace the descent of |b^k a| into the right ideal rho.

    a must be a finitary element (in the matrix-unit span); b must map to
    t^-1 in the Laurent quotient, i.e. b = x + finitary part.  Returns the
    strictly decreasing measure sequence and the first index N with
    b^N a in rho, having checked membership up to N + extra_steps.
    """
    from .laurent import LaurentPoly

    field = a.field
    if jac_quotient_laurent(b) != LaurentPoly.monomial(field, -1):
        raise JacobsonError("b does not map to t^-1 in the quotient")
    ma = jac_to_matrix(a)
    if not ma.is_finitary():
        raise JacobsonError("a is not in the finitary ideal")
    b_fin = jac_to_matrix(b - jac_x(field))
    if not b_fin.is_finitary():
        raise JacobsonError("b - x is not finitary")
    P = {i for i, _ in b_fin.terms}
    measures = []
    current = a
    k = 0
    while True:
        outside = _rows_outside(jac_to_matrix(current), P)
        if not outside:
            break
        measures.append(max(outside))
        current = b * current
        k += 1
        if k > 10000:
            raise AssertionError("descent did not terminate")
    N = max(k, 1)
    # confirm stability: b^k a stays in rho for a few more steps
    probe = current
    for _ in range(extra_steps):
        probe = b * probe
        if _rows_outside(jac_to_matrix(probe), P):
            raise AssertionError("membership in rho not stable")
    return DescentState(P=P, measures=measures, N=N)


def corner_dimensions(field, n):
    """[dim span{(1 - yx) w : w a word of length <= m} for m = 0..n].

    Every word of length <= m normalizes to some y^i x^j with i + j <= m,
    so degree m adds (1 - yx) y^i x^(m-i) to one span basis, whose rank
    is then the m-th dimension.
    """
    e11, one = jac_matrix_unit(field, 1, 1), field.one()
    basis = SpanBasis(field)
    dims = []
    for m in range(n + 1):
        for i in range(m + 1):
            el = e11 * JacobsonElement._make(field, {(i, m - i): one})
            if el:
                basis.add(el.coordinates())
        dims.append(basis.rank)
    return dims


def corner_dimension(field, n):
    """dim span{(1 - yx) w : w a word of length <= n}, computed by rank."""
    return corner_dimensions(field, n)[-1] if n >= 0 else 0


@dataclass
class RefutationCertificate:
    kind: str  # "closure_failure" | "dimension_contradiction"
    truncation: int
    P_rows: set
    P_cols: set
    dim_rho_cap_sigma: int
    corner_dims: list  # corner_dimensions(n)
    witness: JacobsonElement | None = None

    def to_dict(self):
        return {
            "kind": self.kind,
            "truncation": self.truncation,
            "P_rows": sorted(self.P_rows),
            "P_cols": sorted(self.P_cols),
            "dim_rho_cap_sigma": self.dim_rho_cap_sigma,
            "corner_dims": list(self.corner_dims),
            "witness": self.witness.format() if self.witness else None,
        }


def splitting_probe(b1, bm1, b0, n):
    """Refute a candidate splitting of the finitary ideal extension.

    The candidate is a triple mapping to (t^-1, t, 1) in the Laurent
    quotient, with b0 the would-be identity of the lifted subalgebra.
    Either the triple fails to close (b1 bm1 != b0, impossible for a
    genuine lift), or the corner dimensions (1 - yx) A grow past the
    finite bound dim(rho intersect sigma) that a splitting would force.
    """
    from .laurent import LaurentPoly

    field = b1.field
    if jac_quotient_laurent(b1) != LaurentPoly.monomial(field, -1):
        raise JacobsonError("b1 does not map to t^-1")
    if jac_quotient_laurent(bm1) != LaurentPoly.monomial(field, 1):
        raise JacobsonError("bm1 does not map to t")
    if jac_quotient_laurent(b0) != LaurentPoly.one(field):
        raise JacobsonError("b0 does not map to 1")
    p_rows = {i for i, _ in jac_to_matrix(b1 - jac_x(field)).terms if i}
    p_cols = {j for i, j in jac_to_matrix(bm1 - jac_y(field)).terms if i}
    dim_rs = len(p_rows) * len(p_cols)
    corner_dims = corner_dimensions(field, n)
    closure_defect = b1 * bm1 - b0
    if closure_defect:
        kind = "closure_failure"
    elif corner_dims[-1] > dim_rs:
        kind = "dimension_contradiction"
    else:
        raise JacobsonError(
            "truncation %d too small to exhibit a contradiction; increase n" % n
        )
    return RefutationCertificate(
        kind=kind,
        truncation=n,
        P_rows=p_rows,
        P_cols=p_cols,
        dim_rho_cap_sigma=dim_rs,
        corner_dims=corner_dims,
        witness=closure_defect or None,
    )
