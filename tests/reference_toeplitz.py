"""Reference almost-Toeplitz layer: the two-dict implementation, kept as an oracle.

These are the product, transpose, sum and diagonal conjugation of
`leavitt.jacobson.AlmostToeplitzMatrix` and `jac_to_matrix` as they were
when a matrix held two dicts: `fin` mapping (i, j), i, j >= 1, to the entry
of e_ij, and `band` mapping k to the coefficient of the constant diagonal
c^(k).  They work on plain dicts of raw values of a field and keep their
own accumulate, so they share no code with the class they check.
"""


def _acc(out, key, c, add):
    c = add(out.get(key, 0), c)
    if c:
        out[key] = c
    else:
        out.pop(key, None)


def split(m):
    """(fin, band) of an `AlmostToeplitzMatrix`, read off its one `terms`
    dict, where key (i, j), i >= 1, is e_ij and key (0, k) is c^(k)."""
    fin = {k: c for k, c in m.terms.items() if k[0]}
    band = {k: c for (i, k), c in m.terms.items() if not i}
    return fin, band


def mul(field, a, b):
    """(fin, band) of the product of the matrices a = (fin, band) and b."""
    (fa, ba), (fb, bb) = a, b
    fin, band = {}, {}
    plus, times, neg = field.add, field.mul, field.neg
    # band x band: c^(k) c^(l) = c^(k+l) minus the rows whose middle
    # index i + k would fall below 1
    for k, c1 in ba.items():
        for l, c2 in bb.items():
            c = times(c1, c2)
            _acc(band, k + l, c, plus)
            if k < 0:
                c = neg(c)
                for i in range(max(1, 1 - (k + l)), -k + 1):
                    _acc(fin, (i, i + k + l), c, plus)
    # band x finitary: c^(k) e_ab = e_{a-k, b}
    for k, c1 in ba.items():
        for (a, b), c2 in fb.items():
            if a - k >= 1:
                _acc(fin, (a - k, b), times(c1, c2), plus)
    # finitary x band: e_ab c^(k) = e_{a, b+k}
    for (a, b), c1 in fa.items():
        for k, c2 in bb.items():
            if b + k >= 1:
                _acc(fin, (a, b + k), times(c1, c2), plus)
    # finitary x finitary
    cols = {}
    for (a, b), c in fb.items():
        cols.setdefault(a, []).append((b, c))
    for (a, b), c1 in fa.items():
        for (b2, c2) in cols.get(b, []):
            _acc(fin, (a, b2), times(c1, c2), plus)
    return fin, band


def add(field, a, b):
    (fa, ba), (fb, bb) = a, b
    fin, band = dict(fa), dict(ba)
    for out, terms in ((fin, fb), (band, bb)):
        for k, c in terms.items():
            _acc(out, k, c, field.add)
    return fin, band


def transpose(a):
    fin, band = a
    return {(j, i): c for (i, j), c in fin.items()}, {-k: c for k, c in band.items()}


def pi_conjugate(field, alpha, a):
    """Entry (i, j) times alpha^(j-i), band k times alpha^k."""
    fin, band = a

    def power(k):
        base = alpha if k >= 0 else field.inv(alpha)
        r = field.one()
        for _ in range(abs(k)):
            r = field.mul(r, base)
        return r

    return (
        {(i, j): field.mul(c, power(j - i)) for (i, j), c in fin.items()},
        {k: field.mul(c, power(k)) for k, c in band.items()},
    )


def jac_to_matrix(field, terms):
    """(fin, band) of sum c y^i x^j for terms {(i, j): c}: y^i x^j is the
    band c^(j-i) minus its rows i - min(i, j) + 1 .. i."""
    fin, band, plus, neg = {}, {}, field.add, field.neg
    for (i, j), c in terms.items():
        _acc(band, j - i, c, plus)
        c = neg(c)
        for r in range(i - min(i, j) + 1, i + 1):
            _acc(fin, (r, r + j - i), c, plus)
    return fin, band
