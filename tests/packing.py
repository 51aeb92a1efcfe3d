"""Vertex tables for the tests, written as rows of LaurentQ weights.

The sweep reads tables whose rows are already packed at K (statesum.Table).
A test that needs its own table, healthy or custom, writes its rows as
LaurentQ weights and packs them with packed(); one that needs a broken
model replaces weights of its descriptor (statesum.Descriptor) with
replaced().  assert_rows_decode checks the packed model tables against
these reference weights, and assert_exponent_class_law checks them against
the law that lets the sweep key its layer on colors alone (statesum module
docstring).  Both read rows at K = 2n + 2, which holds every coefficient
of a model weight: each is at most the weight's bound C(A, B) * 2**r, with
A, r <= n, so below 2**(2n).
"""

from braidjones.qalgebra import pack, unpack
from braidjones.states import _gl_vertex, _rmatrix_vertex
from braidjones.statesum import _gl_row, _max_jump, _rmatrix_row, _unit_row


def packed(step):
    """The table that reads step(n, sign, a, b), the row's LaurentQ weights
    by jump, and packs each at K after the left color b + sign*r it leaves,
    with its L1 norm as its bound.  pack raises ArithmeticError on a weight
    it cannot hold at K."""

    def table(n, sign, a, b, k):
        return tuple(
            (b + sign * r,) + pack(w, k) + (w.l1_norm(),)
            for r, w in enumerate(step(n, sign, a, b))
        )

    return table


def replaced(shape, weights):
    """The descriptor that reads shape, except at the entries (n, sign, a,
    b, jump) that weights maps to a weight of its own."""

    def descriptor(*entry):
        weight = weights.get(entry)
        return shape(*entry) if weight is None else weight

    return descriptor


def rmatrix_step(n, sign, i, j):
    """The R-matrix row of the reference weights, by jump."""
    top = _max_jump(n, sign, i, j)
    return tuple(_rmatrix_vertex(n, sign, i, j, r) for r in range(top + 1))


def gl_step(n, sign, a, b):
    """The arc-transition row of the reference weights, by jump, read in
    the R-matrix frame as the packed table reads it."""
    tld, under = (n - a, n - b) if sign > 0 else (n - b, n - a)
    top = _max_jump(n, sign, a, b)
    return tuple(_gl_vertex(n, sign, under - r, r, tld) for r in range(top + 1))


def assert_rows_decode(colors):
    """Assert, at each color n and both signs, that every row of _rmatrix_row
    and _gl_row, packed at K = 2n + 2, decodes to rmatrix_step and gl_step,
    each weight after the left color it leaves: this pins each weight's
    closed-form lowest exponent and sign."""
    for n in colors:
        k = 2 * n + 2
        for sign in (1, -1):
            for a in range(n + 1):
                for b in range(n + 1):
                    for name, row, step in (
                        ("rmatrix", _rmatrix_row, rmatrix_step),
                        ("gl", _gl_row, gl_step),
                    ):
                        weights = step(n, sign, a, b)
                        expected = [(b + sign * r, w) for r, w in enumerate(weights)]
                        got = [
                            (left, unpack(lo, w, k))
                            for left, lo, w, _ in row(n, sign, a, b, k)
                        ]
                        assert got == expected, (name, n, sign, a, b)


# Each table's potential Phi(n, c) on a color vector c, and its class kappa
# (n, sign), in the law lo = Phi(out) - Phi(in) + kappa (mod 4).  A row is
# read on strands 0 and 1: the change of Phi at a crossing does not depend
# on its generator.
LAWS = {
    "rmatrix": (
        _rmatrix_row,
        lambda n, c: sum(x * x + 2 * n * p * x for p, x in enumerate(c)),
        lambda n, sign: -sign * n * n,
    ),
    "gl": (
        _gl_row,
        lambda n, c: -2 * sum(x * (n - x) for x in c),
        lambda n, sign: -sign * n * n,
    ),
    "unit": (_unit_row, lambda n, c: 0, lambda n, sign: 0),
}


def assert_exponent_class_law(colors):
    """Assert, for every table in LAWS at each color n and both signs, that
    every step of every row, packed at K = 2n + 2, has its lowest quarter
    exponent lo in the class the law gives."""
    for n in colors:
        k = 2 * n + 2
        for sign in (1, -1):
            for name, (table, phi, kappa) in LAWS.items():
                classes = {
                    (lo - phi(n, (left, a + b - left)) + phi(n, (a, b))) % 4
                    for a in range(n + 1)
                    for b in range(n + 1)
                    for left, lo, _, _ in table(n, sign, a, b, k)
                }
                expected = {kappa(n, sign) % 4}
                assert classes == expected, (name, n, sign, classes)
