"""Vertex tables for the tests, written as rows of LaurentQ weights.

The sweep and the certificate read tables whose rows are already packed at
K (statesum.Table).  A test that needs its own table, healthy, custom or
broken, writes its rows as LaurentQ weights and packs them with packed().
"""

from braidjones.qalgebra import pack
from braidjones.statesum import _gl_vertex, _max_jump, _rmatrix_vertex


def packed(step):
    """The table that reads step(n, sign, a, b), the row's LaurentQ weights
    by jump, and packs each at K after the left color b + sign*r it leaves.
    pack raises ArithmeticError on a weight it cannot hold at K."""

    def table(n, sign, a, b, k):
        return tuple(
            (b + sign * r,) + pack(w, k) for r, w in enumerate(step(n, sign, a, b))
        )

    return table


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
