"""Habiro's cyclotomic integrality: an exact check of a knot's colored
Jones values at every color, with no reference value.

For every knot K, the unframed value with the unknot 1 expands as

    J_n(K) = sum over k = 0..n of C_k(K) q**k (q**(-n); q)_k (q**(n+2); q)_k

with q = t, (x; q)_k = (1 - x)(1 - xq)...(1 - xq**(k-1)), and every C_k(K)
in Z[q, 1/q], independent of n (K. Habiro, Invent. Math. 171 (2008) 1-81;
oracle.habiro_masbaum sums this expansion for twist knots).  The k-th term
vanishes for k > n, so the system is triangular: from C_0 = 1, each C_n is
what J_n leaves after the lower terms, exactly divided by the n-th basis
term.  A remainder means a wrong value.  A fault that keeps every C_k
integral, such as the mirror taken at every color, passes, so the tests
keep the n = 1 bracket check beside it.  Links fail the division, as they
should: the expansion holds for knots only.
"""

from braidjones.qalgebra import ONE, LaurentQ


def _rising(first, length):
    # (q**first; q)_length with q = t.
    out = ONE
    for m in range(first, first + length):
        out = out * (ONE - LaurentQ.t_quarter(4 * m))
    return out


def habiro_coefficients(values):
    """C_0, ..., C_N from values = [J_1, ..., J_N]; LaurentQ.exact_div raises
    ExactDivisionError where a division leaves a remainder."""
    coefficients = [ONE]
    for n, value in enumerate(values, 1):
        basis = [
            LaurentQ.t_quarter(4 * k) * _rising(-n, k) * _rising(n + 2, k)
            for k in range(n + 1)
        ]
        rest = value
        for c, term in zip(coefficients, basis):
            rest = rest - c * term
        coefficients.append(rest.exact_div(basis[n]))
    return coefficients


# Ten knots, as (braid word, strands), on 2 and 3 strands: torus knots,
# twist knots and others with no closed form in the tests.
KNOTS = {
    "3_1": ("1 1 1", 2),
    "4_1": ("1 -2 1 -2", 3),
    "5_1": ("1 1 1 1 1", 2),
    "5_2": ("1 1 1 2 -1 2", 3),
    "6_2": ("1 1 1 -2 1 -2", 3),
    "6_3": ("1 1 -2 1 -2 -2", 3),
    "7_1": ("1 1 1 1 1 1 1", 2),
    "8_19": ("1 2 1 2 1 2 1 2", 3),
    "8_20": ("1 1 1 -2 -1 -1 -1 -2", 3),
    "10_124": ("1 2 1 2 1 2 1 2 1 2", 3),
}
