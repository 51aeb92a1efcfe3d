"""Independent cross-checks: a Kauffman-bracket Jones oracle at n=1, the
Rosso-Jones formula for torus knots and the Habiro-Masbaum formula for
twist knots at every color.  None of them imports the closure diagram or
the state models; the paper's identities on integer potentials, which do,
are checked by the tests (tests/identities.py).

The bracket oracle shares nothing with the state models beyond the
braid word itself: it enumerates all 2**c smoothings, counts loops with
a union-find sweep, and applies the writhe correction.  With the
variable choice A = t**(1/4) used here its value on a braid closure is
the standard Jones polynomial evaluated at t**(-1); the engine's n=1
invariant matches it up to a global sign depending only on the parity
of the number of components (see the tests for the frozen law).
"""

from __future__ import annotations

from collections import Counter
from math import gcd

from .braid import BraidWord
from .qalgebra import ONE, ZERO, LaurentQ, qint

_LOOP = LaurentQ({2: -1, -2: -1})


def _check_args(n: int, **knot: int) -> None:
    # The color checks of statesum.check_work, which the oracles share
    # without loading the state models; the knot's parameters must be ints
    # too (a bool is not).
    for name, value in (*knot.items(), ("color", n)):
        if type(value) is not int:
            raise TypeError(f"{name} {value!r} is not an int")
    if n < 1:
        raise ValueError("color n must be >= 1")


def kauffman_jones(b: BraidWord) -> LaurentQ:
    """Jones polynomial of the braid closure from the Kauffman bracket.

    Enumerates every smoothing state, so braids are capped at 20
    crossings.  Unknot-normalized: the empty 1-braid gives 1.
    """
    c = len(b.letters)
    if c > 20:
        raise ValueError("bracket oracle is limited to 20 crossings")
    s = b.strands
    # Union-find over the arcs: the s strand positions, then one node per
    # cup-cap smoothing.
    parent = list(range(s + c))

    def find(x: int) -> int:
        while parent[x] != x:
            # Path halving: point x at its grandparent and step there.
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    bracket = LaurentQ.zero()
    for mask in range(1 << c):
        parent[:] = range(s + c)
        cur = list(range(s))
        nxt = s
        a_minus_b = 0
        for idx, k in enumerate(b.letters):
            g = abs(k)
            pick_b = (mask >> idx) & 1
            a_minus_b += -1 if pick_b else 1
            # A-smoothing of a positive crossing keeps the strands
            # parallel; for a negative crossing the roles swap.
            cupcap = (k > 0) == bool(pick_b)
            if cupcap:
                parent[find(cur[g - 1])] = find(cur[g])
                cur[g - 1] = cur[g] = nxt
                nxt += 1
        for p in range(s):
            parent[find(cur[p])] = find(p)
        loops = sum(parent[x] == x for x in range(nxt))
        bracket = bracket + LaurentQ.t_quarter(a_minus_b) * _LOOP ** (loops - 1)
    w = b.writhe
    sign = -1 if w % 2 else 1
    return bracket * LaurentQ.monomial(sign, -3 * w)


def torus_braid(p: int, q: int) -> BraidWord:
    """T(p, q) as a braid closure: (sigma_1 ... sigma_{p-1})**q, or
    (sigma_{p-1}**-1 ... sigma_1**-1)**|q| when q < 0."""
    if p < 1:
        raise ValueError("a torus braid needs p >= 1 strands")
    if q >= 0:
        return BraidWord(p, tuple(range(1, p)) * q)
    return BraidWord(p, tuple(range(1 - p, 0)) * -q)


def rosso_jones(p: int, q: int, n: int) -> LaurentQ:
    """Framed colored Jones polynomial of the torus knot T(p, q) at color n,
    framed as the closure of torus_braid(p, q), by the Rosso-Jones formula

        [n+1] J = sum over l of c_l [l+1] t**(-q(l(l+2) - p n(n+2))/(4p)),

    where c_l = m(l) - m(l+2) and m(w) counts the weights p(n - 2i),
    i = 0..n, equal to w: the irreducibles of the Adams operation psi^p on
    V_n.  A few quantum-integer products, independent of the state models
    and the sweep.  Knots only: gcd(p, q) must be 1.

    Refs: M. Rosso and V. Jones, J. Knot Theory Ramif. 2 (1993);
    H. R. Morton, Math. Proc. Camb. Phil. Soc. 117 (1995).
    """
    _check_args(n, p=p, q=q)
    if p < 1 or gcd(p, q) != 1:
        raise ValueError("the torus knot T(p, q) needs p >= 1 and gcd(p, q) = 1")
    m = Counter(p * (n - 2 * i) for i in range(n + 1))
    total = ZERO
    for l in range(p * n + 1):
        # c_l is nonzero only at l = pk or pk - 2, where p divides l(l+2)
        if m[l] != m[l + 2]:
            quarter = -q * (l * (l + 2) - p * n * (n + 2)) // p
            total = total + LaurentQ.monomial(m[l] - m[l + 2], quarter) * qint(l + 1)
    return total.exact_div(qint(n + 1))


def habiro_masbaum(p: int, n: int) -> LaurentQ:
    """Colored Jones polynomial of the twist knot K_p at color n, unknot 1
    and framing-independent, in q = t, by Habiro's cyclotomic formula as
    Masbaum derived it for twist knots: with N = n + 1 and (x; q)_k the
    q-Pochhammer symbol (1 - x)(1 - xq)...(1 - xq**(k-1)),

        J = sum over k = 0..N-1 of q**k (q**(1-N); q)_k (q**(1+N); q)_k I_k,
        I_k = sum over j = 0..k of (-1)**j q**(j(j+1)p + j(j-1)/2)
              (1 - q**(2j+1)) (q; q)_k / ((q; q)_{k+j+1} (q; q)_{k-j}).

    I_k is a Laurent polynomial only as a whole: its terms are put over
    (q; q)_{2k+1}, whose quotients by (q; q)_{k+j+1} and (q; q)_{k-j} over
    (q; q)_k are the products (q**(k+j+2); q)_{k-j} (q**(k-j+1); q)_j, and
    divided once.  A few q-Pochhammer products, independent of the state
    models and the sweep.  p = 1 is the trefoil 3_1, p = -1 the figure-eight
    4_1, p = 2 the knot 5_2; p = -2 is the mirror of 6_1, so 6_1 is the
    value with q = t**-1 (substitute_inverse).

    Refs: K. Habiro, RIMS Kokyuroku 1172 (2000); G. Masbaum, Algebr. Geom.
    Topol. 3 (2003) 537-556.
    """
    _check_args(n, p=p)

    def power(m: int) -> LaurentQ:
        return LaurentQ.t_quarter(4 * m)

    def rising(first: int, length: int) -> LaurentQ:
        # (q**first; q)_length
        out = ONE
        for m in range(first, first + length):
            out = out * (ONE - power(m))
        return out

    total = ZERO
    for k in range(n + 1):
        inner = ZERO
        for j in range(k + 1):
            term = power(j * (j + 1) * p + j * (j - 1) // 2) * (ONE - power(2 * j + 1))
            term = term * rising(k + j + 2, k - j) * rising(k - j + 1, j)
            inner = inner - term if j % 2 else inner + term
        inner = inner.exact_div(rising(1, 2 * k + 1))
        total = total + power(k) * rising(-n, k) * rising(n + 2, k) * inner
    return total
