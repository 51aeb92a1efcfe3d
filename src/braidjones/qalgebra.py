"""Exact Laurent polynomial arithmetic in t**(1/4) and quantum symbols.

Every value the state sums produce lives in Z[t**(1/4), t**(-1/4)].  A
polynomial is stored as a dict mapping the exponent, counted in integer
quarter units, to an arbitrary-precision integer coefficient.  Writing
v = t**(1/2), the quantum symbols are

    {a}   = v**a - v**(-a)
    [a]   = {a} / {1}
    {a}_b = {a} {a-1} ... {a-b+1}        ({a}_0 = 1, {a}_b = 0 for b < 0)

together with their sign-dependent variants

    {a}_{b,t^e}      = prod_{s=0}^{b-1} (1 - t**(e*(a-s)))
    (a choose b)_t^e = prod_{s=0}^{b-1} (t**(e*(a-s)) - 1) / (t**(e*s') - 1)

and the quantum binomial (a choose b) = {a}_b / {b}_b, computed by exact
division.  The signed variants are implemented independently of the plain
ones so the conversion identities can be tested rather than assumed.

pack and unpack carry a polynomial whose exponents all agree mod 4 (one
slot per whole power of t) as a single integer by Kronecker substitution,
t -> 2**K: the product of two packed values is their integer product, and
unpacking is exact while every coefficient lies in (-2**(K-1), 2**(K-1)).

Substituting t -> 2**K is a ring homomorphism from Z[t] to Z, and (lo, N)
extends it to t**(lo/4) Z[t]: the lo of a product is the sum of the lo's
and its N the product of the N's, exactly, whatever the size of the
coefficients.  So the packed symbols below are built as integers without
building the polynomials: {a} and 1 - t**m in closed form, the Pochhammer
symbols as integer products of those, and both q-binomials as integer
quotients.  A quotient is exact because the polynomial quotient is: if
P = Q D then N(P) = N(Q) N(D), so N(Q) = N(P) // N(D) with no remainder,
and lo(Q) = lo(P) - lo(D) since lowest terms multiply.  Each lo is the
symbol's lowest exponent, so a packed symbol equals pack(symbol, K)
whenever its coefficients fit K-bit slots, and otherwise it is still the
symbol's image at t = 2**K, which is all a product of packed values needs
until its result is decoded.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator


class ExactDivisionError(ArithmeticError):
    """Raised when a Laurent division leaves a remainder."""


def _reduced_power(quarter: int) -> str:
    """Render t**(quarter/4) with the exponent fraction reduced."""
    if quarter % 4 == 0:
        num, den = quarter // 4, 1
    elif quarter % 2 == 0:
        num, den = quarter // 2, 2
    else:
        num, den = quarter, 4
    if den == 1:
        if num == 1:
            return "t"
        if num > 0:
            return f"t^{num}"
        return f"t^({num})"
    return f"t^({num}/{den})"


class LaurentQ:
    """Immutable exact Laurent polynomial in t with exponents in (1/4)Z."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, int] | None = None) -> None:
        if terms is None:
            self._terms: dict[int, int] = {}
        else:
            self._terms = {q: c for q, c in terms.items() if c != 0}

    @classmethod
    def zero(cls) -> "LaurentQ":
        return cls()

    @classmethod
    def one(cls) -> "LaurentQ":
        return cls({0: 1})

    @classmethod
    def from_int(cls, c: int) -> "LaurentQ":
        return cls({0: c})

    @classmethod
    def monomial(cls, coeff: int, quarter: int) -> "LaurentQ":
        """coeff * t**(quarter/4)."""
        return cls({quarter: coeff})

    @classmethod
    def t_quarter(cls, quarter: int) -> "LaurentQ":
        """t**(quarter/4)."""
        return cls({quarter: 1})

    def terms(self) -> list[tuple[int, int]]:
        """(quarter-exponent, coefficient) pairs, ascending exponent."""
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, quarter: int) -> int:
        return self._terms.get(quarter, 0)

    def l1_norm(self) -> int:
        """Sum of the absolute values of the coefficients."""
        return sum(abs(c) for c in self._terms.values())

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.terms())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentQ.from_int(other)
        if not isinstance(other, LaurentQ):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # A constant equals its integer, so it must hash like it.
        if self._terms.keys() <= {0}:
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "LaurentQ | int") -> "LaurentQ":
        if isinstance(other, int):
            other = LaurentQ.from_int(other)
        out = dict(self._terms)
        for q, c in other._terms.items():
            s = out.get(q, 0) + c
            if s:
                out[q] = s
            else:
                out.pop(q, None)
        res = LaurentQ.__new__(LaurentQ)
        res._terms = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "LaurentQ":
        res = LaurentQ.__new__(LaurentQ)
        res._terms = {q: -c for q, c in self._terms.items()}
        return res

    def __sub__(self, other: "LaurentQ | int") -> "LaurentQ":
        if isinstance(other, int):
            other = LaurentQ.from_int(other)
        return self + (-other)

    def __rsub__(self, other: "LaurentQ | int") -> "LaurentQ":
        return (-self) + other

    def __mul__(self, other: "LaurentQ | int") -> "LaurentQ":
        if isinstance(other, int):
            other = LaurentQ.from_int(other)
        out: dict[int, int] = {}
        for q1, c1 in self._terms.items():
            for q2, c2 in other._terms.items():
                q = q1 + q2
                s = out.get(q, 0) + c1 * c2
                if s:
                    out[q] = s
                else:
                    out.pop(q, None)
        res = LaurentQ.__new__(LaurentQ)
        res._terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentQ":
        if k < 0:
            raise ValueError("negative powers are not defined for LaurentQ")
        out = LaurentQ.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def substitute_inverse(self) -> "LaurentQ":
        """The image under t -> t**(-1)."""
        res = LaurentQ.__new__(LaurentQ)
        res._terms = {-q: c for q, c in self._terms.items()}
        return res

    def exact_div(self, divisor: "LaurentQ") -> "LaurentQ":
        """Exact quotient self / divisor; raises ExactDivisionError otherwise."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentQ.zero()
        rem = dict(self._terms)
        dq = max(divisor._terms)
        dc = divisor._terms[dq]
        div_items = list(divisor._terms.items())
        # An exact quotient's support is bounded below; passing the bound
        # means the division cannot close and would otherwise never stop.
        low = min(self._terms) - min(divisor._terms)
        out: dict[int, int] = {}
        while rem:
            q = max(rem)
            c = rem[q]
            if c % dc != 0 or q - dq < low:
                raise ExactDivisionError(f"non-exact division at t^({q}/4)")
            fq, fc = q - dq, c // dc
            out[fq] = out.get(fq, 0) + fc
            for q2, c2 in div_items:
                qq = q2 + fq
                s = rem.get(qq, 0) - fc * c2
                if s:
                    rem[qq] = s
                else:
                    rem.pop(qq, None)
        res = LaurentQ.__new__(LaurentQ)
        res._terms = {q: c for q, c in out.items() if c != 0}
        return res

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for q, c in self.terms():
            if q == 0:
                parts.append(str(c))
                continue
            power = _reduced_power(q)
            if c == 1:
                parts.append(power)
            elif c == -1:
                parts.append(f"-{power}")
            else:
                parts.append(f"{c}*{power}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"LaurentQ({self._terms!r})"


ZERO = LaurentQ.zero()
ONE = LaurentQ.one()


def pack(poly: LaurentQ, k: int) -> tuple[int, int]:
    """Kronecker-pack poly into (lo, N) with N = sum c * 2**(k*(q-lo)/4).

    lo is the lowest quarter exponent (0 for the zero polynomial).  Raises
    ArithmeticError unless every exponent is congruent to lo mod 4 and
    every |coefficient| is below 2**(k-1), so unpack(lo, N, k) == poly.
    """
    terms = poly._terms
    if not terms:
        return 0, 0
    lo = min(terms)
    half = 1 << (k - 1)
    packed = 0
    for q, c in terms.items():
        if (q - lo) & 3:
            raise ArithmeticError(f"exponents of {poly} are not congruent mod 4")
        if not -half < c < half:
            raise ArithmeticError(f"coefficient {c} does not fit {k}-bit slots")
        packed += c << (k * ((q - lo) >> 2))
    return lo, packed


def unpack(lo: int, packed: int, k: int) -> LaurentQ:
    """Decode (lo, N) from pack, reading each k-bit slot as a signed
    coefficient and borrowing from the slot above."""
    mask = (1 << k) - 1
    half = 1 << (k - 1)
    terms: dict[int, int] = {}
    q = lo
    while packed:
        c = packed & mask
        packed >>= k
        if c >= half:
            c -= 1 << k
            packed += 1
        if c:
            terms[q] = c
        q += 4
    res = LaurentQ.__new__(LaurentQ)
    res._terms = terms
    return res


@lru_cache(maxsize=None)
def qbrace(a: int) -> LaurentQ:
    """{a} = v**a - v**(-a)."""
    if a == 0:
        return ZERO
    return LaurentQ({2 * a: 1, -2 * a: -1})


@lru_cache(maxsize=None)
def qint(a: int) -> LaurentQ:
    """[a] = {a}/{1} = v**(a-1) + v**(a-3) + ... + v**(1-a)."""
    if a < 0:
        return -qint(-a)
    return LaurentQ({2 * (a - 1) - 4 * k: 1 for k in range(a)})


@lru_cache(maxsize=None)
def pochhammer(a: int, b: int) -> LaurentQ:
    """{a}_b = {a}{a-1}...{a-b+1}; 1 for b = 0, 0 for b < 0."""
    if b < 0:
        return ZERO
    out = ONE
    for s in range(b):
        out = out * qbrace(a - s)
    return out


@lru_cache(maxsize=None)
def pochhammer_signed(a: int, b: int, eps: int) -> LaurentQ:
    """{a}_{b,t^eps} = prod_{s=0}^{b-1} (1 - t**(eps*(a-s)))."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if b < 0:
        return ZERO
    out = ONE
    for s in range(b):
        out = out * (ONE - LaurentQ.t_quarter(4 * eps * (a - s)))
    return out


@lru_cache(maxsize=None)
def qbinom(a: int, b: int) -> LaurentQ:
    """(a choose b) = {a}_b / {b}_b, by exact division."""
    if b < 0:
        return ZERO
    if b == 0:
        return ONE
    return pochhammer(a, b).exact_div(pochhammer(b, b))

@lru_cache(maxsize=None)
def qbinom_signed(a: int, b: int, eps: int) -> LaurentQ:
    """(a choose b)_{t^eps} = prod (t**(eps*(a-s)) - 1) / prod (t**(eps*s) - 1)."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if b < 0:
        return ZERO
    num = ONE
    for s in range(b):
        num = num * (LaurentQ.t_quarter(4 * eps * (a - s)) - ONE)
    den = ONE
    for s in range(1, b + 1):
        den = den * (LaurentQ.t_quarter(4 * eps * s) - ONE)
    return num.exact_div(den)


# Packed symbols: (lo, N) as pack returns them, at K = k (see the module
# docstring).  The recursive ones are cached per K, bounded like the packed
# vertex rows that read them; each new entry costs one product, and one
# quotient for a q-binomial.
Packed = tuple[int, int]


def _times(x: Packed, y: Packed) -> Packed:
    n = x[1] * y[1]
    return (x[0] + y[0], n) if n else (0, 0)


def packed_div(x: Packed, y: Packed) -> Packed:
    """The exact quotient x / y of packed values; raises ExactDivisionError
    when the integer quotient leaves a remainder."""
    if not y[1]:
        raise ZeroDivisionError("division by the zero polynomial")
    n, rem = divmod(x[1], y[1])
    if rem:
        raise ExactDivisionError(f"non-exact packed division of {x} by {y}")
    return (x[0] - y[0], n) if n else (0, 0)


def packed_qbrace(a: int, k: int) -> Packed:
    """{a} = v**a - v**(-a) packed at K = k, in closed form."""
    if a == 0:
        return 0, 0
    if a > 0:
        return -2 * a, (1 << (k * a)) - 1
    return 2 * a, 1 - (1 << (-k * a))


def packed_one_minus(m: int, k: int) -> Packed:
    """1 - t**m packed at K = k, in closed form."""
    if m == 0:
        return 0, 0
    if m > 0:
        return 0, 1 - (1 << (k * m))
    return 4 * m, (1 << (-k * m)) - 1


@lru_cache(maxsize=4096)
def packed_pochhammer(a: int, b: int, k: int) -> Packed:
    """{a}_b packed at K = k: {a} times {a-1}_{b-1}."""
    if b <= 0:
        return (0, 1) if b == 0 else (0, 0)
    return _times(packed_qbrace(a, k), packed_pochhammer(a - 1, b - 1, k))


@lru_cache(maxsize=4096)
def packed_pochhammer_signed(a: int, b: int, eps: int, k: int) -> Packed:
    """{a}_{b,t^eps} packed at K = k: (1 - t**(eps*a)) times
    {a-1}_{b-1,t^eps}."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if b <= 0:
        return (0, 1) if b == 0 else (0, 0)
    return _times(
        packed_one_minus(eps * a, k), packed_pochhammer_signed(a - 1, b - 1, eps, k)
    )


@lru_cache(maxsize=4096)
def packed_qbinom(a: int, b: int, k: int) -> Packed:
    """(a choose b) packed at K = k: (a-1 choose b-1) {a} / {b}."""
    if b <= 0:
        return (0, 1) if b == 0 else (0, 0)
    step = _times(packed_qbinom(a - 1, b - 1, k), packed_qbrace(a, k))
    return packed_div(step, packed_qbrace(b, k))


@lru_cache(maxsize=4096)
def packed_qbinom_signed(a: int, b: int, eps: int, k: int) -> Packed:
    """(a choose b)_{t^eps} packed at K = k: (a-1 choose b-1)_{t^eps}
    (1 - t**(eps*a)) / (1 - t**(eps*b))."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if b <= 0:
        return (0, 1) if b == 0 else (0, 0)
    step = _times(
        packed_qbinom_signed(a - 1, b - 1, eps, k), packed_one_minus(eps * a, k)
    )
    return packed_div(step, packed_one_minus(eps * b, k))
