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
    terms = poly.terms()
    if not terms:
        return 0, 0
    lo = terms[0][0]
    half = 1 << (k - 1)
    packed = 0
    for q, c in terms:
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
