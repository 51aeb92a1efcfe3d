"""Exact Laurent polynomial arithmetic in t**(1/4) and packed symbols.

Every value the state sums produce lives in Z[t**(1/4), t**(-1/4)].  A
polynomial is stored as a dict mapping the exponent, counted in integer
quarter units, to an arbitrary-precision integer coefficient.  Writing
v = t**(1/2) and {a} = v**a - v**(-a), the quantum integer [a] = {a} / {1}
is qint, which the oracles read.  The other quantum symbols, as
polynomials, belong to the enumeration reference (states), which no
value request loads.

pack and unpack carry a polynomial whose exponents all agree mod 4 (one
slot per whole power of t) as a single integer by Kronecker substitution,
t -> 2**K: the product of two packed values is their integer product, and
unpacking is exact while every coefficient lies in (-2**(K-1), 2**(K-1)).

Substituting t -> 2**K is a ring homomorphism from Z[t] to Z: the image
of a product is the product of the images, whatever the size of the
coefficients.  Every weight of both vertex tables is +-t**(lo/4) times a
Gaussian binomial [a, b]_t and a falling product
(1 - t**m)(1 - t**(m-1)) ... (1 - t**(m-r+1)), with lo in closed form
(statesum), so only those two symbols are packed here, as integers built
without the polynomials: packed_gauss as the integer quotient
[a-1, b-1] (2**(K a) - 1) // (2**(K b) - 1), exact because the polynomial
quotient is (P = Q D gives P(2**K) = Q(2**K) D(2**K)), and packed_falling
as an integer product.  Both have constant term 1, so lo = 0, and each
equals pack(symbol, K)[1] whenever its coefficients fit K-bit slots;
otherwise it is still the symbol's image at t = 2**K, which is all a
product of packed values needs until its result is decoded.
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
        other = _lift(other)
        if not isinstance(other, LaurentQ):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # A constant equals its integer, so it must hash like it.
        if self._terms.keys() <= {0}:
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "LaurentQ | int") -> "LaurentQ":
        out = dict(self._terms)
        for q, c in _lift(other)._terms.items():
            s = out.get(q, 0) + c
            if s:
                out[q] = s
            else:
                out.pop(q, None)
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentQ":
        return _wrap({q: -c for q, c in self._terms.items()})

    def __sub__(self, other: "LaurentQ | int") -> "LaurentQ":
        return self + (-_lift(other))

    def __rsub__(self, other: "LaurentQ | int") -> "LaurentQ":
        return (-self) + other

    def __mul__(self, other: "LaurentQ | int") -> "LaurentQ":
        other = _lift(other)
        out: dict[int, int] = {}
        for q1, c1 in self._terms.items():
            for q2, c2 in other._terms.items():
                q = q1 + q2
                s = out.get(q, 0) + c1 * c2
                if s:
                    out[q] = s
                else:
                    out.pop(q, None)
        return _wrap(out)

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
        return _wrap({-q: c for q, c in self._terms.items()})

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
        return LaurentQ(out)

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


def _wrap(terms: dict[int, int]) -> LaurentQ:
    """The LaurentQ of a dict with no zero coefficient, taken without a copy."""
    res = LaurentQ.__new__(LaurentQ)
    res._terms = terms
    return res


def _lift(x: LaurentQ | int) -> LaurentQ:
    """An int operand as a constant LaurentQ; anything else as it is."""
    return LaurentQ.from_int(x) if isinstance(x, int) else x


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
    return _wrap(terms)


@lru_cache(maxsize=None)
def qint(a: int) -> LaurentQ:
    """[a] = {a}/{1} = v**(a-1) + v**(a-3) + ... + v**(1-a)."""
    if a < 0:
        return -qint(-a)
    return LaurentQ({2 * (a - 1) - 4 * k: 1 for k in range(a)})


# Packed symbols at K = k: plain ints, each the image at t = 2**K of a
# polynomial in t with constant term 1, so lo = 0 (see the module
# docstring).  Cached per K, bounded like the packed vertex rows that read
# them; each new entry costs one product, and one quotient for [a, b].
@lru_cache(maxsize=4096)
def packed_gauss(a: int, b: int, k: int) -> int:
    """The Gaussian binomial [a, b]_t at t = 2**k, for 0 <= b <= a:
    [a-1, b-1] (t**a - 1) / (t**b - 1), 1 for b = 0.  Raises
    ExactDivisionError when the integer quotient leaves a remainder."""
    if not b:
        return 1
    num = packed_gauss(a - 1, b - 1, k) * ((1 << (k * a)) - 1)
    n, rem = divmod(num, (1 << (k * b)) - 1)
    if rem:
        raise ExactDivisionError(f"non-exact packed division in [{a}, {b}] at K = {k}")
    return n


@lru_cache(maxsize=4096)
def packed_falling(m: int, r: int, k: int) -> int:
    """(1 - t**m)(1 - t**(m-1)) ... (1 - t**(m-r+1)) at t = 2**k, for
    0 <= r <= m; 1 for r = 0."""
    if not r:
        return 1
    return (1 - (1 << (k * m))) * packed_falling(m - 1, r - 1, k)
