"""Laurent arithmetic and quantum-symbol identities."""

import math
import random

import pytest

from braidjones import qalgebra
from braidjones.qalgebra import (
    ONE,
    ExactDivisionError,
    LaurentQ,
    pack,
    packed_falling,
    packed_gauss,
    qint,
    unpack,
)
from braidjones.states import (
    pochhammer,
    pochhammer_signed,
    qbinom,
    qbinom_signed,
    qbrace,
)


def rand_poly(rng: random.Random) -> LaurentQ:
    return LaurentQ(
        {rng.randint(-8, 8): rng.randint(-5, 5) for _ in range(rng.randint(0, 6))}
    )


def test_ring_axioms():
    rng = random.Random(101)
    zero, one = LaurentQ.zero(), LaurentQ.one()
    for _ in range(200):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        assert a * zero == zero


def test_powers():
    rng = random.Random(102)
    for _ in range(20):
        a = rand_poly(rng)
        assert a**0 == LaurentQ.one()
        assert a**1 == a
        assert a**3 == a * a * a
    with pytest.raises(ValueError):
        LaurentQ.one() ** (-1)


def test_int_mixing():
    a = LaurentQ.t_quarter(4)
    assert a + 1 == LaurentQ({0: 1, 4: 1})
    assert 1 + a == a + 1
    assert 2 * a == LaurentQ({4: 2})
    assert a - 1 == LaurentQ({0: -1, 4: 1})
    assert 1 - a == LaurentQ({0: 1, 4: -1})
    assert LaurentQ.from_int(3) == 3


def test_hash_agrees_with_int_equality():
    for c in (-3, 0, 5):
        assert LaurentQ.from_int(c) == c
        assert hash(LaurentQ.from_int(c)) == hash(c)
        assert len({LaurentQ.from_int(c), c}) == 1
    assert len({LaurentQ.t_quarter(4), LaurentQ({4: 1})}) == 1
    # anything else is not equal, and comparing does not raise
    assert LaurentQ.one() != "x" and not LaurentQ.one() == "x"


def test_substitute_inverse():
    rng = random.Random(103)
    for _ in range(50):
        a, b = rand_poly(rng), rand_poly(rng)
        assert a.substitute_inverse().substitute_inverse() == a
        assert (a * b).substitute_inverse() == a.substitute_inverse() * b.substitute_inverse()
        assert (a + b).substitute_inverse() == a.substitute_inverse() + b.substitute_inverse()


def test_exact_division():
    rng = random.Random(104)
    for _ in range(100):
        a, b = rand_poly(rng), rand_poly(rng)
        if b.is_zero():
            continue
        assert (a * b).exact_div(b) == a
    with pytest.raises(ExactDivisionError):
        (LaurentQ.t_quarter(8) + 1).exact_div(LaurentQ.t_quarter(4) + 1)
    with pytest.raises(ExactDivisionError):
        (LaurentQ.t_quarter(4) + 1).exact_div(LaurentQ.from_int(2))
    with pytest.raises(ZeroDivisionError):
        LaurentQ.one().exact_div(LaurentQ.zero())
    assert LaurentQ.zero().exact_div(LaurentQ.t_quarter(2)) == LaurentQ.zero()


def test_rendering():
    assert str(LaurentQ.zero()) == "0"
    assert str(LaurentQ.one()) == "1"
    assert str(LaurentQ.from_int(-1)) == "-1"
    assert str(LaurentQ.t_quarter(4)) == "t"
    assert str(LaurentQ.t_quarter(8)) == "t^2"
    assert str(LaurentQ.t_quarter(2)) == "t^(1/2)"
    assert str(LaurentQ.t_quarter(-2)) == "t^(-1/2)"
    assert str(LaurentQ.t_quarter(-8)) == "t^(-2)"
    assert str(LaurentQ.t_quarter(3)) == "t^(3/4)"
    assert str(LaurentQ.t_quarter(-3)) == "t^(-3/4)"
    assert str(LaurentQ.monomial(2, 4)) == "2*t"
    assert str(LaurentQ.monomial(-1, 4)) == "-t"
    assert str(LaurentQ.one() + LaurentQ.t_quarter(4)) == "1 + t"
    assert str(LaurentQ.one() - LaurentQ.t_quarter(4)) == "1 - t"
    assert str(LaurentQ.t_quarter(-4) + LaurentQ.t_quarter(4)) == "t^(-1) + t"
    assert str(LaurentQ.monomial(-3, 1) + 2) == "2 - 3*t^(1/4)"


def test_terms_ascending_and_accessors():
    p = LaurentQ({4: 2, -4: 1, 0: -3})
    assert p.terms() == [(-4, 1), (0, -3), (4, 2)]
    assert p.coefficient(4) == 2
    assert p.coefficient(99) == 0
    assert len(p) == 3
    assert list(p) == p.terms()
    assert LaurentQ({2: 0}).is_zero()


def test_qbrace():
    assert qbrace(0) == LaurentQ.zero()
    assert qbrace(1) == LaurentQ.t_quarter(2) - LaurentQ.t_quarter(-2)
    for a in range(-6, 7):
        assert qbrace(-a) == -qbrace(a)
        assert qbrace(a) == LaurentQ.t_quarter(2 * a) - LaurentQ.t_quarter(-2 * a)


def test_qint():
    assert qint(0) == LaurentQ.zero()
    assert qint(1) == LaurentQ.one()
    assert qint(2) == LaurentQ.t_quarter(2) + LaurentQ.t_quarter(-2)
    for a in range(-8, 9):
        assert qint(a) * qbrace(1) == qbrace(a)
        assert qint(-a) == -qint(a)
    # geometric form used by the split-unknot factor
    for n in range(6):
        total = LaurentQ.zero()
        for b in range(n + 1):
            total = total + LaurentQ.t_quarter(-2 * n + 4 * b)
        assert total == qint(n + 1)


def test_pochhammer_recursion():
    assert pochhammer(5, 0) == LaurentQ.one()
    assert pochhammer(5, -2) == LaurentQ.zero()
    for a in range(-5, 6):
        for b in range(1, 6):
            assert pochhammer(a, b) == qbrace(a) * pochhammer(a - 1, b - 1)


def test_pochhammer_conversion():
    # {a}_b = (-1)^((1+eps)b/2) t^(-eps(ab/2 - b(b-1)/4)) {a}_{b,t^eps}
    for a in range(-6, 7):
        for b in range(7):
            for eps in (1, -1):
                sign = (-1) ** b if eps == 1 else 1
                rhs = LaurentQ.monomial(
                    sign, -eps * (2 * a * b - b * (b - 1))
                ) * pochhammer_signed(a, b, eps)
                assert pochhammer(a, b) == rhs


def test_binomial_conversion():
    # (a choose b) = t^(eps b(b-a)/2) (a choose b)_{t^eps}
    for a in range(-6, 7):
        for b in range(7):
            for eps in (1, -1):
                rhs = LaurentQ.t_quarter(2 * eps * b * (b - a)) * qbinom_signed(
                    a, b, eps
                )
                assert qbinom(a, b) == rhs


def test_binomial_symmetry():
    for c in range(7):
        for d in range(7):
            assert qbinom(c + d, c) == qbinom(c + d, d)
            for eps in (1, -1):
                assert qbinom_signed(c + d, c, eps) == qbinom_signed(c + d, d, eps)


def test_binomial_counts():
    # specializing t to 1 yields ordinary binomials
    for a in range(9):
        for b in range(a + 1):
            coeffs = sum(c for _, c in qbinom(a, b).terms())
            assert coeffs == math.comb(a, b)
    assert qbinom(3, -1) == LaurentQ.zero()
    assert qbinom_signed(3, -1, 1) == LaurentQ.zero()


def test_symbol_validation():
    with pytest.raises(ValueError):
        pochhammer_signed(2, 1, 0)
    # a negative length b gives the zero polynomial
    assert pochhammer_signed(2, -1, 1) == pochhammer_signed(2, -1, -1) == 0
    with pytest.raises(ValueError):
        qbinom_signed(2, 1, 2)


def test_pack_round_trip():
    rng = random.Random(103)
    for k in (2, 3, 8, 33, 70):
        edge = (1 << (k - 1)) - 1
        for _ in range(60):
            residue = rng.randrange(4)
            terms = {
                residue + 4 * rng.randint(-6, 6): rng.choice(
                    [edge, -edge, rng.randint(-edge, edge)]
                )
                for _ in range(rng.randint(0, 8))
            }
            poly = LaurentQ(terms)
            lo, packed = pack(poly, k)
            assert unpack(lo, packed, k) == poly
        assert pack(LaurentQ.zero(), k) == (0, 0)
        assert unpack(0, 0, k) == LaurentQ.zero()


def test_packed_product_is_polynomial_product():
    rng = random.Random(104)
    k = 40
    for _ in range(50):
        a = LaurentQ({1 + 4 * rng.randint(-5, 5): rng.randint(-9, 9) for _ in range(5)})
        b = LaurentQ({2 + 4 * rng.randint(-5, 5): rng.randint(-9, 9) for _ in range(5)})
        (alo, an), (blo, bn) = pack(a, k), pack(b, k)
        assert unpack(alo + blo, an * bn, k) == a * b


def test_pack_refuses_what_it_cannot_decode():
    with pytest.raises(ArithmeticError):
        pack(LaurentQ({0: 1, 2: 1}), 8)
    with pytest.raises(ArithmeticError):
        pack(LaurentQ({1: 1, 4: -1}), 8)
    with pytest.raises(ArithmeticError):
        pack(LaurentQ({0: 1 << 7}), 8)
    assert pack(LaurentQ({-3: 5, 5: -2}), 8) == (-3, 5 - (2 << 16))


def test_l1_norm():
    assert LaurentQ({-4: 3, 0: -2, 9: 1}).l1_norm() == 6
    assert LaurentQ.zero().l1_norm() == 0


def _image(poly: LaurentQ, k: int) -> tuple[int, int]:
    # poly at t = 2**k, term by term, with lo its lowest exponent.
    terms = poly.terms()
    if not terms:
        return 0, 0
    lo = terms[0][0]
    return lo, sum(c << (k * ((q - lo) >> 2)) for q, c in terms)


def _packed_symbol_cases(k: int) -> list[tuple[int, LaurentQ]]:
    # (packed symbol at K = k, its dict symbol) for both symbols: [a, b]_t
    # is the signed binomial at t**1 and the falling product the signed
    # Pochhammer symbol at t**1, for 0 <= b <= a <= 12.
    cases = []
    for a in range(13):
        for b in range(a + 1):
            cases.append((packed_gauss(a, b, k), qbinom_signed(a, b, 1)))
            cases.append((packed_falling(a, b, k), pochhammer_signed(a, b, 1)))
    return cases


def test_packed_symbols():
    # Each packed symbol is its dict symbol's image at t = 2**K, with lo = 0:
    # what pack gives when every coefficient fits K-bit slots, and the
    # term-by-term evaluation when one does not (K = 2 and 3 leave most of
    # them out).
    fitted = overflowed = 0
    for k in (2, 3, 8, 40):
        for got, symbol in _packed_symbol_cases(k):
            try:
                expected = pack(symbol, k)
                fitted += 1
            except ArithmeticError:
                expected = _image(symbol, k)
                overflowed += 1
            assert (0, got) == expected, (symbol, k)
    assert fitted and overflowed


def test_packed_division_is_exact(monkeypatch):
    # packed_gauss divides (t**a - 1) [a-1, b-1] by t**b - 1 as integers;
    # test_packed_symbols checks every quotient it keeps.  An inner value
    # that is not [a-1, b-1] leaves a remainder, which raises.
    k = 8
    assert packed_gauss(2, 1, k) == 1 + (1 << k)  # [2, 1] = 1 + t
    divide = packed_gauss.__wrapped__
    monkeypatch.setattr(qalgebra, "packed_gauss", lambda a, b, k: 2)
    with pytest.raises(ExactDivisionError):
        divide(3, 2, k)
