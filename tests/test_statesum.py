"""Cross-checks between the two state models and the global laws the
totals must satisfy: framing, reflection, skein, exponent parity."""

import random

import pytest

from braidjones.braid import BraidWord, parse
from braidjones.diagram import build
from braidjones.qalgebra import ONE, LaurentQ, qint
from braidjones.states import MINUS, PLUS, enumerate_states, flow_bijection
from braidjones.statesum import (
    colored_jones_framed,
    colored_jones_unframed,
    gl_contribution,
    gl_writhe_prefactor_quarter,
    parity_halfinteger_check,
    rmatrix_contribution,
)


def rand_braid(rng: random.Random, max_strands=4, max_len=6) -> BraidWord:
    s = rng.randint(2, max_strands)
    letters = tuple(
        rng.choice([1, -1]) * rng.randint(1, s - 1)
        for _ in range(rng.randint(1, max_len))
    )
    return BraidWord(s, letters)


def test_anchor_values():
    for n in range(1, 6):
        for model in ("rmatrix", "gl"):
            assert colored_jones_framed(BraidWord(1, ()), n, model) == ONE
            assert colored_jones_framed(parse("1"), n, model) == (
                LaurentQ.t_quarter(-(n * n + 2 * n))
            )
            assert colored_jones_framed(parse("-1"), n, model) == (
                LaurentQ.t_quarter(n * n + 2 * n)
            )


def test_split_unknots():
    for n in (1, 2, 3):
        assert colored_jones_framed(BraidWord(2, ()), n) == qint(n + 1)
        assert colored_jones_framed(BraidWord(3, ()), n) == qint(n + 1) ** 2
    # a split unknot multiplies the invariant by [n+1] even when the
    # anchored first strand is the crossing-free one
    for n in (1, 2):
        assert colored_jones_framed(BraidWord(4, (2, 2)), n) == (
            colored_jones_framed(parse("1 1"), n) * qint(n + 1) ** 2
        )


def test_hopf_framed_value():
    for text in ("1 1", "-1 -1"):
        for model in ("rmatrix", "gl", "both"):
            value = colored_jones_framed(parse(text), 1, model)
            assert str(value) == "t^(-1) + t"


def test_small_knot_jones():
    assert str(colored_jones_unframed(parse("1 1 1"), 1)) == "t + t^3 - t^4"
    assert str(colored_jones_unframed(parse("-1 -1 -1"), 1)) == (
        "-t^(-4) + t^(-3) + t^(-1)"
    )
    assert str(colored_jones_unframed(parse("-1 2 -1 2"), 1)) == (
        "t^(-2) - t^(-1) + 1 - t + t^2"
    )


def test_models_agree_on_corpus():
    rng = random.Random(11)
    braids = [rand_braid(rng) for _ in range(12)]
    braids += [parse("1 -2 1"), parse("-1 -1 -1 2 1 2 2 -1"), parse("1", 3)]
    for b in braids:
        for n in (1, 2):
            colored_jones_framed(b, n, "both")


def test_state_correspondence():
    # each (+)-state's weight matches its partner (-)-state's weight once
    # the global writhe prefactor is attached
    rng = random.Random(12)
    braids = [parse("1 1"), parse("-1 2 -1 2"), BraidWord(3, (2, 2))]
    braids += [rand_braid(rng, max_len=4) for _ in range(6)]
    for b in braids:
        d = build(b)
        for n in (1, 2):
            prefactor = LaurentQ.t_quarter(gl_writhe_prefactor_quarter(d, n, 0))
            for p, colors in enumerate_states(d, n, PLUS):
                q, qcolors = flow_bijection(d, p, n)
                lhs = prefactor * gl_contribution(d, p, colors, n)
                rhs = rmatrix_contribution(d, q, qcolors, n)
                assert lhs == rhs


def test_all_zero_state_weight():
    for text in ("1 1 1", "-1 2 -1 2"):
        d = build(parse(text))
        for n in (1, 2):
            states = enumerate_states(d, n, PLUS)
            zero = [
                (p, c)
                for p, c in states
                if not any(p.jumps) and not any(p.bases)
            ]
            assert len(zero) == 1
            p, c = zero[0]
            assert gl_contribution(d, p, c, n) == ONE


def test_folding_matches_unfolded():
    for b in (BraidWord(4, (1,)), BraidWord(4, (2, 2)), BraidWord(3, ())):
        d = build(b)
        for n in (1, 2):
            brute_minus = LaurentQ.zero()
            for p, c in enumerate_states(d, n, MINUS):
                brute_minus = brute_minus + rmatrix_contribution(d, p, c, n)
            assert brute_minus == colored_jones_framed(b, n, "rmatrix")

            brute_plus = LaurentQ.zero()
            for p, c in enumerate_states(d, n, PLUS):
                brute_plus = brute_plus + gl_contribution(d, p, c, n)
            brute_plus = brute_plus * LaurentQ.t_quarter(
                gl_writhe_prefactor_quarter(d, n, 0)
            )
            assert brute_plus == colored_jones_framed(b, n, "gl")


def test_stabilization_framing():
    rng = random.Random(13)
    for _ in range(8):
        b = rand_braid(rng, max_strands=3, max_len=5)
        up = BraidWord(b.strands + 1, b.letters + (b.strands,))
        down = BraidWord(b.strands + 1, b.letters + (-b.strands,))
        for n in (1, 2):
            base = colored_jones_framed(b, n)
            shift = LaurentQ.t_quarter(n * n + 2 * n)
            assert colored_jones_framed(up, n) == base * shift.substitute_inverse()
            assert colored_jones_framed(down, n) == base * shift
            assert colored_jones_unframed(up, n) == colored_jones_unframed(b, n)
            assert colored_jones_unframed(down, n) == colored_jones_unframed(b, n)


def test_reflection():
    rng = random.Random(14)
    braids = [parse("1 1 1"), parse("-1 2 -1 2")]
    braids += [rand_braid(rng, max_len=5) for _ in range(8)]
    for b in braids:
        for n in (1, 2):
            assert colored_jones_unframed(b.reflect(), n) == (
                colored_jones_unframed(b, n).substitute_inverse()
            )


def test_skein_relations():
    rng = random.Random(15)
    tested = 0
    while tested < 20:
        b = rand_braid(rng)
        pos = rng.randrange(len(b.letters))
        plus, minus, zero = b.skein_triple(pos)
        lhs = LaurentQ.t_quarter(-1) * colored_jones_framed(plus, 1)
        lhs = lhs - LaurentQ.t_quarter(1) * colored_jones_framed(minus, 1)
        rhs = (LaurentQ.t_quarter(-2) - LaurentQ.t_quarter(2)) * (
            colored_jones_framed(zero, 1)
        )
        assert lhs == rhs

        lhs_u = LaurentQ.t_quarter(-4) * colored_jones_unframed(plus, 1)
        lhs_u = lhs_u - LaurentQ.t_quarter(4) * colored_jones_unframed(minus, 1)
        rhs_u = (LaurentQ.t_quarter(-2) - LaurentQ.t_quarter(2)) * (
            colored_jones_unframed(zero, 1)
        )
        assert lhs_u == rhs_u
        tested += 1


def test_exponent_parity():
    assert parity_halfinteger_check(parse("1 1"), 1) == "half-integer"
    assert parity_halfinteger_check(parse("-1 2 -1 2"), 1) == "integer"
    assert parity_halfinteger_check(parse("1 1 1"), 1) == "integer"
    assert parity_halfinteger_check(parse("1 1"), 2) == "integer"
    rng = random.Random(16)
    for _ in range(10):
        b = rand_braid(rng, max_len=5)
        for n in (1, 2, 3):
            parity_halfinteger_check(b, n)


def test_long_braid_framed_skein():
    # 1,100 letters: deeper than the interpreter's recursion limit
    skein = LaurentQ.t_quarter(-2) - LaurentQ.t_quarter(2)
    plus = colored_jones_framed(BraidWord(2, (1,) * 1100), 1)
    minus = colored_jones_framed(BraidWord(2, (1,) * 1098), 1, "rmatrix")
    zero = colored_jones_framed(BraidWord(2, (1,) * 1099), 1, "gl")
    lhs = LaurentQ.t_quarter(-1) * plus - LaurentQ.t_quarter(1) * minus
    assert lhs == skein * zero


def _split(rng: random.Random, b: BraidWord) -> tuple[tuple[int, ...], tuple[int, ...]]:
    cut = rng.randint(0, len(b.letters))
    return b.letters[:cut], b.letters[cut:]


def test_conjugation_invariance():
    rng = random.Random(17)
    for _ in range(10):
        b = rand_braid(rng, max_len=5)
        before, after = _split(rng, b)
        rotated = BraidWord(b.strands, after + before)
        for n in (1, 2):
            assert colored_jones_framed(rotated, n) == colored_jones_framed(b, n)


def test_braid_relation():
    rng = random.Random(18)
    for _ in range(8):
        b = rand_braid(rng, max_len=4)
        b = BraidWord(max(b.strands, 3), b.letters)
        i = rng.randint(1, b.strands - 2)
        eps = rng.choice([1, -1])
        before, after = _split(rng, b)
        lhs = BraidWord(b.strands, before + (eps * i, eps * (i + 1), eps * i) + after)
        rhs = BraidWord(
            b.strands, before + (eps * (i + 1), eps * i, eps * (i + 1)) + after
        )
        for n in (1, 2):
            assert colored_jones_framed(lhs, n) == colored_jones_framed(rhs, n)


def test_far_commutation():
    rng = random.Random(19)
    for _ in range(8):
        b = rand_braid(rng, max_strands=5, max_len=4)
        b = BraidWord(max(b.strands, 4), b.letters)
        i = rng.randint(1, b.strands - 3)
        j = rng.randint(i + 2, b.strands - 1)
        x, y = rng.choice([1, -1]) * i, rng.choice([1, -1]) * j
        before, after = _split(rng, b)
        lhs = BraidWord(b.strands, before + (x, y) + after)
        rhs = BraidWord(b.strands, before + (y, x) + after)
        for n in (1, 2):
            assert colored_jones_framed(lhs, n) == colored_jones_framed(rhs, n)


def test_free_cancellation():
    rng = random.Random(20)
    for _ in range(10):
        b = rand_braid(rng, max_len=5)
        k = rng.choice([1, -1]) * rng.randint(1, b.strands - 1)
        before, after = _split(rng, b)
        padded = BraidWord(b.strands, before + (k, -k) + after)
        for n in (1, 2):
            assert colored_jones_framed(padded, n) == colored_jones_framed(b, n)


def test_input_validation():
    with pytest.raises(ValueError):
        colored_jones_framed(parse("1"), 0)
    with pytest.raises(ValueError):
        colored_jones_framed(parse("1"), 1, "quantum")
