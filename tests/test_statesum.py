"""Cross-checks between the two state models and the global laws the
totals must satisfy: framing, reflection, skein, exponent parity."""

import random
import time

import pytest

from braidjones.braid import BraidWord, parse
from braidjones.diagram import build
from braidjones.qalgebra import ONE, LaurentQ, qbinom, qint
from braidjones.states import MINUS, PLUS, enumerate_states, flow_bijection
from braidjones.statesum import (
    REPACK_LETTERS,
    _gl_step,
    _rmatrix_step,
    _sweep,
    colored_jones_framed,
    colored_jones_unframed,
    correspondence_report,
    gl_contribution,
    gl_writhe_prefactor_quarter,
    parity_halfinteger_check,
    rmatrix_contribution,
    state_count,
    state_sum,
    transfer_sum,
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
            prefactor = LaurentQ.t_quarter(gl_writhe_prefactor_quarter(b, n))
            for p, colors in enumerate_states(d, n, PLUS):
                q, qcolors = flow_bijection(d, p, n)
                lhs = prefactor * gl_contribution(d, p, colors, n)
                rhs = rmatrix_contribution(d, q, qcolors, n)
                assert lhs == rhs


def test_vertex_tables_correspond_entry_by_entry():
    # The paper's theorem one crossing at a time: every arc-transition
    # entry (a, b) -> (l, r) equals the R-matrix entry on complemented
    # colors up to q-binomials and a monomial, with the same support.
    for n in range(1, 9):
        for s in (1, -1):
            for a in range(n + 1):
                for b in range(n + 1):
                    gl = {(l, r): w for l, r, w in _gl_step(n, s, a, b)}
                    rm = {
                        (n - l, n - r): w
                        for l, r, w in _rmatrix_step(n, s, n - a, n - b)
                    }
                    assert gl.keys() == rm.keys()
                    for (l, r), w in gl.items():
                        quarter = s * n * n + 2 * n * (l - a) - 2 * (l * r - a * b)
                        assert w * qbinom(n, a) * qbinom(n, b) == (
                            LaurentQ.t_quarter(quarter)
                            * qbinom(n, l)
                            * qbinom(n, r)
                            * rm[l, r]
                        )
        assert "every entry corresponds" in correspondence_report(n, (1, -1))


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


def test_split_diagram_state_sums_match_sweeps():
    for b in (BraidWord(4, (1,)), BraidWord(4, (2, 2)), BraidWord(3, ())):
        d = build(b)
        for n in (1, 2):
            assert state_sum(d, n, MINUS) == colored_jones_framed(b, n, "rmatrix")
            assert state_sum(d, n, PLUS) == colored_jones_framed(b, n, "gl")


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
    for sweep in (transfer_sum, state_count):
        with pytest.raises(ValueError, match="convention must be"):
            sweep(parse("1"), 1, 0)


def test_packed_sweep_across_repacks():
    # Both tables against the R-matrix state sum, which is cheap here; the
    # arc-transition one has 47,300 states at n = 2 and is checked at n = 1.
    b = BraidWord(3, (1, -1) * 40 + (-1, 2) * 3)
    assert len(b.letters) > 2 * REPACK_LETTERS
    d = build(b)
    for n in (1, 2):
        reference = state_sum(d, n, MINUS)
        assert transfer_sum(b, n, MINUS) == reference
        assert transfer_sum(b, n, PLUS) == reference
        assert state_count(b, n, MINUS) == len(enumerate_states(d, n, MINUS))
    assert transfer_sum(b, 1, PLUS) == state_sum(d, 1, PLUS)
    assert state_count(b, 1, PLUS) == len(enumerate_states(d, 1, PLUS))


def _check_against_state_sums(b: BraidWord, colors) -> None:
    d = build(b)
    for n in colors:
        for convention in (MINUS, PLUS):
            assert transfer_sum(b, n, convention) == state_sum(d, n, convention)
            assert state_count(b, n, convention) == len(
                enumerate_states(d, n, convention)
            )


def test_sweep_pruning_on_random_braids():
    rng = random.Random(5)
    for _ in range(120):
        s = rng.randint(3, 5)
        letters = tuple(
            rng.choice([1, -1]) * rng.randint(1, s - 1)
            for _ in range(rng.randint(4, 8))
        )
        b = BraidWord(s, letters)
        d = build(b)
        for n in (1, 2):
            for convention in (MINUS, PLUS):
                assert transfer_sum(b, n, convention) == state_sum(d, n, convention)


def test_sweep_pruning_edge_words():
    # The -1 changes sum(cur[1:2]), an input of the split of block [1, 4)
    # at the 3: generator p = 1 must be watched too.
    _check_against_state_sums(BraidWord(4, (1, -2, -2, -1, 3, 2)), (1, 2, 3))
    # The early check of the split at the last 1 follows the third letter,
    # in the chunk before the one that holds the split itself.
    b = BraidWord(4, (1, -2, 1) + (3, -3) * 16 + (1, 2))
    assert 3 <= REPACK_LETTERS <= len(b.letters) - 2
    _check_against_state_sums(b, (1, 2))
    # The first letter already splits: its check filters the first layer.
    _check_against_state_sums(BraidWord(3, (1, 2, 2)), (1, 2, 3))


def _mixing_table(n, sign, a, b):
    # Conserves colors, but reaches the same output with weights whose
    # exponents differ by a quarter.
    return ((a, b, LaurentQ.t_quarter(1)), (b, a, ONE))


def test_sweep_keeps_residues_apart():
    # Paths with weights t**(1/4) apart reach the same states: the
    # quarter-power term shows the sweep kept their residues apart.
    closed = _sweep(BraidWord(2, (1, 1)), 1, _mixing_table, 0)
    assert closed == LaurentQ({2: 2, 1: 2, 0: 2})


def test_words_without_letters():
    for n in (1, 2, 3):
        for convention in (MINUS, PLUS):
            assert transfer_sum(BraidWord(1, ()), n, convention) == ONE
            assert state_count(BraidWord(1, ()), n, convention) == 1
            assert transfer_sum(BraidWord(3, ()), n, convention) == qint(n + 1) ** 2
            assert state_count(BraidWord(3, ()), n, convention) == (n + 1) ** 2


def test_long_word_state_sum_matches_sweep():
    # 1,100 crossings: the enumeration must not recurse once per crossing
    b = BraidWord(2, (1, -1) * 550)
    assert state_sum(build(b), 1, PLUS) == transfer_sum(b, 1, PLUS)


def test_oversized_request_refused_fast():
    began = time.perf_counter()
    with pytest.raises(ValueError, match="too large"):
        colored_jones_framed(parse("1 2 3", 4), 400)
    with pytest.raises(ValueError, match="too large"):
        state_sum(build(parse("1 1 1")), 1000000, MINUS)
    assert time.perf_counter() - began < 1
