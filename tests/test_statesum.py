"""Cross-checks between the two state models and the global laws the
totals must satisfy: framing, reflection, skein, exponent parity."""

import random
import re
import time
from collections import Counter
from itertools import accumulate, product

import pytest

from braidjones import statesum
from braidjones.braid import BraidWord, parse
from braidjones.diagram import build
from braidjones.oracle import kauffman_jones, rosso_jones, torus_braid
from braidjones.qalgebra import ONE, LaurentQ, qint, unpack
from braidjones.states import (
    MINUS,
    PLUS,
    enumerate_states,
    flow_bijection,
    gl_contribution,
    pochhammer_signed,
    qbinom,
    qbinom_signed,
    rmatrix_contribution,
    state_sum,
)
from braidjones.statesum import (
    GUESS_LETTERS,
    ModelMismatchError,
    _closing_checks,
    _decode,
    _gl_row,
    _gl_shape,
    _max_jump,
    _rmatrix_row,
    _rmatrix_shape,
    _seed,
    _sweep,
    _unit_row,
    _width,
    certify_correspondence,
    check_work,
    colored_jones_framed,
    colored_jones_unframed,
    framed_and_count,
    state_count,
)
from identities import parity_halfinteger_check
from packing import (
    assert_exponent_class_law,
    assert_rows_decode,
    gl_step,
    packed,
    replaced,
    rmatrix_step,
)
from words import (
    EARLY_TEST_WORDS,
    as_written,
    assert_patch_keeps_sweeps,
    rand_braid,
    random_letters,
    sweep_cases,
    unscheduled,
)


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
    # each (+)-state's weight equals its partner (-)-state's weight: both
    # are local vertex weights times a closure weight, with no global factor
    rng = random.Random(12)
    fixed = [parse("1 1"), parse("-1 2 -1 2"), BraidWord(3, (2, 2))]
    cases = [(b, n) for b in fixed for n in (1, 2, 3)]
    drawn = [rand_braid(rng, max_len=4) for _ in range(6)]
    cases += [(b, n) for b in drawn for n in (1, 2)]
    for b, n in cases:
        d = build(b)
        for p, colors in enumerate_states(d, n, PLUS):
            q, qcolors = flow_bijection(d, p, n)
            rhs = rmatrix_contribution(d, q, qcolors, n)
            assert gl_contribution(d, p, colors, n) == rhs


def test_vertex_tables_correspond_entry_by_entry(monkeypatch):
    # The paper's theorem one crossing at a time: at every jump, the
    # arc-transition weight, read in the R-matrix frame with its writhe
    # share, equals the R-matrix weight up to q-binomials and a monomial
    # that does not depend on the sign, and both tables allow the same
    # jumps.  The packed rows the sweep reads decode, at the certificate's
    # K, to the reference weights, which are computed apart from them.
    assert_rows_decode(range(1, 9))
    for n in range(1, 9):
        for s in (1, -1):
            for a in range(n + 1):
                for b in range(n + 1):
                    gl, rm = gl_step(n, s, a, b), rmatrix_step(n, s, a, b)
                    assert len(gl) == len(rm)
                    for jump, (w, v) in enumerate(zip(gl, rm)):
                        l, r = b + s * jump, a - s * jump
                        quarter = 2 * n * (a - l) - 2 * (l * r - a * b)
                        assert w * qbinom(n, a) * qbinom(n, b) == (
                            LaurentQ.t_quarter(quarter)
                            * qbinom(n, l)
                            * qbinom(n, r)
                            * v
                        )
        certify_correspondence(n, (1, -1))
        # Both rows have _max_jump + 1 steps by construction: the packer
        # reads the flow rule, so tables allowing different jumps cannot be
        # built.
        for s, a, b in product((1, -1), range(n + 1), range(n + 1)):
            top = _max_jump(n, s, a, b) + 1
            rows = _gl_row(n, s, a, b, 2 * n + 2), _rmatrix_row(n, s, a, b, 2 * n + 2)
            assert [len(row) for row in rows] == [top, top]
    # A descriptor whose jump-1 weight at (1, 0) is off by a quarter power,
    # of the wrong sign, with a Gaussian binomial argument one too large, or
    # with arguments that give no weight ([A, B] with B > A) breaks that
    # entry, in either model, and the certificate names it.
    at = (2, 1, 1, 0, 1)
    for convention in (PLUS, MINUS):
        healthy = statesum._TABLES[convention]
        for field, delta in ((1, 1), (0, -2), (2, 1), (3, 5)):
            weight = list(healthy(*at))
            weight[field] += delta
            broken = replaced(healthy, {at: tuple(weight)})
            monkeypatch.setitem(statesum._TABLES, convention, broken)
            named = r"entry \(1, 0\) -> \(1, 0\) breaks"
            with pytest.raises(ModelMismatchError, match=named) as exc:
                certify_correspondence(2, (1,))
            assert (f"no weight {tuple(weight)}" in str(exc.value)) == (field == 3)
            with pytest.raises(ModelMismatchError, match=named):
                colored_jones_framed(parse("1 1 1"), 2, "both")
        monkeypatch.setitem(statesum._TABLES, convention, healthy)


def _shape_weight(shape):
    # A descriptor's weight from the reference symbols, apart from the
    # packed ones the tables and the failure report read.
    s, lo, top, bottom, m, r = shape
    return (
        LaurentQ.monomial(s, lo)
        * qbinom_signed(top, bottom, 1)
        * pochhammer_signed(m, r, 1)
    )


def _moves(weight):
    # Every weight one field away: the sign flipped, lo moved by +-1 and +-4,
    # and each Gaussian binomial or falling product argument by +-1 where
    # the arguments stay valid.
    moves = [(0, -2 * weight[0])] + [(1, d) for d in (1, -1, 4, -4)]
    for field, delta in moves + [(f, d) for f in (2, 3, 4, 5) for d in (1, -1)]:
        moved = list(weight)
        moved[field] += delta
        _, _, top, bottom, m, r = moved
        if 0 <= bottom <= top and 0 <= r <= m:
            yield tuple(moved)


def test_certificate_catches_every_perturbed_field(monkeypatch):
    # At n = 1..5, both signs and every entry of either model, one field of
    # one weight is moved (_moves).  The certificate must name that entry
    # whenever the weight changed, and pass the moves that keep it, such as
    # [A, 0] -> [A + 1, 0]; those are checked every entry's i-th at once.
    # A healthy run decodes no weight.
    for name in ("unpack", "packed_gauss", "packed_falling"):
        monkeypatch.setattr(statesum, name, None)
    statesum._certificate.cache_clear()
    certify_correspondence(5, (1, -1))
    monkeypatch.undo()
    caught = kept = 0
    for n, sign in product(range(1, 6), (1, -1)):
        entries = [
            (n, sign, a, b, jump)
            for a, b in product(range(n + 1), repeat=2)
            for jump in range(_max_jump(n, sign, a, b) + 1)
        ]
        for model in (_gl_shape, _rmatrix_shape):

            def certify(broken):
                # The broken descriptor against the other model's own.
                if model is _gl_shape:
                    statesum._certificate(broken, _rmatrix_shape, n, sign)
                else:
                    statesum._certificate(_gl_shape, broken, n, sign)

            same = {}
            for at in entries:
                _, _, a, b, jump = at
                exit_ = f"({b + sign * jump}, {a - sign * jump})"
                named = f"sign {sign:+d} entry ({a}, {b}) -> {exit_} breaks"
                weight = model(*at)
                healthy = _shape_weight(weight)
                for moved in _moves(weight):
                    if _shape_weight(moved) == healthy:
                        same.setdefault(at, []).append(moved)
                        continue
                    with pytest.raises(ModelMismatchError) as exc:
                        certify(replaced(model, {at: moved}))
                    assert named in str(exc.value), (at, moved)
                    caught += 1
            for i in range(max(map(len, same.values()))):
                weights = {at: moved[i] for at, moved in same.items() if i < len(moved)}
                certify(replaced(model, weights))
                kept += len(weights)
    statesum._certificate.cache_clear()
    assert caught > kept > 0


def test_row_bounds_hold_the_reference_norms():
    # Each step's fourth field bounds its weight's L1 norm, which proves
    # the sweep's K: no less than the reference weight's norm, and 1 on
    # the unit table.
    for n in range(1, 9):
        k = 2 * n + 2
        for s in (1, -1):
            for a in range(n + 1):
                for b in range(n + 1):
                    for row, step in ((_rmatrix_row, rmatrix_step), (_gl_row, gl_step)):
                        bounds = [bound for _, _, _, bound in row(n, s, a, b, k)]
                        norms = [w.l1_norm() for w in step(n, s, a, b)]
                        assert len(bounds) == len(norms)
                        assert all(map(int.__ge__, bounds, norms)), (n, s, a, b)
                    assert {step[3] for step in _unit_row(n, s, a, b, k)} == {1}


def test_both_sweeps_once(monkeypatch):
    # "both" sweeps the R-matrix table once and certifies the arc-transition
    # table instead of sweeping it; "gl" still sweeps it.
    tables = []
    sweep = statesum._sweep

    def recording(word, n, table, *rest):
        tables.append(table)
        return sweep(word, n, table, *rest)

    monkeypatch.setattr(statesum, "_sweep", recording)
    b = parse("-1 2 -1 2 1 1")
    assert colored_jones_framed(b, 3, "both") == colored_jones_framed(b, 3, "gl")
    assert tables == [_rmatrix_row, _gl_row]


def test_all_zero_state_weight():
    # the all-zero (+)-state weighs t**(-(n^2/4)w + (n/2)(s-1)): each
    # crossing's writhe share and each non-anchor strand's closure weight
    for text in ("1 1 1", "-1 2 -1 2"):
        b = parse(text)
        d = build(b)
        for n in (1, 2):
            states = enumerate_states(d, n, PLUS)
            zero = [
                (p, c)
                for p, c in states
                if not any(p.jumps) and not any(p.bases)
            ]
            assert len(zero) == 1
            p, c = zero[0]
            assert gl_contribution(d, p, c, n) == LaurentQ.t_quarter(
                -n * n * b.writhe + 2 * n * (b.strands - 1)
            )


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
            assert colored_jones_framed(b.reflect(), n) == (
                colored_jones_framed(b, n).substitute_inverse()
            )
            assert colored_jones_unframed(b.reflect(), n) == (
                colored_jones_unframed(b, n).substitute_inverse()
            )


def test_reversal_and_flip():
    # Reading the letters backwards reverses every orientation (V_n is
    # self-dual), and the flip g -> s - g, signs kept, turns the closure
    # over; neither changes the framed value.  At t = 1 the R-matrix is the
    # flip, so the coefficients sum to (n+1)^(components-1).
    rng = random.Random(21)
    for _ in range(30):
        b = rand_braid(rng, max_len=6)
        s = b.strands
        reversed_ = BraidWord(s, b.letters[::-1])
        flipped = BraidWord(s, tuple(s - k if k > 0 else -s - k for k in b.letters))
        for n in (1, 2, 3):
            for model in ("rmatrix", "gl", "both"):
                value = colored_jones_framed(b, n, model)
                at_one = sum(c for _, c in value.terms())
                assert at_one == (n + 1) ** (b.component_count() - 1)
                assert colored_jones_framed(reversed_, n, model) == value
                assert colored_jones_framed(flipped, n, model) == value


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
    # Every entry refuses a color below 1, and one that is not exactly an
    # int, with the one message check_work gives, whatever the word, model
    # or convention.  Unrefused, a float fails in range(), a str in a
    # comparison, and True computes n = 1.
    refused = [(n, ValueError, "color n must be >= 1") for n in (0, -1)]
    refused += [(n, TypeError, f"color {n!r} is not an int") for n in (2.0, "2", True)]
    for n, error, message in refused:
        for word in (parse("1"), parse("-1 -1"), BraidWord(1, ())):
            for model in ("rmatrix", "gl", "both"):
                with pytest.raises(error, match=message):
                    colored_jones_framed(word, n, model)
            for convention in (MINUS, PLUS):
                with pytest.raises(error, match=message):
                    state_count(word, n, convention)
                with pytest.raises(error, match=message):
                    state_sum(build(word), n, convention)
                with pytest.raises(error, match=message):
                    enumerate_states(build(word), n, convention)
    with pytest.raises(ValueError):
        colored_jones_framed(parse("1"), 1, "quantum")
    # Exactly the int +1 or -1: unrefused, True counted as +1 and -1.0 as -1.
    for convention in (0, True, 1.0, -1.0):
        with pytest.raises(ValueError, match="convention must be"):
            state_count(parse("1"), 1, convention)
        with pytest.raises(ValueError, match="convention must be"):
            state_sum(build(parse("1")), 1, convention)


def test_packed_sweep_across_repacks(monkeypatch):
    # Both tables against the R-matrix state sum, which is cheap here; the
    # arc-transition one has 47,300 states at n = 2 and is checked at n = 1.
    # Then again with K guessed at 2, the least each span's first layer
    # proves, so that spans end and re-pack all along the word: the eight
    # sweeps take more spans than that.
    b = BraidWord(3, (1, -1) * 40 + (-1, 2) * 3)
    assert len(b.letters) > 2 * GUESS_LETTERS
    d = build(b)
    references = {n: state_sum(d, n, MINUS) for n in (1, 2)}
    counts = {n: len(enumerate_states(d, n, MINUS)) for n in (1, 2)}
    plus = state_sum(d, 1, PLUS), len(enumerate_states(d, 1, PLUS))
    spans = []
    for small in (False, True):
        if small:
            monkeypatch.setattr(statesum, "_first_k", lambda *_: spans.append(1) or 2)
        for n in (1, 2):
            assert colored_jones_framed(b, n, "rmatrix") == references[n]
            assert colored_jones_framed(b, n, "gl") == references[n]
            assert state_count(b, n, MINUS) == counts[n]
        assert (colored_jones_framed(b, 1, "gl"), state_count(b, 1, PLUS)) == plus
    assert len(spans) > 8


def _check_against_state_sums(b: BraidWord, colors) -> None:
    d = build(b)
    for n in colors:
        for convention, model in ((MINUS, "rmatrix"), (PLUS, "gl")):
            value = colored_jones_framed(b, n, model)
            assert value == state_sum(d, n, convention)
            assert state_count(b, n, convention) == len(
                enumerate_states(d, n, convention)
            )


def test_sweep_pruning_on_random_braids():
    rng = random.Random(5)
    for _ in range(120):
        s = rng.randint(3, 5)
        b = BraidWord(s, random_letters(rng, s, rng.randint(4, 8)))
        d = build(b)
        for n in (1, 2):
            for convention, model in ((MINUS, "rmatrix"), (PLUS, "gl")):
                value = colored_jones_framed(b, n, model)
                assert value == state_sum(d, n, convention)


# Words at the edges of the closing schedule, with the colors they are
# checked at.
_EDGE_WORDS = (
    # The last 3 reads P_1, P_2 and P_3, which letters on generator 1 do not
    # move: its early test runs after the second -2, before the -1.
    (BraidWord(4, (1, -2, -2, -1, 3, 2)), (1, 2, 3)),
    # The early test of the last 1 follows the third letter, 33 letters
    # before the last 1 itself.
    (BraidWord(4, (1, -2, 1) + (3, -3) * 16 + (1, 2)), (1, 2)),
    # The last -3 reads P_1, which last changes at the 2 on generator 2,
    # four letters in; the letters on 1 between them do not move its inputs,
    # so its early test runs 33 letters before it.
    (BraidWord(4, (3, 2, -3, 2) + (1, -1) * 16 + (-3,)), (1,)),
    # The first letter is already the last on generator 1: its test would
    # fall before any letter, so the letter closes alone.
    (BraidWord(3, (1, 2, 2)), (1, 2, 3)),
    # One strand has no generator; an unused generator's prefix sum never
    # moves and closes as it starts.
    (BraidWord(1, ()), (1, 2, 3)),
    (BraidWord(4, (1, -1, 1, 3, 3)), (1, 2)),
)


def test_sweep_pruning_edge_words(monkeypatch):
    for b, colors in _EDGE_WORDS:
        _check_against_state_sums(b, colors)
    # Guessed at 2, K is the least each span's first layer proves, so spans
    # end all along the word: in each long word, one starts between the
    # early test (after letter index 2 or 3) and its last letter (index 35
    # or 36).  With the guess's horizon past the word's end, each guess
    # sees the letters left.
    left = []
    monkeypatch.setattr(statesum, "GUESS_LETTERS", 10**6)
    monkeypatch.setattr(statesum, "_first_k", lambda *a: left.append(len(a[2])) or 2)
    for (b, colors), (test, closing) in zip(_EDGE_WORDS[1:3], ((2, 35), (3, 36))):
        left.clear()
        _check_against_state_sums(b, colors)
        assert any(test < len(b.letters) - rest <= closing for rest in left), b


def test_closing_checks():
    # (the order swept, last letter on its generator?, the early test due
    # after each letter)
    assert _closing_checks(()) == ((), [], [])
    order, last, after = _closing_checks((1, -2, -2, -1, 3, 2))
    assert order == (1, -2, -2, -1, 3, 2)
    assert last == [False, False, False, True, True, True]
    # The tests of the last 3 and the last -1 both fall after the second -2;
    # the 3, whose last letter comes later, keeps it.
    assert after == [None, None, (3, 1), None, (2, 1), None]
    # The test of the first letter, already the last on generator 1, would
    # fall before any letter: the letter closes alone.
    assert _closing_checks((1, 2, 2)) == (
        (1, 2, 2),
        [True, False, True],
        [None, (2, 1), None],
    )
    # The last -3 is checked once its inputs P_1..P_3 are final: after the
    # last 2, since letters on generator 1 do not move them.  Nothing
    # moves: the last -3 stops at the last -1, and that at the 1 below it.
    order, last, after = _closing_checks((3, 2, -3, 2, 1, -1, -3))
    assert order == (3, 2, -3, 2, 1, -1, -3)
    assert last == [False, False, False, True, False, True, True]
    assert after == [None, None, (2, 1), (3, -1), (1, -1), None, None]


# (word, the order it is swept in): each generator's last letter moves down
# past letters on generators two or more apart.
_SWEPT_ORDERS = (
    # The last 1 passes one 3 and stops at the 1 below it.
    ((1, 3, 1, 2, 3), (1, 1, 3, 2, 3)),
    # ... two 3s.
    ((1, 3, -3, 1, 2, 3), (1, 1, 3, -3, 2, 3)),
    # The last 1 passes the 5 and stops at the 4, which the early test of
    # the last 3 follows; past it, it would reach the first letter.
    ((4, 5, 1, 3, 4, 5), (4, 1, 5, 3, 4, 5)),
    # The last -1 passes the -4 and stops at the 3, the last on generator 3.
    ((3, -4, -1, 4, 4), (3, -1, -4, 4, 4)),
    # Three strands have no two generators two apart: nothing moves.
    ((1, -2, 1, 2, -1), (1, -2, 1, 2, -1)),
    # perfbench's wide word at m = 3: the last 1 passes the last-but-one 3.
    ((1, -2, 3) * 3, (1, -2, 3, 1, -2, 1, 3, -2, 3)),
)


def _commutation_class(letters):
    # Two words are equal up to swapping neighbours on generators two or
    # more apart exactly when, for every pair of generators at most one
    # apart, they keep the same letters on that pair in the same order
    # (Cartier-Foata).
    gens = {abs(k) for k in letters}
    return {
        (g, h): [k for k in letters if abs(k) in (g, h)]
        for g in gens
        for h in gens
        if abs(g - h) <= 1
    }


def test_swept_order():
    for letters, swept in _SWEPT_ORDERS:
        order, last, after = _closing_checks(letters)
        assert order == swept, letters
        # The tests are those of the order swept.
        assert (last, after) == as_written(order)[1:], letters
    # A word that keeps its order is returned as it is.
    letters = _SWEPT_ORDERS[4][0]
    assert _closing_checks(letters)[0] is letters
    rng = random.Random(71)
    for _ in range(300):
        b = rand_braid(rng, max_strands=7, max_len=14)
        order, last, after = _closing_checks(b.letters)
        assert _commutation_class(order) == _commutation_class(b.letters), b
        assert (last, after) == as_written(order)[1:], b
        if b.strands <= 3:
            assert order is b.letters


def _assert_state_sums(pairs) -> None:
    # Each (case, sweep) pair sweeps its anchor's convention, (-) at 0 and
    # (+) at n: its count is the number of states enumerated there, and a
    # weighted sweep's value is that convention's state sum.
    references = {}
    for (b, n, table, anchor), (value, count) in pairs:
        convention = MINUS if anchor == 0 else PLUS
        if (b, n, convention) not in references:
            d = build(b)
            references[b, n, convention] = (
                state_sum(d, n, convention),
                len(enumerate_states(d, n, convention)),
            )
        reference = references[b, n, convention]
        assert count == reference[1], (b, n, anchor)
        if table is not _unit_row:
            assert value == reference[0], (b, n, anchor)


def test_swept_order_keeps_every_sweep():
    # Moving letters past letters on generators two or more apart keeps
    # every state and weight: the swept order's sweep equals the sweep of
    # the word as written under each table at both anchors, and the state
    # sums and enumerated counts where they are cheap.
    rng = random.Random(73)
    words = [BraidWord(max(4, max(map(abs, w)) + 1), w) for w, _ in _SWEPT_ORDERS]
    for _ in range(200):
        s = rng.randint(4, 6)
        letters = random_letters(rng, s, rng.randint(4, 10))
        if len(words) < 30 and _closing_checks(letters)[0] != letters:
            words.append(BraidWord(s, letters))
    assert len(words) == 30
    cases = sweep_cases((b, (1, 2, 3)) for b in words)
    swept = assert_patch_keeps_sweeps(cases, "_closing_checks", as_written)
    cheap = [
        ((b, n, table, anchor), result)
        for (b, n, table, anchor), result in zip(cases, swept)
        if len(b.letters) <= 6 and b.strands <= 5 and n <= 2
    ]
    _assert_state_sums(cheap)


def _due(letters):
    # For each generator's last letter in the order swept, the number of
    # letters swept once its inputs are final: up to the last earlier letter
    # on g-1, g or g+1.
    order, last, _ = _closing_checks(letters)
    return [
        max((m + 1 for m in range(i) if abs(abs(order[m]) - abs(k)) <= 1), default=0)
        for i, k in enumerate(order)
        if last[i]
    ]


def test_both_closing_test_paths_match_the_state_sums():
    # An early test due before the first letter, and a second one due after
    # the same letter, are not scheduled: the last letter closes alone.  Both
    # shapes must occur.  Anchors 0 and n give the test on generator 2
    # different inputs P_0.
    rng = random.Random(41)
    words = [
        BraidWord(4, (1, -2, -2, -1, 3, 2)),
        BraidWord(4, (2, -3, 1, 2, -1, 3)),
        BraidWord(4, (-3, 1, 2, -3, -2, -1)),
        BraidWord(4, (1, -2, 3, 1, -2, 3)),
        BraidWord(3, (1, 1, -2, 1, -2)),
    ]
    words += [rand_braid(rng, max_len=6) for _ in range(6)]
    shapes = set()
    for b in words:
        due = Counter(_due(b.letters))
        if due[0]:
            shapes.add("before the first letter")
        if any(count > 1 for m, count in due.items() if m):
            shapes.add("two after one letter")
        d = build(b)
        for n in (1, 2, 3):
            value = state_sum(d, n, MINUS)
            assert state_sum(d, n, PLUS) == value
            for anchor, convention in ((0, MINUS), (n, PLUS)):
                count = len(enumerate_states(d, n, convention))
                assert state_count(b, n, convention) == count
                for table in (_rmatrix_row, _gl_row):
                    assert _sweep(b, n, table, anchor) == (value, count), (b, n)
    assert shapes == {"before the first letter", "two after one letter"}


def test_last_letter_closes_without_early_tests():
    # Early tests only prune: with none scheduled, the last letter on each
    # generator still closes every state, under every table and anchor.
    rng = random.Random(53)
    words = list(_EDGE_WORDS)
    words += [(rand_braid(rng, max_len=6), (1, 2, 3)) for _ in range(20)]
    cases = sweep_cases(words)
    swept = assert_patch_keeps_sweeps(cases, "_closing_checks", unscheduled)
    _assert_state_sums(zip(cases, swept))


def _closes(n, sign, home, x2, y2, z2):
    # The prefix-sum form of the closing test on generator h (see the
    # statesum module docstring): with home = start P_{h-1} and (x2, y2, z2)
    # = (P_{h-2}, P_{h-1}, P_h), the closing jump is in 0.._max_jump.
    if sign < 0:
        return _closes(n, 1, -home, -z2, -y2, -x2)
    return z2 >= home and x2 >= home - n and y2 >= x2 + z2 - home


def test_early_test_inequalities_are_the_flow_rule():
    # The three inequalities, and the negative sign as the positive one on
    # the reflected inputs, hold exactly when the closing jump
    # sign*(home - x2 - b2) is one the flow rule allows, at every pair of
    # entering colors and every home and x2 in range.
    for n in range(1, 9):
        for sign, a2, b2 in product((1, -1), range(n + 1), range(n + 1)):
            limit = _max_jump(n, sign, a2, b2)
            for x2 in range(2 * n + 1):
                y2, z2 = x2 + a2, x2 + a2 + b2
                for home in range(4 * n + 2):
                    closes = _closes(n, sign, home, x2, y2, z2)
                    assert closes == (0 <= sign * (home - x2 - b2) <= limit)
                    if sign < 0:
                        explicit = x2 <= home and z2 <= home + n
                        assert closes == (explicit and y2 <= x2 + z2 - home)


def test_every_case_of_the_early_bound():
    # Each early test reduces to a bound on the left color, with one case
    # per input the letter moves and per sign.  The schedule of these words
    # takes all six, on h = 1 and on h = s - 1 as well as between, counted
    # on the order swept; each sweep must match the state sums, the
    # enumerated count and the sweep with no early test.
    seen = set()
    for b in EARLY_TEST_WORDS:
        order, _, after = _closing_checks(b.letters)
        for letter, due in zip(order, after):
            if due:
                h, sign = due
                at = "1" if h == 1 else "s - 1" if h == b.strands - 1 else "between"
                # 0, 1, 2: the letter moves P_{h-2}, P_{h-1} or P_h.
                seen.add((abs(letter) - h + 1, sign, at))

    def cases(where, moved):
        return {(m, sign) for m, sign, at in seen if at in where} == set(
            product(moved, (1, -1))
        )

    assert cases(("1", "s - 1", "between"), (0, 1, 2))
    # No letter moves P_{h-2} of h = 1, nor P_h of h = s - 1.
    assert cases(("1",), (1, 2))
    assert cases(("s - 1",), (0, 1))
    assert cases(("between",), (0, 1, 2))
    sweeps = sweep_cases((b, (1, 2, 3)) for b in EARLY_TEST_WORDS)
    pruned = assert_patch_keeps_sweeps(sweeps, "_closing_checks", unscheduled)
    _assert_state_sums(zip(sweeps, pruned))


def test_early_tests_prune_exactly(monkeypatch):
    # A looser bound would only prune less, so each early test is checked
    # to be exact: scheduled alone after its letter in the order swept, it
    # keeps as many partial states as the closing letter, appended there,
    # closes.
    rng = random.Random(67)
    words = list(EARLY_TEST_WORDS)
    words += [rand_braid(rng, max_strands=5, max_len=7) for _ in range(40)]
    for b in words:
        order, _, after = _closing_checks(b.letters)
        for i, due in enumerate(after):
            if due is None:
                continue
            h, sign = due
            early = BraidWord(b.strands, order[: i + 1])
            closing = BraidWord(b.strands, early.letters + (sign * h,))
            alone = (early.letters, [False] * (i + 1), [None] * i + [due])
            closed = (closing.letters, [False] * (i + 1) + [True], [None] * (i + 2))
            for n in (1, 2, 3):
                for anchor in (0, n):
                    with monkeypatch.context() as patch:
                        patch.setattr(statesum, "_closing_checks", lambda _: alone)
                        kept = _sweep(early, n, _unit_row, anchor)[1]
                        patch.setattr(statesum, "_closing_checks", lambda _: closed)
                        assert kept == _sweep(closing, n, _unit_row, anchor)[1], (b, i, n)


def _worst_row_k(table, n):
    # A first guess that is a proof: the summed bound grows by at most a
    # row's summed step bounds per letter, the largest of that sign.
    growth = {
        sign > 0: max(
            sum(step[3] for step in table(n, sign, a, b, 2))
            for a in range(n + 1)
            for b in range(n + 1)
        ).bit_length()
        for sign in (1, -1)
    }
    return lambda bits, rate, ahead: bits + 1 + sum(growth[g > 0] for g in ahead)


def test_value_does_not_depend_on_the_guess(monkeypatch):
    # The bounds prove K wherever values decode, so the guess of K only
    # decides where the sweep re-packs.  Guessed at 2, each span starts at
    # exactly the K its first layer's bound proves, and spans end early;
    # guessed at the worst-row proof over the letters ahead, no span ends
    # before those letters are swept, so a horizon of h letters takes at
    # most one span per h letters.
    rng = random.Random(61)
    cases = list(_EDGE_WORDS)
    cases += [(rand_braid(rng, max_len=6), (1, 2, 3)) for _ in range(20)]
    guesses = []

    def counted(guess):
        def guessing(*args):
            guesses.append(args)
            return guess(*args)

        return guessing

    early = 0
    for b, colors in cases:
        d = build(b)
        for n in colors:
            value = state_sum(d, n, MINUS)
            for anchor, convention in ((0, MINUS), (n, PLUS)):
                count = len(enumerate_states(d, n, convention))
                for table in (_rmatrix_row, _gl_row, _unit_row):
                    for horizon in (1, 32):
                        most = max(1, -(-len(b.letters) // horizon))
                        with monkeypatch.context() as patch:
                            patch.setattr(statesum, "GUESS_LETTERS", horizon)
                            result = _sweep(b, n, table, anchor)
                            for guess in (lambda *_: 2, _worst_row_k(table, n)):
                                guesses.clear()
                                patch.setattr(statesum, "_first_k", counted(guess))
                                assert _sweep(b, n, table, anchor) == result, (b, n)
                                early += len(guesses) > most
                            assert len(guesses) <= most, (b, n, anchor)
                        assert result[1] == count, (b, n, anchor)
                        if table is not _unit_row:
                            assert result[0] == value, (b, n, anchor)
    assert early


def _tripled(n, sign, a, b):
    # Every allowed jump weighs 3, so coefficients grow 3-fold per letter.
    return (LaurentQ.from_int(3),) * (_max_jump(n, sign, a, b) + 1)


@pytest.mark.parametrize("extra", (-1, 0, 1))
def test_first_chunk_boundary(extra, monkeypatch):
    # Words one letter shorter than the guess's horizon, as long and one
    # longer.  The first span sweeps from the seed, with no re-pack; with a
    # horizon of one letter it ends early, and the next span re-packs the
    # layer the first one swept.
    b = BraidWord(3, ((1, -1, 2, -2) * GUESS_LETTERS)[: GUESS_LETTERS + extra])
    for horizon in (GUESS_LETTERS, 1):
        monkeypatch.setattr(statesum, "GUESS_LETTERS", horizon)
        _check_against_state_sums(b, (1,))
        closure, count = _sweep(b, 1, _unit_row, 0)
        tripled = (3 ** len(b.letters) * closure, count)
        assert _sweep(b, 1, packed(_tripled), 0) == tripled


def _negated(n, sign, a, b):
    # Every allowed jump weighs -1, packed as N = -1.
    return (-ONE,) * (_max_jump(n, sign, a, b) + 1)


def test_unit_weight_shortcut_skips_only_one(monkeypatch):
    # The sweep skips the product by a weight packed as 1; one packed as -1
    # must still flip the sign, within a span and across re-packs.
    negated = packed(_negated)
    for b in (parse("1 -2 1 2 2"), BraidWord(3, (1, -1, 2) * 11)):
        assert len(b.letters) % 2
        for horizon in (GUESS_LETTERS, 1):
            monkeypatch.setattr(statesum, "GUESS_LETTERS", horizon)
            for n in (1, 2):
                for anchor in (0, n):
                    closure, count = _sweep(b, n, _unit_row, anchor)
                    assert _sweep(b, n, negated, anchor) == (-closure, count)


def test_rows_read_once_per_chunk(monkeypatch):
    # The sweep holds each span's rows in a grid by entering colors, so a
    # row (sign, a, b, K) is requested at most once per span; each span
    # starts with its guess of K.  Guessed at 2 as well, K is the least each
    # span's first layer proves, so spans end all along the word.
    sweeps = []

    def spanning(guess):
        def guessing(*args):
            sweeps.append(Counter())
            return guess(*args)

        return guessing

    def counting(n, sign, a, b, k):
        sweeps[-1][sign, a, b, k] += 1
        return _rmatrix_row(n, sign, a, b, k)

    cases = [(BraidWord(3, (-1, 2) * 5), 3), (parse("1 -2 3 1 -2 3"), 2)]
    cases += [(BraidWord(3, (1, -1) * 40 + (-1, 2) * 3), 2)]
    spans = []
    for guess in (statesum._first_k, lambda *_: 2):
        monkeypatch.setattr(statesum, "_first_k", spanning(guess))
        for b, n in cases:
            expected = _sweep(b, n, _rmatrix_row, 0)
            sweeps.clear()
            assert _sweep(b, n, counting, 0) == expected
            assert all(v == 1 for requests in sweeps for v in requests.values()), b
            spans.append(len(sweeps))
    assert max(spans) > 1


def test_packed_rows_keyed_on_k_and_table():
    # The packed rows are cached per process, per table and per K.
    # sigma_1^2 and sigma_1^41 read the same rows, at a K guessed for 2
    # letters and for the 32 letters ahead: each sweep must see its rows
    # packed at its own K.  They are read through two tables, R-matrix first, then one
    # whose weights differ; sigma_1^2 first guesses the same K under both
    # (the guess reads the word and n alone), so each table must see its
    # own weights.
    _rmatrix_row.cache_clear()
    length = GUESS_LETTERS + 9
    short, long_ = BraidWord(2, (1, 1)), torus_braid(2, length)
    assert _sweep(short, 2, _rmatrix_row, 0)[0] == state_sum(build(short), 2, MINUS)
    assert _sweep(long_, 2, _rmatrix_row, 0)[0] == rosso_jones(2, length, 2)
    tripled = packed(_tripled)
    for b in (short, long_):
        closure, count = _sweep(b, 2, _unit_row, 0)
        assert _sweep(b, 2, tripled, 0) == (3 ** len(b.letters) * closure, count)


def test_sweeps_do_not_depend_on_call_order():
    # Packed rows and first layers are shared by every sweep in a process.
    # Results computed in an interleaved order, under all three models (so
    # at anchors 0 and n), must equal those computed from empty caches.  A word with no letters returns its first layer itself,
    # closed, so reading it twice catches a sweep that mutates a shared one.
    rng = random.Random(29)
    cases = [(rand_braid(rng, max_len=8), rng.randint(1, 3)) for _ in range(40)]
    cases += [(BraidWord(s, ()), n) for s in (2, 3, 4) for n in (1, 2, 3)] * 2
    rng.shuffle(cases)
    models = ("rmatrix", "gl", "both")
    interleaved = [framed_and_count(b, n, m) for b, n in cases for m in models]
    fresh = []
    for b, n in cases:
        for model in models:
            for cache in (_rmatrix_row, _gl_row, _unit_row, _seed):
                cache.cache_clear()
            fresh.append(framed_and_count(b, n, model))
    assert interleaved == fresh


def test_sweep_value_does_not_depend_on_anchor():
    # Cutting the closure open anywhere gives a scalar (1,1)-tangle, so
    # every anchor color gives the same value.
    rng = random.Random(8)
    for _ in range(100):
        s = rng.randint(2, 5)
        b = BraidWord(s, random_letters(rng, s, rng.randint(0, 8)))
        # at most 81 start vectors per anchor keeps the test under a second
        for n in (n for n in (1, 2, 3) if (n + 1) ** s <= 81):
            for table in (_rmatrix_row, _gl_row):
                values = {_sweep(b, n, table, a)[0] for a in range(n + 1)}
                assert len(values) == 1, (b, n, table)


def _mixing_table(n, sign, a, b):
    # The shared support with weight t**(a/4) at jump 0 and 1 above it.
    return (LaurentQ.t_quarter(a), ONE)[: _max_jump(n, sign, a, b) + 1]


def test_exponent_class_law():
    # The law that keys the sweep's layer on colors alone holds on every
    # row of the three tables; CI checks it at every color up to n = 26.
    assert_exponent_class_law(range(1, 9))


def test_sweep_refuses_mixed_exponent_classes():
    # _mixing_table breaks the exponent-class law, so partial states of two
    # classes mod 4 meet, which no packed sum can hold: the sweep must raise
    # rather than sum them wrong.  At n = 1 on 1 1 with anchor 1, the paths
    # with jumps (0, 0) and (1, 1) from (1, 0) both return to (1, 0), with
    # weights t**(1/4) and 1.  On -1 -1 with anchor 0 two classes meet in one
    # key while the closed states share one; on 1 with anchor 1 no key
    # merges, but the closed states weigh t**(-1/2) and t**(3/4).
    table = packed(_mixing_table)
    # The message names the key decoded to its (start, cur) prefix sums.
    for letters, anchor, message in (
        ((1, 1), 1, "exponent classes mod 4 meet at ((1, 1), (1, 1))"),
        ((-1, -1), 0, "exponent classes mod 4 meet at ((0, 1), (0, 1))"),
        ((1,), 1, "closed states in two exponent classes mod 4"),
    ):
        with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
            _sweep(BraidWord(2, letters), 1, table, anchor)


@pytest.mark.parametrize(
    "strands, n, text", ((3, 5, "-1 2 -1 2"), (2, 8, "1 1 1"), (4, 4, "-1 2 -3 2 1"))
)
def test_layer_key_fields_at_their_width(strands, n, text):
    # A layer key holds each prefix sum, at most strands*n, in a field of
    # _width bits: here strands*n is 2**width - 1 (15 in 4 bits) or
    # 2**(width - 1) (16 in 5 bits).  Anchored at n, the all-n start vector
    # reaches strands*n in the top field of both halves.
    width = _width(strands, n)
    assert strands * n in ((1 << width) - 1, 1 << (width - 1))
    keys = [_decode(key, strands, width) for key in _seed(strands, n, n)]
    assert all(start == cur for start, cur in keys)
    rests = product(range(n + 1), repeat=strands - 1)
    assert sorted(start for start, _ in keys) == sorted(
        tuple(accumulate((n,) + rest)) for rest in rests
    )
    b = parse(text, strands)
    d = build(b)
    value = state_sum(d, n, MINUS)
    assert state_sum(d, n, PLUS) == value
    for anchor, convention in ((0, MINUS), (n, PLUS)):
        count = len(enumerate_states(d, n, convention))
        for table in (_rmatrix_row, _gl_row):
            assert _sweep(b, n, table, anchor) == (value, count), (table, anchor)
        assert _sweep(b, n, _unit_row, anchor)[1] == count, anchor


def test_widest_layer_key_against_the_bracket():
    # Thirteen strands at n = 1, the most the work limit admits: a key of
    # 26 fields, 4 bits each.
    check_work(13, 1)
    with pytest.raises(ValueError, match="too large"):
        check_work(14, 1)
    assert _width(13, 1) == 4
    b = BraidWord(13, (-1, 2, -3, 4, -5, 6, -7, 8, -9, 10, -11, 12, 2))
    sign = 1 if b.component_count() % 2 else -1
    oracle = kauffman_jones(b).substitute_inverse() * sign
    for model in ("rmatrix", "gl", "both"):
        assert colored_jones_unframed(b, 1, model) == oracle, model


def _cancelling_table(n, sign, a, b):
    # The shared support with weight -1 on jump 1, so that paths merging
    # into one key can cancel.
    return (ONE, -ONE)[: _max_jump(n, sign, a, b) + 1]


def test_repack_keeps_count_of_cancelled_entry(monkeypatch):
    # On 1 2 1 1 at n = 1 with anchor 1, partial states of weights +1 and -1
    # merge into one key.  Re-packed after it, that entry's value is 0, and
    # it must still carry its two states to the closed count.  With K
    # guessed at 2 and every step bound raised 2**64-fold (still a bound;
    # steps of weight 1 skip theirs), the layers outgrow K letter by
    # letter, so the sweep re-packs between letters and decodes that 0.
    b, cancelling = BraidWord(3, (1, 2, 1, 1)), packed(_cancelling_table)
    value, count = _sweep(b, 1, cancelling, 1)
    assert (value, count) == (LaurentQ({-4: -1, 0: -2, 4: 1}), 6)

    def inflated(*entry):
        return tuple(step[:3] + (step[3] << 64,) for step in cancelling(*entry))

    decoded = []
    monkeypatch.setattr(statesum, "_first_k", lambda *_: 2)
    monkeypatch.setattr(statesum, "unpack", lambda *a: decoded.append(a) or unpack(*a))
    assert _sweep(b, 1, inflated, 1) == (value, count)
    assert any(not unpack(*a) for a in decoded)
    assert _sweep(b, 1, _unit_row, 1)[1] == count


def test_span_ends_only_where_k_is_outgrown(monkeypatch):
    # A K that holds the whole word leaves nothing to re-pack: sigma_1^101
    # at n = 2 sweeps in one span and decodes once, at the end.  Guessed
    # as the sweep guesses, T(2,301) at n = 1 outgrows K several times, so
    # its value crosses re-packs, against the torus-knot formula.
    spans, decoded = [], []
    first_k = statesum._first_k
    monkeypatch.setattr(statesum, "_first_k", lambda *a: spans.append(a) or 1000)
    monkeypatch.setattr(statesum, "unpack", lambda *a: decoded.append(a) or unpack(*a))
    assert _sweep(torus_braid(2, 101), 2, _rmatrix_row, 0)[0] == rosso_jones(2, 101, 2)
    assert (len(spans), len(decoded)) == (1, 1)
    spans.clear()
    monkeypatch.setattr(statesum, "_first_k", lambda *a: spans.append(a) or first_k(*a))
    assert colored_jones_framed(torus_braid(2, 301), 1) == rosso_jones(2, 301, 1)
    assert len(spans) > 1


def test_reversal_keeps_value_and_count_at_every_anchor():
    # The flow relation is its own inverse, so the states of the reversed
    # word are those of the word read backwards, with the same closure
    # colors; the value is the invariant of the reversed closure.
    rng = random.Random(34)
    for _ in range(40):
        s = rng.randint(2, 4)
        letters = random_letters(rng, s, rng.randint(0, 8))
        b, reversed_ = BraidWord(s, letters), BraidWord(s, letters[::-1])
        # at most 81 start vectors per anchor keeps the test under a second
        for n in (n for n in (1, 2, 3) if (n + 1) ** s <= 81):
            for table in (_rmatrix_row, _gl_row, _unit_row):
                for anchor in range(n + 1):
                    assert _sweep(reversed_, n, table, anchor) == _sweep(
                        b, n, table, anchor
                    ), (b, n, table, anchor)


def test_words_without_letters():
    for n in (1, 2, 3):
        for convention, model in ((MINUS, "rmatrix"), (PLUS, "gl")):
            assert colored_jones_framed(BraidWord(1, ()), n, model) == ONE
            assert state_count(BraidWord(1, ()), n, convention) == 1
            value = colored_jones_framed(BraidWord(3, ()), n, model)
            assert value == qint(n + 1) ** 2
            assert state_count(BraidWord(3, ()), n, convention) == (n + 1) ** 2


def test_long_word_state_sum_matches_sweep():
    # 1,100 crossings: the enumeration must not recurse once per crossing
    b = BraidWord(2, (1, -1) * 550)
    assert state_sum(build(b), 1, PLUS) == colored_jones_framed(b, 1, "gl")
    # 37 letters on 3 components with 50 states in each convention at n = 2
    b = BraidWord(4, (3, 2, -3, 2) + (1, -1) * 16 + (-3,))
    d = build(b)
    assert d.component_count == 3
    for convention, model in ((MINUS, "rmatrix"), (PLUS, "gl")):
        assert state_sum(d, 2, convention) == colored_jones_framed(b, 2, model)
        assert state_count(b, 2, convention) == 50
        assert len(enumerate_states(d, 2, convention)) == 50


def test_oversized_request_refused_fast():
    began = time.perf_counter()
    with pytest.raises(ValueError, match="too large"):
        colored_jones_framed(parse("1 2 3", 4), 400)
    with pytest.raises(ValueError, match="too large"):
        state_sum(build(parse("1 1 1")), 1000000, MINUS)
    assert time.perf_counter() - began < 1
