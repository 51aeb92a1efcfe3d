"""Cross-checks between the two state models and the global laws the
totals must satisfy: framing, reflection, skein, exponent parity."""

import random
import time

import pytest

from braidjones import statesum
from braidjones.braid import BraidWord, parse
from braidjones.diagram import build
from braidjones.oracle import rosso_jones, torus_braid
from braidjones.qalgebra import ONE, LaurentQ, qbinom, qint, unpack
from braidjones.states import MINUS, PLUS, enumerate_states, flow_bijection
from braidjones.statesum import (
    REPACK_LETTERS,
    ModelMismatchError,
    _closing_checks,
    _exact_k,
    _gl_row,
    _growth,
    _max_jump,
    _rmatrix_row,
    _seed,
    _sweep,
    _unit_row,
    certify_correspondence,
    colored_jones_framed,
    colored_jones_unframed,
    framed_and_count,
    gl_contribution,
    parity_halfinteger_check,
    rmatrix_contribution,
    state_count,
    state_sum,
)
from packing import gl_step, packed, rmatrix_step


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
    for n in range(1, 9):
        for s in (1, -1):
            k = _exact_k(n, s)
            for a in range(n + 1):
                for b in range(n + 1):
                    gl, rm = gl_step(n, s, a, b), rmatrix_step(n, s, a, b)
                    assert len(gl) == len(rm)
                    for row, weights in ((_gl_row, gl), (_rmatrix_row, rm)):
                        expected = [(b + s * r, w) for r, w in enumerate(weights)]
                        assert [
                            (left, unpack(lo, w, k)) for left, lo, w in row(n, s, a, b, k)
                        ] == expected
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
    # Tables that allow different jump counts break the entry, whichever
    # table has the extra jump, and the certificate names it; so does a
    # weight whose exponents differ by a quarter, which no packing holds.
    extra = LaurentQ.t_quarter(4)
    for convention, step in ((PLUS, gl_step), (MINUS, rmatrix_step)):
        healthy = statesum._TABLES[convention]
        for table in (
            lambda n, s, a, b, step=step: step(n, s, a, b) + (extra,),
            lambda n, s, a, b, step=step: step(n, s, a, b)[:-1],
            lambda n, s, a, b, step=step: tuple(
                w + LaurentQ.t_quarter(1) for w in step(n, s, a, b)
            ),
        ):
            monkeypatch.setitem(statesum._TABLES, convention, packed(table))
            with pytest.raises(ModelMismatchError, match=r"entry \(0, 0\) -> "):
                certify_correspondence(2, (1,))
            with pytest.raises(ModelMismatchError, match=r"entry \(0, 0\) -> "):
                colored_jones_framed(parse("1 1 1"), 2, "both")
        monkeypatch.setitem(statesum._TABLES, convention, healthy)


def test_growth_is_the_largest_reference_row_norm():
    # _growth decodes the packed rows at the certificate's K; it must read
    # the true norms, which set every sweep's K.
    for n in range(1, 11):
        for s in (1, -1):
            for row, step in ((_rmatrix_row, rmatrix_step), (_gl_row, gl_step)):
                assert _growth(row, n, s) == max(
                    sum(w.l1_norm() for w in step(n, s, a, b))
                    for a in range(n + 1)
                    for b in range(n + 1)
                )
            assert _growth(_unit_row, n, s) == n + 1


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
    # Every entry refuses a color below 1 with the one message check_work
    # gives, whatever the word, model or convention.
    for n in (0, -1):
        for word in (parse("1"), parse("-1 -1"), BraidWord(1, ())):
            for model in ("rmatrix", "gl", "both"):
                with pytest.raises(ValueError, match="color n must be >= 1"):
                    colored_jones_framed(word, n, model)
            for convention in (MINUS, PLUS):
                with pytest.raises(ValueError, match="color n must be >= 1"):
                    state_count(word, n, convention)
                with pytest.raises(ValueError, match="color n must be >= 1"):
                    state_sum(build(word), n, convention)
                with pytest.raises(ValueError, match="color n must be >= 1"):
                    enumerate_states(build(word), n, convention)
    with pytest.raises(ValueError):
        colored_jones_framed(parse("1"), 1, "quantum")
    with pytest.raises(ValueError, match="convention must be"):
        state_count(parse("1"), 1, 0)


def test_packed_sweep_across_repacks():
    # Both tables against the R-matrix state sum, which is cheap here; the
    # arc-transition one has 47,300 states at n = 2 and is checked at n = 1.
    b = BraidWord(3, (1, -1) * 40 + (-1, 2) * 3)
    assert len(b.letters) > 2 * REPACK_LETTERS
    d = build(b)
    for n in (1, 2):
        reference = state_sum(d, n, MINUS)
        assert colored_jones_framed(b, n, "rmatrix") == reference
        assert colored_jones_framed(b, n, "gl") == reference
        assert state_count(b, n, MINUS) == len(enumerate_states(d, n, MINUS))
    assert colored_jones_framed(b, 1, "gl") == state_sum(d, 1, PLUS)
    assert state_count(b, 1, PLUS) == len(enumerate_states(d, 1, PLUS))


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
        letters = tuple(
            rng.choice([1, -1]) * rng.randint(1, s - 1)
            for _ in range(rng.randint(4, 8))
        )
        b = BraidWord(s, letters)
        d = build(b)
        for n in (1, 2):
            for convention, model in ((MINUS, "rmatrix"), (PLUS, "gl")):
                value = colored_jones_framed(b, n, model)
                assert value == state_sum(d, n, convention)


def test_sweep_pruning_edge_words():
    # The last 3 reads P_1, P_2 and P_3, which letters on generator 1 do not
    # move: its early check runs after the second -2, before the -1.
    _check_against_state_sums(BraidWord(4, (1, -2, -2, -1, 3, 2)), (1, 2, 3))
    # The early check of the last 1 follows the third letter, in the chunk
    # before the one that holds the last 1 itself.
    b = BraidWord(4, (1, -2, 1) + (3, -3) * 16 + (1, 2))
    assert 3 <= REPACK_LETTERS <= len(b.letters) - 2
    _check_against_state_sums(b, (1, 2))
    # The last -3 reads P_1, which last changes at the 2 on generator 2,
    # four letters in; the letters on 1 between them do not move its inputs,
    # so its early check runs a chunk before it.
    b = BraidWord(4, (3, 2, -3, 2) + (1, -1) * 16 + (-3,))
    assert 4 < REPACK_LETTERS < len(b.letters)
    _check_against_state_sums(b, (1,))
    # The first letter is already the last on generator 1: its check
    # filters the first layer.
    _check_against_state_sums(BraidWord(3, (1, 2, 2)), (1, 2, 3))
    # One strand has no generator; an unused generator's prefix sum never
    # moves and closes as it starts.
    _check_against_state_sums(BraidWord(1, ()), (1, 2, 3))
    _check_against_state_sums(BraidWord(4, (1, -1, 1, 3, 3)), (1, 2))


def test_closing_checks():
    # (last letter on its generator?, early checks by the number of letters
    # swept before them)
    assert _closing_checks(()) == ([], [[]])
    last, early = _closing_checks((1, -2, -2, -1, 3, 2))
    assert last == [False, False, False, True, True, True]
    assert early == [[], [], [], [(3, 1), (1, -1)], [], [(2, 1)], []]
    last, early = _closing_checks((1, 2, 2))
    assert last == [True, False, True]
    assert early == [[(1, 1)], [], [(2, 1)], []]
    # The last -3 is checked once its inputs P_1..P_3 are final: after the
    # last 2, since letters on generator 1 do not move them.
    last, early = _closing_checks((3, 2, -3, 2, 1, -1, -3))
    assert last == [False, False, False, True, False, True, True]
    assert early == [[], [], [], [(2, 1)], [(3, -1)], [(1, -1)], [], []]


def _tripled(n, sign, a, b):
    # Every allowed jump weighs 3, so coefficients grow 3-fold per letter.
    return (LaurentQ.from_int(3),) * (_max_jump(n, sign, a, b) + 1)


@pytest.mark.parametrize("extra", (-1, 0, 1))
def test_first_chunk_boundary(extra, monkeypatch):
    # The first chunk's K is sized from the start count, with no re-pack;
    # the second chunk re-packs a layer swept at that K.
    b = BraidWord(3, ((1, -1, 2, -2) * REPACK_LETTERS)[: REPACK_LETTERS + extra])
    for repack in (REPACK_LETTERS, 1):
        monkeypatch.setattr(statesum, "REPACK_LETTERS", repack)
        _check_against_state_sums(b, (1,))
        closure, count = _sweep(b, 1, _unit_row, 0)
        tripled = (3 ** len(b.letters) * closure, count)
        assert _sweep(b, 1, packed(_tripled), 0) == tripled


def test_packed_rows_keyed_on_k_and_table():
    # The packed rows are cached per process, per table and per K.
    # sigma_1^2 and sigma_1^41 read the same rows, at K sized from 2 letters
    # and from a chunk of 32: each sweep must see its rows packed at its own
    # K.  They are read through two tables, R-matrix first, then one whose
    # weights differ; sigma_1^2 sizes the same K under both (3 * 7**2 and
    # 3 * 9**2 have 8 bits), so each table must see its own weights.
    _rmatrix_row.cache_clear()
    length = REPACK_LETTERS + 9
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
        letters = tuple(
            rng.choice([1, -1]) * rng.randint(1, s - 1)
            for _ in range(rng.randint(0, 8))
        )
        b = BraidWord(s, letters)
        # at most 81 start vectors per anchor keeps the test under a second
        for n in (n for n in (1, 2, 3) if (n + 1) ** s <= 81):
            for table in (_rmatrix_row, _gl_row):
                values = {_sweep(b, n, table, a)[0] for a in range(n + 1)}
                assert len(values) == 1, (b, n, table)


def _mixing_table(n, sign, a, b):
    # The shared support with weight t**(a/4) at jump 0 and 1 above it.
    return (LaurentQ.t_quarter(a), ONE)[: _max_jump(n, sign, a, b) + 1]


def test_sweep_keeps_residues_apart():
    # At n = 1 with anchor 1, the paths with jumps (0, 0) and (1, 1) from
    # (1, 0) both return to (1, 0), with weights t**(1/4) and 1 times the
    # closure weight t**(-1/2); start (1, 1) returns with t**(1/2) times
    # t**(1/2).  The closed total keeps both residues of start (1, 0) only
    # if the sweep keeps them apart.
    closed, _ = _sweep(BraidWord(2, (1, 1)), 1, packed(_mixing_table), 1)
    assert closed == LaurentQ({-2: 1, -1: 1, 4: 1})


def _cancelling_table(n, sign, a, b):
    # The shared support with weight -1 on jump 1, so that paths merging
    # into one key can cancel.
    return (ONE, -ONE)[: _max_jump(n, sign, a, b) + 1]


def test_repack_keeps_count_of_cancelled_entry(monkeypatch):
    # On 1 2 1 1 at n = 1 with anchor 1, partial states of weights +1 and -1
    # merge into one key.  Re-packed after every letter, that entry's value
    # is 0, and it must still carry its two states to the closed count.
    b, cancelling = BraidWord(3, (1, 2, 1, 1)), packed(_cancelling_table)
    value, count = _sweep(b, 1, cancelling, 1)
    assert (value, count) == (LaurentQ({-4: -1, 0: -2, 4: 1}), 6)
    monkeypatch.setattr(statesum, "REPACK_LETTERS", 1)
    assert _sweep(b, 1, cancelling, 1) == (value, count)
    assert _sweep(b, 1, _unit_row, 1)[1] == count


def test_reversal_keeps_value_and_count_at_every_anchor():
    # The flow relation is its own inverse, so the states of the reversed
    # word are those of the word read backwards, with the same closure
    # colors; the value is the invariant of the reversed closure.
    rng = random.Random(34)
    for _ in range(40):
        s = rng.randint(2, 4)
        letters = tuple(
            rng.choice([1, -1]) * rng.randint(1, s - 1)
            for _ in range(rng.randint(0, 8))
        )
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
