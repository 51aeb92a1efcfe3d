"""Acceptance checklist for the package, one test per criterion.

Every comparison is exact in the Laurent ring; there are no tolerances.
Each test prints a single PASS line (visible with pytest -s) once all of
its assertions hold.
"""

import random
import time
from collections import Counter

from braidjones.braid import BraidWord, parse
from braidjones.cli import PRESETS
from braidjones.diagram import build
from braidjones.oracle import kauffman_jones
from braidjones.qalgebra import ONE, LaurentQ, qint
from braidjones.states import (
    MINUS,
    PLUS,
    Potential,
    enumerate_states,
    pochhammer,
    pochhammer_signed,
    qbinom,
    qbinom_signed,
    qbrace,
    state_sum,
)
from braidjones.statesum import (
    colored_jones_framed,
    colored_jones_unframed,
    state_count,
)
from identities import (
    cyclic_labels,
    parity_halfinteger_check,
    solve_jumps,
    verify_matrix_lemma,
    verify_pochhammer_identity,
    verify_prop_61,
    verify_prop_62,
)


def _preset_braids() -> list[BraidWord]:
    braids = []
    for text, strands in PRESETS.values():
        braids.append(parse(text, strands))
    return braids


def _corpus() -> list[BraidWord]:
    braids = _preset_braids()
    rng = random.Random(2024)
    seen = {(b.strands, b.letters) for b in braids}
    while len(braids) < 52:
        s = rng.randint(2, 4)
        letters = tuple(
            rng.choice([1, -1]) * rng.randint(1, s - 1)
            for _ in range(rng.randint(1, 8))
        )
        key = (s, letters)
        if key not in seen:
            seen.add(key)
            braids.append(BraidWord(s, letters))
    return braids


CORPUS = _corpus()


def test_criterion_1_anchor_values():
    started = time.perf_counter()
    for n in range(1, 6):
        twist = LaurentQ.t_quarter(n * n + 2 * n)
        for model in ("rmatrix", "gl"):
            assert colored_jones_framed(BraidWord(1, ()), n, model) == ONE
            assert colored_jones_framed(parse("1"), n, model) == (
                twist.substitute_inverse()
            )
            assert colored_jones_framed(parse("-1"), n, model) == twist
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS criterion 1: anchor values n=1..5, both models, {elapsed:.3f}s")


def test_criterion_2_model_equivalence():
    assert len(CORPUS) >= 50
    presets = len(PRESETS)
    assert all(
        b.strands <= 4 and len(b.letters) <= 8 for b in CORPUS[presets:]
    )
    for b in CORPUS:
        for n in (1, 2, 3):
            colored_jones_framed(b, n, "both")
    print(
        f"PASS criterion 2: both models agree on {len(CORPUS)} braids at n=1..3"
    )


def test_criterion_3_state_counts():
    d = build(BraidWord(2, (-1,) * 6))
    for n in range(1, 7):
        counts = Counter(p.bases[1] for p, _ in enumerate_states(d, n, PLUS))
        assert counts[0] == (n + 1) * (n + 2) * (n + 3) // 6
        assert counts[n] == n + 1
    print("PASS criterion 3: base-slice state counts for the 6-fold kink, n=1..6")


def test_criterion_4_jump_map_closed_forms():
    for ell in (1, 2):
        for m, shift in ((3 * ell + 1, 4 * ell + 2), (3 * ell + 2, 2 * ell + 2)):
            d = build(BraidWord(3, (-1, 2) * m))
            rho = {c: k for c, (_, k) in cyclic_labels(d).items()}
            for c in range(d.crossing_count):
                assert rho[d.tau[c]] == (rho[c] + shift) % d.crossing_count
    d = build(parse("-1 -1 -1 2 1 2 2 -1"))
    assert d.sigma == [2, 6, 5, 4, 7, 3, 0, 1]
    assert d.tau == [1, 2, 6, 5, 6, 6, 3, 0]
    print("PASS criterion 4: weaving jump-map closed forms and the 8-crossing table")


def test_criterion_5_identity_suites():
    # the t <-> t^-1 conversions of the q-symbols, binomial symmetry and
    # the quantum integers
    for a in range(-6, 7):
        for b in range(7):
            for eps in (1, -1):
                sign = (-1) ** b if eps == 1 else 1
                to_t = LaurentQ.monomial(sign, -eps * (2 * a * b - b * (b - 1)))
                assert pochhammer(a, b) == to_t * pochhammer_signed(a, b, eps)
                to_t = LaurentQ.t_quarter(2 * eps * b * (b - a))
                assert qbinom(a, b) == to_t * qbinom_signed(a, b, eps)
    for c in range(7):
        for d in range(7):
            assert qbinom(c + d, c) == qbinom(c + d, d)
            for eps in (1, -1):
                assert qbinom_signed(c + d, c, eps) == qbinom_signed(c + d, d, eps)
    assert all(qint(a) * qbrace(1) == qbrace(a) for a in range(-8, 9))
    assert all(verify_pochhammer_identity(n) for n in range(11))
    # the matrix lemma on sums of random skew triangles
    rng = random.Random(2024)
    for _ in range(200):
        mu = rng.randint(3, 6)
        m = [[0] * mu for _ in range(mu)]
        for _ in range(rng.randint(1, 5)):
            i, j, k = rng.sample(range(mu), 3)
            w = rng.randint(-3, 3)
            for x, y in ((i, j), (j, k), (k, i)):
                m[x][y] += w
                m[y][x] -= w
        assert verify_matrix_lemma(m)
    # the color identities on integer potentials: free jumps and bases in
    # [-5, 5], the remaining jumps solved from the cycle relations
    for b in CORPUS:
        d = build(b)
        for _ in range(4):
            free = (rng.randint(-5, 5) for _ in range(d.crossing_count))
            bases = [0] + [rng.randint(-5, 5) for _ in range(d.component_count - 1)]
            p = Potential(solve_jumps(d, free), tuple(bases), PLUS)
            assert verify_prop_61(d, p) and verify_prop_62(d, p)
    print("PASS criterion 5: q-identities, matrix lemma, color identities")


def test_criterion_6_skein_relations():
    # at n = 1, t^(-1/4) J(L+) - t^(1/4) J(L-) = (t^(-1/2) - t^(1/2)) J(L0)
    # framed, and the same with t^(-1) and t unframed
    rng = random.Random(2024)
    rhs = LaurentQ.t_quarter(-2) - LaurentQ.t_quarter(2)
    braids = [b for b in CORPUS if b.strands <= 3 and b.letters]
    assert len(braids) >= 20
    for b in braids:
        plus, minus, zero = b.skein_triple(rng.randrange(len(b.letters)))
        fp, fm, fz = (colored_jones_framed(x, 1) for x in (plus, minus, zero))
        assert LaurentQ.t_quarter(-1) * fp - LaurentQ.t_quarter(1) * fm == rhs * fz
        up, um, uz = (colored_jones_unframed(x, 1) for x in (plus, minus, zero))
        assert LaurentQ.t_quarter(-4) * up - LaurentQ.t_quarter(4) * um == rhs * uz
    print(f"PASS criterion 6: framed and unframed skein on {len(braids)} triples")


def test_criterion_7_jones_oracle():
    for name, (text, strands) in PRESETS.items():
        b = parse(text, strands)
        sign = 1 if b.component_count() % 2 else -1
        oracle = kauffman_jones(b).substitute_inverse() * sign
        assert colored_jones_unframed(b, 1) == oracle, name
    print(f"PASS criterion 7: bracket oracle matches n=1 on {len(PRESETS)} named links")


def test_criterion_8_framing_reflection():
    small = [b for b in CORPUS if b.strands <= 3][:10]
    assert len(small) == 10
    for b in small:
        up = BraidWord(b.strands + 1, b.letters + (b.strands,))
        down = BraidWord(b.strands + 1, b.letters + (-b.strands,))
        double = BraidWord(b.strands + 2, b.letters + (b.strands, b.strands + 1))
        for n in (1, 2):
            base = colored_jones_framed(b, n)
            twist = LaurentQ.t_quarter(n * n + 2 * n)
            assert colored_jones_framed(up, n) * twist == base
            assert colored_jones_framed(down, n) == base * twist
            assert colored_jones_framed(double, n) * twist * twist == base
    for b in CORPUS[:15]:
        for n in (1, 2):
            assert colored_jones_unframed(b.reflect(), n) == (
                colored_jones_unframed(b, n).substitute_inverse()
            )
    for m in (2, 3, 4):
        b = BraidWord(3, (-1, 2) * m)
        for n in (1, 2):
            value = colored_jones_unframed(b, n)
            assert value.substitute_inverse() == value
    print("PASS criterion 8: framing shifts, reflection, and amphichiral weavings")


def test_criterion_9_exponent_parity():
    classified = Counter()
    for b in CORPUS:
        for n in (1, 2, 3):
            classified[parity_halfinteger_check(b, n)] += 1
    assert classified["integer"] > 0 and classified["half-integer"] > 0
    print(
        "PASS criterion 9: exponent parity law on the corpus "
        f"({classified['integer']} integer, {classified['half-integer']} half-integer)"
    )


def test_criterion_10_sweep_matches_state_sums():
    for b in CORPUS:
        d = build(b)
        for n in (1, 2, 3):
            reference = state_sum(d, n, MINUS)
            assert state_sum(d, n, PLUS) == reference
            assert colored_jones_framed(b, n, "rmatrix") == reference
            assert colored_jones_framed(b, n, "gl") == reference
    print(
        f"PASS criterion 10: both sweeps equal both state sums on {len(CORPUS)} "
        "braids at n=1..3"
    )


def test_criterion_11_sweep_state_counts():
    for b in CORPUS:
        d = build(b)
        for n in (1, 2):
            for convention in (MINUS, PLUS):
                states = enumerate_states(d, n, convention, anchor=0)
                assert state_count(b, n, convention) == len(states)
    print("PASS criterion 11: sweep state counts equal enumeration, both conventions")
