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
from braidjones.verify import _suite_identity, _suite_oracle, _suite_props, _suite_skein
from braidjones.diagram import build
from braidjones.qalgebra import ONE, LaurentQ
from braidjones.states import MINUS, PLUS, enumerate_states
from braidjones.statesum import (
    colored_jones_framed,
    colored_jones_unframed,
    parity_halfinteger_check,
    state_count,
    state_sum,
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
            rho = {c: k for c, (_, k) in d.cyclic_labels().items()}
            for c in range(d.crossing_count):
                assert rho[d.tau[c]] == (rho[c] + shift) % d.crossing_count
    d = build(parse("-1 -1 -1 2 1 2 2 -1"))
    assert d.sigma == [2, 6, 5, 4, 7, 3, 0, 1]
    assert d.tau == [1, 2, 6, 5, 6, 6, 3, 0]
    print("PASS criterion 4: weaving jump-map closed forms and the 8-crossing table")


def test_criterion_5_identity_suites():
    rng = random.Random(2024)
    results = _suite_identity(rng) + _suite_props(rng)
    assert all(ok for _, ok in results)
    names = [name for name, _ in results]
    assert "pochhammer-sum" in names and "matrix-lemma" in names
    print(f"PASS criterion 5: identity suites ({', '.join(names)})")


def test_criterion_6_skein_relations():
    rng = random.Random(2024)
    results = _suite_skein(rng)
    assert all(ok for _, ok in results)
    print("PASS criterion 6: framed and unframed skein relations on 20 triples")


def test_criterion_7_jones_oracle():
    rng = random.Random(2024)
    results = _suite_oracle(rng)
    assert len(results) == 9
    assert all(ok for _, ok in results)
    print("PASS criterion 7: bracket oracle matches n=1 on all nine named links")


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
