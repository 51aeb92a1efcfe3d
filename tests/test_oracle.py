"""The bracket, Rosso-Jones and Habiro-Masbaum oracles, and the paper's
chord-level identities (tests/identities.py) they cross-check."""

import os
import random
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

import braidjones
from braidjones.braid import BraidWord, parse
from braidjones.diagram import build
from braidjones.oracle import habiro_masbaum, kauffman_jones, rosso_jones, torus_braid
from braidjones.qalgebra import ONE, ExactDivisionError, LaurentQ
from braidjones.states import MINUS, PLUS, Potential
from braidjones.statesum import colored_jones_framed, colored_jones_unframed
from habiro import KNOTS, habiro_coefficients
from identities import (
    cycle_relations,
    enumerate_z_potentials,
    out_colors,
    solve_jumps,
    verify_matrix_lemma,
    verify_pochhammer_identity,
    verify_prop_61,
    verify_prop_62,
)
from words import rand_braid


def test_bracket_values():
    assert kauffman_jones(BraidWord(1, ())) == ONE
    assert kauffman_jones(BraidWord(2, ())) == LaurentQ({2: -1, -2: -1})
    assert kauffman_jones(parse("1 1 1")) == LaurentQ({-16: -1, -12: 1, -4: 1})
    assert str(kauffman_jones(parse("-1 2 -1 2"))) == (
        "t^(-2) - t^(-1) + 1 - t + t^2"
    )
    # Markov moves leave the oracle alone
    assert kauffman_jones(parse("1", 2)) == ONE
    assert kauffman_jones(parse("-1", 2)) == ONE


def test_oracles_load_no_state_model():
    # In a fresh interpreter: the three oracles evaluate without loading the
    # closure diagram or the state enumeration, so they stay independent of
    # the models they check.
    src = str(Path(braidjones.__file__).resolve().parents[1])
    probe = "\n".join(
        [
            "import sys",
            "from braidjones.braid import parse",
            "from braidjones.oracle import habiro_masbaum, kauffman_jones, rosso_jones",
            "print(kauffman_jones(parse('1 1 1')))",
            "print(rosso_jones(2, 3, 2))",
            "print(habiro_masbaum(1, 2))",
            "print([m for m in ('braidjones.diagram', 'braidjones.states') if m in sys.modules])",
        ]
    )
    values = (kauffman_jones(parse("1 1 1")), rosso_jones(2, 3, 2), habiro_masbaum(1, 2))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [*map(str, values), "[]"]


def test_bracket_mirror():
    rng = random.Random(21)
    braids = [parse("1 1 1"), parse("1 1"), parse("-1 2 -1 2")]
    braids += [rand_braid(rng) for _ in range(8)]
    for b in braids:
        assert kauffman_jones(b.reflect()) == (
            kauffman_jones(b).substitute_inverse()
        )


def test_bracket_cap():
    with pytest.raises(ValueError):
        kauffman_jones(BraidWord(2, (1,) * 21))


def test_engine_matches_bracket():
    presets = [
        BraidWord(1, ()),
        parse("1 1"),
        parse("-1 -1"),
        parse("1 1 1"),
        parse("-1 -1 -1"),
        parse("-1 2 -1 2"),
        BraidWord(3, (-1, 2) * 3),
        BraidWord(3, (-1, 2) * 4),
        BraidWord(3, (-1, 2) * 5),
    ]
    for b in presets:
        sign = 1 if b.component_count() % 2 else -1
        oracle = kauffman_jones(b).substitute_inverse()
        if sign < 0:
            oracle = LaurentQ.zero() - oracle
        assert colored_jones_unframed(b, 1) == oracle


def test_rosso_jones_matches_sweep():
    # The torus-knot formula shares nothing with the state models or the
    # sweep, so it checks the engine at colors the bracket cannot reach.
    for p, colors in ((2, (1, 2, 3, 4)), (3, (1, 2, 3)), (4, (1, 2))):
        for q in (q for q in range(-7, 9) if gcd(p, q) == 1):
            for n in colors:
                sweep = colored_jones_framed(torus_braid(p, q), n, "rmatrix")
                assert rosso_jones(p, q, n) == sweep, (p, q, n)
    for p, q, n in ((2, 7, 10), (3, 4, 8), (3, -5, 6), (4, 5, 4)):
        sweep = colored_jones_framed(torus_braid(p, q), n, "rmatrix")
        assert rosso_jones(p, q, n) == sweep, (p, q, n)
    # the default model: one sweep behind the cross-model certificate, up
    # to n = 10, where the certificate reads all 121 entries of each table
    for p, q, n in (
        (2, 3, 5),
        (2, -5, 3),
        (2, 7, 4),
        (2, 7, 10),
        (3, 4, 3),
        (3, 4, 8),
        (3, -5, 2),
        (4, 5, 2),
    ):
        sweep = colored_jones_framed(torus_braid(p, q), n, "both")
        assert rosso_jones(p, q, n) == sweep, (p, q, n)
    assert rosso_jones(1, 5, 3) == ONE  # T(1, q) is the unknot
    assert torus_braid(3, -2).letters == (-2, -1, -2, -1)
    with pytest.raises(ValueError):
        torus_braid(0, 3)
    for args in ((2, 4, 1), (0, 1, 1), (2, 3, 0)):
        with pytest.raises(ValueError):
            rosso_jones(*args)
    # A color that is not exactly an int is refused as check_work refuses it.
    for color in (True, 2.0):
        with pytest.raises(TypeError, match=rf"^color {color!r} is not an int$"):
            rosso_jones(2, 3, color)


def test_habiro_masbaum_matches_sweep():
    # The twist-knot formula shares nothing with the state models or the
    # sweep: an oracle above n = 1 on 3 and 4 strands, off the torus family,
    # under all three models.  6_1 stops where the work limit stops 4 strands.
    # (braid word, strands, twist p, whether q = t**-1, colors)
    knots = (
        ("1 1 1", 2, 1, False, range(1, 9)),  # 3_1
        ("-1 2 -1 2", 3, -1, False, range(1, 9)),  # 4_1
        ("1 1 1 2 -1 2", 3, 2, False, range(1, 9)),  # 5_2
        ("1 1 2 -1 -3 2 -3", 4, -2, True, range(1, 7)),  # 6_1
    )
    for text, strands, p, inverse, colors in knots:
        b = parse(text, strands)
        for n in colors:
            value = habiro_masbaum(p, n)
            if inverse:
                value = value.substitute_inverse()
            for model in ("rmatrix", "gl", "both"):
                assert colored_jones_unframed(b, n, model) == value, (text, n, model)
    assert habiro_masbaum(0, 3) == ONE  # K_0 is the unknot
    with pytest.raises(ValueError):
        habiro_masbaum(1, 0)
    for color in (True, 2.0):
        with pytest.raises(TypeError, match=rf"^color {color!r} is not an int$"):
            habiro_masbaum(1, color)


def test_habiro_cyclotomic_integrality():
    # Every knot's values at n = 1..6 invert to integral Habiro
    # coefficients, under all three models; the bracket oracle pins n = 1,
    # since a fault at every color, such as the mirror, can stay integral.
    for name, (text, strands) in KNOTS.items():
        b = parse(text, strands)
        assert b.component_count() == 1, name
        for model in ("rmatrix", "gl", "both"):
            values = [colored_jones_unframed(b, n, model) for n in range(1, 7)]
            assert values[0] == kauffman_jones(b).substitute_inverse(), name
            habiro_coefficients(values)
    # The inversion is a check: one coefficient off at one color, or one
    # color mirrored, leaves a remainder, and so does a link.
    values = [colored_jones_unframed(parse(*KNOTS["8_19"]), n) for n in range(1, 7)]
    for n in range(6):
        for fault in (values[n] + ONE, values[n].substitute_inverse()):
            with pytest.raises(ExactDivisionError):
                habiro_coefficients(values[:n] + [fault] + values[n + 1 :])
    hopf = [colored_jones_unframed(parse("1 1"), n) for n in range(1, 4)]
    with pytest.raises(ExactDivisionError):
        habiro_coefficients(hopf)


def test_prop_identities_zero_potential():
    d = build(parse("1 -2 1"))
    p = Potential((0, 0, 0), (0, 0), PLUS)
    assert verify_prop_61(d, p)
    assert verify_prop_62(d, p)


def test_prop_identities_two_bridge():
    # relations force the first and last jumps equal; the middle is free
    d = build(parse("1 -2 1"))
    rng = random.Random(22)
    for _ in range(30):
        r = rng.randint(-5, 5)
        mid = rng.randint(-5, 5)
        beta = rng.randint(-3, 3)
        p = Potential((r, mid, r), (0, beta), PLUS)
        assert verify_prop_61(d, p)
        assert verify_prop_62(d, p)


def test_signed_jump_sum_example():
    # for the 2-component 5-crossing word below, the signed color drop
    # equals r0 - r1 - r2 - r3 + r4 on every admissible potential
    b = parse("1 -2 -2 -1 2")
    d = build(b)
    assert [cr.sign for cr in d.crossings] == [1, -1, -1, -1, 1]
    assert b.components() == [(0,), (1, 2)]
    rels = [rel for rel in cycle_relations(d) if rel]
    assert rels[0] == {0: -1, 1: 1, 2: -1, 3: -1}
    assert rels[1] == {0: 1, 1: -1, 2: 1, 3: 1}
    signs = [1, -1, -1, -1, 1]
    for p in enumerate_z_potentials(d, 2):
        assert verify_prop_61(d, p)
        assert verify_prop_62(d, p)
        over_out, under_out = out_colors(d, p)
        lhs = sum(s * (a - bb) for s, a, bb in zip(signs, over_out, under_out))
        r = p.jumps
        assert lhs == r[0] - r[1] - r[2] - r[3] + r[4]


def test_prop_identities_random():
    rng = random.Random(24)
    checked = 0
    while checked < 200:
        d = build(rand_braid(rng, max_len=5))
        pots = list(enumerate_z_potentials(d, 2))
        for p in rng.sample(pots, min(5, len(pots))):
            assert verify_prop_61(d, p)
            assert verify_prop_62(d, p)
            checked += 1
    # integer potentials off the n = 2 box: free jumps and bases in [-5, 5],
    # the remaining jumps solved from the cycle relations
    for _ in range(40):
        d = build(rand_braid(rng))
        for _ in range(5):
            free = (rng.randint(-5, 5) for _ in range(d.crossing_count))
            bases = [0] + [rng.randint(-5, 5) for _ in range(d.component_count - 1)]
            p = Potential(solve_jumps(d, free), tuple(bases), PLUS)
            assert verify_prop_61(d, p)
            assert verify_prop_62(d, p)


def test_out_colors_convention():
    d = build(parse("1 1"))
    with pytest.raises(ValueError):
        out_colors(d, Potential((0, 0), (0, 0), MINUS))


def _triangle(mu: int, i: int, j: int, k: int, w: int) -> list[list[int]]:
    a = [[0] * mu for _ in range(mu)]
    for x, y in ((i, j), (j, k), (k, i)):
        a[x][y] += w
        a[y][x] -= w
    return a


def test_matrix_lemma():
    e23 = _triangle(3, 0, 1, 2, 1)
    assert e23 == [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]
    assert verify_matrix_lemma(e23)
    assert verify_matrix_lemma(_triangle(3, 0, 1, 2, -4))
    assert verify_matrix_lemma([[0] * 4 for _ in range(4)])

    rng = random.Random(25)
    for _ in range(200):
        mu = rng.randint(3, 6)
        a = [[0] * mu for _ in range(mu)]
        for _ in range(rng.randint(1, 5)):
            i, j, k = rng.sample(range(mu), 3)
            t = _triangle(mu, i, j, k, rng.randint(-3, 3))
            a = [[x + y for x, y in zip(ra, rt)] for ra, rt in zip(a, t)]
        assert verify_matrix_lemma(a)


def test_matrix_lemma_validation():
    with pytest.raises(ValueError):
        verify_matrix_lemma([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        verify_matrix_lemma([[0, 1, -1], [-1, 0, 1]])
    # skew-symmetric but with nonzero column sums
    with pytest.raises(ValueError):
        verify_matrix_lemma([[0, 2, -1], [-2, 0, 1], [1, -1, 0]])


def test_pochhammer_identity():
    for n in range(11):
        assert verify_pochhammer_identity(n)
    # n = 1 by hand: 1 + v*(v - 1/v) = v^2
    v = LaurentQ.t_quarter(2)
    assert ONE + v * (v - v.substitute_inverse()) == v * v
