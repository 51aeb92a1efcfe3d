"""The bracket and Rosso-Jones oracles and the chord-level identities
they cross-check."""

import random
from math import gcd

import pytest

from braidjones.braid import BraidWord, parse
from braidjones.diagram import build
from braidjones.oracle import (
    _out_colors,
    kauffman_jones,
    rosso_jones,
    torus_braid,
    verify_matrix_lemma,
    verify_pochhammer_identity,
    verify_prop_61,
    verify_prop_62,
)
from braidjones.qalgebra import ONE, LaurentQ
from braidjones.states import MINUS, PLUS, Potential, enumerate_z_potentials
from braidjones.statesum import colored_jones_framed, colored_jones_unframed


def rand_braid(rng: random.Random, max_strands=4, max_len=6) -> BraidWord:
    s = rng.randint(2, max_strands)
    letters = tuple(
        rng.choice([1, -1]) * rng.randint(1, s - 1)
        for _ in range(rng.randint(1, max_len))
    )
    return BraidWord(s, letters)


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
    rels = [rel for rel in d.cycle_relations() if rel]
    assert rels[0] == {0: -1, 1: 1, 2: -1, 3: -1}
    assert rels[1] == {0: 1, 1: -1, 2: 1, 3: 1}
    signs = [1, -1, -1, -1, 1]
    for p in enumerate_z_potentials(d, 2):
        assert verify_prop_61(d, p)
        assert verify_prop_62(d, p)
        over_out, under_out = _out_colors(d, p)
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
            p = Potential(d.solve_jumps(free), tuple(bases), PLUS)
            assert verify_prop_61(d, p)
            assert verify_prop_62(d, p)


def test_out_colors_convention():
    d = build(parse("1 1"))
    with pytest.raises(ValueError):
        _out_colors(d, Potential((0, 0), (0, 0), MINUS))


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
