"""State enumeration: color propagation, contributing-state counts, and
the bijection between the two sign conventions."""

import itertools
import random
from collections import Counter

import pytest

from braidjones.braid import BraidWord, parse
from braidjones.diagram import build
from braidjones.states import (
    MINUS,
    PLUS,
    Potential,
    derive_colors,
    enumerate_states,
    flow_bijection,
)
from identities import cycle_relations, enumerate_z_potentials
from words import rand_braid


def test_all_zero_state():
    for text, strands in (("1 1", 2), ("-1 2 -1 2", 3), ("-1 -1 -1 2 1 2 2 -1", 3)):
        d = build(parse(text, strands))
        p = Potential(
            jumps=(0,) * d.crossing_count,
            bases=(0,) * d.component_count,
            convention=PLUS,
        )
        colors = derive_colors(d, p)
        assert all(v == 0 for v in colors.arc_colors.values())
        assert colors.i == (0,) * d.crossing_count
        assert colors.tilde == (0,) * d.crossing_count


def test_sample_knot_color_identities():
    # with the first and last jumps pinned to zero the remaining
    # under-exit colors collapse to signed jump sums
    d = build(parse("-1 -1 -1 2 1 2 2 -1"))
    rng = random.Random(3)
    for _ in range(50):
        j = [rng.randint(-4, 4) for _ in range(8)]
        j[0] = j[7] = 0
        colors = derive_colors(d, Potential(tuple(j), (0,), PLUS))
        i = colors.i
        assert i[2] == j[1] - j[2]
        assert i[5] == j[1] - j[2] + j[3] - j[5]
        assert i[3] == j[1] - j[2] - j[5] + j[6]
        assert i[1] == j[6] - j[2] - j[5] - j[4]
        assert i[6] == 0


def test_derive_colors_validation():
    d = build(parse("1 1"))
    with pytest.raises(ValueError):
        derive_colors(d, Potential((1, 0), (0, 0), PLUS))
    with pytest.raises(ValueError):
        derive_colors(d, Potential((0,), (0, 0), PLUS))
    with pytest.raises(ValueError):
        derive_colors(d, Potential((0, 0), (0,), PLUS))
    # Exactly the int +1 or -1: a bool or a float is refused too.
    for convention in (0, 2, True, 1.0, -1.0):
        with pytest.raises(ValueError, match="convention must be"):
            Potential((0, 0), (0, 0), convention)
        with pytest.raises(ValueError, match="convention must be"):
            enumerate_states(d, 1, convention)
    with pytest.raises(TypeError, match="anchor 1.5 is not an int"):
        enumerate_states(d, 2, PLUS, anchor=1.5)


def test_anchor_counts():
    # positive kink: the all-zero state is alone; negative kink: n+1 states
    plus = build(parse("1"))
    minus = build(parse("-1"))
    for n in range(1, 5):
        states = enumerate_states(plus, n, MINUS)
        assert len(states) == 1
        pot, colors = states[0]
        assert pot.jumps == (0,) and pot.bases == (0,)
        assert all(v == 0 for v in colors.arc_colors.values())
        assert len(enumerate_states(minus, n, MINUS)) == n + 1


def test_beta_slice_counts():
    d = build(BraidWord(2, (-1,) * 6))
    for n in range(1, 7):
        counts = Counter(
            pot.bases[1] for pot, _ in enumerate_states(d, n, PLUS)
        )
        assert counts[0] == (n + 1) * (n + 2) * (n + 3) // 6
        assert counts[n] == n + 1


def test_out_of_range_anchor():
    d = build(parse("1 1 1"))
    assert enumerate_states(d, 2, PLUS, anchor=3) == []
    assert enumerate_states(d, 2, PLUS, anchor=-1) == []
    assert len(enumerate_states(d, 2, PLUS, anchor=2)) > 0


def test_flow_equation_and_ranges():
    rng = random.Random(5)
    braids = [rand_braid(rng) for _ in range(12)]
    braids += [parse("1 1"), parse("-1 2 -1 2"), parse("-1 2", 3)]
    for b in braids:
        d = build(b)
        sigma_inv = {d.sigma[c]: c for c in range(d.crossing_count)}
        for n in (1, 2):
            for conv in (PLUS, MINUS):
                states = enumerate_states(d, n, conv)
                seen = set()
                for pot, colors in states:
                    key = (pot.jumps, pot.bases)
                    assert key not in seen
                    seen.add(key)
                    assert pot.bases[0] == 0
                    assert all(0 <= v <= n for v in pot.jumps)
                    assert all(0 <= v <= n for v in pot.bases)
                    assert all(0 <= v <= n for v in colors.arc_colors.values())
                    for rel in cycle_relations(d):
                        assert sum(k * pot.jumps[c] for c, k in rel.items()) == 0
                    for v in range(d.crossing_count):
                        inflow = sum(
                            pot.jumps[w] for w in d.tau_preimage_order[v]
                        )
                        expect = colors.i[sigma_inv[v]] + conv * (
                            inflow - pot.jumps[v]
                        )
                        assert colors.i[v] == expect


def test_pruned_equals_naive():
    rng = random.Random(6)
    braids = [parse("1 1"), parse("-1 -1"), parse("1 -2 1"), parse("-1 2 -1 2")]
    while len(braids) < 10:
        b = rand_braid(rng, max_len=5)
        if len(b.letters) <= 5:
            braids.append(b)
    for b in braids:
        d = build(b)
        nc, mu = d.crossing_count, d.component_count
        for n in (1, 2):
            for conv in (PLUS, MINUS):
                fast = {
                    (pot.jumps, pot.bases)
                    for pot, _ in enumerate_states(d, n, conv)
                }
                slow = set()
                rng_box = itertools.product(range(n + 1), repeat=nc + mu - 1)
                for vals in rng_box:
                    jumps = vals[:nc]
                    bases = (0,) + vals[nc:]
                    try:
                        colors = derive_colors(d, Potential(jumps, bases, conv))
                    except ValueError:
                        continue
                    if all(0 <= v <= n for v in colors.arc_colors.values()):
                        slow.add((jumps, bases))
                assert fast == slow


def test_z_potentials():
    trefoil = build(parse("1 1 1"))
    assert len(list(enumerate_z_potentials(trefoil, 1))) == 27
    hopf = build(parse("1 1"))
    pots = list(enumerate_z_potentials(hopf, 1))
    assert len(pots) == 9
    for p in pots:
        assert p.bases[0] == 0
        assert p.jumps[0] == p.jumps[1]
    fig8 = build(parse("-1 2 -1 2"))
    zero = list(enumerate_z_potentials(fig8, 0))
    assert len(zero) == 1
    assert zero[0].jumps == (0, 0, 0, 0)
    with pytest.raises(ValueError, match="bound must be"):
        enumerate_z_potentials(fig8, -1)
    rng = random.Random(7)
    for _ in range(10):
        d = build(rand_braid(rng, max_len=4))
        for p in enumerate_z_potentials(d, 2):
            assert all(-2 <= v <= 2 for v in p.jumps)
            for rel in cycle_relations(d):
                assert sum(k * p.jumps[c] for c, k in rel.items()) == 0


def test_flow_bijection_roundtrip():
    d = build(BraidWord(2, (-1,) * 6))
    for pot, colors in enumerate_states(d, 1, PLUS):
        image, icolors = flow_bijection(d, pot, 1)
        assert image.convention == MINUS
        assert image.jumps == pot.jumps
        assert image.bases == tuple(1 - b for b in pot.bases)
        assert icolors.arc_colors == {
            a: 1 - v for a, v in colors.arc_colors.items()
        }
        back, bcolors = flow_bijection(d, image, 1)
        assert back == pot
        assert bcolors.arc_colors == colors.arc_colors


def test_flow_bijection_counts():
    # anchored-at-0 (+) states match anchored-at-n (-) states
    d = build(parse("1 1"))
    assert len(enumerate_states(d, 1, PLUS)) == 3
    assert len(enumerate_states(d, 1, MINUS, anchor=1)) == 3
    assert len(enumerate_states(d, 2, PLUS)) == 6
    assert len(enumerate_states(d, 2, MINUS, anchor=2)) == 6

    rng = random.Random(8)
    for _ in range(10):
        dd = build(rand_braid(rng, max_len=5))
        for n in (1, 2):
            plus = enumerate_states(dd, n, PLUS)
            minus_keys = {
                (pot.jumps, pot.bases)
                for pot, _ in enumerate_states(dd, n, MINUS, anchor=n)
            }
            image_keys = set()
            for pot, _ in plus:
                img, _ = flow_bijection(dd, pot, n)
                image_keys.add((img.jumps, img.bases))
            assert len(image_keys) == len(plus)
            assert image_keys == minus_keys
