"""Closure diagram combinatorics: transition maps, chord graphs, and
cycle relations."""

import itertools
import random
from fractions import Fraction

import pytest

from braidjones.braid import BraidWord, parse
from braidjones.diagram import OVER, UNDER, build
from identities import cycle_relations, cyclic_labels, eliminated_jumps, solve_jumps
from words import rand_braid


def weaving(m: int) -> BraidWord:
    return BraidWord(3, (-1, 2) * m)


def test_sample_knot_table():
    d = build(parse("-1 -1 -1 2 1 2 2 -1"))
    assert d.sigma == [2, 6, 5, 4, 7, 3, 0, 1]
    assert d.tau == [1, 2, 6, 5, 6, 6, 3, 0]
    assert d.tau_preimage_order[6] == [2, 4, 5]
    assert d.component_count == 1


def test_empty_braid():
    d = build(BraidWord(1, ()))
    assert d.crossing_count == 0
    assert d.component_count == 1
    assert d.steps == [[]]


def test_weaving_tau_closed_forms():
    # knot cases m = 3l+1 and m = 3l+2, after braid -> cycle relabeling
    for ell in (1, 2):
        for m, modulus, shift in (
            (3 * ell + 1, 6 * ell + 2, 4 * ell + 2),
            (3 * ell + 2, 6 * ell + 4, 2 * ell + 2),
        ):
            d = build(weaving(m))
            rho = {c: k for c, (_, k) in cyclic_labels(d).items()}
            assert len(rho) == d.crossing_count
            for c in range(d.crossing_count):
                assert rho[d.tau[c]] == (rho[c] + shift) % modulus


def test_tau_bijection_on_alternating():
    for m in range(1, 10):
        d = build(weaving(m))
        assert sorted(d.tau) == list(range(d.crossing_count))
    # a strand passing only over leaves its crossings without a jump target
    d = build(parse("1 -1"))
    assert d.tau == [None, None]


def test_tau_preimages_partition():
    rng = random.Random(7)
    for _ in range(40):
        d = build(rand_braid(rng, max_len=8))
        seen = [c for order in d.tau_preimage_order for c in order]
        with_target = [c for c in range(d.crossing_count) if d.tau[c] is not None]
        assert sorted(seen) == sorted(with_target)
        for v, order in enumerate(d.tau_preimage_order):
            assert all(d.tau[c] == v for c in order)


def test_sigma_cycles_are_components():
    rng = random.Random(8)
    for _ in range(40):
        b = rand_braid(rng, max_len=8)
        d = build(b)
        assert sorted(d.sigma) == list(range(d.crossing_count))
        seen: set[int] = set()
        cycles = 0
        for c in range(d.crossing_count):
            if c in seen:
                continue
            cycles += 1
            v = c
            while v not in seen:
                seen.add(v)
                v = d.sigma[v]
        # components without underpasses are invisible to sigma
        no_unders = sum(
            1 for l in range(d.component_count)
            if all(role == OVER for _, role in d.steps[l])
        )
        assert cycles == d.component_count - no_unders


def test_each_crossing_once_over_once_under():
    rng = random.Random(9)
    for _ in range(40):
        d = build(rand_braid(rng, max_len=8))
        overs = sorted(c for steps in d.steps for c, role in steps if role == OVER)
        unders = sorted(c for steps in d.steps for c, role in steps if role == UNDER)
        assert overs == list(range(d.crossing_count))
        assert unders == list(range(d.crossing_count))


def test_chord_graph_two_bridge():
    d = build(parse("1 -2 1"))
    assert len(d.steps) == 2
    assert len(d.over_component) == len(d.under_component) == 3
    assert cycle_relations(d) == [{0: -1, 2: 1}, {0: 1, 2: -1}]


def test_chord_graph_three_circles():
    d = build(weaving(3))
    assert len(d.steps) == 3
    assert len(d.over_component) == len(d.under_component) == 6
    rels = [rel for rel in cycle_relations(d) if rel]
    assert len(rels) == 3
    # independent rank is mu - 1 = 2
    assert _rank(rels, d.crossing_count) == 2
    # chords between distinct circles come in even numbers
    for a in range(3):
        for b in range(a + 1, 3):
            count = sum(
                1
                for over, under in zip(d.over_component, d.under_component)
                if {over, under} == {a, b}
            )
            assert count % 2 == 0


def test_chord_graph_round_trip():
    # sigma, tau, and the jump orders are recoverable from the circles
    rng = random.Random(10)
    for _ in range(40):
        d = build(rand_braid(rng, max_len=8))
        for steps in d.steps:
            under_at = [i for i, (_, role) in enumerate(steps) if role == UNDER]
            m = len(steps)
            for k, i in enumerate(under_at):
                j = under_at[(k + 1) % len(under_at)]
                assert d.sigma[steps[i][0]] == steps[j][0]
                target = steps[i][0]
                prev = under_at[k - 1]
                span = []
                p = (prev + 1) % m
                while p != i:
                    span.append(steps[p][0])
                    p = (p + 1) % m
                assert d.tau_preimage_order[target] == span
                for c in span:
                    assert d.tau[c] == target


def _rank(rels: list[dict[int, int]], ncols: int) -> int:
    rows = [[Fraction(rel.get(c, 0)) for c in range(ncols)] for rel in rels]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_cycle_relations_structure():
    rng = random.Random(11)
    for _ in range(50):
        b = rand_braid(rng, max_len=8)
        d = build(b)
        rels = cycle_relations(d)
        assert len(rels) == d.component_count
        total: dict[int, int] = {}
        for rel in rels:
            for c, k in rel.items():
                assert k in (-1, 1)
                total[c] = total.get(c, 0) + k
        assert all(v == 0 for v in total.values())
        # rank = mu minus the number of linked clusters of components
        clusters = _clusters(d)
        assert _rank([r for r in rels if r], d.crossing_count) == (
            d.component_count - clusters
        )


def _clusters(d) -> int:
    parent = list(range(d.component_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in range(d.crossing_count):
        a, b = find(d.under_component[c]), find(d.over_component[c])
        if a != b:
            parent[a] = b
    return len({find(l) for l in range(d.component_count)})


def test_weaving_link_table():
    d = build(weaving(3))
    assert d.sigma == [3, 4, 5, 0, 1, 2]
    assert d.tau == [2, 3, 4, 5, 0, 1]
    assert cyclic_labels(d) == {
        0: (0, 0), 3: (0, 1), 2: (1, 0), 5: (1, 1), 1: (2, 0), 4: (2, 1),
    }


def test_weaving_relations_equal_sums():
    # the three components' relations cut out the same jump lattice as
    # "the three residue classes of crossing indices mod 3 have equal sums"
    for ell in (1, 2, 3):
        m = 3 * ell
        d = build(weaving(m))
        assert d.component_count == 3
        nc = d.crossing_count
        groups = [[c for c in range(nc) if c % 3 == res] for res in range(3)]
        displayed = [
            {c: 1 for c in groups[r]} | {c: -1 for c in groups[r + 1]}
            for r in (0, 1)
        ]
        mine = [rel for rel in cycle_relations(d) if rel]
        assert _rank(mine, nc) == 2
        assert _rank(displayed, nc) == 2
        assert _rank(mine + displayed, nc) == 2

    # pointwise check of the smallest case over a full box
    d = build(weaving(3))
    rels = cycle_relations(d)
    for j in itertools.product((-1, 0, 1), repeat=6):
        sums = [j[r] + j[r + 3] for r in range(3)]
        satisfied = all(
            sum(k * j[c] for c, k in rel.items()) == 0 for rel in rels
        )
        assert satisfied == (sums[0] == sums[1] == sums[2])


def test_eliminated_jumps():
    rng = random.Random(12)
    for _ in range(50):
        d = build(rand_braid(rng, max_len=8))
        solved = eliminated_jumps(d)
        pivots = [p for p, _ in solved]
        assert len(pivots) == len(set(pivots))
        for pivot, expr in solved:
            assert all(c < pivot for c in expr)
        # substituting random free values satisfies every relation
        jumps = [0] * d.crossing_count
        dependent = dict(solved)
        for c in range(d.crossing_count):
            expr = dependent.get(c)
            if expr is None:
                jumps[c] = rng.randint(-5, 5)
            else:
                jumps[c] = sum(k * jumps[cc] for cc, k in expr.items())
        for rel in cycle_relations(d):
            assert sum(k * jumps[c] for c, k in rel.items()) == 0


def test_solve_jumps():
    rng = random.Random(14)
    for _ in range(50):
        d = build(rand_braid(rng, max_len=8))
        pivots = {p for p, _ in eliminated_jumps(d)}
        free = [c for c in range(d.crossing_count) if c not in pivots]
        values = [rng.randint(-5, 5) for _ in free]
        drawn = iter(values + [99])
        jumps = solve_jumps(d, drawn)
        assert next(drawn) == 99  # one value drawn per free crossing
        assert [jumps[c] for c in free] == values
        for rel in cycle_relations(d):
            assert sum(k * jumps[c] for c, k in rel.items()) == 0


def test_eliminated_jumps_rejects_non_unit_pivot(monkeypatch):
    d = build(parse("1 -2 1", 3))
    monkeypatch.setattr("identities.cycle_relations", lambda d: [{}, {0: -1, 1: 2}])
    with pytest.raises(ArithmeticError):
        eliminated_jumps(d)


def test_free_positions_and_bases():
    d = build(BraidWord(4, (1,)))
    assert d.component_count == 3
    assert d.base_vertices[0] == 0
    assert d.base_vertices[1] is None and d.base_vertices[2] is None
    # components 1 and 2 never pass under, so only component 0 is labelled
    assert cyclic_labels(d) == {0: (0, 0)}


def test_dump_table():
    table = build(parse("-1 -1 -1 2 1 2 2 -1")).dump_table()
    assert "index" in table and "sigma" in table and "tau" in table
    assert "component 0: strands 1,3,2" in table
    rows = [line.split() for line in table.splitlines()[1:9]]
    assert [int(r[3]) for r in rows] == [2, 6, 5, 4, 7, 3, 0, 1]
    assert [int(r[4]) for r in rows] == [1, 2, 6, 5, 6, 6, 3, 0]
