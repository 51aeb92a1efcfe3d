"""Braid word parsing, permutations, and skein plumbing."""

import copy
import pickle
import random

import pytest

from braidjones import colored_jones_framed
from braidjones.braid import BraidWord, parse


def test_parse_inference():
    b = parse("-1 2 -1 2")
    assert b.strands == 3
    assert b.letters == (-1, 2, -1, 2)
    assert parse("-3 2").strands == 4
    assert parse("1").strands == 2


def test_parse_explicit_strands():
    b = parse("1 1", strands=4)
    assert b.strands == 4
    assert parse("", strands=1).letters == ()


def test_parse_errors():
    with pytest.raises(ValueError):
        parse("")
    with pytest.raises(ValueError):
        parse("0 1")
    with pytest.raises(ValueError):
        parse("1 x")
    # an optional sign and ASCII digits only, though int() takes more
    for text in ("1_0", "\u0661", "\uff11", "1 --2", "+"):
        with pytest.raises(ValueError, match="bad braid letter"):
            parse(text)
    with pytest.raises(ValueError):
        parse("3", strands=3)
    with pytest.raises(ValueError):
        BraidWord(0, ())


def test_writhe_and_text():
    b = parse("-1 -1 -1 2 1 2 2 -1")
    assert b.writhe == 0
    assert b.text() == "-1 -1 -1 2 1 2 2 -1"
    assert parse("1 1 1").writhe == 3


def test_permutation_examples():
    assert BraidWord(2, ()).permutation() == (0, 1)
    assert BraidWord(2, ()).component_count() == 2

    b = parse("-1 2")
    assert len(b.components()) == 1
    assert b.components() == [(0, 1, 2)] or b.components() == [(0, 2, 1)]

    w3 = parse("-1 2 -1 2 -1 2")
    assert w3.permutation() == (0, 1, 2)
    assert w3.component_count() == 3

    assert parse("-1 -1 -1 2 1 2 2 -1").component_count() == 1


def test_component_order():
    # the component through strand position 0 always comes first
    b = parse("2", strands=3)
    comps = b.components()
    assert comps[0] == (0,)
    assert comps[1] == (1, 2) or comps[1] == (2, 1)


def test_skein_triple():
    plus, minus, zero = parse("1 1 1").skein_triple(0)
    assert (plus.text(), minus.text(), zero.text()) == ("1 1 1", "-1 1 1", "1 1")
    plus, minus, zero = parse("-1").skein_triple(0)
    assert (plus.text(), minus.text(), zero.text()) == ("1", "-1", "")
    plus, minus, zero = parse("-1 2").skein_triple(1)
    assert (plus.text(), minus.text(), zero.text()) == ("-1 2", "-1 -2", "-1")
    with pytest.raises(IndexError):
        parse("1").skein_triple(1)


def test_skein_component_parity():
    rng = random.Random(42)
    for _ in range(50):
        s = rng.randint(2, 4)
        letters = tuple(
            rng.choice([1, -1]) * rng.randint(1, s - 1)
            for _ in range(rng.randint(1, 7))
        )
        b = BraidWord(s, letters)
        pos = rng.randrange(len(letters))
        plus, minus, zero = b.skein_triple(pos)
        assert plus.component_count() == minus.component_count()
        assert abs(plus.component_count() - zero.component_count()) == 1


def test_reflect():
    assert parse("1 1 1").reflect().text() == "-1 -1 -1"
    assert parse("-1 2 -1 2").reflect().text() == "1 -2 1 -2"
    rng = random.Random(43)
    for _ in range(30):
        s = rng.randint(2, 4)
        letters = tuple(
            rng.choice([1, -1]) * rng.randint(1, s - 1)
            for _ in range(rng.randint(0, 7))
        )
        b = BraidWord(s, letters)
        r = b.reflect()
        assert r.reflect() == b
        assert r.writhe == -b.writhe
        assert r.permutation() == b.permutation()


def test_braidword_value_semantics():
    b = BraidWord(2, (1, 1))
    assert b == BraidWord(strands=2, letters=(1, 1)) == parse("1 1")
    assert hash(b) == hash(parse("1 1"))
    assert len({b, parse("1 1"), parse("1 1", strands=3)}) == 2
    assert b != BraidWord(2, (1, -1)) and b != (2, (1, 1))
    assert repr(b) == "BraidWord(strands=2, letters=(1, 1))"
    for name in ("strands", "letters", "other"):
        with pytest.raises(AttributeError):
            setattr(b, name, 3)
    with pytest.raises(AttributeError):
        del b.letters
    assert copy.copy(b) == b and pickle.loads(pickle.dumps(b)) == b
    # a list or a generator of letters makes the same word as the parsed text
    parsed = parse("1 1 1")
    for letters in ([1, 1, 1], (k for k in (1, 1, 1))):
        word = BraidWord(2, letters)
        assert word == parsed and hash(word) == hash(parsed)
        assert word.letters == (1, 1, 1)
        assert colored_jones_framed(word, 2) == colored_jones_framed(parsed, 2)
    # only exact ints: a bool or a float would fail far from the mistake
    for strands, letters in [(2, [True]), (2.5, [1]), (2, [1.0]), (True, [])]:
        with pytest.raises(TypeError, match="is not an int"):
            BraidWord(strands, letters)
    for strands, letters, message in [
        (0, (), "a braid needs at least one strand"),
        (2, (1, 0), "0 is not a braid letter"),
        (2, (1, -2), "letter -2 needs at least 3 strands, have 2"),
    ]:
        with pytest.raises(ValueError) as caught:
            BraidWord(strands, letters)
        assert str(caught.value) == message
