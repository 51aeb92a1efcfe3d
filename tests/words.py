"""Braid words for the tests and the CI steps: the one law of random
letters, random words, a fixed set for the sweep's early tests, the sweep's
schedule of a word taken as written or with no early test, and the check
that patching one helper of statesum keeps every sweep."""

import random

from braidjones import statesum
from braidjones.braid import BraidWord
from braidjones.statesum import _closing_checks, _gl_row, _rmatrix_row, _sweep, _unit_row


def random_letters(rng: random.Random, strands: int, length: int) -> tuple[int, ...]:
    """length letters on strands strands, each a sign and a generator drawn
    from rng; perfbench's corpus keeps its own copy of this law."""
    return tuple(rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(length))


def rand_braid(rng: random.Random, max_strands=4, max_len=6) -> BraidWord:
    """A word on 2..max_strands strands with 1..max_len letters."""
    s = rng.randint(2, max_strands)
    return BraidWord(s, random_letters(rng, s, rng.randint(1, max_len)))


# Words whose early closing tests (statesum._closing_checks) take every case
# of the sweep's per-entry bound between them: the letter a test follows
# moves its P_{h-2}, P_{h-1} or P_h (h = g+1, g, g-1), under a test of
# either sign, on h = 1, where P_{h-2} is 0, on h = s - 1, where P_h is the
# color total, and on h = 2.  In the last five, some entries already fail on
# an input the letter leaves alone, and are dropped before any jump.
EARLY_TEST_WORDS = tuple(
    BraidWord(4, letters)
    for letters in (
        (-2, -1, -2, 3),
        (2, 1, 2, -3),
        (-3, 3, -2, 1, 1),
        (-1, -1, 3, -3, 2),
        (-1, -2, 2),
        (2, -2, -3),
        (-3, 1, 2, 3, 1, 2),
        (-1, 2, -1, 1),
        (2, 1, 3, 2),
        (3, -2, 1, -3, -1, -2),
        (2, 1, -3, -2, 3),
    )
)


def as_written(letters: tuple[int, ...]):
    """The sweep's schedule of the letters in the order written, from the
    definitions in statesum._closing_checks' docstring: (letters, last,
    after), with no letter moved."""
    last = [
        all(abs(k) != abs(letter) for k in letters[i + 1 :])
        for i, letter in enumerate(letters)
    ]
    after = [None] * len(letters)
    for i in reversed(range(len(letters))):
        if last[i]:
            g = abs(letters[i])
            below = [m for m in range(i) if abs(abs(letters[m]) - g) <= 1]
            if below and after[below[-1]] is None:
                after[below[-1]] = (g, 1 if letters[i] > 0 else -1)
    return letters, last, after


def unscheduled(letters: tuple[int, ...]):
    """The sweep's schedule of the letters (statesum._closing_checks) with
    every early test dropped."""
    order, last, after = _closing_checks(letters)
    return order, last, [None] * len(after)


def sweep_cases(words) -> list[tuple]:
    """Every sweep (b, n, table, anchor) of the words, each given as
    (b, colors), under the three vertex tables at anchors 0 and n."""
    return [
        (b, n, table, anchor)
        for b, colors in words
        for n in colors
        for table in (_rmatrix_row, _gl_row, _unit_row)
        for anchor in (0, n)
    ]


def assert_patch_keeps_sweeps(cases, name: str, replacement) -> list[tuple]:
    """Sweep each case, then again with statesum.<name> replaced, and assert
    that every sweep is unchanged; statesum gets its own back however the
    check ends.  Returns the unpatched sweeps, (value, count) each."""
    swept = [_sweep(*case) for case in cases]
    original = getattr(statesum, name)
    setattr(statesum, name, replacement)
    try:
        for case, result in zip(cases, swept):
            assert _sweep(*case) == result, case
    finally:
        setattr(statesum, name, original)
    return swept
