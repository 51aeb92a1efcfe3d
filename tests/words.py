"""Braid words for the tests: random ones, a fixed set for the sweep's early
tests, and the sweep's schedule of a word taken as written."""

import random

from braidjones.braid import BraidWord


def rand_braid(rng: random.Random, max_strands=4, max_len=6) -> BraidWord:
    """A word on 2..max_strands strands with 1..max_len letters, each a
    generator and sign drawn from rng."""
    s = rng.randint(2, max_strands)
    letters = tuple(
        rng.choice([1, -1]) * rng.randint(1, s - 1)
        for _ in range(rng.randint(1, max_len))
    )
    return BraidWord(s, letters)


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
