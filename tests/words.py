"""Braid words for the tests: random ones, and a fixed set for the sweep's
early tests."""

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
