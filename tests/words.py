"""Random braid words for the tests."""

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
