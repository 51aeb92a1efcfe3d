"""Job lists of the four benchmark workloads.

A job is (strands, braid text, color n).  The seed decides the corpus's
short braids; the named families are fixed.  Jobs keep a fixed order,
because a pass's jobs share the program's caches and memory: with the
order shuffled by seed, the peak memory of `wide` varied by an IQR of 11%
over five seeds, against 0.2% in a fixed order.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 2024

# The corpus draws its 7- and 8-letter braids from this fixed stream.  They
# carry most of a corpus pass's time: resampling measured per-braid costs,
# drawing them from the run's seed too made a pass's total work vary by an
# IQR of about 12% over ten seeds; with them fixed, about 3%.
LONG_BRAID_SEED = 7
LONG_BRAID_LETTERS = 7
CORPUS_PER_CELL = 8
CORPUS_COLORS = (1, 2, 3)


def _weaving(m: int) -> str:
    return " ".join(["-1 2"] * m)


def _torus(k: int) -> str:
    return " ".join(["1"] * k)


def _wide(m: int) -> str:
    return " ".join(["1 -2 3"] * m)


# Named families: (strands, text, n).  Costs on the seed commit are in README.md.
FIXED_JOBS = {
    "weaving": [
        (3, _weaving(3), 4),
        (3, _weaving(4), 3),
        (3, _weaving(4), 4),
        (3, _weaving(5), 3),
    ],
    "torus": [
        (2, _torus(5), 4),
        (2, _torus(7), 3),
        (2, _torus(7), 4),
        (2, _torus(9), 3),
    ],
    "wide": [
        (4, _wide(2), 3),
        (4, _wide(2), 4),
        (4, _wide(3), 3),
        (4, _wide(3), 4),
    ],
}

# corpus jobs go through the command line; the others through the library.
KIND = {"corpus": "cli", "weaving": "api", "torus": "api", "wide": "api"}
NAMES = tuple(KIND)


def _random_letters(rng: random.Random, strands: int, length: int) -> tuple[int, ...]:
    # The letter law of the acceptance corpus in tests/test_acceptance.py.
    return tuple(rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(length))


def corpus_braids(seed: int) -> list[tuple[int, str]]:
    """CORPUS_PER_CELL braids for every (strands 2-4, length 1-8) cell.

    Stratifying by cell keeps the acceptance corpus's uniform law on
    strands and length while removing its sampling noise.  Braids repeat
    only in cells too small to fill with distinct words.
    """
    seeded = random.Random(seed)
    fixed = random.Random(LONG_BRAID_SEED)
    seen: set[tuple[int, tuple[int, ...]]] = set()
    out = []
    for strands in (2, 3, 4):
        for length in range(1, 9):
            rng = fixed if length >= LONG_BRAID_LETTERS else seeded
            for _ in range(CORPUS_PER_CELL):
                for _attempt in range(20):
                    letters = _random_letters(rng, strands, length)
                    if (strands, letters) not in seen:
                        break
                seen.add((strands, letters))
                out.append((strands, " ".join(str(k) for k in letters)))
    return out


def jobs(workload: str, seed: int) -> list[tuple[int, str, int]]:
    """The workload's jobs for this seed, in the order they run."""
    if workload == "corpus":
        return [(s, text, n) for s, text in corpus_braids(seed) for n in CORPUS_COLORS]
    return list(FIXED_JOBS[workload])
