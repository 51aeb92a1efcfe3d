"""Braid words and the combinatorics of their closures.

A braid word on s strands is a sequence of nonzero integers k with
|k| < s; the letter k denotes the generator sigma_|k| (positive) or its
inverse (negative), acting on strand positions |k|, |k|+1 counted from 1.
Closures are formed implicitly by the diagram layer: the top of each
strand position is joined to its bottom.

No braid-group algebra happens here: words are never reduced and Markov
moves are never applied.  The invariants computed downstream certify
equivalence on their own.
"""

from __future__ import annotations


class BraidWord:
    """A braid word: strand count plus letters in bottom-to-top order.

    Immutable and hashable, compared by (strands, letters).
    """

    __slots__ = ("strands", "letters")
    strands: int
    letters: tuple[int, ...]

    # letters, any iterable of ints (unannotated: Iterable needs an import),
    # is stored as a tuple, so a list or a generator makes the parsed word.
    def __init__(self, strands: int, letters) -> None:
        letters = tuple(letters)
        # exact ints: a bool prints as 'True' and a float cannot index the sweep
        if type(strands) is not int:
            raise TypeError(f"strand count {strands!r} is not an int")
        if strands < 1:
            raise ValueError("a braid needs at least one strand")
        for k in letters:
            if type(k) is not int:
                raise TypeError(f"braid letter {k!r} is not an int")
            if k == 0:
                raise ValueError("0 is not a braid letter")
            if abs(k) >= strands:
                raise ValueError(
                    f"letter {k} needs at least {abs(k) + 1} strands, have {strands}"
                )
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    # copy and pickle rebuild the word through __init__, since assignment is refused
    def __reduce__(self):
        return BraidWord, (self.strands, self.letters)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.strands, self.letters) == (other.strands, other.letters)

    def __hash__(self) -> int:
        return hash((self.strands, self.letters))

    def __repr__(self) -> str:
        return f"BraidWord(strands={self.strands!r}, letters={self.letters!r})"

    @property
    def writhe(self) -> int:
        return sum(1 if k > 0 else -1 for k in self.letters)

    def text(self) -> str:
        return " ".join(str(k) for k in self.letters)

    def permutation(self) -> tuple[int, ...]:
        """perm[i] = top position reached by the strand entering bottom position i.

        Positions are 0-based.  The closure's components are the cycles
        of this permutation.
        """
        cur = list(range(self.strands))
        for k in self.letters:
            g = abs(k)
            cur[g - 1], cur[g] = cur[g], cur[g - 1]
        perm = [0] * self.strands
        for pos, strand in enumerate(cur):
            perm[strand] = pos
        return tuple(perm)

    def components(self) -> list[tuple[int, ...]]:
        """Cycles of the closure permutation, ordered by minimal position.

        The component containing position 0 always comes first; it is the
        one anchored by the state models.
        """
        perm = self.permutation()
        seen = [False] * self.strands
        cycles: list[tuple[int, ...]] = []
        for start in range(self.strands):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            p = perm[start]
            while p != start:
                cyc.append(p)
                seen[p] = True
                p = perm[p]
            cycles.append(tuple(cyc))
        return cycles

    def component_count(self) -> int:
        return len(self.components())

    def reflect(self) -> "BraidWord":
        """Mirror image: every crossing sign flipped."""
        return BraidWord(self.strands, tuple(-k for k in self.letters))

    def skein_triple(self, pos: int) -> tuple["BraidWord", "BraidWord", "BraidWord"]:
        """(b_plus, b_minus, b_zero) differing from self only at letter pos."""
        if not 0 <= pos < len(self.letters):
            raise IndexError(f"letter index {pos} out of range")
        g = abs(self.letters[pos])
        before, after = self.letters[:pos], self.letters[pos + 1 :]
        plus = BraidWord(self.strands, before + (g,) + after)
        minus = BraidWord(self.strands, before + (-g,) + after)
        zero = BraidWord(self.strands, before + after)
        return plus, minus, zero


def parse(text: str, strands: int | None = None) -> BraidWord:
    """Parse a whitespace-separated braid word.

    Without an explicit strand count the number of strands is inferred
    as max|k| + 1; the empty word then has no inferable count and is an
    error.
    """
    tokens = text.split()
    letters: list[int] = []
    for tok in tokens:
        try:
            # int() alone also takes "1_0" and the digits of other scripts
            if "_" in tok or not tok.isascii():
                raise ValueError
            k = int(tok)
        except ValueError:
            raise ValueError(f"bad braid letter {tok!r}") from None
        if k == 0:
            raise ValueError("0 is not a braid letter")
        letters.append(k)
    if strands is None:
        if not letters:
            raise ValueError("empty braid word needs an explicit strand count")
        strands = max(abs(k) for k in letters) + 1
    return BraidWord(strands, tuple(letters))


# Named links for the command line and the tests: word and strand count.
PRESETS: dict[str, tuple[str, int]] = {
    "unknot": ("", 1),
    "unknot-kink-plus": ("1", 2),
    "unknot-kink-minus": ("-1", 2),
    "unlink2": ("", 2),
    "hopf-plus": ("1 1", 2),
    "hopf-minus": ("-1 -1", 2),
    "trefoil": ("1 1 1", 2),
    "trefoil-mirror": ("-1 -1 -1", 2),
    "figure-eight": ("-1 2 -1 2", 3),
    "weaving-3-2": ("-1 2 -1 2", 3),
    "weaving-3-3": ("-1 2 -1 2 -1 2", 3),
    "weaving-3-4": ("-1 2 -1 2 -1 2 -1 2", 3),
    "weaving-3-5": ("-1 2 -1 2 -1 2 -1 2 -1 2", 3),
    "sample-knot": ("-1 -1 -1 2 1 2 2 -1", 3),
}
