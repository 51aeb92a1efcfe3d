"""Exact evaluation of the two state models for colored Jones polynomials.

Both models sum a per-state product of local crossing weights over the
contributing states of a braid closure diagram, with the first strand's
closure arc anchored to color 0.  Colors are conserved at every crossing
(the two outgoing colors sum to the two incoming ones) and each weight
depends only on a crossing's two entering colors and its jump, so each
state sum is a partial quantum trace.  Values come from one sweep over
the braid letters, bottom to top, shared by both models: the models
differ only in a per-crossing vertex table and the sign of one closure
weight.

Every weight is t**(c/4) times a Laurent polynomial in t, so the sweep
carries each layer value Kronecker-packed as one integer with a K-bit
slot per power of t: a product is one integer product and a sum one
shift and add.  The layer is keyed by the lowest exponent mod 4 as well,
so values whose slots are offset by a fraction of a power never meet.
K is proved large enough rather than guessed: every coefficient is
bounded by the layer's summed L1 norm, which one crossing multiplies by
at most the largest summed L1 norm of its weights, and the layer is
decoded and K sized afresh every REPACK_LETTERS letters so that K does
not grow with the word.  Requests whose first layer and vertex table
would exceed WORK_LIMIT are refused before anything is built.

Most partial states can never close up, and the sweep drops them as
soon as that is certain.  The letters still to come move color only
within the blocks of positions they connect, and the last letter on a
generator g splits its block [p, q) into [p, g) and [g, q).  So that
letter must leave position g-1 with the one color that makes the sum
over [p, g) equal the start's; the block's total is conserved and
already matches, so [g, q) then matches too.  The same test runs early,
right after the last earlier letter on generators p, g-1, g or g+1,
the only letters that change its inputs: an entry whose required color
is not among the left outputs the vertex table allows from the colors
at g-1 and g is dropped there.  Both are necessary conditions for
closing, so no contributing state is lost and every value and count is
unchanged.

R-matrix model, (-) convention.  With i, j the colors entering a
crossing on the left and right, r its jump, and v = t**(1/2), the
crossing leaves (j+r, i-r) when positive and (j-r, i+r) when negative,
with weight

    positive:  (-1)**r * v**(-((n-2i)(n-2j) + r(r-1))/2)
               * (j+r choose r) * {n+r-i}_r
    negative:  v**(((n-2i-2r)(n-2j+2r) + r(r-1))/2)
               * (i+r choose r) * {n+r-j}_r

times t**((-n+2b)/2) per non-anchor strand with closure color b.

Arc-transition model, (+) convention.  With a, b the entering colors and
j the jump, a positive crossing leaves (b-j, a+j) with overpass entry
color tld = a and underpass exit color i = b-j; a negative one leaves
(b+j, a-j) with tld = b and i = a-j.  The weight is

    t**(eps*n*i) * (i+j choose i)_{t^-eps} * {n - tld}_{j, t^eps}
    * t**(-eps*i*tld)

times t**(-b) per non-anchor strand with closure color b, and a global
prefactor t**(-(n^2/4)w + (n/2)(s-1)) with w the writhe.

Both closure weights are one formula: moving each non-anchor strand's
share t**(n/2) of that prefactor onto its t**(-b) gives t**(-(2b-n)/2),
the R-matrix closure weight with its exponent negated.  The sweep seeds
every start vector with t**(-eps sum (2b-n)/2) over its non-anchor
colors b, with eps = -1 for the R-matrix model, +1 for the
arc-transition model and 0 for counting, and only t**(-n^2 w/4) stays.

The paper's theorem, that the two models are not essentially distinct,
holds crossing by crossing.  With [n, x] the quantum binomial, every
entry (a, b) -> (l, r) of the sign-s arc-transition table satisfies

    gl(a, b -> l, r) [n, a] [n, b] = t**((s n^2 + 2n(l-a) - 2(lr-ab))/4)
                                     [n, l] [n, r] rm(n-a, n-b -> n-l, n-r)

with the same support in both tables.  Around a closed state the
q-binomials (a basis rescaling per strand) and the monomials (color is
conserved) cancel, and t**(s n^2/4) per crossing is the writhe prefactor.

model="both" sweeps with both tables; when the totals disagree,
correspondence_report names the first entry of the signs in the word that
breaks the identity, at a cost that depends on n alone.  The enumeration
state sums (state_sum) remain the independent reference: they weigh every
contributing state, at a cost exponential in the crossing count, and
serve --states and the tests.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import product
from typing import Callable, Iterable, Literal

from .braid import BraidWord
from .diagram import Diagram
from .qalgebra import (
    ONE,
    ZERO,
    LaurentQ,
    pack,
    pochhammer,
    pochhammer_signed,
    qbinom,
    qbinom_signed,
    unpack,
)
from .states import MINUS, PLUS, Potential, StateColors, enumerate_states

Model = Literal["rmatrix", "gl", "both"]


class ModelMismatchError(AssertionError):
    """The two state models disagreed; always an implementation bug."""


@lru_cache(maxsize=None)
def _rmatrix_vertex(n: int, sign: int, i: int, j: int, r: int) -> LaurentQ:
    if sign > 0:
        quarter = -((n - 2 * i) * (n - 2 * j) + r * (r - 1))
        coeff = -1 if r % 2 else 1
        return (
            LaurentQ.monomial(coeff, quarter)
            * qbinom(j + r, r)
            * pochhammer(n + r - i, r)
        )
    quarter = (n - 2 * i - 2 * r) * (n - 2 * j + 2 * r) + r * (r - 1)
    return LaurentQ.t_quarter(quarter) * qbinom(i + r, r) * pochhammer(n + r - j, r)


@lru_cache(maxsize=None)
def _gl_vertex(n: int, sign: int, i: int, j: int, tld: int) -> LaurentQ:
    return (
        LaurentQ.t_quarter(4 * n * sign * i)
        * qbinom_signed(i + j, i, -sign)
        * pochhammer_signed(n - tld, j, sign)
    )


def rmatrix_contribution(
    d: Diagram,
    p: Potential,
    colors: StateColors,
    n: int,
) -> LaurentQ:
    """Weight of one (-)-state, closure prefactor included."""
    quarter = sum(2 * (2 * b - n) for b in colors.closure[1:])
    value = LaurentQ.t_quarter(quarter)
    for c, cr in enumerate(d.crossings):
        value = value * _rmatrix_vertex(
            n,
            cr.sign,
            colors.arc_colors[cr.in_left],
            colors.arc_colors[cr.in_right],
            p.jumps[c],
        )
    return value


def gl_contribution(
    d: Diagram,
    p: Potential,
    colors: StateColors,
    n: int,
) -> LaurentQ:
    """Weight of one (+)-state, excess and rotation included but not the
    global writhe prefactor."""
    exc = 0
    value = ONE
    for c, cr in enumerate(d.crossings):
        i, tld = colors.i[c], colors.tilde[c]
        exc += cr.sign * i * tld
        value = value * _gl_vertex(n, cr.sign, i, p.jumps[c], tld)
    rot = sum(colors.closure[1:])
    return value * LaurentQ.t_quarter(-4 * (exc + rot))


def gl_writhe_prefactor_quarter(b: BraidWord, n: int) -> int:
    """Exponent (in quarter units) of state_sum's global (+)-prefactor."""
    return -n * n * b.writhe + 2 * n * (b.strands - 1)


def state_sum(d: Diagram, n: int, convention: int) -> LaurentQ:
    """The model's state sum by enumerating and weighing every
    contributing state: the reference for the sweep."""
    check_work(d.strands, n)
    weigh = rmatrix_contribution if convention == MINUS else gl_contribution
    total = LaurentQ.zero()
    for p, colors in enumerate_states(d, n, convention):
        total = total + weigh(d, p, colors, n)
    if convention == PLUS:
        total = total * LaurentQ.t_quarter(gl_writhe_prefactor_quarter(d.braid, n))
    return total


# A vertex table maps (n, sign, left color in, right color in) to every
# (left color out, right color out, weight) the crossing allows.
Step = tuple[int, int, LaurentQ]
Table = Callable[[int, int, int, int], tuple[Step, ...]]


@lru_cache(maxsize=None)
def _rmatrix_step(n: int, sign: int, i: int, j: int) -> tuple[Step, ...]:
    if sign > 0:
        return tuple(
            (j + r, i - r, _rmatrix_vertex(n, sign, i, j, r))
            for r in range(min(i, n - j) + 1)
        )
    return tuple(
        (j - r, i + r, _rmatrix_vertex(n, sign, i, j, r))
        for r in range(min(j, n - i) + 1)
    )


@lru_cache(maxsize=None)
def _gl_step(n: int, sign: int, a: int, b: int) -> tuple[Step, ...]:
    # tld enters on the overpass; the underpass strand leaves with i.
    tld, under = (a, b) if sign > 0 else (b, a)
    out = []
    for j in range(min(under, n - tld) + 1):
        i = under - j
        weight = _gl_vertex(n, sign, i, j, tld) * LaurentQ.t_quarter(
            -4 * sign * i * tld
        )
        out.append((i, tld + j, weight) if sign > 0 else (tld + j, i, weight))
    return tuple(out)


@lru_cache(maxsize=None)
def _unit_step(
    table: Table, n: int, sign: int, a: int, b: int
) -> tuple[Step, ...]:
    return tuple((left, right, ONE) for left, right, _ in table(n, sign, a, b))


_TABLES: dict[int, Table] = {MINUS: _rmatrix_step, PLUS: _gl_step}
# Built once, so that _growth's cache sees the same unit table every call.
_UNIT_TABLES: dict[int, Table] = {
    c: partial(_unit_step, table) for c, table in _TABLES.items()
}

# Largest (n+1)**(strands+1) -- first-layer start vectors times vertex-table
# entries -- that a sweep or state sum accepts; bigger requests are refused
# before anything is allocated.  Two strands fit up to n = 26, three up to
# n = 10, four up to n = 6, and thirteen at n = 1.
WORK_LIMIT = 20_000

# Letters swept between two re-packs of the layer (see _sweep).
REPACK_LETTERS = 32


def check_work(strands: int, n: int) -> None:
    """Raise ValueError when a request at color n on this many strands
    exceeds WORK_LIMIT."""
    work = 1
    for _ in range(strands + 1):
        work *= n + 1
        if work > WORK_LIMIT:
            raise ValueError(
                f"color n={n} on {strands} strands is too large: "
                f"(n+1)**(strands+1) exceeds the work limit {WORK_LIMIT}"
            )


@lru_cache(maxsize=None)
def _growth(table: Table, n: int, sign: int) -> int:
    """The most one crossing can multiply a layer's summed L1 norm by: the
    largest summed L1 norm of its weights over the entering colors."""
    return max(
        sum(w.l1_norm() for _, _, w in table(n, sign, a, b))
        for a in range(n + 1)
        for b in range(n + 1)
    )


def _closing_checks(
    letters: tuple[int, ...],
) -> tuple[list[int | None], list[list[tuple[int, int, int]]]]:
    """Where the sweep tests whether an entry can still close (see the
    module docstring).

    Returns (splits, early).  splits[i] is the start p of the block
    [p, q) that letter i, on generator g, splits when it is the last
    letter on g, else None; the letter must then leave position g-1 with
    need = sum(start[p:g]) - sum(cur[p:g-1]).  early[i] lists (p, g,
    sign) for the split letters whose inputs -- cur[g-1], cur[g] and
    sum(cur[p:g-1]) -- are final once i letters are swept: only letters
    on generators p, g-1, g and g+1 change them.
    """
    splits: list[int | None] = [None] * len(letters)
    early: list[list[tuple[int, int, int]]] = [[] for _ in range(len(letters) + 1)]
    later: set[int] = set()
    for i in reversed(range(len(letters))):
        g = abs(letters[i])
        if g not in later:
            p = g - 1
            while p in later:
                p -= 1
            splits[i] = p
            watched = {p, g - 1, g, g + 1}
            m = i
            while m and abs(letters[m - 1]) not in watched:
                m -= 1
            early[m].append((p, g, 1 if letters[i] > 0 else -1))
            later.add(g)
    return splits, early


Packed = tuple[int, int]
Key = tuple[tuple[int, ...], tuple[int, ...], int]


def _sweep(word: BraidWord, n: int, table: Table, closure: int) -> LaurentQ:
    """Sum the weights of every contributing state, one letter at a time.

    A layer maps (start color vector, current color vector, lowest
    exponent mod 4) to the summed weight of the partial states below it,
    with position 0 anchored at color 0.  Each start vector is seeded
    with its closure weight t**(-closure * sum((2c - n)/2)) over the
    non-anchor colors c.  Every weight is t**(c/4) times
    a Laurent polynomial in t, so a value is carried Kronecker-packed as
    (lo, N) with one K-bit slot per power of t (qalgebra.pack); the
    residue in the key keeps values whose slots are offset by a fraction
    of a power from being added together.  A product is (lo + wlo, N * W)
    and a sum shifts the value with the higher lo up to the other.

    Exactness: every coefficient is bounded by the layer's summed L1 norm,
    which one letter multiplies by at most _growth.  Every REPACK_LETTERS
    letters the layer is decoded, its actual summed L1 norm S taken, and
    K sized as one bit over S times the growth of the letters ahead.

    Pruning (see _closing_checks): at the last letter on its generator
    only the step whose left output equals need survives, and right after
    the last letter that can change need, cur[g-1] or cur[g] (before any
    letter if there is none) an entry is dropped when need is not a left
    output the table allows from (cur[g-1], cur[g]).  Each test rejects
    only entries that cannot close, so the result is exact.

    Returns the summed weight of the states whose colors return to their
    start vector.
    """
    s = word.strands
    check_work(s, n)
    letters = word.letters
    splits, early = _closing_checks(letters)
    lefts: dict[tuple[int, int, int], frozenset[int]] = {}

    def can_close(
        start: tuple[int, ...], cur: tuple[int, ...], checks: list[tuple[int, int, int]]
    ) -> bool:
        for p, g, sign in checks:
            a, b = cur[g - 1], cur[g]
            allowed = lefts.get((sign, a, b))
            if allowed is None:
                allowed = lefts[sign, a, b] = frozenset(
                    left for left, _, _ in table(n, sign, a, b)
                )
            if sum(start[p:g]) - sum(cur[p : g - 1]) not in allowed:
                return False
        return True

    layer: dict[Key, Packed] = {}
    for rest in product(range(n + 1), repeat=s - 1):
        start = (0,) + rest
        if can_close(start, start, early[0]):
            quarter = -closure * sum(2 * (2 * c - n) for c in rest)
            layer[start, start, quarter & 3] = (quarter, 1)
    k = 2
    for at in range(0, len(letters), REPACK_LETTERS):
        chunk = letters[at : at + REPACK_LETTERS]
        values = {key: unpack(lo, v, k) for key, (lo, v) in layer.items()}
        bound = sum(value.l1_norm() for value in values.values())
        for letter in chunk:
            bound *= _growth(table, n, 1 if letter > 0 else -1)
        k = bound.bit_length() + 1
        layer = {key: pack(value, k) for key, value in values.items() if value}
        weights: dict[tuple[int, int, int], tuple[tuple[int, int, int, int], ...]] = {}
        for i, letter in enumerate(chunk, at):
            g = letter if letter > 0 else -letter
            sign = 1 if letter > 0 else -1
            p = splits[i]
            ahead = early[i + 1]
            nxt: dict[Key, Packed] = {}
            for (start, cur, _), (lo, v) in layer.items():
                a, b = cur[g - 1], cur[g]
                steps = weights.get((sign, a, b))
                if steps is None:
                    steps = weights[sign, a, b] = tuple(
                        (left, right) + pack(w, k)
                        for left, right, w in table(n, sign, a, b)
                    )
                if p is not None:
                    need = sum(start[p:g]) - sum(cur[p : g - 1])
                    steps = [step for step in steps if step[0] == need]
                head, tail = cur[: g - 1], cur[g + 1 :]
                for left, right, wlo, w in steps:
                    new = head + (left, right) + tail
                    if ahead and not can_close(start, new, ahead):
                        continue
                    qlo = lo + wlo
                    key = (start, new, qlo & 3)
                    term = v * w
                    old = nxt.get(key)
                    if old is None:
                        nxt[key] = (qlo, term)
                        continue
                    olo, acc = old
                    if olo <= qlo:
                        nxt[key] = (olo, acc + (term << (k * (qlo - olo) >> 2)))
                    else:
                        nxt[key] = (qlo, term + (acc << (k * (olo - qlo) >> 2)))
            layer = nxt
    total = ZERO
    for (start, cur, _), (lo, v) in layer.items():
        if start == cur:
            total = total + unpack(lo, v, k)
    return total


def transfer_sum(b: BraidWord, n: int, convention: int) -> LaurentQ:
    """The model's state sum by one sweep over the braid letters."""
    if convention not in _TABLES:
        raise ValueError("convention must be +1 or -1")
    total = _sweep(b, n, _TABLES[convention], convention)
    if convention == PLUS:
        total = total * LaurentQ.t_quarter(-n * n * b.writhe)
    return total


def state_count(b: BraidWord, n: int, convention: int) -> int:
    """Number of n-contributing states in the convention, anchored at 0 and
    free strands included: the sweep with unit weights and no closure
    weight."""
    if convention not in _UNIT_TABLES:
        raise ValueError("convention must be +1 or -1")
    return _sweep(b, n, _UNIT_TABLES[convention], 0).coefficient(0)


def correspondence_report(n: int, signs: Iterable[int]) -> str:
    """Name the first entry of the vertex tables of these crossing signs
    that breaks the per-crossing correspondence (see the module
    docstring), with both weights.  Reads the tables the sweeps use; the
    cost depends on n alone, never on the word."""
    binoms = lru_cache(maxsize=None)(lambda x, y: qbinom(n, x) * qbinom(n, y))
    for s, a, b in product(signs, range(n + 1), range(n + 1)):
        gl = {(l, r): w for l, r, w in _TABLES[PLUS](n, s, a, b)}
        rm = {(n - l, n - r): w for l, r, w in _TABLES[MINUS](n, s, n - a, n - b)}
        for l, r in sorted(gl.keys() | rm.keys()):
            w, v = gl.get((l, r), ZERO), rm.get((l, r), ZERO)
            quarter = s * n * n + 2 * n * (l - a) - 2 * (l * r - a * b)
            if w * binoms(a, b) != v * binoms(l, r) * LaurentQ.t_quarter(quarter):
                return (
                    f"  sign {s:+d} entry ({a}, {b}) -> ({l}, {r}) breaks the "
                    f"correspondence: arc-transition {w} vs r-matrix {v} "
                    f"at ({n - a}, {n - b}) -> ({n - l}, {n - r})"
                )
    return "  every entry corresponds; suspect the closure weights or the sweep"


def colored_jones_framed(b: BraidWord, n: int, model: Model = "both") -> LaurentQ:
    """The framed invariant of the braid closure at color n."""
    if n < 1:
        raise ValueError("color n must be >= 1")
    if model == "rmatrix":
        return transfer_sum(b, n, MINUS)
    if model == "gl":
        return transfer_sum(b, n, PLUS)
    if model != "both":
        raise ValueError(f"unknown model {model!r}")
    minus = transfer_sum(b, n, MINUS)
    plus = transfer_sum(b, n, PLUS)
    if minus != plus:
        signs = [s for s in (1, -1) if any(s * k > 0 for k in b.letters)]
        raise ModelMismatchError(
            f"models disagree on braid '{b.text()}' at n={n}: "
            f"r-matrix {minus} vs arc-transition {plus}\n"
            + correspondence_report(n, signs)
        )
    return minus


def unframing(b: BraidWord, n: int) -> LaurentQ:
    """t**(w(n^2/4 + n/2)), which takes the framed invariant to the
    framing-independent one."""
    return LaurentQ.t_quarter(b.writhe * (n * n + 2 * n))


def colored_jones_unframed(b: BraidWord, n: int, model: Model = "both") -> LaurentQ:
    """Framing-independent normalization: framed value times unframing."""
    return colored_jones_framed(b, n, model) * unframing(b, n)


def parity_halfinteger_check(b: BraidWord, n: int) -> str:
    """Classify the unframed value's exponents and assert the parity law.

    Exponents are all integral when n is even or the closure has an odd
    number of components, and all half-integral otherwise; a mix of the
    two classes signals a bug.
    """
    value = colored_jones_unframed(b, n, "rmatrix")
    mu = b.component_count()
    expected = "integer" if n % 2 == 0 or mu % 2 == 1 else "half-integer"
    if value.is_zero():
        return expected
    residues = {q % 4 for q, _ in value.terms()}
    if residues == {0}:
        seen = "integer"
    elif residues == {2}:
        seen = "half-integer"
    else:
        raise ValueError(
            f"mixed exponent classes for braid '{b.text()}' at n={n}: {value}"
        )
    if seen != expected:
        raise ValueError(
            f"parity law violated for braid '{b.text()}' at n={n}: "
            f"got {seen}, expected {expected}"
        )
    return seen
