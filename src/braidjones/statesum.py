"""Exact evaluation of the two state models for colored Jones polynomials.

Both models sum a per-state product of local crossing weights over the
contributing states of a braid closure diagram, with the first strand's
closure arc anchored to one color.  One flow rule moves the colors in
both models (the arc-transition model's read through c -> n - c, below):
a crossing of sign e entered by colors a on the left and b on the right
with jump r leaves

    (b + e*r, a - e*r),  0 <= r <= _max_jump = min(a, n-b) if e > 0 else min(b, n-a),

the jumps that keep both colors within 0..n.  Each weight depends only
on the entering colors and the jump, so each state sum is a partial
quantum trace.  Values come from one sweep over the braid letters, bottom
to top, shared by both models, which differ only in a per-crossing vertex
table: the weights of the allowed jumps, indexed by jump.  The sweep, its
pruning and the correspondence certificate all read the rule.  Every
sweep also counts the closed states it weighs; state_count sweeps with
every weight 1, so that counting builds no weight.

The flow relation is its own inverse: a crossing entered by
(b + e*r, a - e*r) leaves (a, b) with the same jump r, which it allows.
So the states of the reversed word are those of the word read top to
bottom, with the same closure colors, and at every anchor the reversal
keeps the count; it keeps the value too, since reversing every
orientation keeps the invariant (V_n is self-dual).  framed_and_count
uses this to read the count from the value sweep.

The anchor color is free: cutting the closure open at the anchored
strand leaves a (1,1)-tangle, a scalar by Schur's lemma, so every anchor
gives the invariant.  The value sweeps anchor where they are narrowest,
chosen from the word alone: at 0 when the first letter on generator 1
is positive or there is none and at n when it is negative.  A positive
crossing whose left entering color is 0, or a negative one whose left
entering color is n, allows jump 0 only, so the anchored strand's first
crossing makes no branches.  The enumeration state sums anchor at 0 in
their own convention, and state_count with them.

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

The vertex tables build their rows already packed at the sweep's K, as
products and exact quotients of packed quantum symbols (qalgebra), with
no polynomial in between.  Substituting t -> 2**K is a ring homomorphism,
so a row built at any K is the image of its weights, and a layer's sums
and products are the image of the layer's value; only the values decoded
need to fit their K-bit slots, which the bound above proves.

Set-up that depends on the color, the table and K alone is cached per
process and shared by every sweep: packed rows (_rmatrix_row, _gl_row,
_unit_row, each keyed on n, sign, entering colors and K; 4096 at most
each) and the packed symbols they read (4096 at most per kind), first
layers (_seed, keyed on strands, n, anchor and the checks due before any
letter; 128 at most), jump limits (_jump_limits), and per n and sign the
certificate's K (_exact_k) and each table's growth (_growth).  K is
still the exact proved bound, not rounded to share rows.

Most partial states can never close up, and the sweep drops them as
soon as that is certain.  It carries a color vector c by its prefix
sums P_j = c_0 + ... + c_j.  A crossing on generator g keeps
c_{g-1} + c_g, so of these it moves P_{g-1} alone, and a state closes
exactly when every P_{g-1} is back at its start value after the last
letter on g; by the flow rule that fixes the last letter's jump.  The
same test runs early, right after the last earlier letter on generators
g-1, g or g+1, the only letters that change its inputs P_{g-2} (0 for
g = 1), P_{g-1} and P_g: an entry whose required jump is not allowed is
dropped there.  No contributing state is lost, and every entry left
after the last letter closes.

R-matrix model, (-) convention.  With i, j the colors entering a
crossing on the left and right, r its jump, and v = t**(1/2), the
weight is

    positive:  (-1)**r * v**(-((n-2i)(n-2j) + r(r-1))/2)
               * (j+r choose r) * {n+r-i}_r
    negative:  v**(((n-2i-2r)(n-2j+2r) + r(r-1))/2)
               * (i+r choose r) * {n+r-j}_r

times the closure weight t**((2c-n)/2) per non-anchor strand with
closure color c.

Arc-transition model, (+) convention.  Its own colors are the sweep's
complemented by the flow bijection c -> n - c, which carries its states
onto the R-matrix model's, and its jump j is the R-matrix jump.  With a,
b its own entering colors, a crossing of sign e has overpass entry color
tld = a and underpass exit color i = b-j when positive, and tld = b and
i = a-j when negative.  The weight is

    t**(e*(4n*i - 4i*tld - n^2)/4) * (i+j choose i)_{t^-e} * {n - tld}_{j, t^e}

times the closure weight t**((n-2c)/2) per non-anchor strand with its own
closure color c.  The vertex weight carries the crossing's excess
t**(-e*i*tld) and its writhe share t**(-e*n^2/4); the closure weight
carries the strand's rotation t**(-c) and its strand share t**(n/2).
Neither model has a global factor.  On the sweep's color c' = n - c the
closure weight is t**((2c'-n)/2), the R-matrix one, so the sweep seeds
every start vector with that one closure weight and applies nothing
after the last letter, and each state weighs the same as its partner
under the flow bijection.

The paper's theorem, that the two models are not essentially distinct,
holds crossing by crossing.  With [n, x] the quantum binomial, every
jump of either sign, entered by (a, b) and leaving (l, r), satisfies

    gl(a, b -> l, r) [n, a] [n, b] = t**((2n(a-l) - 2(lr-ab))/4)
                                     [n, l] [n, r] rm(a, b -> l, r).

Around a closed state the q-binomials (a basis rescaling per strand) and
the monomials (the change of 2n sum(k c_k) - 2 sum_{i<k} c_i c_k over
the color vector, since color is conserved) cancel.

So model="both" sweeps once, with the R-matrix table, and checks the
arc-transition model by the identity instead of a second sweep: a
certificate (certify_correspondence) tests it on every entry of both
tables of each crossing sign in the word, once per color, sign and pair
of tables in a process, and raises ModelMismatchError naming the first
entry that breaks it.  It compares Kronecker-packed integer products of
the tables' own packed rows, at a K proved from the L1 norms of the
weights' factors (_exact_k); _growth decodes the R-matrix norms from
those same rows.  Its cost depends on n alone.  It reads every entry of
those signs, where a second sweep read only the entries its states
reach; --model gl still sweeps the other table.  The enumeration state
sums (state_sum) remain the independent reference: they weigh every
contributing state in each model's own convention, with the weights
_rmatrix_vertex and _gl_vertex, written apart from the packed tables,
at a cost exponential in the crossing count, and serve --states and the
tests.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, product, zip_longest
from math import comb
from typing import TYPE_CHECKING, Callable, Iterable, Literal

from .braid import BraidWord
from .qalgebra import (
    ZERO,
    LaurentQ,
    pack,
    packed_pochhammer,
    packed_pochhammer_signed,
    packed_qbinom,
    packed_qbinom_signed,
    pochhammer,
    pochhammer_signed,
    qbinom,
    qbinom_signed,
    unpack,
)

if TYPE_CHECKING:
    from .diagram import Diagram
    from .states import Potential, StateColors

Model = Literal["rmatrix", "gl", "both"]

PLUS = 1
MINUS = -1

# Largest (n+1)**(strands+1) -- first-layer start vectors times vertex-table
# entries -- that a sweep, state sum or state enumeration accepts; bigger
# requests are refused before anything is allocated.  Two strands fit up to
# n = 26, three up to n = 10, four up to n = 6, and thirteen at n = 1.  A
# diagram dump, whose size grows with the strand count alone, accepts at
# most this many strands, a state dump, which lists every state before
# printing, this many states, and a weaving braid, whose word is built
# before any other check, this many letters.
WORK_LIMIT = 20_000


def check_work(strands: int, n: int) -> None:
    """Raise ValueError when the color n is below 1 or a request at color n
    on this many strands exceeds WORK_LIMIT."""
    if n < 1:
        raise ValueError("color n must be >= 1")
    work = 1
    for _ in range(strands + 1):
        work *= n + 1
        if work > WORK_LIMIT:
            raise ValueError(
                f"color n={n} on {strands} strands is too large: "
                f"(n+1)**(strands+1) exceeds the work limit {WORK_LIMIT}"
            )


class ModelMismatchError(AssertionError):
    """The two state models disagreed; always an implementation bug."""


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


def _gl_vertex(n: int, sign: int, i: int, j: int, tld: int) -> LaurentQ:
    return (
        LaurentQ.t_quarter(sign * (4 * n * i - 4 * i * tld - n * n))
        * qbinom_signed(i + j, i, -sign)
        * pochhammer_signed(n - tld, j, sign)
    )


# The weights above serve the reference alone, which weighs a crossing per
# state and so reads them through caches; the vertex tables build the same
# weights packed (_rmatrix_row, _gl_row).
_rmatrix_weight = lru_cache(maxsize=None)(_rmatrix_vertex)
_gl_weight = lru_cache(maxsize=None)(_gl_vertex)


def rmatrix_contribution(
    d: Diagram,
    p: Potential,
    colors: StateColors,
    n: int,
) -> LaurentQ:
    """Weight of one (-)-state, closure weight included."""
    quarter = sum(2 * (2 * b - n) for b in colors.closure[1:])
    value = LaurentQ.t_quarter(quarter)
    for c, cr in enumerate(d.crossings):
        value = value * _rmatrix_weight(
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
    """Weight of one (+)-state, closure weight included: the weight of its
    partner (-)-state under the flow bijection."""
    quarter = sum(2 * (n - 2 * b) for b in colors.closure[1:])
    value = LaurentQ.t_quarter(quarter)
    for c, cr in enumerate(d.crossings):
        value = value * _gl_weight(n, cr.sign, colors.i[c], p.jumps[c], colors.tilde[c])
    return value


def state_sum(d: Diagram, n: int, convention: int) -> LaurentQ:
    """The model's state sum by enumerating and weighing every
    contributing state, with no global factor: the reference for the
    sweep."""
    from .states import enumerate_states

    weigh = rmatrix_contribution if convention == MINUS else gl_contribution
    total = LaurentQ.zero()
    for p, colors in enumerate_states(d, n, convention):
        total = total + weigh(d, p, colors, n)
    return total


# A row of a vertex table: for each jump r = 0.._max_jump a crossing entered
# by (a, b) allows, the left color b + sign*r it leaves and its weight packed
# at K as (lo, N) (qalgebra.pack).  A vertex table maps (n, sign, a, b, K)
# to that row.
Row = tuple[tuple[int, int, int], ...]
Table = Callable[[int, int, int, int, int], Row]


def _max_jump(n: int, sign: int, a: int, b: int) -> int:
    """The largest jump of a crossing entered by (a, b) (the flow rule)."""
    return min(a, n - b) if sign > 0 else min(b, n - a)


# The two model tables build each weight as a product of packed symbols
# (qalgebra), with no polynomial in between.  They are written apart from
# _rmatrix_vertex and _gl_vertex, so the sweep and the reference weigh with
# independent code.  Rows are cached per K, bounded as the symbols are.
@lru_cache(maxsize=4096)
def _rmatrix_row(n: int, sign: int, i: int, j: int, k: int) -> Row:
    steps = []
    for r in range(_max_jump(n, sign, i, j) + 1):
        if sign > 0:
            quarter = -((n - 2 * i) * (n - 2 * j) + r * (r - 1))
            blo, bn = packed_qbinom(j + r, r, k)
            plo, pn = packed_pochhammer(n + r - i, r, k)
            if r % 2:
                bn = -bn
        else:
            quarter = (n - 2 * i - 2 * r) * (n - 2 * j + 2 * r) + r * (r - 1)
            blo, bn = packed_qbinom(i + r, r, k)
            plo, pn = packed_pochhammer(n + r - j, r, k)
        steps.append((j + sign * r, quarter + blo + plo, bn * pn))
    return tuple(steps)


@lru_cache(maxsize=4096)
def _gl_row(n: int, sign: int, a: int, b: int, k: int) -> Row:
    # Read in the R-matrix frame, where the model's own colors are n minus
    # the sweep's: tld enters on the overpass and the underpass strand
    # leaves with i = under - r.
    tld, under = (n - a, n - b) if sign > 0 else (n - b, n - a)
    steps = []
    for r in range(_max_jump(n, sign, a, b) + 1):
        i = under - r
        blo, bn = packed_qbinom_signed(under, i, -sign, k)
        plo, pn = packed_pochhammer_signed(n - tld, r, sign, k)
        quarter = sign * (4 * n * i - 4 * i * tld - n * n)
        steps.append((b + sign * r, quarter + blo + plo, bn * pn))
    return tuple(steps)


@lru_cache(maxsize=4096)
def _unit_row(n: int, sign: int, a: int, b: int, k: int) -> Row:
    # The support both tables share, with unit weights: for counting.
    return tuple((b + sign * r, 0, 1) for r in range(_max_jump(n, sign, a, b) + 1))


# One bit over the largest coefficient bound, at any entry of this sign, of
# either model's weight times the q-binomials [n, x][n, y] its side of the
# correspondence carries, so that every weight of either table, alone or
# times those, fits K-bit slots.  A product's L1 norm is at most the product
# of its factors' norms: a q-binomial of either kind has nonnegative
# coefficients, so its norm is the binomial, and each factor of a Pochhammer
# symbol ({x} or 1 - t**m) has norm at most 2.  Tables built otherwise (say,
# broken ones in a test) are bounded by the same K only if their weights are.
@lru_cache(maxsize=None)
def _exact_k(n: int, sign: int) -> int:
    binom = [comb(n, x) for x in range(n + 1)]
    bound = 0
    for a in range(n + 1):
        for b in range(n + 1):
            rm_top, gl_top = (b, n - b) if sign > 0 else (a, n - a)
            for r in range(_max_jump(n, sign, a, b) + 1):
                l, right = b + sign * r, a - sign * r
                gl = comb(gl_top, r) * binom[a] * binom[b]
                rm = comb(rm_top + r, r) * binom[l] * binom[right]
                bound = max(bound, max(gl, rm) << r)
    return bound.bit_length() + 1


_TABLES: dict[int, Table] = {MINUS: _rmatrix_row, PLUS: _gl_row}

# Letters swept between two re-packs of the layer (see _sweep).  Never
# re-packing made T(2,40) at n = 8 1.6-2.2x slower (CHANGES.md).
REPACK_LETTERS = 32


@lru_cache(maxsize=None)
def _growth(table: Table, n: int, sign: int) -> int:
    """The most one crossing can multiply a layer's summed L1 norm by: the
    largest summed L1 norm of its weights over the entering colors, each
    decoded once from its row packed at _exact_k(n, sign), where every
    weight fits (the rows the certificate reads)."""
    k = _exact_k(n, sign)
    return max(
        sum(unpack(lo, w, k).l1_norm() for _, lo, w in table(n, sign, a, b, k))
        for a in range(n + 1)
        for b in range(n + 1)
    )


def _closing_checks(
    letters: tuple[int, ...],
) -> tuple[list[bool], list[list[tuple[int, int]]]]:
    """Where the sweep tests whether an entry can still close (see the
    module docstring).

    Returns (last, early).  last[i] tells whether letter i is the last on
    its generator g, which must then leave the prefix sum cur[g-1] at
    start[g-1].  early[m] lists (g, sign) for the last letters whose
    inputs cur[g-2], cur[g-1] and cur[g] are final once m letters are
    swept: only letters on generators g-1, g and g+1 change them.
    """
    last = [False] * len(letters)
    early: list[list[tuple[int, int]]] = [[] for _ in range(len(letters) + 1)]
    later: set[int] = set()
    for i in reversed(range(len(letters))):
        g = abs(letters[i])
        if g not in later:
            later.add(g)
            last[i] = True
            # Testing at the last letter only made perfbench's wide jobs 2x
            # slower (CHANGES.md).
            m = i
            while m and abs(abs(letters[m - 1]) - g) > 1:
                m -= 1
            early[m].append((g, 1 if letters[i] > 0 else -1))
    return last, early


# (lo, N, count): a value Kronecker-packed as in qalgebra.pack, and the
# number of partial states summed into it.
Entry = tuple[int, int, int]
Key = tuple[tuple[int, ...], tuple[int, ...], int]
Limits = dict[int, tuple[tuple[int, ...], ...]]


# _max_jump(n, sign, a, b) as limits[a][b], for the closing test.  Read after
# check_work, which bounds n, so the cache stays small.
@lru_cache(maxsize=None)
def _jump_limits(n: int, sign: int) -> tuple[tuple[int, ...], ...]:
    colors = range(n + 1)
    return tuple(tuple([_max_jump(n, sign, a, b) for b in colors]) for a in colors)


# Whether the last letter of each (g, sign) in checks can bring the prefix
# sum cur[g-1] back to start[g-1]: whether the jump that needs,
# sign*(start[g-1] - x - b) with x = cur[g-2] (0 for g = 1) and b the right
# entering color, is allowed.  limits[sign] is _jump_limits(n, sign).
def _can_close(
    limits: Limits,
    start: tuple[int, ...],
    cur: tuple[int, ...],
    checks: Iterable[tuple[int, int]],
) -> bool:
    for g, sign in checks:
        x = cur[g - 2] if g > 1 else 0
        y, z = cur[g - 1], cur[g]
        b = z - y
        if not 0 <= sign * (start[g - 1] - x - b) <= limits[sign][y - x][b]:
            return False
    return True


# Bounded: perfbench's corpus reads 84 distinct first layers in one process.
#
# A sweep's first layer: every start vector, by its prefix sums with position
# 0 at anchor, that passes the closing checks due before any letter, seeded
# with its closure weight t**(sum((2c - n)/2)) over the non-anchor colors c
# as one monomial (N = 1 at any K) and a count of 1.  Shared by every sweep
# with these arguments, so it must not be mutated.
@lru_cache(maxsize=128)
def _seed(
    strands: int, n: int, anchor: int, checks: tuple[tuple[int, int], ...]
) -> dict[Key, Entry]:
    limits = {sign: _jump_limits(n, sign) for _, sign in checks}
    layer: dict[Key, Entry] = {}
    for rest in product(range(n + 1), repeat=strands - 1):
        start = (*accumulate((anchor,) + rest),)
        if _can_close(limits, start, start, checks):
            quarter = sum(2 * (2 * c - n) for c in rest)
            layer[start, start, quarter & 3] = (quarter, 1, 1)
    return layer


def _sweep(
    word: BraidWord, n: int, table: Table, anchor: int
) -> tuple[LaurentQ, int]:
    """Sum the weights of every contributing state, one letter at a time,
    and count the states.

    A layer maps (start, cur, lowest exponent mod 4) to the summed weight
    of the partial states below it and their number.  start and cur are
    color vectors by their prefix sums (P_0, ..., P_{s-1}), position 0
    anchored at color anchor; any anchor gives the same value, through a
    different number of partial states (see the module docstring).  Each
    start vector is seeded with its closure weight t**(sum((2c - n)/2))
    over the non-anchor colors c, the same for both models.  A letter on
    generator g reads x, y, z = cur[g-2] (0 for g = 1), cur[g-1], cur[g],
    entering colors (a, b) = (y - x, z - y), and jump r rewrites cur[g-1]
    alone, to x + b + sign*r.  The table gives weights only; every jump
    it lists counts as a path, whatever its weight.  A value is carried
    Kronecker-packed as (lo, N) with one K-bit slot per power of t
    (qalgebra.pack); the residue in the key keeps values whose slots are
    offset by a fraction of a power apart.  A product is (lo + wlo, N * W)
    and a sum shifts the value with the higher lo up to the other.  An
    entry whose value cancels to 0 keeps its lo, its residue and its count.

    Exactness: every coefficient is bounded by the layer's summed L1 norm,
    which one letter multiplies by at most _growth, and K is one bit over
    that norm times the growth of the next REPACK_LETTERS letters.  The
    first chunk's norm is the start count (one monomial each, N = 1 at any
    K, so no re-pack); later ones decode the layer to take it.  Each
    residue's entries are summed packed, within the bound, and decoded once.
    The table's rows come packed at K, built as the weights' images at
    t = 2**K, which is what pack gives for weights that fit, as they do
    since K exceeds _growth.

    Pruning (see _closing_checks): the last letter on g must leave
    cur[g-1] at start[g-1], so its jump is sign*(start[g-1] - x - b).
    Right after the last letter that can change x, y or z (before any
    letter if there is none) an entry is dropped unless that jump is in
    0.._max_jump, and the last letter takes that jump alone.  Neither
    test drops an entry that can close, and every entry left closes.

    The first layer (_seed) and the table's rows (behind a dict per chunk)
    are cached per process, keyed as the module docstring says; the sweep
    only reads them.

    Returns the summed weight of the closed states and their number.
    """
    s = word.strands
    check_work(s, n)
    letters = word.letters
    last, early = _closing_checks(letters)
    limits = {sign: _jump_limits(n, sign) for checks in early for _, sign in checks}
    layer = _seed(s, n, anchor, tuple(early[0]))
    bound = len(layer)
    k = bound.bit_length() + 1
    for at in range(0, len(letters), REPACK_LETTERS):
        chunk = letters[at : at + REPACK_LETTERS]
        if at:
            values = {
                key: (unpack(lo, v, k), lo, c) for key, (lo, v, c) in layer.items()
            }
            bound = sum(value.l1_norm() for value, _, _ in values.values())
        for letter in chunk:
            bound *= _growth(table, n, 1 if letter > 0 else -1)
        k = bound.bit_length() + 1
        if at:
            layer = {
                key: pack(value, k) + (c,) if value else (lo, 0, c)
                for key, (value, lo, c) in values.items()
            }
        weights: dict[tuple[int, int, int], tuple[tuple[int, int, int], ...]] = {}
        for i, letter in enumerate(chunk, at):
            g = letter if letter > 0 else -letter
            sign = 1 if letter > 0 else -1
            closing = last[i]
            ahead = early[i + 1]
            nxt: dict[Key, Entry] = {}
            for (start, cur, _), (lo, v, c) in layer.items():
                x = cur[g - 2] if g > 1 else 0
                y, z = cur[g - 1], cur[g]
                a, b = y - x, z - y
                steps = weights.get((sign, a, b))
                if steps is None:
                    steps = weights[sign, a, b] = table(n, sign, a, b, k)
                if closing:
                    steps = (steps[sign * (start[g - 1] - x - b)],)
                head, tail = cur[: g - 1], cur[g:]
                for left, wlo, w in steps:
                    new = head + (x + left,) + tail
                    if ahead and not _can_close(limits, start, new, ahead):
                        continue
                    qlo = lo + wlo
                    key = (start, new, qlo & 3)
                    term = v * w
                    old = nxt.get(key)
                    if old is None:
                        nxt[key] = (qlo, term, c)
                        continue
                    olo, acc, oc = old
                    if olo <= qlo:
                        nxt[key] = (olo, acc + (term << (k * (qlo - olo) >> 2)), oc + c)
                    else:
                        nxt[key] = (qlo, term + (acc << (k * (olo - qlo) >> 2)), oc + c)
            layer = nxt
    closed: dict[int, list[tuple[int, int]]] = {}
    count = 0
    for (_, _, residue), (lo, v, c) in layer.items():
        closed.setdefault(residue, []).append((lo, v))
        count += c
    total = ZERO
    for entries in closed.values():
        base = min(lo for lo, _ in entries)
        packed = sum(v << (k * (lo - base) >> 2) for lo, v in entries)
        total = total + unpack(base, packed, k)
    return total, count


def state_count(b: BraidWord, n: int, convention: int) -> int:
    """Number of n-contributing states in the convention, anchored at 0 in
    its own colors and free strands included: the count the sweep carries
    (see _sweep) with weight 1 on every jump _max_jump allows, so that no
    weight is built.  Both tables read that one support, and the (+)
    convention's color 0 is the sweep's n."""
    if convention not in _TABLES:
        raise ValueError("convention must be +1 or -1")
    return _sweep(b, n, _unit_row, 0 if convention == MINUS else n)[1]


@lru_cache(maxsize=None)
def _certificate(gl_table: Table, rm_table: Table, n: int, sign: int) -> None:
    """Check the per-crossing correspondence (see the module docstring) on
    every entry of the two tables of this sign, or raise ModelMismatchError
    naming the first entry that breaks it, with both weights.  The jumps of
    the two tables are walked side by side: a jump one table lacks weighs 0
    there, and one past _max_jump breaks it.

    Both sides are compared as Kronecker-packed integer products, read
    straight from the tables' rows packed at _exact_k(n, sign), a K proved
    from the factors' L1 norms to fit every coefficient of either side;
    packed products of K-bit fitting values are equal exactly when the
    polynomials are.  The q-binomial products are packed once per pair.
    Weights are decoded only to print a failure.  Keyed on the tables, so
    a table swapped into _TABLES is checked afresh; a failure raises and
    so is never cached.
    """
    k = _exact_k(n, sign)
    binoms = [packed_qbinom(n, x, k) for x in range(n + 1)]
    pairs = {
        (x, y): (xlo + ylo, xn * yn)
        for (x, (xlo, xn)), (y, (ylo, yn)) in product(enumerate(binoms), repeat=2)
    }

    def broken(a: int, b: int, exit_: str, why: object) -> ModelMismatchError:
        return ModelMismatchError(
            f"models disagree at n={n}: sign {sign:+d} entry ({a}, {b}) -> "
            f"{exit_} breaks the correspondence: {why}"
        )

    for a in range(n + 1):
        for b in range(n + 1):
            try:
                gl, rm = gl_table(n, sign, a, b, k), rm_table(n, sign, a, b, k)
            except ArithmeticError as exc:
                # A weight with exponents in two classes mod 4 packs in no
                # row, and no weight of either model has them.
                raise broken(a, b, "any exit", exc) from exc
            top = _max_jump(n, sign, a, b)
            alo, an = pairs[a, b]
            for jump, (w, v) in enumerate(zip_longest(gl, rm, fillvalue=(0, 0, 0))):
                l, r = b + sign * jump, a - sign * jump
                (_, wlo, wn), (_, vlo, vn) = w, v
                if jump <= top:
                    llo, ln = pairs[l, r]
                    lhs, rhs = wn * an, vn * ln
                    shift = 2 * n * (a - l) - 2 * (l * r - a * b)
                    if lhs == rhs and (not lhs or wlo + alo == vlo + llo + shift):
                        continue
                w, v = unpack(wlo, wn, k), unpack(vlo, vn, k)
                raise broken(a, b, f"({l}, {r})", f"arc-transition {w} vs r-matrix {v}")


def certify_correspondence(n: int, signs: Iterable[int]) -> None:
    """Run the cached certificate (_certificate) on the vertex tables the
    sweeps read, for each of these crossing signs: every entry satisfying
    the per-crossing correspondence makes the two models' values equal on
    every word of those signs at color n.  The cost depends on n alone."""
    for sign in signs:
        _certificate(_TABLES[PLUS], _TABLES[MINUS], n, sign)


def _value_table(b: BraidWord, n: int, model: Model) -> Table:
    """The vertex table the model's value sweeps read, after the checks
    that colored_jones_framed describes."""
    if model not in ("rmatrix", "gl", "both"):
        raise ValueError(f"unknown model {model!r}")
    if model == "both":
        check_work(b.strands, n)
        certify_correspondence(
            n, [s for s in (1, -1) if any(s * k > 0 for k in b.letters)]
        )
    return _TABLES[PLUS if model == "gl" else MINUS]


def colored_jones_framed(b: BraidWord, n: int, model: Model = "both") -> LaurentQ:
    """The framed invariant of the braid closure at color n.

    "rmatrix" and "gl" sweep with that model's vertex table, anchored
    where the sweep is narrowest (see the module docstring).  "both"
    sweeps with the R-matrix table once and checks the arc-transition
    model by certify_correspondence on the signs in the word, which raises
    ModelMismatchError naming the first vertex-table entry that breaks the
    correspondence.  The certificate runs first, after the work check,
    so the sweep reads certified tables only.
    """
    table = _value_table(b, n, model)
    # A fixed anchor at n made perfbench's wide jobs 2.3x slower (CHANGES.md).
    first = next((k for k in b.letters if k in (1, -1)), 1)
    return _sweep(b, n, table, 0 if first > 0 else n)[0]


def framed_and_count(
    b: BraidWord, n: int, model: Model = "both"
) -> tuple[LaurentQ, int]:
    """colored_jones_framed(b, n, model) and state_count(b, n, convention)
    for the model's convention: (-) for "rmatrix", anchored at the sweep's
    0, and (+) otherwise, anchored at the sweep's n.

    That anchor is also the narrow one when the first generator-1 letter
    is positive for (-) and negative for (+), or there is none: then one
    value sweep there carries the count too.  When the last such letter
    has that sign, one sweep of the reversed word does, since reversal
    keeps the value and the count at every anchor (see the module
    docstring).  Otherwise the value sweeps at its narrow anchor and the
    count in its own unit-weight sweep, which costs less than a value
    sweep at the wide anchor.
    """
    convention, side = (MINUS, 1) if model == "rmatrix" else (PLUS, -1)
    ones = [k for k in b.letters if k in (1, -1)]
    # One sweep at the count's anchor instead, with no reversal or fallback,
    # took 1 2 -1 2 1 -2 -1 at n = 10 from 0.13 to 1.0 s (CHANGES.md).
    if ones and side not in (ones[0], ones[-1]):
        return colored_jones_framed(b, n, model), state_count(b, n, convention)
    if ones and ones[0] != side:
        b = BraidWord(b.strands, b.letters[::-1])
    return _sweep(b, n, _value_table(b, n, model), 0 if side > 0 else n)


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
    two classes signals a bug.  The value is never 0: at t = 1 it is
    (n+1)^(components-1).
    """
    value = colored_jones_unframed(b, n, "rmatrix")
    mu = b.component_count()
    expected = "integer" if n % 2 == 0 or mu % 2 == 1 else "half-integer"
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
