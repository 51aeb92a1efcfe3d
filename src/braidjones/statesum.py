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
shift and add.  That needs the summed values' lowest quarter exponents
lo to agree mod 4, and the flow rule fixes their class.  A weight of sign e
taking color vector c to c' has lo = Phi(c') - Phi(c) - e*n^2 (mod 4),
with Phi(c) = sum c_p^2 + 2n sum p*c_p for the R-matrix table and
-2 sum c_p(n - c_p), which a crossing moves by a multiple of 4, for the
arc-transition one; unit weights have lo = 0 (README derives it).  So a
partial state's class depends on its start and current colors alone, and
every closed state has one class: the layer is keyed by those colors, and
with a table that broke the law the sweep raises ArithmeticError where two
classes meet.
K is guessed, and proved where values decode.  Each row step carries a
bound on its weight's L1 norm (C(A, B) * 2**r for a model weight, 1 for a
unit one), and each layer entry B, the sum over its partial states of the
product of their bounds, which bounds its coefficients.  The letters are
swept in spans, each at one K, guessed (_first_k) for the next
GUESS_LETTERS letters from the span's first layer: its summed B grown by
n bits a letter, or by what the last span grew a letter if more.  A
letter's layer is kept only if its summed B fits a K-bit slot, which
proves that every value decodes and so does the closed layer's packed
sum.  A span ends only where a letter outgrows K: that letter is swept
again in a new span, after a re-pack that decodes each value and resets
its B to its L1 norm, or at a K that fits it when it was the span's
first.  So the guess sets the cost, never the value.  Requests whose
first layer and vertex table would exceed WORK_LIMIT are refused before
anything is built.

The vertex tables build their rows already packed at the sweep's K.  Each
model has one descriptor (_rmatrix_shape, _gl_shape) giving every weight as
+-t**(lo/4) times a Gaussian binomial and a falling product, lo in closed
form, and one packer (_packer) builds either table's rows from it with the
two packed symbols of qalgebra, with no polynomial in between.
Substituting t -> 2**K is a ring homomorphism, so a row built at any K is
the image of its weights, and a layer's sums and products are the image of
the layer's value; only the values decoded need to fit their K-bit slots,
which the bounds above prove.

Set-up that depends on the color, the table and K alone is cached per
process and shared by every sweep: packed rows (each table's, and
_unit_row, keyed on n, sign, entering colors and K; 4096 at most each),
the two packed symbols both tables share (4096 at most each) and first
layers (_seed, keyed on strands, n and anchor; 128 at most).  Rows are
packed only at the K a span sweeps at, which is not rounded to share
them.  Within a span, where K is fixed, the sweep holds the rows it reads
in a grid indexed by sign and entering colors, and a weight packed as 1
(every jump-0 weight and every unit weight) skips its product and its
bound's.

The sweep carries a color vector c by its prefix sums
P_j = c_0 + ... + c_j.  A crossing on generator g keeps c_{g-1} + c_g,
so of these it moves P_{g-1} alone, to x + l with x = P_{g-2} (0 for
g = 1) and l the left color it leaves, and a state closes exactly when
every P_{g-1} is back at its start value after the last letter on g.  By
the flow rule that fixes the last letter's jump at
sign*(start[g-1] - x - b), with b the right entering color.  The last
letter closes: it takes that jump alone, and drops the entry when the
jump is not in 0.._max_jump.  So every entry left after the last letter
is closed, and no contributing state is lost.  Early tests only prune.
Most partial states can never close up, and the same test, run right
after the last earlier letter on generators g-1, g or g+1 (the only
letters that change its inputs P_{g-2}, P_{g-1} and P_g), drops them
there; at most one test follows a letter (_closing_checks).  The sweep
keys an entry by its start and current prefix sums as bit fields of one
int: P_j of cur at bit j*width and of start at (s + j)*width for s
strands, with width = (s*n).bit_length() since no P_j exceeds s*n.

The test needs no lookup.  For the last letter on h, of sign e, with
S = start[h-1] and inputs (x2, y2, z2) = (P_{h-2}, P_{h-1}, P_h), entered
by a2 = y2 - x2 and b2 = z2 - y2, the closing jump r = e*(S - x2 - b2)
lies in 0.._max_jump exactly when

    e > 0:  z2 >= S,  x2 >= S - n,  y2 >= x2 + z2 - S
    e < 0:  x2 <= S,  z2 <= S + n,  y2 <= x2 + z2 - S.

For e > 0, r <= a2 is the first, r <= n - b2 the second and r >= 0 the
third; for e < 0, r <= b2, r <= n - a2 and r >= 0 are the same three on
(-z2, -y2, -x2, -S).  The letter the test follows moves exactly one input,
P_{g-1}, to x + l: it is x2, y2 or z2 as h = g+1, g or g-1.  So once per
entry the sweep drops the entry when an inequality without l fails, and
otherwise solves the rest for l, which leaves llo <= l <= lhi, one chained
comparison per jump.

The sweep takes the letters in the order _closing_checks gives, not as
written.  Letters on generators two or more apart cross disjoint strands,
so swapping two such neighbours maps each state to the one in which every
crossing is entered by the same colors and takes the same jump: the same
weights, the same closure colors, so the same anchored arc, and the same
count and value (any linear extension of the word's heap of pieces will
do; Cartier and Foata).  A last letter drops every entry that cannot
close on its generator, so each one moves down past the letters just
below it on generators two or more apart, the only ones it can pass.  It
stops at another generator's last letter, so the last letters keep their
order, and at a letter that an early test of the word as written follows:
moving past those made some random words sweep more entries (CHANGES.md).
The early tests are then placed on the order swept.

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
descriptors of each crossing sign in the word, once per color, sign and
pair of descriptors in a process, and raises ModelMismatchError naming the
first entry that breaks it.  Each side of the identity is a sign, a
monomial and a product of factors 1 - t**m, compared by their exponents in
small integers (_certificate), with no row built and no product; the rows
the sweep reads are the descriptors' images by construction.  Its cost
depends on n alone.  It reads every entry of those signs, where a second
sweep read only the entries its states reach; --model gl still sweeps the
other table.  The enumeration state sums (states.state_sum) remain the
independent reference: they weigh every contributing state in each
model's own convention, with weights written apart from the packed
tables, at a cost exponential in the crossing count, and only the tests
call them.  The reference imports this module, and this module loads it
only through __getattr__, so no value request loads it.  --states count
is state_count's sweep, and --states dump lists the states
(states.enumerate_states) without weighing them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, product
from math import comb
from operator import itemgetter
from typing import Callable, Iterable, Literal

from .braid import BraidWord
from .qalgebra import (
    LaurentQ,
    pack,
    packed_falling,
    packed_gauss,
    unpack,
)

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
    """Raise TypeError when the color n is not an int (a bool is not), and
    ValueError when it is below 1 or a request at color n on this many
    strands exceeds WORK_LIMIT."""
    if type(n) is not int:
        raise TypeError(f"color {n!r} is not an int")
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


# A row of a vertex table: for each jump r = 0.._max_jump a crossing entered
# by (a, b) allows, the left color b + sign*r it leaves, its weight packed
# at K as (lo, N) (qalgebra.pack) and a bound on the weight's L1 norm.  A
# vertex table maps (n, sign, a, b, K) to that row.
Row = tuple[tuple[int, int, int, int], ...]
Table = Callable[[int, int, int, int, int], Row]
# A model weight (s, lo, A, B, m, r): s*t**(lo/4) times the Gaussian binomial
# [A, B]_t and the falling product (1 - t**m)...(1 - t**(m-r+1)), with s = +-1,
# 0 <= B <= A and 0 <= r <= m.  A model's descriptor maps (n, sign, a, b,
# jump) to the weight of that entry.
Shape = tuple[int, int, int, int, int, int]
Descriptor = Callable[[int, int, int, int, int], Shape]


def _max_jump(n: int, sign: int, a: int, b: int) -> int:
    """The largest jump of a crossing entered by (a, b) (the flow rule)."""
    return min(a, n - b) if sign > 0 else min(b, n - a)


# The two models' descriptors, with lo in closed form (README "Packed values
# and caches").  Written apart from the reference's weights
# (states._rmatrix_vertex and _gl_vertex), so the sweep and the reference
# weigh with independent code.
def _rmatrix_shape(n: int, sign: int, i: int, j: int, r: int) -> Shape:
    if sign > 0:
        lo = -(n - 2 * i) * (n - 2 * j) - 2 * r * (n + r - i + j)
        return 1, lo, j + r, r, n + r - i, r
    lo = (n - 2 * i - 2 * r) * (n - 2 * j + 2 * r) - 2 * r * (n + 1 + i - j)
    return -1 if r % 2 else 1, lo, i + r, r, n + r - j, r


def _gl_shape(n: int, sign: int, a: int, b: int, r: int) -> Shape:
    # Read in the R-matrix frame, where the model's own colors are n minus
    # the sweep's: tld enters on the overpass and the underpass strand
    # leaves with i = under - r.  [under, i] = [under, r] by symmetry.
    tld, under = (n - a, n - b) if sign > 0 else (n - b, n - a)
    i = under - r
    lo = sign * (4 * n * i - 4 * i * tld - n * n)
    if sign > 0:
        return 1, lo - 4 * i * r, under, r, n - tld, r
    lo += 2 * r * (r - 1) - 4 * r * (n - tld)
    return -1 if r % 2 else 1, lo, under, r, n - tld, r


# The one packer: the table whose rows hold a descriptor's weights, each
# packed at K from the two packed symbols (qalgebra) with no polynomial in
# between.  One table per descriptor, so a model's table is one object; its
# rows are cached per K, bounded as the symbols are.
@lru_cache(maxsize=None)
def _packer(shape: Descriptor) -> Table:
    @lru_cache(maxsize=4096)
    def row(n: int, sign: int, a: int, b: int, k: int) -> Row:
        steps = []
        for r in range(_max_jump(n, sign, a, b) + 1):
            s, lo, top, bottom, m, length = shape(n, sign, a, b, r)
            w = packed_gauss(top, bottom, k) * packed_falling(m, length, k)
            bound = comb(top, bottom) << length
            steps.append((b + sign * r, lo, -w if s < 0 else w, bound))
        return tuple(steps)

    return row


_rmatrix_row = _packer(_rmatrix_shape)
_gl_row = _packer(_gl_shape)


@lru_cache(maxsize=4096)
def _unit_row(n: int, sign: int, a: int, b: int, k: int) -> Row:
    # The support both tables share, with unit weights: for counting.
    return tuple((b + sign * r, 0, 1, 1) for r in range(_max_jump(n, sign, a, b) + 1))


# Each convention's model, by its descriptor: the value sweeps read its
# packed table and the certificate the descriptor itself.
_TABLES: dict[int, Descriptor] = {MINUS: _rmatrix_shape, PLUS: _gl_shape}

# How many letters ahead a span's guess of K covers (_first_k).  It sets no
# re-pack: a span ends only where a layer outgrows K (see _sweep).  A guess
# for the whole word, which holds every product at the word's widest K,
# made T(2,100) at n = 4 1.7-2x and T(2,40) at n = 8 1.2-1.4x slower
# (CHANGES.md).
GUESS_LETTERS = 32


def _closing_checks(
    letters: tuple[int, ...],
) -> tuple[tuple[int, ...], list[bool], list[tuple[int, int] | None]]:
    """The order the sweep takes the letters in, where it closes each
    generator and where it prunes early (see the module docstring).

    Returns (order, last, after).  order is letters with each generator's
    last letter moved down past the letters just below it on generators
    two or more apart, which cross disjoint strands; it stops at another
    generator's last letter and at a letter that an early test of the
    word as written follows.  order is letters itself when nothing moves,
    as on three strands or fewer, which have no such pair.  last[i] tells
    whether letter i of order is the last on its generator g, which must
    then leave the prefix sum cur[g-1] at start[g-1].  after[i] is the
    (g, sign) of a last letter whose inputs cur[g-2], cur[g-1] and cur[g]
    are final once letter i of order is swept (only letters on generators
    g-1, g and g+1 change them), or None.  At most one test follows a
    letter, the one whose last letter comes later, and none precedes the
    first.
    """
    order, slide = letters, True
    while True:
        last = [False] * len(order)
        after: list[tuple[int, int] | None] = [None] * len(order)
        later: set[int] = set()
        swept: list[int] | None = None
        for i in reversed(range(len(order))):
            g = abs(order[i])
            if g not in later:
                later.add(g)
                last[i] = True
                # Slide the letter down to m.  The first letter below whose
                # generator is not in later is that generator's last letter.
                m = i
                while slide and m and abs(order[m - 1]) in later:
                    if abs(abs(order[m - 1]) - g) < 2 or after[m - 1]:
                        break
                    m -= 1
                if m < i:
                    if swept is None:
                        swept = list(order)
                    swept[m : i + 1] = (order[i],) + order[m:i]
                # Testing at the last letter only made perfbench's wide jobs
                # 2x slower (CHANGES.md).
                while m and abs(abs(order[m - 1]) - g) > 1:
                    m -= 1
                if m and after[m - 1] is None:
                    after[m - 1] = (g, 1 if order[i] > 0 else -1)
        if swept is None:
            return order, last, after
        # The early tests of the swept order, which nothing moves again.
        order, slide = tuple(swept), False


# (lo, N, count, B): a value Kronecker-packed as in qalgebra.pack, the
# number of partial states summed into it and a bound on its coefficients
# (see the module docstring).  Keyed by (start, cur), which fix lo mod 4,
# as bit fields of one int (_sweep).
Entry = tuple[int, int, int, int]
Key = int


def _width(strands: int, n: int) -> int:
    """Bits per field of a layer key: every prefix sum is at most strands*n."""
    return (strands * n).bit_length()


def _decode(
    key: Key, strands: int, width: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (start, cur) prefix-sum vectors a layer key holds."""
    mask = (1 << width) - 1
    fields = [key >> (j * width) & mask for j in range(2 * strands)]
    return tuple(fields[strands:]), tuple(fields[:strands])


# Bounded: perfbench's corpus reads 18 distinct first layers in one process.
#
# A sweep's first layer: every start vector, by its prefix sums with position
# 0 at anchor, keyed with cur = start, seeded with its closure weight
# t**(sum((2c - n)/2)) over the non-anchor colors c as one monomial (N = 1 at
# any K) and a count of 1.  Shared by every sweep with these arguments, so it
# must not be mutated.
@lru_cache(maxsize=128)
def _seed(strands: int, n: int, anchor: int) -> dict[Key, Entry]:
    width = _width(strands, n)
    layer: dict[Key, Entry] = {}
    for rest in product(range(n + 1), repeat=strands - 1):
        half = 0
        for p in reversed((*accumulate((anchor,) + rest),)):
            half = half << width | p
        quarter = sum(2 * (2 * c - n) for c in rest)
        layer[half << (strands * width) | half] = (quarter, 1, 1, 1)
    return layer


# The bound of a layer entry, or the L1 norm of a decoded one.
_BOUND = itemgetter(3)


def _first_k(bits: int, rate: int, ahead: tuple[int, ...]) -> int:
    # A span's K: its first layer's summed bound, of this many bits, grown
    # by rate bits a letter over the letters ahead that the guess covers.
    return bits + 1 + rate * len(ahead)


def _sweep(
    word: BraidWord, n: int, table: Table, anchor: int
) -> tuple[LaurentQ, int]:
    """Sum the weights of the contributing states of word at color n and
    count them, with position 0 of every color vector anchored at color
    anchor (see the module docstring).

    table(n, sign, a, b, K) gives each crossing's row packed at K, with
    each weight's L1 bound; every jump it lists counts as a path, whatever
    its weight.  Returns the summed weight of the closed states and their
    number, whatever K was guessed.  Raises ArithmeticError when partial
    states of two exponent classes mod 4 meet in one key, naming the key
    decoded to its (start, cur) prefix sums, or when the closed states fall
    in two classes: a table that breaks the exponent-class law.

    The letters go in spans at one K each, and a span ends only where a
    letter's layer outgrows its K (see the module docstring).
    """
    s = word.strands
    check_work(s, n)
    letters, last, after = _closing_checks(word.letters)
    layer = _seed(s, n, anchor)
    width = _width(s, n)
    mask = (1 << width) - 1
    # The span's first layer decoded (None for the seed: monomials, N = 1
    # at any K, of bound 1) and its summed bound; least holds that layer,
    # or the first letter when it is swept again.
    values: dict[Key, tuple[LaurentQ, int, int, int]] | None = None
    total, rate, at = len(layer), n, 0
    least = total.bit_length() + 1
    while True:
        bits = total.bit_length()
        k = max(_first_k(bits, rate, letters[at : at + GUESS_LETTERS]), least)
        if values is not None:
            layer = {
                key: pack(value, k) + (c, l1) if value else (lo, 0, c, 0)
                for key, (value, lo, c, l1) in values.items()
            }
        # rows[sign][a][b]: the row entered by (a, b), read once per span.
        rows: dict[int, list[list[Row | None]]] = {
            sign: [[None] * (n + 1) for _ in range(n + 1)] for sign in (1, -1)
        }
        for i in range(at, len(letters)):
            letter = letters[i]
            g = letter if letter > 0 else -letter
            sign = 1 if letter > 0 else -1
            grid = rows[sign]
            closing = last[i]
            # Offsets of cur[g-1], cur[g], start[g-1] and cur[g-2] (0 when g = 1).
            shift = (g - 1) * width
            zshift, sshift = shift + width, shift + s * width
            xshift, xmask = (shift - width, mask) if g > 1 else (0, 0)
            # The early test on h due after this letter, if any (h = 0 if
            # none), as bounds on the left color (see the module docstring):
            # case +-1, +-2 or +-3, signed as the test, when the letter moves
            # its P_{h-2}, P_{h-1} or P_h (h = g+1, g or g-1).  Besides x, y
            # and z it reads home = start[h-1] and far = cur[g+1] or cur[g-3]
            # (0 if g < 3), the input of the three that is not x, y or z.
            h, hsign = after[i] or (0, 0)
            case, hsshift = hsign * (g - h + 2), (h - 1 + s) * width
            f = g + 1 if h > g else g - 3
            fshift, fmask = (f * width, mask) if f >= 0 else (0, 0)
            nxt: dict[Key, Entry] = {}
            for key, (lo, v, c, bound) in layer.items():
                x = key >> xshift & xmask
                y = key >> shift & mask
                z = key >> zshift & mask
                if h:
                    home = key >> hsshift & mask
                    far = key >> fshift & fmask
                    if case == 1:
                        keep, llo, lhi = far >= home, home - n - x, home + z - far - x
                    elif case == 2:
                        keep, llo, lhi = z >= home and x >= home - n, z - home, n
                    elif case == 3:
                        keep, llo, lhi = far >= home - n, home - x, home - far
                    elif case == -1:
                        keep, llo, lhi = far <= home + n, home + z - far - x, home - x
                    elif case == -2:
                        keep, llo, lhi = x <= home and z <= home + n, 0, z - home
                    else:
                        keep, llo, lhi = far <= home, home - far, home + n - x
                    if not keep:
                        continue
                a, b = y - x, z - y
                steps = grid[a][b]
                if steps is None:
                    steps = grid[a][b] = table(n, sign, a, b, k)
                if closing:
                    # The one jump that brings cur[g-1] back to start[g-1].
                    r = sign * ((key >> sshift & mask) - x - b)
                    steps = (steps[r],) if 0 <= r < len(steps) else ()
                # The key with cur[g-1] at x; a jump adds its left color.
                base = key - (a << shift)
                for left, wlo, w, wbound in steps:
                    if h and not llo <= left <= lhi:
                        continue
                    new = base + (left << shift)
                    qlo = lo + wlo
                    # Every jump-0 weight, and every unit-table weight, is 1.
                    if w == 1:
                        term, tbound = v, bound
                    else:
                        term, tbound = v * w, bound * wbound
                    old = nxt.get(new)
                    if old is None:
                        nxt[new] = (qlo, term, c, tbound)
                        continue
                    olo, acc, oc, ob = old
                    if (qlo - olo) & 3:
                        where = _decode(new, s, width)
                        raise ArithmeticError(f"exponent classes mod 4 meet at {where}")
                    if olo <= qlo:
                        acc += term << (k * (qlo - olo) >> 2)
                    else:
                        olo, acc = qlo, term + (acc << (k * (olo - qlo) >> 2))
                    nxt[new] = (olo, acc, oc + c, ob + tbound)
            peak = sum(map(_BOUND, nxt.values())).bit_length()
            if peak >= k:
                break
            layer = nxt
        else:
            break
        # The letter that outgrew K starts the next span.
        rate = max(n, -((bits - peak) // (i - at + 1)))
        if i > at:
            # Each value decodes at K; its L1 norm is its bound from here on.
            values = {}
            for key, (lo, v, c, _) in layer.items():
                value = unpack(lo, v, k)
                values[key] = (value, lo, c, value.l1_norm())
            total = sum(map(_BOUND, values.values()))
            least = total.bit_length() + 1
        else:
            least = peak + 1
        at = i
    base = min((lo for lo, _, _, _ in layer.values()), default=0)
    packed = count = 0
    for lo, v, c, _ in layer.values():
        if (lo - base) & 3:
            raise ArithmeticError("closed states in two exponent classes mod 4")
        packed += v << (k * (lo - base) >> 2)
        count += c
    return unpack(base, packed, k), count


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
def _certificate(gl: Descriptor, rm: Descriptor, n: int, sign: int) -> None:
    """Check the per-crossing correspondence (see the module docstring) on
    every entry of the two descriptors of this sign, or raise
    ModelMismatchError naming the first entry that breaks it, with both
    weights.

    With [n, x] = t**(-x(n-x)/2) [n, x]_t, each side is a sign, a monomial
    and a product of factors (1 - t**m)**e_m: [A, B]_t adds 1 to e_m on
    [A-B+1, A] and -1 on [1, B], and the falling product (m, r) adds 1 on
    [m-r+1, m].  1 - t**m is the first of 1 - t, 1 - t**2, ... that the
    cyclotomic polynomial Phi_m divides, so no such product with nonzero
    exponents is a monomial: the sides are equal exactly when their signs,
    lo and e agree, a proof in small integers with no product.  Weights are
    decoded only to print a failure.  Keyed on the descriptors, so one
    swapped into _TABLES is checked afresh; a failure raises and so is
    never cached.
    """
    # e as one int: an interval [u, v] adds 256**v - 256**(u-1), so the int
    # is the sum of (e_j - e_(j+1)) 256**j, whose digits, each far below 128
    # in size, fix e.
    def side(shape: Shape, lo: int, e: int) -> tuple[int, int, int] | None:
        s, wlo, top, bottom, m, r = shape
        if s not in (1, -1) or not 0 <= bottom <= top or not 0 <= r <= m:
            return None
        e += (1 << 8 * top) - (1 << 8 * (top - bottom)) - (1 << 8 * bottom) + 1
        return s, wlo + lo, e + (1 << 8 * m) - (1 << 8 * (m - r))

    # The weight as a LaurentQ, for a failure report.  Every coefficient is
    # at most C(A, B) * 2**r <= 2**(A + r), so K = A + r + 2 holds it.
    def decoded(shape: Shape) -> object:
        if side(shape, 0, 0) is None:
            return f"no weight {shape}"
        s, lo, top, bottom, m, r = shape
        k = top + r + 2
        return unpack(lo, s * packed_gauss(top, bottom, k) * packed_falling(m, r, k), k)

    # [n, x] as (lo, e).
    binoms = [
        (-2 * x * (n - x), (1 << 8 * n) - (1 << 8 * (n - x)) - (1 << 8 * x) + 1)
        for x in range(n + 1)
    ]
    for a in range(n + 1):
        for b in range(n + 1):
            (alo, ae), (blo, be) = binoms[a], binoms[b]
            for jump in range(_max_jump(n, sign, a, b) + 1):
                l, r = b + sign * jump, a - sign * jump
                w, v = gl(n, sign, a, b, jump), rm(n, sign, a, b, jump)
                (llo, le), (rlo, rte) = binoms[l], binoms[r]
                shift = 2 * n * (a - l) - 2 * (l * r - a * b)
                lhs = side(w, alo + blo, ae + be)
                if lhs is not None and lhs == side(v, llo + rlo + shift, le + rte):
                    continue
                raise ModelMismatchError(
                    f"models disagree at n={n}: sign {sign:+d} entry ({a}, {b}) -> "
                    f"({l}, {r}) breaks the correspondence: "
                    f"arc-transition {decoded(w)} vs r-matrix {decoded(v)}"
                )


def certify_correspondence(n: int, signs: Iterable[int]) -> None:
    """Run the cached certificate (_certificate) on the descriptors the
    sweeps' tables are packed from, for each of these crossing signs: every
    entry satisfying the per-crossing correspondence makes the two models'
    values equal on every word of those signs at color n.  The cost
    depends on n alone."""
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
    return _packer(_TABLES[PLUS if model == "gl" else MINUS])


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


def __getattr__(name: str):
    # perfbench/tracing.py hooks the reference's two state weights here.
    if name in ("rmatrix_contribution", "gl_contribution"):
        from . import states

        return getattr(states, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
