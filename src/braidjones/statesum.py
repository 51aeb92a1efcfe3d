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
K is proved large enough rather than guessed: every coefficient is
bounded by the layer's summed L1 norm, which one crossing multiplies by
at most the largest summed L1 norm of its weights, and the layer is
decoded and K sized afresh every REPACK_LETTERS letters so that K does
not grow with the word.  Requests whose first layer and vertex table
would exceed WORK_LIMIT are refused before anything is built.

The vertex tables build their rows already packed at the sweep's K.  Each
model has one descriptor (_rmatrix_shape, _gl_shape) giving every weight as
+-t**(lo/4) times a Gaussian binomial and a falling product, lo in closed
form, and one packer (_packer) builds either table's rows from it with the
two packed symbols of qalgebra, with no polynomial in between.
Substituting t -> 2**K is a ring homomorphism, so a row built at any K is
the image of its weights, and a layer's sums and products are the image of
the layer's value; only the values decoded need to fit their K-bit slots,
which the bound above proves.

Set-up that depends on the color, the table and K alone is cached per
process and shared by every sweep: packed rows (each table's, and _unit_row,
keyed on n, sign, entering colors and K; 4096 at most each) and the two
packed symbols both tables share (4096 at most each), first layers (_seed,
keyed on strands, n and anchor; 128 at most), jump limits (_jump_limits), and per n and sign each table's growth
(_growth), read from the slot magnitudes of its weights packed at
K = 2n + 2 (qalgebra.packed_l1).  K is still the exact proved bound, not
rounded to share rows.  Within a chunk, where K is fixed, the sweep holds
the rows it reads in a grid indexed by sign and entering colors, and a
weight packed as 1 (every jump-0 weight and every unit weight) skips its
product.

The sweep carries a color vector c by its prefix sums
P_j = c_0 + ... + c_j.  A crossing on generator g keeps c_{g-1} + c_g,
so of these it moves P_{g-1} alone, and a state closes exactly when
every P_{g-1} is back at its start value after the last letter on g.
By the flow rule that fixes the last letter's jump at
sign*(start[g-1] - x - b), with x = P_{g-2} (0 for g = 1) and b the
right entering color.  The last letter closes: it takes that jump alone,
and drops the entry when the jump is not in 0.._max_jump.  So every
entry left after the last letter is closed, and no contributing state
is lost.  Early tests only prune.  Most partial states can never close
up, and the same test, run right after the last earlier letter on
generators g-1, g or g+1 (the only letters that change its inputs
P_{g-2}, P_{g-1} and P_g), drops them there; at most one test follows a
letter (_closing_checks).  The sweep keys an entry by its start and
current prefix sums as bit fields of one int: P_j of cur at bit j*width
and of start at (s + j)*width for s strands, with
width = (s*n).bit_length() since no P_j exceeds s*n.

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
from typing import Callable, Iterable, Literal

from .braid import BraidWord
from .qalgebra import (
    LaurentQ,
    pack,
    packed_falling,
    packed_gauss,
    packed_l1,
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
# by (a, b) allows, the left color b + sign*r it leaves and its weight packed
# at K as (lo, N) (qalgebra.pack).  A vertex table maps (n, sign, a, b, K)
# to that row.
Row = tuple[tuple[int, int, int], ...]
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
            steps.append((b + sign * r, lo, -w if s < 0 else w))
        return tuple(steps)

    return row


_rmatrix_row = _packer(_rmatrix_shape)
_gl_row = _packer(_gl_shape)


@lru_cache(maxsize=4096)
def _unit_row(n: int, sign: int, a: int, b: int, k: int) -> Row:
    # The support both tables share, with unit weights: for counting.
    return tuple((b + sign * r, 0, 1) for r in range(_max_jump(n, sign, a, b) + 1))


# Each convention's model, by its descriptor: the value sweeps read its
# packed table and the certificate the descriptor itself.
_TABLES: dict[int, Descriptor] = {MINUS: _rmatrix_shape, PLUS: _gl_shape}

# Letters swept between two re-packs of the layer (see _sweep).  Never
# re-packing made T(2,40) at n = 8 1.6-2.2x slower (CHANGES.md).
REPACK_LETTERS = 32


@lru_cache(maxsize=None)
def _growth(table: Table, n: int, sign: int) -> int:
    """The most one crossing can multiply a layer's summed L1 norm by: the
    largest summed L1 norm of its weights over the entering colors, each
    read slot by slot (packed_l1) from its row packed at K = 2n + 2.  Every
    coefficient of a model weight is at most C(A, B) * 2**r <= 2**(2n),
    with A, r <= n, so it fits those slots."""
    k = 2 * n + 2
    return max(
        sum(packed_l1(w, k) for _, _, w in table(n, sign, a, b, k))
        for a in range(n + 1)
        for b in range(n + 1)
    )


def _closing_checks(
    letters: tuple[int, ...],
) -> tuple[list[bool], list[tuple[int, int] | None]]:
    """Where the sweep closes each generator and where it prunes early
    (see the module docstring).

    Returns (last, after).  last[i] tells whether letter i is the last on
    its generator g, which must then leave the prefix sum cur[g-1] at
    start[g-1].  after[i] is the (g, sign) of a last letter whose inputs
    cur[g-2], cur[g-1] and cur[g] are final once letter i is swept (only
    letters on generators g-1, g and g+1 change them), or None.  At most
    one test follows a letter, the one whose last letter comes later, and
    none precedes the first.
    """
    last = [False] * len(letters)
    after: list[tuple[int, int] | None] = [None] * len(letters)
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
            if m and after[m - 1] is None:
                after[m - 1] = (g, 1 if letters[i] > 0 else -1)
    return last, after


# (lo, N, count): a value Kronecker-packed as in qalgebra.pack, and the
# number of partial states summed into it.  Keyed by (start, cur), which fix
# lo mod 4 (see the module docstring), as bit fields of one int (_sweep).
Entry = tuple[int, int, int]
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


# _max_jump(n, sign, a, b) as limits[a][b], for the early tests.  Read after
# check_work, which bounds n, so the cache stays small.
@lru_cache(maxsize=None)
def _jump_limits(n: int, sign: int) -> tuple[tuple[int, ...], ...]:
    colors = range(n + 1)
    return tuple(tuple([_max_jump(n, sign, a, b) for b in colors]) for a in colors)


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
        layer[half << (strands * width) | half] = (quarter, 1, 1)
    return layer


def _sweep(
    word: BraidWord, n: int, table: Table, anchor: int
) -> tuple[LaurentQ, int]:
    """Sum the weights of the contributing states of word at color n and
    count them, with position 0 of every color vector anchored at color
    anchor (see the module docstring).

    table(n, sign, a, b, K) gives each crossing's row packed at the sweep's
    K; every jump it lists counts as a path, whatever its weight.  Returns
    the summed weight of the closed states and their number.  Raises
    ArithmeticError when partial states of two exponent classes mod 4 meet
    in one key, naming the key decoded to its (start, cur) prefix sums, or
    when the closed states fall in two classes: a table that breaks the
    exponent-class law.
    """
    s = word.strands
    check_work(s, n)
    letters = word.letters
    last, after = _closing_checks(letters)
    layer = _seed(s, n, anchor)
    width = _width(s, n)
    mask = (1 << width) - 1
    # The first chunk's L1 norm is the start count: one monomial each, N = 1
    # at any K, so no re-pack.
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
        # rows[sign][a][b]: the row entered by (a, b), read once per chunk.
        rows: dict[int, list[list[Row | None]]] = {
            sign: [[None] * (n + 1) for _ in range(n + 1)] for sign in (1, -1)
        }
        for i, letter in enumerate(chunk, at):
            g = letter if letter > 0 else -letter
            sign = 1 if letter > 0 else -1
            grid = rows[sign]
            closing = last[i]
            # Offsets of cur[g-1], cur[g], start[g-1] and cur[g-2] (0 when g = 1).
            shift = (g - 1) * width
            zshift, sshift = shift + width, shift + s * width
            xshift, xmask = (shift - width, mask) if g > 1 else (0, 0)
            # The early test on h due after this letter, if any (h = 0 if
            # none); the letter moves its input at index moved of (x2, y2, z2).
            h, hsign = after[i] or (0, 0)
            hlimits = _jump_limits(n, hsign) if h else ()
            hshift = (h - 1) * width
            hxshift, hxmask = (hshift - width, mask) if h > 1 else (0, 0)
            hsshift, moved = hshift + s * width, g - h + 1
            nxt: dict[Key, Entry] = {}
            for key, (lo, v, c) in layer.items():
                x = key >> xshift & xmask
                y = key >> shift & mask
                a, b = y - x, (key >> zshift & mask) - y
                steps = grid[a][b]
                if steps is None:
                    steps = grid[a][b] = table(n, sign, a, b, k)
                if closing:
                    # The one jump that brings cur[g-1] back to start[g-1].
                    r = sign * ((key >> sshift & mask) - x - b)
                    steps = (steps[r],) if 0 <= r < len(steps) else ()
                # The key with cur[g-1] at x; a jump adds its left color.
                base = key - (a << shift)
                if h:
                    hstart = key >> hsshift & mask
                    inputs = [
                        key >> hxshift & hxmask,
                        key >> hshift & mask,
                        key >> (hshift + width) & mask,
                    ]
                for left, wlo, w in steps:
                    new = base + (left << shift)
                    if h:
                        inputs[moved] = x + left
                        x2, y2, z2 = inputs
                        b2 = z2 - y2
                        jump = hsign * (hstart - x2 - b2)
                        if not 0 <= jump <= hlimits[y2 - x2][b2]:
                            continue
                    qlo = lo + wlo
                    # Every jump-0 weight, and every unit-table weight, is 1.
                    term = v if w == 1 else v * w
                    old = nxt.get(new)
                    if old is None:
                        nxt[new] = (qlo, term, c)
                        continue
                    olo, acc, oc = old
                    if (qlo - olo) & 3:
                        where = _decode(new, s, width)
                        raise ArithmeticError(f"exponent classes mod 4 meet at {where}")
                    if olo <= qlo:
                        nxt[new] = (olo, acc + (term << (k * (qlo - olo) >> 2)), oc + c)
                    else:
                        nxt[new] = (qlo, term + (acc << (k * (olo - qlo) >> 2)), oc + c)
            layer = nxt
    base = min((lo for lo, _, _ in layer.values()), default=0)
    packed = count = 0
    for lo, v, c in layer.values():
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
