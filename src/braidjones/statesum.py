"""Exact evaluation of the two state models for colored Jones polynomials.

Both models sum a per-state product of local crossing weights over the
contributing states of a braid closure diagram, with the first strand's
closure arc anchored to color 0.  Colors are conserved at every crossing
(the two outgoing colors sum to the two incoming ones) and each weight
depends only on a crossing's two entering colors and its jump, so each
state sum is a partial quantum trace.  Values come from one sweep over
the braid letters, bottom to top, shared by both models: the models
differ only in a per-crossing vertex table and a closure weight.

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

model="both" sweeps with both tables and insists the totals agree.  The
enumeration state sums (state_sum) remain the independent reference:
they list every contributing state and weigh it, at a cost exponential
in the crossing count, and serve --states, the mismatch report and the
tests.  There, strands without crossings are split unknot factors folded
into a closed-form quantum integer [n+1] per strand.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import product
from typing import Callable, Literal

from .braid import BraidWord
from .diagram import Diagram, build
from .qalgebra import (
    ONE,
    LaurentQ,
    pochhammer,
    pochhammer_signed,
    qbinom,
    qbinom_signed,
    qint,
)
from .states import MINUS, PLUS, Potential, StateColors, enumerate_states, flow_bijection

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
    skip_positions: frozenset[int] = frozenset(),
) -> LaurentQ:
    """Weight of one (-)-state, closure prefactor included."""
    quarter = 0
    for pos in range(1, d.strands):
        if pos not in skip_positions:
            quarter += 2 * (-n + 2 * colors.closure[pos])
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
    skip_positions: frozenset[int] = frozenset(),
) -> LaurentQ:
    """Weight of one (+)-state, excess and rotation included but not the
    global writhe prefactor."""
    exc = 0
    value = ONE
    for c, cr in enumerate(d.crossings):
        i, tld = colors.i[c], colors.tilde[c]
        exc += cr.sign * i * tld
        value = value * _gl_vertex(n, cr.sign, i, p.jumps[c], tld)
    rot = sum(
        colors.closure[pos]
        for pos in range(1, d.strands)
        if pos not in skip_positions
    )
    return value * LaurentQ.t_quarter(-4 * (exc + rot))


def _folded_components(d: Diagram) -> frozenset[int]:
    return frozenset(
        l
        for l, cyc in enumerate(d.components)
        if l > 0 and not d.steps[l] and cyc[0] in d.free_positions
    )


def gl_writhe_prefactor_quarter(d: Diagram, n: int, folded: int) -> int:
    """Exponent (in quarter units) of the global (+)-model prefactor."""
    return -n * n * d.braid.writhe + 2 * n * (d.strands - 1 - folded)


def state_sum(d: Diagram, n: int, convention: int) -> LaurentQ:
    """The model's state sum by enumerating and weighing every
    contributing state: the reference for the sweep."""
    folded_comps = _folded_components(d)
    skip = frozenset(d.components[l][0] for l in folded_comps)
    weigh = rmatrix_contribution if convention == MINUS else gl_contribution
    total = LaurentQ.zero()
    for p, colors in enumerate_states(d, n, convention, anchor=0, fold_free=True):
        total = total + weigh(d, p, colors, n, skip)
    if convention == PLUS:
        total = total * LaurentQ.t_quarter(
            gl_writhe_prefactor_quarter(d, n, len(folded_comps))
        )
    return total * qint(n + 1) ** len(folded_comps)


# A vertex table maps (n, sign, left color in, right color in) to every
# (left color out, right color out, weight) the crossing allows.
Step = tuple[int, int, object]
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
    return tuple((left, right, 1) for left, right, _ in table(n, sign, a, b))


_TABLES: dict[int, Table] = {MINUS: _rmatrix_step, PLUS: _gl_step}


def _closing_spans(
    letters: tuple[int, ...], strands: int
) -> list[tuple[tuple[int, int], ...]]:
    """For each letter, the position spans whose color sums must already
    match the start vector once the letter is swept.

    The letters still to come only move colors within a connected block
    of the positions they touch, and leave every other position alone;
    an entry whose block sums (or untouched colors) differ from its start
    can never close up.
    """
    out = []
    gens: set[int] = set()
    for k in reversed(letters):
        spans = []
        p = 0
        while p < strands:
            q = p + 1
            while q in gens:
                q += 1
            spans.append((p, q))
            p = q
        out.append(tuple(spans))
        gens.add(abs(k))
    out.reverse()
    return out


def _sweep(d: Diagram, n: int, table: Table) -> dict[tuple[int, ...], object]:
    """Sum the weights of every contributing state, one letter at a time.

    A layer maps (start color vector, current color vector) to the summed
    weight of the partial states below it, with position 0 anchored at
    color 0.  Returns the closed entries: start vector -> summed weight
    of the states whose colors return to it.
    """
    s = d.strands
    layer: dict[tuple[tuple[int, ...], tuple[int, ...]], object] = {}
    for rest in product(range(n + 1), repeat=s - 1):
        start = (0,) + rest
        layer[start, start] = 1
    letters = d.braid.letters
    for k, spans in zip(letters, _closing_spans(letters, s)):
        g = abs(k)
        sign = 1 if k > 0 else -1
        nxt: dict[tuple[tuple[int, ...], tuple[int, ...]], object] = {}
        for (start, cur), value in layer.items():
            head, tail = cur[: g - 1], cur[g + 1 :]
            for left, right, weight in table(n, sign, cur[g - 1], cur[g]):
                new = head + (left, right) + tail
                if any(
                    sum(new[lo:hi]) != sum(start[lo:hi]) for lo, hi in spans
                ):
                    continue
                key = (start, new)
                term = value * weight
                old = nxt.get(key)
                nxt[key] = term if old is None else old + term
        layer = nxt
    return {start: value for (start, cur), value in layer.items() if start == cur}


def transfer_sum(d: Diagram, n: int, convention: int) -> LaurentQ:
    """The model's state sum by one sweep over the braid letters."""
    total = LaurentQ.zero()
    for start, value in _sweep(d, n, _TABLES[convention]).items():
        if convention == MINUS:
            quarter = sum(2 * (2 * b - n) for b in start[1:])
        else:
            quarter = -4 * sum(start[1:])
        total = total + LaurentQ.t_quarter(quarter) * value
    if convention == PLUS:
        total = total * LaurentQ.t_quarter(gl_writhe_prefactor_quarter(d, n, 0))
    return total


def state_count(d: Diagram, n: int, convention: int) -> int:
    """Number of n-contributing states in the convention, anchored at 0 and
    free strands included: the sweep with unit weights."""
    unit = partial(_unit_step, _TABLES[convention])
    return sum(_sweep(d, n, unit).values())


def _mismatch_report(d: Diagram, n: int) -> str:
    """Localize a model disagreement via the state correspondence."""
    folded_comps = _folded_components(d)
    skip = frozenset(d.components[l][0] for l in folded_comps)
    prefactor = LaurentQ.t_quarter(
        gl_writhe_prefactor_quarter(d, n, len(folded_comps))
    )
    lines = []
    for p, colors in enumerate_states(d, n, PLUS, anchor=0, fold_free=True):
        q, qcolors = flow_bijection(d, p, n)
        lhs = prefactor * gl_contribution(d, p, colors, n, skip)
        rhs = rmatrix_contribution(d, q, qcolors, n, skip)
        if lhs != rhs:
            lines.append(
                f"  state bases={p.bases} jumps={p.jumps}: "
                f"arc-transition {lhs} vs r-matrix {rhs}"
            )
            if len(lines) >= 3:
                break
    return "\n".join(lines) if lines else "  (no per-state mismatch found)"


def colored_jones_framed(b: BraidWord, n: int, model: Model = "both") -> LaurentQ:
    """The framed invariant of the braid closure at color n."""
    if n < 1:
        raise ValueError("color n must be >= 1")
    d = build(b)
    if model == "rmatrix":
        return transfer_sum(d, n, MINUS)
    if model == "gl":
        return transfer_sum(d, n, PLUS)
    if model != "both":
        raise ValueError(f"unknown model {model!r}")
    minus = transfer_sum(d, n, MINUS)
    plus = transfer_sum(d, n, PLUS)
    if minus != plus:
        raise ModelMismatchError(
            f"models disagree on braid '{b.text()}' at n={n}: "
            f"r-matrix {minus} vs arc-transition {plus}\n"
            + _mismatch_report(d, n)
        )
    return minus


def colored_jones_unframed(b: BraidWord, n: int, model: Model = "both") -> LaurentQ:
    """Framing-independent normalization: framed value times
    t**(w(n^2/4 + n/2))."""
    framed = colored_jones_framed(b, n, model)
    return framed * LaurentQ.t_quarter(b.writhe * (n * n + 2 * n))


def parity_halfinteger_check(b: BraidWord, n: int, model: Model = "rmatrix") -> str:
    """Classify the unframed value's exponents and assert the parity law.

    Exponents are all integral when n is even or the closure has an odd
    number of components, and all half-integral otherwise; a mix of the
    two classes signals a bug.
    """
    value = colored_jones_unframed(b, n, model)
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
