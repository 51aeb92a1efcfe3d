"""Enumerates and weighs the states of both models: the sweep's reference.

A potential assigns a jump j(c) to every crossing and a base color to
every component; together they determine all part-arc colors by walking
each component from its base.  In the (+) convention a strand gains its
jump when passing over and loses it when passing under; the (-)
convention swaps the two.  Cycle relations are exactly the condition
that the colors close up around each component.

A state is n-contributing when every jump, base, and part-arc color
lies in [0, n].  The enumeration anchors the first component: the
closure arc of strand position 0 carries the fixed anchor color.  The
integer potentials of any sign that the paper's color identities take,
and the cycle relations solved for them, belong to the tests
(tests/identities.py).

Each state is weighed in its own model's convention (the statesum
docstring gives both weights): a (-)-state by _rmatrix_vertex, a
(+)-state by _gl_vertex, and state_sum adds them up.  Written apart from
statesum's packed tables, from quantum symbols as polynomials in
v = t**(1/2), this is the sweep's independent reference; only the tests
call it.  The symbols are

    {a}   = v**a - v**(-a)
    {a}_b = {a} {a-1} ... {a-b+1}        ({a}_0 = 1, {a}_b = 0 for b < 0)
    {a}_{b,t^e}      = prod_{s=0}^{b-1} (1 - t**(e*(a-s)))
    (a choose b)_t^e = prod_{s=0}^{b-1} (t**(e*(a-s)) - 1) / (t**(e*s') - 1)

and (a choose b) = {a}_b / {b}_b, by exact division.  The signed variants
are implemented apart from the plain ones, so the conversion identities
are tested rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .diagram import Diagram, UNDER
from .qalgebra import ONE, ZERO, LaurentQ
# The sign conventions and the work limit live on the value path; they are
# re-exported here for the enumeration's callers.
from .statesum import MINUS, PLUS, WORK_LIMIT, check_work  # noqa: F401


@dataclass(frozen=True)
class Potential:
    """Jumps per crossing and one base color per component.

    bases[0] is the color of the first component's closure arc at strand
    position 0; bases[l] for l >= 1 sits on the component's start arc
    (the underpass exit of its base vertex, or its lowest closure arc
    when the component never passes under).
    """

    jumps: tuple[int, ...]
    bases: tuple[int, ...]
    convention: int

    def __post_init__(self) -> None:
        if self.convention not in (PLUS, MINUS):
            raise ValueError("convention must be +1 or -1")


@dataclass(frozen=True)
class StateColors:
    """All derived colors of a potential."""

    arc_colors: dict[int, int]
    i: tuple[int, ...]
    tilde: tuple[int, ...]
    closure: tuple[int, ...]


def _step_sign(role: str, convention: int) -> int:
    # (+): over gains the jump, under loses it; (-) swaps the roles.
    if role == UNDER:
        return -convention
    return convention


def derive_colors(d: Diagram, p: Potential) -> StateColors:
    """Walk every component from its base and color all part arcs.

    Raises ValueError when the jumps violate a cycle relation, i.e. a
    component's colors fail to close up.
    """
    if len(p.jumps) != d.crossing_count:
        raise ValueError("jump count does not match crossing count")
    if len(p.bases) != d.component_count:
        raise ValueError("base count does not match component count")
    arc_colors: dict[int, int] = {}
    for l, steps in enumerate(d.steps):
        color = p.bases[l]
        arc_colors[d.start_arcs[l]] = color
        for c, role in steps:
            color += _step_sign(role, p.convention) * p.jumps[c]
        if steps and color != p.bases[l]:
            raise ValueError(f"cycle relation violated on component {l}")
        color = p.bases[l]
        for (c, role), arc in zip(d.steps[l], d.arcs[l]):
            arc_colors[arc] = color
            color += _step_sign(role, p.convention) * p.jumps[c]
    i = tuple(arc_colors[cr.under_out] for cr in d.crossings)
    tilde = tuple(arc_colors[cr.over_in] for cr in d.crossings)
    # The arc closing the braid at position p has the canonical id p.
    closure = tuple(arc_colors[pos] for pos in range(d.strands))
    return StateColors(arc_colors, i, tilde, closure)


def enumerate_states(
    d: Diagram,
    n: int,
    convention: int,
    anchor: int = 0,
) -> list[tuple[Potential, StateColors]]:
    """All n-contributing states with the first component anchored.

    A depth-first search walks each component from its start arc, in
    component order.  It chooses the component's base color (the anchor
    for component 0), and a crossing's jump in 0..n where a walk first
    meets it; where the other strand meets the crossing, the walk reuses
    that jump.  Each part arc's color is checked right after the step
    that sets it, and a walk whose last step does not bring it back to
    its base color is dropped: that closing test is the component's
    cycle relation.  The search keeps its own stack, so long words cannot
    exhaust the interpreter's.

    The order of the returned list is unspecified; ``--states dump``
    sorts it.
    """
    check_work(d.strands, n)
    if convention not in (PLUS, MINUS):
        raise ValueError("convention must be +1 or -1")
    if not 0 <= anchor <= n:
        return []
    bases = [0] * d.component_count
    jumps = [0] * d.crossing_count
    # One level per choice: (variables, index, run), where run lists the
    # steps (crossing, sign, component closed or None) that the walk takes
    # from the choice up to the next one.
    levels: list[tuple[list[int], int, list[tuple[int, int, int | None]]]] = []
    met: set[int] = set()
    for l, steps in enumerate(d.steps):
        levels.append((bases, l, []))
        for k, (c, role) in enumerate(steps):
            if c not in met:
                met.add(c)
                levels.append((jumps, c, []))
            closes = l if k == len(steps) - 1 else None
            levels[-1][2].append((c, _step_sign(role, convention), closes))

    out: list[tuple[Potential, StateColors]] = []
    # Each frame holds a level's untried values and the color entering it.
    stack = [(iter((anchor,)), anchor)]
    while stack:
        values, color = stack[-1]
        v = next(values, None)
        if v is None:
            stack.pop()
            continue
        target, which, run = levels[len(stack) - 1]
        target[which] = v
        if target is bases:
            color = v
        for c, s, closes in run:
            color += s * jumps[c]
            if not (0 <= color <= n if closes is None else color == bases[closes]):
                break
        else:
            if len(stack) < len(levels):
                stack.append((iter(range(n + 1)), color))
            else:
                p = Potential(tuple(jumps), tuple(bases), convention)
                out.append((p, derive_colors(d, p)))
    return out


def flow_bijection(
    d: Diagram, p: Potential, n: int
) -> tuple[Potential, StateColors]:
    """The matching state of the opposite convention.

    Complementing every color c -> n - c turns a (+)-state into a
    (-)-state with the same jumps and complemented bases, and vice
    versa; contribution values agree state by state.  Note the anchor
    moves: anchor-0 states map onto anchor-n states.
    """
    q = Potential(
        p.jumps,
        tuple(n - b for b in p.bases),
        -p.convention,
    )
    return q, derive_colors(d, q)


@lru_cache(maxsize=None)
def qbrace(a: int) -> LaurentQ:
    """{a} = v**a - v**(-a)."""
    if a == 0:
        return ZERO
    return LaurentQ({2 * a: 1, -2 * a: -1})


@lru_cache(maxsize=None)
def pochhammer(a: int, b: int) -> LaurentQ:
    """{a}_b = {a}{a-1}...{a-b+1}; 1 for b = 0, 0 for b < 0."""
    if b < 0:
        return ZERO
    out = ONE
    for s in range(b):
        out = out * qbrace(a - s)
    return out


@lru_cache(maxsize=None)
def pochhammer_signed(a: int, b: int, eps: int) -> LaurentQ:
    """{a}_{b,t^eps} = prod_{s=0}^{b-1} (1 - t**(eps*(a-s)))."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if b < 0:
        return ZERO
    out = ONE
    for s in range(b):
        out = out * (ONE - LaurentQ.t_quarter(4 * eps * (a - s)))
    return out


@lru_cache(maxsize=None)
def qbinom(a: int, b: int) -> LaurentQ:
    """(a choose b) = {a}_b / {b}_b, by exact division."""
    if b < 0:
        return ZERO
    if b == 0:
        return ONE
    return pochhammer(a, b).exact_div(pochhammer(b, b))


@lru_cache(maxsize=None)
def qbinom_signed(a: int, b: int, eps: int) -> LaurentQ:
    """(a choose b)_{t^eps} = prod (t**(eps*(a-s)) - 1) / prod (t**(eps*s) - 1)."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if b < 0:
        return ZERO
    num = ONE
    for s in range(b):
        num = num * (LaurentQ.t_quarter(4 * eps * (a - s)) - ONE)
    den = ONE
    for s in range(1, b + 1):
        den = den * (LaurentQ.t_quarter(4 * eps * s) - ONE)
    return num.exact_div(den)


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
        LaurentQ.t_quarter(sign * (4 * n * i - 4 * i * tld - n * n))
        * qbinom_signed(i + j, i, -sign)
        * pochhammer_signed(n - tld, j, sign)
    )


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
    """Weight of one (+)-state, closure weight included: the weight of its
    partner (-)-state under the flow bijection."""
    quarter = sum(2 * (n - 2 * b) for b in colors.closure[1:])
    value = LaurentQ.t_quarter(quarter)
    for c, cr in enumerate(d.crossings):
        value = value * _gl_vertex(n, cr.sign, colors.i[c], p.jumps[c], colors.tilde[c])
    return value


def state_sum(d: Diagram, n: int, convention: int) -> LaurentQ:
    """The model's state sum by enumerating and weighing every
    contributing state, with no global factor: the reference for the
    sweep."""
    weigh = rmatrix_contribution if convention == MINUS else gl_contribution
    total = LaurentQ.zero()
    for p, colors in enumerate_states(d, n, convention):
        total = total + weigh(d, p, colors, n)
    return total
