"""State enumeration for the two sign conventions of the state models.

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
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Diagram, UNDER
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
