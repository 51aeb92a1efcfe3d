"""State enumeration for the two sign conventions of the state models.

A potential assigns a jump j(c) to every crossing and a base color to
every component; together they determine all part-arc colors by walking
each component from its base.  In the (+) convention a strand gains its
jump when passing over and loses it when passing under; the (-)
convention swaps the two.  Cycle relations are exactly the condition
that the colors close up around each component.

A state is n-contributing when every jump, base, and part-arc color
lies in [0, n].  The enumerators anchor the first component: the
closure arc of strand position 0 carries the fixed anchor color.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .diagram import Diagram, UNDER

PLUS = 1
MINUS = -1


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


def _checkpoints(d: Diagram) -> dict[int, list[tuple[int, int, int, int]]]:
    """Group arc-color checks by the DFS level that completes them.

    Component l's base is set at level l (the anchor at level 0) and
    crossing c's jump at level component_count + c.  A checkpoint
    (component, arc, crossing, sign) says that the part arc has the color
    of the arc before it on the component plus sign times the crossing's
    jump; it fires once the base and every jump before the arc are
    assigned, so never before the checkpoint of the arc before it.
    """
    mu = d.component_count
    ready: dict[int, list[tuple[int, int, int, int]]] = {}
    for l, steps in enumerate(d.steps):
        level = l
        for k in range(1, len(steps)):
            c, role = steps[k - 1]
            level = max(level, mu + c)
            ready.setdefault(level, []).append((l, k, c, _step_sign(role, PLUS)))
    return ready


def enumerate_states(
    d: Diagram,
    n: int,
    convention: int,
    anchor: int = 0,
) -> list[tuple[Potential, StateColors]]:
    """All n-contributing states with the first component anchored.

    A depth-first search, iterative so that long words cannot exhaust the
    interpreter's stack, assigns base colors in component order and then
    jumps in braid order; a dependent jump (pivot of a cycle relation)
    is computed from earlier jumps when its index comes up.  Every part
    arc's color is checked as soon as the variables it depends on are
    set, pruning the subtree on a color outside [0, n].
    """
    if convention not in (PLUS, MINUS):
        raise ValueError("convention must be +1 or -1")
    if not 0 <= anchor <= n:
        return []
    mu = d.component_count
    levels = [("base", l) for l in range(1, mu)]
    levels += [("jump", c) for c in range(d.crossing_count)]
    dependent = dict(d.eliminated_jumps())

    # Convention only flips every checkpoint sign uniformly per role,
    # so store (+)-signs and apply the flip at evaluation time.
    flip = 1 if convention == PLUS else -1
    ready = _checkpoints(d)

    bases = [0] * mu
    bases[0] = anchor
    jumps = [0] * d.crossing_count
    # arc_color[l][k]: color of component l's k-th part arc, valid from
    # the level its checkpoint fires at on the current search path.
    arc_color = [[0] * len(steps) for steps in d.steps]
    out: list[tuple[Potential, StateColors]] = []

    def color_ok(level: int) -> bool:
        for l, k, c, s in ready.get(level, ()):
            below = arc_color[l][k - 1] if k > 1 else bases[l]
            color = below + flip * s * jumps[c]
            if not 0 <= color <= n:
                return False
            arc_color[l][k] = color
        return True

    def choices(depth: int) -> Iterator[int]:
        kind, which = levels[depth]
        expr = dependent.get(which) if kind == "jump" else None
        if expr is None:
            return iter(range(n + 1))
        v = sum(k * jumps[c] for c, k in expr.items())
        return iter((v,) if 0 <= v <= n else ())

    if not levels:
        p = Potential(tuple(jumps), tuple(bases), convention)
        return [(p, derive_colors(d, p))]
    # The stack holds the untried values of every level assigned so far.
    stack = [choices(0)]
    while stack:
        depth = len(stack) - 1
        kind, which = levels[depth]
        target = bases if kind == "base" else jumps
        v = next(stack[-1], None)
        if v is None:
            target[which] = 0
            stack.pop()
            continue
        target[which] = v
        if not color_ok(depth + 1):
            continue
        if depth + 1 < len(levels):
            stack.append(choices(depth + 1))
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


def enumerate_z_potentials(d: Diagram, bound: int) -> list[Potential]:
    """All integer potentials within [-bound, bound] satisfying the
    cycle relations, with the first component's base fixed to 0.

    Dependent jumps falling outside the box are dropped.  Used by the
    randomized identity checks, which need arbitrary-sign jumps.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    box = range(-bound, bound + 1)
    free = d.crossing_count - len(d.eliminated_jumps())
    out: list[Potential] = []
    for values in product(box, repeat=free):
        jumps = d.solve_jumps(values)
        if any(abs(v) > bound for v in jumps):
            continue
        for rest in product(box, repeat=d.component_count - 1):
            out.append(Potential(jumps, (0,) + rest, PLUS))
    return out
