"""Closure diagrams of braid words: part arcs, crossings, and the two
transition maps that drive the state models.

Arcs are assigned by a bottom-to-top sweep.  The bottom arc of strand
position p gets id p; each crossing consumes the two arcs at its
positions and creates two fresh ids.  Closing the braid identifies the
top arc at position p with bottom arc p, so the closure arcs carry the
canonical ids 0..s-1 and every other arc keeps its sweep id.

Crossing slots follow the blackboard picture of a braid generator: the
strand entering on the left always exits on the right and vice versa.
At a positive crossing the left entrant passes over; at a negative one
the right entrant does.

Each component of the closure is stored as a cyclic traversal: a list
of (crossing, role) steps with role "o" (passing over) or "u" (passing
under), plus the arc entering each step.  From the traversals come:

  sigma(c): the crossing where the strand leaving c's underpass next
            passes under; its cycles are exactly the link components.
  tau(c):   the crossing at whose underpass the overpass arc through
            c's overpass ends; None when that arc closes into a circle
            that never passes under.

tau_preimage_order[v] lists tau^{-1}(v) in the order the overpasses sit
along the arc ending at v: the jumps-into column of --dump-diagram.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord

OVER = "o"
UNDER = "u"


@dataclass(frozen=True)
class Crossing:
    """One crossing of the closed diagram, indexed in braid (word) order."""

    index: int
    generator: int
    sign: int
    in_left: int
    in_right: int
    out_left: int
    out_right: int

    @property
    def over_in(self) -> int:
        return self.in_left if self.sign > 0 else self.in_right

    @property
    def over_out(self) -> int:
        return self.out_right if self.sign > 0 else self.out_left

    @property
    def under_out(self) -> int:
        return self.out_left if self.sign > 0 else self.out_right


@dataclass
class Diagram:
    """Combinatorial closure diagram of a braid word."""

    braid: BraidWord
    crossings: list[Crossing]
    components: list[tuple[int, ...]]
    steps: list[list[tuple[int, str]]]
    arcs: list[list[int]]
    sigma: list[int]
    tau: list[int | None]
    tau_preimage_order: list[list[int]]
    under_component: list[int]
    over_component: list[int]
    base_vertices: list[int | None]
    start_arcs: list[int]

    @property
    def strands(self) -> int:
        return self.braid.strands

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    @property
    def component_count(self) -> int:
        return len(self.components)

    def dump_table(self) -> str:
        lines = ["index  gen  sign  sigma  tau  jumps-into"]
        for c, cr in enumerate(self.crossings):
            tau = self.tau[c]
            pre = ",".join(str(w) for w in self.tau_preimage_order[c]) or "-"
            lines.append(
                f"{c:>5}  {cr.generator:>3}  {cr.sign:>+4}  "
                f"{self.sigma[c]:>5}  {tau if tau is not None else '-':>3}  {pre}"
            )
        for comp, cyc in enumerate(self.components):
            positions = ",".join(str(p + 1) for p in cyc)
            base = self.base_vertices[comp]
            lines.append(
                f"component {comp}: strands {positions}, "
                f"base {'crossing ' + str(base) if base is not None else 'closure arc'}"
            )
        return "\n".join(lines)

    def graph_description(self) -> str:
        """Nodes and blue/red edges of the transition graph, one per line."""
        lines = []
        for c, cr in enumerate(self.crossings):
            lines.append(
                f"node {c} sign={cr.sign:+d} component={self.under_component[c]}"
            )
        for c in range(self.crossing_count):
            lines.append(f"edge blue {c} -> {self.sigma[c]}")
        for c in range(self.crossing_count):
            if self.tau[c] is not None:
                lines.append(f"edge red {c} -> {self.tau[c]}")
        return "\n".join(lines)


def build(b: BraidWord) -> Diagram:
    s = b.strands
    cur = list(range(s))
    raw: list[tuple[int, int, int, int]] = []
    nxt = s
    for k in b.letters:
        g = abs(k)
        in_l, in_r = cur[g - 1], cur[g]
        out_l, out_r = nxt, nxt + 1
        nxt += 2
        raw.append((in_l, in_r, out_l, out_r))
        cur[g - 1], cur[g] = out_l, out_r

    # Closing the braid renames the top arc at position p to bottom arc p.
    alias = {cur[p]: p for p in range(s)}

    def canon(a: int) -> int:
        return alias.get(a, a)

    crossings = [
        Crossing(i, abs(k), 1 if k > 0 else -1, *map(canon, slots))
        for i, (k, slots) in enumerate(zip(b.letters, raw))
    ]

    consumer: dict[int, tuple[int, str]] = {}
    for cr in crossings:
        consumer[cr.in_left] = (cr.index, "L")
        consumer[cr.in_right] = (cr.index, "R")

    components = b.components()

    def walk(start: int) -> tuple[list[tuple[int, str]], list[int]]:
        steps: list[tuple[int, str]] = []
        arcs: list[int] = []
        a = start
        while True:
            hit = consumer.get(a)
            if hit is None:
                return steps, arcs
            ci, side = hit
            cr = crossings[ci]
            role = OVER if (side == "L") == (cr.sign > 0) else UNDER
            steps.append((ci, role))
            arcs.append(a)
            a = cr.out_right if side == "L" else cr.out_left
            if a == start:
                return steps, arcs

    n_cross = len(crossings)
    sigma: list[int] = [-1] * n_cross
    tau: list[int | None] = [None] * n_cross
    order: list[list[int]] = [[] for _ in range(n_cross)]
    under_component = [-1] * n_cross
    over_component = [-1] * n_cross
    all_steps: list[list[tuple[int, str]]] = []
    all_arcs: list[list[int]] = []
    base_vertices: list[int | None] = []
    start_arcs: list[int] = []
    for l, cyc in enumerate(components):
        steps, arcs = walk(min(cyc))
        base = min((c for c, role in steps if role == UNDER), default=None)
        # The traversal read from just after the base's underpass, so that
        # it ends there; every component but the first starts there.
        at = 0 if base is None else steps.index((base, UNDER)) + 1
        loop = steps[at:] + steps[:at]
        if l > 0:
            steps, arcs = loop, arcs[at:] + arcs[:at]
        all_steps.append(steps)
        all_arcs.append(arcs)
        base_vertices.append(base)
        start_arcs.append(arcs[0] if arcs else min(cyc))
        # Each underpass closes the overpasses since the one before it.
        prev, span = base, []
        for c, role in loop:
            if role == OVER:
                over_component[c] = l
                span.append(c)
                continue
            under_component[c] = l
            sigma[prev] = c
            order[c] = span
            for o in span:
                tau[o] = c
            prev, span = c, []

    return Diagram(
        braid=b,
        crossings=crossings,
        components=components,
        steps=all_steps,
        arcs=all_arcs,
        sigma=sigma,
        tau=tau,
        tau_preimage_order=order,
        under_component=under_component,
        over_component=over_component,
        base_vertices=base_vertices,
        start_arcs=start_arcs,
    )
