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
along the arc ending at v, which is the order the jump recursion needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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

    def cycle_relations(self) -> list[dict[int, int]]:
        """One relation per component: sum of +-1-weighted mixed jumps = 0.

        A crossing whose underpass lies on component l enters l's
        relation with +1, one whose overpass lies on l with -1; self
        crossings cancel and are omitted.  The relations sum to zero.
        """
        rels: list[dict[int, int]] = [dict() for _ in self.components]
        for c in range(self.crossing_count):
            lu, lo = self.under_component[c], self.over_component[c]
            if lu == lo:
                continue
            rels[lu][c] = rels[lu].get(c, 0) + 1
            rels[lo][c] = rels[lo].get(c, 0) - 1
        return [{c: k for c, k in rel.items() if k} for rel in rels]

    def eliminated_jumps(self) -> list[tuple[int, dict[int, int]]]:
        """Pivot jumps solved from the cycle relations.

        Returns (pivot, expression) pairs meaning r(pivot) = sum of
        coeff * r(c) over the expression; every expression index is
        smaller than its pivot, so values can be filled in braid order.
        The first component's relation is dropped (the relations sum to
        zero) and empty rows from split diagrams are skipped.
        """
        rows = [dict(rel) for rel in self.cycle_relations()[1:]]
        solved: list[tuple[int, dict[int, int]]] = []
        for i, row in enumerate(rows):
            if not row:
                continue
            pivot = max(row)
            coeff = row[pivot]
            # Relations are node-set sums of a graph incidence system, so
            # every surviving coefficient is a unit.
            if abs(coeff) != 1:
                raise ArithmeticError(
                    f"cycle relation pivot {pivot} has non-unit coefficient {coeff}"
                )
            expr = {c: -k * coeff for c, k in row.items() if c != pivot}
            solved.append((pivot, expr))
            for other in rows[i + 1 :]:
                if pivot in other:
                    mult = -other[pivot] * coeff
                    for c, k in row.items():
                        s = other.get(c, 0) + mult * k
                        if s:
                            other[c] = s
                        else:
                            other.pop(c, None)
        return solved

    def solve_jumps(self, free: Iterable[int]) -> tuple[int, ...]:
        """Jumps satisfying every cycle relation.

        The values of free go, in braid order, to the crossings that are
        not pivots of eliminated_jumps; each pivot is computed from the
        jumps before it.  free is drawn from lazily, one value per
        non-pivot crossing.
        """
        dependent = dict(self.eliminated_jumps())
        values = iter(free)
        jumps: list[int] = []
        for c in range(self.crossing_count):
            expr = dependent.get(c)
            if expr is None:
                jumps.append(next(values))
            else:
                jumps.append(sum(k * jumps[cc] for cc, k in expr.items()))
        return tuple(jumps)

    def cyclic_labels(self) -> dict[int, tuple[int, int]]:
        """crossing -> (component, position along the component's sigma cycle).

        The base vertex of each component gets position 0 and sigma
        advances the position by 1; components without underpasses have
        no entries.
        """
        labels: dict[int, tuple[int, int]] = {}
        for comp, base in enumerate(self.base_vertices):
            if base is None:
                continue
            v, k = base, 0
            while v not in labels:
                labels[v] = (comp, k)
                v = self.sigma[v]
                k += 1
        return labels

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

    all_steps: list[list[tuple[int, str]]] = []
    all_arcs: list[list[int]] = []
    base_vertices: list[int | None] = []
    start_arcs: list[int] = []
    for l, cyc in enumerate(components):
        steps, arcs = walk(min(cyc))
        unders = [c for c, role in steps if role == UNDER]
        if l > 0 and unders:
            base = min(unders)
            at = steps.index((base, UNDER))
            steps = steps[at + 1 :] + steps[: at + 1]
            arcs = arcs[at + 1 :] + arcs[: at + 1]
            base_vertices.append(base)
            start_arcs.append(arcs[0] if arcs else min(cyc))
        else:
            base_vertices.append(min(unders) if unders else None)
            start_arcs.append(min(cyc))
        all_steps.append(steps)
        all_arcs.append(arcs)

    n_cross = len(crossings)
    sigma: list[int] = [-1] * n_cross
    tau: list[int | None] = [None] * n_cross
    order: list[list[int]] = [[] for _ in range(n_cross)]
    under_component = [-1] * n_cross
    over_component = [-1] * n_cross
    for l, steps in enumerate(all_steps):
        under_at = [i for i, (_, role) in enumerate(steps) if role == UNDER]
        for i, (c, role) in enumerate(steps):
            if role == UNDER:
                under_component[c] = l
            else:
                over_component[c] = l
        if not under_at:
            continue
        m = len(steps)
        for k, i in enumerate(under_at):
            j = under_at[(k + 1) % len(under_at)]
            sigma[steps[i][0]] = steps[j][0]
        for k, i in enumerate(under_at):
            target = steps[i][0]
            prev = under_at[k - 1]
            span: list[int] = []
            j = (prev + 1) % m
            while j != i:
                span.append(steps[j][0])
                j = (j + 1) % m
            order[target] = span
            for c in span:
                tau[c] = target

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
