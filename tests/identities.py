"""The paper's identities on integer potentials, and their inputs.

No value, inspection or benchmark path reads these; the tests do.  They
check what the paper proves on the way to the correspondence of the two
state models, on arbitrary integer jumps rather than on contributing
states only:

  - the cycle relations of a closure diagram (one per component), their
    elimination in braid order, and jumps solved from them;
  - the cyclic labels of the crossings along each component's sigma
    cycle, in which the weaving family's jump map has a closed form;
  - every integer potential in a box (enumerate_z_potentials);
  - the two color identities over the crossings (Props 6.1 and 6.2), the
    skew-symmetric matrix lemma and a Pochhammer identity;
  - the exponent-parity law of the unframed value.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable

from braidjones.braid import BraidWord
from braidjones.diagram import Diagram
from braidjones.qalgebra import LaurentQ
from braidjones.states import PLUS, Potential, derive_colors, pochhammer
from braidjones.statesum import colored_jones_unframed


def cycle_relations(d: Diagram) -> list[dict[int, int]]:
    """One relation per component: sum of +-1-weighted mixed jumps = 0.

    A crossing whose underpass lies on component l enters l's
    relation with +1, one whose overpass lies on l with -1; self
    crossings cancel and are omitted.  The relations sum to zero.
    """
    rels: list[dict[int, int]] = [dict() for _ in d.components]
    for c in range(d.crossing_count):
        lu, lo = d.under_component[c], d.over_component[c]
        if lu == lo:
            continue
        rels[lu][c] = rels[lu].get(c, 0) + 1
        rels[lo][c] = rels[lo].get(c, 0) - 1
    return [{c: k for c, k in rel.items() if k} for rel in rels]


def eliminated_jumps(d: Diagram) -> list[tuple[int, dict[int, int]]]:
    """Pivot jumps solved from the cycle relations.

    Returns (pivot, expression) pairs meaning r(pivot) = sum of
    coeff * r(c) over the expression; every expression index is
    smaller than its pivot, so values can be filled in braid order.
    The first component's relation is dropped (the relations sum to
    zero) and empty rows from split diagrams are skipped.
    """
    rows = [dict(rel) for rel in cycle_relations(d)[1:]]
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


def solve_jumps(d: Diagram, free: Iterable[int]) -> tuple[int, ...]:
    """Jumps satisfying every cycle relation.

    The values of free go, in braid order, to the crossings that are
    not pivots of eliminated_jumps; each pivot is computed from the
    jumps before it.  free is drawn from lazily, one value per
    non-pivot crossing.
    """
    dependent = dict(eliminated_jumps(d))
    values = iter(free)
    jumps: list[int] = []
    for c in range(d.crossing_count):
        expr = dependent.get(c)
        if expr is None:
            jumps.append(next(values))
        else:
            jumps.append(sum(k * jumps[cc] for cc, k in expr.items()))
    return tuple(jumps)


def cyclic_labels(d: Diagram) -> dict[int, tuple[int, int]]:
    """crossing -> (component, position along the component's sigma cycle).

    The base vertex of each component gets position 0 and sigma
    advances the position by 1; components without underpasses have
    no entries.
    """
    labels: dict[int, tuple[int, int]] = {}
    for comp, base in enumerate(d.base_vertices):
        if base is None:
            continue
        v, k = base, 0
        while v not in labels:
            labels[v] = (comp, k)
            v = d.sigma[v]
            k += 1
    return labels


def enumerate_z_potentials(d: Diagram, bound: int) -> list[Potential]:
    """All integer potentials within [-bound, bound] satisfying the
    cycle relations, with the first component's base fixed to 0.

    Dependent jumps falling outside the box are dropped.  Used by the
    randomized identity checks, which need arbitrary-sign jumps.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    box = range(-bound, bound + 1)
    free = d.crossing_count - len(eliminated_jumps(d))
    out: list[Potential] = []
    for values in product(box, repeat=free):
        jumps = solve_jumps(d, values)
        if any(abs(v) > bound for v in jumps):
            continue
        for rest in product(box, repeat=d.component_count - 1):
            out.append(Potential(jumps, (0,) + rest, PLUS))
    return out


def out_colors(d: Diagram, p: Potential) -> tuple[list[int], list[int]]:
    """(overpass exit, underpass exit) colors per crossing for a
    (+)-convention integer potential."""
    if p.convention != PLUS:
        raise ValueError("color identities are stated for (+) potentials")
    colors = derive_colors(d, p)
    over_out = [colors.arc_colors[cr.over_out] for cr in d.crossings]
    under_out = [colors.arc_colors[cr.under_out] for cr in d.crossings]
    return over_out, under_out


def verify_prop_61(d: Diagram, p: Potential) -> bool:
    """sum of r*(a - b - r) over crossings vanishes, where a and b are
    the overpass and underpass exit colors."""
    over_out, under_out = out_colors(d, p)
    total = sum(
        p.jumps[c] * (over_out[c] - under_out[c] - p.jumps[c])
        for c in range(d.crossing_count)
    )
    return total == 0


def verify_prop_62(d: Diagram, p: Potential) -> bool:
    """sum of sign*(a - b) equals sum of sign*r over crossings."""
    over_out, under_out = out_colors(d, p)
    lhs = sum(
        d.crossings[c].sign * (over_out[c] - under_out[c])
        for c in range(d.crossing_count)
    )
    rhs = sum(d.crossings[c].sign * p.jumps[c] for c in range(d.crossing_count))
    return lhs == rhs


def verify_matrix_lemma(a: list[list[int]]) -> bool:
    """For skew-symmetric A with zero column sums,
    sum over j<k of a[j][k]*s[j][k] vanishes, where
    s[j][k] = sum_{i<j} a[i][k] - sum_{i>k} a[j][i]."""
    mu = len(a)
    for row in a:
        if len(row) != mu:
            raise ValueError("matrix must be square")
    for j in range(mu):
        for k in range(mu):
            if a[j][k] != -a[k][j]:
                raise ValueError("matrix must be skew-symmetric")
    for k in range(mu):
        if sum(a[j][k] for j in range(mu)) != 0:
            raise ValueError("column sums must vanish")
    total = 0
    for j in range(mu):
        for k in range(j + 1, mu):
            s_jk = sum(a[i][k] for i in range(j)) - sum(
                a[j][i] for i in range(k + 1, mu)
            )
            total += a[j][k] * s_jk
    return total == 0


def verify_pochhammer_identity(n: int) -> bool:
    """sum over 0 <= r <= n of v**(r(2-n) + r(r-1)/2) {n}_r = v**(2n)."""
    total = LaurentQ.zero()
    for r in range(n + 1):
        quarter = 2 * r * (2 - n) + r * (r - 1)
        total = total + LaurentQ.t_quarter(quarter) * pochhammer(n, r)
    return total == LaurentQ.t_quarter(4 * n)


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
