"""Built-in verification suites behind --verify.

Each suite takes a seeded random generator and returns (check name,
passed) pairs: the q-identities, the color identities on random integer
potentials with the matrix lemma, the framed and unframed skein
relations at n = 1, the Kauffman-bracket oracle on named links, and the
Rosso-Jones formula on torus knots at colors above 1.
"""

from __future__ import annotations

import random

from .braid import PRESETS, BraidWord, parse
from .diagram import Diagram, build
from .oracle import (
    kauffman_jones,
    rosso_jones,
    torus_braid,
    verify_matrix_lemma,
    verify_pochhammer_identity,
    verify_prop_61,
    verify_prop_62,
)
from .qalgebra import (
    LaurentQ,
    pochhammer,
    pochhammer_signed,
    qbinom,
    qbinom_signed,
    qbrace,
    qint,
)
from .states import PLUS, Potential
from .statesum import colored_jones_framed, colored_jones_unframed


def _random_braid(rng: random.Random, max_strands: int = 4, max_len: int = 6) -> BraidWord:
    s = rng.randint(2, max_strands)
    length = rng.randint(1, max_len)
    letters = tuple(
        rng.choice([1, -1]) * rng.randint(1, s - 1) for _ in range(length)
    )
    return BraidWord(s, letters)


def _random_z_potential(rng: random.Random, d: Diagram, bound: int = 5) -> Potential:
    jumps = d.solve_jumps(
        rng.randint(-bound, bound) for _ in range(d.crossing_count)
    )
    bases = tuple(
        0 if l == 0 else rng.randint(-bound, bound)
        for l in range(d.component_count)
    )
    return Potential(jumps, bases, PLUS)


def _random_skew_matrix(rng: random.Random) -> list[list[int]]:
    mu = rng.randint(3, 6)
    a = [[0] * mu for _ in range(mu)]
    for _ in range(rng.randint(1, 5)):
        i, j, k = sorted(rng.sample(range(mu), 3))
        c = rng.randint(-3, 3)
        for (x, y), val in (((i, j), c), ((i, k), -c), ((j, k), c)):
            a[x][y] += val
            a[y][x] -= val
    return a


def _suite_identity(rng: random.Random) -> list[tuple[str, bool]]:
    checks: list[tuple[str, bool]] = []
    ok = True
    for a in range(-6, 7):
        for b in range(7):
            for eps in (1, -1):
                sign = (-1) ** b if eps == 1 else 1
                lhs = pochhammer(a, b)
                rhs = (
                    LaurentQ.monomial(sign, -eps * (2 * a * b - b * (b - 1)))
                    * pochhammer_signed(a, b, eps)
                )
                ok = ok and lhs == rhs
    checks.append(("pochhammer-conversion", ok))
    ok = True
    for a in range(-6, 7):
        for b in range(7):
            for eps in (1, -1):
                lhs = qbinom(a, b)
                rhs = LaurentQ.t_quarter(2 * eps * b * (b - a)) * qbinom_signed(
                    a, b, eps
                )
                ok = ok and lhs == rhs
    checks.append(("binomial-conversion", ok))
    ok = True
    for c in range(7):
        for d in range(7):
            ok = ok and qbinom(c + d, c) == qbinom(c + d, d)
            for eps in (1, -1):
                ok = ok and qbinom_signed(c + d, c, eps) == qbinom_signed(
                    c + d, d, eps
                )
    checks.append(("binomial-symmetry", ok))
    checks.append(
        ("pochhammer-sum", all(verify_pochhammer_identity(n) for n in range(11)))
    )
    ok = True
    for a in range(-8, 9):
        ok = ok and qint(a) * qbrace(1) == qbrace(a)
    checks.append(("quantum-integer", ok))
    return checks


def _suite_props(rng: random.Random) -> list[tuple[str, bool]]:
    ok61 = ok62 = True
    count = 0
    while count < 200:
        d = build(_random_braid(rng))
        for _ in range(5):
            p = _random_z_potential(rng, d)
            ok61 = ok61 and verify_prop_61(d, p)
            ok62 = ok62 and verify_prop_62(d, p)
            count += 1
    okm = all(verify_matrix_lemma(_random_skew_matrix(rng)) for _ in range(200))
    return [
        ("color-identity-quadratic", ok61),
        ("color-identity-signed", ok62),
        ("matrix-lemma", okm),
    ]


def _suite_skein(rng: random.Random) -> list[tuple[str, bool]]:
    skein_rhs = LaurentQ.t_quarter(-2) - LaurentQ.t_quarter(2)
    ok_framed = ok_unframed = True
    for _ in range(20):
        b = _random_braid(rng, max_strands=3, max_len=6)
        pos = rng.randrange(len(b.letters))
        plus, minus, zero = b.skein_triple(pos)
        fp = colored_jones_framed(plus, 1)
        fm = colored_jones_framed(minus, 1)
        fz = colored_jones_framed(zero, 1)
        lhs = LaurentQ.t_quarter(-1) * fp - LaurentQ.t_quarter(1) * fm
        ok_framed = ok_framed and lhs == skein_rhs * fz
        up = colored_jones_unframed(plus, 1)
        um = colored_jones_unframed(minus, 1)
        uz = colored_jones_unframed(zero, 1)
        lhs = LaurentQ.t_quarter(-4) * up - LaurentQ.t_quarter(4) * um
        ok_unframed = ok_unframed and lhs == skein_rhs * uz
    return [("skein-framed", ok_framed), ("skein-unframed", ok_unframed)]


def _suite_oracle(rng: random.Random) -> list[tuple[str, bool]]:
    names = [
        "unknot",
        "hopf-plus",
        "hopf-minus",
        "trefoil",
        "trefoil-mirror",
        "figure-eight",
        "weaving-3-3",
        "weaving-3-4",
        "weaving-3-5",
    ]
    checks = []
    for name in names:
        text, strands = PRESETS[name]
        b = parse(text, strands)
        engine = colored_jones_unframed(b, 1)
        mu = b.component_count()
        sign = 1 if mu % 2 else -1
        oracle = kauffman_jones(b).substitute_inverse() * sign
        checks.append((f"oracle-{name}", engine == oracle))
    return checks


def _suite_torus(rng: random.Random) -> list[tuple[str, bool]]:
    cases = ((2, 3, 5), (2, -5, 3), (2, 7, 4), (3, 4, 3), (3, -5, 2), (4, 5, 2))
    return [
        (
            f"rosso-jones-T({p},{q})-n={n}",
            colored_jones_framed(torus_braid(p, q), n) == rosso_jones(p, q, n),
        )
        for p, q, n in cases
    ]


SUITES = {
    "identity": _suite_identity,
    "props": _suite_props,
    "skein": _suite_skein,
    # the oracles: the bracket at n = 1 and Rosso-Jones on torus knots
    "oracle": lambda rng: _suite_oracle(rng) + _suite_torus(rng),
}


def run_verify(which: str, seed: int) -> int:
    """Run one suite, or all of them, printing PASS or FAIL per check;
    returns 1 if any check failed, else 0."""
    rng = random.Random(seed)
    names = list(SUITES) if which == "all" else [which]
    failed = False
    for name in names:
        for check, ok in SUITES[name](rng):
            print(f"{'PASS' if ok else 'FAIL'} {check}")
            failed = failed or not ok
    return 1 if failed else 0
