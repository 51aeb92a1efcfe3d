"""Command-line front end.

Computes framed or unframed colored Jones polynomials of braid
closures, counts or dumps contributing states, dumps diagram tables,
and runs the built-in verification suites.  Exit status: 0 on success,
1 when a verification or cross-model check fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass

from .braid import BraidWord, parse
from .diagram import build
from .oracle import (
    kauffman_jones,
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
from .states import MINUS, PLUS, Potential, enumerate_states
from .statesum import (
    Model,
    ModelMismatchError,
    colored_jones_framed,
    colored_jones_unframed,
    state_count,
)


def weaving_word(m: int) -> BraidWord:
    """The 3-strand weaving braid: m repetitions of (sigma_1^-1 sigma_2)."""
    if m < 1:
        raise ValueError("weaving repetition count must be >= 1")
    return BraidWord(3, (-1, 2) * m)


PRESETS: dict[str, tuple[str, int]] = {
    "unknot": ("", 1),
    "unknot-kink-plus": ("1", 2),
    "unknot-kink-minus": ("-1", 2),
    "unlink2": ("", 2),
    "hopf-plus": ("1 1", 2),
    "hopf-minus": ("-1 -1", 2),
    "trefoil": ("1 1 1", 2),
    "trefoil-mirror": ("-1 -1 -1", 2),
    "figure-eight": ("-1 2 -1 2", 3),
    "weaving-3-2": ("-1 2 -1 2", 3),
    "weaving-3-3": ("-1 2 -1 2 -1 2", 3),
    "weaving-3-4": ("-1 2 -1 2 -1 2 -1 2", 3),
    "weaving-3-5": ("-1 2 -1 2 -1 2 -1 2 -1 2", 3),
    "sample-knot": ("-1 -1 -1 2 1 2 2 -1", 3),
}


@dataclass
class RunConfig:
    braid: str | None = None
    preset: str | None = None
    weaving: int | None = None
    strands: int | None = None
    n: int = 1
    model: Model = "both"
    unframed: bool = False
    states: str | None = None
    dump_diagram: bool = False
    graph_out: str | None = None
    verify: str | None = None
    json_out: bool = False
    seed: int = 2024


def _resolve_braid(cfg: RunConfig) -> BraidWord:
    picked = [x for x in (cfg.braid, cfg.preset, cfg.weaving) if x is not None]
    if len(picked) != 1:
        raise ValueError("choose exactly one of --braid, --preset, --weaving")
    if cfg.preset is not None:
        if cfg.preset not in PRESETS:
            raise ValueError(
                f"unknown preset {cfg.preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        text, strands = PRESETS[cfg.preset]
        return parse(text, strands) if text else BraidWord(strands, ())
    if cfg.weaving is not None:
        return weaving_word(cfg.weaving)
    assert cfg.braid is not None
    if cfg.braid.strip() == "" and cfg.strands is None:
        raise ValueError("empty braid word needs --strands")
    return parse(cfg.braid, cfg.strands)


def _poly_terms(value: LaurentQ) -> list[list[object]]:
    return [[q, str(c)] for q, c in value.terms()]


def _random_braid(rng: random.Random, max_strands: int = 4, max_len: int = 6) -> BraidWord:
    s = rng.randint(2, max_strands)
    length = rng.randint(1, max_len)
    letters = tuple(
        rng.choice([1, -1]) * rng.randint(1, s - 1) for _ in range(length)
    )
    return BraidWord(s, letters)


def _random_z_potential(rng: random.Random, d, bound: int = 5) -> Potential:
    dependent = dict(d.eliminated_jumps())
    jumps = [0] * d.crossing_count
    for c in range(d.crossing_count):
        expr = dependent.get(c)
        if expr is None:
            jumps[c] = rng.randint(-bound, bound)
        else:
            jumps[c] = sum(k * jumps[cc] for cc, k in expr.items())
    bases = tuple(
        0 if l == 0 else rng.randint(-bound, bound)
        for l in range(d.component_count)
    )
    return Potential(tuple(jumps), bases, PLUS)


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
        b = parse(text, strands) if text else BraidWord(strands, ())
        engine = colored_jones_unframed(b, 1)
        mu = b.component_count()
        sign = 1 if mu % 2 else -1
        oracle = kauffman_jones(b).substitute_inverse() * sign
        checks.append((f"oracle-{name}", engine == oracle))
    return checks


SUITES = {
    "identity": _suite_identity,
    "props": _suite_props,
    "skein": _suite_skein,
    "oracle": _suite_oracle,
}


def _run_verify(which: str, seed: int) -> int:
    rng = random.Random(seed)
    names = list(SUITES) if which == "all" else [which]
    failed = False
    for name in names:
        for check, ok in SUITES[name](rng):
            print(f"{'PASS' if ok else 'FAIL'} {check}")
            failed = failed or not ok
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="braidjones",
        description="Exact colored Jones polynomials of braid closures.",
    )
    src = ap.add_mutually_exclusive_group()
    src.add_argument("--braid", help="braid word, e.g. '-1 2 -1 2'")
    src.add_argument("--preset", help=f"named link: {', '.join(sorted(PRESETS))}")
    src.add_argument(
        "--weaving", type=int, metavar="M", help="3-strand weaving braid, M repeats"
    )
    ap.add_argument("--strands", type=int, help="strand count override")
    ap.add_argument("--n", type=int, default=1, help="color (default 1)")
    ap.add_argument(
        "--model",
        choices=["rmatrix", "gl", "both"],
        default="both",
        help="state model; 'both' cross-checks (default)",
    )
    framing = ap.add_mutually_exclusive_group()
    framing.add_argument(
        "--framed", action="store_true", help="framed invariant (default)"
    )
    framing.add_argument(
        "--unframed", action="store_true", help="writhe-normalized invariant"
    )
    ap.add_argument("--states", choices=["count", "dump"], help="inspect states")
    ap.add_argument(
        "--dump-diagram", action="store_true", help="print the crossing table"
    )
    ap.add_argument("--graph-out", metavar="FILE", help="write transition graph")
    ap.add_argument(
        "--verify",
        choices=["all", "identity", "props", "skein", "oracle"],
        help="run a verification suite",
    )
    ap.add_argument("--json", action="store_true", help="JSON output")
    ap.add_argument("--seed", type=int, default=2024, help="verification seed")
    return ap


def run(cfg: RunConfig) -> int:
    if cfg.verify is not None:
        return _run_verify(cfg.verify, cfg.seed)
    try:
        b = _resolve_braid(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.n < 1:
        print("error: --n must be >= 1", file=sys.stderr)
        return 2
    d = build(b)
    if cfg.graph_out:
        try:
            with open(cfg.graph_out, "w", encoding="utf-8") as fh:
                fh.write(d.graph_description() + "\n")
        except OSError as exc:
            print(f"error: cannot write --graph-out: {exc}", file=sys.stderr)
            return 2
    if cfg.dump_diagram:
        print(d.dump_table())
        return 0
    convention = MINUS if cfg.model == "rmatrix" else PLUS
    if cfg.states is not None:
        states = enumerate_states(d, cfg.n, convention, anchor=0, fold_free=False)
        if cfg.states == "count":
            print(len(states))
        else:
            for p, colors in sorted(
                states, key=lambda sc: (sc[0].bases, sc[0].jumps)
            ):
                print(
                    f"beta={list(p.bases)} j={list(p.jumps)} i={list(colors.i)}"
                )
        return 0
    try:
        framed = colored_jones_framed(b, cfg.n, cfg.model)
    except ModelMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    unframed = framed * LaurentQ.t_quarter(b.writhe * (cfg.n * cfg.n + 2 * cfg.n))
    if cfg.json_out:
        doc = {
            "braid": b.text(),
            "strands": b.strands,
            "n": cfg.n,
            "model": cfg.model,
            "framed": {"terms": _poly_terms(framed)},
            "unframed": {"terms": _poly_terms(unframed)},
            "writhe": b.writhe,
            "components": b.component_count(),
            "state_count": state_count(d, cfg.n, convention),
        }
        print(json.dumps(doc))
    else:
        print(unframed if cfg.unframed else framed)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(
        braid=args.braid,
        preset=args.preset,
        weaving=args.weaving,
        strands=args.strands,
        n=args.n,
        model=args.model,
        unframed=args.unframed,
        states=args.states,
        dump_diagram=args.dump_diagram,
        graph_out=args.graph_out,
        verify=args.verify,
        json_out=args.json,
        seed=args.seed,
    )
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
