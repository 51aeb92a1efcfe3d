"""Command-line front end.

Computes framed or unframed colored Jones polynomials of braid
closures, counts or dumps contributing states, dumps diagram tables,
and runs the built-in verification suites.  Exit status: 0 on success,
1 when a verification or cross-model check fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .braid import PRESETS, BraidWord, parse
from .diagram import build
from .qalgebra import LaurentQ
from .states import MINUS, PLUS, enumerate_states
from .statesum import ModelMismatchError, check_work, colored_jones_framed
from .statesum import state_count, unframing
from .verify import run_verify


def weaving_word(m: int) -> BraidWord:
    """The 3-strand weaving braid: m repetitions of (sigma_1^-1 sigma_2)."""
    if m < 1:
        raise ValueError("weaving repetition count must be >= 1")
    return BraidWord(3, (-1, 2) * m)


def _resolve_braid(args: argparse.Namespace) -> BraidWord:
    picked = [x for x in (args.braid, args.preset, args.weaving) if x is not None]
    if len(picked) != 1:
        raise ValueError("choose exactly one of --braid, --preset, --weaving")
    if args.strands is not None and args.braid is None:
        raise ValueError("--strands applies only to --braid")
    if args.preset is not None:
        if args.preset not in PRESETS:
            raise ValueError(
                f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        return parse(*PRESETS[args.preset])
    if args.weaving is not None:
        return weaving_word(args.weaving)
    if args.braid.strip() == "" and args.strands is None:
        raise ValueError("empty braid word needs --strands")
    return parse(args.braid, args.strands)


def _poly_terms(value: LaurentQ) -> list[list[object]]:
    return [[q, str(c)] for q, c in value.terms()]


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


def run(args: argparse.Namespace) -> int:
    if args.verify is not None:
        return run_verify(args.verify, args.seed)
    try:
        b = _resolve_braid(args)
        if args.n < 1:
            raise ValueError("--n must be >= 1")
        if not args.dump_diagram:
            check_work(b.strands, args.n)
        if args.dump_diagram or args.graph_out or args.states == "dump":
            d = build(b)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: request too large: {exc}", file=sys.stderr)
        return 2
    if args.graph_out:
        try:
            with open(args.graph_out, "w", encoding="utf-8") as fh:
                fh.write(d.graph_description() + "\n")
        except OSError as exc:
            print(f"error: cannot write --graph-out: {exc}", file=sys.stderr)
            return 2
    if args.dump_diagram:
        print(d.dump_table())
        return 0
    convention = MINUS if args.model == "rmatrix" else PLUS
    if args.states == "count":
        print(state_count(b, args.n, convention))
        return 0
    if args.states == "dump":
        states = enumerate_states(d, args.n, convention)
        for p, colors in sorted(states, key=lambda sc: (sc[0].bases, sc[0].jumps)):
            print(f"beta={list(p.bases)} j={list(p.jumps)} i={list(colors.i)}")
        return 0
    try:
        framed = colored_jones_framed(b, args.n, args.model)
    except ModelMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    unframed = framed * unframing(b, args.n)
    if args.json:
        doc = {
            "braid": b.text(),
            "strands": b.strands,
            "n": args.n,
            "model": args.model,
            "framed": {"terms": _poly_terms(framed)},
            "unframed": {"terms": _poly_terms(unframed)},
            "writhe": b.writhe,
            "components": b.component_count(),
            "state_count": state_count(b, args.n, convention),
        }
        print(json.dumps(doc))
    else:
        print(unframed if args.unframed else framed)
    return 0


def main(argv: list[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
