"""Command-line front end.

Computes framed or unframed colored Jones polynomials of braid
closures, counts or dumps contributing states, and dumps diagram tables.
Exit status: 0 on success; 1 when the cross-model check fails or the reader
of standard output closes it early (no traceback); 2 on an error. An error
in combining options (no source or two, an unknown preset, two output modes,
--strands without --braid, --n or --model with --dump-diagram) prints the
usage line and raises SystemExit(2); a bad request (letter, strand count,
colour, size, unwritable --graph-out file) prints "error: ..." and returns 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .braid import PRESETS, BraidWord, parse
from .qalgebra import LaurentQ
from .statesum import (
    MINUS,
    PLUS,
    WORK_LIMIT,
    ModelMismatchError,
    check_work,
    colored_jones_framed,
    framed_and_count,
    state_count,
    unframing,
)


def weaving_word(m: int) -> BraidWord:
    """The 3-strand weaving braid: m repetitions of (sigma_1^-1 sigma_2)."""
    if m < 1:
        raise ValueError("weaving repetition count must be >= 1")
    if 2 * m > WORK_LIMIT:
        raise OverflowError(
            f"weaving braid of {2 * m} letters exceeds the work limit {WORK_LIMIT}"
        )
    return BraidWord(3, (-1, 2) * m)


def _poly_terms(value: LaurentQ) -> list[list[object]]:
    return [[q, str(c)] for q, c in value.terms()]


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused:
    parse_args returns a fresh Namespace each time."""
    ap = argparse.ArgumentParser(
        prog="braidjones",
        description="Exact colored Jones polynomials of braid closures.",
    )
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--braid", help="braid word, e.g. '-1 2 -1 2'")
    src.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        metavar="NAME",
        help="named link: %(choices)s",
    )
    src.add_argument(
        "--weaving", type=int, metavar="M", help="3-strand weaving braid, M repeats"
    )
    ap.add_argument("--strands", type=int, help="strand count for --braid")
    # --n and --model default to None so that --dump-diagram can refuse them.
    ap.add_argument("--n", type=int, help="color (default 1)")
    ap.add_argument(
        "--model",
        choices=["rmatrix", "gl", "both"],
        help="state model; 'both' cross-checks (default)",
    )
    # At most one output mode: --json carries both values, the others one or none.
    out = ap.add_mutually_exclusive_group()
    out.add_argument("--framed", action="store_true", help="framed invariant (default)")
    out.add_argument(
        "--unframed", action="store_true", help="writhe-normalized invariant"
    )
    out.add_argument("--json", action="store_true", help="JSON output")
    out.add_argument("--states", choices=["count", "dump"], help="inspect states")
    out.add_argument(
        "--dump-diagram", action="store_true", help="print the crossing table"
    )
    ap.add_argument("--graph-out", metavar="FILE", help="write transition graph")
    return ap


def run(args: argparse.Namespace) -> int:
    n = 1 if args.n is None else args.n
    model = "both" if args.model is None else args.model
    convention = MINUS if model == "rmatrix" else PLUS
    try:
        if args.preset is not None:
            b = parse(*PRESETS[args.preset])
        elif args.weaving is not None:
            b = weaving_word(args.weaving)
        else:
            b = parse(args.braid, args.strands)
        if not args.dump_diagram:
            check_work(b.strands, n)
            count = state_count(b, n, convention) if args.states == "dump" else 0
            if count > WORK_LIMIT:
                raise OverflowError(f"{count} states exceed the limit {WORK_LIMIT}")
        elif b.strands > WORK_LIMIT:
            raise OverflowError(
                f"{b.strands} strands exceed the work limit {WORK_LIMIT}"
            )
        if args.dump_diagram or args.graph_out or args.states == "dump":
            from .diagram import build

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
    if args.states == "count":
        print(state_count(b, n, convention))
        return 0
    if args.states == "dump":
        from .states import enumerate_states

        states = enumerate_states(d, n, convention)
        for p, colors in sorted(states, key=lambda sc: (sc[0].bases, sc[0].jumps)):
            print(f"beta={list(p.bases)} j={list(p.jumps)} i={list(colors.i)}")
        return 0
    try:
        if args.json:
            framed, count = framed_and_count(b, n, model)
        else:
            framed = colored_jones_framed(b, n, model)
    except ModelMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    unframed = framed * unframing(b, n)
    if args.json:
        doc = {
            "braid": b.text(),
            "strands": b.strands,
            "n": n,
            "model": model,
            "framed": {"terms": _poly_terms(framed)},
            "unframed": {"terms": _poly_terms(unframed)},
            "writhe": b.writhe,
            "components": b.component_count(),
            "state_count": count,
        }
        print(json.dumps(doc))
    else:
        print(unframed if args.unframed else framed)
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        # the two rules a mutually exclusive group cannot state
        if args.strands is not None and args.braid is None:
            ap.error("--strands applies only to --braid")
        given = [f"--{k}" for k in ("n", "model") if getattr(args, k) is not None]
        if args.dump_diagram and given:
            ap.error(f"--dump-diagram takes no {' or '.join(given)}")
        code = run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
