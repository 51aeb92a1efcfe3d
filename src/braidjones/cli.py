"""Command-line front end.

Computes framed or unframed colored Jones polynomials of braid
closures, counts or dumps contributing states, and dumps diagram tables.
Exit status: 0 on success, 1 when the cross-model check fails or when the
reader of standard output closes it early (no traceback), 2 on usage
errors.
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


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused:
    parse_args returns a fresh Namespace each time."""
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
    # --n and --model default to None so that run can tell an option given
    # to a mode that ignores it from one left out.
    ap.add_argument("--n", type=int, help="color (default 1)")
    ap.add_argument(
        "--model",
        choices=["rmatrix", "gl", "both"],
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
    ap.add_argument("--json", action="store_true", help="JSON output")
    return ap


def _refusal(args: argparse.Namespace) -> str | None:
    """The usage error for options that the requested mode would ignore,
    which are refused rather than dropped silently; None if there are none."""
    if args.dump_diagram:
        mode = "--dump-diagram"
        ignored = {"json", "framed", "unframed", "n", "model", "states"}
    elif args.states is not None:
        mode, ignored = f"--states {args.states}", {"json", "framed", "unframed"}
    elif args.json:
        # the document carries both the framed and the unframed value
        mode, ignored = "--json", {"framed", "unframed"}
    else:
        return None
    given = [
        f"--{name.replace('_', '-')}"
        for name, value in vars(args).items()
        if name in ignored and value not in (None, False)
    ]
    return f"{mode} takes no {' or '.join(given)}" if given else None


def run(args: argparse.Namespace) -> int:
    refusal = _refusal(args)
    if refusal is not None:
        print(f"error: {refusal}", file=sys.stderr)
        return 2
    n = 1 if args.n is None else args.n
    model = "both" if args.model is None else args.model
    convention = MINUS if model == "rmatrix" else PLUS
    try:
        b = _resolve_braid(args)
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
    try:
        code = run(build_parser().parse_args(argv))
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
