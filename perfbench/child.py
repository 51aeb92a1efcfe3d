"""Entry point of the fresh interpreter that run.py starts for each sample.

    python3 perfbench/child.py setup SRC   import the program, print setup_s
    python3 perfbench/child.py pass SRC    run the JSON request on stdin

Only os, sys and time are loaded before the program is imported, so the
measured import time is what a command-line user pays.
"""

import os
import sys
import time


def import_program(src: str):
    """Import braidjones from SRC; return the package and the seconds taken."""
    sys.path.insert(0, src)
    start = time.perf_counter()
    import braidjones
    import braidjones.cli  # noqa: F401  (the command-line layer is part of set-up)

    elapsed = time.perf_counter() - start
    expected = os.path.realpath(os.path.join(src, "braidjones", "__init__.py"))
    if os.path.realpath(braidjones.__file__) != expected:
        raise SystemExit(f"braidjones was imported from {braidjones.__file__}, not {src}")
    return braidjones, elapsed


def main() -> None:
    mode, src = sys.argv[1], sys.argv[2]
    program, setup_s = import_program(src)
    import json

    import execute

    if mode == "setup":
        result = {"setup_s": setup_s, "calibration_s": execute.calibrate()}
    else:
        result = execute.run_pass(program, json.loads(sys.stdin.read()))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
