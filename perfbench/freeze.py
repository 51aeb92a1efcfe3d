"""Write reference.json: a digest of the framed value of every job at the
default seed, computed with the default model, which cross-checks the two
state models, and with every n = 1 value checked against the bracket oracle.

    python3 perfbench/freeze.py

Freeze only from a commit whose outputs are known to be right; the
benchmark then holds every later commit to these values.
"""

from __future__ import annotations

import json
import sys

import workloads
from execute import digest, job_key, oracle_agrees
from run import REFERENCE, SRC


def main() -> None:
    sys.path.insert(0, str(SRC))
    import braidjones

    values = {}
    for name in workloads.NAMES:
        for job in workloads.jobs(name, workloads.DEFAULT_SEED):
            strands, text, n = job
            framed = braidjones.colored_jones_framed(braidjones.parse(text, strands), n)
            terms = dict(framed.terms())
            if n == 1 and not oracle_agrees(braidjones, strands, text, terms):
                raise SystemExit(f"{job}: n = 1 value differs from the bracket oracle")
            values[job_key(job)] = digest(terms)
    doc = {"seed": workloads.DEFAULT_SEED, "framed_sha256_16": dict(sorted(values.items()))}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0)
        fh.write("\n")
    print(f"wrote {len(values)} reference digests to {REFERENCE}")


if __name__ == "__main__":
    main()
