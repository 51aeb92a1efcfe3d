"""The braidjones benchmark.

    python3 perfbench/run.py [--workload corpus|weaving|torus|wide|all]
                             [--seed N] [--seconds S] [--trace 0|1]

For --seconds it runs passes of the workload, each pass in a fresh
interpreter that runs every job of the workload once, one interpreter at a
time, with cold imports and cold caches as a command-line user has them.
Before each pass it also starts SETUP_PROBES interpreters that only import
the program, to time set-up.  Every output is checked outside the timed
region.  Times are reported in calibrated seconds (see README.md).  It
prints each metric by name and unit, the run's context, and as
its last line one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1, where traced passes alternate with untraced ones so that the
tracing overhead can be measured.  Exit status: 0 when every output was
correct, 1 when one was not, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from execute import job_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
TRACE_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0  # a run must end within 180 s whatever --seconds says

# Timings are reported in calibrated seconds; see calibrated() and README.md.
CAL_REF_S = 0.002


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def load_reference() -> dict[str, str]:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["framed_sha256_16"]


def tail_percentile(jobs_per_pass: int) -> int:
    """The highest whole percentile with at least ten jobs above it.

    With ten jobs or fewer no percentile qualifies and the slowest job
    (percentile 100) stands in.
    """
    if jobs_per_pass <= 10:
        return 100
    return math.floor(100 - 1000 / jobs_per_pass)


def nearest_rank(values: list[float], percentile: int) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(percentile * len(ordered) / 100)) - 1]


def _child(mode: str, request: dict | None, timeout: float) -> dict:
    if timeout <= 0:
        raise BenchError(f"out of time before a {mode} child could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, str(SRC)],
            input=json.dumps(request) if request is not None else "",
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {mode} child ran past the {TIME_LIMIT_S:.0f} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"the {mode} child failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    jobs: list | None = None,
    reference: dict[str, str] | None = None,
) -> dict:
    """Run passes for `seconds` and return the summary of the run.

    `jobs` and `reference` default to the workload's jobs for the seed and
    the frozen reference; tests pass smaller or altered ones.
    """
    if not (SRC / "braidjones" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'braidjones'}")
    jobs = [list(job) for job in (jobs if jobs is not None else workloads.jobs(workload, seed))]
    reference = load_reference() if reference is None else reference
    request = {
        "kind": workloads.KIND[workload],
        "jobs": jobs,
        "refs": [reference.get(job_key(job)) for job in jobs],
        "trace": False,
        "trace_out": None,
    }
    if trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[dict] = []
    longest = {False: 0.0, True: 0.0}
    while True:
        traced_next = trace and len(traced) < len(plain)
        for _ in range(SETUP_PROBES):
            remaining = TIME_LIMIT_S - (time.perf_counter() - start)
            setups.append(_child("setup", None, remaining))
        request["trace"] = traced_next
        request["trace_out"] = str(TRACE_DIR / f"trace-{workload}-{seed}.json") if traced_next else None
        began = time.perf_counter()
        result = _child("pass", request, TIME_LIMIT_S - (began - start))
        longest[traced_next] = max(longest[traced_next], time.perf_counter() - began)
        (traced if traced_next else plain).append(result)
        if trace and not traced:
            continue
        traced_next = trace and len(traced) < len(plain)
        projected = time.perf_counter() - start + longest[traced_next]
        if projected > seconds or projected > TIME_LIMIT_S:
            break
    return summarize(workload, seed, jobs, plain, traced, setups)


def calibrated(seconds: float, calibration_s: float) -> float:
    """Seconds scaled to a machine on which the calibration round takes CAL_REF_S."""
    return seconds * CAL_REF_S / calibration_s


def job_seconds(p: dict) -> list[float]:
    """A pass's job times in calibrated seconds, each by its own calibration."""
    return [calibrated(t, c) for t, c in zip(p["job_s"], p["job_calibration_s"])]


def summarize(workload, seed, jobs, plain, traced, setups) -> dict:
    passes = plain + traced
    failures = [
        (jobs[int(index)], reason) for p in passes for index, reason in p["failures"].items()
    ]
    percentile = tail_percentile(len(jobs))
    median = statistics.median
    raw = {
        "wall_s": median(sum(p["job_s"]) for p in plain),
        "job_p50_s": median(median(p["job_s"]) for p in plain),
        "job_tail_s": median(nearest_rank(p["job_s"], percentile) for p in plain),
        "setup_s": median(s["setup_s"] for s in setups),
        "calibration_s": median(s["calibration_s"] for s in passes + setups),
    }
    if traced:
        # Counts are exact and repeat from pass to pass; median_low keeps them whole.
        metrics = {
            name: median(calibrated(p["layers"][name], p["calibration_s"]) for p in traced)
            if name.endswith("_s")
            else statistics.median_low(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        metrics["trace.overhead_ratio"] = median(
            sum(job_seconds(p)) for p in traced
        ) / median(sum(job_seconds(p)) for p in plain)
        metrics = {name: (value, layer_unit(name)) for name, value in metrics.items()}
    else:
        jobs_s = [job_seconds(p) for p in plain]
        metrics = {
            "wall_s": (median(sum(times) for times in jobs_s), "s"),
            "job_p50_s": (median(median(times) for times in jobs_s), "s"),
            "job_tail_s": (median(nearest_rank(times, percentile) for times in jobs_s), "s"),
            "setup_s": (median(calibrated(s["setup_s"], s["calibration_s"]) for s in setups), "s"),
            "peak_rss_mb": (median(p["peak_rss_mb"] for p in plain), "MB"),
        }
    return {
        "workload": workload,
        "seed": seed,
        "jobs": jobs,
        "passes": (len(plain), len(traced)),
        "setup_probes": len(setups),
        "tail_percentile": percentile,
        "attempted": len(jobs) * len(passes),
        "failures": failures,
        "absent": traced[0]["absent"] if traced else [],
        "metrics": metrics,
        "raw": raw,
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "braidjones").glob("*.py"))


def report(summary: dict) -> dict:
    """Print the run for a reader; return the result object."""
    attempted, failed = summary["attempted"], len(summary["failures"])
    plain, traced = summary["passes"]
    print(
        f"workload {summary['workload']}  seed {summary['seed']}  "
        f"{len(summary['jobs'])} jobs per pass  {plain} untraced + {traced} traced passes  "
        f"{summary['setup_probes']} set-up probes"
    )
    for name, (value, unit) in summary["metrics"].items():
        note = ""
        if name == "job_tail_s":
            note = f"  (p{summary['tail_percentile']} of {len(summary['jobs'])} jobs per pass)"
        print(f"  {name:32s} {value if isinstance(value, int) else f'{value:.6g}'} {unit}{note}")
    print(f"  {'failed_ratio':32s} {failed}/{attempted} = {failed / attempted:.6g}")
    raw = "  ".join(f"{name} {value:.6g}" for name, value in summary["raw"].items())
    print(f"  uncalibrated medians (s): {raw}")
    for name in summary["absent"]:
        print(f"  absent hook target: {name} (its layer metrics read 0)")
    for job, reason in summary["failures"][:5]:
        print(f"  FAILED {job}: {reason}", file=sys.stderr)
    context = {
        "src_lines": src_lines(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": summary["seed"],
        "workload": summary["workload"],
        "jobs": summary["jobs"],
    }
    print("context " + json.dumps(context))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in summary["metrics"].items()
        },
    }


def _stop(signum, frame) -> None:
    # Raising here makes subprocess.run kill and reap the running child.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    ap = argparse.ArgumentParser(description="braidjones benchmark")
    ap.add_argument("--workload", choices=[*workloads.NAMES, "all"], default="all")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    names = workloads.NAMES if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        try:
            summary = measure(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result = report(summary)
        print(json.dumps(result), flush=True)
        status = max(status, 0 if result["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
