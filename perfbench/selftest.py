"""Tests of the benchmark itself, on tiny job lists.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

The file name keeps the repository's own test run from collecting it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import execute
import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_jobs(workload: str) -> list:
    jobs = workloads.jobs(workload, workloads.DEFAULT_SEED)
    if workload == "corpus":
        return jobs[:6]
    return [min(jobs, key=lambda job: (len(job[1]), job[2]))]


def metric_units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


class TinyRuns(unittest.TestCase):
    def test_every_workload_untraced_and_traced(self):
        for workload in workloads.NAMES:
            for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    summary = run.measure(workload, workloads.DEFAULT_SEED, 0, trace, tiny_jobs(workload))
                    self.assertEqual(summary["failures"], [])
                    self.assertEqual(summary["absent"], [])
                    units = {name: unit for name, (_, unit) in summary["metrics"].items()}
                    self.assertEqual(units, metric_units(kind))

    def test_exact_counts_repeat(self):
        jobs = tiny_jobs("weaving")
        first, second = (
            run.measure("weaving", workloads.DEFAULT_SEED, 0, True, jobs)["metrics"] for _ in range(2)
        )
        for name, (value, unit) in first.items():
            if unit in ("count", "bits"):
                self.assertEqual(value, second[name][0], name)

    def test_corrupted_reference_fails_jobs(self):
        jobs = tiny_jobs("corpus")
        reference = run.load_reference()
        key = execute.job_key(jobs[0])
        reference[key] = "0" * 16
        summary = run.measure("corpus", workloads.DEFAULT_SEED, 0, False, jobs, reference)
        self.assertEqual([tuple(job) for job, _ in summary["failures"]], [jobs[0]])
        self.assertFalse(run.report(summary)["correct"])

    def test_default_seed_jobs_all_have_references(self):
        reference = run.load_reference()
        for workload in workloads.NAMES:
            for job in workloads.jobs(workload, workloads.DEFAULT_SEED):
                self.assertIn(execute.job_key(job), reference)

    def test_tail_percentile_leaves_ten_jobs_beyond(self):
        for jobs in (11, 20, 100, 576, 600):
            rank = run.nearest_rank(list(range(jobs)), run.tail_percentile(jobs))
            self.assertGreaterEqual(jobs - 1 - rank, 10)
        self.assertEqual(run.tail_percentile(4), 100)


class Hooks(unittest.TestCase):
    def setUp(self):
        sys.path.insert(0, str(run.SRC))
        import braidjones

        self.program = braidjones

    def tearDown(self):
        sys.path.remove(str(run.SRC))

    def test_missing_target_is_absent_and_values_unchanged(self):
        job = (3, "-1 2 -1 2", 2)
        _, [(plain, _)], _, _ = execute.run_jobs(self.program, "api", [job])
        hooks = dict(tracing.HOOKS)
        hooks["statesum.sweep"] = [("braidjones.statesum", "sweep_total")]
        hooks["sweep.layer"] = [("braidjones.sweep", "sweep")]
        tracer = tracing.Tracer(hooks)
        tracer.install()
        try:
            _, [(traced, error)], _, _ = execute.run_jobs(self.program, "api", [job])
            metrics = tracer.metrics()
        finally:
            tracer.uninstall()
        self.assertIsNone(error)
        self.assertEqual(traced, plain)
        self.assertEqual(tracer.absent, ["statesum.sweep", "sweep.layer"])
        self.assertGreater(metrics["states.states_gl"], 0)
        self.assertGreater(metrics["qalgebra.mul_calls"], 0)
        self.assertFalse(hasattr(self.program.colored_jones_framed, "__wrapped__"))


class Checkout(unittest.TestCase):
    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / run.HERE.name)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "torus", "--seconds", "1"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
