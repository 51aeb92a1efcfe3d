"""Run one pass of jobs in this interpreter, time each job, check the outputs.

Jobs reach the program only through its public entry points:
``braidjones.cli.main(argv)`` for the corpus and
``braidjones.colored_jones_framed(parse(text), n)`` for the named families,
always with the default model, which cross-checks the two state models.
Everything after the timed loop (decoding, reference and oracle checks) is
outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import statistics
import time

import tracing

CALIBRATE_EVERY_S = 0.1  # one ~2 ms calibration round per 0.1 s of wall time
MIN_JOB_ROUNDS = 3  # rounds that calibrate one job, borrowed from its neighbours if short


def _calibration_kernel() -> dict[int, int]:
    # A fixed dict-of-ints polynomial product, the shape of the program's hot loop.
    a = {q: 3 * q + 1 for q in range(0, 120, 4)}
    b = {q: q - 7 for q in range(0, 80, 4)}
    out: dict[int, int] = {}
    for q1, c1 in a.items():
        for q2, c2 in b.items():
            out[q1 + q2] = out.get(q1 + q2, 0) + c1 * c2
    return out


def calibration_round(calls: int = 20) -> float:
    """Seconds for `calls` runs of a fixed kernel."""
    start = time.perf_counter()
    for _ in range(calls):
        _calibration_kernel()
    return time.perf_counter() - start


def calibrate(rounds: int = 15) -> float:
    return statistics.median(calibration_round() for _ in range(rounds))


class Calibrator:
    """Calibration rounds every CALIBRATE_EVERY_S of wall time, from a timer signal.

    The machine's speed drifts by up to a fifth over seconds to minutes.
    Rounds interleaved with the jobs, even inside a long job, measure it
    over the same stretch of time; `spent` lets callers take their time out.
    """

    def __init__(self) -> None:
        self.rounds: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.rounds.append(calibration_round())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def job_key(job) -> str:
    strands, text, n = job
    return f"{strands}|{text}|{n}"


def digest(terms: dict[int, int]) -> str:
    """Short hash of a polynomial given as {quarter exponent: coefficient}."""
    text = ";".join(f"{q}:{c}" for q, c in sorted(terms.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cli_argv(job) -> list[str]:
    strands, text, n = job
    return ["--braid", text, "--strands", str(strands), "--n", str(n), "--json"]


def _call_cli(program, job):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = program.cli.main(_cli_argv(job))
    return code, out.getvalue()


def _call_api(program, job):
    strands, text, n = job
    return program.colored_jones_framed(program.parse(text, strands), n)


def run_jobs(program, kind: str, jobs) -> tuple[list[float], list, list[float], float]:
    """Run the jobs in order.

    Returns per-job seconds, raw outputs, per-job calibration and the pass's
    median calibration round.  A raw output is (value, None) or (None, error
    text).  Job seconds exclude the calibration rounds that interrupted the
    job.  A job's calibration is the median of the rounds that ran during it,
    widened to the nearest rounds before and after until there are
    MIN_JOB_ROUNDS.
    """
    call = _call_cli if kind == "cli" else _call_api
    times, outputs, spans = [], [], []
    with Calibrator() as calibrator:
        for job in jobs:
            spent, first = calibrator.spent, len(calibrator.rounds)
            began = time.perf_counter()
            try:
                outputs.append((call(program, job), None))
            except (Exception, SystemExit) as exc:  # a failed job is counted, not fatal
                outputs.append((None, f"{type(exc).__name__}: {exc}"))
            times.append(time.perf_counter() - began - (calibrator.spent - spent))
            spans.append((first, len(calibrator.rounds)))
    rounds = calibrator.rounds + [calibration_round()]
    calibration = []
    for lo, hi in spans:
        while hi - lo < MIN_JOB_ROUNDS and (lo > 0 or hi < len(rounds)):
            lo, hi = max(0, lo - 1), min(len(rounds), hi + 1)
        calibration.append(statistics.median(rounds[lo:hi]))
    return times, outputs, calibration, statistics.median(rounds)


def framed_terms(kind: str, value) -> dict[int, int]:
    """Decode a job's framed polynomial as {quarter exponent: coefficient}."""
    if kind == "cli":
        code, out = value
        if code != 0:
            raise ValueError(f"exit status {code}")
        return {q: int(c) for q, c in json.loads(out)["framed"]["terms"]}
    return dict(value.terms())


def oracle_agrees(program, strands: int, text: str, framed: dict[int, int]) -> bool:
    """Compare an n = 1 framed value with the Kauffman-bracket oracle.

    The sign law is the one tests/test_acceptance.py freezes: the unframed
    value equals the oracle with t -> 1/t, negated for an even number of
    components.
    """
    braid = program.BraidWord(strands, tuple(int(k) for k in text.split()))
    unframed = {q + 3 * braid.writhe: c for q, c in framed.items()}
    sign = 1 if braid.component_count() % 2 else -1
    oracle = {-q: sign * c for q, c in program.kauffman_jones(braid).terms()}
    return unframed == oracle


def check(program, kind: str, jobs, outputs, refs) -> tuple[dict[int, str], int]:
    """Return ({job index: failure reason}, largest coefficient bit length).

    Every job is checked against its frozen reference digest when one
    exists.  Every braid is checked against the oracle at n = 1: the corpus
    through its own n = 1 jobs, the named families through one extra n = 1
    command-line run per braid.
    """
    failures: dict[int, str] = {}
    bits = 0
    for index, (job, (value, error), ref) in enumerate(zip(jobs, outputs, refs)):
        if error is not None:
            failures[index] = error
            continue
        try:
            terms = framed_terms(kind, value)
        except (ValueError, KeyError) as exc:
            failures[index] = f"unreadable output: {exc}"
            continue
        bits = max([bits] + [abs(c).bit_length() for c in terms.values()])
        strands, text, n = job
        if ref is not None and digest(terms) != ref:
            failures[index] = "framed value differs from the reference"
        elif kind == "cli" and n == 1 and not oracle_agrees(program, strands, text, terms):
            failures[index] = "n = 1 value differs from the bracket oracle"
    if kind != "cli":
        for strands, text in sorted({(s, t) for s, t, _ in jobs}):
            probe = (strands, text, 1)
            try:
                ok = oracle_agrees(
                    program, strands, text, framed_terms("cli", _call_cli(program, probe))
                )
            except (Exception, SystemExit) as exc:  # a crash fails the braid's jobs
                ok, reason = False, f"n = 1 probe: {type(exc).__name__}: {exc}"
            else:
                reason = "n = 1 value differs from the bracket oracle"
            if not ok:
                for index, job in enumerate(jobs):
                    if job[:2] == (strands, text):
                        failures.setdefault(index, reason)
    return failures, bits


def run_pass(program, request: dict) -> dict:
    """One pass: the timed jobs, then the checks, traced when asked."""
    jobs = [tuple(job) for job in request["jobs"]]
    tracer = tracing.Tracer() if request["trace"] else None
    if tracer:
        tracer.install()
    try:
        times, outputs, job_calibration, calibration = run_jobs(
            program, request["kind"], jobs
        )
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failures, bits = check(program, request["kind"], jobs, outputs, request["refs"])
    finally:
        if tracer:
            tracer.uninstall()
    result = {
        "calibration_s": calibration,
        "job_calibration_s": job_calibration,
        "job_s": times,
        "peak_rss_mb": peak_kb / 1024,
        "failures": {str(i): reason for i, reason in failures.items()},
    }
    if tracer:
        result["layers"] = {**tracer.metrics(), "qalgebra.max_coeff_bits": bits}
        result["absent"] = tracer.absent
        if request.get("trace_out"):
            tracer.write(request["trace_out"])
    return result
