"""invharm benchmark: closed-loop CLI jobs with an independent output check.

Usage (from the repository root):

    python3 perfbench/run.py --workload evolve_dense --seed 1 --seconds 30 --trace 0

One client runs the seeded job list of the workload through
``invharm.cli.main(argv)`` in this process; the next job starts only when
the previous one has finished.  Every output is checked by ``oracle.py``.
With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it runs a fixed prefix of the same job list twice, untraced
and then traced, and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Job outputs and span files go to ``.perfbench_work/`` under the
repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_JOBS = 100  # so that at least 10 jobs lie beyond p90
BLOCK = 8  # job counts are multiples of 8, the me_oracle kind cycle
# A run is a fixed job list, so that a parent and a change execute the
# same work: this many jobs per second of --seconds, sized so that a run
# takes about --seconds of job time at the seed commit on a 2-core x86 box.
JOBS_PER_SECOND = {"evolve_dense": 4.0, "me_oracle": 3.5, "scan_sweep": 3.5}
# Client-side deadline: a job still running after this long is stopped
# and counts as failed.  Successful jobs stay far below it.
DEADLINE_S = 2.0
# No job starts later than this after the run began, so that a run ends
# within three minutes even if the program slows down badly.
WALL_CAP_S = 120.0
WARMUP_JOBS = 3
SETUP_REPEATS = 3
# A traced job stops after tracing.RHS_CAP right-hand-side evaluations,
# or after this long for a job the cap does not stop.
TRACE_DEADLINE_S = 10.0

END_TO_END = (
    ("rows_per_s", "rows/s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("pass_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import invharm.cli
invharm.cli.load_config(sys.argv[2])
print("ready", flush=True)
"""


def _on_alarm(signum, frame):
    raise tracing.JobStopped("deadline")


class Result:
    """Outcome of one job; ``problems`` and ``bytes`` are filled in by
    ``Runner.check``."""

    def __init__(self, job, seconds, status, out: Path):
        self.job = job
        self.seconds = seconds
        self.status = status  # exit code, "stopped", "not started" or an exception name
        self.out = out
        self.problems = []
        self.bytes = 0

    @property
    def passed(self) -> bool:
        return self.status == 0 and not self.problems

    @property
    def wrong(self) -> bool:
        """Exited 0 but the output failed the check."""
        return self.status == 0 and bool(self.problems)

    @property
    def finished(self) -> bool:
        """Ran to its end, not stopped by the client."""
        return self.status not in ("stopped", "not started")

    @property
    def latency(self) -> float:
        """Seconds for a passed job.  A failed job ranks above every passed
        one, as if infinite: it reads as the deadline plus its own time."""
        return self.seconds if self.passed else DEADLINE_S + self.seconds


class Runner:
    """Runs jobs back to back, each writing to its own output directory;
    ``check`` runs the oracle afterwards, outside the timed loop (scipy's
    expm leaves a BLAS worker spinning that would slow the next job)."""

    def __init__(self, cli, work: Path, seed: int):
        self.cli = cli
        self.work = work
        self.seed = seed
        self.deadline = DEADLINE_S
        self.on_job = None  # called with the job index before each job
        self.runs = 0

    def run(self, job) -> Result:
        self.runs += 1
        if self.on_job is not None:
            self.on_job(job.index)
        out = self.work / f"out{self.runs:05d}"
        config = self.work / "config.json"
        config.write_text(json.dumps(job.config), encoding="utf-8")
        os.environ["INVHARM_THREADS"] = str(job.threads)
        argv = job.argv(str(config), str(out))
        sink = io.StringIO()
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            signal.setitimer(signal.ITIMER_REAL, self.deadline)
            start = time.perf_counter()
            try:
                status = self.cli.main(argv)
            except tracing.JobStopped:
                status = "stopped"
            except SystemExit as exc:  # argparse rejects a command line this way
                status = exc.code
            except Exception as exc:  # a crash is a failed job, not a failed run
                status = type(exc).__name__
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                seconds = time.perf_counter() - start
                signal.signal(signal.SIGALRM, previous)
        return Result(job, seconds, status, out)

    def check(self, results) -> None:
        """Oracle-check each successful job's output, then delete it."""
        for r in results:
            if r.status == 0:
                rng = np.random.default_rng([self.seed, r.job.index])
                r.problems = oracle.check_job(r.job, str(r.out), rng)
            if r.out.is_dir():
                r.bytes = sum(f.stat().st_size for f in r.out.iterdir())
                shutil.rmtree(r.out)


def measure_setup(config_path: Path, repeats: int) -> float:
    """Median seconds from starting a fresh interpreter to it having
    imported ``invharm.cli`` and loaded one config."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(config_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        with proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("setup probe did not become ready")
    return statistics.median(times)


def quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def job_count(workload: str, seconds: float, min_jobs: int = MIN_JOBS) -> int:
    wanted = max(min_jobs, seconds * JOBS_PER_SECOND[workload])
    return BLOCK * math.ceil(wanted / BLOCK)


def closed_loop(runner: Runner, jobs, began: float) -> tuple[list[Result], float]:
    """Run the jobs one after another.  Jobs not started within WALL_CAP_S
    of ``began`` count as failed, so a run ends in bounded time whatever
    the program does."""
    results = []
    for job in jobs:
        if time.perf_counter() - began > WALL_CAP_S:
            results.append(Result(job, 0.0, "not started", runner.work / "none"))
        else:
            results.append(runner.run(job))
    return results, sum(r.seconds for r in results)


def end_to_end(results, busy: float, setup_s: float) -> dict:
    passed_rows = sum(r.job.rows for r in results if r.passed)
    latencies = [r.latency for r in results]
    values = {
        "rows_per_s": passed_rows / busy,
        "job_p50_s": quantile(latencies, 0.50),
        "job_p90_s": quantile(latencies, 0.90),
        "pass_frac": sum(r.passed for r in results) / len(results),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def traced_pass(runner: Runner, jobs, began: float):
    tracer = tracing.Tracer()
    runner.deadline = TRACE_DEADLINE_S
    runner.on_job = tracer.begin_job
    tracer.install()
    try:
        results, _ = closed_loop(runner, jobs, began)
    finally:
        tracer.uninstall()
        runner.deadline = DEADLINE_S
        runner.on_job = None
    tracer.scan_workers = [
        (job.index, min(job.threads, len(job.values))) for job in jobs if job.command == "scan"
    ]
    return tracer, results


def paired_seconds(untraced, traced) -> tuple[float, float]:
    """Job seconds of the untraced and the traced pass over the jobs that
    ran to their end in both: the passes stop jobs by different rules, so
    a job stopped in either did different work in each."""
    kept = [(u.seconds, t.seconds) for u, t in zip(untraced, traced) if u.finished and t.finished]
    return sum(u for u, _ in kept), sum(t for _, t in kept)


def report(metrics: dict, results) -> None:
    failed = sum(not r.passed for r in results)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':40s} {failed / len(results):.6g} ratio ({failed} of {len(results)} jobs)")
    by_status = {}
    for r in results:
        if not r.passed:
            key = "oracle" if r.wrong else str(r.status)
            by_status[key] = by_status.get(key, 0) + 1
    if by_status:
        print("failures by exit status:", json.dumps(by_status, sort_keys=True))
    for r in results:
        if r.wrong:
            print(f"wrong output, job {r.job.index} ({r.job.command}): {r.problems[:3]}")


def run_workload(cli, workload: str, seed: int, seconds: float, trace: int,
                 min_jobs: int = MIN_JOBS, setup_repeats: int = SETUP_REPEATS):
    """One benchmark run: (results, metrics).  Job outputs are written under
    a scratch directory that is removed at the end."""
    began = time.perf_counter()
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(cli, work, seed)
        warmup = workloads.JobStream(workload, seed, stream=1).take(WARMUP_JOBS)
        for job in warmup:
            runner.run(job)
        probe = work / "setup_config.json"
        probe.write_text(json.dumps(warmup[0].config), encoding="utf-8")
        setup_s = measure_setup(probe, setup_repeats)
        jobs = workloads.JobStream(workload, seed)

        if trace == 0:
            results, busy = closed_loop(runner, jobs.take(job_count(workload, seconds, min_jobs)), began)
            runner.check(results)
            return results, end_to_end(results, busy, setup_s)

        job_list = jobs.take(BLOCK * max(1, math.ceil(seconds / BLOCK)))
        untraced, _ = closed_loop(runner, job_list, began)
        tracer, traced = traced_pass(runner, job_list, began)
        runner.check(untraced + traced)
        tracer.counts["bytes_written"] = sum(r.bytes for r in traced)
        metrics = tracer.metrics(*paired_seconds(untraced, traced))
        spans = WORK / "traces" / f"{workload}-seed{seed}.npz"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.save(str(spans))
        print(f"spans written to {spans.relative_to(ROOT)}")
        return untraced + traced, metrics
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summary(results, metrics: dict) -> dict:
    """The result object printed as the last line of output."""
    return {
        "correct": not any(r.wrong for r in results),
        "attempted": len(results),
        "failed": sum(not r.passed for r in results),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "invharm" / "cli.py").is_file():
        print(f"no invharm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import invharm.cli as cli

    results, metrics = run_workload(cli, args.workload, args.seed, args.seconds, args.trace)
    report(metrics, results)
    print(json.dumps(summary(results, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
