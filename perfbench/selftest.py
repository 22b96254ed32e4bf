"""Fast self-test of the benchmark (about a minute on two cores).

    python3 perfbench/selftest.py

1. Runs every workload at a tiny size, untraced and traced, and checks
   that the metric names it prints are exactly those in BENCHMARK.json.
2. Confirms the oracle passes genuine outputs and flags deliberately
   corrupted ones (a moment on the last and on an early row, an A2 value,
   a master-equation moment, three coefficients, the scan index order, a
   failed verify report).
3. Confirms the benchmark exits non-zero, printing no result, in a
   directory that holds only BENCHMARK.json and the benchmark files.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np

import oracle
import run
import workloads

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        FAILURES.append(what)


def check_metric_names(cli, spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = [m["name"] for m in spec[key]]
        units = {m["name"]: m["unit"] for m in spec[key]}
        for workload in workloads.WORKLOADS:
            results, metrics = run.run_workload(
                cli, workload, seed=7, seconds=1, trace=trace, min_jobs=run.BLOCK, setup_repeats=1
            )
            line = json.loads(json.dumps(run.summary(results, metrics)))
            expect(
                sorted(line) == ["attempted", "correct", "failed", "metrics"]
                and line["attempted"] >= 1,
                f"{workload} trace={trace}: result object has the four keys",
            )
            got = line["metrics"]
            expect(sorted(got) == sorted(wanted), f"{workload} trace={trace}: metric names match {key}")
            expect(
                all(got[n]["unit"] == units[n] for n in wanted if n in got),
                f"{workload} trace={trace}: metric units match {key}",
            )
            expect(line["correct"], f"{workload} trace={trace}: no wrong outputs")


def run_one(cli, jobs, work):
    """(job, output directory) of the first of ``jobs`` that succeeds."""
    work.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(cli, work, seed=7)
    for job in jobs:
        result = runner.run(job)
        if result.status == 0:
            return job, result.out
    raise RuntimeError("no job succeeded")


def rng():
    return np.random.default_rng(11)


def corrupted(job, out, csv: str, row: int, edit) -> list[str]:
    """Oracle problems after ``edit`` changes the cells (a dict by column)
    of one data row of ``csv``; the file is restored afterwards."""
    path = out / csv
    original = path.read_text(encoding="utf-8")
    lines = original.splitlines()
    header = lines[0].split(",")
    cells = dict(zip(header, lines[row + 1].split(",")))
    edit(cells)
    lines[row + 1] = ",".join(cells[c] for c in header)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        return oracle.check_job(job, str(out), rng())
    finally:
        path.write_text(original, encoding="utf-8")


def scaled(column: str, factor: float):
    def edit(cells):
        cells[column] = repr(float(cells[column]) * factor)
    return edit


def check_oracle_flags(cli) -> None:
    work = run.WORK / "selftest-oracle"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        evolve, out = run_one(cli, [workloads.JobStream("evolve_dense", 7).job(0)], work / "evolve")
        expect(oracle.check_job(evolve, str(out), rng()) == [], "oracle passes a genuine evolve.csv")
        samples = evolve.config["grid"]["samples"]
        early = oracle.sample_rows(samples, rng())[0]
        expect(corrupted(evolve, out, "evolve.csv", samples - 1, scaled("dx2", 1 + 1e-6)) != [],
               "oracle flags dx2 off by 1e-6 relative on the last row")
        expect(corrupted(evolve, out, "evolve.csv", early, scaled("dx2", 1 + 1e-6)) != [],
               "oracle flags dx2 off by 1e-6 relative on an early row")
        expect(corrupted(evolve, out, "evolve.csv", 5, lambda c: c.update(A2="0.5")) != [],
               "oracle flags an A2 below 1")

        me = workloads.JobStream("me_oracle", 7)
        block = range(len(workloads.ME_KINDS))  # free of the known defects
        compare, out = run_one(cli, [me.job(i) for i in block if workloads.ME_KINDS[i] == "compare"], work / "compare")
        expect(oracle.check_job(compare, str(out), rng()) == [], "oracle passes a genuine compare evolve.csv")

        def me_off(cells):
            cells["dx2_me"] = repr(float(cells["dx2_me"]) * (1 + 1e-5))
            exact = [float(cells[c]) for c in oracle.MOMENT_COLUMNS]
            got = [float(cells[c]) for c in oracle.ME_COLUMNS]
            cells["rel_err_max"] = repr(max(abs(a - b) / max(abs(a), 1.0) for a, b in zip(exact, got)))

        expect(corrupted(compare, out, "evolve.csv", 1, me_off) != [],
               "oracle flags dx2_me off by 1e-5 relative before the first root")

        coeffs, out = run_one(cli, [me.job(i) for i in block if workloads.ME_KINDS[i] == "coeffs"], work / "coeffs")
        expect(oracle.check_job(coeffs, str(out), rng()) == [], "oracle passes a genuine coeffs.csv")
        header, data = oracle.read_csv(str(out / "coeffs.csv"))
        modes = oracle.read_json(str(out / "coeffs.meta.json"))["config"]["modes"]
        env_cov = oracle.squeezed_cov(coeffs.config["environment"], 1.0)
        want, scale = oracle.expected_coeffs(*oracle.transitions(modes, data[:, 0]), modes, env_cov)
        for column in ("omega_eff_sq", "f1", "f2_qq"):
            share = np.divide(np.abs(want[column]), scale[column], out=np.zeros(len(data)), where=scale[column] > 0)
            row = int(np.argmax(share))
            expect(corrupted(coeffs, out, "coeffs.csv", row, scaled(column, 1 + 1e-6)) != [],
                   f"oracle flags {column} off by 1e-6 relative")

        scan, out = run_one(
            cli, [j for j in map(workloads.JobStream("scan_sweep", 7).job, range(64)) if j.threads == 2], work / "scan"
        )
        expect(oracle.check_job(scan, str(out), rng()) == [], "oracle passes a genuine scan")
        index_path = out / "scan_index.json"
        index = json.loads(index_path.read_text(encoding="utf-8"))
        index["runs"][0], index["runs"][1] = index["runs"][1], index["runs"][0]
        index_path.write_text(json.dumps(index), encoding="utf-8")
        expect(oracle.check_job(scan, str(out), rng()) != [], "oracle flags scan runs out of input order")

        verify_dir = work / "verify"
        verify_dir.mkdir()
        report = {"pass": False, "checks": {"oracle": {"pass": False}}}
        (verify_dir / "verify.json").write_text(json.dumps(report), encoding="utf-8")
        verify = workloads.Job(0, "verify", evolve.config)
        expect(oracle.check_job(verify, str(verify_dir), rng()) != [], "oracle flags pass: false")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_fails_without_sources() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for f in run.HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench" / f.name)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "evolve_dense",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        expect(
            proc.returncode != 0 and proc.stdout.strip() == "",
            "exits non-zero and prints no result without the program sources",
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import invharm.cli as cli

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_oracle_flags(cli)
    check_fails_without_sources()
    check_metric_names(cli, spec)
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
