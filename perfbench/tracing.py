"""Spans and counts recorded from outside the program.

``Tracer.install`` replaces each public function of the invharm layer
modules, in every module namespace that binds it, by a wrapper recorded
under the name its caller looks up (``invharm.evolution.full_transition``,
``invharm.propagator.gkernels``, ...).  A wrapper records one span (name,
start, end, parent, job id) in flat arrays; spans stay in memory until the
run ends.  Worker threads of the CLI scan pool have no open span of their
own, so their spans hang under the span open on the main thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
from array import array
from collections import Counter
from time import perf_counter, thread_time

import numpy as np

LAYERS = ("modes", "propagator", "coefficients", "gaussian", "evolution", "analysis", "cli")
# Entry points of the CLI layer that are not in ``invharm.cli.__all__``.
CLI_FUNCTIONS = ("main", "load_config", "cmd_coeffs", "cmd_evolve", "cmd_scan", "cmd_verify", "_scan_one")
# Self time of these is row formatting plus file writing (cmd_verify is
# excluded: its self time is the dual-formula sampling loop).
EMIT_FUNCTIONS = ("cli.cmd_coeffs", "cli.cmd_evolve", "cli.cmd_scan", "cli._scan_one")
MINOR_FUNCTIONS = ("propagator.dtilde", "propagator.det_m1", "propagator.cross_block")
# A traced job stops after this many master-equation right-hand-side
# evaluations, so that traced counts repeat exactly; passing jobs need far
# fewer.
RHS_CAP = 40_000

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("modes.gkernels.calls_per_row", "count"),
    ("modes.gkernels.self_s", "s"),
    ("propagator.self_s", "s"),
    ("propagator.full_transition.self_s", "s"),
    ("propagator.minors.self_s", "s"),
    ("propagator.dtilde.calls", "count"),
    ("gaussian.self_s", "s"),
    ("gaussian.propagate.calls", "count"),
    ("gaussian.diagnostics_from_area.self_s", "s"),
    ("evolution.run_exact.self_s", "s"),
    ("evolution.run_me.self_s", "s"),
    ("evolution.solve_ivp.self_s", "s"),
    ("evolution.rhs_evals", "count"),
    ("evolution.rhs_evals_per_row", "count"),
    ("evolution.solve_ivp.calls_per_segment", "count"),
    ("evolution.bridged_rows", "count"),
    ("coefficients.coeffs_general.calls", "count"),
    ("coefficients.coeffs_general.self_s", "s"),
    ("coefficients.coeffs_closed.calls", "count"),
    ("coefficients.coeffs_closed.self_s", "s"),
    ("analysis.find_divergences.self_s", "s"),
    ("analysis.dtilde_evals", "count"),
    ("analysis.fit_entropy_line.self_s", "s"),
    ("cli.load_config.self_s", "s"),
    ("cli.emit.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("cli.scan.worker_busy_s", "s"),
    ("cli.scan.parallel_efficiency", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _targets():
    """{function: "layer.name"} for every function the tracer wraps."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"invharm.{layer}")
        names = CLI_FUNCTIONS if layer == "cli" else mod.__all__
        for name in names:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                found[fn] = f"{layer}.{name}"
    evolution = importlib.import_module("invharm.evolution")
    found[evolution.solve_ivp] = "evolution.solve_ivp"
    return found


class JobStopped(BaseException):
    """Raised inside a job to stop it (deadline or work cap).

    A BaseException, so the program's own ``except`` clauses let it pass."""


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # "caller:layer.func" per name id
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.job_id = -1
        self.counts = Counter()
        self.segments = set()  # (run_me span, t0, t1) of each solve_ivp call
        self.scan_workers = []  # per scan job: (job id, pool workers)
        self._job_rhs = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name_id: int, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else -1
            with tracer._lock:
                sid = len(tracer.name)
                tracer.name.append(name_id)
                tracer.parent.append(parent)
                tracer.job.append(tracer.job_id)
                tracer.end.append(0.0)
                tracer.start.append(perf_counter())
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(parent, args, result)
            return result

        return traced

    def _cpu_timed(self, fn):
        """Adds the CPU time of the calling thread inside ``fn`` to
        ``counts["scan_cpu_s"]``: a pool worker waiting for the interpreter
        lock is not busy."""
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = thread_time() - start
                with tracer._lock:
                    tracer.counts["scan_cpu_s"] += spent

        return timed

    def begin_job(self, job_id: int):
        self.job_id = job_id
        self._job_rhs = 0

    def _observe_coeffs_general(self, parent, args, coeffs):
        if parent >= 0 and self.names[self.name[parent]].endswith(":evolution.solve_ivp"):
            self._job_rhs += 1
            if self._job_rhs > RHS_CAP:
                raise JobStopped(f"more than {RHS_CAP} right-hand-side evaluations")

    def _observe_run_exact(self, parent, args, traj):
        with self._lock:  # scan pool threads call run_exact concurrently
            self.counts["run_exact.rows"] += len(traj.times)

    def _observe_run_me(self, parent, args, traj):
        self.counts["run_me.rows"] += len(traj.times)
        self.counts["bridged_rows"] += int(np.count_nonzero(traj.bridged))

    def _observe_solve_ivp(self, parent, args, sol):
        t0, t1 = args[1]
        self.segments.add((parent, float(t0), float(t1)))

    def install(self):
        """Patch every namespace binding of every traced function."""
        self._local.stack = self._main_stack
        observers = {
            "coefficients.coeffs_general": self._observe_coeffs_general,
            "evolution.run_exact": self._observe_run_exact,
            "evolution.run_me": self._observe_run_me,
            "evolution.solve_ivp": self._observe_solve_ivp,
        }
        targets = _targets()
        for layer in LAYERS:
            mod = importlib.import_module(f"invharm.{layer}")
            for attr, value in list(vars(mod).items()):
                key = targets.get(value) if callable(value) else None
                if key is None:
                    continue
                self.names.append(f"{layer}:{key}")
                wrapper = self._wrap(value, len(self.names) - 1, observers.get(key))
                if key == "cli._scan_one":
                    wrapper = self._cpu_timed(wrapper)
                self._patches.append((mod, attr, value))
                setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
        }

    def save(self, path: str):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def metrics(self, untraced_s: float, traced_s: float) -> dict:
        """Every per-layer metric of PER_LAYER from the recorded spans;
        the tracing overhead compares the job seconds of the same jobs run
        untraced and traced."""
        a = self.arrays()
        self_s = self_times(a["start"], a["end"], a["parent"])
        dur = a["end"] - a["start"]
        keyed = [name.split(":") for name in self.names]

        def spans_where(pred):
            ids = [i for i, (caller, key) in enumerate(keyed) if pred(caller, key)]
            return np.isin(a["name"], ids)

        def sel(*keys):
            return spans_where(lambda caller, key: key in keys)

        def self_sum(*keys):
            return float(self_s[sel(*keys)].sum())

        def calls(*keys):
            return int(np.count_nonzero(sel(*keys)))

        def layer_self(layer):
            return float(self_s[spans_where(lambda c, key: key.startswith(layer + "."))].sum())

        under_exact = _descends_from(a["parent"], sel("evolution.run_exact"))
        under_solver = a["parent"] >= 0
        under_solver[under_solver] = sel("evolution.solve_ivp")[a["parent"][under_solver]]
        rhs_evals = int(np.count_nonzero(under_solver & sel("coefficients.coeffs_general")))
        solver_calls = calls("evolution.solve_ivp")
        segments = len(self.segments)

        scan_busy = self.counts["scan_cpu_s"]
        scan_capacity = 0.0
        scan_spans = np.flatnonzero(sel("cli.cmd_scan"))
        workers = dict(self.scan_workers)
        for sid in scan_spans:
            scan_capacity += dur[sid] * workers.get(int(a["job"][sid]), 1)

        exact_rows = self.counts["run_exact.rows"]
        me_rows = self.counts["run_me.rows"]
        gk_exact = int(np.count_nonzero(under_exact & sel("modes.gkernels")))
        values = {
            "modes.gkernels.calls_per_row": _ratio(gk_exact, exact_rows),
            "modes.gkernels.self_s": self_sum("modes.gkernels"),
            "propagator.self_s": layer_self("propagator"),
            "propagator.full_transition.self_s": self_sum("propagator.full_transition"),
            "propagator.minors.self_s": self_sum(*MINOR_FUNCTIONS),
            "propagator.dtilde.calls": calls("propagator.dtilde"),
            "gaussian.self_s": layer_self("gaussian"),
            "gaussian.propagate.calls": calls("gaussian.propagate"),
            "gaussian.diagnostics_from_area.self_s": self_sum("gaussian.diagnostics_from_area"),
            "evolution.run_exact.self_s": self_sum("evolution.run_exact"),
            "evolution.run_me.self_s": self_sum("evolution.run_me"),
            "evolution.solve_ivp.self_s": self_sum("evolution.solve_ivp"),
            "evolution.rhs_evals": rhs_evals,
            "evolution.rhs_evals_per_row": _ratio(rhs_evals, me_rows),
            "evolution.solve_ivp.calls_per_segment": _ratio(solver_calls, segments),
            "evolution.bridged_rows": self.counts["bridged_rows"],
            "coefficients.coeffs_general.calls": calls("coefficients.coeffs_general"),
            "coefficients.coeffs_general.self_s": self_sum("coefficients.coeffs_general"),
            "coefficients.coeffs_closed.calls": calls("coefficients.coeffs_closed"),
            "coefficients.coeffs_closed.self_s": self_sum("coefficients.coeffs_closed"),
            "analysis.find_divergences.self_s": self_sum("analysis.find_divergences"),
            "analysis.dtilde_evals": int(
                np.count_nonzero(
                    spans_where(lambda c, key: c == "analysis" and key == "propagator.dtilde")
                )
            ),
            "analysis.fit_entropy_line.self_s": self_sum("analysis.fit_entropy_line"),
            "cli.load_config.self_s": self_sum("cli.load_config"),
            "cli.emit.self_s": self_sum(*EMIT_FUNCTIONS),
            "cli.bytes_written": self.counts["bytes_written"],
            "cli.scan.worker_busy_s": scan_busy,
            "cli.scan.parallel_efficiency": _ratio(scan_busy, scan_capacity),
            "trace.overhead_s": traced_s - untraced_s,
            "trace.overhead_frac": _ratio(traced_s - untraced_s, untraced_s),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def _descends_from(parent: np.ndarray, mark: np.ndarray) -> np.ndarray:
    """Spans with an ancestor in ``mark``, found one tree level per pass."""
    has_parent = parent >= 0
    up = np.where(has_parent, parent, 0)
    inside = has_parent & mark[up]
    while True:
        deeper = inside | (has_parent & inside[up])
        if np.array_equal(deeper, inside):
            return inside
        inside = deeper


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Children on one thread are disjoint, so their durations add up; the
    children of a scan are pool tasks that overlap, so their covered time
    is the union of their intervals.
    """
    dur = end - start
    n = len(dur)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=n)
    kids = np.flatnonzero(child)
    order = kids[np.lexsort((start[kids], parent[kids]))]
    p = parent[order]
    same = p[1:] == p[:-1]
    overlap = same & (start[order][1:] < end[order][:-1])
    for q in np.unique(p[1:][overlap]):
        spans = order[p == q]
        union, reach = 0.0, -np.inf
        for s, e in zip(start[spans], end[spans]):
            s = max(s, reach)
            if e > s:
                union += e - s
                reach = e
        covered[q] = union
    return dur - covered
