"""Command-line interface: configuration ingestion, command dispatch, and
deterministic CSV/JSON emission.

Commands
--------
modes        normal-mode parameters and the round-trip bare parameters
coeffs       master-equation coefficient time series (CSV); its ``valid``
             column is false where |Dtilde| <= the divergence guard,
             the constant ``invharm.evolution._DIVERGENCE_GUARD``
evolve       moment/entropy/energy time series (CSV), exact, ME, or both
divergences  determinant roots and the critical-time estimate (JSON)
scan         the evolve output of each value of a varied parameter, all
             from one exact pass, plus an index JSON with fitted
             (slope, S0) per value
verify       exact-vs-ME oracle on the config's own parameters

Exit codes: 0 success, 1 validation error, 2 verification failure,
3 numerical failure.  Malformed input, a grid too large to allocate
included, produces a machine-readable error JSON on standard error.
Outputs are byte-deterministic for identical inputs: floats are written as C's ``%.17g`` text, lines end in
``\\n``, and column order is fixed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from ._csvtext import csv_bytes
from .analysis import (
    critical_time_derived,
    find_divergences,
    fit_entropy_line,
)
from .coefficients import coeffs_general, contract
from .evolution import (
    _DIVERGENCE_GUARD,
    _exact_run,
    moment_deviation,
    run_exact,
    run_me,
)
from .gaussian import Diagnostics, SqueezeSpec, squeezed_pure
from .modes import NormalModes, SupersystemParams, derive_modes, params_from_modes

__all__ = ["main", "RunConfig", "ConfigError", "load_config"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_NUMERIC = 3

# every numeric field of each config section with its default (None:
# required), in the order it is read; parse_config, RunConfig.echo,
# SCAN_PARAMETERS and cmd_modes all take the fields from here
FIELDS = {
    "modes": {
        "omega": 1.0, "lambda_sq": 1.0, "theta_c": math.pi / 64,
        "m_s": 1.0, "m_e": 1.0, "hbar": 1.0,
    },
    "bare": {
        "m_s": 1.0, "m_e": 1.0, "omega_bare": None, "lambda_sq_bare": None,
        "g": None, "hbar": 1.0,
    },
    "system": {"r": 4.0, "angle": 0.0},
    "environment": {"r": 2.0, "angle": 0.0},
}

# the keys each section reads besides its FIELDS, and the top-level keys;
# any other key is rejected, so a misspelling cannot fall back to a default
OTHER_KEYS = {
    "system": ("mean",),
    "environment": ("mean",),
    "grid": ("t_max", "samples", "dt"),
}
TOP_LEVEL_KEYS = (*FIELDS, "grid", "method", "fit_window")

# the most samples np.linspace can describe: it counts in float64, where
# each count from 2**60 - 64 rounds to 2**60, too many for one array of
# 2**63 - 1 bytes; below it a grid too large for memory fails at allocation
MAX_SAMPLES = 2**60 - 65

# scan name -> the (section, field) its values replace
SCAN_PARAMETERS = {
    **{name: ("modes", name) for name in FIELDS["modes"] if name != "hbar"},
    "r_s": ("system", "r"),
    "r_e": ("environment", "r"),
}

COEFF_COLUMNS = (
    "t",
    "dtilde",
    "omega_eff_sq",
    "gamma_eff",
    "Fy",
    "Fq",
    "f1",
    "f2",
    "f1_yy",
    "f1_yq",
    "f1_qy",
    "f1_qq",
    "f2_yy",
    "f2_yq",
    "f2_qy",
    "f2_qq",
    "valid",
)

EVOLVE_COLUMNS = (
    "t",
    "mean_x",
    "mean_p",
    "dx2",
    "dp2",
    "dxp",
    "A2",
    "S",
    "S_approx",
    "varsigma",
    "E",
)


class ConfigError(ValueError):
    """A run configuration failed validation."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (mode parameterization).

    ``states`` holds the initial system and environment states
    (sys0, env0), built once with the config; a state that
    ``squeezed_pure`` rejects is a ``ConfigError`` naming its section."""

    modes: NormalModes
    system: SqueezeSpec
    environment: SqueezeSpec
    sys_mean: tuple
    env_mean: tuple
    t_max: float
    samples: int
    method: str  # "exact" | "me" | "compare"
    fit_window: tuple
    states: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        states = (
            _state("system", self.system, self.modes.hbar, self.sys_mean),
            _state("environment", self.environment, self.modes.hbar, self.env_mean),
        )
        object.__setattr__(self, "states", states)

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.samples)

    def echo(self) -> dict:
        """JSON-ready form that re-parses to an equivalent config."""
        out = {
            name: {key: getattr(obj, key) for key in FIELDS[name]}
            for name, obj in (
                ("modes", self.modes),
                ("system", self.system),
                ("environment", self.environment),
            )
        }
        out["system"]["mean"] = list(self.sys_mean)
        out["environment"]["mean"] = list(self.env_mean)
        out["grid"] = {"t_max": self.t_max, "samples": self.samples}
        out["method"] = self.method
        out["fit_window"] = list(self.fit_window)
        return out


def _state(name: str, spec: SqueezeSpec, hbar: float, mean):
    """The initial state of the section ``name``; a state that
    ``squeezed_pure`` rejects is a ``ConfigError`` naming the section."""
    try:
        return squeezed_pure(spec, hbar, mean)
    except ValueError as exc:
        raise ConfigError(f"'{name}': {exc}") from exc


def _is_number(val) -> bool:
    """A finite int or float; booleans are not numbers here."""
    return (
        isinstance(val, (int, float))
        and not isinstance(val, bool)
        and math.isfinite(val)
    )


def _require_number(obj, key, default=None):
    val = obj.get(key, default)
    if val is None:
        raise ConfigError(f"missing required field '{key}'")
    if not _is_number(val):
        raise ConfigError(f"field '{key}' must be a finite number, got {val!r}")
    return float(val)


def _number_pair(val, message, increasing=False):
    """A list of two numbers, as floats, the first below the second if
    ``increasing``; anything else raises ``ConfigError(message)``."""
    if (
        not isinstance(val, (list, tuple))
        or len(val) != 2
        or not all(_is_number(v) for v in val)
        or (increasing and not val[0] < val[1])
    ):
        raise ConfigError(message)
    return (float(val[0]), float(val[1]))


def _section(raw: dict, name: str):
    """The section ``name`` of a raw config (``{}`` if absent), and its
    numeric fields from ``FIELDS`` read with their defaults."""
    obj = raw.get(name, {})
    if not isinstance(obj, dict):
        raise ConfigError(f"'{name}' must be a JSON object")
    fields = FIELDS.get(name, {})
    for key in obj:
        if key not in fields and key not in OTHER_KEYS.get(name, ()):
            raise ConfigError(f"'{name}': unknown field '{key}'")
    return obj, {key: _require_number(obj, key, d) for key, d in fields.items()}


def parse_config(raw: dict) -> RunConfig:
    """Validate and resolve a raw configuration dictionary."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    for key in raw:
        if key not in TOP_LEVEL_KEYS:
            raise ConfigError(f"unknown field '{key}'")
    has_modes = "modes" in raw
    has_bare = "bare" in raw
    if has_modes == has_bare:
        raise ConfigError(
            "config must contain exactly one of 'modes' or 'bare' parameters"
        )
    try:
        if has_modes:
            modes = NormalModes(**_section(raw, "modes")[1])
        else:
            modes = derive_modes(SupersystemParams(**_section(raw, "bare")[1]))
        sys_raw, sys_fields = _section(raw, "system")
        system = SqueezeSpec(**sys_fields)
        env_raw, env_fields = _section(raw, "environment")
        environment = SqueezeSpec(**env_fields)
        mean_message = "field 'mean' must be a pair of numbers"
        sys_mean = _number_pair(sys_raw.get("mean", [0.0, 0.0]), mean_message)
        env_mean = _number_pair(env_raw.get("mean", [0.0, 0.0]), mean_message)

        grid_raw = _section(raw, "grid")[0]
        t_max = _require_number(grid_raw, "t_max", 16.0)
        if t_max <= 0:
            raise ConfigError("grid.t_max must be > 0")
        if "samples" in grid_raw and "dt" in grid_raw:
            raise ConfigError("grid must give at most one of 'samples' or 'dt'")
        if "dt" in grid_raw:
            dt = _require_number(grid_raw, "dt")
            if dt <= 0:
                raise ConfigError("grid.dt must be > 0")
            steps = t_max / dt
            # an infinite ratio fails this test too
            if not steps < MAX_SAMPLES:
                raise ConfigError(
                    f"grid.dt is too small: t_max / dt = {steps!r} "
                    f"exceeds {MAX_SAMPLES} samples"
                )
            samples = int(round(steps)) + 1
        else:
            samples = grid_raw.get("samples", 801)
            if not isinstance(samples, int) or isinstance(samples, bool):
                raise ConfigError("grid.samples must be an integer")
            if samples > MAX_SAMPLES:
                raise ConfigError(f"grid.samples must be at most {MAX_SAMPLES}")
        if samples < 2:
            raise ConfigError("grid must contain at least 2 samples")

        method = raw.get("method", "exact")
        if method not in ("exact", "me", "compare"):
            raise ConfigError("method must be 'exact', 'me', or 'compare'")
        fit_window = _number_pair(
            raw.get("fit_window", [5.0, 15.0]),
            "fit_window must be [t0, t1] with t0 < t1",
            increasing=True,
        )
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(
        modes=modes,
        system=system,
        environment=environment,
        sys_mean=sys_mean,
        env_mean=env_mean,
        t_max=t_max,
        samples=samples,
        method=method,
        fit_window=fit_window,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


def _check_finite(columns, table: np.ndarray):
    """A non-finite value of a float table, one row per time with ``t``
    first, is a numerical failure, named by its column and the first
    time at which it appears."""
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        row, col = bad[0]
        raise FloatingPointError(
            f"non-finite {columns[col]} at t = {float(table[row, 0])!r}"
        )


def _write_text(path: str, columns, text):
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode())
        fh.write(text)


def _write_csv(path: str, columns, table: np.ndarray, valid=None):
    """Write a finite float table, one row per time with ``t`` first,
    each value as C's ``"%.17g"`` text; ``valid``, if given, is a last
    true/false column."""
    _check_finite(columns, table)
    _write_text(path, columns, csv_bytes(table, valid))


def _write_json(path: str, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def cmd_modes(cfg: RunConfig, out_dir: str) -> dict:
    # the normal-mode parameters proper: those the bare ones do not share
    proper = [k for k in FIELDS["modes"] if k not in FIELDS["bare"]]
    report = {"config": cfg.echo(), "modes": {k: getattr(cfg.modes, k) for k in proper}}
    try:
        bare = params_from_modes(**{k: getattr(cfg.modes, k) for k in FIELDS["modes"]})
    except ValueError:  # the bare system frequency would be imaginary
        report["bare"] = report["round_trip"] = None
    else:
        round_trip = derive_modes(bare)
        report["bare"] = {k: getattr(bare, k) for k in FIELDS["bare"]}
        report["round_trip"] = {k: getattr(round_trip, k) for k in proper}
    _write_json(os.path.join(out_dir, "modes.json"), report)
    return report


def cmd_coeffs(cfg: RunConfig, out_dir: str) -> dict:
    grid = cfg.grid()
    _, env0 = cfg.states
    # dtilde, omega_eff_sq, gamma_eff, Fy, Fq, then the entries of f1, f2
    c = coeffs_general(cfg.modes)(grid)
    weigh = contract(env0.cov)
    table = np.column_stack((grid, *c[:5], weigh(*c[5:9]), weigh(*c[9:]), *c[5:]))
    valid = np.abs(c[0]) > _DIVERGENCE_GUARD
    path = os.path.join(out_dir, "coeffs.csv")
    _write_csv(path, COEFF_COLUMNS, table, valid=valid)
    _write_json(os.path.join(out_dir, "coeffs.meta.json"), {"config": cfg.echo()})
    return {"path": path, "rows": grid.size}


def _evolve_table(traj) -> np.ndarray:
    """The ``EVOLVE_COLUMNS`` of a trajectory, on a last axis: shape
    (n, 11), or (V, n, 11) for an exact run over V values."""
    d = traj.diags
    moments = traj.moments
    times = np.broadcast_to(traj.times[:, None], moments.shape[:-1] + (1,))
    diags = (d.A**2, d.S, d.S_approx, d.varsigma, d.E)
    return np.concatenate((times, moments, np.stack(diags, axis=-1)), axis=-1)


def _compare_runs(cfg: RunConfig, grid: np.ndarray):
    """The exact and the master-equation trajectories of cfg on one grid,
    in that order, and the deviation of their moments."""
    exact = run_exact(cfg.modes, *cfg.states, grid)
    me = run_me(cfg.modes, *cfg.states, grid)
    return exact, me, moment_deviation(exact, me)


def cmd_evolve(cfg: RunConfig, out_dir: str) -> dict:
    grid = cfg.grid()
    columns = EVOLVE_COLUMNS
    if cfg.method == "compare":
        # only the master-equation run has bridges and evaluations to report
        exact, traj, dev = _compare_runs(cfg, grid)
        table = np.column_stack(
            (_evolve_table(exact), _evolve_table(traj)[:, 1:], dev.max(axis=1))
        )
        columns = (
            EVOLVE_COLUMNS
            + tuple(f"{c}_me" for c in EVOLVE_COLUMNS[1:])
            + ("rel_err_max",)
        )
    elif cfg.method == "me":
        traj = run_me(cfg.modes, *cfg.states, grid)
        table = _evolve_table(traj)
    else:
        traj = run_exact(cfg.modes, *cfg.states, grid)
        table = _evolve_table(traj)
    path = os.path.join(out_dir, "evolve.csv")
    _write_csv(path, columns, table)
    meta = {"config": cfg.echo(), "method": cfg.method}
    if traj.bridges:
        meta["bridges"] = [list(w) for w in traj.bridges]
    if cfg.method != "exact":
        meta["rhs_evals"] = traj.rhs_evals
    _write_json(os.path.join(out_dir, "evolve.meta.json"), meta)
    return {"path": path, "rows": len(table)}


def cmd_divergences(cfg: RunConfig, out_dir: str) -> dict:
    roots = find_divergences(cfg.modes, cfg.t_max)
    om, th = cfg.modes.omega, cfg.modes.theta_c
    lam = math.sqrt(max(cfg.modes.lambda_sq, 0.0))
    try:
        tc_derived = critical_time_derived(om, lam, th)
    except ValueError:
        tc_derived = None
    report = {
        "config": cfg.echo(),
        "divergence_times": roots,
        "t_c_derived": _json_safe(tc_derived),
    }
    _write_json(os.path.join(out_dir, "divergences.json"), report)
    return report


def _scan_inputs(cfg: RunConfig, name: str, values):
    """The modes, system state and environment state of a scan of
    ``name`` over ``values``: the varied one a list with one entry per
    value, the others cfg's own.  Each varied section validates itself,
    and only a varied squeezing builds states, one per value, so nothing
    is parsed again."""
    if name not in SCAN_PARAMETERS:
        raise ConfigError(
            f"cannot vary '{name}'; choose one of {', '.join(SCAN_PARAMETERS)}"
        )
    section, key = SCAN_PARAMETERS[name]
    varied = [dataclasses.replace(getattr(cfg, section), **{key: v}) for v in values]
    sys0, env0 = cfg.states
    if section == "modes":
        return varied, sys0, env0
    mean = cfg.sys_mean if section == "system" else cfg.env_mean
    states = [_state(section, spec, cfg.modes.hbar, mean) for spec in varied]
    return (cfg.modes, states, env0) if section == "system" else (cfg.modes, sys0, states)


def _scan_one(traj, text, value: float, omega: float, window, out_dir: str, idx: int):
    """Write one scan value's ``scan_NNN.csv`` from its CSV rows ``text``,
    and fit its entropy line over ``window``; ``traj`` is that value's
    exact run and ``omega`` its system frequency."""
    filename = f"scan_{idx:03d}.csv"
    _write_text(os.path.join(out_dir, filename), EVOLVE_COLUMNS, text)
    try:
        slope, s0 = fit_entropy_line(traj, window, omega)
    except ValueError:
        slope = s0 = None
    return {
        "value": value,
        "file": filename,
        "slope": _json_safe(slope),
        "S0": _json_safe(s0),
    }


def cmd_scan(cfg: RunConfig, out_dir: str, vary: str, values) -> dict:
    """One exact run over every value of the scan, checked once and
    converted to CSV text once, then one ``scan_NNN.csv`` per value:
    each the ``evolve.csv`` that ``evolve`` writes for that value's
    config.  Every value is validated, and the whole scan checked,
    before the first file is written."""
    if vary is None or values is None:
        raise ConfigError("scan requires --vary and --values")
    modes, sys0, env0 = _scan_inputs(cfg, vary, values)
    grid = cfg.grid()
    runs = _exact_run(modes, sys0, env0, grid)
    table = _evolve_table(runs).reshape(-1, len(EVOLVE_COLUMNS))
    _check_finite(EVOLVE_COLUMNS, table)
    text = csv_bytes(table)
    # each value's rows end at every grid.size-th line end
    ends = np.flatnonzero(np.frombuffer(text, np.uint8) == ord("\n"))
    ends = [0, *(ends[grid.size - 1 :: grid.size] + 1).tolist()]
    text = memoryview(text)
    if isinstance(modes, list):
        omegas = [m.omega for m in modes]
    else:
        omegas = [modes.omega] * len(values)
    index_runs = []
    for i, (value, omega) in enumerate(zip(values, omegas)):
        traj = dataclasses.replace(
            runs,
            moments=runs.moments[i],
            diags=Diagnostics(*(col[i] for col in vars(runs.diags).values())),
        )
        rows = text[ends[i] : ends[i + 1]]
        index_runs.append(
            _scan_one(traj, rows, value, omega, cfg.fit_window, out_dir, i)
        )
    # index written last, in input order
    index = {"config": cfg.echo(), "vary": vary, "runs": index_runs}
    _write_json(os.path.join(out_dir, "scan_index.json"), index)
    return index


def cmd_verify(cfg: RunConfig, out_dir: str) -> dict:
    """Exact-vs-ME oracle on cfg's modes and initial states: the moments
    of both runs up to 90% of the first divergence, each moment scored
    by its worst row outside the bridged windows."""
    roots = find_divergences(cfg.modes, cfg.t_max)
    t_end = 0.9 * roots[0] if roots else cfg.t_max
    _, me, dev = _compare_runs(cfg, np.linspace(0.0, t_end, 201))
    worst_rows = dev[~me.bridged].max(axis=0).tolist()
    worst = max(worst_rows)
    oracle = {
        "max_rel_err": worst,
        "tol": 1e-6,
        "pass": worst < 1e-6,
        "per_moment": dict(zip(EVOLVE_COLUMNS[1:6], worst_rows)),
    }
    report = {
        "config": cfg.echo(), "checks": {"oracle": oracle}, "pass": oracle["pass"]
    }
    _write_json(os.path.join(out_dir, "verify.json"), report)
    return report


def _parse_values(raw: str):
    items = [v.strip() for v in raw.split(",")]
    if "" in items:
        raise ConfigError(f"--values has an empty entry: {raw!r}")
    try:
        values = [float(v) for v in items]
    except ValueError as exc:
        raise ConfigError(f"--values must be a comma-separated float list: {exc}")
    for item, v in zip(items, values):
        if not _is_number(v):
            raise ConfigError(f"--values entry {item!r} is not a finite number")
    return values


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error is a validation error: exit 1 with the error JSON."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="invharm",
        description="Reduced dynamics of an oscillator coupled to an "
        "inverted-oscillator environment",
    )
    parser.add_argument(
        "command",
        choices=["modes", "coeffs", "evolve", "divergences", "scan", "verify"],
    )
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--vary", default=None, help="parameter name for scan")
    parser.add_argument(
        "--values", default=None, help="comma-separated values for scan"
    )
    return parser


# An overflowing kernel gives inf or nan in array code, without a warning
# here; the CSV writer and the root scan turn it into a numerical failure.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config)
        out_dir = args.out
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}") from exc
        if args.command == "modes":
            report = cmd_modes(cfg, out_dir)
        elif args.command == "coeffs":
            report = cmd_coeffs(cfg, out_dir)
        elif args.command == "evolve":
            report = cmd_evolve(cfg, out_dir)
        elif args.command == "divergences":
            report = cmd_divergences(cfg, out_dir)
        elif args.command == "scan":
            values = _parse_values(args.values) if args.values is not None else None
            report = cmd_scan(cfg, out_dir, args.vary, values)
        else:
            report = cmd_verify(cfg, out_dir)
            print(json.dumps(report, indent=2, sort_keys=True))
            if report["pass"]:
                return EXIT_OK
            failed = [name for name, c in report["checks"].items() if not c["pass"]]
            _emit_error("verification", f"failed checks: {', '.join(failed)}")
            return EXIT_VERIFY
        print(json.dumps(report, indent=2, sort_keys=True))
        return EXIT_OK
    except OSError as exc:
        # the config was read and the output directory made: a file in
        # it could not be written
        _emit_error("validation", f"cannot write output: {exc}")
        return EXIT_CONFIG
    except MemoryError as exc:
        # a grid too large to allocate
        _emit_error("validation", f"out of memory: {exc}")
        return EXIT_CONFIG
    # LinAlgError is a ValueError, so it is named before ValueError
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        _emit_error("numerical", exc)
        return EXIT_NUMERIC
    except ValueError as exc:
        # bad input: a ConfigError, or a value outside a formula's domain
        _emit_error("validation", exc)
        return EXIT_CONFIG


def _emit_error(kind: str, reason):
    """One error JSON line on standard error; the message is str(reason)."""
    payload = {"error": {"type": kind, "message": str(reason)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
