"""Command-line interface: configuration ingestion, command dispatch, and
deterministic CSV/JSON emission.

Commands
--------
modes        normal-mode parameters and the round-trip bare parameters
coeffs       master-equation coefficient time series (CSV)
evolve       moment/entropy/energy time series (CSV), exact, ME, or both
divergences  determinant roots and the critical-time estimates (JSON)
scan         one evolve run per value of a varied parameter, plus an
             index JSON with fitted (slope, S0) per run
verify       dual-formula coefficient check and exact-vs-ME oracle

Exit codes: 0 success, 1 validation error, 2 verification failure,
3 numerical failure.  Malformed input produces a machine-readable error
JSON on standard error.  Outputs are byte-deterministic for identical
inputs: floats are written with 17 significant digits, lines end in
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

from .analysis import (
    WindowTooShort,
    critical_time_derived,
    critical_time_paper,
    find_divergences,
    fit_entropy_line,
)
from .coefficients import coeffs_closed, coeffs_general, contract
from .evolution import (
    IntegratorOptions,
    StepFailure,
    compare_trajectories,
    run_exact,
    run_me,
)
from .gaussian import GaussianState, NonPhysical, SqueezeSpec, squeezed_pure
from .modes import NormalModes, SupersystemParams, derive_modes, params_from_modes
from .propagator import dtilde

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
    "integrator": dataclasses.asdict(IntegratorOptions()),
}

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
    """Fully resolved run configuration (mode parameterization)."""

    modes: NormalModes
    system: SqueezeSpec
    environment: SqueezeSpec
    sys_mean: tuple
    env_mean: tuple
    t_max: float
    samples: int
    integrator: IntegratorOptions
    method: str  # "exact" | "me" | "compare"
    fit_window: tuple

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.samples)

    def states(self) -> tuple[GaussianState, GaussianState]:
        """The initial system and environment states (sys0, env0)."""
        hbar = self.modes.hbar
        return (
            squeezed_pure(self.system, hbar, self.sys_mean),
            squeezed_pure(self.environment, hbar, self.env_mean),
        )

    def echo(self) -> dict:
        """JSON-ready form that re-parses to an equivalent config."""
        out = {
            name: {key: getattr(obj, key) for key in FIELDS[name]}
            for name, obj in (
                ("modes", self.modes),
                ("system", self.system),
                ("environment", self.environment),
                ("integrator", self.integrator),
            )
        }
        out["system"]["mean"] = list(self.sys_mean)
        out["environment"]["mean"] = list(self.env_mean)
        out["grid"] = {"t_max": self.t_max, "samples": self.samples}
        out["method"] = self.method
        out["fit_window"] = list(self.fit_window)
        return out


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
    return obj, {key: _require_number(obj, key, d) for key, d in fields.items()}


def parse_config(raw: dict) -> RunConfig:
    """Validate and resolve a raw configuration dictionary."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
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
            samples = int(round(t_max / dt)) + 1
        else:
            samples = grid_raw.get("samples", 801)
            if not isinstance(samples, int) or isinstance(samples, bool):
                raise ConfigError("grid.samples must be an integer")
        if samples < 2:
            raise ConfigError("grid must contain at least 2 samples")

        integrator = IntegratorOptions(**_section(raw, "integrator")[1])
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
        integrator=integrator,
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


def _write_csv(path: str, columns, table: np.ndarray, valid=None):
    """Write a float table, one row per time with ``t`` first, at 17
    significant digits; ``valid``, if given, is a last true/false column.

    A non-finite value is a numerical failure, named by its column and
    the first time at which it appears.
    """
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        row, col = bad[0]
        raise FloatingPointError(
            f"non-finite {columns[col]} at t = {float(table[row, 0])!r}"
        )
    row_fmt = ",".join(["%.17g"] * table.shape[1])
    if valid is not None:
        row_fmt += ",%s"
        table = np.column_stack((table.astype(object), np.where(valid, "true", "false")))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        fh.write((row_fmt + "\n") * table.shape[0] % tuple(table.ravel().tolist()))


def _write_json(path: str, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def cmd_modes(cfg: RunConfig, out_dir: str) -> dict:
    bare = params_from_modes(**{k: getattr(cfg.modes, k) for k in FIELDS["modes"]})
    round_trip = derive_modes(bare)
    # the normal-mode parameters proper: those the bare ones do not share
    proper = [k for k in FIELDS["modes"] if k not in FIELDS["bare"]]
    report = {
        "config": cfg.echo(),
        "modes": {k: getattr(cfg.modes, k) for k in proper},
        "bare": {k: getattr(bare, k) for k in FIELDS["bare"]},
        "round_trip": {k: getattr(round_trip, k) for k in proper},
    }
    _write_json(os.path.join(out_dir, "modes.json"), report)
    return report


def cmd_coeffs(cfg: RunConfig, out_dir: str) -> dict:
    grid = cfg.grid()
    _, env0 = cfg.states()
    c = coeffs_general(cfg.modes, grid)
    table = np.column_stack(
        (
            grid,
            c.dtilde,
            c.omega_eff_sq,
            c.gamma_eff,
            c.Fy,
            c.Fq,
            contract(c.f1_rows, env0.cov),
            contract(c.f2_rows, env0.cov),
            np.reshape(c.f1_rows, (4, -1)).T,
            np.reshape(c.f2_rows, (4, -1)).T,
        )
    )
    valid = np.abs(c.dtilde) > cfg.integrator.divergence_guard
    path = os.path.join(out_dir, "coeffs.csv")
    _write_csv(path, COEFF_COLUMNS, table, valid=valid)
    _write_json(os.path.join(out_dir, "coeffs.meta.json"), {"config": cfg.echo()})
    return {"path": path, "rows": grid.size}


def _evolve_table(traj) -> np.ndarray:
    d = traj.diags
    return np.column_stack(
        (traj.times, traj.moments, d.A**2, d.S, d.S_approx, d.varsigma, d.E)
    )


def cmd_evolve(cfg: RunConfig, out_dir: str) -> dict:
    states, grid = cfg.states(), cfg.grid()
    if cfg.method == "me":
        traj = run_me(cfg.modes, *states, grid, cfg.integrator)
    else:
        traj = run_exact(cfg.modes, *states, grid)
    table = _evolve_table(traj)
    columns = EVOLVE_COLUMNS
    if cfg.method == "compare":
        # only the master-equation run has bridges to report
        traj = run_me(cfg.modes, *states, grid, cfg.integrator)
        me = _evolve_table(traj)
        mom_exact, mom_me = table[:, 1:6], me[:, 1:6]
        rel = np.max(
            np.abs(mom_exact - mom_me) / np.maximum(np.abs(mom_exact), 1.0), axis=1
        )
        table = np.column_stack((table, me[:, 1:], rel))
        columns = (
            EVOLVE_COLUMNS
            + tuple(f"{c}_me" for c in EVOLVE_COLUMNS[1:])
            + ("rel_err_max",)
        )
    path = os.path.join(out_dir, "evolve.csv")
    _write_csv(path, columns, table)
    meta = {"config": cfg.echo(), "method": cfg.method}
    if traj.bridges:
        meta["bridges"] = [list(w) for w in traj.bridges]
    _write_json(os.path.join(out_dir, "evolve.meta.json"), meta)
    return {"path": path, "rows": len(table)}


def cmd_divergences(cfg: RunConfig, out_dir: str) -> dict:
    roots = find_divergences(cfg.modes, cfg.t_max)
    om, lsq, th = cfg.modes.omega, cfg.modes.lambda_sq, cfg.modes.theta_c
    tc_paper = tc_derived = None
    if lsq > 0 and om > 0 and 0.0 < abs(th) < 1.0:
        lam = math.sqrt(lsq)
        tc_paper = critical_time_paper(om, lam, th)
        tc_derived = critical_time_derived(om, lam, th)
    report = {
        "config": cfg.echo(),
        "divergence_times": roots,
        "t_c_paper": _json_safe(tc_paper),
        "t_c_derived": _json_safe(tc_derived),
    }
    _write_json(os.path.join(out_dir, "divergences.json"), report)
    return report


def _apply_vary(cfg: RunConfig, name: str, value: float) -> RunConfig:
    if name not in SCAN_PARAMETERS:
        raise ConfigError(
            f"cannot vary '{name}'; choose one of {', '.join(SCAN_PARAMETERS)}"
        )
    section, key = SCAN_PARAMETERS[name]
    raw = cfg.echo()
    raw[section][key] = value
    return parse_config(raw)


def _scan_one(cfg: RunConfig, name: str, value: float, out_dir: str, idx: int):
    run_cfg = _apply_vary(cfg, name, value)
    traj = run_exact(run_cfg.modes, *run_cfg.states(), run_cfg.grid())
    filename = f"scan_{idx:03d}.csv"
    _write_csv(os.path.join(out_dir, filename), EVOLVE_COLUMNS, _evolve_table(traj))
    try:
        slope, s0 = fit_entropy_line(traj, run_cfg.fit_window, run_cfg.modes.omega)
    except WindowTooShort:
        slope = s0 = None
    return {
        "value": value,
        "file": filename,
        "slope": _json_safe(slope),
        "S0": _json_safe(s0),
    }


def cmd_scan(cfg: RunConfig, out_dir: str, vary: str, values) -> dict:
    if vary is None or values is None:
        raise ConfigError("scan requires --vary and --values")
    if not values:
        raise ConfigError("scan requires at least one value")
    runs = [_scan_one(cfg, vary, v, out_dir, i) for i, v in enumerate(values)]
    # index written last, in input order
    index = {"config": cfg.echo(), "vary": vary, "runs": runs}
    _write_json(os.path.join(out_dir, "scan_index.json"), index)
    return index


# verify's dual-formula check: this many trials, drawn in batches of
# DUAL_BATCH, each with |Dtilde| above DUAL_MIN_DTILDE (the routes divide
# by Dtilde)
DUAL_TRIALS = 1000
DUAL_BATCH = 1024
DUAL_MIN_DTILDE = 1e-3


def _dual_formula_draws(rng):
    """The parameters (omega, lambda_sq, theta_c, m_s, m_e, t, dy2, dq2)
    of verify's dual-formula trials, one row of DUAL_TRIALS per
    parameter: the first trials in draw order whose |Dtilde| exceeds
    DUAL_MIN_DTILDE.  Each batch draws one vector per parameter, in the
    order of the rows."""
    kept = []
    n_kept = 0
    while n_kept < DUAL_TRIALS:
        om = rng.uniform(0.3, 2.0, DUAL_BATCH)
        lam = rng.uniform(0.3, 2.0, DUAL_BATCH)
        th = rng.uniform(1e-3, 0.5, DUAL_BATCH)
        th *= np.array([-1.0, 1.0])[rng.integers(0, 2, DUAL_BATCH)]
        m_s = rng.uniform(0.5, 2.0, DUAL_BATCH)
        m_e = rng.uniform(0.5, 2.0, DUAL_BATCH)
        t = rng.uniform(0.0, 8.0 / lam)
        dy2 = rng.uniform(0.1, 3.0, DUAL_BATCH)
        dq2 = rng.uniform(0.1, 3.0, DUAL_BATCH)
        batch = np.stack((om, lam * lam, th, m_s, m_e, t, dy2, dq2))
        ok = np.abs(dtilde(NormalModes(*batch[:5]), t)) > DUAL_MIN_DTILDE
        kept.append(batch[:, ok])
        n_kept += np.count_nonzero(ok)
    return np.concatenate(kept, axis=1)[:, :DUAL_TRIALS]


def cmd_verify(cfg: RunConfig, out_dir: str) -> dict:
    """Dual-formula coefficient check and exact-vs-ME oracle."""
    checks = {}

    # closed vs general coefficient formulas on deterministic random
    # draws, all of them in one call of each route
    om, lsq, th, m_s, m_e, t, dy2, dq2 = _dual_formula_draws(
        np.random.default_rng(20240817)
    )
    modes = NormalModes(om, lsq, th, m_s, m_e)
    cg = coeffs_general(modes, t)
    cc = coeffs_closed(modes, t)
    # each trial's own diagonal environment covariance
    cov = ((dy2, 0.0), (0.0, dq2))
    worst = 0.0
    for a, b in (
        (cg.omega_eff_sq, cc.omega_eff_sq),
        (cg.gamma_eff, cc.gamma_eff),
        (cg.Fy, cc.Fy),
        (cg.Fq, cc.Fq),
        (contract(cg.f1_rows, cov), contract(cc.f1_rows, cov)),
        (contract(cg.f2_rows, cov), contract(cc.f2_rows, cov)),
    ):
        scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
        worst = max(worst, float((np.abs(a - b) / scale).max()))
    checks["dual_formula"] = {"max_rel_err": worst, "tol": 1e-9, "pass": worst < 1e-9}

    # exact vs master-equation moments up to 90% of the first divergence
    roots = find_divergences(cfg.modes, max(cfg.t_max, 1.0))
    t_end = 0.9 * roots[0] if roots else cfg.t_max
    states, grid = cfg.states(), np.linspace(0.0, t_end, 201)
    tr_me = run_me(cfg.modes, *states, grid, cfg.integrator)
    tr_exact = run_exact(cfg.modes, *states, grid)
    per_moment = compare_trajectories(tr_exact, tr_me)
    worst_oracle = max(per_moment.values())
    checks["oracle"] = {
        "max_rel_err": worst_oracle,
        "tol": 1e-6,
        "pass": worst_oracle < 1e-6,
        "per_moment": per_moment,
    }

    ok = all(c["pass"] for c in checks.values())
    report = {"config": cfg.echo(), "checks": checks, "pass": ok}
    _write_json(os.path.join(out_dir, "verify.json"), report)
    return report


def _parse_values(raw: str):
    items = [v.strip() for v in raw.split(",") if v.strip() != ""]
    try:
        values = [float(v) for v in items]
    except ValueError as exc:
        raise ConfigError(f"--values must be a comma-separated float list: {exc}")
    for item, v in zip(items, values):
        if not _is_number(v):
            raise ConfigError(f"--values entry {item!r} is not a finite number")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    args = build_parser().parse_args(argv)
    try:
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
            return EXIT_OK if report["pass"] else EXIT_VERIFY
        print(json.dumps(report, indent=2, sort_keys=True))
        return EXIT_OK
    except ConfigError as exc:
        _emit_error("validation", exc)
        return EXIT_CONFIG
    except OSError as exc:
        # the config was read and the output directory made: a file in
        # it could not be written
        _emit_error("validation", ConfigError(f"cannot write output: {exc}"))
        return EXIT_CONFIG
    except (StepFailure, NonPhysical, ArithmeticError, np.linalg.LinAlgError) as exc:
        _emit_error("numerical", exc)
        return EXIT_NUMERIC
    except ValueError as exc:
        _emit_error("validation", exc)
        return EXIT_CONFIG


def _emit_error(kind: str, exc: Exception):
    payload = {"error": {"type": kind, "message": str(exc)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
