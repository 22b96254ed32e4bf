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
from .coefficients import DEFAULT_GUARD, coeffs_closed, coeffs_general
from .evolution import (
    IntegratorOptions,
    StepFailure,
    compare_trajectories,
    run_exact,
    run_me,
)
from .gaussian import GaussianState, NonPhysical, SqueezeSpec, squeezed_pure
from .modes import NormalModes, SupersystemParams, derive_modes, params_from_modes

__all__ = ["main", "RunConfig", "ConfigError", "load_config"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_NUMERIC = 3

SCAN_PARAMETERS = ("omega", "lambda_sq", "theta_c", "m_s", "m_e", "r_s", "r_e")

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
    parameterization: str  # "modes" | "bare"

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
        return {
            "modes": {
                "omega": self.modes.omega,
                "lambda_sq": self.modes.lambda_sq,
                "theta_c": self.modes.theta_c,
                "m_s": self.modes.m_s,
                "m_e": self.modes.m_e,
                "hbar": self.modes.hbar,
            },
            "system": {
                "r": self.system.r,
                "angle": self.system.angle,
                "mean": list(self.sys_mean),
            },
            "environment": {
                "r": self.environment.r,
                "angle": self.environment.angle,
                "mean": list(self.env_mean),
            },
            "grid": {"t_max": self.t_max, "samples": self.samples},
            "integrator": {
                "rel_tol": self.integrator.rel_tol,
                "abs_tol": self.integrator.abs_tol,
                "divergence_guard": self.integrator.divergence_guard,
            },
            "method": self.method,
            "fit_window": list(self.fit_window),
        }


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


def _mean_pair(obj, key):
    val = obj.get(key, [0.0, 0.0])
    if (
        not isinstance(val, (list, tuple))
        or len(val) != 2
        or not all(_is_number(v) for v in val)
    ):
        raise ConfigError(f"field '{key}' must be a pair of numbers")
    return (float(val[0]), float(val[1]))


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
            m = raw["modes"]
            modes = NormalModes(
                omega=_require_number(m, "omega", 1.0),
                lambda_sq=_require_number(m, "lambda_sq", 1.0),
                theta_c=_require_number(m, "theta_c", math.pi / 64),
                m_s=_require_number(m, "m_s", 1.0),
                m_e=_require_number(m, "m_e", 1.0),
                hbar=_require_number(m, "hbar", 1.0),
            )
        else:
            b = raw["bare"]
            modes = derive_modes(
                SupersystemParams(
                    m_s=_require_number(b, "m_s", 1.0),
                    m_e=_require_number(b, "m_e", 1.0),
                    omega_bare=_require_number(b, "omega_bare"),
                    lambda_sq_bare=_require_number(b, "lambda_sq_bare"),
                    g=_require_number(b, "g"),
                    hbar=_require_number(b, "hbar", 1.0),
                )
            )
        sys_raw = raw.get("system", {})
        env_raw = raw.get("environment", {})
        system = SqueezeSpec(
            r=_require_number(sys_raw, "r", 4.0),
            angle=_require_number(sys_raw, "angle", 0.0),
        )
        environment = SqueezeSpec(
            r=_require_number(env_raw, "r", 2.0),
            angle=_require_number(env_raw, "angle", 0.0),
        )
        sys_mean = _mean_pair(sys_raw, "mean")
        env_mean = _mean_pair(env_raw, "mean")

        grid_raw = raw.get("grid", {})
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

        integ_raw = raw.get("integrator", {})
        integrator = IntegratorOptions(
            rel_tol=_require_number(integ_raw, "rel_tol", 1e-10),
            abs_tol=_require_number(integ_raw, "abs_tol", 1e-12),
            divergence_guard=_require_number(
                integ_raw, "divergence_guard", DEFAULT_GUARD
            ),
        )
        method = raw.get("method", "exact")
        if method not in ("exact", "me", "compare"):
            raise ConfigError("method must be 'exact', 'me', or 'compare'")
        fw = raw.get("fit_window", [5.0, 15.0])
        if (
            not isinstance(fw, (list, tuple))
            or len(fw) != 2
            or not all(_is_number(v) for v in fw)
            or not fw[0] < fw[1]
        ):
            raise ConfigError("fit_window must be [t0, t1] with t0 < t1")
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
        fit_window=(float(fw[0]), float(fw[1])),
        parameterization="modes" if has_modes else "bare",
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
    bare = params_from_modes(
        cfg.modes.omega,
        cfg.modes.lambda_sq,
        cfg.modes.theta_c,
        cfg.modes.m_s,
        cfg.modes.m_e,
        cfg.modes.hbar,
    )
    round_trip = derive_modes(bare)
    report = {
        "config": cfg.echo(),
        "modes": {
            "omega": cfg.modes.omega,
            "lambda_sq": cfg.modes.lambda_sq,
            "theta_c": cfg.modes.theta_c,
        },
        "bare": {
            "omega_bare": bare.omega_bare,
            "lambda_sq_bare": bare.lambda_sq_bare,
            "g": bare.g,
            "m_s": bare.m_s,
            "m_e": bare.m_e,
            "hbar": bare.hbar,
        },
        "round_trip": {
            "omega": round_trip.omega,
            "lambda_sq": round_trip.lambda_sq,
            "theta_c": round_trip.theta_c,
        },
    }
    _write_json(os.path.join(out_dir, "modes.json"), report)
    return report


def cmd_coeffs(cfg: RunConfig, out_dir: str) -> dict:
    grid = cfg.grid()
    _, env0 = cfg.states()
    c = coeffs_general(cfg.modes, env0, grid, guard=cfg.integrator.divergence_guard)
    table = np.column_stack(
        (
            c.t,
            c.dtilde,
            c.omega_eff_sq,
            c.gamma_eff,
            c.Fy,
            c.Fq,
            c.f1,
            c.f2,
            c.f1_tensor.reshape(4, -1).T,
            c.f2_tensor.reshape(4, -1).T,
        )
    )
    path = os.path.join(out_dir, "coeffs.csv")
    _write_csv(path, COEFF_COLUMNS, table, valid=c.valid)
    _write_json(os.path.join(out_dir, "coeffs.meta.json"), {"config": cfg.echo()})
    return {"path": path, "rows": grid.size}


def _evolve_table(traj) -> np.ndarray:
    d = traj.diags
    return np.column_stack(
        (traj.times, traj.moments, d.A**2, d.S, d.S_approx, d.varsigma, d.E)
    )


def _run_config_trajectory(
    cfg: RunConfig, method: str, sys0: GaussianState, env0: GaussianState
):
    if method == "exact":
        return run_exact(cfg.modes, sys0, env0, cfg.grid())
    return run_me(cfg.modes, sys0, env0, cfg.grid(), cfg.integrator)


def cmd_evolve(cfg: RunConfig, out_dir: str) -> dict:
    states = cfg.states()
    if cfg.method == "compare":
        tr_exact = _run_config_trajectory(cfg, "exact", *states)
        tr_me = _run_config_trajectory(cfg, "me", *states)
        exact, me = _evolve_table(tr_exact), _evolve_table(tr_me)
        mom_exact, mom_me = exact[:, 1:6], me[:, 1:6]
        rel = np.max(
            np.abs(mom_exact - mom_me) / np.maximum(np.abs(mom_exact), 1.0), axis=1
        )
        table = np.column_stack((exact, me[:, 1:], rel))
        columns = (
            EVOLVE_COLUMNS
            + tuple(f"{c}_me" for c in EVOLVE_COLUMNS[1:])
            + ("rel_err_max",)
        )
        # only the master-equation run has bridges to report
        traj = tr_me
    else:
        traj = _run_config_trajectory(cfg, cfg.method, *states)
        table = _evolve_table(traj)
        columns = EVOLVE_COLUMNS
    path = os.path.join(out_dir, "evolve.csv")
    _write_csv(path, columns, table)
    meta = {"config": cfg.echo(), "method": cfg.method}
    if traj.meta.get("bridges"):
        meta["bridges"] = [list(w) for w in traj.meta["bridges"]]
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
    if name in ("omega", "lambda_sq", "theta_c", "m_s", "m_e"):
        modes = dataclasses.replace(cfg.modes, **{name: value})
        return dataclasses.replace(cfg, modes=modes)
    if name == "r_s":
        return dataclasses.replace(cfg, system=SqueezeSpec(value, cfg.system.angle))
    if name == "r_e":
        return dataclasses.replace(
            cfg, environment=SqueezeSpec(value, cfg.environment.angle)
        )
    raise ConfigError(
        f"cannot vary '{name}'; choose one of {', '.join(SCAN_PARAMETERS)}"
    )


def _scan_one(cfg: RunConfig, name: str, value: float, out_dir: str, idx: int):
    run_cfg = _apply_vary(cfg, name, value)
    traj = _run_config_trajectory(run_cfg, "exact", *run_cfg.states())
    filename = f"scan_{idx:03d}.csv"
    _write_csv(os.path.join(out_dir, filename), EVOLVE_COLUMNS, _evolve_table(traj))
    try:
        slope, s0 = fit_entropy_line(traj, run_cfg.fit_window)
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


def cmd_verify(cfg: RunConfig, out_dir: str) -> dict:
    """Dual-formula coefficient check and exact-vs-ME oracle."""
    checks = {}

    # closed vs general coefficient formulas on deterministic random draws
    rng = np.random.default_rng(20240817)
    worst = 0.0
    trials = 0
    while trials < 1000:
        om = rng.uniform(0.3, 2.0)
        lam = rng.uniform(0.3, 2.0)
        th = rng.uniform(1e-3, 0.5) * rng.choice([-1.0, 1.0])
        m_s = rng.uniform(0.5, 2.0)
        m_e = rng.uniform(0.5, 2.0)
        t = rng.uniform(0.0, 8.0 / lam)
        modes = NormalModes(
            omega=om, lambda_sq=lam * lam, theta_c=th, m_s=m_s, m_e=m_e, hbar=1.0
        )
        env0 = GaussianState(
            np.zeros(2), np.diag([rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)])
        )
        cg = coeffs_general(modes, env0, t)
        if abs(cg.dtilde) <= 1e-3:
            continue
        cc = coeffs_closed(modes, env0, t)
        for a, b in (
            (cg.omega_eff_sq, cc.omega_eff_sq),
            (cg.gamma_eff, cc.gamma_eff),
            (cg.Fy, cc.Fy),
            (cg.Fq, cc.Fq),
            (cg.f1, cc.f1),
            (cg.f2, cc.f2),
        ):
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1.0))
        trials += 1
    checks["dual_formula"] = {"max_rel_err": worst, "tol": 1e-9, "pass": worst < 1e-9}

    # exact vs master-equation moments up to 90% of the first divergence
    roots = find_divergences(cfg.modes, max(cfg.t_max, 1.0))
    t_end = 0.9 * roots[0] if roots else cfg.t_max
    oracle_cfg = dataclasses.replace(cfg, t_max=t_end, samples=201)
    states = oracle_cfg.states()
    tr_me = _run_config_trajectory(oracle_cfg, "me", *states)
    tr_exact = _run_config_trajectory(oracle_cfg, "exact", *states)
    comp = compare_trajectories(tr_exact, tr_me)
    checks["oracle"] = {
        "max_rel_err": comp.worst_rel,
        "tol": 1e-6,
        "pass": comp.worst_rel < 1e-6,
        "per_moment": comp.max_rel,
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
        os.makedirs(out_dir, exist_ok=True)
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
