"""Output checks that share no code with the program under test.

The reduced moments and the master-equation coefficients are rebuilt
from ``scipy.linalg.expm`` of the 4x4 phase-space generator of the two
coupled oscillators, not from the program's kernels or closed forms.  For the ordering [x, p, y, q] and
mass-scaled stiffness matrix K (potential (1/2) X^T K X with
X = (sqrt(m_s) x, sqrt(m_e) y)), Hamilton's equations give

    x' = p / m_s                  y' = q / m_e
    p' = -m_s K11 x - sqrt(m_s m_e) K12 y
    q' = -sqrt(m_s m_e) K12 x - m_e K22 y

The normal-mode parameters fix K = R diag(omega^2, -lambda_sq) R^T with R
the rotation by theta_c; the bare parameters give K = [[W2, -g], [-g, -L2]].
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from scipy.linalg import expm

MOMENT_COLUMNS = ("mean_x", "mean_p", "dx2", "dp2", "dxp")
ME_COLUMNS = tuple(f"{c}_me" for c in MOMENT_COLUMNS)
COEFF_COLUMNS = ("omega_eff_sq", "gamma_eff", "Fy", "Fq", "f1", "f2")
TENSOR_COLUMNS = tuple(f"{f}_{ab}" for f in ("f1", "f2") for ab in ("yy", "yq", "qy", "qq"))
# Each moment's deviation on a row is divided by that row's own scale (see
# expected_moments); exact propagation and expm agree to ~6e-12 per row on
# the drawn configs, and a corrupted digit shows far above.
MOMENT_TOL = 1e-9
# Master-equation moments against expm on the rows before the first
# determinant root: the integrator runs at rel_tol 1e-10, and the moments
# of the drawn configs stay within ~1e-8 of expm there, so an integrator
# run at a rel_tol looser than ~1e-7 fails the check.
ME_TOL = 1e-6
# Coefficients against expm, relative to the magnitude of the terms that
# form them times the cancellation factor of the determinant (see
# expected_coeffs), so rows near a determinant root are held less tightly.
# The drawn configs stay below ~5e-11; the worst rows are the earliest,
# where the program's mode functions lose digits to cancellation.
COEFF_TOL = 1e-8
# Rounding slack for the pure-state bound A2 >= 1.
AREA_SLACK = 1e-12
ROWS_CHECKED = 64
GUARD = 1e-3  # the program's default divergence guard


class OutputError(Exception):
    """An output file is missing or malformed."""


def stiffness_from_modes(m: dict) -> np.ndarray:
    c, s = math.cos(m["theta_c"]), math.sin(m["theta_c"])
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag([m["omega"] ** 2, -m["lambda_sq"]]) @ rot.T


def stiffness_from_bare(b: dict) -> np.ndarray:
    g = b["g"]
    return np.array([[b["omega_bare"] ** 2, -g], [-g, -b["lambda_sq_bare"]]])


def generator(k: np.ndarray, m_s: float, m_e: float) -> np.ndarray:
    cross = math.sqrt(m_s * m_e) * k[0, 1]
    return np.array(
        [
            [0.0, 1.0 / m_s, 0.0, 0.0],
            [-m_s * k[0, 0], 0.0, -cross, 0.0],
            [0.0, 0.0, 0.0, 1.0 / m_e],
            [-cross, 0.0, -m_e * k[1, 1], 0.0],
        ]
    )


def squeezed_cov(spec: dict, hbar: float) -> np.ndarray:
    r = spec.get("r", 1.0)
    a = spec.get("angle", 0.0)
    rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    return rot @ np.diag([hbar * r / 2.0, hbar / (2.0 * r)]) @ rot.T


def initial_state(system: dict, environment: dict, hbar: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the product state in the ordering [x, p, y, q]."""
    cov0 = np.zeros((4, 4))
    cov0[:2, :2] = squeezed_cov(system, hbar)
    cov0[2:, 2:] = squeezed_cov(environment, hbar)
    mean0 = np.array(list(system.get("mean", (0.0, 0.0))) + list(environment.get("mean", (0.0, 0.0))))
    return mean0, cov0


def me_defect_free(modes: dict, system: dict, environment: dict) -> bool:
    """True when none of the known master-equation defects (NOTES.md)
    applies: m_s = 1, no y-q covariance in the environment, zero system
    mean."""
    return (
        modes["m_s"] == 1.0
        and squeezed_cov(environment, modes.get("hbar", 1.0))[0, 1] == 0.0
        and not any(system.get("mean", (0.0, 0.0)))
    )


def transitions(modes: dict, times) -> tuple[np.ndarray, np.ndarray]:
    """T(t) = expm(G t) and its derivative G T(t), one 4x4 matrix per time."""
    gen = generator(stiffness_from_modes(modes), modes["m_s"], modes["m_e"])
    tr = expm(gen * np.asarray(times, dtype=float)[:, None, None])
    return tr, gen @ tr


def expected_moments(tr: np.ndarray, mean0, cov0) -> tuple[np.ndarray, np.ndarray]:
    """Reduced (mean_x, mean_p, dx2, dp2, dxp) on each row, and the scale
    each one's error is measured against on that row: dx2 and dp2
    themselves, sqrt(dx2 dp2) for dxp (|dxp| cannot exceed it), and for a
    mean the sum of the magnitudes of the terms that form it."""
    top = tr[:, :2, :]
    mean = top @ mean0
    mean_scale = np.abs(top) @ np.abs(mean0)
    cov = top @ cov0 @ top.transpose(0, 2, 1)
    dx2, dp2 = cov[:, 0, 0], cov[:, 1, 1]
    dxp = 0.5 * (cov[:, 0, 1] + cov[:, 1, 0])
    want = np.column_stack([mean[:, 0], mean[:, 1], dx2, dp2, dxp])
    scale = np.column_stack([mean_scale[:, 0], mean_scale[:, 1], dx2, dp2, np.sqrt(dx2 * dp2)])
    return want, scale


def expected_coeffs(tr: np.ndarray, dtr: np.ndarray, modes: dict, env_cov) -> tuple[dict, dict]:
    """coeffs.csv columns on each row from the transition blocks, and the
    scale each one's error is measured against.

    With M0 and M1 the system rows of T (system and environment columns),
    the reduced dynamics has drift D = M0' M0^-1 = [[0, 1/m_s],
    [-m_s omega_eff_sq, -gamma_eff]], force couplings K = M1' - D M1 with
    K[1] = (Fy, Fq), and diffusion K Ve M1^T + M1 Ve K^T, so that
    hbar^2 f1 = K[1] Ve M1[1]^T and hbar^2 f2 = M1[0] Ve K[1]^T.  The
    sub-tensors are f1_ab = K[1,a] M1[1,b] / hbar^2 and f2_ab =
    K[1,a] M1[0,b] / hbar^2, so that f1 and f2 are their full contractions
    with Ve.  A scale is the magnitude of the terms that form the value,
    times the cancellation factor of det M0 for everything divided by it;
    a sub-tensor entry is measured against its tensor's largest entry.
    """
    m_s, hb2 = modes["m_s"], modes.get("hbar", 1.0) ** 2
    m0, m1 = tr[:, :2, :2], tr[:, :2, 2:]
    dm0, dm1 = dtr[:, :2, :2], dtr[:, :2, 2:]
    det = m0[:, 0, 0] * m0[:, 1, 1] - m0[:, 0, 1] * m0[:, 1, 0]
    det_terms = np.abs(m0[:, 0, 0] * m0[:, 1, 1]) + np.abs(m0[:, 0, 1] * m0[:, 1, 0])
    adj = np.stack([[m0[:, 1, 1], -m0[:, 0, 1]], [-m0[:, 1, 0], m0[:, 0, 0]]]).transpose(2, 0, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        drift = dm0 @ adj / det[:, None, None]
        drift_scale = (np.abs(dm0) @ np.abs(adj)) * (det_terms / det**2)[:, None, None]
    force = (dm1 - drift @ m1)[:, 1, :]
    force_scale = (np.abs(dm1) + drift_scale @ np.abs(m1))[:, 1, :]
    ve = np.asarray(env_cov)
    want = {
        "dtilde": det,
        "omega_eff_sq": -drift[:, 1, 0] / m_s,
        "gamma_eff": -drift[:, 1, 1],
        "Fy": force[:, 0],
        "Fq": force[:, 1],
    }
    scale = {
        "dtilde": det_terms,
        "omega_eff_sq": drift_scale[:, 1, 0] / m_s,
        "gamma_eff": drift_scale[:, 1, 1],
        "Fy": force_scale[:, 0],
        "Fq": force_scale[:, 1],
    }
    for f, row in (("f1", 1), ("f2", 0)):
        tensor = force[:, :, None] * m1[:, row, None, :] / hb2
        tensor_scale = force_scale[:, :, None] * np.abs(m1[:, row, None, :]) / hb2
        want[f] = np.einsum("nab,ab->n", tensor, ve)
        scale[f] = np.einsum("nab,ab->n", tensor_scale, np.abs(ve))
        # at early times some entries are orders of magnitude below the
        # others and carry the program's rounding of the large ones
        tensor_scale = np.broadcast_to(tensor_scale.max(axis=(1, 2), keepdims=True), tensor.shape)
        for k, ab in enumerate(("yy", "yq", "qy", "qq")):
            want[f"{f}_{ab}"] = tensor[:, k // 2, k % 2]
            scale[f"{f}_{ab}"] = tensor_scale[:, k // 2, k % 2]
    return want, scale


def row_errors(got: np.ndarray, want: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """|got - want| / scale entrywise: 0 where they are equal, inf where
    ``got`` is not finite or they differ on a zero scale."""
    dev = np.abs(got - want)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where(dev == 0.0, 0.0, dev / scale)
    return np.where(np.isnan(err), np.inf, err)


def exceeding(err: np.ndarray, names, tol: float) -> dict:
    """{column: worst error} for the columns whose worst error passes tol."""
    worst = err.max(axis=0) if len(err) else np.zeros(len(names))
    return {name: float(w) for name, w in zip(names, worst) if not w <= tol}


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Header and numeric body of a program CSV (``true``/``false`` -> 1/0)."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            body = fh.read().replace("true", "1").replace("false", "0")
    except OSError as exc:
        raise OutputError(f"cannot read {path}: {exc}") from exc
    rows = [line.split(",") for line in body.splitlines()]
    try:
        data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    except ValueError as exc:
        raise OutputError(f"{os.path.basename(path)}: malformed rows: {exc}") from exc
    return header, data


def read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise OutputError(f"cannot read {path}: {exc}") from exc


def check_modes(config: dict, echoed: dict) -> list[str]:
    """Problems with the normal modes a job echoed back.

    A ``modes`` input must come back unchanged; the modes derived from a
    ``bare`` input must diagonalise the bare stiffness matrix.
    """
    problems = []
    if "modes" in config:
        for key, val in config["modes"].items():
            if echoed.get(key) != val:
                problems.append(f"echoed modes.{key}={echoed.get(key)!r} != input {val!r}")
    else:
        bare = config["bare"]
        k_bare = stiffness_from_bare(bare)
        err = np.abs(stiffness_from_modes(echoed) - k_bare).max()
        if not err <= 1e-10 * max(np.abs(k_bare).max(), 1.0):
            problems.append(f"derived modes do not diagonalise the bare stiffness (err {err:.3e})")
        for key in ("m_s", "m_e"):
            if echoed[key] != bare.get(key, 1.0):
                problems.append(f"derived modes.{key} != bare {key}")
    return problems


def sample_rows(samples: int, rng: np.random.Generator) -> np.ndarray:
    """Up to ROWS_CHECKED row indices: the last row, where moments are
    largest, plus a random subsample of the others."""
    others = rng.choice(samples - 1, size=min(ROWS_CHECKED, samples) - 1, replace=False)
    return np.append(np.sort(others), samples - 1)


def _grid_problem(name: str, times: np.ndarray, t_max: float, samples: int) -> list[str]:
    if np.abs(times - np.linspace(0.0, t_max, samples)).max() > 1e-12 * t_max:
        return [f"{name}: time column is not the configured grid"]
    return []


def _area_problem(name: str, a2: np.ndarray, column: str) -> list[str]:
    if np.isfinite(a2).all() and (a2 >= 1.0 - AREA_SLACK).all():
        return []
    return [f"{name}: {column} not finite and >= 1 (min {np.nanmin(a2)!r})"]


def check_trajectory_csv(path, modes, system, environment, t_max, samples, rng) -> list[str]:
    """Row count, time grid, A2 >= 1 everywhere, expm moments on the
    sampled rows, and the master-equation columns of a ``compare`` CSV."""
    name = os.path.basename(path)
    header, data = read_csv(path)
    if data.shape[0] != samples:
        return [f"{name}: {data.shape[0]} rows, expected {samples}"]
    col = {c: j for j, c in enumerate(header)}
    missing = [c for c in ("t", "A2") + MOMENT_COLUMNS if c not in col]
    if missing:
        return [f"{name}: missing columns {missing}"]
    problems = _grid_problem(name, data[:, col["t"]], t_max, samples)
    problems += _area_problem(name, data[:, col["A2"]], "A2")
    mean0, cov0 = initial_state(system, environment, modes.get("hbar", 1.0))
    rows = sample_rows(samples, rng)
    want, scale = expected_moments(transitions(modes, data[rows, col["t"]])[0], mean0, cov0)
    got = data[np.ix_(rows, [col[c] for c in MOMENT_COLUMNS])]
    bad = exceeding(row_errors(got, want, scale), MOMENT_COLUMNS, MOMENT_TOL)
    if bad:
        problems.append(f"{name}: moments differ from expm: {bad}")
    if "rel_err_max" in col:
        problems += check_me_columns(name, data, col, modes, system, environment)
    return problems


def check_me_columns(name, data, col, modes, system, environment) -> list[str]:
    """Master-equation columns of a ``compare`` CSV.

    On every row the moments are finite, A2_me is finite and >= 1, and
    rel_err_max is the largest deviation between the exact and the
    master-equation moments.  On the rows before the first determinant
    root (|det M0| > GUARD on every earlier row, so no bridging yet), the
    master-equation moments must match expm to ME_TOL per row when the
    config is free of the known master-equation defects; on other configs
    those rows are left unchecked.
    """
    missing = [c for c in ME_COLUMNS + ("A2_me",) if c not in col]
    if missing:
        return [f"{name}: missing columns {missing}"]
    exact = data[:, [col[c] for c in MOMENT_COLUMNS]]
    me = data[:, [col[c] for c in ME_COLUMNS]]
    if not np.isfinite(me).all():
        return [f"{name}: master-equation moments are not all finite"]
    problems = _area_problem(name, data[:, col["A2_me"]], "A2_me")
    rel = (np.abs(exact - me) / np.maximum(np.abs(exact), 1.0)).max(axis=1)
    if not np.allclose(data[:, col["rel_err_max"]], rel, rtol=1e-12, atol=0.0):
        problems.append(f"{name}: rel_err_max is not the deviation of the two moment sets")
    if me_defect_free(modes, system, environment):
        tr = transitions(modes, data[:, col["t"]])[0]
        ahead = np.flatnonzero(np.linalg.det(tr[:, :2, :2]) <= GUARD)
        first = ahead[0] if len(ahead) else len(tr)
        mean0, cov0 = initial_state(system, environment, modes.get("hbar", 1.0))
        want, scale = expected_moments(tr[:first], mean0, cov0)
        bad = exceeding(row_errors(me[:first], want, scale), ME_COLUMNS, ME_TOL)
        if bad:
            problems.append(f"{name}: master-equation moments before the first root differ from expm: {bad}")
    return problems


def check_coeffs_csv(path, modes, environment, samples, t_max) -> list[str]:
    """Row count, time grid, ``valid`` against ``dtilde``, and every
    coefficient column against expm (``expected_coeffs``) on every row.

    Columns that carry a known defect (NOTES.md) are checked only where it
    vanishes: the f2 sub-tensor and f2 carry a factor m_s, so they need
    m_s = 1; f1 and f2 weight the y-q covariance by half, so they need an
    environment without it.
    """
    name = os.path.basename(path)
    header, data = read_csv(path)
    if data.shape[0] != samples:
        return [f"{name}: {data.shape[0]} rows, expected {samples}"]
    col = {c: j for j, c in enumerate(header)}
    missing = [c for c in ("t", "dtilde", "valid") + COEFF_COLUMNS + TENSOR_COLUMNS if c not in col]
    if missing:
        return [f"{name}: missing columns {missing}"]
    times = data[:, col["t"]]
    problems = _grid_problem(name, times, t_max, samples)
    if not np.array_equal(data[:, col["valid"]] == 1.0, np.abs(data[:, col["dtilde"]]) > GUARD):
        problems.append(f"{name}: 'valid' disagrees with |dtilde| > {GUARD}")
    env_cov = squeezed_cov(environment, modes.get("hbar", 1.0))
    checked = ["dtilde", "omega_eff_sq", "gamma_eff", "Fy", "Fq", "f1_yy", "f1_yq", "f1_qy", "f1_qq"]
    if modes["m_s"] == 1.0:
        checked += ["f2_yy", "f2_yq", "f2_qy", "f2_qq"]
    if env_cov[0, 1] == 0.0:
        checked += ["f1", "f2"] if modes["m_s"] == 1.0 else ["f1"]
    want, scale = expected_coeffs(*transitions(modes, times), modes, env_cov)
    got = data[:, [col[c] for c in checked]]
    err = row_errors(got, np.column_stack([want[c] for c in checked]),
                     np.column_stack([scale[c] for c in checked]))
    err[want["dtilde"] == 0.0] = 0.0  # no coefficients exist at a root
    bad = exceeding(err, checked, COEFF_TOL)
    if bad:
        problems.append(f"{name}: coefficients differ from expm: {bad}")
    return problems


def _varied(echo: dict, vary: str, value: float) -> tuple[dict, dict, dict]:
    modes = dict(echo["modes"])
    system = dict(echo["system"])
    environment = dict(echo["environment"])
    if vary == "r_s":
        system["r"] = value
    elif vary == "r_e":
        environment["r"] = value
    else:
        modes[vary] = value
    return modes, system, environment


def check_job(job, out_dir: str, rng: np.random.Generator) -> list[str]:
    """All problems found in the outputs of one successful job."""
    cfg = job.config
    grid = cfg["grid"]
    try:
        if job.command == "verify":
            report = read_json(os.path.join(out_dir, "verify.json"))
            failed = [k for k, c in report.get("checks", {}).items() if c.get("pass") is not True]
            if report.get("pass") is not True or failed or not report.get("checks"):
                return [f"verify.json: pass is not true (failed checks {failed})"]
            return []
        if job.command == "scan":
            index = read_json(os.path.join(out_dir, "scan_index.json"))
            problems = check_modes(cfg, index["config"]["modes"])
            runs = index.get("runs", [])
            if [r.get("value") for r in runs] != list(job.values):
                return problems + ["scan_index.json: runs are not one per value in input order"]
            for k, run in enumerate(runs):
                if run.get("file") != f"scan_{k:03d}.csv":
                    problems.append(f"scan_index.json: run {k} names {run.get('file')!r}")
                    continue
                m, s, e = _varied(index["config"], job.vary, job.values[k])
                problems += check_trajectory_csv(
                    os.path.join(out_dir, run["file"]), m, s, e, grid["t_max"], grid["samples"], rng
                )
            return problems
        stem = "coeffs" if job.command == "coeffs" else "evolve"
        meta = read_json(os.path.join(out_dir, f"{stem}.meta.json"))
        modes = meta["config"]["modes"]
        problems = check_modes(cfg, modes)
        path = os.path.join(out_dir, f"{stem}.csv")
        if job.command == "coeffs":
            return problems + check_coeffs_csv(path, modes, cfg["environment"], grid["samples"], grid["t_max"])
        return problems + check_trajectory_csv(
            path, modes, cfg["system"], cfg["environment"], grid["t_max"], grid["samples"], rng
        )
    except (OutputError, KeyError, TypeError) as exc:
        return [f"{type(exc).__name__}: {exc}"]
