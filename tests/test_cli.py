import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import invharm.cli
from invharm import NormalModes, coeffs_closed, contract, dtilde, find_divergences
from invharm.cli import (
    ConfigError,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VERIFY,
    load_config,
    main,
    parse_config,
)


def write_config(path, extra=None, modes=None):
    raw = {"modes": modes if modes is not None else {}}
    if extra:
        raw.update(extra)
    path.write_text(json.dumps(raw))
    return str(path)


def run_cli(args):
    return main(args)


class TestConfigParsing:
    def test_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json"))
        assert cfg.modes.omega == 1.0
        assert cfg.modes.lambda_sq == 1.0
        assert cfg.modes.theta_c == pytest.approx(math.pi / 64)
        assert cfg.system.r == 4.0
        assert cfg.environment.r == 2.0
        assert cfg.t_max == 16.0
        assert cfg.samples == 801
        assert cfg.method == "exact"
        assert cfg.fit_window == (5.0, 15.0)

    def test_bare_parameterization(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(
            json.dumps(
                {"bare": {"omega_bare": 1.0, "lambda_sq_bare": 1.0, "g": 0.1}}
            )
        )
        cfg = load_config(str(p))
        # trace identity of the diagonalization
        assert cfg.modes.omega**2 - cfg.modes.lambda_sq == pytest.approx(
            0.0, abs=1e-12
        )

    def test_rejects_both_parameterizations(self):
        with pytest.raises(ConfigError):
            parse_config({"modes": {}, "bare": {}})
        with pytest.raises(ConfigError):
            parse_config({})

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            parse_config({"modes": {"omega": -1.0}})
        with pytest.raises(ConfigError):
            parse_config({"modes": {"omega": "one"}})
        with pytest.raises(ConfigError):
            parse_config({"modes": {}, "grid": {"t_max": -1.0}})
        with pytest.raises(ConfigError):
            parse_config({"modes": {}, "grid": {"samples": 1}})
        with pytest.raises(ConfigError):
            parse_config({"modes": {}, "grid": {"samples": 10, "dt": 0.1}})
        with pytest.raises(ConfigError):
            parse_config({"modes": {}, "method": "magic"})
        with pytest.raises(ConfigError):
            parse_config({"modes": {}, "fit_window": [5.0]})

    def test_dt_grid(self):
        cfg = parse_config({"modes": {}, "grid": {"t_max": 2.0, "dt": 0.5}})
        assert cfg.samples == 5
        assert np.allclose(cfg.grid(), [0.0, 0.5, 1.0, 1.5, 2.0])

    @pytest.mark.parametrize(
        "raw",
        [
            {
                "modes": {"theta_c": 0.1},
                "grid": {"t_max": 4.0, "samples": 11},
                "method": "me",
            },
            {"bare": {"omega_bare": 1.0, "lambda_sq_bare": 1.0, "g": 0.1}},
            {"modes": {}, "grid": {"t_max": 2.0, "dt": 0.25}},
            {
                "modes": {"m_s": 0.9, "m_e": 1.6},
                "system": {"r": 3.0, "angle": 0.4, "mean": [0.5, -0.2]},
                "environment": {"r": 1.5, "angle": -0.3, "mean": [1.0, 0.5]},
                "integrator": {
                    "rel_tol": 1e-8,
                    "abs_tol": 1e-9,
                    "divergence_guard": 0.05,
                },
                "method": "compare",
                "fit_window": [2, 7.5],
            },
        ],
        ids=["modes", "bare", "dt_grid", "displaced_rotated"],
    )
    def test_echo_round_trip(self, raw):
        cfg = parse_config(raw)
        again = parse_config(json.loads(json.dumps(cfg.echo())))
        assert again == cfg
        assert again.echo() == cfg.echo()

    @pytest.mark.parametrize("value", [[], 5, "x"], ids=["list", "number", "string"])
    @pytest.mark.parametrize(
        "section", ["modes", "bare", "system", "environment", "grid", "integrator"]
    )
    def test_rejects_a_section_that_is_not_an_object(
        self, tmp_path, capsys, section, value
    ):
        raw = {"modes": {}}
        if section == "bare":
            del raw["modes"]
        raw[section] = value
        with pytest.raises(ConfigError, match=f"'{section}' must be a JSON object"):
            parse_config(raw)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(raw))
        code = run_cli(["evolve", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "validation"
        assert err["message"] == f"'{section}' must be a JSON object"


class TestExitCodesAndErrors:
    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code = run_cli(["modes", "--config", str(p), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"
        assert err["error"]["message"]

    def test_missing_file(self, tmp_path, capsys):
        code = run_cli(
            ["modes", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "validation"

    def test_output_path_is_a_file(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text("{\"modes\": {}}")
        code = run_cli(["evolve", "--config", str(p), "--out", str(p)])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "validation"
        assert err["message"].startswith("cannot create output directory: ")

    @pytest.mark.parametrize(
        "command, blocked",
        [("evolve", "evolve.csv"), ("coeffs", "coeffs.meta.json")],
        ids=["first_write", "second_write"],
    )
    def test_unwritable_output_file(self, tmp_path, capsys, command, blocked):
        # a directory where an output file goes: the write fails after the
        # output directory was made
        cfg = write_config(
            tmp_path / "c.json", extra={"grid": {"t_max": 2.0, "samples": 5}}
        )
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        code = run_cli([command, "--config", cfg, "--out", str(out)])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "validation"
        assert err["message"].startswith("cannot write output: ")
        assert blocked in err["message"]

    @pytest.mark.parametrize(
        "raw",
        [
            {"modes": {"omega": math.nan}},
            {"modes": {"lambda_sq": math.inf}},
            {"modes": {"m_e": 10**400}},
            {"modes": {}, "system": {"r": math.nan}},
            {"modes": {}, "system": {"mean": [True, False]}},
            {"modes": {}, "environment": {"mean": [0.0, math.nan]}},
            {"modes": {}, "fit_window": [False, True]},
            {"modes": {}, "fit_window": [0.0, math.inf]},
        ],
        ids=[
            "nan_omega",
            "inf_lambda_sq",
            "int_beyond_float",
            "nan_squeezing",
            "bool_mean",
            "nan_mean",
            "bool_fit_window",
            "inf_fit_window",
        ],
    )
    def test_rejects_non_finite_and_boolean_numbers(self, tmp_path, capsys, raw):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(raw))  # NaN and Infinity as JSON extensions
        code = run_cli(["evolve", "--config", str(p), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"
        assert not (tmp_path / "evolve.csv").exists()

    @pytest.mark.parametrize(
        "command, t_max, column",
        [
            ("evolve", 400.0, "dx2"),
            ("evolve", 800.0, "dx2"),
            ("coeffs", 800.0, "dtilde"),
            ("divergences", 800.0, "Dtilde"),
        ],
    )
    def test_non_finite_output_is_numerical(
        self, tmp_path, capsys, command, t_max, column
    ):
        # the kernels overflow long before t_max: a non-finite value in
        # an output exits 3 naming what failed, with no RuntimeWarning
        cfg = write_config(
            tmp_path / "c.json",
            extra={"grid": {"t_max": t_max, "samples": 11}},
            modes={"lambda_sq": 1.0},
        )
        code = run_cli([command, "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        payload = json.loads(err)
        assert payload["error"]["type"] == "numerical"
        assert payload["error"]["message"].startswith(
            f"non-finite {column} at t = " if command != "divergences" else column
        )
        assert "Warning" not in err

    def test_coeffs_stay_finite_until_the_kernels_overflow(self, tmp_path, capsys):
        # every coefficient is a closed form in the kernels, so no
        # column breaks down before the kernels themselves overflow
        cfg = write_config(
            tmp_path / "c.json",
            extra={"grid": {"t_max": 200.0, "samples": 11}},
            modes={"lambda_sq": 1.0},
        )
        code = run_cli(["coeffs", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert "Warning" not in capsys.readouterr().err
        lines = (tmp_path / "coeffs.csv").read_text().splitlines()[1:]
        values = [float(v) for line in lines for v in line.split(",")[:-1]]
        assert len(lines) == 11
        assert all(math.isfinite(v) for v in values)

    @pytest.mark.parametrize("command", ["evolve", "coeffs"])
    @pytest.mark.parametrize("guard", [0, -0.5])
    def test_rejects_nonpositive_divergence_guard(
        self, tmp_path, capsys, command, guard
    ):
        # a guard <= 0 blocks no window: evolve would fail inside the
        # integrator at the first root, and coeffs would mark it valid
        cfg = write_config(
            tmp_path / "c.json",
            extra={
                "grid": {"t_max": 20, "samples": 401},
                "method": "compare",
                "integrator": {"divergence_guard": guard},
            },
            modes={"lambda_sq": 1.0, "theta_c": 0.1},
        )
        code = run_cli([command, "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"
        assert "divergence_guard" in err["error"]["message"]
        assert not (tmp_path / f"{command}.csv").exists()

    def test_invalid_parameters(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", modes={"omega": -2.0})
        code = run_cli(["modes", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        capsys.readouterr()

    def test_scan_requires_vary(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        code = run_cli(["scan", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        capsys.readouterr()

    def test_scan_unknown_parameter(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        code = run_cli(
            [
                "scan",
                "--config",
                cfg,
                "--out",
                str(tmp_path),
                "--vary",
                "hbar",
                "--values",
                "1,2",
            ]
        )
        assert code == EXIT_CONFIG
        capsys.readouterr()

    def test_scan_rejects_non_finite_values(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json", extra={"grid": {"t_max": 4.0, "samples": 11}}
        )
        for vary in ("r_e", "theta_c"):
            for value in ("nan", "inf", "1e400"):
                args = ["--vary", vary, "--values", f"1.0,{value}"]
                code = run_cli(["scan", "--config", cfg, "--out", str(tmp_path), *args])
                assert code == EXIT_CONFIG
                err = json.loads(capsys.readouterr().err)["error"]
                assert err["type"] == "validation"
                assert repr(value) in err["message"]
        assert not list(tmp_path.glob("scan_*"))


class TestModesCommand:
    def test_round_trip_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", modes={"theta_c": math.pi / 64})
        assert run_cli(["modes", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        report = json.loads((tmp_path / "modes.json").read_text())
        assert report["modes"]["omega"] == 1.0
        assert report["round_trip"]["omega"] == pytest.approx(1.0, rel=1e-12)
        assert abs(report["round_trip"]["theta_c"]) == pytest.approx(
            math.pi / 64, rel=1e-12
        )
        assert report["bare"]["g"] > 0.0

    def test_byte_determinism(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["modes", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert run_cli(["modes", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        capsys.readouterr()
        assert (out1 / "modes.json").read_bytes() == (out2 / "modes.json").read_bytes()


class TestCoeffsCommand:
    def test_decoupled_diffusion_columns_zero(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            extra={"grid": {"t_max": 4.0, "samples": 21}},
            modes={"theta_c": 0.0},
        )
        assert run_cli(["coeffs", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        lines = (tmp_path / "coeffs.csv").read_text().splitlines()
        header = lines[0].split(",")
        f1_col = header.index("f1")
        valid_col = header.index("valid")
        assert len(lines) == 22
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[f1_col]) == 0.0
            assert cells[valid_col] == "true"

    @pytest.mark.parametrize("guard", [None, 0.2], ids=["default_guard", "guard_0.2"])
    def test_valid_is_dtilde_above_the_guard(self, tmp_path, capsys, guard):
        # a grid with the first determinant root on its middle row
        modes = NormalModes(1.0, 1.0, math.pi / 64, 1.0, 1.0)
        root = find_divergences(modes, 10.0)[0]
        extra = {"grid": {"t_max": 2.0 * root, "samples": 801}}
        if guard is not None:
            extra["integrator"] = {"divergence_guard": guard}
        cfg = write_config(tmp_path / "c.json", extra=extra)
        assert run_cli(["coeffs", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        lines = (tmp_path / "coeffs.csv").read_text().splitlines()
        col = lines[0].split(",").index("dtilde")
        cells = [line.split(",") for line in lines[1:]]
        dt = np.array([float(c[col]) for c in cells])
        valid = np.array([c[-1] == "true" for c in cells])
        assert np.array_equal(valid, np.abs(dt) > (1e-3 if guard is None else guard))
        # the root row alone, or the three rows within the wider guard
        want = [400] if guard is None else [399, 400, 401]
        assert np.flatnonzero(~valid).tolist() == want
        assert abs(dt[400]) < 1e-6

    def test_f_columns_contract_the_sub_tensors(self, tmp_path, capsys):
        # a rotated environment: every covariance entry reaches f1 and f2
        cfg = write_config(
            tmp_path / "c.json",
            extra={
                "grid": {"t_max": 12.0, "samples": 97},
                "environment": {"angle": 0.3},
            },
        )
        assert run_cli(["coeffs", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        table = np.genfromtxt(tmp_path / "coeffs.csv", delimiter=",", names=True)
        cov = load_config(cfg).states()[1].cov
        for f in ("f1", "f2"):
            rows = [[table[f"{f}_{a}{b}"] for b in "yq"] for a in "yq"]
            assert np.array_equal(table[f], contract(rows, cov)), f

    def test_meta_written(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json", extra={"grid": {"t_max": 2.0, "samples": 5}}
        )
        assert run_cli(["coeffs", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        meta = json.loads((tmp_path / "coeffs.meta.json").read_text())
        assert parse_config(meta["config"]).modes.theta_c == pytest.approx(
            math.pi / 64
        )


class TestEvolveCommand:
    def test_exact_determinism_and_shape(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json", extra={"grid": {"t_max": 6.0, "samples": 61}}
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["evolve", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert run_cli(["evolve", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        capsys.readouterr()
        data1 = (out1 / "evolve.csv").read_bytes()
        assert data1 == (out2 / "evolve.csv").read_bytes()
        lines = data1.decode().splitlines()
        assert lines[0] == "t,mean_x,mean_p,dx2,dp2,dxp,A2,S,S_approx,varsigma,E"
        assert len(lines) == 62
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[6]) == pytest.approx(1.0, abs=1e-12)  # pure: A2 = 1

    def test_compare_mode_columns(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            extra={"grid": {"t_max": 6.0, "samples": 61}, "method": "compare"},
        )
        assert run_cli(["evolve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        lines = (tmp_path / "evolve.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert "dx2_me" in header
        assert header[-1] == "rel_err_max"
        rel = [float(l.split(",")[-1]) for l in lines[1:]]
        assert max(rel) < 1e-6  # pre-breakdown window

    @pytest.mark.parametrize(
        "modes, extra",
        [
            ({"lambda_sq": 2.5, "theta_c": -0.01}, {}),
            (
                {"m_s": 0.9, "m_e": 1.6, "theta_c": 0.1},
                {
                    "environment": {"angle": 0.3, "mean": [0.2, -0.1]},
                    "system": {"mean": [0.5, 0.1]},
                },
            ),
            (
                {"omega": 1.7, "lambda_sq": 1.0, "theta_c": 0.3},
                {"grid": {"t_max": 30.0, "samples": 1201}},
            ),
        ],
        ids=["fast_environment", "asymmetric_displaced", "fast_system"],
    )
    def test_compare_holds_past_late_roots(self, tmp_path, capsys, modes, extra):
        # several determinant roots, the late ones steep: every restart
        # after a bridged window must be well-conditioned
        raw = {"grid": {"t_max": 24.0, "samples": 801}, "method": "compare"}
        raw.update(extra)
        cfg = write_config(tmp_path / "c.json", extra=raw, modes=modes)
        assert run_cli(["evolve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        table = np.genfromtxt(tmp_path / "evolve.csv", delimiter=",", names=True)
        assert table["rel_err_max"].max() <= 1e-6

    def test_me_meta_reports_bridges(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            extra={
                "grid": {"t_max": 10.0, "samples": 201},
                "method": "me",
                "integrator": {"divergence_guard": 0.2},
            },
        )
        assert run_cli(["evolve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        meta = json.loads((tmp_path / "evolve.meta.json").read_text())
        assert len(meta["bridges"]) == 1
        a, b = meta["bridges"][0]
        assert 7.5 < a < b < 8.5

    def test_compare_meta_reports_the_me_bridges(self, tmp_path, capsys):
        metas = {}
        for method in ("me", "compare"):
            out = tmp_path / method
            cfg = write_config(
                tmp_path / f"{method}.json",
                extra={"grid": {"t_max": 20.0, "samples": 401}, "method": method},
                modes={"omega": 1.3, "lambda_sq": 0.7, "theta_c": 0.08, "m_e": 1.6},
            )
            assert run_cli(["evolve", "--config", cfg, "--out", str(out)]) == EXIT_OK
            metas[method] = json.loads((out / "evolve.meta.json").read_text())
        capsys.readouterr()
        assert len(metas["me"]["bridges"]) == 6
        assert metas["compare"]["bridges"] == metas["me"]["bridges"]


class TestDivergencesCommand:
    def test_matches_library(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json", extra={"grid": {"t_max": 16.0, "samples": 5}}
        )
        assert run_cli(
            ["divergences", "--config", cfg, "--out", str(tmp_path)]
        ) == EXIT_OK
        capsys.readouterr()
        report = json.loads((tmp_path / "divergences.json").read_text())
        modes = NormalModes(
            omega=1.0, lambda_sq=1.0, theta_c=math.pi / 64, m_s=1.0, m_e=1.0
        )
        expected = find_divergences(modes, 16.0)
        assert report["divergence_times"] == pytest.approx(expected, abs=1e-9)
        assert report["t_c_derived"] == pytest.approx(
            -2.0 * math.log(math.pi / 64), rel=1e-12
        )
        assert report["t_c_paper"] < report["t_c_derived"]

    def test_decoupled_reports_no_roots(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            extra={"grid": {"t_max": 30.0, "samples": 5}},
            modes={"theta_c": 0.0},
        )
        assert run_cli(
            ["divergences", "--config", cfg, "--out", str(tmp_path)]
        ) == EXIT_OK
        capsys.readouterr()
        report = json.loads((tmp_path / "divergences.json").read_text())
        assert report["divergence_times"] == []
        assert report["t_c_paper"] is None

    def test_late_roots_return(self, tmp_path, capsys):
        modes = {"omega": 0.001, "lambda_sq": -9e-6, "theta_c": 0.785398}
        cfg = write_config(
            tmp_path / "c.json", extra={"grid": {"t_max": 1e6}}, modes=modes
        )
        assert run_cli(
            ["divergences", "--config", cfg, "--out", str(tmp_path)]
        ) == EXIT_OK
        capsys.readouterr()
        report = json.loads((tmp_path / "divergences.json").read_text())
        expected = find_divergences(NormalModes(m_s=1.0, m_e=1.0, **modes), 1e6)
        assert report["divergence_times"] == expected
        assert report["divergence_times"][-1] > 2.0**19


class TestScanCommand:
    def test_intercept_ladder_over_coupling(self, tmp_path, capsys):
        # successive theta/4 steps lower the fitted intercept by ~ ln 4;
        # late window keeps all three couplings in the linear regime
        cfg = write_config(
            tmp_path / "c.json",
            extra={
                "grid": {"t_max": 26.0, "samples": 1301},
                "fit_window": [14.0, 24.0],
            },
        )
        values = f"{math.pi/64},{math.pi/256},{math.pi/1024}"
        assert (
            run_cli(
                [
                    "scan",
                    "--config",
                    cfg,
                    "--out",
                    str(tmp_path),
                    "--vary",
                    "theta_c",
                    "--values",
                    values,
                ]
            )
            == EXIT_OK
        )
        capsys.readouterr()
        index = json.loads((tmp_path / "scan_index.json").read_text())
        assert index["vary"] == "theta_c"
        runs = index["runs"]
        assert [r["file"] for r in runs] == [
            "scan_000.csv",
            "scan_001.csv",
            "scan_002.csv",
        ]
        for r in runs:
            assert (tmp_path / r["file"]).exists()
            assert r["slope"] == pytest.approx(1.0, rel=0.1)
        spacings = [runs[i + 1]["S0"] - runs[i]["S0"] for i in range(2)]
        for s in spacings:
            assert s == pytest.approx(-math.log(4.0), rel=0.3)

    def test_single_threaded_same_bytes(self, tmp_path, capsys):
        # two identical scans write identical bytes
        cfg = write_config(
            tmp_path / "c.json", extra={"grid": {"t_max": 4.0, "samples": 41}}
        )
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert (
                run_cli(
                    [
                        "scan",
                        "--config",
                        cfg,
                        "--out",
                        str(out),
                        "--vary",
                        "omega",
                        "--values",
                        "0.5,1.0,2.0",
                    ]
                )
                == EXIT_OK
            )
            outs.append(out)
        capsys.readouterr()
        for fn in ("scan_000.csv", "scan_001.csv", "scan_002.csv", "scan_index.json"):
            assert (outs[0] / fn).read_bytes() == (outs[1] / fn).read_bytes()


class TestVerifyCommand:
    def test_default_config_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        assert run_cli(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["pass"] is True
        assert report["checks"]["dual_formula"]["max_rel_err"] < 1e-9
        assert report["checks"]["oracle"]["max_rel_err"] < 1e-6
        on_disk = json.loads((tmp_path / "verify.json").read_text())
        assert on_disk == report

    @pytest.mark.parametrize(
        "modes, extra",
        [
            ({"m_s": 0.9}, None),
            ({}, {"environment": {"angle": 0.3}}),
            ({}, {"system": {"mean": [1.0, -0.5]}}),
        ],
        ids=["m_s", "env_angle", "sys_mean"],
    )
    def test_passes_off_the_default_config(self, tmp_path, capsys, modes, extra):
        cfg = write_config(tmp_path / "c.json", extra=extra, modes=modes)
        assert run_cli(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["checks"]["oracle"]["max_rel_err"] < 1e-6

    def test_dual_formula_mismatch_fails(self, tmp_path, capsys, monkeypatch):
        # a closed route off by 1e-6 in one field: verify exits 2
        calls = []

        def skewed(modes, t):
            calls.append((modes, t))
            c = coeffs_closed(modes, t)
            return c._replace(gamma_eff=c.gamma_eff * (1.0 + 1e-6))

        monkeypatch.setattr(invharm.cli, "coeffs_closed", skewed)
        cfg = write_config(tmp_path / "c.json")
        assert run_cli(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_VERIFY
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False
        assert report["checks"]["dual_formula"]["pass"] is False
        assert report["checks"]["oracle"]["pass"] is True
        [(modes, t)] = calls
        assert t.shape == (1000,)
        assert np.all(np.abs(dtilde(modes, t)) > 1e-3)

    def test_draws_keep_the_first_accepted_trials(self, monkeypatch):
        # every draw in order: three batches, none rejected
        monkeypatch.setattr(invharm.cli, "DUAL_MIN_DTILDE", -1.0)
        monkeypatch.setattr(invharm.cli, "DUAL_TRIALS", 3 * invharm.cli.DUAL_BATCH)
        raw = invharm.cli._dual_formula_draws(np.random.default_rng(20240817))
        # a threshold that rejects enough of the first batch that a
        # second one is drawn
        monkeypatch.setattr(invharm.cli, "DUAL_MIN_DTILDE", 0.3)
        monkeypatch.setattr(invharm.cli, "DUAL_TRIALS", 1000)
        kept = invharm.cli._dual_formula_draws(np.random.default_rng(20240817))
        accepted = np.abs(dtilde(NormalModes(*raw[:5]), raw[5])) > 0.3
        assert np.count_nonzero(accepted[: invharm.cli.DUAL_BATCH]) < 1000
        assert np.array_equal(kept, raw[:, accepted][:, :1000])


class TestColdStart:
    # the exact commands are closed forms, so only a master-equation
    # integration may import scipy.integrate, the bulk of the start-up
    SRC = str(Path(__file__).resolve().parents[1] / "src")
    SCRIPT = (
        "import json, sys\n"
        "from invharm.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, 'scipy.integrate' in sys.modules]))\n"
    )

    def run_fresh(self, commands):
        """Exit codes of ``commands`` run by ``main`` in a new interpreter,
        and whether scipy.integrate was loaded afterwards."""
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(commands)],
            env={**os.environ, "PYTHONPATH": self.SRC},
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        return json.loads(proc.stdout.splitlines()[-1])

    def test_exact_commands_skip_the_integrator(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", extra={"grid": {"t_max": 4.0, "samples": 41}}
        )
        out = str(tmp_path / "out")
        commands = [
            [command, "--config", cfg, "--out", out]
            for command in ("modes", "coeffs", "divergences", "evolve")
        ]
        commands.append(
            ["scan", "--config", cfg, "--out", out]
            + ["--vary", "theta_c", "--values", "0.05,0.1"]
        )
        codes, loaded = self.run_fresh(commands)
        assert codes == [EXIT_OK] * len(commands)
        assert not loaded

    def test_master_equation_loads_the_integrator(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            extra={"grid": {"t_max": 4.0, "samples": 41}, "method": "me"},
        )
        codes, loaded = self.run_fresh(
            [["evolve", "--config", cfg, "--out", str(tmp_path)]]
        )
        assert codes == [EXIT_OK]
        assert loaded
