import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import invharm.cli
import invharm.evolution
from invharm import NormalModes, find_divergences, fit_entropy_line, run_exact
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

    @pytest.mark.parametrize(
        "raw, message",
        [
            (
                {"modes": {"lamda_sq": 2.0}, "grid": {"tmax": 3.0}, "methd": "me"},
                "unknown field 'methd'",
            ),
            ({"modes": {"lamda_sq": 2.0}}, "'modes': unknown field 'lamda_sq'"),
            (
                {"bare": {"omega_bare": 1.0, "lambda_sq_bare": 1.0, "g": 0.1, "G": 0.2}},
                "'bare': unknown field 'G'",
            ),
            ({"modes": {}, "system": {"means": [1.0, 0.0]}}, "'system': unknown field 'means'"),
            ({"modes": {}, "environment": {"t_max": 3.0}}, "'environment': unknown field 't_max'"),
            ({"modes": {}, "grid": {"tmax": 3.0}}, "'grid': unknown field 'tmax'"),
            # the divergence guard and the stepper's tolerances are
            # constants of invharm.evolution: there is no integrator section
            (
                {"modes": {}, "integrator": {"divergence_guard": 1e-3}},
                "unknown field 'integrator'",
            ),
            ({"modes": {}, "integrator": {"rel_tol": 1e-10}}, "unknown field 'integrator'"),
            ({"modes": {}, "integrator": {"abs_tol": 1e-12}}, "unknown field 'integrator'"),
        ],
        ids=[
            "top_level", "modes", "bare", "system", "environment", "grid", "integrator",
            "rel_tol", "abs_tol",
        ],
    )
    def test_rejects_an_unknown_key(self, tmp_path, capsys, raw, message):
        # a misspelled key would otherwise leave its default in force
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(raw)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(raw))
        code = run_cli(["evolve", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "validation", "message": message}
        assert not (tmp_path / "o").exists()

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
        "section", ["modes", "bare", "system", "environment", "grid"]
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
        "section, field, value",
        [
            ("modes", "hbar", 1e-300),
            ("bare", "hbar", 1e-300),
            ("modes", "hbar", 1e160),
            ("modes", "m_s", 1e-320),
            ("modes", "omega", 1e200),
        ],
    )
    @pytest.mark.parametrize("command", ["modes", "evolve"])
    def test_out_of_range_parameters_are_named(
        self, tmp_path, capsys, command, section, field, value
    ):
        # finite fields whose per-run constants overflow or underflow
        # (hbar^2, m_e / m_s, omega^2) are validation errors naming them
        body = (
            {"omega_bare": 1.0, "lambda_sq_bare": 1.0, "g": 0.1}
            if section == "bare"
            else {}
        )
        p = tmp_path / "c.json"
        p.write_text(json.dumps({section: {**body, field: value}}))
        code = run_cli([command, "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "validation"
        assert field in err["message"] and "out of range" in err["message"]

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

    def test_sub_unit_area_is_numerical(self, tmp_path, capsys, monkeypatch):
        # an area below the purity floor beside a NaN one exits 3, and
        # the message names the smallest area, not the NaN
        import invharm.evolution as evolution

        real = evolution._reduced_area

        def broken(*args):
            A = real(*args)
            A[1], A[2] = math.nan, 0.5
            return A

        monkeypatch.setattr(evolution, "_reduced_area", broken)
        cfg = write_config(
            tmp_path / "c.json", extra={"grid": {"t_max": 2.0, "samples": 5}}
        )
        code = run_cli(["evolve", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_NUMERIC
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "numerical", "message": "scaled area A = 0.5 < 1"}
        assert not (tmp_path / "evolve.csv").exists()

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

    @pytest.mark.parametrize("command", ["evolve", "coeffs", "scan"])
    def test_a_grid_too_large_to_allocate_is_a_validation_error(
        self, tmp_path, capsys, command
    ):
        # 2**55 samples of 8 bytes exceed every 64-bit address space, so
        # the allocation fails at once
        cfg = write_config(tmp_path / "c.json", extra={"grid": {"samples": 2**55}})
        argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
        if command == "scan":
            argv += ["--vary", "theta_c", "--values=0.01"]
        assert run_cli(argv) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "validation"
        assert err["message"].startswith("out of memory: ")

    @pytest.mark.parametrize(
        "grid, message",
        [
            ({"samples": 2**63 - 1}, "grid.samples must be at most "),
            ({"samples": 2**64 - 1}, "grid.samples must be at most "),
            ({"samples": 2**61}, "grid.samples must be at most "),
            ({"samples": 10**30}, "grid.samples must be at most "),
            ({"dt": 1e-300}, "grid.dt is too small: "),
            ({"dt": 5e-324}, "grid.dt is too small: t_max / dt = inf "),
            # np.linspace counts in float64, where these round to 2**60
            ({"samples": 2**60 - 64}, "grid.samples must be at most "),
            ({"samples": 2**60 - 1}, "grid.samples must be at most "),
            ({"t_max": 3.0, "dt": 3.0 / (2**60 - 32)}, "grid.dt is too small: "),
        ],
    )
    def test_a_grid_too_large_to_describe_names_its_field(
        self, tmp_path, capsys, grid, message
    ):
        # past MAX_SAMPLES numpy cannot describe the grid at all, so it
        # is rejected before any allocation
        cfg = write_config(tmp_path / "c.json", extra={"grid": grid})
        code = run_cli(["evolve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "validation"
        assert err["message"].startswith(message)

    def test_the_largest_grid_numpy_can_describe_fails_at_allocation(
        self, tmp_path, capsys
    ):
        # np.linspace counts in float64, and every count from 2**60 - 64
        # rounds to 2**60, too many for one array; MAX_SAMPLES is the
        # largest count below them
        largest = invharm.cli.MAX_SAMPLES
        assert float(largest) < 2**60 == float(largest + 1)
        cfg = write_config(tmp_path / "c.json", extra={"grid": {"samples": largest}})
        code = run_cli(["evolve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "validation"
        assert err["message"].startswith("out of memory: ")

    @pytest.mark.parametrize(
        "bare",
        [
            {"omega_bare": 1e200, "lambda_sq_bare": 1.0, "g": 0.1},
            {"omega_bare": 1.0, "lambda_sq_bare": 1.0, "g": 1e308},
        ],
        ids=["omega_bare_squared", "radical"],
    )
    @pytest.mark.parametrize("command", ["modes", "evolve"])
    def test_bare_parameters_whose_modes_overflow_are_named(
        self, tmp_path, capsys, command, bare
    ):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"bare": bare}))
        code = run_cli([command, "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "validation"
        assert err["message"].startswith("omega_bare, lambda_sq_bare, g out of range: ")

    def test_scan_validates_every_value_before_the_first_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        args = ["--vary", "m_s", "--values=0.8,1.2,-1.0"]
        code = run_cli(["scan", "--config", cfg, "--out", str(tmp_path), *args])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "validation"
        assert err["message"] == (
            "--values entry 2 (m_s = -1.0): masses must be strictly positive"
        )
        assert not list(tmp_path.glob("scan_*"))

    @pytest.mark.parametrize(
        "vary, values, message",
        [
            # a squeezing value fails its spec before any state is built
            ("r_s", "0,1", "--values entry 0 (r_s = 0.0): squeezing ratio r must be > 0"),
            ("omega", "-1,1", "--values entry 0 (omega = -1.0): omega must be >= 0"),
            (
                "r_e",
                "2,-0.5",
                "--values entry 1 (r_e = -0.5): squeezing ratio r must be > 0",
            ),
        ],
    )
    def test_scan_error_names_the_rejected_value(
        self, tmp_path, capsys, vary, values, message
    ):
        cfg = write_config(tmp_path / "c.json")
        args = ["--vary", vary, f"--values={values}"]
        code = run_cli(["scan", "--config", cfg, "--out", str(tmp_path), *args])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "validation", "message": message}
        assert not list(tmp_path.glob("scan_*"))

    @pytest.mark.parametrize(
        "argv, message",
        [
            # a leading minus reads as an option; --values=-1.0,2 is the form
            (
                ["scan", "--config", "{cfg}", "--vary", "m_s", "--values", "-1.0,2"],
                "argument --values: expected one argument",
            ),
            # an empty entry would shift every later scan_NNN.csv index
            # off the list as given
            (
                ["scan", "--config", "{cfg}", "--vary", "theta_c", "--values=0.1,,0.3"],
                "--values has an empty entry: '0.1,,0.3'",
            ),
            (
                ["scan", "--config", "{cfg}", "--vary", "theta_c", "--values=0.1,"],
                "--values has an empty entry: '0.1,'",
            ),
            (["tune", "--config", "{cfg}"], "argument command: invalid choice: 'tune'"),
            (["evolve", "--out", "o"], "the following arguments are required: --config"),
        ],
        ids=[
            "negative_value", "empty_value", "trailing_comma", "unknown_command",
            "missing_config",
        ],
    )
    def test_usage_errors_are_validation_errors(self, tmp_path, capsys, argv, message):
        cfg = write_config(tmp_path / "c.json")
        argv = [cfg if a == "{cfg}" else a for a in argv]
        assert run_cli(argv) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        err = json.loads(err)["error"]
        assert err["type"] == "validation"
        assert err["message"].startswith(message)

    @pytest.mark.parametrize("angle", [0.3, 1.0])
    def test_rejects_a_non_finite_initial_covariance(self, tmp_path, capsys, angle):
        # r = 1e-300 gives variances near 1e299 whose determinant
        # overflows to -inf (angle 0.3) or +inf (angle 1.0)
        env = {"r": 1e-300, "angle": angle}
        message = "'environment': initial covariance is not finite"
        with pytest.raises(ConfigError, match=message):
            parse_config({"modes": {}, "environment": env})
        cfg = write_config(tmp_path / "c.json", extra={"environment": env})
        code = run_cli(["evolve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "validation"

    @pytest.mark.parametrize(
        "r, angle, hbar",
        [
            (9009.38782981161, 2.241966891994931, 3.4024058628592333),
            (0.00011134952544217739, -2.23790841982599, 31.57879118212196),
            (8373.682762350662, -0.5466948026586502, 0.23994865873308027),
        ],
    )
    def test_rejects_a_state_that_cannot_hold_its_own_area(
        self, tmp_path, capsys, r, angle, hbar
    ):
        # the rounded covariance of a strongly squeezed, rotated state has
        # a determinant below (hbar/2)^2 by more than the area check allows
        cfg = write_config(
            tmp_path / "c.json",
            modes={"hbar": hbar},
            extra={"system": {"r": r, "angle": angle}},
        )
        code = run_cli(["evolve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "validation"
        assert err["message"].startswith("'system': initial state has scaled area A = ")

    def test_accepts_strong_squeezing_that_holds_its_area(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", extra={"system": {"r": 1e4, "angle": 1.0}})
        assert run_cli(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK


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

    @pytest.mark.parametrize(
        "modes", [{"omega": 0.0}, {"theta_c": math.pi / 2}], ids=["omega_0", "theta_pi_2"]
    )
    def test_modes_without_real_bare_parameters(self, tmp_path, capsys, modes):
        # the bare system frequency would be imaginary; evolve runs these
        # modes, so modes reports them with no bare parameters
        cfg = write_config(
            tmp_path / "c.json", extra={"grid": {"t_max": 2.0, "samples": 5}}, modes=modes
        )
        assert run_cli(["evolve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        assert run_cli(["modes", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        report = json.loads((tmp_path / "modes.json").read_text())
        assert report["bare"] is None and report["round_trip"] is None
        assert report["modes"]["theta_c"] == modes.get("theta_c", math.pi / 64)


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
    def test_valid_is_dtilde_above_the_guard(
        self, tmp_path, capsys, monkeypatch, guard
    ):
        # a grid with the first determinant root on its middle row
        modes = NormalModes(1.0, 1.0, math.pi / 64, 1.0, 1.0)
        root = find_divergences(modes, 10.0)[0]
        if guard is not None:
            monkeypatch.setattr(invharm.cli, "_DIVERGENCE_GUARD", guard)
        cfg = write_config(
            tmp_path / "c.json", extra={"grid": {"t_max": 2.0 * root, "samples": 801}}
        )
        assert run_cli(["coeffs", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        lines = (tmp_path / "coeffs.csv").read_text().splitlines()
        col = lines[0].split(",").index("dtilde")
        cells = [line.split(",") for line in lines[1:]]
        dt = np.array([float(c[col]) for c in cells])
        valid = np.array([c[-1] == "true" for c in cells])
        assert np.array_equal(valid, np.abs(dt) > invharm.cli._DIVERGENCE_GUARD)
        # the root row alone, or the three rows within the wider guard
        want = [400] if guard is None else [399, 400, 401]
        assert np.flatnonzero(~valid).tolist() == want
        assert abs(dt[400]) < 1e-6

    def test_f_columns_contract_the_sub_tensors(self, tmp_path, capsys):
        # a rotated environment whose two off-diagonal covariance entries
        # differ in the last bit: f1 and f2 are contracted with their mean
        cfg = write_config(
            tmp_path / "c.json",
            extra={
                "grid": {"t_max": 12.0, "samples": 97},
                "environment": {"r": 3.0, "angle": 0.65},
            },
        )
        assert run_cli(["coeffs", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        table = np.genfromtxt(tmp_path / "coeffs.csv", delimiter=",", names=True)
        (v_yy, v_yq), (v_qy, v_qq) = load_config(cfg).states[1].cov.tolist()
        assert v_yq != v_qy
        v_sym = 0.5 * (v_yq + v_qy)
        for f in ("f1", "f2"):
            yy, yq, qy, qq = (table[f"{f}_{a}{b}"] for a in "yq" for b in "yq")
            want = yy * v_yy + (yq + qy) * v_sym + qq * v_qq
            assert np.array_equal(table[f], want), f

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

    def test_me_meta_reports_bridges(self, tmp_path, capsys, monkeypatch):
        # a guard wide enough that the window holds grid points
        monkeypatch.setattr(invharm.evolution, "_DIVERGENCE_GUARD", 0.2)
        cfg = write_config(
            tmp_path / "c.json",
            extra={"grid": {"t_max": 10.0, "samples": 201}, "method": "me"},
        )
        assert run_cli(["evolve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        meta = json.loads((tmp_path / "evolve.meta.json").read_text())
        assert len(meta["bridges"]) == 1
        a, b = meta["bridges"][0]
        assert 7.5 < a < b < 8.5

    def test_meta_reports_rhs_evals_of_the_master_equation(self, tmp_path, capsys):
        # me and compare write the same count from the same run; exact
        # makes no right-hand-side evaluation and writes none
        metas = {}
        for method in ("exact", "me", "compare"):
            out = tmp_path / method
            cfg = write_config(
                tmp_path / f"{method}.json",
                extra={"grid": {"t_max": 10.0, "samples": 201}, "method": method},
            )
            assert run_cli(["evolve", "--config", cfg, "--out", str(out)]) == EXIT_OK
            metas[method] = json.loads((out / "evolve.meta.json").read_text())
        capsys.readouterr()
        assert "rhs_evals" not in metas["exact"]
        assert metas["me"]["rhs_evals"] == metas["compare"]["rhs_evals"] > 0

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
        # the critical time is the derived estimate alone
        assert "t_c_paper" not in report

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
        assert report["t_c_derived"] is None

    @pytest.mark.parametrize(
        "modes",
        [{"lambda_sq": 0.0}, {"lambda_sq": -1.0}, {"omega": 0.0}, {"theta_c": 0.0}],
        ids=["free_env", "stable_env", "zero_omega", "decoupled"],
    )
    def test_estimates_are_null_outside_their_domain(self, tmp_path, capsys, modes):
        # the critical-time estimates need lambda^2 > 0, omega > 0 and
        # 0 < |theta_c| < 1
        cfg = write_config(
            tmp_path / "c.json", extra={"grid": {"t_max": 4.0}}, modes=modes
        )
        assert run_cli(
            ["divergences", "--config", cfg, "--out", str(tmp_path)]
        ) == EXIT_OK
        capsys.readouterr()
        report = json.loads((tmp_path / "divergences.json").read_text())
        assert report["t_c_derived"] is None

    def test_estimates_are_null_where_their_log_underflows(self, tmp_path, capsys):
        # omega * lambda rounds to 0 inside the log of both estimates: the
        # estimate is undefined, which is no fault of the input
        modes = {"omega": 5e-324, "lambda_sq": 1e-4, "theta_c": 0.1}
        cfg = write_config(
            tmp_path / "c.json", extra={"grid": {"t_max": 1.0}}, modes=modes
        )
        assert run_cli(
            ["divergences", "--config", cfg, "--out", str(tmp_path)]
        ) == EXIT_OK
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "divergences.json").read_text())
        assert report["t_c_derived"] is None

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

    @staticmethod
    def count_builds(tmp_path, capsys, monkeypatch, vary):
        """The squeezed_pure and parse_config calls of a three-value scan
        of ``vary``."""
        calls = {"squeezed_pure": 0, "parse_config": 0}

        def counted(name):
            real = getattr(invharm.cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(invharm.cli, name, wrapper)

        for name in calls:
            counted(name)
        cfg = write_config(
            tmp_path / "c.json", extra={"grid": {"t_max": 2.0, "samples": 11}}
        )
        args = ["--vary", vary, "--values=1.0,2.0,3.0"]
        assert run_cli(["scan", "--config", cfg, "--out", str(tmp_path), *args]) == EXIT_OK
        capsys.readouterr()
        return calls

    def test_builds_each_state_once(self, tmp_path, capsys, monkeypatch):
        # the config is parsed once and builds its two states; a scan of
        # a squeezing then builds one varied state per value
        calls = self.count_builds(tmp_path, capsys, monkeypatch, "r_s")
        assert calls == {"squeezed_pure": 5, "parse_config": 1}

    def test_a_modes_scan_builds_no_state_per_value(self, tmp_path, capsys, monkeypatch):
        calls = self.count_builds(tmp_path, capsys, monkeypatch, "omega")
        assert calls == {"squeezed_pure": 2, "parse_config": 1}

    @pytest.mark.parametrize(
        "raw, vary, values",
        [
            ({"modes": {}}, "theta_c", "0.01,-0.05,0.3"),
            (
                {
                    "modes": {"lambda_sq": 2.5, "m_s": 1.7},
                    "system": {"angle": 0.4, "mean": [0.3, -0.2]},
                    "environment": {"angle": 1.1, "mean": [0.5, 0.1]},
                },
                "r_s",
                "0.5,1.0,7.0",
            ),
            (
                {
                    "bare": {"omega_bare": 1.2, "lambda_sq_bare": 0.8, "g": 0.3},
                    "environment": {"r": 0.7, "angle": 0.3},
                },
                "m_e",
                "0.6,1.0,2.5",
            ),
        ],
        ids=["modes", "r_s", "bare"],
    )
    def test_each_scan_file_is_the_evolve_output_of_its_value(
        self, tmp_path, capsys, raw, vary, values
    ):
        # the one exact pass over every value writes, for each, the bytes
        # that evolve writes for the config with that value
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**raw, "grid": {"t_max": 12.0, "samples": 301}}))
        args = ["--vary", vary, f"--values={values}"]
        scan = tmp_path / "scan"
        assert run_cli(["scan", "--config", str(path), "--out", str(scan), *args]) == EXIT_OK
        section, key = invharm.cli.SCAN_PARAMETERS[vary]
        for i, value in enumerate(values.split(",")):
            # the echo re-parses to the config, with the modes a bare one derives
            one = load_config(str(path)).echo()
            one[section][key] = float(value)
            one_path = tmp_path / f"c{i}.json"
            one_path.write_text(json.dumps(one))
            out = tmp_path / f"evolve{i}"
            assert run_cli(["evolve", "--config", str(one_path), "--out", str(out)]) == EXIT_OK
            assert (scan / f"scan_{i:03d}.csv").read_bytes() == (out / "evolve.csv").read_bytes()
        capsys.readouterr()

    @pytest.mark.parametrize(
        "vary, values, fitted",
        [
            ("theta_c", "0.05,0.01,0.002", 3),
            # at omega 0.5 the window spans fewer than 3 modulation periods
            ("omega", "0.5,1.3,0.0", 2),
            ("r_e", "0.5,2.0,6.0", 3),
        ],
    )
    def test_each_fit_is_that_of_its_own_run(
        self, tmp_path, capsys, vary, values, fitted
    ):
        # each value's (slope, S0) in the index is, bit for bit, the fit
        # of the one-value run of the config with that value
        cfg = write_config(tmp_path / "c.json", extra={"grid": {"t_max": 16.0, "samples": 401}})
        args = ["--vary", vary, f"--values={values}"]
        assert run_cli(["scan", "--config", cfg, "--out", str(tmp_path), *args]) == EXIT_OK
        capsys.readouterr()
        runs = json.loads((tmp_path / "scan_index.json").read_text())["runs"]
        section, key = invharm.cli.SCAN_PARAMETERS[vary]
        fits = []
        for value in values.split(","):
            raw = load_config(cfg).echo()
            raw[section][key] = float(value)
            one = parse_config(raw)
            traj = run_exact(one.modes, *one.states, one.grid())
            try:
                fits.append(
                    fit_entropy_line(traj.times, traj.diags.S, one.fit_window, one.modes.omega)
                )
            except ValueError:
                fits.append((None, None))
        assert [(r["slope"], r["S0"]) for r in runs] == fits
        assert sum(fit != (None, None) for fit in fits) == fitted

    def test_a_numerical_failure_writes_no_scan_file(self, tmp_path, capsys):
        # the third value's kernels overflow: the scan exits 3 naming the
        # column and time of its first non-finite value, before any file
        cfg = write_config(tmp_path / "c.json", extra={"grid": {"t_max": 100.0}})
        args = ["--vary", "lambda_sq", "--values=1.0,2.0,1e6"]
        code = run_cli(["scan", "--config", cfg, "--out", str(tmp_path), *args])
        assert code == EXIT_NUMERIC
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "numerical", "message": "non-finite dx2 at t = 0.375"}
        assert not list(tmp_path.glob("scan_*"))

    def test_rejects_a_varied_state_that_cannot_hold_its_area(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            modes={"hbar": 3.4024058628592333},
            extra={"system": {"angle": 2.241966891994931}},
        )
        args = ["--vary", "r_s", "--values=1.0,9009.38782981161"]
        code = run_cli(["scan", "--config", cfg, "--out", str(tmp_path), *args])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "validation"
        assert err["message"].startswith(
            "--values entry 1 (r_s = 9009.38782981161): initial state has scaled area A = "
        )
        assert not list(tmp_path.glob("scan_*"))


class TestVerifyCommand:
    def test_default_config_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        assert run_cli(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["pass"] is True
        assert list(report["checks"]) == ["oracle"]
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

    def test_checks_up_to_the_horizon_alone(self, tmp_path, capsys, monkeypatch):
        # the first root, at t = 0.346, lies past t_max: the oracle runs
        # on [0, t_max], not up to 90% of a root the config never reaches
        real = invharm.cli.run_exact
        grids = []

        def capture(modes, sys0, env0, grid):
            grids.append(grid)
            return real(modes, sys0, env0, grid)

        monkeypatch.setattr(invharm.cli, "run_exact", capture)
        modes = {"omega": 3.0, "lambda_sq": 50.0, "theta_c": 0.5}
        cfg = write_config(
            tmp_path / "c.json", extra={"grid": {"t_max": 0.2}}, modes=modes
        )
        assert run_cli(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        root = find_divergences(NormalModes(m_s=1.0, m_e=1.0, **modes), 1.0)[0]
        assert root == pytest.approx(0.346, abs=1e-3)
        assert len(grids) == 1
        assert np.array_equal(grids[0], np.linspace(0.0, 0.2, 201))

    def test_passes_on_rows_closer_than_rounding(self, tmp_path, capsys):
        # t_max = 1e-13: the oracle's 201 rows lie 5e-16 apart
        cfg = write_config(tmp_path / "c.json", extra={"grid": {"t_max": 1e-13}})
        assert run_cli(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_oracle_scores_each_row(self, tmp_path, capsys, monkeypatch):
        # one early master-equation row off by 1e-5 of its value fails
        # the oracle under its moment's name, however small the row is
        # next to the moment's peak over the run
        real = invharm.cli.run_me

        def skewed(*args):
            me = real(*args)
            me.moments[5, 2] *= 1.0 + 1e-5
            return me

        monkeypatch.setattr(invharm.cli, "run_me", skewed)
        cfg = write_config(tmp_path / "c.json")
        assert run_cli(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_VERIFY
        out, err = capsys.readouterr()
        oracle = json.loads(out)["checks"]["oracle"]
        per_moment = oracle.pop("per_moment")
        assert per_moment.pop("dx2") == pytest.approx(1e-5, rel=1e-3)
        assert list(per_moment) == ["dp2", "dxp", "mean_p", "mean_x"]
        assert max(per_moment.values()) < 1e-8
        assert oracle["max_rel_err"] == pytest.approx(1e-5, rel=1e-3)
        assert oracle["pass"] is False
        assert json.loads(err)["error"]["message"] == "failed checks: oracle"


class TestByteDeterminism:
    @pytest.mark.parametrize(
        "command, extra, names",
        [
            ("verify", None, ["verify.json"]),
            (
                "evolve",
                {"grid": {"t_max": 10.0, "samples": 201}, "method": "compare"},
                ["evolve.csv"],
            ),
            (
                "evolve",
                {"grid": {"t_max": 10.0, "samples": 201}, "method": "me"},
                ["evolve.csv", "evolve.meta.json"],
            ),
            ("coeffs", None, ["coeffs.csv"]),
        ],
        ids=["verify", "compare", "me", "coeffs"],
    )
    def test_two_runs_write_the_same_bytes(
        self, tmp_path, capsys, command, extra, names
    ):
        cfg = write_config(tmp_path / "c.json", extra=extra)
        written = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert run_cli([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
            written.append({p.name: p.read_bytes() for p in out.iterdir()})
        capsys.readouterr()
        assert set(names) <= set(written[0])
        assert written[0] == written[1]


class TestColdStart:
    # no command imports scipy.integrate, the bulk of the start-up: the
    # exact commands are closed forms, and the master equation is
    # integrated in the package
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

    def test_master_equation_commands_skip_scipy(self, tmp_path):
        commands = []
        for method in ("me", "compare"):
            cfg = write_config(
                tmp_path / f"{method}.json",
                extra={"grid": {"t_max": 4.0, "samples": 41}, "method": method},
            )
            commands.append(["evolve", "--config", cfg, "--out", str(tmp_path)])
        commands.append(["verify", "--config", cfg, "--out", str(tmp_path)])
        codes, loaded = self.run_fresh(commands)
        assert codes == [EXIT_OK] * len(commands)
        assert not loaded


# a field value that is no valid number: each one is a validation error
JUNK = (math.nan, math.inf, -1.0, True, "1", None, [1.0], {})

# every numeric config field a draw sets, with the range of its values
RANGES = {
    "modes": {
        "omega": (0.0, 2.0), "lambda_sq": (-2.0, 2.0), "theta_c": (-0.5, 0.5),
        "m_s": (0.3, 3.0), "m_e": (0.3, 3.0), "hbar": (0.3, 3.0),
    },
    "bare": {
        "omega_bare": (0.0, 2.0), "lambda_sq_bare": (-2.0, 2.0), "g": (0.0, 0.5),
        "m_s": (0.3, 3.0), "m_e": (0.3, 3.0),
    },
    "system": {"r": (0.1, 10.0), "angle": (-3.2, 3.2)},
    "environment": {"r": (0.1, 10.0), "angle": (-3.2, 3.2)},
    "grid": {"t_max": (0.1, 6.0)},
}


# what makes a draw invalid: nothing for half the draws, else one fault
FAULTS = (None,) * 9 + (
    "junk field", "both parameter sets", "no parameter set", "grid", "method",
    "fit window", "scan values", "not an object", "not JSON", "command",
)


@st.composite
def invocations(draw):
    """A command line and the text of the config it reads.

    A master-equation run (evolve with "me" or "compare", verify) has no
    time bound of its own (README, Numerical notes): its cost grows with
    omega * t_max.  So every draw keeps omega, lambda and t_max small,
    the masses near 1 and the grid short."""
    fault = draw(st.sampled_from(FAULTS))
    command = draw(st.sampled_from(
        ["modes", "coeffs", "evolve", "divergences", "scan", "verify"]
    ))
    params = {"both parameter sets": ("modes", "bare"), "no parameter set": ()}.get(
        fault, (draw(st.sampled_from(["modes", "bare"])),)
    )
    raw = {}
    for name, ranges in RANGES.items():
        if name in ("modes", "bare") and name not in params:
            continue
        raw[name] = {
            key: draw(st.floats(lo, hi))
            for key, (lo, hi) in ranges.items()
            if key in ("omega_bare", "lambda_sq_bare", "g") or draw(st.booleans())
        }
    for name in ("system", "environment"):
        if draw(st.booleans()):
            raw[name]["mean"] = draw(
                st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2)
            )
    if fault == "junk field":
        section = draw(st.sampled_from(sorted(raw)))
        raw[section][draw(st.sampled_from(sorted(RANGES[section])))] = draw(
            st.sampled_from(JUNK)
        )
    t_max = raw["grid"].get("t_max", 16.0)
    raw["grid"].update(draw(st.sampled_from(
        [
            {"samples": 1}, {"samples": 2.5}, {"samples": 9, "dt": 0.5}, {"dt": 0.0},
            {"samples": 2**55}, {"samples": 2**63 - 1}, {"samples": 2**61},
            {"samples": 10**30}, {"dt": 1e-300}, {"dt": 5e-324},
            # counts that np.linspace rounds to 2**60
            {"samples": 2**60 - 64}, {"samples": 2**60 - 1},
            {"dt": t_max / (2**60 - 32)},
        ]
        if fault == "grid" else [{}, {"samples": 2}, {"samples": 9}, {"dt": 0.5}]
    )))
    raw["method"] = draw(st.sampled_from(
        ["x"] if fault == "method" else ["exact", "me", "compare"]
    ))
    raw["fit_window"] = [2.0, 1.0] if fault == "fit window" else [0.5, 2.0]
    if fault == "command":
        command = "bogus"
    argv = [command]
    if command == "scan":
        argv += ["--vary", draw(st.sampled_from(["theta_c", "r_e", "m_s", "hbar"]))]
        lo = -1.0 if fault == "scan values" else 0.1
        values = draw(
            st.lists(st.floats(lo, 2.0), min_size=fault != "scan values", max_size=3)
        )
        argv.append("--values=" + ",".join(map(repr, values)))
    text = json.dumps(raw)
    text = {"not an object": f"[{text}]", "not JSON": text[:-1]}.get(fault, text)
    return argv, text


class TestExitCodeContract:
    # the README's exit codes hold for every input: 0, 1 or 3, or 2 from
    # verify alone; a nonzero exit writes exactly one error JSON line on
    # standard error; and main returns instead of raising
    KIND = {
        EXIT_CONFIG: "validation",
        EXIT_VERIFY: "verification",
        EXIT_NUMERIC: "numerical",
    }

    # about 15 ms an example on a 2-core machine
    @settings(max_examples=60, deadline=None)
    @given(invocations())
    def test_every_input_ends_in_a_documented_exit(self, invocation):
        argv, text = invocation
        with tempfile.TemporaryDirectory() as tmp:
            config = os.path.join(tmp, "c.json")
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(
                    argv + ["--config", config, "--out", os.path.join(tmp, "out")]
                )
        event(f"{argv[0]} exit {code}")
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC) or (
            code == EXIT_VERIFY and argv[0] == "verify"
        )
        if code != EXIT_OK:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["error"]["type"] == self.KIND[code]
