import argparse
import csv
import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import qstar
from qstar import (
    FilterN3,
    bc_to_json,
    build_recipe,
    graph_to_json,
    make_delta,
    make_st_form,
)
from qstar import cli
from qstar.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, data = rows[0], rows[1:]
    cols = {name: np.array([float(r[i]) for r in data]) for i, name in enumerate(header)}
    return header, cols


class TestSweep:
    def test_filter_curve_peaks_at_threshold(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--device", "n3", "--a", "1", "--b", "3", "--U", "1",
             "--k", "0.05:5:200"],
            capsys,
        )
        assert code == 0
        header, cols = parse_csv(out)
        assert header == ["k", "P21", "R11", "P31"]
        assert len(cols["k"]) == 200
        peak = cols["k"][int(np.argmax(cols["P21"]))]
        assert abs(peak - 1.0) < 0.05
        # the 200-point grid undersamples the narrow peak top; 0.8 is the
        # grid-limited height, the true maximum is 1 at k = 1
        assert cols["P21"].max() > 0.8

    def test_flat_filter_plateau(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--device", "n4", "--a", "0.7071067811865476", "--U", "1",
             "--k", "0.05:5:120"],
            capsys,
        )
        assert code == 0
        header, cols = parse_csv(out)
        assert header == ["k", "P21", "R11", "P31", "P41"]
        passband = cols["P21"][cols["k"] < 1.0]
        assert np.abs(passband - 0.25).max() < 1e-12

    def test_band_mode_uses_engine(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--device", "n4", "--a", "0.7071067811865476", "--U", "1",
             "--V", "0.25", "--k", "0.1:2:40"],
            capsys,
        )
        assert code == 0
        _, cols = parse_csv(out)
        in_band = cols["P21"][(cols["k"] > 0.55) & (cols["k"] < 0.95)].mean()
        low = cols["P21"][cols["k"] < 0.45].mean()
        assert in_band > low

    def test_deterministic_output(self, tmp_path):
        args = ["sweep", "--device", "n3", "--a", "1", "--b", "3", "--U", "1",
                "--k", "0.05:5:50"]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["-o", str(p1)]) == 0
        assert main(args + ["-o", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_is_crlf_with_17_digits(self, tmp_path):
        path = tmp_path / "c.csv"
        assert main(["sweep", "--device", "n3", "--a", "1", "--b", "3",
                     "--U", "1", "--k", "0.05:5:10", "-o", str(path)]) == 0
        raw = path.read_bytes()
        assert b"\r\n" in raw
        text = raw.decode().replace("\r\n", "\n")
        value = text.splitlines()[1].split(",")[0]
        assert value == f"{np.linspace(0.05, 5, 10)[0]:.17g}"

    def test_invalid_range_exits_2(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--device", "n3", "--a", "1", "--b", "3", "--U", "1",
             "--k", "1:1:1"],
            capsys,
        )
        assert code == 2
        assert err

    @pytest.mark.parametrize("k, message", [
        ("0.1:2", "expected lo:hi:steps, got '0.1:2'"),
        ("0.1:2:ten", "bad momentum range '0.1:2:ten'"),
    ], ids=["two-parts", "not-a-number"])
    def test_malformed_range_exits_2(self, k, message, capsys):
        code, out, err = run_cli(["sweep", "--device", "n4", "--a", "1", "--k", k], capsys)
        assert (code, out) == (2, "")
        assert message in err

    def test_n3_requires_b(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--device", "n3", "--a", "1", "--k", "0.1:2:10"], capsys
        )
        assert code == 2
        assert "--b" in err

    def test_invalid_device_parameter_exits_2(self, capsys):
        code, out, err = run_cli(
            ["sweep", "--device", "n4", "--a", "-1", "--k", "0.1:2:10"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == "qstar: coupling parameter a must be positive\n"

    @pytest.mark.parametrize("command", [
        ["sweep", "--k", "0.5:2:5"],
        ["report", "pole"],
        ["smatrix", "--k", "1.5"],
    ])
    def test_drain_potential_on_filter_exits_2(self, capsys, command):
        # The three-line filter has no drain line; --V must not be ignored.
        code, out, err = run_cli(
            command + ["--device", "n3", "--a", "1", "--b", "3", "--V", "0.5"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "qstar: --V applies only to --device n4\n"

    @pytest.mark.parametrize("command, flag", [
        (["sweep", "--device", "n4", "--k", "0.5:1:2"], "--device"),
        (["report", "pole", "--device", "n4"], "--device"),
        (["smatrix", "--device", "n4", "--k", "1.5"], "--device"),
        (["report", "converge", "--recipe", "n4"], "--recipe"),
    ])
    def test_b_on_gate_exits_2(self, capsys, command, flag):
        # The gate's coupling block has no b; --b must not be ignored.
        code, out, err = run_cli(command + ["--a", "1", "--b", "3", "--U", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err == f"qstar: --b applies only to {flag} n3\n"

    def test_band_sweep_on_the_engine_matches_the_closed_form(self, capsys):
        # The band golden's grid, with k = 0.5 and k = 1 on sqrt(V) and
        # sqrt(U): the gap is at most 1.7e-13 relative on every row.
        g = qstar.GateN4(a=0.7071067811865476, U=1.0, V=0.25)
        code, out, _ = run_cli(
            ["sweep", "--device", "n4", "--a", "0.7071067811865476", "--U", "1",
             "--V", "0.25", "--k", "0.05:5:199"],
            capsys,
        )
        assert code == 0
        header, cols = parse_csv(out)
        assert np.isin([0.5, 1.0], cols["k"]).all()
        s11, s21, s31, s41 = qstar.n4_amplitudes(g, cols["k"])
        for name, s in zip(("R11", "P21", "P31", "P41"), (s11, s21, s31, s41)):
            np.testing.assert_allclose(cols[name], np.abs(s) ** 2,
                                       rtol=1e-12, atol=0, err_msg=name)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--device", "n3", "--a", "1", "--b", "3", "--k", "0.5:inf:3"],
        ["smatrix", "--device", "n4", "--a", "1", "--k", "-1.5"],
        ["report", "converge", "--recipe", "n3", "--a", "1", "--b", "3",
         "--k-grid=-1,2"],
    ], ids=["sweep-inf", "smatrix-negative", "converge-negative"])
    def test_momenta_must_be_positive_and_finite(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert "positive and finite" in err

    def test_grid_keeps_threshold_point(self, capsys):
        # k = 1 is evaluated on the threshold of line 3, which decouples.
        code, out, _ = run_cli(
            ["sweep", "--device", "n4", "--a", "0.7071067811865476", "--U", "1",
             "--V", "0.25", "--k", "0.5:1.5:3"],
            capsys,
        )
        assert code == 0
        _, cols = parse_csv(out)
        assert cols["k"].tolist() == [0.5, 1.0, 1.5]
        assert cols["P31"][1] == 0.0 and cols["P41"][0] == 0.0
        sums = cols["R11"] + cols["P21"] + cols["P31"] + cols["P41"]
        assert np.abs(sums - 1.0).max() < 1e-14

    @pytest.mark.parametrize("argv", [
        ["sweep", "--device", "n3", "--a", "1", "--b", "3", "--k", "0.5:1e200:3"],
        ["smatrix", "--device", "n3", "--a", "1", "--b", "3", "--U", "1", "--k", "1e200"],
    ], ids=["sweep", "smatrix"])
    def test_momentum_whose_energy_overflows_exits_2(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == "qstar: momentum 1e+200 is too large: its energy k^2 overflows\n"

    @pytest.mark.parametrize("argv", [
        ["sweep", "--device", "n4", "--a", "1", "--V", "0.5", "--k", "1e-200:1:3"],
        ["smatrix", "--device", "n3", "--a", "1", "--b", "3", "--k", "1e-200"],
        ["report", "converge", "--recipe", "n3", "--a", "1", "--b", "3", "--k-grid", "1e-200"],
    ], ids=["band-sweep", "smatrix", "converge"])
    def test_momentum_whose_energy_underflows_exits_2(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == "qstar: momentum 1e-200 is too small: its energy k^2 underflows to 0\n"

    @pytest.mark.parametrize("device", [["n3", "--a", "1", "--b", "3"],
                                        ["n4", "--a", "0.7071067811865476"]], ids=["n3", "n4"])
    def test_momentum_too_small_for_the_closed_forms_exits_2(self, device, capsys):
        # k^2 = 1e-320 is a float, but U/k^2 overflows: the closed forms
        # would give a nan row.
        code, out, err = run_cli(["sweep", "--device", *device, "--k", "1e-160:1:3"], capsys)
        assert (code, out) == (2, "")
        assert err == ("qstar: momentum 1e-160 is too small for the closed-form sweep: "
                       "U/k^2 overflows for U = 1.0\n")

    def test_band_sweep_answers_at_tiny_momentum(self, capsys):
        # The engine needs no U/k^2: at k = 1e-160 line 1 reflects fully.
        code, out, err = run_cli(["sweep", "--device", "n4", "--a", "1", "--V", "0.5",
                                  "--k", "1e-160:1:3"], capsys)
        assert (code, err) == (0, "")
        _, cols = parse_csv(out)
        assert cols["R11"][0] == 1.0 and 0.0 < cols["P21"][0] < 1e-300


class TestReports:
    def test_pole_report(self, capsys):
        code, out, _ = run_cli(
            ["report", "pole", "--device", "n3", "--a", "1", "--b", "3", "--U", "1"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["k_pole"] == pytest.approx(9 / np.sqrt(77), rel=1e-8)
        assert data["residual"] < 1e-8
        # The root tolerance that locate_pole uses.
        assert data["tolerances"] == {"root_abs": 1e-13, "root_rel": 4e-16}

    def test_pole_missing_is_numerical_failure(self, capsys):
        code, _, err = run_cli(
            ["report", "pole", "--device", "n4", "--a", "0.7071067811865476",
             "--U", "1"],
            capsys,
        )
        assert code == 3
        assert "pole" in err

    def test_pole_with_drain_potential(self, capsys):
        # The gate's pole 2a^2 sqrt(U)/sqrt(4a^4 - 1) does not depend on V.
        code, out, _ = run_cli(
            ["report", "pole", "--device", "n4", "--a", "1", "--U", "1", "--V", "0.5"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["V"] == 0.5
        assert data["k_pole"] == pytest.approx(2 / np.sqrt(3), rel=1e-13)

    def test_pole_below_drain_threshold_is_numerical_failure(self, capsys):
        code, out, err = run_cli(
            ["report", "pole", "--device", "n4", "--a", "1", "--U", "1", "--V", "2"],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert "(line 4, threshold 1.4142135623730951)" in err

    @pytest.mark.parametrize("argv", [
        ["report", "pole", "--device", "n4", "--a", "1e100", "--U", "1"],
        ["sweep", "--device", "n4", "--a", "1e100", "--U", "1", "--k", "0.5:2:3"],
    ], ids=["pole", "sweep"])
    def test_overflow_is_numerical_failure(self, argv, capsys):
        # a**4 overflows as a Python float; in the sweep, numpy's product in
        # the gate denominator has already warned about the overflow.
        if argv[0] == "sweep":
            with pytest.warns(RuntimeWarning, match="overflow"):
                code, out, err = run_cli(argv, capsys)
        else:
            code, out, err = run_cli(argv, capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("qstar: numerical failure: ")
        assert "Traceback" not in err

    def test_bandwidth_report(self, capsys):
        code, out, _ = run_cli(
            ["report", "bandwidth", "--a", "1", "--b", "3", "--U", "1"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["width_energy"] == pytest.approx(4.7 / 81, rel=0.1)
        assert data["k_lo"] < 1.0 < data["k_hi"]
        # The edges are closed form: no bracket or tolerance to report.
        assert "tolerances" not in data

    def test_bandwidth_report_sharp_peak(self, capsys):
        code, out, _ = run_cli(
            ["report", "bandwidth", "--a", "1", "--b", "1e4", "--U", "1"], capsys
        )
        assert code == 0
        data = json.loads(out)
        # W b^4 tends to 16 - 8 sqrt(2) at a = 1 as b grows.
        assert data["approx_ratio"] == pytest.approx(
            (16 - 8 * np.sqrt(2)) / 4.7, abs=1e-6)

    def test_bandwidth_report_extreme_coupling_has_no_band(self, capsys):
        # The peak transmission underflows to 0 instead of overflowing.
        code, out, err = run_cli(
            ["report", "bandwidth", "--a", "1e200", "--b", "3", "--U", "1"], capsys
        )
        assert (code, out) == (3, "")
        assert err == "qstar: numerical failure: peak transmission 0 <= 1/2: no band\n"

    def test_flux_report(self, capsys):
        code, out, _ = run_cli(
            ["report", "flux", "--a", "0.7071067811865476", "--rho", "1",
             "--U", "1", "--kF", "4"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["below_threshold_part"] == pytest.approx(0.125, abs=1e-10)
        assert data["J"] > 0.125

    def test_flux_curve_option(self, capsys):
        code, out, _ = run_cli(
            ["report", "flux", "--a", "0.7071067811865476", "--rho", "1",
             "--U", "1", "--kF", "4", "--U-grid", "0.25,0.5,1"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["curve"]) == 3
        assert data["linearity_deviation"] < 0.25

    @pytest.mark.parametrize("grid, message", [
        ("0", "linearity deviation needs a potential > 0, got (0.0,)"),
        ("", "could not convert string to float: ''"),
    ])
    def test_flux_curve_needs_a_positive_potential(self, grid, message, capsys):
        code, out, err = run_cli(
            ["report", "flux", "--a", "1", "--kF", "4", "--U", "0", "--U-grid", grid], capsys
        )
        assert (code, out, err) == (2, "", f"qstar: {message}\n")

    @pytest.mark.parametrize("V", ["1", "1.5"])
    def test_flux_report_with_drain_at_or_above_control(self, V, capsys):
        # With V = U nothing passes from line 1 to line 2; above, the band
        # formula answers too.
        code, out, _ = run_cli(
            ["report", "flux", "--a", "0.9", "--U", "1", "--V", V, "--kF", "3"], capsys
        )
        assert code == 0
        data = json.loads(out)
        if V == "1":
            assert data["J"] == 0.0
        else:
            assert data["below_threshold_part"] > 0.0
            assert data["above_threshold_part"] > 0.0

    @pytest.mark.parametrize("option, value", [
        ("--rho", "nan"), ("--rho", "inf"), ("--kF", "inf"), ("--kF", "nan"),
    ])
    def test_flux_report_rejects_non_finite_input(self, option, value, capsys, monkeypatch):
        # Fail fast, not hang, should a non-finite input reach the quadrature.
        calls = []
        integrate = qstar.analysis.integrate

        def budgeted(f, *args, **kwargs):
            def counted(x):
                calls.append(x)
                if len(calls) > 1000:
                    raise RuntimeError("flux quadrature ran away")
                return f(x)
            return integrate(counted, *args, **kwargs)

        monkeypatch.setattr(qstar.analysis, "integrate", budgeted)
        options = {"--a": "0.9", "--U": "1", "--rho": "1", "--kF": "3", option: value}
        argv = ["report", "flux", *[x for item in options.items() for x in item]]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert value in err

    def test_converge_report(self, capsys):
        code, out, _ = run_cli(
            ["report", "converge", "--recipe", "n3", "--a", "1", "--b", "3",
             "--U", "1", "--d0", "0.1", "--halvings", "3", "--k-grid", "0.5,2"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["monotone"] is True
        eps = [row["eps"] for row in data["rows"]]
        assert len(eps) == 4
        assert all(b < a for a, b in zip(eps, eps[1:]))

    def test_flux_report_where_beta_overflows(self, capsys):
        # 2a^2 overflows to inf; J underflows to 0 long before.
        code, out, _ = run_cli(["report", "flux", "--a", "1e155", "--U", "1", "--kF", "4"], capsys)
        assert code == 0
        assert json.loads(out)["J"] == 0.0

    def test_converge_report_fields_are_the_device_fields(self, capsys):
        argv = ["report", "converge", "--a", "0.9", "--halvings", "1", "--k-grid", "2"]
        n3 = json.loads(run_cli([*argv, "--recipe", "n3", "--b", "2"], capsys)[1])
        n4 = json.loads(run_cli([*argv, "--recipe", "n4", "--U", "0.5"], capsys)[1])
        assert (n3["a"], n3["b"], n3["U"]) == (0.9, 2.0, 1.0) and "V" not in n3
        assert (n4["a"], n4["U"], n4["V"]) == (0.9, 0.5, 0.0) and "b" not in n4

    def test_converge_at_a_huge_separation(self, capsys):
        # Edges of length 1e300 near sin(kl) = 0 get one free vertex each.
        code, out, _ = run_cli(
            ["report", "converge", "--recipe", "n3", "--a", "1", "--b", "3",
             "--U", "1", "--d0", "1e300", "--halvings", "1"],
            capsys,
        )
        assert code == 0
        assert [row["d"] for row in json.loads(out)["rows"]] == [1e300, 5e299]

    def test_converge_without_separations_exits_2(self, capsys):
        code, out, err = run_cli(
            ["report", "converge", "--recipe", "n3", "--a", "1", "--b", "3",
             "--U", "1", "--halvings", "-1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "at least one momentum and one separation" in err

    def test_converge_halvings_to_zero_exit_2_before_any_solve(self, monkeypatch, capsys):
        def study(*args, **kwargs):
            raise AssertionError("convergence_study was called")

        monkeypatch.setattr(qstar.assembly, "convergence_study", study)
        start = time.perf_counter()
        code, out, err = run_cli(
            ["report", "converge", "--recipe", "n3", "--a", "1", "--b", "3",
             "--d0", "0.1", "--halvings", "100000"],
            capsys,
        )
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == ("qstar: --d0 0.1 halved 100000 times is d = 0.0: "
                       "the smallest separation must be a positive float\n")
        # A --d0 that is not positive and finite is refused before the
        # separations are built, whatever --halvings asks for.
        for d0 in ("nan", "inf", "0", "-0.1"):
            start = time.perf_counter()
            code, out, err = run_cli(
                ["report", "converge", "--recipe", "n3", "--a", "1", "--b", "3",
                 "--d0", d0, "--halvings", "100000"],
                capsys,
            )
            assert time.perf_counter() - start < 0.5
            assert (code, out) == (2, "")
            assert err == f"qstar: config error: separation d must be positive and finite, got {float(d0)!r}\n"

    @pytest.mark.parametrize("d0", ["inf", "nan", "0", "-0.1"])
    def test_converge_separation_must_be_positive_and_finite(self, d0, capsys):
        code, out, err = run_cli(
            ["report", "converge", "--recipe", "n3", "--a", "1", "--b", "3",
             "--d0", d0, "--halvings", "1"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert f"separation d must be positive and finite, got {float(d0)!r}" in err

    def test_converge_subnormal_separation_is_a_config_error(self, capsys):
        # Strengths of order 1/d overflow; the recipe names d and no numpy
        # warning reaches stderr (warnings are errors under pytest).
        code, out, err = run_cli(
            ["report", "converge", "--recipe", "n3", "--a", "1", "--b", "3",
             "--d0", "1e-320", "--halvings", "1"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == ("qstar: config error: separation d = 1e-320 is out of range for this "
                       "chain: its vertex strengths or edge lengths overflow or underflow\n")


class TestSmatrix:
    def test_device_mode(self, capsys):
        code, out, _ = run_cli(
            ["smatrix", "--device", "n3", "--a", "1", "--b", "3", "--U", "1",
             "--k", "1.4142135623730951"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        s21 = complex(*data["S"][1][0])
        assert s21 == pytest.approx(2 / (2 + 9 / np.sqrt(2)), abs=1e-12)
        assert data["open"] == [True, True, True]
        assert data["unitarity_defect"] < 1e-10

    def test_momentum_echo(self, capsys):
        # "energy" is the k**2 that was solved and "k" its square root,
        # which squares back to k**2: the echo of a momentum is k's own.
        for k in np.random.default_rng(7).uniform(0.05, 6.0, 50).tolist():
            code, out, _ = run_cli(["smatrix", "--device", "n4", "--a", "1", "--k", repr(k)],
                                   capsys)
            data = json.loads(out)
            assert code == 0 and data["energy"] == k**2
            assert data["k"] == float(np.sqrt(k**2)) and data["k"] ** 2 == k**2
            assert data["potentials"] == [0.0, 0.0, 1.0, 0.0]

    def test_bc_file_mode(self, tmp_path, capsys):
        path = tmp_path / "bc.json"
        path.write_text(bc_to_json(make_st_form(2, 1, [[1.0]])))
        code, out, _ = run_cli(
            ["smatrix", "--bc", str(path), "--potentials", "0,0", "--k", "1.3"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert complex(*data["S"][1][0]) == pytest.approx(1.0, abs=1e-12)

    def test_bc_integer_beyond_float_range_is_a_config_error(self, tmp_path, capsys):
        data = json.loads(bc_to_json(make_st_form(2, 1, [[1.0]])))
        data["A"][1][0][0] = -(10**400)
        path = tmp_path / "bc.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(
            ["smatrix", "--bc", str(path), "--potentials", "0,0", "--k", "1.3"], capsys
        )
        assert (code, out) == (2, "")
        assert err == ("qstar: config error: malformed boundary-condition config: "
                       "int too large to convert to float\n")

    def test_degree_one_bc_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bc.json"
        path.write_text(bc_to_json(make_delta(1, 0.5)))
        code, out, err = run_cli(
            ["smatrix", "--bc", str(path), "--potentials", "0", "--k", "1.3"], capsys
        )
        assert (code, out) == (2, "")
        assert err == "qstar: config error: --bc coupling needs degree n >= 2, got 1\n"

    def test_device_and_bc_together_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bc.json"
        path.write_text(bc_to_json(make_st_form(2, 1, [[1.0]])))
        code, out, err = run_cli(
            ["smatrix", "--device", "n4", "--a", "1", "--bc", str(path),
             "--potentials", "0,0", "--k", "1.3"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "qstar: give either --device or --bc, not both\n"

    @pytest.mark.parametrize("options,named", [
        (["--a", "3", "--b", "7", "--V", "2"], "--a, --b, --V"),
        (["--U", "1"], "--U"),
        (["--V", "0"], "--V"),
    ], ids=["a-b-V", "U", "V-zero"])
    def test_bc_with_device_options_exits_2(self, tmp_path, capsys, options, named):
        path = tmp_path / "bc.json"
        path.write_text(bc_to_json(make_st_form(3, 1, [[1.0, 3.0]])))
        code, out, err = run_cli(
            ["smatrix", "--bc", str(path), "--potentials", "0,0,1", *options, "--k", "2"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == f"qstar: --bc takes no device options: {named}\n"

    @pytest.mark.parametrize("options, message", [
        (["--bc", "BC"], "--bc requires --potentials u1,u2,..."),
        (["--bc", "BC", "--potentials", "0,0"], "expected 3 potentials, got 2"),
        ([], "give either --device or --bc"),
    ], ids=["no-potentials", "potential-count", "neither"])
    def test_incomplete_options_exit_2(self, tmp_path, capsys, options, message):
        path = tmp_path / "bc.json"
        path.write_text(bc_to_json(make_st_form(3, 1, [[1.0, 3.0]])))
        argv = ["smatrix", *[str(path) if o == "BC" else o for o in options], "--k", "2"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"qstar: {message}\n"

    @pytest.mark.parametrize("potentials", ["5,5,5", "garbage"])
    def test_device_with_potentials_exits_2(self, capsys, potentials):
        code, out, err = run_cli(
            ["smatrix", "--device", "n3", "--a", "1", "--b", "3", "--U", "1",
             "--potentials", potentials, "--k", "2"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == "qstar: --potentials applies only to --bc\n"

    def test_device_without_a_exits_2(self, capsys):
        code, out, err = run_cli(["smatrix", "--device", "n4", "--k", "1.5"], capsys)
        assert code == 2
        assert out == ""
        assert err == "qstar: --device requires --a\n"

    @pytest.mark.parametrize("text", [
        '{"A": [], "B": []}',
        '{"n": 2, "A": 5, "B": 5}',
        '{"n": 2, "A": [[[0,0]]], "B": [[[1,0]]]}',
    ])
    def test_malformed_bc_file_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "bc.json"
        path.write_text(text)
        code, out, err = run_cli(
            ["smatrix", "--bc", str(path), "--potentials", "0,0", "--k", "1.3"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "malformed boundary-condition config" in err

    def test_closed_column_serializes_as_null(self, capsys):
        code, out, _ = run_cli(
            ["smatrix", "--device", "n3", "--a", "1", "--b", "3", "--U", "1",
             "--k", "0.5"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["open"] == [True, True, False]
        assert data["probabilities"][0][2] is None

    def test_threshold_momentum_is_the_decoupling_limit(self, capsys):
        code, out, _ = run_cli(
            ["smatrix", "--device", "n3", "--a", "1", "--b", "3", "--U", "1",
             "--k", "1.0"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert abs(data["probabilities"][1][0] - 1.0) <= 1e-12
        assert data["S"][2] == [[0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]
        assert data["open"] == [True, True, False]

    def test_threshold_resonance_is_numerical_failure(self, tmp_path, capsys):
        # Two free lines at zero kinetic energy: A + iBK = A is singular.
        path = tmp_path / "bc.json"
        path.write_text(bc_to_json(make_delta(2, 0.0)))
        code, out, err = run_cli(
            ["smatrix", "--bc", str(path), "--potentials", "1,1", "--k", "1.0"], capsys
        )
        assert (code, out) == (3, "")
        assert err == ("qstar: numerical failure: wave-matching system singular at E=1.0: "
                       "condition estimate inf at or above 1.414e+14\n")


class TestGraph:
    @pytest.fixture
    def chain_config(self, tmp_path):
        graph = build_recipe(FilterN3(1.0, 3.0, 1.0), d=0.01)
        path = tmp_path / "chain.json"
        path.write_text(graph_to_json(graph))
        return path

    def test_single_energy(self, chain_config, capsys):
        code, out, _ = run_cli(["graph", str(chain_config), "--E", "4.0"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 3
        assert data["unitarity_defect"] < 1e-8

    def test_energy_echo_is_the_given_energy(self, chain_config, capsys):
        # For 100 of these energies (sqrt E)**2 != E, so an echo read
        # back from k would miss them.
        energies = np.random.default_rng(2024).uniform(0.05, 30.0, 200).tolist()
        assert sum(float(np.sqrt(e)) ** 2 != e for e in energies) == 100
        for energy in energies:
            code, out, err = run_cli(["graph", str(chain_config), "--E", repr(energy)], capsys)
            assert (code, err) == (0, "")
            data = json.loads(out)
            assert data["energy"] == energy
            assert data["k"] == float(np.sqrt(energy))
            assert data["potentials"] == [0.0, 0.0, 1.0]

    def test_momentum_sweep(self, chain_config, capsys):
        code, out, _ = run_cli(
            ["graph", str(chain_config), "--k", "0.5:2:8"], capsys
        )
        assert code == 0
        header, cols = parse_csv(out)
        assert header == ["k", "P11", "P21", "P31"]
        assert len(cols["k"]) == 8

    @pytest.mark.parametrize("mode", [["--E", "4.0"], ["--k", "0.5:2:4"]])
    def test_incoming_line_out_of_range_exits_2(self, chain_config, capsys, mode):
        code, out, err = run_cli(["graph", str(chain_config), *mode, "--in", "9"], capsys)
        assert code == 2
        assert out == ""
        assert "incoming line 9 out of range" in err

    def test_requires_exactly_one_mode(self, chain_config, capsys):
        code, _, err = run_cli(["graph", str(chain_config)], capsys)
        assert code == 2
        code, _, err = run_cli(
            ["graph", str(chain_config), "--E", "1.0", "--k", "0.5:2:4"], capsys
        )
        assert code == 2

    def test_missing_config_exits_2(self, capsys):
        code, _, err = run_cli(["graph", "/nonexistent.json", "--E", "1.0"], capsys)
        assert code == 2

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": []}')
        code, _, err = run_cli(["graph", str(path), "--E", "1.0"], capsys)
        assert code == 2

    @pytest.mark.parametrize("group, key, value", [
        ("vertices", "strength", "1.5"),
        ("vertices", "strength", True),
        ("lines", "U", "0"),
        ("edges", "d", "1.0"),
    ])
    def test_non_numeric_config_value_exits_2(self, chain_config, capsys, group, key, value):
        data = json.loads(chain_config.read_text())
        data[group][0][key] = value
        chain_config.write_text(json.dumps(data))
        code, out, err = run_cli(["graph", str(chain_config), "--E", "4.0"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("qstar: config error: malformed graph config: expected a number")

    def test_momentum_whose_energy_overflows_exits_2(self, chain_config, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["graph", str(chain_config), "--k", "0.5:1e200:3"], capsys)
        assert (code, out) == (2, "")
        assert err == "qstar: momentum 1e+200 is too large: its energy k^2 overflows\n"

    def test_momentum_whose_energy_underflows_exits_2(self, chain_config, capsys):
        code, out, err = run_cli(["graph", str(chain_config), "--k", "1e-200:1:3"], capsys)
        assert (code, out) == (2, "")
        assert err == "qstar: momentum 1e-200 is too small: its energy k^2 underflows to 0\n"

    @pytest.mark.parametrize("group, key", [("vertices", "strength"), ("edges", "d")])
    def test_integer_beyond_float_range_is_a_config_error(
            self, chain_config, capsys, group, key):
        data = json.loads(chain_config.read_text())
        data[group][0][key] = 10**400
        chain_config.write_text(json.dumps(data))
        code, out, err = run_cli(["graph", str(chain_config), "--E", "4.0"], capsys)
        assert (code, out) == (2, "")
        assert err == ("qstar: config error: malformed graph config: "
                       "int too large to convert to float\n")

    @pytest.mark.parametrize("mode", [["--E", "4.0"], ["--k", "0.5:2:4"]], ids=["E", "k"])
    @pytest.mark.parametrize("group, key, value, message", [
        ("vertices", "strength", "NaN", "vertex 'v1': strength must be finite, got nan"),
        ("vertices", "strength", "Infinity", "vertex 'v1': strength must be finite, got inf"),
        ("lines", "U", "-Infinity", "line 1: potential U must be finite, got -inf"),
        ("edges", "d", "Infinity",
         "edge 'v1'-'v2': length d must be positive and finite, got inf"),
        ("edges", "phi", "NaN", "edge 'v1'-'v2': phase phi must be finite, got nan"),
    ], ids=["strength-nan", "strength-inf", "U", "d", "phi"])
    def test_non_finite_config_value_is_a_config_error(
            self, chain_config, capsys, mode, group, key, value, message):
        data = json.loads(chain_config.read_text())
        data[group][0][key] = "VALUE"
        chain_config.write_text(json.dumps(data).replace('"VALUE"', value))
        code, out, err = run_cli(["graph", str(chain_config), *mode], capsys)
        assert (code, out) == (2, "")
        assert err == f"qstar: config error: {message}\n"

    def test_resonant_energy_exits_3(self, tmp_path, capsys):
        path = tmp_path / "ring.json"
        path.write_text(
            json.dumps(
                {
                    "vertices": [
                        {"id": "a", "strength": 0.0},
                        {"id": "b", "strength": 0.0},
                    ],
                    "lines": [{"vertex": "a", "U": 0.0}, {"vertex": "b", "U": 0.0}],
                    "edges": [
                        {"from": "a", "to": "b", "d": 1.0, "phi": 0.0},
                        {"from": "a", "to": "b", "d": 1.0, "phi": 0.0},
                    ],
                }
            )
        )
        code, _, err = run_cli(["graph", str(path), "--E", repr(np.pi**2)], capsys)
        assert code == 3
        assert "singular" in err.lower()


class TestFrozenJsonBytes:
    """Exact stdout of two JSON runs with a closed channel (null
    probabilities), frozen from the output of ``json.dumps(..., indent=2,
    sort_keys=True)`` before ``vertex.json_text`` replaced it. The graph
    run echoes ``"energy": 2.0``, the ``--E 2.0`` it was given, not
    (sqrt 2.0)**2 = 2.0000000000000004."""

    BC = """{"n": 3,
     "A": [[[0, 0], [0, 0], [0, 0]], [[-1, 0], [1, 0], [0, 0]], [[-0.5, 0.25], [0, 0], [1, 0]]],
     "B": [[[1, 0], [1, 0], [0.5, 0.25]], [[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]]}"""
    RING = """{"vertices": [{"id": "a", "strength": 0.3}, {"id": "b", "strength": -0.7}],
     "lines": [{"vertex": "a"}, {"vertex": "b", "U": 0.5}, {"vertex": "b", "U": 3.0}],
     "edges": [{"from": "a", "to": "b", "d": 0.4, "phi": 0.2}, {"from": "a", "to": "b", "d": 0.9}]}"""

    @pytest.mark.parametrize("name, text, argv, golden", [
        ("bc.json", BC, ["smatrix", "--bc", "bc.json", "--potentials", "0,0.5,2", "--k", "1.1"],
         "smatrix_bc_closed_channel.json"),
        ("ring.json", RING, ["graph", "ring.json", "--E", "2.0"], "graph_E_closed_channel.json"),
    ], ids=["smatrix-bc", "graph-E"])
    def test_stdout_is_frozen(self, tmp_path, monkeypatch, capsys, name, text, argv, golden):
        (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert out == (Path(__file__).resolve().parent / "golden" / golden).read_text()


class TestReentrantMain:
    """One process runs ``main`` on errors and successes in turn; each call
    matches ``python -m qstar`` in a fresh interpreter."""

    CALLS = [
        (["report", "flux", "--a", "1"], 2),
        (["report", "--help"], 0),
        (["sweep", "--device", "n4", "--a", "1", "--b", "3", "--k", "0.1:2:5"], 2),
        (["report", "pole", "--device", "n4", "--a", "0.5"], 3),
        (["sweep", "--device", "n3", "--a", "1", "--b", "3", "--k", "0.05:5:7"], 0),
        (["report", "flux", "--a", "0.7071067811865476", "--U", "1", "--kF", "4"], 0),
        (["smatrix", "--device", "n4", "--a", "1", "--U", "1", "--k", "1.5"], 0),
        (["graph", "chain.json", "--E", "4.0"], 0),
    ]

    def test_matches_fresh_interpreters(self, tmp_path, monkeypatch, capsys):
        graph = build_recipe(FilterN3(1.0, 3.0, 1.0), d=0.01)
        (tmp_path / "chain.json").write_text(graph_to_json(graph))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")
        src = str(Path(qstar.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))

        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built[-1] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._parser.cache_clear()
        for argv, expected_code in self.CALLS:
            built.append(0)
            result = run_cli(argv, capsys)
            fresh = subprocess.run([sys.executable, "-m", "qstar", *argv],
                                   capture_output=True, env=env)
            expected = (fresh.returncode, fresh.stdout.decode(), fresh.stderr.decode())
            assert result == expected, argv
            assert result[0] == expected_code, argv
        assert built[0] > 0
        assert built[1:] == [0] * (len(self.CALLS) - 1)
        assert cli.build_parser() is not cli.build_parser()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qstar", "report", "pole", "--device", "n4",
             "--a", "1", "--U", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["k_pole"] == pytest.approx(
            2 / np.sqrt(3), rel=1e-8
        )
