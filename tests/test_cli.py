"""End-to-end command-line behavior: formats, exit codes, determinism."""

import ast
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import OMEGA_RANGE
from relplanck import (
    Component,
    effective_temperature_mu,
    make_boost,
    rho_moving_mu,
    rho_rest,
    spectral_prefactor,
    temperature_multipoles,
)
from relplanck import cli, radiometry
from relplanck.cli import main
from relplanck.montecarlo import run_identity_check
from relplanck.selfcheck import CheckResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrumCommand:
    def test_rest_frame_single_point_exact_bytes(self, capsys):
        code, out, err = run_cli(
            capsys, "spectrum", "--temperature", "1", "--component", "zero-point",
            "--omega-min", "1", "--omega-max", "1", "--points", "1",
        )
        assert code == 0
        assert out == "omega,rho\n1,0.0040314418041499369\n"
        assert "\r" not in out
        assert "# temperature=1.0" in err

    def test_rest_frame_values_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--temperature", "1.3",
            "--omega-min", "0", "--omega-max", "8", "--points", "11",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "omega,rho"
        assert len(lines) == 12
        for line in lines[1:]:
            w, r = (float(s) for s in line.split(","))
            # 17 significant digits reproduce the binary doubles exactly
            assert r == rho_rest(w, 1.3)

    def test_moving_frame_effective_temperature_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--temperature", "1", "--frame", "moving",
            "--mu", "-1", "--beta", "0.6", "--points", "5",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "omega_prime,rho_prime,t_eff"
        v = make_boost([0, 0, 0.6])
        for line in lines[1:]:
            w, r, teff = (float(s) for s in line.split(","))
            assert teff == 2.0
            assert r == rho_moving_mu(w, -1.0, v, 1.0)

    def test_zero_boost_moving_equals_rest(self, capsys):
        args = ("--temperature", "1.7", "--omega-min", "0.5", "--omega-max", "6",
                "--points", "7")
        _, rest_out, _ = run_cli(capsys, "spectrum", "--temperature", "1.7",
                                 "--omega-min", "0.5", "--omega-max", "6",
                                 "--points", "7")
        _, mov_out, _ = run_cli(capsys, "spectrum", *args, "--frame", "moving",
                                "--mu", "0.25", "--beta", "0")
        rest_rows = [l.split(",") for l in rest_out.splitlines()[1:]]
        mov_rows = [l.split(",") for l in mov_out.splitlines()[1:]]
        for rr, mr in zip(rest_rows, mov_rows):
            assert rr[0] == mr[0]
            assert rr[1] == mr[1]

    def test_moving_frame_without_cosine_integrates_over_directions(self, capsys):
        code, out, err = run_cli(
            capsys, "spectrum", "--temperature", "1.3", "--frame", "moving",
            "--beta", "0.6", "--component", "thermal", "--omega-min", "0.5",
            "--omega-max", "20", "--points", "9",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "omega_prime,u_prime"
        assert len(lines) == 10
        assert "# mu=" not in err
        g, b, t = 1.25, 0.6, 1.3
        for line in lines[1:]:
            w, u = (float(s) for s in line.split(","))
            hot, cold = -math.expm1(-g * (1 - b) * w / t), -math.expm1(-g * (1 + b) * w / t)
            pref = 1.0 / (2 * math.pi) ** 3
            closed = 2 * math.pi * pref * w**3 * (2 * t / (g * b * w)) * math.log(cold / hot)
            assert u == pytest.approx(closed, rel=1e-13)

    def test_zero_point_direction_integral_is_the_same_at_any_beta(self, capsys):
        for beta in ("0", "0.6", "0.999999999"):
            code, out, _ = run_cli(
                capsys, "spectrum", "--temperature", "2", "--frame", "moving",
                "--beta", beta, "--component", "zero-point", "--points", "7",
                "--format", "json",
            )
            assert code == 0
            res = json.loads(out)["results"]
            omega = np.array(res["omega_prime"])
            assert res["u_prime"] == (4.0 * np.pi * spectral_prefactor() * omega * omega * omega).tolist()

    def test_json_envelope_shape_and_determinism(self, capsys):
        args = ("spectrum", "--temperature", "1", "--points", "4", "--format", "json")
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        env = json.loads(out1)
        assert set(env) == {"schema_version", "command", "inputs", "results", "warnings"}
        assert env["schema_version"] == "1"
        assert env["command"] == "spectrum"
        assert len(env["results"]["omega"]) == 4
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum", "--temperature", "1", "--frame", "moving", "--beta", "1"),
            ("spectrum", "--temperature", "1", "--mu", "0.5"),
            ("spectrum", "--temperature", "1", "--beta", "0.5"),
            ("spectrum", "--temperature", "1", "--frame", "moving", "--mu", "1.5",
             "--beta", "0.5"),
            ("spectrum", "--temperature", "-1"),
            ("spectrum", "--temperature", "1", "--points", "0"),
            ("spectrum", "--temperature", "1", "--omega-min", "5", "--omega-max", "1"),
            ("spectrum", "--temperature", "1", "--grid", "log", "--omega-min", "0"),
            ("spectrum", "--temperature", "1", "--omega-max", "inf"),
            ("spectrum", "--temperature", "1", "--omega-max", "nan"),
            ("spectrum", "--temperature", "1", "--omega-min", "nan", "--omega-max", "1"),
            ("boost-mode", "--omega", "1", "--mu", "0.2", "--beta", "0.5", "--azimuth", "inf"),
            ("boost-mode", "--omega", "1", "--mu", "0.2", "--beta", "0.5", "--azimuth", "nan"),
        ],
    )
    def test_usage_errors_exit_2(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "error" in err


class TestBoostModeCommand:
    def test_transverse_mode_exact_row(self, capsys):
        code, out, _ = run_cli(capsys, "boost-mode", "--omega", "1", "--mu", "0",
                               "--beta", "0.6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "omega_prime,mu_prime,jac_freq,jac_solid_angle"
        cells = lines[1].split(",")
        assert cells[:3] == ["1.25", "-0.59999999999999998", "0.80000000000000004"]
        assert float(cells[3]) == pytest.approx(1.5625, rel=1e-15)

    def test_json_direction(self, capsys):
        code, out, _ = run_cli(capsys, "boost-mode", "--omega", "1", "--mu", "0",
                               "--beta", "0.6", "--format", "json")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["omega_prime"] == pytest.approx(1.25, rel=1e-15)
        # the transverse leg of the direction basis lies along y for a +z boost
        assert res["khat_prime"] == pytest.approx([0.0, 0.8, -0.6], abs=1e-15)
        assert res["jac_freq"] * res["omega_prime"] == pytest.approx(1.0, rel=1e-15)

    def test_requires_valid_inputs(self, capsys):
        assert run_cli(capsys, "boost-mode", "--omega", "-1", "--mu", "0")[0] == 2
        assert run_cli(capsys, "boost-mode", "--omega", "1", "--mu", "2")[0] == 2
        assert run_cli(capsys, "boost-mode", "--omega", "1", "--mu", "0",
                       "--beta", "1")[0] == 2


# boost-mode --omega 2.5 at each (--beta, --mu, --azimuth): omega', mu', jac_freq, jac_solid_angle
# and khat', each zero with its sign; a boost along -z turns the direction basis about x
BOOST_MODE_GOLDEN = {
    ("0.6", "-1", "0"):       (5.0, -1.0, 0.5, 4.0, [0.0, 0.0, -1.0]),
    ("0.6", "-1", "-2.5"):    (5.0, -1.0, 0.5, 4.0, [0.0, 0.0, -1.0]),
    ("0.6", "-0.0", "0"):     (3.125, -0.6, 0.8, 1.5625, [0.0, 0.8, -0.6]),
    ("0.6", "-0.0", "-2.5"):  (3.125, -0.6, 0.8, 1.5625, [0.47877771528316526, -0.640914892437547, -0.6]),
    ("0.6", "0", "0"):        (3.125, -0.6, 0.8, 1.5625, [0.0, 0.8, -0.6]),
    ("0.6", "0", "-2.5"):     (3.125, -0.6, 0.8, 1.5625, [0.47877771528316526, -0.640914892437547, -0.6]),
    ("0.6", "1", "0"):        (1.25, 1.0, 2.0, 0.25, [0.0, 0.0, 1.0]),
    ("0.6", "1", "-2.5"):     (1.25, 1.0, 2.0, 0.25, [0.0, 0.0, 1.0]),
    ("-0.6", "-1", "0"):      (5.0, -1.0, 0.5, 4.0, [0.0, 0.0, 1.0]),
    ("-0.6", "-1", "-2.5"):   (5.0, -1.0, 0.5, 4.0, [0.0, 0.0, 1.0]),
    ("-0.6", "-0.0", "0"):    (3.125, -0.6, 0.8, 1.5625, [0.0, -0.8, 0.6]),
    ("-0.6", "-0.0", "-2.5"): (3.125, -0.6, 0.8, 1.5625, [0.47877771528316526, 0.640914892437547, 0.6]),
    ("-0.6", "0", "0"):       (3.125, -0.6, 0.8, 1.5625, [0.0, -0.8, 0.6]),
    ("-0.6", "0", "-2.5"):    (3.125, -0.6, 0.8, 1.5625, [0.47877771528316526, 0.640914892437547, 0.6]),
    ("-0.6", "1", "0"):       (1.25, 1.0, 2.0, 0.25, [0.0, 0.0, -1.0]),
    ("-0.6", "1", "-2.5"):    (1.25, 1.0, 2.0, 0.25, [0.0, 0.0, -1.0]),
    ("0", "-1", "0"):         (2.5, -1.0, 1.0, 1.0, [0.0, 0.0, -1.0]),
    ("0", "-1", "-2.5"):      (2.5, -1.0, 1.0, 1.0, [0.0, -0.0, -1.0]),
    ("0", "-0.0", "0"):       (2.5, 0.0, 1.0, 1.0, [0.0, 1.0, 0.0]),
    ("0", "-0.0", "-2.5"):    (2.5, 0.0, 1.0, 1.0, [0.5984721441039565, -0.8011436155469337, -0.0]),
    ("0", "0", "0"):          (2.5, 0.0, 1.0, 1.0, [0.0, 1.0, 0.0]),
    ("0", "0", "-2.5"):       (2.5, 0.0, 1.0, 1.0, [0.5984721441039565, -0.8011436155469337, 0.0]),
    ("0", "1", "0"):          (2.5, 1.0, 1.0, 1.0, [0.0, 0.0, 1.0]),
    ("0", "1", "-2.5"):       (2.5, 1.0, 1.0, 1.0, [0.0, 0.0, 1.0]),
}


@pytest.mark.parametrize("beta,mu,azimuth", BOOST_MODE_GOLDEN)
def test_boost_mode_json_is_golden(capsys, beta, mu, azimuth):
    code, out, _ = run_cli(capsys, "boost-mode", "--omega", "2.5", "--mu", mu, "--beta", beta,
                           "--azimuth", azimuth, "--format", "json")
    res = json.loads(out)["results"]
    got = tuple(res[k] for k in (
        "omega_prime", "mu_prime", "jac_freq", "jac_solid_angle", "khat_prime"))
    # repr tells -0.0 from 0.0, which == does not
    assert code == 0 and repr(got) == repr(BOOST_MODE_GOLDEN[beta, mu, azimuth])


class TestEnergyDensityCommand:
    def test_both_routes_csv(self, capsys):
        code, out, _ = run_cli(capsys, "energy-density", "--temperature", "1",
                               "--beta", "0.6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ("method,w_rest,w_moving,ratio,expected_ratio,"
                            "ratio_minus_expected")
        assert len(lines) == 3
        for line, name in zip(lines[1:], ("spectral", "correlation")):
            cells = line.split(",")
            assert cells[0] == name
            assert float(cells[1]) == pytest.approx(math.pi**2 / 15.0, rel=1e-10)
            assert float(cells[3]) == pytest.approx(1.75, rel=1e-8)
            assert float(cells[4]) == pytest.approx(1.75, rel=1e-14)
            assert abs(float(cells[5])) <= 2e-8

    def test_spectral_route_near_light_speed(self, capsys):
        code, out, _ = run_cli(capsys, "energy-density", "--temperature", "1",
                               "--beta", "0.999", "--format", "json")
        assert code == 0
        ratios = {m["method"]: m["ratio"] for m in json.loads(out)["results"]["methods"]}
        # gamma^2 (1 + beta^2/3) at beta = 0.999, from a 40-digit evaluation
        for ratio in ratios.values():
            assert abs(ratio / 666.66683341670835418 - 1.0) <= 1e-12

    def test_json_states_each_route_quadrature_diagnostics(self, capsys):
        code, out, _ = run_cli(capsys, "energy-density", "--temperature", "1",
                               "--beta", "0.999", "--format", "json")
        assert code == 0
        methods = {m["method"]: m for m in json.loads(out)["results"]["methods"]}
        spec, corr = methods["spectral"], methods["correlation"]
        assert (spec["n_panels"], spec["n_evaluations"]) == (4, 208)
        assert 0.0 < spec["error_estimate"] <= 1e-10 * spec["w_moving"]
        assert (corr["error_estimate"], corr["n_panels"], corr["n_evaluations"]) == (None, None, None)

    def test_zero_temperature_rejected(self, capsys):
        assert run_cli(capsys, "energy-density", "--temperature", "0")[0] == 2

    def test_correlation_route_lands_on_the_rounded_closed_form(self, capsys):
        # gamma^2 (1 + beta^2/3) at the double 0.6 rounds to 1.75, and the
        # correlation route's trace contraction lands on it
        code, out, _ = run_cli(capsys, "energy-density", "--temperature", "300",
                               "--beta", "0.6", "--units", "si", "--format", "json")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["expected_ratio"] == 1.75
        corr, = (m for m in res["methods"] if m["method"] == "correlation")
        assert corr["ratio_minus_expected"] == 0.0

    @pytest.mark.parametrize("units, t", [("natural", "1"), ("si", "300")])
    def test_spectral_route_writes_its_quadrature_verdict(self, capsys, units, t):
        # the correlation route runs no quadrature and writes no verdict
        code, out, err = run_cli(capsys, "energy-density", "--temperature", t, "--beta", "0.6",
                                 "--units", units)
        assert code == 0
        verdicts = [line for line in err.splitlines() if not line.startswith("# ")]
        assert len(verdicts) == 1
        assert verdicts[0].startswith("PASS  quadrature ")
        assert verdicts[0].endswith("W' on 4 panels, 208 evaluations")
        assert "PASS" not in out

    def test_quadrature_failure_exits_1(self, capsys, monkeypatch):
        # a tolerance of 0 makes the real quadrature miss it; the numbers are
        # still written, and the failed record sets the exit code
        monkeypatch.setattr(radiometry, "_REL_TOL", 0.0)
        monkeypatch.setattr(radiometry, "_ABS_TOL", 0.0)
        code, out, err = run_cli(capsys, "energy-density", "--temperature", "1",
                                 "--beta", "0.6")
        assert code == 1
        assert out.startswith("method,w_rest,")
        verdicts = [line for line in err.splitlines() if not line.startswith("# ")]
        assert len(verdicts) == 2
        assert verdicts[0].startswith("FAIL  quadrature ")
        assert verdicts[1] == "1 of 1 checks failed"


class TestAnisotropyCommand:
    def test_tables_match_library(self, capsys):
        code, out, _ = run_cli(capsys, "anisotropy", "--temperature", "2.725",
                               "--beta", "0.00123", "--lmax", "2",
                               "--map-points", "5")
        assert code == 0
        first, second = out.split("\n\n")
        coeff_lines = first.splitlines()
        assert coeff_lines[0] == "l,a_l"
        coeffs = temperature_multipoles(make_boost([0, 0, 0.00123]), 2.725, 2)
        for line, want in zip(coeff_lines[1:], coeffs.a):
            l_str, a_str = line.split(",")
            assert float(a_str) == want
        map_lines = second.splitlines()
        assert map_lines[0] == "mu_prime,t_eff"
        assert len(map_lines) == 6
        v = make_boost([0, 0, 0.00123])
        for line in map_lines[1:]:
            mu, teff = (float(s) for s in line.split(","))
            assert teff == effective_temperature_mu(mu, v, 2.725)

    def test_json_map_is_optional(self, capsys):
        _, out, _ = run_cli(capsys, "anisotropy", "--temperature", "1",
                            "--beta", "0.1", "--lmax", "1", "--format", "json")
        res = json.loads(out)["results"]
        assert "map" not in res
        assert "convention" in res
        assert len(res["a"]) == 2
        _, out2, _ = run_cli(capsys, "anisotropy", "--temperature", "1",
                             "--beta", "0.1", "--lmax", "1", "--map-points", "3",
                             "--format", "json")
        assert "map" in json.loads(out2)["results"]

    def test_json_states_how_the_coefficients_were_computed(self, capsys):
        beta, lmax = 0.9, 3
        _, out, _ = run_cli(capsys, "anisotropy", "--temperature", "1",
                            "--beta", str(beta), "--lmax", str(lmax), "--format", "json")
        res = json.loads(out)["results"]
        assert res["method"] == "recurrence"
        # the recurrence's start index is its number of steps, l_max + 2 +
        # ceil(19 / acosh(1 / beta)) (TestMultipoles in test_spectrum.py)
        assert res["n_evaluations"] == 46

    def test_json_near_light_speed_takes_the_forward_branch(self, capsys):
        # the backward recurrence took 424,871 steps here
        code, out, _ = run_cli(capsys, "anisotropy", "--temperature", "1",
                               "--beta", "0.999999999", "--lmax", "16", "--format", "json")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["method"] == "forward-recurrence"
        assert res["n_evaluations"] <= 16
        v = make_boost([0, 0, 0.999999999])
        assert res["a"][0] == pytest.approx(math.atanh(v.beta_mag) / (v.gamma * v.beta_mag),
                                            rel=1e-15)

    def test_csv_bytes_are_unchanged_by_the_diagnostics(self, capsys):
        # frozen from the output before the coefficients carried their method
        code, out, _ = run_cli(capsys, "anisotropy", "--temperature", "2.725",
                               "--beta", "0.00123", "--lmax", "2", "--map-points", "3")
        assert code == 0
        assert out == (
            "l,a_l\n0,2.7249993128906773\n1,-0.0033517505070862837\n"
            "2,2.7484364850393353e-06\n\nmu_prime,t_eff\n-1,2.7283538138640226\n"
            "0,2.7249979386729701\n1,2.7216503087931545\n"
        )

    def test_validation(self, capsys):
        assert run_cli(capsys, "anisotropy", "--temperature", "1",
                       "--lmax", "-1")[0] == 2
        assert run_cli(capsys, "anisotropy", "--temperature", "1",
                       "--map-points", "1")[0] == 2


class TestMcVerifyCommand:
    def test_passing_run_json(self, capsys):
        args = ("mc-verify", "--beta", "0.6", "--n", "200000")
        code, out, err = run_cli(capsys, *args)
        assert code == 0
        # the verdict is one record line, with the Monte Carlo numbers
        assert err.startswith("PASS  mc-identity ") and err.count("\n") == 1
        assert "chi2/dof = " in err
        env = json.loads(out)
        assert env["results"]["passed"] is True
        assert 0.5 <= env["results"]["chi2_per_dof"] <= 1.5
        # default grid edge: 15 gamma (1 + beta) in thermal units
        assert env["inputs"]["omega_prime_max"] == 30.0
        code2, out2, _ = run_cli(capsys, *args)
        assert code2 == 0
        assert out2 == out

    def test_beta_0_9_at_a_million_draws_passes(self, capsys):
        # the exact mu' reference: the 3-node one read chi2/dof 1.77 here
        code, out, err = run_cli(capsys, "mc-verify", "--beta", "0.9", "--n", "1000000")
        assert code == 0, err
        assert json.loads(out)["results"]["dof"] >= 90

    def test_near_rest_states_a_nonzero_ratio_error(self, capsys):
        # the weights' variance, 1.3e-18 at beta 1e-9, no longer cancels
        code, out, _ = run_cli(capsys, "mc-verify", "--beta", "1e-9", "--n", "2000")
        assert code == 0
        se = json.loads(out)["results"]["ratio_std_error"]
        assert se == pytest.approx(math.sqrt(4.0 / 3.0 * 1e-18 / 2000), rel=0.1)

    def test_sparse_run_fails_with_null_chi2(self, capsys):
        code, out, _ = run_cli(capsys, "mc-verify", "--beta", "0.6", "--n", "100")
        assert code == 1
        env = json.loads(out)
        assert env["results"]["chi2_per_dof"] is None
        assert env["results"]["dof"] == 0
        assert env["warnings"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_failing_gate_exits_1_with_its_record_on_stderr(self, capsys, monkeypatch, fmt):
        # a bin 7 sigma off fails the gate whatever chi2/dof reads
        def off_by_7_sigma(*args, **kwargs):
            return dataclasses.replace(run_identity_check(*args, **kwargs), max_abs_z=7.0)

        monkeypatch.setattr("relplanck.montecarlo.run_identity_check", off_by_7_sigma)
        code, out, err = run_cli(capsys, "mc-verify", "--beta", "0.6", "--n", "20000",
                                 "--format", fmt)
        assert code == 1
        *_, record, tally = err.splitlines()
        assert record.startswith("FAIL  mc-identity ") and "max|z| = 7.00" in record
        assert tally == "1 of 1 checks failed"
        assert out and ("passed" not in out or json.loads(out)["results"]["passed"] is False)

    def test_csv_bin_table(self, capsys):
        code, out, _ = run_cli(capsys, "mc-verify", "--beta", "0.6",
                               "--n", "200000", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split(",") == [
            "omega_lo", "omega_hi", "mu_lo", "mu_hi", "count", "estimated",
            "analytic", "std_error", "expected_count", "included", "z",
        ]
        assert len(lines) == 1 + 32 * 16

    def test_stdout_does_not_depend_on_the_cpu_count(self, capsys, monkeypatch):
        # three chunks of draws on one thread or on two give the same report,
        # and the output echoes only the flags
        def stdout(cpus):
            monkeypatch.setattr("relplanck.montecarlo._usable_cpus", lambda: cpus)
            code, out, _ = run_cli(capsys, "mc-verify", "--beta", "0.6", "--n", "300000")
            assert code == 0
            return out

        assert stdout(1) == stdout(2)

    def test_validation(self, capsys):
        assert run_cli(capsys, "mc-verify", "--n", "0")[0] == 2
        assert run_cli(capsys, "mc-verify", "--temperature", "0")[0] == 2
        assert run_cli(capsys, "mc-verify", "--omega-prime-max", "-3")[0] == 2

    def test_non_finite_grid_exits_2_before_sampling(self, capsys):
        code, out, err = run_cli(capsys, "mc-verify", "--omega-prime-max", "inf")
        assert code == 2
        assert out == ""
        assert "omega_prime_max must be finite" in err

    def test_huge_finite_grid_fails_loudly(self, capsys):
        # 1.7e308 lies far above the domain's frequency range
        code, out, err = run_cli(capsys, "mc-verify", "--beta", "0.6", "--n", "20000",
                                 "--omega-prime-max", "1.7e308")
        assert (code, out) == (2, "")
        assert err == f"error: omega_prime_max {OMEGA_RANGE}\n"


class TestSelftestCommand:
    def test_quick_battery_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--quick")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 16
        assert all(line.startswith("PASS") for line in lines)

    def test_json_battery(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--quick", "--format", "json")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["all_passed"] is True
        assert len(res["checks"]) == 16
        assert {"name", "passed", "residual", "tolerance", "detail"} <= set(res["checks"][0])

    def test_text_report_is_the_json_runs_stderr(self, capsys):
        # one emitter writes the records: to stdout as the text report, to
        # stderr beside the JSON envelope
        code, text_out, text_err = run_cli(capsys, "selftest", "--quick")
        json_code, json_out, json_err = run_cli(capsys, "selftest", "--quick", "--format", "json")
        assert (code, json_code, text_err) == (0, 0, "")
        assert json_err == text_out
        names = [c["name"] for c in json.loads(json_out)["results"]["checks"]]
        assert [line.split()[1] for line in text_out.splitlines()] == names

    def test_injected_failure_in_json_exits_1(self, capsys, monkeypatch):
        fake = [CheckResult(name="x", passed=False, residual=1.0, tolerance=0.1,
                            detail="injected")]
        monkeypatch.setattr("relplanck.selfcheck.run_selfcheck", lambda **k: fake)
        code, out, err = run_cli(capsys, "selftest", "--quick", "--format", "json")
        assert code == 1
        assert json.loads(out)["results"]["all_passed"] is False
        assert err.startswith("FAIL  x ") and err.endswith("\n1 of 1 checks failed\n")

    def test_injected_failure_exits_1(self, capsys, monkeypatch):
        fake = [CheckResult(name="x", passed=False, residual=1.0, tolerance=0.1,
                            detail="injected")]
        monkeypatch.setattr("relplanck.selfcheck.run_selfcheck", lambda **k: fake)
        code, out, err = run_cli(capsys, "selftest", "--quick")
        assert code == 1
        assert out.startswith("FAIL")
        assert "1 of 1 checks failed" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--temperature", "1", "--points", "4", "--format", "json"),
        ("boost-mode", "--omega", "1.5", "--mu", "-0.3", "--beta", "0.6", "--format", "json"),
        ("energy-density", "--temperature", "1", "--beta", "0.6", "--format", "json"),
        ("anisotropy", "--temperature", "1", "--beta", "0.6", "--map-points", "3",
         "--format", "json"),
        ("mc-verify", "--beta", "0.6", "--n", "20000"),
        ("mc-verify", "--beta", "0.6", "--n", "100"),
        ("selftest", "--quick", "--format", "json"),
    ],
    ids=["spectrum", "boost-mode", "energy-density", "anisotropy", "mc-verify",
         "mc-verify-sparse", "selftest"],
)
def test_envelope_json_equals_the_deep_copied_form(capsys, argv):
    # one plain dict per run, dumped with sorted keys and indent 2
    main(list(argv))
    out = capsys.readouterr().out
    env = json.loads(out)
    assert out == json.dumps(env, sort_keys=True, indent=2) + "\n"
    assert set(env) == {"schema_version", "command", "inputs", "results", "warnings"}
    assert env["schema_version"] == "1"
    assert env["command"] == argv[0]


def _csv_tables(out):
    """CSV stdout as a list of {column: [cells]}, tables split at blank lines."""
    tables = []
    for block in out.split("\n\n"):
        header, *rows = block.splitlines()
        tables.append(dict(zip(header.split(","), zip(*(r.split(",") for r in rows)))))
    return tables


def _json_tables(command, res):
    """The CSV tables as the JSON results give them, cell for cell."""
    if command == "spectrum":
        return [res]
    if command == "boost-mode":
        return [{k: [res[k]] for k in ("omega_prime", "mu_prime", "jac_freq", "jac_solid_angle")}]
    if command == "energy-density":
        rows = [dict(r, expected_ratio=res["expected_ratio"]) for r in res["methods"]]
        return [{k: [r[k] for r in rows] for k in ("method", "w_rest", "w_moving", "ratio",
                                                   "expected_ratio", "ratio_minus_expected")}]
    if command == "anisotropy":
        return [{"l": res["l"], "a_l": res["a"]}, res["map"]]
    om, mu = res["omega_edges"], res["mu_edges"]
    bins = [(i, j) for i in range(len(om) - 1) for j in range(len(mu) - 1)]
    z = [res["z_scores"][i][j] for i, j in bins]
    return [{
        "omega_lo": [om[i] for i, _ in bins], "omega_hi": [om[i + 1] for i, _ in bins],
        "mu_lo": [mu[j] for _, j in bins], "mu_hi": [mu[j + 1] for _, j in bins],
        **{col: [res[key][i][j] for i, j in bins] for col, key in (
            ("count", "counts"), ("estimated", "estimated"), ("analytic", "analytic"),
            ("std_error", "std_error"), ("expected_count", "expected_counts"))},
        "included": [x is not None for x in z],
        "z": [math.nan if x is None else x for x in z],
    }]


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--temperature", "1.3", "--frame", "moving", "--mu", "-0.4",
         "--beta", "0.6", "--points", "7"),
        ("boost-mode", "--omega", "1.5", "--mu", "-0.3", "--beta", "-0.6"),
        ("energy-density", "--temperature", "1", "--beta", "0.6"),
        ("anisotropy", "--temperature", "2.72548", "--beta", "0.00123", "--lmax", "3",
         "--map-points", "5"),
        ("mc-verify", "--beta", "0.6", "--n", "20000", "--bins-omega", "8", "--bins-mu", "4"),
    ],
    ids=["spectrum", "boost-mode", "energy-density", "anisotropy", "mc-verify"],
)
def test_every_csv_cell_equals_the_json_value(capsys, argv):
    code_json, out_json, _ = run_cli(capsys, *argv, "--format", "json")
    code_csv, out_csv, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code_csv == code_json
    want = _json_tables(argv[0], json.loads(out_json)["results"])
    got = _csv_tables(out_csv)
    assert [list(t) for t in got] == [list(t) for t in want]
    for got_table, want_table in zip(got, want):
        for col, cells in got_table.items():
            assert len(cells) == len(want_table[col])
            for cell, value in zip(cells, want_table[col]):
                if isinstance(value, str):
                    assert cell == value
                elif math.isnan(value):
                    assert math.isnan(float(cell))
                else:
                    assert float(cell) == value, (col, cell, value)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("spectrum", "--temperature", "1", "--points", "1000001"),
         "--points must be an integer in [1, 1000000], got 1000001"),
        (("anisotropy", "--temperature", "1", "--map-points", "1000001"),
         "--map-points must be an integer in [2, 1000000], got 1000001"),
        # 2^16 + 1 is prime: 4 x 16385 is the least bin count over 2^16
        (("mc-verify", "--n", "100", "--bins-omega", "4", "--bins-mu", "16385"),
         "need at most 65536 bins in all, got 4 x 16385"),
        (("mc-verify", "--n", "1000000001"),
         "n_samples must be an integer in [1, 1000000000], got 1000000001"),
    ],
    ids=["points", "map-points", "bins", "n"],
)
def test_size_flags_over_their_limit_exit_2_before_computing(capsys, monkeypatch, argv, message):
    def boom(*args, **kwargs):
        raise AssertionError("computed with an over-limit size flag")

    for target in ("cli.rho_rest", "cli.temperature_multipoles", "montecarlo.run_identity_check"):
        monkeypatch.setattr(f"relplanck.{target}", boom)
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_size_flags_at_their_limit_run(capsys):
    code, out, _ = run_cli(capsys, "anisotropy", "--temperature", "1", "--beta", "0.5",
                           "--lmax", "10000")
    assert code == 0
    assert len(out.splitlines()) == 1 + 10001


class TestParserLevel:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "no-such-command")[0] == 2

    def test_no_arguments(self, capsys):
        assert run_cli(capsys)[0] == 2

    @pytest.mark.parametrize("argv", [
        ["mc-verify", "--n", "1000", "--threads", "1"],
        ["energy-density", "--temperature", "1", "--method", "both"],
        ["spectrum", "--temperature", "1", "--frame", "moving", "--beta-vec", "0,0,0.5"],
        ["boost-mode", "--omega", "1", "--mu", "0", "--beta-vec", "0,0,0.5"],
        ["energy-density", "--temperature", "1", "--beta-vec", "0,0,0.5"],
        ["anisotropy", "--temperature", "1", "--beta-vec", "0,0,0.5"],
        ["mc-verify", "--n", "1000", "--beta-vec", "0,0,0.5"],
        ["anisotropy", "--temperature", "1", "--units", "si"],
    ], ids=["mc-verify-threads", "energy-density-method", "spectrum-beta-vec",
            "boost-mode-beta-vec", "energy-density-beta-vec", "anisotropy-beta-vec",
            "mc-verify-beta-vec", "anisotropy-units"])
    def test_deleted_options_are_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "unrecognized arguments" in err


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "relplanck", "selftest", "--quick"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("PASS")


def test_help_exits_cleanly():
    proc = subprocess.run(
        [sys.executable, "-m", "relplanck", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "usage:" in proc.stdout


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; importing scipy.special would
    # add about 0.3 s to the start-up of every command.  The tests take
    # references from scipy and mpmath, and neither may leak into the
    # library.  The run paths' quadrature rules are constants and their
    # threads plain ones, so the import builds no rule and loads no thread pool
    code = (
        "import json, sys\n"
        "import numpy.polynomial.legendre as legendre\n"
        "calls, leggauss = [], legendre.leggauss\n"
        "legendre.leggauss = lambda n: calls.append(n) or leggauss(n)\n"
        "import relplanck.cli\n"
        "def loaded(name):\n"
        "    return sorted(m for m in sys.modules if m == name or m.startswith(name + '.'))\n"
        "print(json.dumps({'scipy': loaded('scipy'), 'mpmath': loaded('mpmath'),\n"
        "                  'concurrent.futures': loaded('concurrent.futures'),\n"
        "                  'leggauss': calls}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "scipy": [], "mpmath": [], "concurrent.futures": [], "leggauss": [],
    }


def test_only_emit_writes_and_only_main_picks_the_exit_code():
    # the one-emitter rule: a subcommand returns its output and its
    # CheckResult records; it never writes to a stream or picks an exit code
    tree = ast.parse(Path(cli.__file__).read_text())
    banned = {"sys", "stdout", "stderr", "print", "code", "exit", "SystemExit"}
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    assert len(commands) == 6
    for node in commands:
        names = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
            elif isinstance(n, (ast.keyword, ast.arg)):
                names.add(n.arg)
        assert not names & banned, (node.name, sorted(names & banned))
    (output,) = [node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "_Output"]
    fields = [n.target.id for n in output.body if isinstance(n, ast.AnnAssign)]
    assert "code" not in fields and "checks" in fields


# z = hbar omega / k_B T from 700 to 755 at T 1e5 (natural units): e^{-z} is
# subnormal past 708 and 0 past 745.2, but every thermal value is a normal double
WIEN_TAIL = ["spectrum", "--temperature", "100000", "--component", "thermal",
             "--omega-min", "7e7", "--omega-max", "7.55e7", "--points", "8"]


def _warnings(err):
    return [line.removeprefix("# warning: ") for line in err.splitlines()
            if line.startswith("# warning: ")]


class TestThermalBoundWarning:
    def test_wien_tail_rows_are_normal_and_unwarned_in_csv_and_json(self, capsys):
        code, out, err = run_cli(capsys, *WIEN_TAIL)
        assert code == 0
        assert _warnings(err) == []
        omega = np.linspace(7e7, 7.55e7, 8)
        rows = np.array([[float(x) for x in line.split(",")] for line in out.splitlines()[1:]])
        assert rows[:, 0].tolist() == omega.tolist()
        assert rows[:, 1].tolist() == rho_rest(omega, 1e5, Component.THERMAL).tolist()
        assert np.all(rows[:, 1] >= np.finfo(float).tiny)
        code, out, err = run_cli(capsys, *WIEN_TAIL, "--format", "json")
        assert code == 0
        assert json.loads(out)["warnings"] == []

    @pytest.mark.parametrize("frame, grid", [
        ([], (707.0, 709.0)),
        # D = gamma (1 + beta mu') = 2, so z = 2 omega'
        (["--frame", "moving", "--beta", "0.6", "--mu", "1"], (353.0, 355.0)),
        # u' is bounded by its hottest direction, D = gamma (1 - beta) = 0.5
        (["--frame", "moving", "--beta", "0.6"], (1414.0, 1418.0)),
    ], ids=["rest", "moving-mu", "moving-u"])
    def test_no_warning_past_z_708_where_the_value_is_normal(self, capsys, frame, grid):
        # at T 1e5 the value at z 709 is a normal double; its bound holds
        lo, hi = (1e5 * g for g in grid)
        code, out, err = run_cli(capsys, "spectrum", "--temperature", "100000", "--component",
                                 "thermal", *frame, "--omega-min", repr(lo), "--omega-max",
                                 repr(hi), "--points", "2")
        assert code == 0
        assert _warnings(err) == []
        assert float(out.splitlines()[-1].split(",")[1]) >= np.finfo(float).tiny

    def test_the_warning_names_the_subnormal_rows_once_in_csv_and_json(self, capsys):
        # the thermal value at omega 1e-160 is subnormal, and so are those at
        # T 1 from omega 723.3 on: no double carries them to their bound
        argv = ["spectrum", "--temperature", "1", "--component", "thermal", "--grid", "log",
                "--omega-min", "1e-160", "--omega-max", "1", "--points", "2"]
        code, _, err = run_cli(capsys, *argv)
        assert code == 0
        (warning,) = _warnings(err)
        assert warning.startswith("1 of 2 rows ") and warning.endswith(f" {1e-160:.17g}")
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["warnings"] == [warning]
        code, _, err = run_cli(capsys, "spectrum", "--temperature", "1", "--component",
                               "thermal", "--omega-min", "700", "--omega-max", "750",
                               "--points", "6")
        assert code == 0
        (warning,) = _warnings(err)
        assert warning.startswith("3 of 6 rows ") and warning.endswith(": omega 730 to 750")

    @pytest.mark.parametrize("argv", [
        # the benchmark's spectra reach z = 12 gamma (1 + beta) < 540
        ["--component", "thermal", "--omega-max", "540"],
        ["--component", "thermal", "--frame", "moving", "--beta", "0.999", "--mu", "1",
         "--omega-max", "12"],
        # the zero-point part dominates the total; at T = 0 the thermal part is exactly 0
        ["--omega-min", "700", "--omega-max", "750", "--points", "6"],
        ["--component", "thermal", "--omega-min", "700", "--omega-max", "750", "--points", "6",
         "--temperature", "0"],
    ])
    def test_no_warning_inside_the_bound(self, capsys, argv):
        if "--temperature" not in argv:
            argv = argv + ["--temperature", "1"]
        code, _, err = run_cli(capsys, "spectrum", *argv)
        assert code == 0
        assert _warnings(err) == []
