"""End-to-end command-line behavior: formats, exit codes, determinism."""

import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from relplanck import (
    Component,
    QuadratureConvergenceError,
    effective_temperature_mu,
    make_boost,
    rho_moving_mu,
    rho_rest,
    spectral_prefactor,
    temperature_multipoles,
)
from relplanck import cli
from relplanck.cli import main
from relplanck.montecarlo import _CHUNK, _usable_cpus
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
            assert res["u_prime"] == (4.0 * np.pi * spectral_prefactor() * omega**3).tolist()

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

    def test_single_route_json(self, capsys):
        code, out, _ = run_cli(capsys, "energy-density", "--temperature", "1",
                               "--beta", "0.3", "--method", "correlation",
                               "--format", "json")
        assert code == 0
        res = json.loads(out)["results"]
        assert len(res["methods"]) == 1
        assert res["methods"][0]["method"] == "correlation"
        assert res["expected_ratio"] == pytest.approx(1.1318681318681319, rel=1e-15)

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
        assert (spec["n_panels"], spec["n_evaluations"]) == (32, 704)
        assert 0.0 < spec["error_estimate"] <= 1e-10 * spec["w_moving"]
        assert (corr["error_estimate"], corr["n_panels"], corr["n_evaluations"]) == (None, None, None)

    def test_zero_temperature_rejected(self, capsys):
        assert run_cli(capsys, "energy-density", "--temperature", "0")[0] == 2

    def test_quadrature_failure_exits_1(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise QuadratureConvergenceError(1.0, 1.0, "injected")

        monkeypatch.setattr("relplanck.cli.energy_density_moving_spectral", boom)
        code, _, err = run_cli(capsys, "energy-density", "--temperature", "1",
                               "--beta", "0.6", "--method", "spectral")
        assert code == 1
        assert "numeric failure" in err


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
        # the recurrence's start index is its number of steps
        assert res["n_evaluations"] == lmax + 2 + math.ceil(19.0 / math.acosh(1.0 / beta))

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
        assert "chi2/dof" in err
        env = json.loads(out)
        assert env["results"]["passed"] is True
        assert 0.5 <= env["results"]["chi2_per_dof"] <= 1.5
        # default grid edge: 15 gamma (1 + beta) in thermal units
        assert env["inputs"]["omega_prime_max"] == 30.0
        code2, out2, _ = run_cli(capsys, *args)
        assert code2 == 0
        assert out2 == out

    def test_sparse_run_fails_with_null_chi2(self, capsys):
        code, out, _ = run_cli(capsys, "mc-verify", "--beta", "0.6", "--n", "100")
        assert code == 1
        env = json.loads(out)
        assert env["results"]["chi2_per_dof"] is None
        assert env["results"]["dof"] == 0
        assert env["warnings"]

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

    def test_json_reports_the_resolved_thread_count(self, capsys):
        def threads(*extra):
            _, out, _ = run_cli(capsys, "mc-verify", "--beta", "0.6", *extra)
            return json.loads(out)["inputs"]["threads"]

        # one chunk of draws runs on one thread; three on up to three
        assert threads("--n", "1000") == 1
        assert threads("--n", str(2 * _CHUNK + 1)) == min(_usable_cpus(), 3)
        assert threads("--n", "1000", "--threads", "5") == 5

    def test_validation(self, capsys):
        assert run_cli(capsys, "mc-verify", "--n", "0")[0] == 2
        assert run_cli(capsys, "mc-verify", "--threads", "0")[0] == 2
        assert run_cli(capsys, "mc-verify", "--temperature", "0")[0] == 2
        assert run_cli(capsys, "mc-verify", "--omega-prime-max", "-3")[0] == 2

    def test_non_finite_grid_exits_2_before_sampling(self, capsys):
        code, out, err = run_cli(capsys, "mc-verify", "--omega-prime-max", "inf")
        assert code == 2
        assert out == ""
        assert "omega_prime_max must be finite" in err

    def test_huge_finite_grid_fails_loudly(self, capsys):
        code, out, _ = run_cli(capsys, "mc-verify", "--beta", "0.6", "--n", "20000",
                               "--omega-prime-max", "1.7e308")
        assert code == 1
        env = json.loads(out)
        assert env["results"]["chi2_per_dof"] is None
        assert env["results"]["dof"] == 0
        assert any("all bins excluded" in w for w in env["warnings"])


class TestSelftestCommand:
    def test_quick_battery_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--quick")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 19
        assert all(line.startswith("PASS") for line in lines)

    def test_json_battery(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--quick", "--format", "json")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["all_passed"] is True
        assert len(res["checks"]) == 19
        assert {"name", "passed", "residual", "tolerance", "detail"} <= set(res["checks"][0])

    def test_injected_failure_exits_1(self, capsys, monkeypatch):
        fake = [CheckResult(name="x", passed=False, residual=1.0, tolerance=0.1,
                            detail="injected")]
        monkeypatch.setattr("relplanck.cli.run_selfcheck", lambda **k: fake)
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
def test_envelope_json_equals_the_deep_copied_form(capsys, monkeypatch, argv):
    # to_json serializes the fields as they are; the bytes must be those of
    # dataclasses.asdict, which deep-copies every nested container first
    emitted = []

    class Recording(cli.OutputEnvelope):
        def to_json(self):
            emitted.append(self)
            return super().to_json()

    monkeypatch.setattr(cli, "OutputEnvelope", Recording)
    main(list(argv))
    out = capsys.readouterr().out
    env, = emitted
    assert out == json.dumps(dataclasses.asdict(env), sort_keys=True, indent=2) + "\n"


class TestParserLevel:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "no-such-command")[0] == 2

    def test_no_arguments(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_conflicting_boost_flags(self, capsys):
        code, _, _ = run_cli(capsys, "energy-density", "--temperature", "1",
                             "--beta", "0.5", "--beta-vec", "0,0,0.5")
        assert code == 2

    def test_beta_vec_parsing(self, capsys):
        assert run_cli(capsys, "energy-density", "--temperature", "1",
                       "--beta-vec", "0.1,0.2")[0] == 2
        assert run_cli(capsys, "energy-density", "--temperature", "1",
                       "--beta-vec", "a,b,c")[0] == 2


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
    # add about 0.3 s to the start-up of every command.  Quadrature rules are
    # built on first use and the thread pool's module is loaded only by a
    # threaded run, so the import builds no rule and loads no thread pool
    code = (
        "import json, sys\n"
        "import numpy.polynomial.legendre as legendre\n"
        "calls, leggauss = [], legendre.leggauss\n"
        "legendre.leggauss = lambda n: calls.append(n) or leggauss(n)\n"
        "import relplanck.cli\n"
        "def loaded(name):\n"
        "    return sorted(m for m in sys.modules if m == name or m.startswith(name + '.'))\n"
        "print(json.dumps({'scipy': loaded('scipy'),\n"
        "                  'concurrent.futures': loaded('concurrent.futures'),\n"
        "                  'leggauss': calls}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"scipy": [], "concurrent.futures": [], "leggauss": []}
