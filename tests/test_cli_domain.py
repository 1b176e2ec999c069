"""The accepted input domain (README, "Domain"): finite answers at its corners, one error outside.

At the corners, T 0, 1e-3 and 1e5 in both unit systems, beta 0 and
1 - 1e-9 along +z and -z, in the library as on the command line,
mu' = +-1, and omega 0, 1e-300 and 1e30, every command exits 0 with only
finite numbers in its JSON output, and every public entry point returns
finite values.  Two exceptions are by design: energy-density and
mc-verify compare thermal densities and exit 2 at T = 0, and mc-verify
may exit 1 with its `FAIL  mc-identity` verdict on stderr, the gate's
known defect near beta = 1 (ROADMAP item 1).
Just outside, each input raises one ValueError that names the input and
its range, and the CLI exits 2 with one ``error:`` line and nothing on
stdout.  A RuntimeWarning is an error throughout, and README's domain
numbers are those of core.
"""

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    BETA_ALONG_Z, BETA_FLOOR, BETA_RANGE, L_MAX_RANGE, MU_RANGE, N_MODES_RANGE, N_SAMPLES_RANGE, OMEGA_RANGE,
    SEED_RANGE, T_RANGE, THERMAL_T_RANGE, UNITS_RANGE, NoDraws,
)
from relplanck import (
    NATURAL,
    Component,
    McConfig,
    PhotonMode,
    UnitSystem,
    aberrate_mu,
    boost_mode,
    boost_mu,
    core,
    direction_with_cosine,
    doppler_factor,
    effective_temperature_mu,
    energy_density_moving_correlation,
    energy_density_moving_spectral,
    inverse_doppler_factor,
    make_boost,
    rho_moving_mu,
    rho_moving_pullback_mu,
    rho_rest,
    run_identity_check,
    sample_rest_modes,
    selfcheck,
    temperature_multipoles,
    temperature_value,
    thermal_energy_density_closed_form,
    u_moving,
)
from relplanck.cli import main

# temperatures outside the domain that earlier versions ran on: W underflows
# (1e-320, 1e-81), is near the largest double (1e77) or overflows (1e200),
# and the largest the flag parses (1.7e308).  boost-mode boosts a mode of
# that frequency instead, which lies inside the domain up to 1e30
TEMPERATURES = ["1e-320", "1e-81", "1e77", "1e200", "1.7e308"]
BETAS = ["0", "0.6", "0.999999999"]
COMMANDS = [
    "energy-density", "mc-verify", "boost-mode", "spectrum-moving-mu", "spectrum-moving",
    "anisotropy",
]

CORNER_TEMPERATURES = ["0", "1e-3", "1e5"]
UNITS = {"natural": NATURAL, "si": UnitSystem.si()}
BETA_MAX = 1.0 - 1e-9
# a boost is a signed speed along z, in the library as on the command line
CORNER_BETAS = {"rest": 0.0, "z": BETA_MAX, "minus-z": -BETA_MAX}
# both grids end at 1e30; the linear one starts at 0, the log one at 1e-300
GRIDS = {
    "linear": ["--omega-min", "0", "--omega-max", "1e30", "--points", "3"],
    "log": ["--omega-min", "1e-300", "--omega-max", "1e30", "--points", "3", "--grid", "log"],
}
# the moving-frame spectrum integrated over directions, and at mu' = -1 and 1
SPECTRA = {
    f"spectrum-moving{name}-{grid}": [*mu, *GRIDS[grid]]
    for name, mu in (("", []), ("-mu-1", ["--mu", "-1"]), ("-mu+1", ["--mu", "1"]))
    for grid in GRIDS
}
CORNER_COMMANDS = ["energy-density", "mc-verify", "anisotropy", *SPECTRA]


def _argv(command, t):
    if command == "energy-density":
        return ["energy-density", "--temperature", t]
    if command == "mc-verify":
        return ["mc-verify", "--temperature", t, "--n", "2000"]
    if command == "spectrum-moving-mu":
        return ["spectrum", "--temperature", t, "--frame", "moving", "--mu", "-0.5"]
    if command == "spectrum-moving":
        return ["spectrum", "--temperature", t, "--frame", "moving"]
    if command == "anisotropy":
        return ["anisotropy", "--temperature", t, "--map-points", "3"]
    return ["boost-mode", "--omega", t, "--mu", "-0.5"]


def _corner_argv(command, t, units, boost):
    common = ["--temperature", t, "--beta", repr(CORNER_BETAS[boost])]
    if command == "energy-density":
        return ["energy-density", *common, "--units", units]
    if command == "mc-verify":
        return ["mc-verify", *common, "--units", units, "--n", "2000"]
    if command == "anisotropy":
        # T_eff is linear in T and takes no units; mu' = -1, 0 and 1
        return ["anisotropy", *common, "--map-points", "3"]
    return ["spectrum", "--frame", "moving", *common, "--units", units, *SPECTRA[command]]


def _numbers(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from _numbers(value)
    elif isinstance(node, list):
        for value in node:
            yield from _numbers(value)
    elif isinstance(node, float):
        yield node


def _run(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _assert_finite(capsys, argv):
    code, out, err = _run(capsys, argv + ["--format", "json"])
    if code == 1:
        assert argv[0] == "mc-verify"
        assert err.startswith("FAIL  mc-identity ") and err.endswith("1 of 1 checks failed\n")
        assert json.loads(out)["results"]["passed"] is False
    else:
        assert code == 0, err
    numbers = list(_numbers(json.loads(out)["results"]))
    assert numbers and all(math.isfinite(x) for x in numbers)


def _assert_rejected(capsys, argv, message) -> str:
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    return err


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("t", TEMPERATURES)
@pytest.mark.parametrize("command", COMMANDS)
def test_finite_answer_or_clean_exit(capsys, command, t, beta):
    argv = _argv(command, t) + ["--beta", beta]
    if command == "boost-mode" and float(t) <= 1e30:
        _assert_finite(capsys, argv)
    else:
        message = OMEGA_RANGE if command == "boost-mode" else T_RANGE
        _assert_rejected(capsys, argv + ["--format", "json"], message)


@pytest.mark.parametrize("t", TEMPERATURES)
def test_rest_spectrum_finite_answer_or_clean_exit(capsys, t):
    # the rest frame takes no boost
    _assert_rejected(capsys, ["spectrum", "--temperature", t], T_RANGE)


@pytest.mark.parametrize("argv", [
    ["--temperature", "1.7e308"],
    ["--temperature", "1e-320", "--units", "si"],
], ids=["overflow", "underflow"])
def test_mc_verify_names_the_temperature_when_its_default_grid_is_not_finite(capsys, argv):
    # the default grid edge 15 gamma (1 + |beta|) k_B T / hbar would overflow
    # or underflow: the error names the temperature the user passed and its
    # range, not the grid edge derived from it
    err = _assert_rejected(capsys, ["mc-verify", "--n", "2000", *argv], T_RANGE)
    assert "omega_prime_max" not in err


# anisotropy takes no --units, so it runs once per temperature and boost
CORNER_RUNS = [
    pytest.param(command, t, units, id="-".join(filter(None, (command, t, units))))
    for command in CORNER_COMMANDS for t in CORNER_TEMPERATURES
    for units in ([None] if command == "anisotropy" else UNITS)
]


@pytest.mark.parametrize("boost", CORNER_BETAS)
@pytest.mark.parametrize(("command", "t", "units"), CORNER_RUNS)
def test_commands_are_finite_at_the_corners(capsys, command, t, units, boost):
    argv = _corner_argv(command, t, units, boost)
    if t == "0" and command in ("energy-density", "mc-verify"):
        _assert_rejected(capsys, argv, THERMAL_T_RANGE)  # the library's thermal T > 0 rule
    else:
        _assert_finite(capsys, argv)


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("units", UNITS)
@pytest.mark.parametrize("t", CORNER_TEMPERATURES)
def test_rest_spectrum_is_finite_at_the_corners(capsys, t, units, grid):
    _assert_finite(capsys, ["spectrum", "--temperature", t, "--units", units, *GRIDS[grid]])


@pytest.mark.parametrize("boost", CORNER_BETAS)
@pytest.mark.parametrize("mu", ["-1", "1"])
@pytest.mark.parametrize("omega", ["0", "1e-300", "1e30"])
def test_boost_mode_is_finite_at_the_corners(capsys, omega, mu, boost):
    _assert_finite(capsys, ["boost-mode", "--omega", omega, "--mu", mu,
                            "--beta", repr(CORNER_BETAS[boost])])


def test_the_corner_boosts_are_at_the_bound():
    assert [make_boost([0.0, 0.0, b]).beta_mag for b in CORNER_BETAS.values()] == [
        0.0, BETA_MAX, BETA_MAX]


@pytest.mark.parametrize("boost", CORNER_BETAS)
@pytest.mark.parametrize("units", UNITS)
@pytest.mark.parametrize("t", [0.0, 1e-3, 1e5])
def test_library_is_finite_at_the_corners(t, units, boost):
    u, v = UNITS[units], make_boost([0.0, 0.0, CORNER_BETAS[boost]])
    omega = np.array([0.0, 1e-300, 1e30])
    mu = np.array([-1.0, 1.0])[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = [
            effective_temperature_mu(mu, v, t),
            temperature_multipoles(v, t, 16).a,
            selfcheck._projected_multipoles(v, t, 16, 64),
            *boost_mu(omega, mu, v),
            [boost_mode(PhotonMode(w, direction_with_cosine(m, v)), v).mode_prime.omega
             for w in omega for m in (-1.0, 1.0)],
        ]
        for comp in Component:
            values += [
                rho_rest(omega, t, comp, u),
                rho_moving_mu(omega, mu, v, t, comp, u),
                rho_moving_pullback_mu(omega, mu, v, t, comp, u),
                u_moving(omega, v, t, comp, u),
            ]
        if t > 0.0:
            values.append(thermal_energy_density_closed_form(t, u))
            for route in (energy_density_moving_spectral, energy_density_moving_correlation):
                rep = route(t, v, u)
                values += [rep.W_rest, rep.W_moving, rep.ratio]
    for value in values:
        assert np.all(np.isfinite(value))


@pytest.mark.parametrize("mu", [-1.0 - 1e-13, 1.0 + 1e-13])
def test_cosines_within_the_slack_are_accepted(mu):
    # unit vectors give cosines a few ulps past +-1; at the fastest boost every
    # public cosine entry still returns finite values and positive Doppler factors
    v = make_boost([0.0, 0.0, CORNER_BETAS["z"]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        dopplers = [doppler_factor(mu, v), inverse_doppler_factor(mu, v),
                    1.0 / boost_mu(1.0, mu, v)[2]]
        values = [
            *dopplers, aberrate_mu(mu, v), *boost_mu(1.0, mu, v), direction_with_cosine(mu, v),
            effective_temperature_mu(mu, v, 1.0), rho_moving_mu(1.0, mu, v, 1.0),
            rho_moving_pullback_mu(1.0, mu, v, 1.0),
        ]
    assert all(np.all(np.isfinite(value)) for value in values)
    assert all(d > 0.0 for d in dopplers)


V06 = make_boost([0.0, 0.0, 0.6])
SI = UnitSystem.si()

# each call raises one ValueError naming its input's range.  The first block
# lies just outside each bound; the rest are inputs that earlier versions
# handled behind interior overflow guards, which the edge check replaces
REJECTED = {
    "temperature_value-T-5e-4": (lambda: temperature_value(5e-4), T_RANGE),
    "temperature_value-T-2e5": (lambda: temperature_value(2e5), T_RANGE),
    "temperature_value-T-nan": (lambda: temperature_value(math.nan), T_RANGE),
    "make_boost-beta-1-5e-10": (lambda: make_boost([0.0, 0.0, 1.0 - 5e-10]), BETA_RANGE),
    # a subnormal |beta|, which earlier versions read as rest
    "make_boost-beta-1e-310": (lambda: make_boost([0.0, 0.0, 1e-310]), BETA_FLOOR),
    "make_boost-beta-minus-1e-320": (lambda: make_boost([0.0, 0.0, -1e-320]), BETA_FLOOR),
    "make_boost-beta-off-axis": (lambda: make_boost([0.3, 0.0, 0.5]), BETA_ALONG_Z),
    "rho_rest-omega-2e30": (lambda: rho_rest(2e30, 1.0), OMEGA_RANGE),
    "boost_mode-omega-2e30": (lambda: boost_mode(PhotonMode(2e30, [0.0, 0.0, 1.0]), V06),
                              OMEGA_RANGE),
    "McConfig-omega_prime_max-2e30": (lambda: McConfig(1000, 1, 2e30), OMEGA_RANGE),
    "UnitSystem-custom": (lambda: UnitSystem(1.0, 2.0, 1.0), UNITS_RANGE),
    "UnitSystem-hbar-1e-300": (lambda: UnitSystem(1e-300, 1.0, 1.0), UNITS_RANGE),
    # spectrum._density: omega^2 overflows, the density overflows, or k_B T / hbar does
    "rho_rest-omega-1e160-natural": (
        lambda: rho_rest(1e160, 1.0, Component.THERMAL), OMEGA_RANGE),
    "rho_rest-omega-1e160-si": (
        lambda: rho_rest(1e160, 1.0, Component.THERMAL, SI), OMEGA_RANGE),
    "rho_moving_mu-omega_prime-1e160": (
        lambda: rho_moving_mu(1e160, 0.2, V06, 1.0), OMEGA_RANGE),
    "u_moving-omega_prime-1e160": (
        lambda: u_moving(1e160, V06, 1.0, Component.THERMAL), OMEGA_RANGE),
    "u_moving-T-1e200": (lambda: u_moving(1.0, make_boost([0.0, 0.0, BETA_MAX]), 1e200),
                         T_RANGE),
    "rho_rest-T-1.7e308": (lambda: rho_rest(5.0, 1.7e308), T_RANGE),
    "rho_moving_mu-T-1.7e308": (lambda: rho_moving_mu(1.0, -0.5, V06, 1.7e308), T_RANGE),
    # the pull-back's overflowing D omega' and pref (D omega')^3
    "rho_moving_pullback_mu-omega_prime-1.7e308": (
        lambda: rho_moving_pullback_mu(1.7e308, 0.5, V06, 1.0, Component.THERMAL), OMEGA_RANGE),
    "rho_moving_mu-omega_prime-2.5e103": (
        lambda: rho_moving_mu(2.5e103, 1.0, V06, 1.0), OMEGA_RANGE),
    "rho_moving_pullback_mu-omega_prime-2.5e103": (
        lambda: rho_moving_pullback_mu(2.5e103, 1.0, V06, 1.0), OMEGA_RANGE),
    "rho_moving_pullback_mu-omega_prime-4e103": (
        lambda: rho_moving_pullback_mu(4e103, -1.0, V06, 1.0, Component.ZERO_POINT),
        OMEGA_RANGE),
    # T_eff, the multipoles' a_0 and the boosted frequency overflowing
    "effective_temperature_mu-T-1.7e308": (
        lambda: effective_temperature_mu(-1.0, V06, 1.7e308), T_RANGE),
    "temperature_multipoles-T-1.7e308": (
        lambda: temperature_multipoles(V06, 1.7e308, 4), T_RANGE),
    "boost_mode-omega-1.7e308": (
        lambda: boost_mode(PhotonMode(1.7e308, [0.0, 0.0, -1.0]), V06), OMEGA_RANGE),
    "boost_mu-omega-1e308": (lambda: boost_mu(1e308, -1.0, V06), OMEGA_RANGE),
    # the Monte Carlo W' bound and the bin centres near the largest double
    "run_identity_check-T-1e77": (
        lambda: run_identity_check(1e77, V06, McConfig(1000, 1, 1.0)), T_RANGE),
    "McConfig-omega_prime_max-1e300": (lambda: McConfig(20_000, 1, 1e300), OMEGA_RANGE),
    "McConfig-omega_prime_max-1.7e308": (lambda: McConfig(20_000, 1, 1.7e308), OMEGA_RANGE),
    # cosines just outside the slack and NaN, which earlier versions turned into
    # mu' = 9 and a negative Doppler factor, or passed through
    **{
        f"{name}-{label}-{mu!r}": (lambda call=call, mu=mu: call(mu), f"{label} {MU_RANGE}")
        for name, label, call in (
            ("boost_mu", "mu", lambda mu: boost_mu(1.0, mu, V06)),
            ("doppler_factor", "mu", lambda mu: doppler_factor(mu, V06)),
            ("inverse_doppler_factor", "mu_prime", lambda mu: inverse_doppler_factor(mu, V06)),
            ("aberrate_mu", "mu", lambda mu: aberrate_mu(mu, V06)),
        )
        for mu in (1.5, -1.0 - 1e-11, math.nan)
    },
    # the cap that only the CLI held, and the float and bool that raised TypeError or ran
    **{
        f"temperature_multipoles-l_max-{l_max!r}": (
            lambda l_max=l_max: temperature_multipoles(V06, 1.0, l_max), L_MAX_RANGE)
        for l_max in (10001, 2.5, True)
    },
    # counts that ran as one draw, raised TypeError, or ran on a bool thread count
    **{
        f"McConfig-n_samples-{n!r}": (lambda n=n: McConfig(n, 1, 1.0), N_SAMPLES_RANGE)
        for n in (True, 2.5, 0, 10**9 + 1)
    },
    **{
        f"McConfig-{field}-{n!r}": (lambda field=field, n=n: McConfig(1000, 1, 1.0, **{field: n}),
                                    f"{field} must be an integer >= 4")
        for field in ("n_omega_bins", "n_mu_bins") for n in (True, 4.5, 3)
    },
    **{
        f"sample_rest_modes-n-{n!r}": (lambda n=n: sample_rest_modes(1.0, n, NoDraws()),
                                       N_MODES_RANGE)
        for n in (True, 2.5, 0, 10**8 + 1)
    },
    "sample_rest_modes-T-0": (lambda: sample_rest_modes(0.0, 10, NoDraws()), THERMAL_T_RANGE),
    **{
        f"run_identity_check-n_threads-{n!r}": (
            lambda n=n: run_identity_check(1.0, V06, McConfig(1000, 1, 1.0), n_threads=n),
            "n_threads must be an integer >= 1")
        for n in (True, 2.5, 0)
    },
}


@pytest.mark.parametrize("case", REJECTED)
def test_out_of_domain_input_is_rejected(case):
    call, message = REJECTED[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


REJECTED_FLAGS = {
    "spectrum-T-5e-4": (["spectrum", "--temperature", "5e-4"], T_RANGE),
    "anisotropy-T-2e5": (["anisotropy", "--temperature", "2e5"], T_RANGE),
    "mc-verify-T-2e5": (["mc-verify", "--temperature", "2e5", "--n", "2000"], T_RANGE),
    "anisotropy-beta-1e-310": (["anisotropy", "--temperature", "1", "--beta", "1e-310"],
                               BETA_FLOOR),
    "energy-density-beta-1-5e-10": (
        ["energy-density", "--temperature", "1", "--beta", "0.9999999995"], BETA_RANGE),
    "spectrum-beta-minus-1-5e-10": (
        ["spectrum", "--temperature", "1", "--frame", "moving", "--beta", "-0.9999999995"],
        BETA_RANGE),
    "spectrum-omega-2e30": (["spectrum", "--temperature", "1", "--omega-max", "2e30"],
                            OMEGA_RANGE),
    "boost-mode-omega-2e30": (["boost-mode", "--omega", "2e30", "--mu", "0"], OMEGA_RANGE),
    "mc-verify-omega-prime-max-2e30": (
        ["mc-verify", "--n", "2000", "--omega-prime-max", "2e30"], OMEGA_RANGE),
    # inputs the library alone rejects, with its own message
    "boost-mode-omega-negative": (["boost-mode", "--omega", "-1", "--mu", "0"],
                                  "omega must be finite and >= 0"),
    "boost-mode-mu-2": (["boost-mode", "--omega", "1", "--mu", "2"], f"cosine {MU_RANGE}"),
    "boost-mode-mu-nan": (["boost-mode", "--omega", "1", "--mu", "nan"], f"cosine {MU_RANGE}"),
    "spectrum-mu-1.5": (
        ["spectrum", "--temperature", "1", "--frame", "moving", "--beta", "0.5", "--mu", "1.5"],
        f"mu_prime {MU_RANGE}"),
    "anisotropy-lmax-10001": (["anisotropy", "--temperature", "1", "--lmax", "10001"],
                              f"{L_MAX_RANGE}, got 10001"),
    "energy-density-T-0": (["energy-density", "--temperature", "0"], "T > 0 required"),
    "mc-verify-T-0": (["mc-verify", "--temperature", "0"], THERMAL_T_RANGE),
    "mc-verify-n-0": (["mc-verify", "--n", "0"], f"{N_SAMPLES_RANGE}, got 0"),
    "mc-verify-bins-omega-3": (["mc-verify", "--bins-omega", "3"],
                               "n_omega_bins must be an integer >= 4, got 3"),
    "mc-verify-bins-mu-3": (["mc-verify", "--bins-mu", "3"],
                            "n_mu_bins must be an integer >= 4, got 3"),
    # the CLI's own bounds, in core's words
    "spectrum-points-0": (["spectrum", "--temperature", "1", "--points", "0"],
                          "--points must be an integer in [1, 1000000], got 0"),
    "anisotropy-map-points-1": (["anisotropy", "--temperature", "1", "--map-points", "1"],
                                "--map-points must be an integer in [2, 1000000], got 1"),
    # one omega rule, one text
    **{
        f"spectrum-{flag[2:]}-{value}": (
            ["spectrum", "--temperature", "1", "--omega-min", "0", flag, value],
            f"{flag} {OMEGA_RANGE}")
        for flag, value in (("--omega-min", "-1"), ("--omega-min", "nan"), ("--omega-max", "inf"),
                            ("--omega-max", "2e30"))
    },
}


@pytest.mark.parametrize("case", REJECTED_FLAGS)
def test_out_of_domain_flag_exits_2_naming_the_range(capsys, case):
    argv, message = REJECTED_FLAGS[case]
    _assert_rejected(capsys, argv, message)


def test_readme_states_the_domain_of_core():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Domain\n", 1)[1].split("\n## ", 1)[0]
    t_min, t_max = re.search(r"`(\S+) <= T <= (\S+)`", section).groups()
    beta = re.search(r"`\|beta\| <= 1 - (\S+)`", section).group(1)
    omega = re.search(r"`0 <= omega <= (\S+)`", section).group(1)
    slack = re.search(r"`-1 <= mu <= 1` up to a slack of `(\S+)`", section).group(1)
    l_max = re.search(r"`0 <= l_max <= (\S+)`", section).group(1)
    beta_floor = re.search(r"`\|beta\| >= 2\^(-\d+)`", section).group(1)
    n_samples = re.search(r"`1 <= n_samples <= 10\^(\d+)`", section).group(1)
    n_modes = re.search(r"`1 <= n <= 10\^(\d+)`", section).group(1)
    assert (float(t_min), float(t_max)) == (core._T_MIN, core._T_MAX)
    assert 1.0 - float(beta) == core._BETA_MAX
    assert float(omega) == core._OMEGA_MAX
    assert float(slack) == core._MU_SLACK
    assert int(l_max) == core._L_MAX_CAP
    assert 2.0 ** int(beta_floor) == core._BETA_MIN
    assert (10 ** int(n_samples), 10 ** int(n_modes)) == (core._N_SAMPLES_CAP, core._N_MODES_CAP)
    # the edge checks' messages quote the same numbers
    assert T_RANGE.endswith(f"[{t_min}, {t_max}]")
    assert BETA_RANGE.endswith(f"[0, 1 - {beta}]")
    assert OMEGA_RANGE.endswith(f"[0, {omega}]")
    assert L_MAX_RANGE.endswith(f"[0, {l_max}]")
    assert N_SAMPLES_RANGE.endswith(f"[1, {10 ** int(n_samples)}]")
    assert N_MODES_RANGE.endswith(f"[1, {10 ** int(n_modes)}]")
    assert BETA_FLOOR.endswith(f"2^{beta_floor}")


@pytest.mark.parametrize("command", ["selftest", "mc-verify"])
def test_negative_seed_exits_2_naming_its_range(capsys, command):
    err = _assert_rejected(capsys, [command, "--seed", "-1"], SEED_RANGE)
    assert err == f"error: {SEED_RANGE}, got -1\n"
