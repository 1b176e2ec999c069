"""The commands at the edges of the temperature domain: a finite answer or a clean exit.

energy-density, mc-verify, boost-mode, spectrum and anisotropy run
in-process at temperatures where W = pi^2 T^4 / 15 underflows (1e-320,
1e-81), is near the largest double (1e77) or overflows (1e200), at the
largest temperature the CLI accepts (1.7e308), and at boosts from rest to
1 - 1e-9.  boost-mode takes no temperature; it boosts a mode of frequency T,
the thermal frequency scale in natural units.  spectrum runs in the rest
frame, in the moving frame at mu' = -0.5, and integrated over directions;
anisotropy with a three-point T_eff map.  Each run must exit 0 with only
finite numbers in its output, exit 2 with an ``error:`` line, or, for
mc-verify alone, exit 1 with its chi2 verdict on stderr.  A RuntimeWarning
is an error, and no exception may escape main.
"""

import json
import math
import warnings

import pytest

from relplanck.cli import main

TEMPERATURES = ["1e-320", "1e-81", "1e77", "1e200", "1.7e308"]
BETAS = ["0", "0.6", "0.999999999"]
COMMANDS = [
    "energy-density", "mc-verify", "boost-mode", "spectrum-moving-mu", "spectrum-moving",
    "anisotropy",
]


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


def _numbers(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from _numbers(value)
    elif isinstance(node, list):
        for value in node:
            yield from _numbers(value)
    elif isinstance(node, float):
        yield node


def _assert_finite_or_clean_exit(capsys, command, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv + ["--format", "json"])
    out, err = capsys.readouterr()
    if code == 0:
        env = json.loads(out)
        numbers = list(_numbers(env["results"]))
        assert numbers and all(math.isfinite(x) for x in numbers)
    elif code == 2:
        assert out == ""
        assert any(line.startswith("error: ") for line in err.splitlines())
    else:
        assert (command, code) == ("mc-verify", 1)
        assert err.startswith("chi2/dof = ")
        assert json.loads(out)["results"]["passed"] is False


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("t", TEMPERATURES)
@pytest.mark.parametrize("command", COMMANDS)
def test_finite_answer_or_clean_exit(capsys, command, t, beta):
    _assert_finite_or_clean_exit(capsys, command, _argv(command, t) + ["--beta", beta])


@pytest.mark.parametrize("t", TEMPERATURES)
def test_rest_spectrum_finite_answer_or_clean_exit(capsys, t):
    # the rest frame takes no boost
    _assert_finite_or_clean_exit(capsys, "spectrum", ["spectrum", "--temperature", t])


def test_spectrum_at_the_largest_temperature_is_finite(capsys):
    # rho = 2 pref T omega^2 in the Rayleigh-Jeans limit: 3.4e307 and 1.4e308
    # at omega 5 and 10, which neither omega^3 nor the occupation can carry
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["spectrum", "--temperature", "1.7e308", "--points", "3",
                     "--format", "json"]) == 0
    rho = json.loads(capsys.readouterr().out)["results"]["rho"]
    pref = 1.0 / (8.0 * math.pi**3)
    assert rho[0] == 0.0
    assert rho[1:] == pytest.approx([2.0 * pref * 1.7e308 * w * w for w in (5.0, 10.0)], rel=1e-15)


@pytest.mark.parametrize("argv", [
    ["--temperature", "1.7e308"],
    ["--temperature", "1e-320", "--units", "si"],
], ids=["overflow", "underflow"])
def test_mc_verify_names_the_temperature_when_its_default_grid_is_not_finite(capsys, argv):
    # the default grid edge 15 gamma (1 + |beta|) k_B T / hbar overflows or
    # underflows: the error names the flag the user passed and the one to add
    assert main(["mc-verify", "--n", "2000", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: the default --omega-prime-max")
    assert "--temperature" in err
    assert "omega_prime_max must be finite" not in err
