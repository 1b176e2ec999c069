"""The W commands at the edges of the temperature domain: a finite answer or a clean exit.

energy-density, mc-verify and boost-mode run in-process at temperatures
where W = pi^2 T^4 / 15 underflows (1e-320, 1e-81), is near the largest
double (1e77) or overflows (1e200), and at boosts from rest to 1 - 1e-9.
boost-mode takes no temperature; it boosts a mode of frequency T, the
thermal frequency scale in natural units.  Each run must exit 0 with only
finite numbers in its output, exit 2 with an ``error:`` line, or, for
mc-verify alone, exit 1 with its chi2 verdict on stderr.  A RuntimeWarning
is an error, and no exception may escape main.
"""

import json
import math
import warnings

import pytest

from relplanck.cli import main

TEMPERATURES = ["1e-320", "1e-81", "1e77", "1e200"]
BETAS = ["0", "0.6", "0.999999999"]


def _argv(command, t, beta):
    if command == "energy-density":
        return ["energy-density", "--temperature", t]
    if command == "mc-verify":
        return ["mc-verify", "--temperature", t, "--n", "2000"]
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


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("t", TEMPERATURES)
@pytest.mark.parametrize("command", ["energy-density", "mc-verify", "boost-mode"])
def test_finite_answer_or_clean_exit(capsys, command, t, beta):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(_argv(command, t, beta) + ["--beta", beta, "--format", "json"])
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
