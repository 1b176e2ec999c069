"""The public names and CLI options, pinned so that adding or dropping one is a visible change."""

import argparse
import dataclasses
import inspect
import json
import math
import re
import subprocess
import sys
import types

import numpy as np
import pytest

import relplanck
import relplanck.cli
from helpers import NoDraws
from relplanck import core
from relplanck.core import _ERROR_BOUNDS

PUBLIC_NAMES = [
    "BoostVelocity", "CheckResult", "Component", "EnergyDensityReport",
    "McConfig", "McReport", "ModeTransformResult",
    "MultipoleCoefficients", "NATURAL", "PLANCK_ENERGY_MEAN_X", "PLANCK_ENERGY_MEDIAN_X",
    "PhotonMode", "QuadratureResult", "UnitSystem",
    "aberrate_mu", "boost_mode", "boost_mu",
    "direction_with_cosine", "doppler_factor", "effective_temperature_mu",
    "energy_density_moving_correlation", "energy_density_moving_spectral",
    "expected_energy_ratio",
    "integrate_semi_infinite", "inverse_doppler_factor", "make_boost",
    "rho_moving_mu", "rho_moving_pullback_mu", "rho_rest",
    "run_identity_check", "run_selfcheck", "sample_rest_modes", "spectral_prefactor",
    "temperature_multipoles", "temperature_value", "thermal_energy_density_closed_form",
    "u_moving",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name in dir(relplanck)
        if not name.startswith("_") and not isinstance(getattr(relplanck, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES
    assert len(names) == 37


def test_star_import_binds_the_public_names_and_no_submodule():
    namespace = {}
    exec("from relplanck import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
    assert sorted(relplanck.__all__) == PUBLIC_NAMES


def _numbers(entry) -> list:
    """Every number in a bound table entry, through its dicts and tuples."""
    if isinstance(entry, dict):
        entry = tuple(entry.values())
    if isinstance(entry, tuple):
        return [x for part in entry for x in _numbers(part)]
    return [entry]


@pytest.mark.parametrize("name", sorted(_ERROR_BOUNDS))
def test_each_stated_bound_belongs_to_a_public_function_that_cites_it(name):
    # an entry cannot outlive its function or drift from its docstring
    assert name in PUBLIC_NAMES and callable(getattr(relplanck, name))
    assert f'_ERROR_BOUNDS["{name}"]' in getattr(relplanck, name).__doc__
    numbers = _numbers(_ERROR_BOUNDS[name])
    assert numbers and all(math.isfinite(x) and x > 0.0 for x in numbers)


# a valid value for every other required parameter of a cosine or l_max entry
VALID_ARGUMENTS = {"omega": 1.0, "omega_prime": 1.0, "v": relplanck.make_boost([0.0, 0.0, 0.6]),
                   "T": 1.0}
CHECKED = {"mu": math.nan, "mu_prime": math.nan, "l_max": 10001}


def _checked_entries() -> dict:
    """Each public callable with a parameter named mu, mu_prime or l_max, by name."""
    entries = {}
    for name in relplanck.__all__:
        obj = getattr(relplanck, name)
        # a class here is a record: MultipoleCoefficients carries l_max as an output
        if callable(obj) and not isinstance(obj, type):
            params = inspect.signature(obj).parameters
            if CHECKED.keys() & params:
                entries[name] = (obj, params)
    return entries


def _core_message(check, value) -> str:
    with pytest.raises(ValueError) as err:
        check(value)
    return str(err.value)


def test_the_cosine_and_l_max_entries_are_pinned():
    assert sorted(_checked_entries()) == [
        "aberrate_mu", "boost_mu", "direction_with_cosine", "doppler_factor",
        "effective_temperature_mu", "inverse_doppler_factor", "rho_moving_mu",
        "rho_moving_pullback_mu", "temperature_multipoles",
    ]


@pytest.mark.parametrize("name", sorted(_checked_entries()))
def test_each_cosine_and_l_max_entry_raises_cores_message(name):
    # a new public entry taking a cosine or an l_max cannot skip core's check
    func, params = _checked_entries()[name]
    args = {p: CHECKED.get(p, VALID_ARGUMENTS.get(p)) for p, spec in params.items()
            if spec.default is inspect.Parameter.empty}
    assert None not in args.values(), f"no valid value for a parameter of {name}: {args}"
    if "l_max" in params:
        message = _core_message(lambda n: core._check_count(n, "l_max", core._L_MAX_CAP), 10001)
    else:  # the label is the entry's; the range is core's
        message = _core_message(lambda mu: core._check_mu(mu, ""), math.nan)
    with pytest.raises(ValueError, match=re.escape(message)):
        func(**args)


# each count parameter's (low, cap) in core; the bin counts' cap is McConfig's joint rule
COUNTS = {"n": (1, core._N_MODES_CAP), "n_samples": (1, core._N_SAMPLES_CAP),
          "n_omega_bins": (4, math.inf), "n_mu_bins": (4, math.inf), "n_threads": (1, math.inf),
          "l_max": (0, core._L_MAX_CAP), "seed": (0, math.inf)}
VALID_COUNT_ARGUMENTS = {
    **VALID_ARGUMENTS, "n_samples": 1000, "seed": 1, "omega_prime_max": 1.0, "n": 10,
    "rng": NoDraws(), "cfg": relplanck.McConfig(1000, 1, 1.0), "l_max": 4,
}


def _count_entries() -> dict:
    """Each public callable with a count parameter, by name, and those parameters.

    A class here is a record, as MultipoleCoefficients, whose l_max is an
    output, but for McConfig, the identity check's input."""
    entries = {}
    for name in relplanck.__all__:
        obj = getattr(relplanck, name)
        if callable(obj) and (not isinstance(obj, type) or obj is relplanck.McConfig):
            params = inspect.signature(obj).parameters
            if counts := sorted(COUNTS.keys() & params):
                entries[name] = (obj, params, counts)
    return entries


def test_the_count_entries_are_pinned():
    assert {name: counts for name, (_, _, counts) in _count_entries().items()} == {
        "McConfig": ["n_mu_bins", "n_omega_bins", "n_samples", "seed"],
        "run_identity_check": ["n_threads"],
        "run_selfcheck": ["seed"],
        "sample_rest_modes": ["n"],
        "temperature_multipoles": ["l_max"],
    }


@pytest.mark.parametrize("name", sorted(_count_entries()))
def test_each_count_rejects_a_bool_a_float_and_its_bounds_with_cores_message(name):
    # a new public entry taking a count cannot skip core's check
    func, params, counts = _count_entries()[name]
    required = {p: VALID_COUNT_ARGUMENTS.get(p) for p, spec in params.items()
                if spec.default is inspect.Parameter.empty}
    assert None not in required.values(), f"no valid value for a parameter of {name}"
    for label in counts:
        low, cap = COUNTS[label]
        for bad in (True, 2.5, low - 1, *([cap + 1] if cap < math.inf else [])):
            message = _core_message(lambda n: core._check_count(n, label, cap, low), bad)
            with pytest.raises(ValueError, match=re.escape(message)):
                func(**{**required, label: bad})


# every public function of a boost reads only |beta| and cosines to its axis, so the sign
# of beta changes none of its values; boost_mode and direction_with_cosine return directions
SIGN_EXEMPT = ["boost_mode", "direction_with_cosine"]
SIGN_ARGUMENTS = {**VALID_COUNT_ARGUMENTS, "mu": 0.3, "mu_prime": -0.4}


def _boost_entries() -> dict:
    """Each public function with a boost parameter v, by name."""
    return {name: obj for name in relplanck.__all__
            if callable(obj := getattr(relplanck, name)) and not isinstance(obj, type)
            and "v" in inspect.signature(obj).parameters}


def _exact(x):
    """x as nested tuples of shapes, bytes and reprs, its wall-clock timings aside."""
    if dataclasses.is_dataclass(x):
        return tuple((f.name, _exact(getattr(x, f.name)))
                     for f in dataclasses.fields(x) if f.name != "timings")
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (tuple, list)):
        return tuple(map(_exact, x))
    return repr(x)


def test_the_boost_entries_are_pinned():
    assert sorted(_boost_entries()) == [
        "aberrate_mu", "boost_mode", "boost_mu", "direction_with_cosine", "doppler_factor",
        "effective_temperature_mu", "energy_density_moving_correlation",
        "energy_density_moving_spectral", "expected_energy_ratio", "inverse_doppler_factor",
        "rho_moving_mu", "rho_moving_pullback_mu", "run_identity_check",
        "temperature_multipoles", "u_moving",
    ]


@pytest.mark.parametrize("name", sorted(set(_boost_entries()) - set(SIGN_EXEMPT)))
def test_the_sign_of_beta_changes_no_value(name):
    func = _boost_entries()[name]
    args = {p: SIGN_ARGUMENTS.get(p) for p, spec in inspect.signature(func).parameters.items()
            if spec.default is inspect.Parameter.empty}
    assert None not in args.values(), f"no valid value for a parameter of {name}: {args}"
    plus, minus = (func(**{**args, "v": relplanck.make_boost([0.0, 0.0, b])}) for b in (0.6, -0.6))
    assert _exact(plus) == _exact(minus)


# every subcommand's flags, -h/--help aside
CLI_OPTIONS = {
    "spectrum": ["--beta", "--component", "--format", "--frame", "--grid", "--mu", "--omega-max",
                 "--omega-min", "--points", "--temperature", "--units"],
    "boost-mode": ["--azimuth", "--beta", "--format", "--mu", "--omega"],
    "energy-density": ["--beta", "--format", "--temperature", "--units"],
    "anisotropy": ["--beta", "--format", "--lmax", "--map-points", "--temperature"],
    "mc-verify": ["--beta", "--bins-mu", "--bins-omega", "--format", "--n", "--omega-prime-max",
                  "--seed", "--temperature", "--units"],
    "selftest": ["--format", "--quick", "--seed"],
}


def test_cli_options_are_pinned():
    parser = relplanck.cli._build_parser()
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: sorted(o for a in p._actions for o in a.option_strings if o not in ("-h", "--help"))
        for name, p in sub.choices.items()
    }
    assert options == CLI_OPTIONS


# the modules only some commands run; `import relplanck` loads none of them
DEFERRED = ["montecarlo", "radiometry", "selfcheck"]


def _fresh(*args):
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize(
    "argv,loaded",
    [
        (["spectrum", "--temperature", "1", "--points", "4"], []),
        (["boost-mode", "--omega", "1", "--mu", "0", "--beta", "0.6"], []),
        (["anisotropy", "--temperature", "1", "--beta", "0.6", "--lmax", "3"], []),
        (["energy-density", "--temperature", "1", "--beta", "0.6"], ["radiometry"]),
        (["mc-verify", "--beta", "0.6", "--n", "20000", "--seed", "7"],
         ["montecarlo", "radiometry"]),
    ],
    ids=["spectrum", "boost-mode", "anisotropy", "energy-density", "mc-verify"],
)
def test_each_command_imports_only_the_modules_it_runs(argv, loaded):
    # -X importtime names every module the run imports, on stderr
    proc = _fresh("-X", "importtime", "-m", "relplanck", *argv)
    modules = set(re.findall(r"^import time:.*\| +relplanck\.(\w+)$", proc.stderr, re.M))
    assert {"cli", "core", "kinematics", "spectrum"} <= modules
    assert sorted(modules & set(DEFERRED)) == loaded


def test_deferred_names_resolve_on_access_and_nothing_else_imports():
    code = (
        "import json, sys, types\n"
        "import relplanck, relplanck.cli\n"
        "def loaded():\n"
        "    return sorted(m[10:] for m in sys.modules if m.startswith('relplanck.'))\n"
        "# vars() reads the submodules without calling the hook\n"
        "out = {'import': loaded(), 'dir': sorted(\n"
        "    n for n in dir(relplanck)\n"
        "    if n[0] != '_' and not isinstance(vars(relplanck).get(n), types.ModuleType))}\n"
        "out['dir_loaded'] = loaded()\n"
        "probes = {'relplanck.no_such_name': lambda: relplanck.no_such_name,\n"
        "          'relplanck.__getattr__(__path__)': lambda: relplanck.__getattr__('__path__'),\n"
        "          'relplanck.cli.no_such_name': lambda: relplanck.cli.no_such_name,\n"
        "          'relplanck.cli.__path__': lambda: relplanck.cli.__path__}\n"
        "missing = []\n"
        "for label, probe in probes.items():\n"
        "    try:\n"
        "        probe()\n"
        "    except AttributeError:\n"
        "        missing.append(label)\n"
        "out['missing'], out['missing_loaded'] = missing, loaded()\n"
        "namespace = {}\n"
        "exec('from relplanck import *', namespace)\n"
        "out['star'] = sorted(set(namespace) - {'__builtins__'})\n"
        "out['star_loaded'] = loaded()\n"
        "print(json.dumps(out))\n"
    )
    out = json.loads(_fresh("-c", code).stdout)
    assert out["import"] == out["dir_loaded"] == out["missing_loaded"] == [
        "cli", "core", "kinematics", "spectrum",
    ]
    assert out["dir"] == out["star"] == PUBLIC_NAMES
    # importlib probes __path__ on every `from relplanck.cli import ...`
    assert out["missing"] == ["relplanck.no_such_name", "relplanck.__getattr__(__path__)",
                              "relplanck.cli.no_such_name", "relplanck.cli.__path__"]
    assert out["star_loaded"] == ["cli", "core", "kinematics", *DEFERRED, "spectrum"]


def test_a_deferred_name_is_the_defining_modules_object():
    from relplanck import montecarlo, radiometry, selfcheck

    assert relplanck.run_identity_check is montecarlo.run_identity_check
    assert relplanck.cli.run_identity_check is montecarlo.run_identity_check
    assert relplanck.integrate_semi_infinite is radiometry.integrate_semi_infinite
    assert relplanck.run_selfcheck is selfcheck.run_selfcheck
