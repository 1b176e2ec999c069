"""The selftest battery: it runs on the array mode map and still catches faults."""

import re
import types

import numpy as np
import pytest

from helpers import SEED_RANGE
from relplanck import kinematics, montecarlo, radiometry, selfcheck, spectrum
from relplanck.cli import main
from relplanck.core import NATURAL, Component, PhotonMode
from relplanck.selfcheck import run_selfcheck

QUICK_NAMES = [
    "gamma-identity", "coth-amplitude", "mode-roundtrip", "jacobian-freq",
    "jacobian-solid-angle", "lightcone", "field-invariants", "aberration-bounds",
    "pullback-identity", "occupation-invariance", "direction-integral", "multipoles",
    "stefan-boltzmann", "route-agreement", "quadrature-honesty", "mc-determinism",
]

# checks whose identity a wrong kinematics.aberrate_mu breaks, directly or
# through boost_mu; occupation-invariance and jacobian-solid-angle see it
# because they take a second mu' from the half-angle aberration formula
ABERRATION_DEPENDENT = [
    "mode-roundtrip", "jacobian-freq", "jacobian-solid-angle", "aberration-bounds",
    "occupation-invariance",
]


def test_quick_battery_runs_on_arrays(monkeypatch):
    # every mode-map check runs on arrays; none goes through PhotonMode objects
    counts = {"PhotonMode": 0, "boost_mode": 0}
    post_init = PhotonMode.__post_init__
    boost_mode = kinematics.boost_mode

    def counted_post_init(self):
        counts["PhotonMode"] += 1
        post_init(self)

    def counted_boost_mode(*args, **kwargs):
        counts["boost_mode"] += 1
        return boost_mode(*args, **kwargs)

    monkeypatch.setattr(PhotonMode, "__post_init__", counted_post_init)
    monkeypatch.setattr(kinematics, "boost_mode", counted_boost_mode)
    results = run_selfcheck(quick=True)
    assert [r.name for r in results] == QUICK_NAMES
    assert all(r.passed for r in results)
    assert counts == {"PhotonMode": 0, "boost_mode": 0}


def test_injected_aberration_error_fails_the_battery(monkeypatch, capsys):
    exact = kinematics.aberrate_mu
    monkeypatch.setattr(kinematics, "aberrate_mu", lambda mu, v: exact(mu, v) * (1.0 + 1e-9))
    results = {r.name: r for r in run_selfcheck(quick=True)}
    for name in ABERRATION_DEPENDENT:
        assert not results[name].passed, name
        assert results[name].residual > results[name].tolerance, name
    assert results["coth-amplitude"].passed
    assert results["lightcone"].passed  # raw wavevector boost, no aberrate_mu
    assert main(["selftest", "--quick"]) == 1
    out = capsys.readouterr().out
    assert any(line.startswith("FAIL  mode-roundtrip") for line in out.splitlines())


def test_injected_field_boost_error_fails_both_field_checks(monkeypatch, capsys):
    # field_boost and the correlation route share kinematics._field_boost_matrix,
    # so a wrong gamma there must fail the field invariants and the W' routes
    exact = kinematics._field_boost_matrix

    def wrong_gamma(v):
        return exact(types.SimpleNamespace(beta=v.beta, gamma=v.gamma * (1.0 + 1e-6)))

    monkeypatch.setattr(kinematics, "_field_boost_matrix", wrong_gamma)
    results = {r.name: r for r in run_selfcheck(quick=True)}
    for name in ("field-invariants", "route-agreement"):
        assert not results[name].passed, name
        assert results[name].residual > results[name].tolerance, name
    assert results["lightcone"].passed
    assert main(["selftest", "--quick"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAIL  field-invariants") for line in out)
    assert any(line.startswith("FAIL  route-agreement") for line in out)


def test_closed_form_fault_in_si_units_fails_the_quick_battery(monkeypatch, capsys):
    # a fault that is a power of c is invisible in natural units, where c = 1
    exact = radiometry.thermal_energy_density_closed_form
    monkeypatch.setattr(radiometry, "thermal_energy_density_closed_form",
                        lambda T, units=NATURAL: exact(T, units) * units.c**6)
    assert main(["selftest", "--quick"]) == 1
    out = capsys.readouterr().out
    assert any(line.startswith("FAIL  stefan-boltzmann") for line in out.splitlines())


def test_zero_point_amplitude_fault_fails_the_quick_battery(monkeypatch, capsys):
    # a zero-point density 1.001 times too large, in every density that
    # carries one; only coth-amplitude compares the amplitude with a formula
    # of its own
    exact = spectrum._density

    def scaled_zero_point(om, s, x_occ, component, pref):
        out = exact(om, s, x_occ, component, pref)
        if component is Component.THERMAL:
            return out
        return out + 1e-3 * pref * om * om * om

    monkeypatch.setattr(spectrum, "_density", scaled_zero_point)
    results = {r.name: r for r in run_selfcheck(quick=True)}
    assert not results["coth-amplitude"].passed
    assert results["coth-amplitude"].residual > 1e-4
    assert main(["selftest", "--quick"]) == 1
    out = capsys.readouterr().out
    assert any(line.startswith("FAIL  coth-amplitude") for line in out.splitlines())


def test_forward_multipole_fault_fails_the_quick_battery(monkeypatch, capsys):
    # every forward-branch coefficient above the monopole 1 + 1e-9 times
    # too large: far inside the check's 1e-9 tolerance, which its dipole
    # term sets, but not inside the 1e-13 of its forward vs backward part
    exact = spectrum._forward_recurrence

    def scaled(t, v, l_max):
        a = exact(t, v, l_max)
        return a[:1] + [x * (1.0 + 1e-9) for x in a[1:]]

    monkeypatch.setattr(spectrum, "_forward_recurrence", scaled)
    results = {r.name: r for r in run_selfcheck(quick=True)}
    assert not results["multipoles"].passed
    assert results["multipoles"].residual <= results["multipoles"].tolerance
    assert [name for name, r in results.items() if not r.passed] == ["multipoles"]
    assert main(["selftest", "--quick"]) == 1
    out = capsys.readouterr().out
    assert any(line.startswith("FAIL  multipoles") for line in out.splitlines())


def test_each_check_draws_from_its_own_stream(monkeypatch):
    # a check run alone gives the record it gives in the battery, so adding
    # or deleting a check moves no other residual
    full = run_selfcheck()
    assert run_selfcheck(quick=True) == full[:len(QUICK_NAMES)]
    checks = selfcheck._QUICK_CHECKS + selfcheck._HEAVY_CHECKS
    monkeypatch.setattr(selfcheck, "_HEAVY_CHECKS", ())
    for check, want in zip(checks, full, strict=True):
        monkeypatch.setattr(selfcheck, "_QUICK_CHECKS", (check,))
        assert run_selfcheck(quick=True) == [want], want.name


@pytest.mark.parametrize("fault", ["expected_energy_ratio", "_PI2_15"])
def test_a_1e_10_closed_form_fault_fails_the_quick_battery(monkeypatch, capsys, fault):
    # the two tolerances sit above the measured residuals (1e-15), far
    # below a fault in the closed forms the routes are held against
    if fault == "_PI2_15":
        monkeypatch.setattr(radiometry, "_PI2_15", radiometry._PI2_15 * (1.0 + 1e-10))
        failing = "stefan-boltzmann"
    else:
        exact = radiometry.expected_energy_ratio
        monkeypatch.setattr(radiometry, "expected_energy_ratio",
                            lambda v: exact(v) * (1.0 + 1e-10))
        failing = "route-agreement"
    assert main(["selftest", "--quick"]) == 1
    out = capsys.readouterr().out
    assert any(line.startswith(f"FAIL  {failing}") for line in out.splitlines())


def test_unseeded_generator_fails_the_quick_battery(monkeypatch, capsys):
    # chunks that ignore their seed give two reports for one seed
    monkeypatch.setattr(montecarlo, "_chunk_rng",
                        lambda seed_seq: np.random.Generator(np.random.SFC64()))
    assert main(["selftest", "--quick"]) == 1
    out = capsys.readouterr().out
    assert any(line.startswith("FAIL  mc-determinism") for line in out.splitlines())


def test_negative_seed_is_rejected_before_any_check_runs():
    with pytest.raises(ValueError, match=re.escape(f"{SEED_RANGE}, got -1")):
        run_selfcheck(quick=True, seed=-1)


@pytest.mark.parametrize("seed", [1.5, True])
def test_non_integer_seed_is_rejected_before_any_check_runs(seed):
    with pytest.raises(ValueError, match=re.escape(f"{SEED_RANGE}, got {seed!r}")):
        run_selfcheck(quick=True, seed=seed)


def test_battery_builds_its_gauss_legendre_reference_once(monkeypatch):
    # direction-integral and the four multipole projections share one
    # 64-node rule; numpy builds it in 0.7-0.9 ms
    calls, leggauss = [], np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: calls.append(n) or leggauss(n))
    selfcheck._gauss_legendre.cache_clear()
    run_selfcheck(quick=True)
    run_selfcheck(quick=True)
    assert calls == [64]
