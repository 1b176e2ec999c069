"""Release gate: the nine headline guarantees, one test each.

Each test prints a single PASS line with the measured residual once its
assertions hold; run with `pytest tests/test_acceptance.py -v -s` to see
both the verdicts and the margins.  Budgets are wall-clock seconds.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from relplanck import (
    Component,
    McConfig,
    PhotonMode,
    aberrate_mu,
    boost_mode,
    boost_mu,
    doppler_factor,
    energy_density_moving_correlation,
    energy_density_moving_spectral,
    expected_energy_ratio,
    make_boost,
    rho_moving_mu,
    rho_moving_pullback_mu,
    rho_rest,
    run_identity_check,
    spectral_prefactor,
    temperature_multipoles,
)
from relplanck import radiometry
from relplanck.cli import main as cli_main

from helpers import random_boosts, random_modes, random_unit_vectors


def _report(name, residual, tol, elapsed, budget):
    print(f"PASS  {name}: residual {residual:.3e} (tol {tol:.0e}), "
          f"{elapsed:.2f} s (budget {budget:.0f} s)")


def test_zero_temperature_spectrum_is_frame_invariant():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    omega = np.geomspace(1e-3, 1e3, 32)
    worst = 0.0
    for beta in (0.0, 0.3, 0.9, 0.99):
        v = make_boost([0.0, 0.0, beta])
        for mu in np.linspace(-1.0, 1.0, 64):
            got = rho_moving_mu(omega, mu, v, 0.0, Component.TOTAL)
            want = spectral_prefactor() * omega**3
            worst = max(worst, float(np.max(np.abs(got / want - 1.0))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    _report("zero-temperature invariance", worst, 1e-12, elapsed, 1)


def test_pullback_and_explicit_moving_densities_agree():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    n = 10_000
    omega_p = rng.uniform(1e-3, 25.0, n)
    mu_p = rng.uniform(-1.0, 1.0, n)
    betas = rng.uniform(0.0, 0.95, n)
    worst = 0.0
    for temp in (0.5, 1.0, 2.725):
        for lo in range(0, n, 2_500):
            sl = slice(lo, lo + 2_500)
            v = make_boost([0.0, 0.0, float(betas[lo])])
            explicit = rho_moving_mu(omega_p[sl], mu_p[sl], v, temp)
            pulled = rho_moving_pullback_mu(omega_p[sl], mu_p[sl], v, temp)
            worst = max(worst, float(np.max(np.abs(pulled / explicit - 1.0))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    _report("pullback vs explicit density", worst, 1e-12, elapsed, 1)


def test_doppler_aberration_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    n = 100_000
    omega = rng.uniform(0.01, 50.0, n)
    mu = rng.uniform(-1.0, 1.0, n)
    worst = 0.0
    for beta in (0.3, 0.9, 0.99):
        v = make_boost([0.0, 0.0, beta])
        om_p, mu_p, _, _ = boost_mu(omega, mu, v)
        # cosines are measured along the boost axis, so inverting with the
        # reversed velocity flips their sign going in and coming out
        om_b, mu_b, _, _ = boost_mu(om_p, -mu_p, v.reversed())
        worst = max(worst, float(np.max(np.abs(om_b / omega - 1.0))))
        worst = max(worst, float(np.max(np.abs(-mu_b - mu))))
    # full three-vector recovery through the single-mode path
    modes = random_modes(rng, 1_000, omega_hi=50.0)
    boosts = random_boosts(rng, 1_000)
    for mode, v in zip(modes, boosts):
        back = boost_mode(boost_mode(mode, v).mode_prime, v.reversed()).mode_prime
        worst = max(worst, abs(back.omega / mode.omega - 1.0))
        worst = max(worst, float(np.max(np.abs(back.khat - mode.khat))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    _report("Doppler/aberration round trip", worst, 1e-12, elapsed, 1)


def test_stefan_boltzmann_energy_density():
    t0 = time.perf_counter()
    # the spectral route at rest integrates the thermal spectrum
    rest = make_boost([0.0, 0.0, 0.0])
    w1 = energy_density_moving_spectral(1.0, rest).W_moving
    dev = abs(w1 - math.pi**2 / 15.0)
    ratios = np.array([energy_density_moving_spectral(t, rest).W_moving / t**4
                       for t in (0.5, 1.0, 2.0, 4.0)])
    spread = float(np.max(np.abs(ratios / ratios[1] - 1.0)))
    elapsed = time.perf_counter() - t0
    assert dev <= 1e-8
    assert spread <= 1e-10
    assert elapsed < 1.0
    _report("Stefan-Boltzmann density", max(dev, spread), 1e-8, elapsed, 1)


def test_moving_energy_density_two_routes():
    t0 = time.perf_counter()
    worst_closed = 0.0
    worst_routes = 0.0
    for beta in (0.1, 0.3, 0.6, 0.9):
        v = make_boost([0.0, 0.0, beta])
        want = expected_energy_ratio(v)
        spect = energy_density_moving_spectral(1.0, v)
        corr = energy_density_moving_correlation(1.0, v)
        worst_closed = max(worst_closed, abs(spect.ratio / want - 1.0),
                           abs(corr.ratio / want - 1.0))
        worst_routes = max(worst_routes, abs(spect.W_moving / corr.W_moving - 1.0))
    elapsed = time.perf_counter() - t0
    assert worst_closed <= 1e-8
    assert worst_routes <= 1e-8
    assert elapsed < 5.0
    _report("two-route energy density", max(worst_closed, worst_routes), 1e-8,
            elapsed, 5)


def test_effective_temperature_factorization_and_monopole():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    n = 10_000
    omega_p = rng.uniform(1e-3, 25.0, n)
    mu_p = rng.uniform(-1.0, 1.0, n)
    worst = 0.0
    for beta in (0.2, 0.6, 0.9):
        v = make_boost([0.0, 0.0, beta])
        teff = 1.0 / (v.gamma * (1.0 + v.beta_mag * mu_p))
        got = rho_moving_mu(omega_p, mu_p, v, 1.0, Component.THERMAL)
        # reference built directly from the rest-frame Planck law at the
        # per-point effective temperature
        z = omega_p / teff
        want = spectral_prefactor() * omega_p**3 * (2.0 * np.exp(-z) / -np.expm1(-z))
        worst = max(worst, float(np.max(np.abs(got / want - 1.0))))
    a0 = temperature_multipoles(make_boost([0.0, 0.0, 0.6]), 1.0, 0).a[0]
    mono_dev = abs(a0 - (4.0 / 3.0) * math.log(2.0))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert mono_dev <= 1e-10
    assert elapsed < 1.0
    _report("effective-temperature factorization", max(worst, mono_dev), 1e-12,
            elapsed, 1)


def test_monte_carlo_identity_check():
    t0 = time.perf_counter()
    v = make_boost([0.0, 0.0, 0.6])
    cfg = McConfig(n_samples=1_000_000, seed=42, omega_prime_max=30.0)
    rep = run_identity_check(1.0, v, cfg)
    rerun = run_identity_check(1.0, v, cfg)
    elapsed = time.perf_counter() - t0
    assert 0.7 <= rep.chi2_per_dof <= 1.3
    assert rep.max_abs_z < 5.0
    assert abs(rep.ratio_estimate - 1.75) <= 3.0 * rep.ratio_std_error
    assert np.array_equal(rep.estimated, rerun.estimated)
    assert rep.chi2 == rerun.chi2
    assert elapsed < 60.0
    _report("Monte Carlo identity", abs(rep.chi2_per_dof - 1.0), 0.3, elapsed, 60)


def test_jacobian_factors_match_central_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    n = 1_000
    omega = rng.uniform(0.1, 20.0, n)
    mu = rng.uniform(-0.999, 0.999, n)
    worst = 0.0
    for beta in (0.3, 0.8):
        v = make_boost([0.0, 0.0, beta])
        _, _, jac_freq, jac_solid = boost_mu(omega, mu, v)
        # frequency map at fixed direction: d omega'/d omega
        h_om = 1e-5 * omega
        d_num = (boost_mu(omega + h_om, mu, v)[0]
                 - boost_mu(omega - h_om, mu, v)[0]) / (2.0 * h_om)
        worst = max(worst, float(np.max(np.abs(d_num * jac_freq - 1.0))))
        # aberration map: d mu'/d mu is the reciprocal solid-angle factor;
        # step scaled by the local Doppler denominator to balance
        # truncation against roundoff
        h_mu = 3e-5 * (1.0 - beta * mu)
        m_num = (aberrate_mu(mu + h_mu, v) - aberrate_mu(mu - h_mu, v)) / (2.0 * h_mu)
        worst = max(worst, float(np.max(np.abs(m_num * jac_solid - 1.0))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 1.0
    _report("Jacobian cross-check", worst, 1e-8, elapsed, 1)


def test_cli_contract(capsys, monkeypatch):
    t0 = time.perf_counter()
    # a correct build passes its own full battery
    assert cli_main(["selftest"]) == 0
    capsys.readouterr()

    # fixed-seed runs are byte-identical
    args = ["mc-verify", "--beta", "0.6", "--n", "200000"]
    assert cli_main(args) == 0
    first = capsys.readouterr().out
    assert cli_main(args) == 0
    assert capsys.readouterr().out == first

    # exit taxonomy: bad usage is 2, a failed verdict is 1
    assert cli_main(["spectrum", "--temperature", "-1"]) == 2
    assert cli_main(["energy-density", "--temperature", "1", "--beta", "1.0"]) == 2
    capsys.readouterr()

    # a quadrature that misses its tolerance (0 here) fails its record
    monkeypatch.setattr(radiometry, "_REL_TOL", 0.0)
    monkeypatch.setattr(radiometry, "_ABS_TOL", 0.0)
    assert cli_main(["energy-density", "--temperature", "1", "--beta", "0.6"]) == 1
    fails = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("FAIL")]
    assert len(fails) == 1 and fails[0].startswith("FAIL  quadrature ")
    elapsed = time.perf_counter() - t0
    _report("CLI contract", 0.0, 1.0, elapsed, 60)
