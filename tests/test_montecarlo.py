"""Thermal-mode sampler quality and the Monte Carlo spectrum identity check."""

import math
import warnings

import numpy as np
import pytest
from scipy import special, stats

from relplanck import (
    PLANCK_ENERGY_MEAN_X,
    PLANCK_ENERGY_MEDIAN_X,
    McConfig,
    make_boost,
    planck_energy_cdf,
    run_identity_check,
    sample_rest_modes,
)
from relplanck.montecarlo import _P4_SERIES_MAX, _regularized_gamma4

# second moment of the dimensionless energy spectrum:
# Gamma(6) zeta(6) / (Gamma(4) zeta(4)) = 40 pi^2 / 21
X_SECOND_MOMENT = 40.0 * math.pi**2 / 21.0
X_VARIANCE = X_SECOND_MOMENT - PLANCK_ENERGY_MEAN_X**2


def _rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


@pytest.fixture(scope="module")
def big_sample():
    omega, khat = sample_rest_modes(1.0, 400_000, _rng(7))
    return omega, khat


class TestSampler:
    def test_draws_are_physical(self, big_sample):
        omega, khat = big_sample
        assert np.all(omega > 0.0)
        norms = np.linalg.norm(khat, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_energy_mean(self, big_sample):
        omega, _ = big_sample
        n = omega.size
        sigma_mean = math.sqrt(X_VARIANCE / n)
        assert abs(omega.mean() - PLANCK_ENERGY_MEAN_X) <= 4.0 * sigma_mean

    def test_energy_median(self, big_sample):
        omega, _ = big_sample
        frac = np.mean(omega < PLANCK_ENERGY_MEDIAN_X)
        assert abs(frac - 0.5) <= 4.0 * 0.5 / math.sqrt(omega.size)

    def test_direction_isotropy(self, big_sample):
        _, khat = big_sample
        n = khat.shape[0]
        # each component has variance 1/3 under isotropy
        assert np.max(np.abs(khat.mean(axis=0))) <= 4.0 * math.sqrt(1.0 / 3.0 / n)
        mu2 = np.mean(khat[:, 2] ** 2)
        assert abs(mu2 - 1.0 / 3.0) <= 0.01

    def test_energy_distribution_kolmogorov_smirnov(self, big_sample):
        omega, _ = big_sample
        x = omega[:100_000]
        res = stats.kstest(x, planck_energy_cdf)
        # 1% critical value for the one-sample statistic
        assert res.statistic <= 1.63 / math.sqrt(x.size)

    def test_temperature_rescales_frequencies(self):
        a, _ = sample_rest_modes(1.0, 2_000, _rng(3))
        b, _ = sample_rest_modes(2.5, 2_000, _rng(3))
        assert np.allclose(b, 2.5 * a, rtol=1e-13)

    def test_same_seed_reproduces(self):
        a, ka = sample_rest_modes(1.0, 1_000, _rng(11))
        b, kb = sample_rest_modes(1.0, 1_000, _rng(11))
        assert np.array_equal(a, b)
        assert np.array_equal(ka, kb)

    def test_rejects_bad_requests(self):
        with pytest.raises(ValueError):
            sample_rest_modes(0.0, 10, _rng(0))
        with pytest.raises(ValueError):
            sample_rest_modes(1.0, 0, _rng(0))


class TestEnergyCdf:
    def test_limits_and_monotonicity(self):
        x = np.linspace(0.0, 40.0, 801)
        f = planck_energy_cdf(x)
        assert f[0] == 0.0
        assert np.all(np.diff(f) >= 0.0)
        # the residual at large x is the documented series truncation
        assert f[-1] >= 1.0 - 1e-7

    def test_median_value(self):
        assert abs(planck_energy_cdf(PLANCK_ENERGY_MEDIAN_X) - 0.5) <= 2e-7

    def test_derivative_matches_density(self):
        h = 1e-4
        for x in (0.7, 2.0, 3.5, 8.0):
            deriv = (planck_energy_cdf(x + h) - planck_energy_cdf(x - h)) / (2.0 * h)
            pdf = x**3 / math.expm1(x) / (math.pi**4 / 15.0)
            assert deriv == pytest.approx(pdf, rel=1e-6)

    def test_term_count_convergence(self):
        x = np.array([0.5, 3.5, 12.0])
        coarse = planck_energy_cdf(x, n_terms=200)
        fine = planck_energy_cdf(x, n_terms=800)
        assert np.max(np.abs(coarse - fine)) <= 5e-8

    def test_scalar_and_array_forms(self):
        val = planck_energy_cdf(2.0)
        assert isinstance(val, float)
        arr = planck_energy_cdf(np.array([2.0, 3.0]))
        assert arr.shape == (2,)
        # batched evaluation may differ by an ulp from the scalar path
        assert arr[0] == pytest.approx(val, rel=1e-14)
        assert planck_energy_cdf(-1.0) == 0.0

    def test_infinite_and_nan_arguments(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            top = planck_energy_cdf(np.inf)
            arr = planck_energy_cdf(np.array([np.inf, np.nan, -3.0]))
        # the 200-term truncation: sum_{k<=200} k^-4 / zeta(4)
        truncated = math.fsum(k**-4.0 for k in range(1, 201)) / (math.pi**4 / 90.0)
        assert top == pytest.approx(truncated, rel=1e-15)
        assert 1.0 - 4e-8 <= top < 1.0
        assert arr[0] == pytest.approx(top, rel=1e-14)
        assert math.isnan(arr[1])
        assert arr[2] == 0.0

    def test_regularized_gamma4_matches_scipy(self):
        edge = _P4_SERIES_MAX
        y = np.concatenate([
            np.logspace(-12, 3, 3001),
            [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0 * edge)],
        ])
        got = _regularized_gamma4(y)
        want = special.gammainc(4.0, y)
        assert np.max(np.abs(got - want) / want) <= 1e-13
        assert np.array_equal(_regularized_gamma4(np.array([0.0, np.inf])), [0.0, 1.0])


class TestConfigValidation:
    def test_bad_counts(self):
        with pytest.raises(ValueError):
            McConfig(n_samples=0, seed=1, omega_prime_max=30.0)
        with pytest.raises(ValueError):
            McConfig(n_samples=100, seed=1, omega_prime_max=0.0)
        with pytest.raises(ValueError):
            McConfig(n_samples=100, seed=1, omega_prime_max=30.0, n_mu_bins=3)

    def test_bad_run_arguments(self):
        cfg = McConfig(n_samples=100, seed=1, omega_prime_max=30.0)
        with pytest.raises(ValueError):
            run_identity_check(0.0, make_boost([0, 0, 0.5]), cfg)
        with pytest.raises(ValueError):
            run_identity_check(1.0, make_boost([0, 0, 0.5]), cfg, n_threads=0)


CFG_4E5 = McConfig(n_samples=400_000, seed=99, omega_prime_max=30.0)


class TestIdentityCheck:
    def test_rest_frame_weights_are_unity(self):
        rep = run_identity_check(1.0, make_boost([0, 0, 0]), CFG_4E5)
        assert rep.ratio_expected == 1.0
        assert rep.ratio_estimate == 1.0
        assert rep.ratio_std_error == 0.0
        assert 0.5 <= rep.chi2_per_dof <= 1.6
        assert rep.max_abs_z < 5.0

    @pytest.mark.parametrize("beta,om_max", [(0.6, 30.0), (0.9, 65.0)])
    def test_boosted_histogram_matches_density(self, beta, om_max):
        cfg = McConfig(n_samples=400_000, seed=99, omega_prime_max=om_max)
        rep = run_identity_check(1.0, make_boost([0, 0, beta]), cfg)
        assert rep.dof > 50
        assert 0.5 <= rep.chi2_per_dof <= 1.6
        assert rep.max_abs_z < 5.0
        z = (rep.ratio_estimate - rep.ratio_expected) / rep.ratio_std_error
        assert abs(z) <= 4.0
        assert rep.in_grid_fraction > 0.999

    def test_report_internal_coherence(self):
        rep = run_identity_check(1.0, make_boost([0, 0, 0.6]), CFG_4E5)
        w_rest = rep.w_prime_expected / rep.ratio_expected
        assert rep.w_prime_estimate == pytest.approx(w_rest * rep.ratio_estimate, rel=1e-14)
        # total analytic occupancy tracks the observed in-grid draw count
        got = rep.counts.sum()
        want = rep.expected_counts.sum()
        assert abs(got - want) <= 5.0 * math.sqrt(want)
        assert rep.n_excluded == rep.included.size - rep.dof
        inc_z = rep.z_scores[rep.included]
        assert rep.chi2 == pytest.approx(float(np.sum(inc_z**2)), rel=1e-14)
        assert np.all(np.isnan(rep.z_scores[~rep.included]))

    def test_bitwise_reproducibility_across_runs_and_threads(self):
        v = make_boost([0, 0, 0.6])
        cfg = McConfig(n_samples=300_000, seed=42, omega_prime_max=30.0)
        a = run_identity_check(1.0, v, cfg)
        b = run_identity_check(1.0, v, cfg)
        c = run_identity_check(1.0, v, cfg, n_threads=2)
        for other in (b, c):
            assert np.array_equal(a.estimated, other.estimated)
            assert np.array_equal(a.counts, other.counts)
            assert a.chi2 == other.chi2
            assert a.w_prime_estimate == other.w_prime_estimate

    def test_different_seeds_differ(self):
        v = make_boost([0, 0, 0.6])
        a = run_identity_check(1.0, v, McConfig(n_samples=50_000, seed=1, omega_prime_max=30.0))
        b = run_identity_check(1.0, v, McConfig(n_samples=50_000, seed=2, omega_prime_max=30.0))
        assert not np.array_equal(a.counts, b.counts)

    def test_sparse_run_warns_and_excludes(self):
        cfg = McConfig(n_samples=500, seed=5, omega_prime_max=30.0)
        rep = run_identity_check(1.0, make_boost([0, 0, 0.6]), cfg)
        assert rep.n_excluded > 0
        assert any("excluded" in w for w in rep.warnings)

    def test_empty_chi2_is_flagged(self):
        cfg = McConfig(n_samples=100, seed=5, omega_prime_max=30.0)
        rep = run_identity_check(1.0, make_boost([0, 0, 0.6]), cfg)
        assert rep.dof == 0
        assert math.isnan(rep.chi2_per_dof)
        assert any("no chi2 verdict" in w for w in rep.warnings)

    def test_undersized_grid_warns(self):
        cfg = McConfig(n_samples=2_000, seed=5, omega_prime_max=1.5)
        rep = run_identity_check(1.0, make_boost([0, 0, 0.6]), cfg)
        assert rep.in_grid_fraction < 0.95
        assert any("omega_prime_max" in w for w in rep.warnings)
