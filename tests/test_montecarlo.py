"""Thermal-mode sampler quality and the Monte Carlo spectrum identity check."""

import dataclasses
import math
import re
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy import special, stats

from helpers import SEED_RANGE
from relplanck import (
    PLANCK_ENERGY_MEAN_X,
    PLANCK_ENERGY_MEDIAN_X,
    McConfig,
    make_boost,
    montecarlo,
    run_identity_check,
    sample_rest_modes,
)
from relplanck.kinematics import boost_mu, doppler_factor
from relplanck.montecarlo import (
    _CHUNK,
    _flat_bin_index,
    _isotropic_directions,
    _k_mixture_cdf,
    _sample_planck_x,
    _usable_cpus,
)
from relplanck.radiometry import thermal_energy_density_closed_form

# second moment of the dimensionless energy spectrum:
# Gamma(6) zeta(6) / (Gamma(4) zeta(4)) = 40 pi^2 / 21
X_SECOND_MOMENT = 40.0 * math.pi**2 / 21.0
X_VARIANCE = X_SECOND_MOMENT - PLANCK_ENERGY_MEAN_X**2


def energy_cdf(x, n_terms=200):
    """CDF of the dimensionless thermal energy spectrum x^3/(e^x - 1)/(pi^4/15).

    The reference for the sampler's Kolmogorov-Smirnov test, independent of
    the sampler's mixture table: F(x) = sum_{k<=n_terms} k^-4 P(4, k x) /
    zeta(4), with P scipy's regularized lower incomplete gamma, in blocks
    of 4096 arguments.  The truncation leaves F(inf) 3.8e-8 short of 1 at
    200 terms.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    k = np.arange(1, n_terms + 1, dtype=float)
    out = np.empty_like(x)
    for lo in range(0, x.size, 4096):
        seg = x[lo : lo + 4096]
        out[lo : lo + 4096] = (k**-4.0) @ special.gammainc(4.0, np.outer(k, seg))
    return out / (math.pi**4 / 90.0)


def _rng(seed):
    return montecarlo._chunk_rng(np.random.SeedSequence(seed))


@pytest.fixture(scope="module")
def big_sample():
    return sample_rest_modes(1.0, 400_000, _rng(7))


class TestSampler:
    def test_draws_are_physical(self, big_sample):
        omega, mu = big_sample
        assert np.all(omega > 0.0)
        assert np.all(np.abs(mu) <= 1.0)

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
        _, mu = big_sample
        n = mu.size
        # the cosine of an isotropic direction has mean 0 and variance 1/3
        assert abs(mu.mean()) <= 4.0 * math.sqrt(1.0 / 3.0 / n)
        assert abs(np.mean(mu**2) - 1.0 / 3.0) <= 0.01

    def test_cosine_distribution_kolmogorov_smirnov(self, big_sample):
        _, mu = big_sample
        x = mu[:100_000]
        res = stats.kstest(x, stats.uniform(loc=-1.0, scale=2.0).cdf)
        assert res.statistic <= 1.63 / math.sqrt(x.size)

    def test_cosine_is_the_z_component_of_an_isotropic_direction(self):
        # mu takes the z cosine's place in the stream; the azimuth is not drawn
        n = 5_000
        _, mu = sample_rest_modes(1.0, n, _rng(13))
        rng = _rng(13)
        _sample_planck_x(rng, n)
        assert np.array_equal(mu, _isotropic_directions(rng, n)[:, 2])

    def test_energy_distribution_kolmogorov_smirnov(self, big_sample):
        omega, _ = big_sample
        x = omega[:100_000]
        res = stats.kstest(x, energy_cdf)
        # 1% critical value for the one-sample statistic
        assert res.statistic <= 1.63 / math.sqrt(x.size)

    def test_temperature_rescales_frequencies(self):
        a, _ = sample_rest_modes(1.0, 2_000, _rng(3))
        b, _ = sample_rest_modes(2.5, 2_000, _rng(3))
        assert np.allclose(b, 2.5 * a, rtol=1e-13)

    def test_same_seed_reproduces(self):
        a, mu_a = sample_rest_modes(1.0, 1_000, _rng(11))
        b, mu_b = sample_rest_modes(1.0, 1_000, _rng(11))
        assert np.array_equal(a, b)
        assert np.array_equal(mu_a, mu_b)

    def test_rejects_bad_requests(self):
        with pytest.raises(ValueError):
            sample_rest_modes(0.0, 10, _rng(0))
        with pytest.raises(ValueError):
            sample_rest_modes(1.0, 0, _rng(0))


class TestEnergyCdf:
    """The Kolmogorov-Smirnov reference is right, so the test can see a wrong sampler."""

    def test_limits_and_monotonicity(self):
        x = np.linspace(0.0, 40.0, 801)
        f = energy_cdf(x)
        assert f[0] == 0.0
        assert np.all(np.diff(f) >= 0.0)
        # the residual at large x is the documented series truncation
        assert f[-1] >= 1.0 - 1e-7

    def test_median_value(self):
        assert abs(energy_cdf(PLANCK_ENERGY_MEDIAN_X)[0] - 0.5) <= 2e-7

    def test_derivative_matches_density(self):
        h = 1e-4
        for x in (0.7, 2.0, 3.5, 8.0):
            deriv = (energy_cdf(x + h)[0] - energy_cdf(x - h)[0]) / (2.0 * h)
            pdf = x**3 / math.expm1(x) / (math.pi**4 / 15.0)
            assert deriv == pytest.approx(pdf, rel=1e-6)

    def test_term_count_convergence(self):
        x = np.array([0.5, 3.5, 12.0])
        coarse = energy_cdf(x, n_terms=200)
        fine = energy_cdf(x, n_terms=800)
        assert np.max(np.abs(coarse - fine)) <= 5e-8


class TestConfigValidation:
    def test_bad_counts(self):
        with pytest.raises(ValueError):
            McConfig(n_samples=0, seed=1, omega_prime_max=30.0)
        with pytest.raises(ValueError):
            McConfig(n_samples=100, seed=1, omega_prime_max=0.0)
        with pytest.raises(ValueError):
            McConfig(n_samples=100, seed=1, omega_prime_max=30.0, n_mu_bins=3)

    def test_bin_count_is_capped_at_2_to_the_16(self):
        assert McConfig(n_samples=100, seed=1, omega_prime_max=30.0,
                        n_omega_bins=4, n_mu_bins=1 << 14).n_mu_bins == 1 << 14
        # 2^16 + 1 is prime: 4 x 16385 is the least product over the cap
        # with at least 4 bins per axis
        with pytest.raises(ValueError, match="at most 65536 bins"):
            McConfig(n_samples=100, seed=1, omega_prime_max=30.0,
                     n_omega_bins=4, n_mu_bins=(1 << 14) + 1)

    def test_non_finite_grid_rejected(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="omega_prime_max"):
                McConfig(n_samples=100, seed=1, omega_prime_max=bad)

    def test_bad_run_arguments(self):
        cfg = McConfig(n_samples=100, seed=1, omega_prime_max=30.0)
        with pytest.raises(ValueError, match="T > 0 required"):
            run_identity_check(0.0, make_boost([0, 0, 0.5]), cfg)
        with pytest.raises(ValueError):
            run_identity_check(1.0, make_boost([0, 0, 0.5]), cfg, n_threads=0)


class _FixedUniforms:
    """Stands in for a Generator: fixed uniforms, and unit gamma draws."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()

    def standard_gamma(self, shape, n):
        return np.ones(n)


def _edge_probes(edges):
    """Every edge and its two neighbouring doubles."""
    return np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])


class TestFlatBinning:
    @pytest.mark.parametrize("n_om,n_mu,om_max", [
        (32, 16, 15.0 * make_boost([0, 0, 0.6]).gamma * 1.6),
        (4, 4, 3.0),
    ])
    def test_bincount_equals_histogram2d(self, n_om, n_mu, om_max):
        om_edges = np.linspace(0.0, om_max, n_om + 1)
        mu_edges = np.linspace(-1.0, 1.0, n_mu + 1)
        rng = _rng(5)
        om_probe = np.concatenate([
            _edge_probes(om_edges), [0.0, om_max, 1.5 * om_max, 1e300],
            rng.uniform(0.0, 1.1 * om_max, 40),
        ])
        mu_probe = np.concatenate([
            _edge_probes(mu_edges), [-1.0, 1.0],
            rng.uniform(-1.0, 1.0, 20),
        ])
        grid_om, grid_mu = np.meshgrid(om_probe, mu_probe, indexing="ij")
        # many random draws per bin, so that the order of every sum matters
        om_p = np.concatenate([grid_om.ravel(), rng.uniform(0.0, 1.05 * om_max, 50_000)])
        mu_p = np.concatenate([grid_mu.ravel(), rng.uniform(-1.0, 1.0, 50_000)])
        order = rng.permutation(om_p.size)
        om_p, mu_p = om_p[order], mu_p[order]
        wgt = rng.uniform(0.1, 10.0, om_p.size)

        idx = _flat_bin_index(om_edges, mu_edges, om_p, mu_p)
        n_flat = n_om * n_mu
        sel = om_p < om_max
        for w in (wgt, wgt**2, None):
            got = np.bincount(idx, w, n_flat + 1)[:n_flat].reshape(n_om, n_mu).astype(float)
            want, _, _ = np.histogram2d(
                om_p[sel], mu_p[sel], bins=(om_edges, mu_edges),
                weights=None if w is None else w[sel],
            )
            assert got.tobytes() == want.tobytes()
        # the overflow slot holds exactly the draws histogram2d leaves out
        in_grid = sel & (om_p >= 0.0) & (np.abs(mu_p) <= 1.0)
        assert np.count_nonzero(idx == n_flat) == np.count_nonzero(~in_grid)

    def test_planck_x_fast_path_equals_full_search(self):
        cdf = _k_mixture_cdf()
        u = np.array([
            cdf[0], np.nextafter(cdf[0], 0.0), np.nextafter(cdf[0], 1.0),
            cdf[-1], 0.0, 1.0 - 2.0**-53, 0.5, 0.95, 0.999999,
        ])
        got = _sample_planck_x(_FixedUniforms(u), u.size)
        want = 1.0 / (np.searchsorted(cdf, u, side="left") + 1)
        assert np.array_equal(got, want)
        assert got[1] == 1.0 and got[0] == 1.0 and got[2] == 0.5

    def test_planck_x_draws_equal_full_search(self):
        cdf = _k_mixture_cdf()
        a, b = _rng(21), _rng(21)
        got = _sample_planck_x(a, 200_000)
        k = np.searchsorted(cdf, b.random(200_000), side="left") + 1
        assert np.array_equal(got, b.standard_gamma(4.0, 200_000) / k)

    def test_k_table_ends_where_its_partial_sums_stall(self):
        cdf = _k_mixture_cdf()
        k = np.arange(1, 150_001, dtype=float)
        sums = np.cumsum(k**-4.0) / (math.pi**4 / 90.0)
        assert cdf.size == 9_741
        assert np.array_equal(cdf, sums[: cdf.size])
        assert np.all(np.diff(cdf) > 0.0)
        assert np.all(sums[cdf.size :] == cdf[-1])
        assert 0.0 < 1.0 - cdf[-1] < 3e-13
        # u up to the last entry finds the k it found in the former
        # 150,000-entry table, whose last entry was set to 1
        old = sums.copy()
        old[-1] = 1.0
        u = np.concatenate([cdf, np.nextafter(cdf, 0.0), _rng(3).uniform(cdf[0], cdf[-1], 1000)])
        assert np.array_equal(np.searchsorted(cdf, u), np.searchsorted(old, u))
        # above it, k is the first term past the table, where the old table
        # gave k = 150,000
        u = np.array([cdf[-1], np.nextafter(cdf[-1], 1.0), 1.0 - 2.0**-53])
        got = _sample_planck_x(_FixedUniforms(u), u.size)
        assert np.array_equal(got, 1.0 / np.array([cdf.size, cdf.size + 1, cdf.size + 1]))


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

    @pytest.mark.parametrize("beta", [0.3, 0.6, 0.9, 0.99, 0.999999])
    def test_included_bins_hold_normal_analytic_values(self, beta):
        # run_identity_check's bound covers the included bins only; an excluded
        # bin's analytic may be subnormal, 2.2e-320 at beta 0.99 on this grid
        v = make_boost([0.0, 0.0, beta])
        cfg = McConfig(n_samples=1_000_000, seed=42,
                       omega_prime_max=15.0 * v.gamma * (1.0 + beta))
        rep = run_identity_check(1.0, v, cfg)
        assert rep.dof > 0
        assert np.all(rep.analytic[rep.included] >= np.finfo(float).tiny)

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
        # four chunks, the last one short; 8 threads is more than chunks, so 4 run
        cfg = McConfig(n_samples=3 * _CHUNK + 17, seed=42, omega_prime_max=30.0)
        for beta in ([0.0, 0.0, 0.6], [0.0, 0.0, -0.8]):
            v = make_boost(beta)
            reports = [run_identity_check(1.0, v, cfg, n_threads=n) for n in (None, None, 1, 8)]
            assert [r.n_threads for r in reports] == [min(_usable_cpus(), 4)] * 2 + [1, 4]
            for rep in reports[1:]:
                for field in dataclasses.fields(rep):
                    a, b = getattr(reports[0], field.name), getattr(rep, field.name)
                    if isinstance(a, np.ndarray):
                        assert a.tobytes() == b.tobytes(), field.name
                    elif field.name not in ("n_threads", "timings"):
                        assert repr(a) == repr(b), field.name

    def test_stage_timings_cover_the_run(self):
        # the chunk stages add up thread-seconds, at most n_threads times the
        # wall time; the reference and the statistics run once, on the caller
        cfg = McConfig(n_samples=3 * _CHUNK + 17, seed=42, omega_prime_max=30.0)
        t0 = time.perf_counter()
        rep = run_identity_check(1.0, make_boost([0, 0, 0.6]), cfg, n_threads=2)
        wall = time.perf_counter() - t0
        stages = rep.timings
        assert sorted(stages) == ["bin", "boost", "reference", "sample", "statistics"]
        assert all(s > 0.0 for s in stages.values())
        assert stages["sample"] + stages["boost"] + stages["bin"] <= 2.0 * wall
        assert stages["reference"] + stages["statistics"] <= wall

    def test_thread_count_is_capped_at_the_chunk_count(self):
        # one chunk runs on one worker thread, however many are asked for
        v = make_boost([0, 0, 0.6])
        cfg = McConfig(n_samples=1000, seed=3, omega_prime_max=30.0)
        rep = run_identity_check(1.0, v, cfg, n_threads=100_000)
        assert rep.n_threads == 1
        assert rep.counts.tobytes() == run_identity_check(1.0, v, cfg).counts.tobytes()

    def test_chunk_working_set_stays_small(self):
        # each chunk boosts and bins its draws in blocks of _BLOCK, writing
        # the weights over the spent frequencies and the bin indices over the
        # spent cosines: the traced peak is about two arrays of _CHUNK doubles
        # plus one block's temporaries (3.1 MB), where whole-chunk temporaries
        # read 6.6 MB
        v = make_boost([0, 0, 0.6])
        cfg = McConfig(n_samples=3 * _CHUNK + 17, seed=8, omega_prime_max=40.0)
        # a small run first builds the cached tables outside the trace
        run_identity_check(1.0, v, McConfig(n_samples=10, seed=1, omega_prime_max=40.0))
        tracemalloc.start()
        try:
            run_identity_check(1.0, v, cfg, n_threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5e6

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_memory_does_not_grow_with_the_chunk_count(self, monkeypatch, n_threads):
        # each chunk builds its seed when it starts and its sums are folded as
        # it finishes, so 40 chunks hold what 8 do; a seed and a part per chunk
        # kept to the end added 0.4 MB here.  On two threads the peak is two
        # chunks' working sets at whatever phase the scheduler gives them (6.25
        # to 6.38 MB at 40 chunks), so there only the memory held once every
        # thread has ended, when the statistics are done, is compared
        v = make_boost([0, 0, 0.6])
        run_identity_check(1.0, v, McConfig(n_samples=10, seed=1, omega_prime_max=30.0))
        lap, held = montecarlo._lap, []

        def recording_lap(times, stage, since):
            if stage == "statistics":
                held.append(tracemalloc.get_traced_memory()[0])
            return lap(times, stage, since)

        monkeypatch.setattr(montecarlo, "_lap", recording_lap)

        def traced(n_chunks):
            cfg = McConfig(n_samples=n_chunks * _CHUNK, seed=3, omega_prime_max=30.0)
            tracemalloc.start()
            try:
                run_identity_check(1.0, v, cfg, n_threads=n_threads)
                return held[-1], tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (held_8, peak_8), (held_40, peak_40) = traced(8), traced(40)
        assert abs(held_40 - held_8) < 0.05e6
        if n_threads == 1:
            assert abs(peak_40 - peak_8) < 0.05e6

    @pytest.mark.parametrize("beta, n", [
        ([0.0, 0.0, 0.6], 3 * _CHUNK + 17),
        ([0.0, 0.0, -0.8], 3 * _CHUNK + 17),
        # one chunk whose last block is 3 short of _BLOCK
        ([0.0, 0.0, -0.8], _CHUNK - 3),
    ], ids=["z", "minus-z", "partial-block"])
    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_report_equals_histogram2d_recomputation(self, beta, n, n_threads):
        # rebuild the report's sums from the same chunk streams with histogram2d
        v = make_boost(beta)
        cfg = McConfig(n_samples=n, seed=8, omega_prime_max=40.0)
        rep = run_identity_check(1.0, v, cfg, n_threads=n_threads)
        bins = (rep.omega_edges, rep.mu_edges)
        sizes = [_CHUNK] * (n // _CHUNK) + [n % _CHUNK]
        h1 = h2 = counts = 0
        for child, size in zip(np.random.SeedSequence(cfg.seed).spawn(len(sizes)), sizes):
            omega, mu = sample_rest_modes(1.0, size, montecarlo._chunk_rng(child))
            om_p, mu_p, _, _ = boost_mu(omega, mu, v)
            wgt = doppler_factor(mu, v) ** 2
            sel = om_p < cfg.omega_prime_max
            args = (om_p[sel], mu_p[sel])
            h1 = h1 + np.histogram2d(*args, bins=bins, weights=wgt[sel])[0]
            h2 = h2 + np.histogram2d(*args, bins=bins, weights=wgt[sel] ** 2)[0]
            counts = counts + np.histogram2d(*args, bins=bins)[0]
        w_rest = thermal_energy_density_closed_form(1.0)
        vol = np.diff(rep.omega_edges)[:, None] * np.diff(rep.mu_edges)[None, :]
        mean_contrib = h1 / n
        estimated = w_rest * mean_contrib / (vol * 2.0 * np.pi)
        var_contrib = np.maximum(h2 / n - mean_contrib**2, 0.0)
        std_error = w_rest / (vol * 2.0 * np.pi) * np.sqrt(var_contrib / n)
        assert np.array_equal(rep.counts, counts)
        assert np.array_equal(rep.estimated, estimated)
        assert np.array_equal(rep.std_error, std_error)

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

    def test_a_report_without_bins_does_not_pass(self):
        cfg = McConfig(n_samples=100, seed=5, omega_prime_max=30.0)
        rep = run_identity_check(1.0, make_boost([0, 0, 0.6]), cfg)
        assert rep.dof == 0
        assert rep.check.passed is False
        assert rep.check.residual == math.inf

    def test_a_matching_report_passes(self):
        rep = run_identity_check(1.0, make_boost([0, 0, 0.6]), CFG_4E5)
        assert rep.dof > 50
        check = rep.check
        assert (check.name, check.passed, check.tolerance) == ("mc-identity", True, 0.5)
        assert check.residual == abs(rep.chi2_per_dof - 1.0)
        assert check.detail.startswith(f"chi2/dof = {rep.chi2_per_dof:.4f} (dof {rep.dof})")

    def test_undersized_grid_warns(self):
        cfg = McConfig(n_samples=2_000, seed=5, omega_prime_max=1.5)
        rep = run_identity_check(1.0, make_boost([0, 0, 0.6]), cfg)
        assert rep.in_grid_fraction < 0.95
        assert any("omega_prime_max" in w for w in rep.warnings)


def test_negative_seed_is_rejected_naming_its_range():
    with pytest.raises(ValueError, match=re.escape(f"{SEED_RANGE}, got -1")):
        McConfig(n_samples=100, seed=-1, omega_prime_max=30.0)
    assert McConfig(n_samples=100, seed=0, omega_prime_max=30.0).seed == 0


@pytest.mark.parametrize("seed", [1.5, 2.0, "3", True, None])
def test_non_integer_seed_is_rejected_naming_its_range(seed):
    # numpy would fail later, in SeedSequence, with a bare TypeError
    with pytest.raises(ValueError, match=re.escape(f"{SEED_RANGE}, got {seed!r}")):
        McConfig(n_samples=1000, seed=seed, omega_prime_max=20.0)
    assert McConfig(n_samples=1000, seed=np.int64(7), omega_prime_max=20.0).seed == 7


class TestEnergyRatioGate:
    """mc-identity also holds W'/W to 6 standard errors of gamma^2 (1 + beta^2/3)."""

    CFG = McConfig(n_samples=1_000_000, seed=42, omega_prime_max=15.0 * 1.25 * 1.6)

    def test_correct_weights_pass(self):
        rep = run_identity_check(1.0, make_boost([0, 0, 0.6]), self.CFG)
        assert rep.check.passed is True
        assert rep.check.detail.endswith("z_ratio = 0.27")

    def test_a_one_percent_weight_fault_fails(self, monkeypatch):
        # D^2 x 1.01 moves the histogram too little for chi2 and max|z| to see
        # it (chi2/dof 1.4898 on the exact reference), but W'/W by 16
        # standard errors
        exact = montecarlo.boost_mu

        def heavy(omega, mu, v):
            om_p, mu_p, jac_freq, d2 = exact(omega, mu, v)
            return om_p, mu_p, jac_freq, d2 * 1.01

        monkeypatch.setattr(montecarlo, "boost_mu", heavy)
        rep = run_identity_check(1.0, make_boost([0, 0, 0.6]), self.CFG)
        assert rep.check.residual <= 0.5 and rep.max_abs_z < 6.0
        assert rep.check.passed is False
        assert rep.check.detail.endswith("z_ratio = 16.08")

    def test_a_near_rest_weight_fault_fails(self, monkeypatch):
        # at beta 1e-9 the standard error of W'/W is 1.8e-12, and D^2 x
        # (1 + 1e-10) puts W'/W 55 of them off; a floor on the standard error
        # far above its true value would pass this run
        exact = montecarlo.boost_mu

        def heavy(omega, mu, v):
            om_p, mu_p, jac_freq, d2 = exact(omega, mu, v)
            return om_p, mu_p, jac_freq, d2 * (1.0 + 1e-10)

        monkeypatch.setattr(montecarlo, "boost_mu", heavy)
        rep = run_identity_check(1.0, make_boost([0, 0, 1e-9]), CFG_4E5)
        assert rep.check.residual <= 0.5 and rep.max_abs_z < 6.0
        assert rep.check.passed is False
        assert float(rep.check.detail.rsplit("= ", 1)[1]) > 50.0

    def test_the_detail_states_a_near_rest_standard_error(self):
        rep = run_identity_check(1.0, make_boost([0, 0, 1e-9]), CFG_4E5)
        assert f"+- {rep.ratio_std_error:.3g} " in rep.check.detail
        assert "+- 0.000000" not in rep.check.detail

    @pytest.mark.parametrize("beta", [0.0, 1e-9, 1e-8])
    def test_a_rounded_away_variance_still_passes(self, beta):
        # at rest every weight is 1; at 1e-9 the weights' variance, 1.3e-18,
        # is below the rounding of sums of w and w^2, so the sums run over
        # w - 1, and the standard error is the one of
        # var D^2 = gamma^4 (4 beta^2 / 3 + 4 beta^4 / 45)
        rep = run_identity_check(1.0, make_boost([0, 0, beta]), CFG_4E5)
        assert rep.check.passed is True
        g2 = 1.0 / (1.0 - beta**2)
        want = math.sqrt(g2**2 * (4.0 * beta**2 / 3.0 + 4.0 * beta**4 / 45.0) / CFG_4E5.n_samples)
        assert rep.ratio_std_error == pytest.approx(want, rel=0.05, abs=0.0)
        assert abs(float(rep.check.detail.rsplit("= ", 1)[1])) < 1.0


class TestPlainThreads:
    def test_run_paths_load_no_polynomial_module_or_thread_pool(self):
        # a fresh interpreter, so no other test has loaded either module
        code = (
            "import sys\n"
            "from relplanck import (McConfig, energy_density_moving_spectral, make_boost,\n"
            "                       run_identity_check)\n"
            "from relplanck.montecarlo import _CHUNK\n"
            "v = make_boost([0.0, 0.0, 0.6])\n"
            "energy_density_moving_spectral(1.0, make_boost([0.0, 0.0, 0.0]))\n"
            "energy_density_moving_spectral(1.0, v)\n"
            "cfg = McConfig(n_samples=_CHUNK + 1000, seed=3, omega_prime_max=24.0)\n"
            "assert run_identity_check(1.0, v, cfg, n_threads=2).n_threads == 2\n"
            "print(sorted(m for m in sys.modules if m.startswith(\n"
            "    ('numpy.polynomial', 'concurrent.futures'))))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("failing_chunk", [0, 3])
    def test_a_failing_chunk_raises_in_the_caller_after_every_thread_ends(
        self, monkeypatch, failing_chunk
    ):
        # four chunks on two threads; a chunk's stream is the seed's child
        # spawned at its index, and the failing one raises inside its thread
        cfg = McConfig(n_samples=3 * _CHUNK + 10, seed=11, omega_prime_max=24.0)
        sample = montecarlo.sample_rest_modes
        threads_used = set()

        def flaky(t, n, rng, units):
            threads_used.add(threading.current_thread())
            if rng.bit_generator.seed_seq.spawn_key == (failing_chunk,):
                raise RuntimeError("chunk failed")
            return sample(t, n, rng, units)

        monkeypatch.setattr(montecarlo, "sample_rest_modes", flaky)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="chunk failed"):
            run_identity_check(1.0, make_boost([0, 0, 0.6]), cfg, n_threads=2)
        assert set(threading.enumerate()) == before
        assert threading.current_thread() not in threads_used
        assert len(threads_used) == 2

    @pytest.mark.parametrize("n, n_threads", [(1000, None), (3 * _CHUNK + 10, 1)],
                             ids=["one-chunk", "four-chunks-one-thread"])
    def test_no_chunk_runs_on_the_calling_thread(self, monkeypatch, n, n_threads):
        # every chunk runs on a worker thread, so a run has one path whatever
        # its chunk and thread counts
        cfg = McConfig(n_samples=n, seed=11, omega_prime_max=24.0)
        sample = montecarlo.sample_rest_modes
        threads_used = []

        def recorded(t, n, rng, units):
            threads_used.append(threading.current_thread())
            return sample(t, n, rng, units)

        monkeypatch.setattr(montecarlo, "sample_rest_modes", recorded)
        before = set(threading.enumerate())
        rep = run_identity_check(1.0, make_boost([0, 0, 0.6]), cfg, n_threads=n_threads)
        assert set(threading.enumerate()) == before
        assert rep.n_threads == 1
        assert len(threads_used) == -(-n // _CHUNK)
        assert len(set(threads_used)) == 1
        assert threading.current_thread() not in threads_used

    def test_more_threads_than_cores_switching_often_give_the_serial_report(self):
        # every thread writes its own slots of one shared list; a lost or
        # misplaced result would change the sums
        cfg = McConfig(n_samples=5 * _CHUNK + 77, seed=23, omega_prime_max=24.0)
        v = make_boost([0.0, 0.0, 0.6])
        serial = run_identity_check(1.0, v, cfg, n_threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_identity_check(1.0, v, cfg, n_threads=6)
        finally:
            sys.setswitchinterval(interval)
        assert threaded.n_threads == 6
        for name in ("counts", "estimated", "std_error"):
            assert getattr(threaded, name).tobytes() == getattr(serial, name).tobytes()
        assert (threaded.chi2, threaded.ratio_estimate) == (serial.chi2, serial.ratio_estimate)
