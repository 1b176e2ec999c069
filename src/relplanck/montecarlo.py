"""Monte Carlo check of the boosted-spectrum change of variables.

Rest-frame photon modes are drawn from the normalized thermal spectrum
(frequency marginal x^3/(e^x - 1) / (pi^4/15) in units of k_B T / hbar),
pushed through the kinematic boost, and binned in the moving frame with
the weight gamma^2 (1 - khat . beta)^2.  The rest-frame field is
isotropic, so a mode enters the boost only through omega and its cosine
mu = khat . vhat, which is uniform on [-1, 1] whatever the boost
direction: the sampler draws that cosine and no azimuth.  The weighted
histogram is an unbiased estimate of the boosted thermal spectral density,
bin by bin; the unweighted total checks the energy ratio
W'/W = gamma^2 (1 + beta^2/3).

Frequency sampling is exact and rejection-free: expanding
x^3/(e^x - 1) = sum_k x^3 e^{-k x} gives a mixture in which the integer k
carries weight k^{-4}/zeta(4) and x | k is Gamma(shape 4, rate k).  The
generator is counter-based (Philox) with one spawned child stream per
fixed-size chunk.  By default the chunks run on every CPU the process may
use; each chunk's sums are reduced in chunk order, so a run is reproducible
bit for bit for a given seed whatever the number of threads.  A chunk
frees or reuses each array as soon as it is spent, so at its peak it holds
about six arrays of _CHUNK doubles.

Each draw is binned once: one flat index over the (omega', mu') grid, by
histogram2d's own edge rule, with one overflow slot for draws outside it,
and np.bincount sums the weights, their squares and the counts.  That is
the computation histogram2d does on the same draws in the same order, so
every sum equals its result bit for bit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import NATURAL, BoostVelocity, Component, UnitSystem, temperature_value
from .kinematics import boost_mu, inverse_doppler_factor
from .radiometry import expected_energy_ratio, thermal_energy_density_closed_form
from .spectrum import rho_moving_mu

__all__ = [
    "PLANCK_ENERGY_MEAN_X",
    "PLANCK_ENERGY_MEDIAN_X",
    "planck_energy_cdf",
    "sample_rest_modes",
    "McConfig",
    "McReport",
    "run_identity_check",
]

_ZETA4 = math.pi**4 / 90.0
# the partial sums of k^-4 stop growing in double precision at k = 9,741,
# 2.6e-13 short of zeta(4); this many terms reach past that
_K_SUM_TERMS = 1 << 14
_CHUNK = 1 << 17

# moments of the dimensionless thermal energy spectrum: the mean is
# Gamma(5) zeta(5) / (Gamma(4) zeta(4)) = 360 zeta(5) / pi^4, the median
# was frozen from inverting planck_energy_cdf by bisection (cross-checked
# in the tests)
PLANCK_ENERGY_MEAN_X = 360.0 * 1.0369277551433699 / math.pi**4
PLANCK_ENERGY_MEDIAN_X = 3.503018825884851


@cache
def _k_mixture_cdf() -> np.ndarray:
    """P(K <= k) of the mixture index, k = 1, 2, ... up to where it stops growing."""
    k = np.arange(1, _K_SUM_TERMS + 1, dtype=float)
    cdf = np.cumsum(k**-4.0) / _ZETA4
    # every later entry would repeat the last one
    cdf = cdf[: np.flatnonzero(cdf[1:] == cdf[:-1])[0] + 1].copy()
    cdf.setflags(write=False)
    return cdf


# below this argument P(4, y) is summed as a series: the closed form
# 1 - e^{-y}(1 + y + y^2/2 + y^3/6) cancels away two digits near y = 1
# and every digit as y -> 0
_P4_SERIES_MAX = 1.0


def _regularized_gamma4(y) -> np.ndarray:
    """P(4, y), the regularized lower incomplete gamma of shape 4, for y >= 0.

    Closed form -expm1(-y) - e^{-y} y (1 + y/2 + y^2/6) for y >= 1, series
    e^{-y} sum_{n>=4} y^n / n! below; within 6e-15 relative of a 40-digit
    evaluation on [1e-12, 1e3].  P(4, inf) = 1 and NaN propagates.
    Vectorized.
    """
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    small = y < _P4_SERIES_MAX
    ys = y[small]
    # Horner form of sum_{n=4}^{21} y^n/n! = (y^4/24)(1 + y/5 (1 + y/6 (...)));
    # the dropped remainder is below 1e-19 relative for y < 1
    s = np.ones_like(ys)
    for n in range(21, 4, -1):
        s = 1.0 + ys / n * s
    out[small] = np.exp(-ys) * ys**4 / 24.0 * s
    # P(4, y) rounds to 1 for y >= 700, where e^{-y} is still a normal
    # double: the cap maps inf to 1 without 0 * inf and keeps exp from
    # underflowing
    yl = np.minimum(y[~small], 700.0)
    out[~small] = -np.expm1(-yl) - np.exp(-yl) * yl * (1.0 + yl * (0.5 + yl / 6.0))
    return out


def planck_energy_cdf(x, n_terms: int = 200):
    """CDF of the dimensionless thermal energy spectrum x^3/(e^x - 1)/(pi^4/15).

    Exact term-by-term form: F(x) = sum_k k^-4 P(4, k x) / zeta(4) with P
    the regularized lower incomplete gamma.  Truncation error at the
    default term count is below 4e-8 absolute, so F(inf) = 1 - 3.8e-8;
    F is 0 for x <= 0 and NaN for NaN.  Vectorized.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xv = np.clip(np.atleast_1d(x), 0.0, None)
    k = np.arange(1, n_terms + 1, dtype=float)
    out = np.empty_like(xv)
    step = 4096
    for lo in range(0, xv.size, step):
        seg = xv[lo : lo + step]
        out[lo : lo + step] = (k**-4.0) @ _regularized_gamma4(np.outer(k, seg))
    out = np.clip(out / _ZETA4, 0.0, 1.0)
    return float(out[0]) if scalar else out


def _sample_planck_x(rng: np.random.Generator, n: int) -> np.ndarray:
    cdf = _k_mixture_cdf()
    u = rng.random(n)
    # searchsorted(cdf, u, side="left") is 0 exactly where u <= cdf[0]
    # (92% of draws), so only the tail is searched and divided by its k.
    # A u above cdf[-1] (probability 2.6e-13) searches past the table and
    # takes k = cdf.size + 1, the first term the table leaves out
    tail = np.flatnonzero(u > cdf[0])
    k = np.searchsorted(cdf, u[tail], side="left") + 1
    del u
    x = rng.standard_gamma(4.0, n)
    x[tail] /= k  # the other draws have k = 1
    return x


def _isotropic_directions(rng: np.random.Generator, n: int) -> np.ndarray:
    """n directions uniform on the sphere as (n, 3); draws the z cosine, then the azimuth."""
    mu = 2.0 * rng.random(n) - 1.0
    phi = 2.0 * np.pi * rng.random(n)
    s = np.sqrt(1.0 - mu**2)
    return np.stack([s * np.cos(phi), s * np.sin(phi), mu], axis=1)


def sample_rest_modes(T, n: int, rng: np.random.Generator, units: UnitSystem = NATURAL):
    """Draw n modes from the rest-frame thermal spectrum.

    Returns (omega, mu), both shaped (n,): the frequencies and the cosine
    of each direction to a fixed axis, uniform on [-1, 1] as for isotropic
    directions.  mu is drawn where _isotropic_directions draws its z
    cosine, so it equals that z component on the same stream.  Requires
    T > 0.
    """
    t = temperature_value(T)
    if t == 0.0:
        raise ValueError("thermal sampling requires T > 0")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    omega = _sample_planck_x(rng, n)
    omega *= units.k_B * t / units.hbar
    mu = rng.random(n)
    mu *= 2.0
    mu -= 1.0
    return omega, mu


@dataclass(frozen=True)
class McConfig:
    """Sample count, seed, and moving-frame binning for the identity check."""

    n_samples: int
    seed: int
    omega_prime_max: float
    n_omega_bins: int = 32
    n_mu_bins: int = 16

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if not 0.0 < self.omega_prime_max < math.inf:
            raise ValueError(
                f"omega_prime_max must be finite and positive, got {self.omega_prime_max}"
            )
        if self.n_omega_bins < 4 or self.n_mu_bins < 4:
            raise ValueError("need at least 4 bins per axis")


@dataclass(frozen=True, eq=False)
class McReport:
    """Per-bin comparison of the weighted histogram against the analytic density.

    Bins with expected occupancy below 10 are excluded from the chi-square;
    z_scores holds NaN there.  chi2_per_dof is NaN when every bin is
    excluded, which the CLI treats as a failed verification.  n_threads is
    the number of threads the chunks ran on.
    """

    config: McConfig
    omega_edges: np.ndarray
    mu_edges: np.ndarray
    counts: np.ndarray
    estimated: np.ndarray
    analytic: np.ndarray
    std_error: np.ndarray
    expected_counts: np.ndarray
    included: np.ndarray
    z_scores: np.ndarray
    chi2: float
    dof: int
    chi2_per_dof: float
    max_abs_z: float
    w_prime_estimate: float
    w_prime_std_error: float
    w_prime_expected: float
    ratio_estimate: float
    ratio_std_error: float
    ratio_expected: float
    in_grid_fraction: float
    warnings: tuple
    n_threads: int

    @property
    def n_excluded(self) -> int:
        return int(self.included.size - np.count_nonzero(self.included))


@cache
def _gauss3() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(3)


def _bin_averages(f, om_edges: np.ndarray, mu_edges: np.ndarray) -> np.ndarray:
    """Average f(omega', mu') over each rectangular bin, 3-node Gauss per axis."""
    # halves summed, not the sum halved: edges near the largest double
    # would overflow, and halving is exact for normal edges
    oc = 0.5 * om_edges[1:] + 0.5 * om_edges[:-1]
    oh = 0.5 * np.diff(om_edges)
    mc = 0.5 * (mu_edges[1:] + mu_edges[:-1])
    mh = 0.5 * np.diff(mu_edges)
    x, w = _gauss3()
    om_pts = oc[:, None] + oh[:, None] * x
    mu_pts = mc[:, None] + mh[:, None] * x
    vals = f(om_pts[:, :, None, None], mu_pts[None, None, :, :])
    w = w / 2.0
    return np.einsum("aibj,i,j->ab", vals, w, w)


def _axis_bins(edges: np.ndarray, x: np.ndarray, fold_last_edge: bool) -> np.ndarray:
    """Bin of each x on uniform edges, -1 below and n above the n bins.

    Bin b holds edges[b] <= x < edges[b + 1], the rule of
    searchsorted(edges, x, side="right") - 1; fold_last_edge also puts
    x == edges[-1] in the last bin, as histogram2d does.  The linear guess
    is off by at most one step near an edge, and the comparisons with the
    edges themselves correct it.
    """
    n = edges.size - 1
    lo, hi = edges[:-1], edges[1:]
    if fold_last_edge:
        hi = hi.copy()
        hi[-1] = np.nextafter(hi[-1], np.inf)
    guess = x - edges[0]
    guess *= n / (edges[-1] - edges[0])
    np.clip(guess, 0, n - 1, out=guess)
    b = guess.astype(np.intp)
    del guess
    below = x < lo[b]
    above = x >= hi[b]
    b -= below
    b += above
    return b


def _flat_bin_index(
    om_edges: np.ndarray, mu_edges: np.ndarray, om_p: np.ndarray, mu_p: np.ndarray
) -> np.ndarray:
    """Flat bin i_omega * n_mu + i_mu of each draw, by histogram2d's rule.

    Draws outside the grid, including om_p >= om_edges[-1], go to one
    overflow slot n_omega * n_mu; mu_p on the last edge folds into the last
    bin.  np.bincount over this index, on the same draws in the same order,
    gives histogram2d's sums bit for bit.
    """
    n_om, n_mu = om_edges.size - 1, mu_edges.size - 1
    i = _axis_bins(om_edges, om_p, fold_last_edge=False)
    j = _axis_bins(mu_edges, mu_p, fold_last_edge=True)
    outside = (i < 0) | (i >= n_om) | (j < 0) | (j >= n_mu)
    i *= n_mu
    i += j
    i[outside] = n_om * n_mu
    return i


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_identity_check(
    T,
    v: BoostVelocity,
    cfg: McConfig,
    units: UnitSystem = NATURAL,
    n_threads: int | None = None,
) -> McReport:
    """Sample, boost, weight, bin, and compare against the analytic density.

    The estimator in each moving-frame bin is W <w 1_bin> / (N vol 2 pi)
    with w = gamma^2 (1 - khat . beta)^2 and W the closed-form thermal
    energy density; its expectation is the bin average of the boosted
    thermal spectral density.  Standard errors come from the empirical
    variance of the per-draw contributions, expected bin occupancies from
    the analytic push-forward of the sampling density.

    Chunks run on n_threads threads; None means every CPU this process may
    use, capped at the chunk count.  The report is the same bit for bit
    whatever the thread count.
    """
    t = temperature_value(T)
    if t == 0.0:
        raise ValueError("the identity check runs on the thermal spectrum; T > 0 required")
    if n_threads is not None and n_threads < 1:
        raise ValueError(f"n_threads must be >= 1, got {n_threads}")

    n_total = cfg.n_samples
    om_edges = np.linspace(0.0, cfg.omega_prime_max, cfg.n_omega_bins + 1)
    mu_edges = np.linspace(-1.0, 1.0, cfg.n_mu_bins + 1)
    shape = (cfg.n_omega_bins, cfg.n_mu_bins)
    n_flat = shape[0] * shape[1]
    w_rest = thermal_energy_density_closed_form(t, units)

    n_chunks = (n_total + _CHUNK - 1) // _CHUNK
    sizes = [min(_CHUNK, n_total - i * _CHUNK) for i in range(n_chunks)]
    children = np.random.SeedSequence(cfg.seed).spawn(n_chunks)
    if n_threads is None:
        n_threads = min(_usable_cpus(), n_chunks)

    def hist(idx, weights):
        return np.bincount(idx, weights, n_flat + 1)[:n_flat].reshape(shape)

    def run_chunk(i: int):
        rng = np.random.Generator(np.random.Philox(children[i]))
        omega, mu = sample_rest_modes(t, sizes[i], rng, units)
        # the weight gamma^2 (1 - khat . beta)^2 is the solid-angle Jacobian D^2
        om_p, mu_p, jac_freq, wgt = boost_mu(omega, mu, v)
        del omega, mu, jac_freq
        idx = _flat_bin_index(om_edges, mu_edges, om_p, mu_p)
        del om_p, mu_p
        h1, s1 = hist(idx, wgt), float(wgt.sum())
        np.square(wgt, out=wgt)
        h2, s2 = hist(idx, wgt), float(wgt.sum())
        return h1, h2, hist(idx, None).astype(float), s1, s2

    if n_threads == 1:
        parts = [run_chunk(i) for i in range(n_chunks)]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            parts = list(pool.map(run_chunk, range(n_chunks)))
    # reduce in chunk order: the result must not depend on thread scheduling
    h1 = sum(p[0] for p in parts)
    h2 = sum(p[1] for p in parts)
    counts = sum(p[2] for p in parts)
    s1 = math.fsum(p[3] for p in parts)
    s2 = math.fsum(p[4] for p in parts)

    vol = np.diff(om_edges)[:, None] * np.diff(mu_edges)[None, :]
    mean_contrib = h1 / n_total
    estimated = w_rest * mean_contrib / (vol * 2.0 * np.pi)
    var_contrib = np.maximum(h2 / n_total - mean_contrib**2, 0.0)
    std_error = w_rest / (vol * 2.0 * np.pi) * np.sqrt(var_contrib / n_total)

    def density(om, mu):
        return rho_moving_mu(om, mu, v, t, Component.THERMAL, units)

    analytic = _bin_averages(density, om_edges, mu_edges)
    count_density = _bin_averages(
        lambda om, mu: density(om, mu) * inverse_doppler_factor(mu, v) ** 2, om_edges, mu_edges
    )
    expected_counts = n_total * (2.0 * np.pi / w_rest) * count_density * vol

    included = expected_counts >= 10.0
    with np.errstate(divide="ignore", invalid="ignore"):
        z_all = (estimated - analytic) / std_error
    z_scores = np.where(included, z_all, np.nan)
    z_inc = z_scores[included]
    dof = int(np.count_nonzero(included))
    chi2 = float(np.sum(z_inc**2)) if dof else 0.0
    chi2_per_dof = chi2 / dof if dof else float("nan")
    max_abs_z = float(np.max(np.abs(z_inc))) if dof else 0.0

    mean_w = s1 / n_total
    var_w = max(s2 / n_total - mean_w**2, 0.0)
    w_prime_est = w_rest * mean_w
    w_prime_se = w_rest * math.sqrt(var_w / n_total)
    ratio_expected = expected_energy_ratio(v)

    warnings = []
    n_excluded = included.size - dof
    if n_excluded:
        warnings.append(
            f"{n_excluded} of {included.size} bins excluded from chi2 (expected count < 10)"
        )
    if dof == 0:
        warnings.append("all bins excluded; no chi2 verdict possible at this sample size")
    in_grid = float(counts.sum()) / n_total
    if in_grid < 0.95:
        warnings.append(
            f"only {in_grid:.1%} of draws landed inside the omega' grid; "
            "consider raising omega_prime_max"
        )

    return McReport(
        config=cfg,
        omega_edges=om_edges,
        mu_edges=mu_edges,
        counts=counts,
        estimated=estimated,
        analytic=analytic,
        std_error=std_error,
        expected_counts=expected_counts,
        included=included,
        z_scores=z_scores,
        chi2=chi2,
        dof=dof,
        chi2_per_dof=chi2_per_dof,
        max_abs_z=max_abs_z,
        w_prime_estimate=w_prime_est,
        w_prime_std_error=w_prime_se,
        w_prime_expected=w_rest * ratio_expected,
        ratio_estimate=mean_w,
        ratio_std_error=math.sqrt(var_w / n_total),
        ratio_expected=ratio_expected,
        in_grid_fraction=in_grid,
        warnings=tuple(warnings),
        n_threads=n_threads,
    )
