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

Frequency sampling is exact and rejection-free: expanding x^3/(e^x - 1) =
sum_k x^3 e^{-k x} gives a mixture in which the integer k carries weight
k^{-4}/zeta(4) and x | k is Gamma(shape 4, rate k).  Each fixed-size chunk
draws from SFC64 (named in _chunk_rng only) on its own seed, built when
the chunk starts: chunk i's SeedSequence(seed, spawn_key=(i,)) is
SeedSequence(seed).spawn(n)[i].  The chunks run on plain threads, one per
CPU in the process's affinity set (run under taskset to use fewer) and at
most one per chunk, never on the calling thread; each thread takes the
lowest chunk not yet taken.  As the chunks finish, their sums are folded
into running sums in chunk order, so memory does not grow with N and a
run is reproducible bit for bit for a given seed whatever the number of
threads.  A chunk draws all
its frequencies and cosines at once, then boosts and bins them in blocks
of _BLOCK draws: each block's weight D^2 overwrites its spent frequencies
and its flat bin index its spent cosines.  So a chunk holds two arrays
of _CHUNK doubles plus one block's temporaries, which fit in a core's L2
cache, and its sums run over the whole chunk as one pass would.

The reference bin averages are exact in mu', by u_moving's kernel on each
bin's [mu_a, mu_b], and take 20-node Gauss-Legendre in omega': 1.1e-8
off 40-digit mpmath at worst (tests/test_oracle.py).  The expected counts, a
threshold only, take 2-node Gauss-Legendre in mu' on the same nodes.

Each draw is binned once: one flat index over the (omega', mu') grid, by
histogram2d's own edge rule, with one overflow slot for draws outside it,
and np.bincount sums the weights, their squares and the counts.  That is
the computation histogram2d does on the same draws in the same order, so
every sum equals its result bit for bit.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import (
    _N_MODES_CAP, _N_SAMPLES_CAP, NATURAL, BoostVelocity, CheckResult, UnitSystem, _check_count,
    _check_omega, _thermal_temperature,
)
from .kinematics import boost_mu
from .radiometry import _GL20_HALF, expected_energy_ratio, thermal_energy_density_closed_form
from .spectrum import (
    _direction_integrated_x_occupation, _x_occupation, effective_temperature_mu,
    spectral_prefactor,
)

__all__ = [
    "PLANCK_ENERGY_MEAN_X",
    "PLANCK_ENERGY_MEDIAN_X",
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
# draws per boost-and-bin block: its half-dozen temporaries, 128 KiB each,
# fit in a 2 MiB L2 cache
_BLOCK = 1 << 14
# _reference peaks at about 180 doubles per bin: 95 MB at this cap
_MAX_BINS = 1 << 16
# _reference's rules stop where u = D omega' / s has grown by this much: past 30 lies
# 1e-10 of a bin, and the poles at u = 2 pi i hold 20 nodes to 1e-9 (6e-5 at 16)
_SPAN_OMEGA, _SPAN_MU = 30.0, 3.0

# moments of the dimensionless thermal energy spectrum: the mean is
# Gamma(5) zeta(5) / (Gamma(4) zeta(4)) = 360 zeta(5) / pi^4, the median
# was frozen by bisection on the CDF sum_k k^-4 P(4, k x) / zeta(4), with P
# the regularized lower incomplete gamma (the tests check it against
# scipy's)
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
    T > 0 and an integer 1 <= n <= 10^8 (README, "Domain").
    """
    t = _thermal_temperature(T)
    _check_count(n, "n", _N_MODES_CAP, low=1)
    omega = _sample_planck_x(rng, n)
    omega *= units.k_B * t / units.hbar
    mu = rng.random(n)
    mu *= 2.0
    mu -= 1.0
    return omega, mu


@dataclass(frozen=True)
class McConfig:
    """Sample count, seed, and moving-frame binning for the identity check (README, "Domain")."""

    n_samples: int
    seed: int
    omega_prime_max: float
    n_omega_bins: int = 32
    n_mu_bins: int = 16

    def __post_init__(self):
        _check_count(self.n_samples, "n_samples", _N_SAMPLES_CAP, low=1)
        _check_count(self.seed, "seed")
        _check_omega(self.omega_prime_max, "omega_prime_max")
        if self.omega_prime_max == 0.0:
            raise ValueError("omega_prime_max must be > 0")
        _check_count(self.n_omega_bins, "n_omega_bins", low=4)
        _check_count(self.n_mu_bins, "n_mu_bins", low=4)
        if self.n_omega_bins * self.n_mu_bins > _MAX_BINS:
            raise ValueError(f"need at most {_MAX_BINS} bins in all, "
                             f"got {self.n_omega_bins} x {self.n_mu_bins}")


@dataclass(frozen=True, eq=False)
class McReport:
    """Per-bin comparison of the weighted histogram against the analytic density.

    Bins with expected occupancy below 10 are excluded from the chi-square:
    z_scores holds NaN there, and core._ERROR_BOUNDS["run_identity_check"]
    does not cover analytic there, which may be subnormal or 0 (2.2e-320 at
    beta 0.99, N 1e6, seed 42).  chi2_per_dof is NaN when every bin is
    excluded, and the check then fails.  n_threads is the number of threads
    the chunks ran on.  timings holds each stage's seconds, which vary run to
    run; sample, boost and bin (index and sums) are summed over the chunks.
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
    timings: dict

    @property
    def n_excluded(self) -> int:
        return int(self.included.size - np.count_nonzero(self.included))

    @property
    def check(self) -> CheckResult:
        """The gate, mc-identity: residual |chi2/dof - 1| <= 0.5 (inf without bins), max|z| < 6,
        and |z_ratio| < 6 for W'/W against gamma^2 (1 + beta^2/3).

        At rest every weight is 1 and the standard error is 0, so z_ratio
        divides by at least 2 ulps of the expected W'/W, its rounding.
        """
        residual = abs(self.chi2_per_dof - 1.0) if self.dof else math.inf
        se = max(self.ratio_std_error, 2.0 * math.ulp(self.ratio_expected))
        z_ratio = (self.ratio_estimate - self.ratio_expected) / se
        detail = (f"chi2/dof = {self.chi2_per_dof:.4f} (dof {self.dof}), "
                  f"max|z| = {self.max_abs_z:.2f}, W'/W = {self.ratio_estimate:.6f} "
                  f"+- {self.ratio_std_error:.3g} (expected {self.ratio_expected:.6f}), "
                  f"z_ratio = {z_ratio:.2f}")
        passed = residual <= 0.5 and self.max_abs_z < 6.0 and abs(z_ratio) < 6.0
        return CheckResult("mc-identity", bool(passed), residual, 0.5, detail)


def _reference(om_edges, mu_edges, v: BoostVelocity, t: float, units: UnitSystem):
    """Each bin's average of the thermal density rho' and of rho' D^2, the density of draws.

    rho' is the Planck law at T_eff = T / D.  With y = hbar omega' / k_B T,
    pref s^3 y^2 times the kernel is rho' integrated over the mu' bin, taken
    on 20 Gauss-Legendre nodes in omega'; rho' D^2 takes 2 nodes in u = D y.
    """
    s = units.k_B * t / units.hbar
    x, w = np.array(_GL20_HALF)
    # the rule on [0, 1], nodes ascending, weights summing to 1
    x, w = 0.5 + 0.5 * np.concatenate((-x[::-1], x)), 0.5 * np.concatenate((w[::-1], w))
    # (mu' bin, omega' bin, node): mu'-only factors broadcast over long loops
    mu_a, mu_b = mu_edges[:-1, None, None], mu_edges[1:, None, None]
    d_a = t / effective_temperature_mu(mu_a, v, t)
    width = np.diff(om_edges)[:, None]
    span = np.minimum(width, _SPAN_OMEGA * s / d_a)
    y = (om_edges[:-1, None] + span * x) / s
    f, h = _direction_integrated_x_occupation(y, v, mu_a, mu_b)
    rho_mu = y * y * f * h * h
    # over pref s^3, rho' D^2 over mu' is integral u^2 2 / (e^u - 1) du / (gamma |beta|),
    # with u^2 / (e^u - 1) = u f h h / 2 from u's pair (f, h)
    g_b = v.gamma * v.beta_mag
    u_a, du = d_a * y, np.minimum(g_b * (mu_b - mu_a) * y, _SPAN_MU)
    nodes = 0.5 + np.array([-0.5, 0.5]) / math.sqrt(3.0)
    occ = sum(u * f * h * h / 2.0 for u in (u_a + node * du for node in nodes)
              for f, h in [_x_occupation(u)])
    rho_d2 = occ * (du / g_b if g_b else y * (mu_b - mu_a))
    scale = spectral_prefactor(units) * s**3 * span[..., 0].T / width / np.diff(mu_edges)
    return np.einsum("bai,i->ab", rho_mu, w) * scale, np.einsum("bai,i->ab", rho_d2, w) * scale


def _chunk_rng(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    """The generator one chunk draws from: SFC64, seeded by the chunk's SeedSequence child."""
    return np.random.Generator(np.random.SFC64(seed_seq))


def _lap(times: dict, stage: str, since: float) -> float:
    """Adds the perf_counter seconds since `since` to times[stage]; returns the time now."""
    now = time.perf_counter()
    times[stage] = times.get(stage, 0.0) + (now - since)
    return now


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
    below = x < lo.take(b)
    above = x >= hi.take(b)
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
    # -1 viewed as unsigned is the largest value, so one comparison per axis
    outside = i.view(np.uintp) >= n_om
    outside |= j.view(np.uintp) >= n_mu
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
    energy density; its expectation is McReport.analytic, the bin average
    of the boosted thermal density (core._ERROR_BOUNDS["run_identity_check"],
    tests/test_oracle.py).  Standard errors come from the per-draw variance,
    expected bin occupancies from the push-forward of the sampling density.

    Chunks run on n_threads worker threads, None meaning every CPU this
    process may use; either is capped at the chunk count, and no chunk runs
    on the calling thread.  The report is the same bit for bit whatever the
    thread count.  An exception in a chunk is raised here once every thread
    has ended: the one of the lowest failed chunk.
    """
    t = _thermal_temperature(T)
    if n_threads is not None:
        _check_count(n_threads, "n_threads", low=1)

    n_total = cfg.n_samples
    om_edges = np.linspace(0.0, cfg.omega_prime_max, cfg.n_omega_bins + 1)
    mu_edges = np.linspace(-1.0, 1.0, cfg.n_mu_bins + 1)
    shape = (cfg.n_omega_bins, cfg.n_mu_bins)
    n_flat = shape[0] * shape[1]
    w_rest = thermal_energy_density_closed_form(t, units)
    ratio_expected = expected_energy_ratio(v)
    # no draw enters the reference; before the chunks its caches are warm
    times, t0 = dict.fromkeys(("sample", "boost", "bin"), 0.0), time.perf_counter()
    vol = np.diff(om_edges)[:, None] * np.diff(mu_edges)[None, :]
    analytic, count_density = _reference(om_edges, mu_edges, v, t, units)
    expected_counts = n_total * (2.0 * np.pi / w_rest) * count_density * vol
    _lap(times, "reference", t0)

    n_chunks = (n_total + _CHUNK - 1) // _CHUNK
    # on the calling thread, which so imports numpy.random before any chunk's thread
    # does; an import there grew that thread's malloc arena (0.8 MB of peak RSS)
    root = np.random.SeedSequence(cfg.seed)
    # at most one thread per chunk
    n_threads = min(_usable_cpus() if n_threads is None else n_threads, n_chunks)

    def hist(idx, weights):
        return np.bincount(idx, weights, n_flat + 1)[:n_flat].reshape(shape)

    def run_chunk(i: int):
        chunk_times, t0 = {}, time.perf_counter()
        size = min(_CHUNK, n_total - i * _CHUNK)
        # root.spawn(n_chunks)[i], built as spawn builds it, when the chunk starts
        rng = _chunk_rng(np.random.SeedSequence(root.entropy, spawn_key=(i,)))
        omega, mu = sample_rest_modes(t, size, rng, units)
        t0 = _lap(chunk_times, "sample", t0)
        # each block's weight overwrites its spent omega and its bin index its
        # spent mu; int64 has float64's itemsize on every platform, intp not
        wgt, idx = omega, mu.view(np.int64)
        s1 = s2 = 0.0
        for lo in range(0, size, _BLOCK):
            blk = slice(lo, lo + _BLOCK)
            # the weight gamma^2 (1 - khat . beta)^2 is the solid-angle Jacobian D^2
            om_p, mu_p, _, wgt[blk] = boost_mu(omega[blk], mu[blk], v)
            t0 = _lap(chunk_times, "boost", t0)
            idx[blk] = _flat_bin_index(om_edges, mu_edges, om_p, mu_p)
            dev = wgt[blk] - 1.0  # sums of w and w^2 cancel where w's variance is below eps
            s1 += float(dev.sum())
            s2 += float(np.square(dev, out=dev).sum())
            t0 = _lap(chunk_times, "bin", t0)
        h1 = hist(idx, wgt)
        h2 = hist(idx, np.square(wgt, out=wgt))
        counts = hist(idx, None).astype(float)
        _lap(chunk_times, "bin", t0)
        return h1, h2, counts, s1, s2, chunk_times

    lock = threading.Lock()
    taken = 0
    # finished[i] holds chunk i's sums until every chunk before it is folded
    finished, failed = {}, {}
    hists, s1s, s2s = [0, 0, 0], [], []

    def work():
        nonlocal taken
        while True:
            with lock:
                if taken == n_chunks:
                    return
                i, taken = taken, taken + 1
            try:
                part = run_chunk(i)
            except BaseException as exc:  # re-raised in the caller
                with lock:
                    failed[i] = exc
                return
            with lock:
                if failed:  # the run raises; a chunk not yet taken lies above the failed one
                    return
                finished[i] = part
                # fold in chunk order: the sums must not depend on thread scheduling
                while len(s1s) in finished:
                    *sums, s1, s2, chunk_times = finished.pop(len(s1s))
                    hists[:] = [h + p for h, p in zip(hists, sums)]
                    s1s.append(s1)
                    s2s.append(s2)
                    for stage, seconds in chunk_times.items():
                        times[stage] += seconds

    # a single chunk too runs on a thread of its own, never on the caller's
    threads = [threading.Thread(target=work) for _ in range(n_threads)]
    try:
        for th in threads:
            th.start()
    finally:
        for th in threads:
            if th.ident is not None:
                th.join()
    if failed:
        raise failed[min(failed)]
    t0 = time.perf_counter()
    h1, h2, counts = hists
    s1, s2 = math.fsum(s1s), math.fsum(s2s)

    mean_contrib = h1 / n_total
    estimated = w_rest * mean_contrib / (vol * 2.0 * np.pi)
    var_contrib = np.maximum(h2 / n_total - mean_contrib**2, 0.0)
    std_error = w_rest / (vol * 2.0 * np.pi) * np.sqrt(var_contrib / n_total)

    included = expected_counts >= 10.0
    with np.errstate(divide="ignore", invalid="ignore"):
        z_all = (estimated - analytic) / std_error
    z_scores = np.where(included, z_all, np.nan)
    z_inc = z_scores[included]
    dof = int(np.count_nonzero(included))
    chi2 = float(np.sum(z_inc**2)) if dof else 0.0
    chi2_per_dof = chi2 / dof if dof else float("nan")
    max_abs_z = float(np.max(np.abs(z_inc))) if dof else 0.0

    mean_w = 1.0 + s1 / n_total
    var_w = max(s2 / n_total - (s1 / n_total) ** 2, 0.0)
    w_prime_est = w_rest * mean_w
    w_prime_se = w_rest * math.sqrt(var_w / n_total)

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
    _lap(times, "statistics", t0)

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
        timings=times,
    )
