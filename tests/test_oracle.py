"""The library against a 40- and 50-digit mpmath oracle, with every warning an error.

temperature_multipoles: a_0 .. a_16 of T_eff(mu') = T / (gamma (1 + beta mu'))
are a_l = (-1)^l (2l + 1) T Q_l(1/beta) / (gamma beta), with Q_l the Legendre
function of the second kind: mpmath.legenq, type 3, on the rows below, and
on 200 random beta from a fixed seed between them its forward recurrence,
run with enough extra digits and held to legenq on the rows.  Each
coefficient is held to the relative bound that
core._ERROR_BOUNDS["temperature_multipoles"] states for the branch that ran
(MultipoleCoefficients.method) and the |beta| band, each band closed above.
The rows are 1e-12, 0.3, 0.9, 0.99, s -+ 1e-6, 0.999, 0.999999 and
1 - 1e-9, with s = 1/cosh(1/16) = 0.99805 the l_max 16 switch between the
two branches of the recurrence: the backward one below it, the forward one
from it on, where 2 l_max acosh(1/beta) <= 2 (two ulps above the double
nearest s).  The backward recurrence damps each step's rounding error only
by rho^-2 with ln rho = acosh(1/beta): each ratio Q_l / Q_{l-1} is within
3 eps, but their errors are correlated and add up in the product that
gives a_l, so the error of the l >= 1 coefficients grows towards the
switch.  On 12,400 random beta, weighted to the top of each band, the
worst measured is 2.5e-15 up to 0.9 (at 0.8958), 7.0e-15 up to 0.99 (at
0.9892), 1.5e-14 below the switch (at 0.99797), 3.5e-15 above it and
2.2e-15 from 0.999 on (at 0.99914); scripts/bound_sweep.py reads the same
entry.  The oracle takes the library's own |beta|, so only the
evaluation is tested, not the input's rounding.

rho_rest, rho_moving_mu, rho_moving_pullback_mu and u_moving (thermal
parts): 50-digit values of
pref omega^3 2 / (e^z - 1), with z = hbar D omega / (k_B T), and of its
closed-form integral over mu', on T = 1e-3, 1 and 1e3 in natural units and
300 K in SI, beta in {0, 0.6, 0.999999, 1 - 1e-9}, mu' in
{+-1, +-(1 - 1e-12), 0} and x = hbar omega / (k_B T) from 1e-300 to 700;
and at T = 1e5 in natural units, beta 0.6 and mu' = 0.5, where each
function's z is 720, 745 and 750: e^{-z} is subnormal or 0 there, but the
density is a normal double.  Each value is held to its function's entry
of core._ERROR_BOUNDS, a relative bound times 1 + z, wherever the density
is a normal double; for u_moving z is the hottest direction's
gamma (1 - |beta|) x.  The factor 1 + z is the condition number of the
Planck law: a rounding of hbar omega / k_B T moves the density by z times
as much.  With eps = 2^-52, the worst measured on this grid is 1.8 eps
(1 + z) for rho_rest, 2.5 for rho_moving_mu, 3.0 for
rho_moving_pullback_mu and 2.8 for u_moving, and 0.72 on the rows past
z = 708.  On 20,000 random points up to z = 800 (scripts/bound_sweep.py,
seeds 0 and 1, 10^4 each, T over the whole domain) the worst is 2.6, 2.7,
3.3 and 3.7 eps (1 + z) in the same order.  The pull-back divides its
prefactor by D^3 before the assembly: dividing the assembled density
instead reads 3.1e6 eps (1 + z) at T = 1, beta 1 - 1e-9, mu' = -1,
x = 3e-152, where pref s (D omega')^2 is subnormal.  The points at
x = 600 .. 700 in SI hold u_moving to a density near 1e-294, which an
assembly with a subnormal intermediate flushes to 0.
The oracle takes the library's pref, k_B, hbar and |beta|.

effective_temperature_mu, boost_mu and the correlation route's W'/W: on
the same temperatures and cosines (mu' for the first, the rest-frame mu
for boost_mu), at the betas of both grids above, each along z and along
the oblique axis (1, -2, 2) / 3; boost_mu takes the frequencies of the
density grid.  Each is held to its function's entry of core._ERROR_BOUNDS:
boost_mu's holds omega', jac_freq = 1 / D and D^2 relatively and mu'
absolutely, because mu - |beta| cancels near mu = |beta|.  The worst
that scripts/bound_sweep.py measures on 20,000 random points (seeds 0
and 1, 10^4 each) is 2.1, 2.0, 1.9, 3.8 and 1.6 eps (eps = 2^-52) for
T_eff, omega', jac_freq, D^2 and mu'.  The correlation W'/W reads 3.9e-16
at worst on this grid and 7.5e-16 (3.4 eps) on 140,000 random boosts:
the ratio is a correctly rounded sum of the field boost's squared
entries, so what is left is the rounding of gamma, which W'/W doubles.

Both W'/W routes, against 50-digit gamma^2 (1 + beta^2 / 3): on every boost
above at the four density temperatures, and on 200 random boosts from a
fixed seed (uniform axis; |beta| uniform or 1 - 10^U(-9, 0); natural units
at T in [1e-3, 1e3] or SI at [1, 1e4] K).  Each route is held to its
entry of core._ERROR_BOUNDS, and the spectral route's reported error
estimate must cover its actual error on W' and meet its tolerance.  Worst
measured: 1.2e-15 on the grid, 1.3e-15 on these 200 and 1.8e-15 on
100,000 random boosts (scripts/bound_sweep.py, seeds 1-5), with the
actual error at most 0.16 of the estimate.

The Monte Carlo reference, McReport.analytic: bin averages of the thermal
rho' on mc-verify's default grid (32 x 16 bins, omega' up to
15 gamma (1 + beta) k_B T / hbar) at T = 1 natural and 300 K SI, against a
40-digit mpmath quadrature over omega' of the closed-form mu' integral, at
beta 0, 1e-12, 0.6, 0.99 and 1 - 1e-9, each held to
core._ERROR_BOUNDS["run_identity_check"].  The closed form itself is held
to mpmath's quadrature over mu' at one omega' per bin.  The bins are the
populated ones; the worst measured elsewhere on these grids is 1.1e-8 in
the first bin at 1 - 1e-9 (omega' from 0, mu' from -1 to -0.875, where D
spans 8 decades and the density goes like omega'^2 ln omega' near 0) and
4e-10 in first omega' bins whose rule the reference cuts short.
"""

import mpmath
import numpy as np
import pytest

from relplanck import (
    NATURAL,
    Component,
    McConfig,
    UnitSystem,
    boost_mu,
    effective_temperature_mu,
    energy_density_moving_correlation,
    energy_density_moving_spectral,
    expected_energy_ratio,
    make_boost,
    rho_moving_mu,
    rho_moving_pullback_mu,
    run_identity_check,
    rho_rest,
    spectral_prefactor,
    temperature_multipoles,
    u_moving,
)
from relplanck.core import _ERROR_BOUNDS as BOUNDS

pytestmark = pytest.mark.filterwarnings("error")

L_MAX = 16
L_MAX_SWITCH = 1.0 / np.cosh(1.0 / L_MAX)
MULTIPOLE_BETAS = [1e-12, 0.3, 0.9, 0.99, L_MAX_SWITCH - 1e-6, L_MAX_SWITCH + 1e-6, 0.999,
                   0.999999, 1.0 - 1e-9]


def _random_multipole_betas(n=200, seed=4001) -> np.ndarray:
    """n |beta| from a fixed seed, a fifth uniform in each of [0, 0.9), [0.9, 0.99),
    [0.99, s), [s, 0.999) and 1 - 10^U(-9, -3)."""
    rng = np.random.default_rng(seed)
    bands = [(0.0, 0.9), (0.9, 0.99), (0.99, L_MAX_SWITCH), (L_MAX_SWITCH, 0.999)]
    betas = [rng.uniform(lo, hi, n // 5) for lo, hi in bands]
    return np.concatenate([*betas, 1.0 - 10.0 ** rng.uniform(-9.0, -3.0, n - 4 * (n // 5))])


def _legenq_over_t(beta: float) -> list:
    """a_l / T for l = 0 .. L_MAX at 40 digits, from mpmath.legenq."""
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        gamma_beta = b / mpmath.sqrt(1 - b * b)
        return [
            (-1) ** l * (2 * l + 1) * mpmath.legenq(l, 0, 1 / b, type=3).real / gamma_beta
            for l in range(L_MAX + 1)
        ]


def _recurrence_over_t(beta: float, l_max: int = L_MAX) -> list:
    """a_l / T for l = 0 .. l_max at 40 digits, from Q_0 = atanh(beta),
    Q_1 = Q_0 / beta - 1 and the forward recurrence in 1/beta.

    The recurrence loses (2 l + 1) log10 rho digits to the growing solution,
    so it runs with that many more; a hundred times faster than legenq.
    scripts/bound_sweep.py imports it, as it does _u_moving_over_cube.
    """
    rho = (1.0 + np.sqrt(1.0 - beta * beta)) / beta
    with mpmath.workdps(40 + int(np.ceil((2 * l_max + 1) * np.log10(rho)))):
        b = mpmath.mpf(beta)
        q = [mpmath.atanh(b), mpmath.atanh(b) / b - 1]
        for l in range(1, l_max):
            q.append(((2 * l + 1) * q[l] / b - l * q[l - 1]) / (l + 1))
        gamma_beta = b / mpmath.sqrt(1 - b * b)
        return [(-1) ** l * (2 * l + 1) * q[l] / gamma_beta for l in range(l_max + 1)]


def _assert_multipoles_match(v, want, temperatures):
    for t in temperatures:
        got = temperature_multipoles(v, t, L_MAX)
        # the band of the branch that ran
        bound = next(b for edge, b in BOUNDS["temperature_multipoles"][got.method]
                     if v.beta_mag <= edge)
        for l in range(L_MAX + 1):
            exact = t * want[l]
            assert abs(got.a[l] - exact) <= bound * abs(exact), (v.beta_mag, t, l)


@pytest.mark.parametrize("beta", MULTIPOLE_BETAS, ids=repr)
def test_multipoles_match_mpmath(beta):
    v = make_boost([0.0, 0.0, beta])
    want = _legenq_over_t(v.beta_mag)
    # the faster oracle of the random rows agrees with legenq
    with mpmath.workdps(40):
        fast = _recurrence_over_t(v.beta_mag)
        assert all(abs(r - w) <= 1e-30 * abs(w) for r, w in zip(fast, want))
    _assert_multipoles_match(v, want, (1e-3, 2.725, 1e3))


def test_multipoles_match_mpmath_between_the_rows():
    for beta in _random_multipole_betas():
        v = make_boost([0.0, 0.0, beta])
        _assert_multipoles_match(v, _recurrence_over_t(v.beta_mag), (2.725,))


DENSITY_CASES = [(1e-3, NATURAL), (1.0, NATURAL), (1e3, NATURAL), (300.0, UnitSystem.si())]
DENSITY_BETAS = [0.0, 0.6, 0.999999, 1.0 - 1e-9]
DENSITY_MUS = [-1.0, -(1.0 - 1e-12), 0.0, 1.0 - 1e-12, 1.0]
DENSITY_X = np.concatenate(
    [np.geomspace(1e-300, 1e-3, 11), np.geomspace(3e-3, 50.0, 18), np.arange(100.0, 701.0, 50.0)]
)
TINY, HUGE = np.finfo(float).tiny, np.finfo(float).max


def _ln_1m_exp(u):
    """ln(1 - e^{-u}) without cancellation at either end: at 50 digits a plain
    log reads 0 past u of about 115, and log1p(-e^{-u}) loses every digit
    below u of about 1e-50."""
    return mpmath.log(-mpmath.expm1(-u)) if u < 1 else mpmath.log1p(-mpmath.exp(-u))


def _u_moving_over_cube(x, b, gamma):
    """u_moving's thermal part over pref omega'^3, at x = hbar omega' / k_B T:
    4 pi 2 / (e^x - 1) at rest, else 2 pi (2 / (gamma beta x))
    ln[(1 - e^{-gamma (1 + beta) x}) / (1 - e^{-gamma (1 - beta) x})]."""
    if b == 0:
        return 4 * mpmath.pi * 2 / mpmath.expm1(x)
    log_ratio = _ln_1m_exp(gamma * (1 + b) * x) - _ln_1m_exp(gamma * (1 - b) * x)
    return 2 * mpmath.pi * 2 / (gamma * b * x) * log_ratio


def _check(route, got, want, z):
    """1 if got is within route's bound, times 1 + z, of want; 0, unchecked,
    unless want is a normal double."""
    if not TINY <= want <= HUGE:
        return 0
    bound = BOUNDS[route.__name__]["times_1_plus_z"]
    assert abs(float(got) - want) <= bound * (1 + z) * want, (float(got), want, z)
    return 1


@pytest.mark.parametrize("t,units", DENSITY_CASES, ids=["1e-3", "1", "1e3", "si-300K"])
def test_densities_match_mpmath(t, units):
    pref = spectral_prefactor(units)
    scale = units.k_B * t / units.hbar
    om = DENSITY_X * scale
    checked = 0
    with mpmath.workdps(50):
        pref_mp = mpmath.mpf(pref)
        s = mpmath.mpf(units.k_B) * t / mpmath.mpf(units.hbar)
        x = [mpmath.mpf(o) / s for o in om]
        cube = [pref_mp * mpmath.mpf(o) ** 3 for o in om]
        got = rho_rest(om, t, Component.THERMAL, units)
        for g, xi, p in zip(got, x, cube):
            checked += _check(rho_rest, g, p * 2 / mpmath.expm1(xi), float(xi))
        for beta in DENSITY_BETAS:
            v = make_boost([0.0, 0.0, beta])
            b = mpmath.mpf(v.beta_mag)
            gamma = 1 / mpmath.sqrt(1 - b * b)
            for mu in DENSITY_MUS:
                d = gamma * (1 + b * mpmath.mpf(mu))
                for route in (rho_moving_mu, rho_moving_pullback_mu):
                    got = route(om, mu, v, t, Component.THERMAL, units)
                    for g, xi, p in zip(got, x, cube):
                        checked += _check(route, g, p * 2 / mpmath.expm1(d * xi), float(d * xi))
            got = u_moving(om, v, t, Component.THERMAL, units)
            for g, xi, p in zip(got, x, cube):
                want = p * _u_moving_over_cube(xi, b, gamma)
                checked += _check(u_moving, g, want, float(gamma * (1 - b) * xi))
    assert checked >= 800


@pytest.mark.parametrize("z", [720.0, 745.0, 750.0], ids=repr)
@pytest.mark.parametrize("route", [rho_rest, rho_moving_mu, rho_moving_pullback_mu, u_moving],
                         ids=lambda route: route.__name__)
def test_densities_match_mpmath_where_e_to_the_minus_z_is_subnormal(route, z):
    # at T 1e5 (natural units) the thermal densities are normal doubles up
    # to z of about 758, though e^{-z} is subnormal past 708 and 0 past 745.2;
    # each route runs at the frequency where its z is the row's: D x at
    # mu' = 0.5, and the hottest direction's gamma (1 - |beta|) x for u_moving
    t, mu = 1e5, 0.5
    v = make_boost([0.0, 0.0, 0.6])
    args = {rho_rest: (), u_moving: (v,)}.get(route, (mu, v))
    with mpmath.workdps(50):
        b = mpmath.mpf(v.beta_mag)
        gamma = 1 / mpmath.sqrt(1 - b * b)
        d = {rho_rest: 1, u_moving: gamma * (1 - b)}.get(route, gamma * (1 + b * mpmath.mpf(mu)))
        om = t * z / float(d)
        x = mpmath.mpf(om) / t
        cube = mpmath.mpf(spectral_prefactor()) * mpmath.mpf(om) ** 3
        if route is u_moving:
            want = cube * _u_moving_over_cube(x, b, gamma)
        else:
            want = cube * 2 / mpmath.expm1(d * x)
        got = route(om, *args, t, Component.THERMAL)
        assert _check(route, got, want, float(d * x)) == 1


def test_u_moving_matches_mpmath_at_a_tiny_beta():
    # 2a = 2 gamma |beta| x is subnormal here: the logarithm of its lost digits
    # missed the bound 6.1e4-fold.  40 + |log10 beta| + |log10 x| digits
    beta, x = 9.52e-162, 2.38e-153
    with mpmath.workdps(360):
        b, xm = mpmath.mpf(beta), mpmath.mpf(x)
        gamma = 1 / mpmath.sqrt(1 - b * b)
        want = mpmath.mpf(spectral_prefactor()) * xm**3 * _u_moving_over_cube(xm, b, gamma)
        got = u_moving(x, make_boost([0.0, 0.0, beta]), 1.0, Component.THERMAL)
        assert _check(u_moving, got, want, float(gamma * (1 - b) * xm)) == 1


ORACLE_BETAS = sorted(set(MULTIPOLE_BETAS) | set(DENSITY_BETAS))
AXES = {"z": np.array([0.0, 0.0, 1.0]), "oblique": np.array([1.0, -2.0, 2.0]) / 3.0}


def _boosts():
    """(v, |beta|, gamma) at every oracle beta on both axes, |beta| and gamma at 50 digits."""
    for axis in AXES.values():
        for beta in ORACLE_BETAS:
            v = make_boost(beta * axis)
            b = mpmath.mpf(v.beta_mag)
            yield v, b, 1 / mpmath.sqrt(1 - b * b)


@pytest.mark.parametrize("t,units", DENSITY_CASES, ids=["1e-3", "1", "1e3", "si-300K"])
def test_effective_temperature_and_boost_match_mpmath(t, units):
    bound = BOUNDS["boost_mu"]
    om = DENSITY_X * units.k_B * t / units.hbar
    checked = 0
    with mpmath.workdps(50):
        om_mp = [mpmath.mpf(o) for o in om]
        for v, b, gamma in _boosts():
            for mu in DENSITY_MUS:
                m = mpmath.mpf(mu)
                want = t / (gamma * (1 + b * m))
                got = effective_temperature_mu(mu, v, t)
                assert abs(got - want) <= BOUNDS["effective_temperature_mu"] * want
                d = gamma * (1 - b * m)
                om_p, mu_p, jac_freq, d2 = boost_mu(om, mu, v)
                assert abs(float(mu_p) - (m - b) / (1 - b * m)) <= bound["mu_prime_absolute"]
                assert abs(float(jac_freq) - 1 / d) <= bound["jac_freq"] / d
                assert abs(float(d2) - d * d) <= bound["jac_solid_angle"] * d * d
                for g, o in zip(om_p, om_mp):
                    exact = o * d
                    if exact >= TINY:
                        assert abs(g - exact) <= bound["omega_prime"] * exact, (float(o), mu)
                        checked += 1
    assert checked >= 3000


def test_correlation_ratio_matches_mpmath():
    with mpmath.workdps(50):
        for v, b, gamma in _boosts():
            want = gamma**2 * (1 + b * b / 3)
            got = energy_density_moving_correlation(1.0, v).ratio
            assert abs(got - want) <= BOUNDS["energy_density_moving_correlation"] * want, (
                v.beta_mag, got)


def _grid_cases():
    """(v, T, units) at every oracle boost and density temperature."""
    for v, _, _ in _boosts():
        for t, units in DENSITY_CASES:
            yield v, t, units


def _random_cases(n=200, seed=3701):
    """(v, T, units) of n boosts on uniformly random axes: |beta| uniform or
    1 - 10^U(-9, 0), natural units at T in [1e-3, 1e3] or SI at [1, 1e4] K."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        beta = rng.random() if rng.random() < 0.5 else 1.0 - 10.0 ** rng.uniform(-9.0, 0.0)
        axis = rng.normal(size=3)
        v = make_boost(beta * axis / np.linalg.norm(axis))
        if rng.random() < 0.5:
            yield v, 10.0 ** rng.uniform(-3.0, 3.0), NATURAL
        else:
            yield v, 10.0 ** rng.uniform(0.0, 4.0), UnitSystem.si()


@pytest.mark.parametrize("cases", [_grid_cases, _random_cases], ids=["grid", "random"])
def test_energy_ratio_routes_match_mpmath(cases):
    # the spectral route's reported estimate covers its actual error on W'
    # and meets its tolerance
    checked = 0
    with mpmath.workdps(50):
        for v, t, units in cases():
            b = mpmath.mpf(v.beta_mag)
            want = (1 + b * b / 3) / (1 - b * b)
            spec = energy_density_moving_spectral(t, v, units)
            err = abs(spec.ratio - want)
            assert err <= BOUNDS["energy_density_moving_spectral"] * want, (v.beta_mag, spec.ratio)
            assert float(err) * spec.W_rest <= spec.error_estimate <= spec.tolerance, v.beta_mag
            corr = energy_density_moving_correlation(t, v, units).ratio
            assert abs(corr - want) <= BOUNDS["energy_density_moving_correlation"] * want, (
                v.beta_mag, corr)
            checked += 1
    assert checked >= 88


def test_expected_ratio_is_correctly_rounded():
    # the grid's boosts and 2,000 random |beta|: uniform, 1 - 10^U(-9, 0) and
    # 10^U(-12, 0), along random axes; 50 digits round to the nearest double
    rng = np.random.default_rng(3901)
    u = rng.random(2000)
    betas = np.concatenate((u[:700], 1.0 - 10.0 ** (-9.0 * u[700:1400]),
                            10.0 ** (-12.0 * u[1400:])))
    axes = rng.normal(size=(betas.size, 3))
    boosts = [v for v, _, _ in _boosts()]
    boosts += [make_boost(b * a / np.linalg.norm(a)) for b, a in zip(betas, axes)]
    with mpmath.workdps(50):
        for v in boosts:
            b = mpmath.mpf(v.beta_mag)
            want = float((3 + b * b) / (3 * (1 - b * b)))
            assert expected_energy_ratio(v) == want, v.beta_mag


# (omega' bin, mu' bin) per beta on mc-verify's default 32 x 16 grid
MC_REFERENCE_BINS = {
    0.0: [(0, 0), (5, 0), (2, 7), (0, 15), (10, 3)],
    1e-12: [(0, 0), (5, 0), (2, 7), (0, 15), (10, 3)],
    0.6: [(0, 0), (5, 0), (2, 7), (0, 15), (10, 3)],
    0.99: [(0, 0), (1, 0), (5, 0)],
    1.0 - 1e-9: [(1, 0), (5, 0)],
}


def _bin_average_oracle(v, x_lo, x_hi, mu_a, mu_b):
    """The average of x^3 2 / (e^{D x} - 1) over [x_lo, x_hi] x [mu_a, mu_b] at 40 digits."""
    with mpmath.workdps(40):
        b = mpmath.mpf(v.beta_mag)
        gamma = 1 / mpmath.sqrt(1 - b * b)
        lo, hi, a, c = map(mpmath.mpf, (x_lo, x_hi, mu_a, mu_b))
        d_a, d_b = gamma * (1 + b * a), gamma * (1 + b * c)

        def mu_integral(x):  # x^3 integral of 2 / (e^{D x} - 1) over [mu_a, mu_b]
            if b == 0:
                return x**3 * 2 / mpmath.expm1(x) * (c - a)
            return x**2 * 2 * (_ln_1m_exp(d_b * x) - _ln_1m_exp(d_a * x)) / (gamma * b)

        mid = (lo + hi) / 2
        direct = mid**3 * mpmath.quad(lambda m: 2 / mpmath.expm1(gamma * (1 + b * m) * mid), [a, c])
        # at beta 1e-12 the log difference cancels 12 of the 40 digits
        assert abs(mu_integral(mid) - direct) <= mpmath.mpf(10) ** -20 * direct
        # the integrand falls off like e^{-D x}: split where it has fallen
        cuts = sorted({p for d in (d_a, d_b) for p in (lo + k / d for k in (1, 4, 16, 64))
                       if lo < p < hi})
        return mpmath.quad(mu_integral, [lo, *cuts, hi]) / ((hi - lo) * (c - a))


@pytest.mark.parametrize("beta", MC_REFERENCE_BINS, ids=repr)
def test_monte_carlo_reference_matches_mpmath(beta):
    v = make_boost([0.0, 0.0, beta])
    for t, units in ((1.0, NATURAL), (300.0, UnitSystem.si())):
        s = units.k_B * t / units.hbar
        cfg = McConfig(n_samples=1000, seed=1, omega_prime_max=15.0 * v.gamma * (1.0 + beta) * s)
        rep = run_identity_check(t, v, cfg, units)
        x_edges = rep.omega_edges / s
        for i, j in MC_REFERENCE_BINS[beta]:
            want = spectral_prefactor(units) * s**3 * _bin_average_oracle(
                v, x_edges[i], x_edges[i + 1], rep.mu_edges[j], rep.mu_edges[j + 1])
            got = rep.analytic[i, j]
            assert abs(got - want) <= BOUNDS["run_identity_check"] * want, (
                t, i, j, got, float(want))
