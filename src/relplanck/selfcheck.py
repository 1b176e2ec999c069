"""Deterministic self-test battery behind the `selftest` CLI subcommand.

Each check exercises one identity the package is built around and reports
a residual against a tolerance.  Randomized sweeps use a fixed seed, so a
given build either always passes or always fails, and each check draws
from its own stream, keyed by the seed and the check function's name, so
adding or deleting a check moves no other residual.  The battery has 18
checks; quick=True skips the two statistically expensive Monte Carlo
checks and runs the other 16.  None integrates a zero-point energy, which
is infinite without a cutoff: coth-amplitude checks the zero-point
amplitude pointwise instead, at T = 0 and T > 0.
"""

from __future__ import annotations

import dataclasses
import math
from functools import cache

import numpy as np

from . import kinematics, montecarlo, radiometry, spectrum
from .core import NATURAL, CheckResult, Component, UnitSystem, _check_count, make_boost

__all__ = ["CheckResult", "run_selfcheck"]


def _result(name: str, residual: float, tolerance: float, detail: str = "") -> CheckResult:
    residual = float(residual)
    return CheckResult(name, bool(residual <= tolerance), residual, float(tolerance), detail)


# each mode-map or field check runs _N_MODES random modes (or field pairs)
# through each of _N_BOOSTS random boosts: 512 pairs, one array call per boost
_N_BOOSTS = 8
_N_MODES = 64


def _random_boosts(rng: np.random.Generator, n: int, beta_max: float = 0.99):
    b = beta_max * rng.random(n) ** 0.5
    return [make_boost(bi * d) for bi, d in zip(b, montecarlo._isotropic_directions(rng, n))]


def _mode_sweep(rng: np.random.Generator, beta_max: float = 0.99):
    """Yield (v, omega, khat, mu = khat . vhat) per random boost, over its own random modes."""
    for v in _random_boosts(rng, _N_BOOSTS, beta_max):
        omega = 10.0 ** rng.uniform(-2.0, 2.0, _N_MODES)
        khat = montecarlo._isotropic_directions(rng, _N_MODES)
        yield v, omega, khat, np.clip(khat @ v.vhat, -1.0, 1.0)


def _half_angle_mu(mu, v):
    """Boosted cosine from tan(theta'/2) = sqrt((1 + beta)/(1 - beta)) tan(theta/2).

    Shares no code with kinematics.aberrate_mu, so checks that compare the
    two see a fault in either.
    """
    k = math.sqrt((1.0 + v.beta_mag) / (1.0 - v.beta_mag))
    return np.cos(2.0 * np.arctan(k * np.tan(0.5 * np.arccos(mu))))


def _check_gamma_identity(rng) -> CheckResult:
    worst = 0.0
    for v in _random_boosts(rng, 200):
        worst = max(worst, abs(v.gamma**2 * (1.0 - v.beta_mag**2) - 1.0))
    return _result("gamma-identity", worst, 1e-12, "gamma^2 (1 - beta^2) = 1")


def _check_coth_amplitude(rng) -> CheckResult:
    # pref omega^3 coth(hbar omega / 2 k_B T) from np.tanh, with pref formed
    # here: no code is shared with spectrum._density, so a fault in the
    # zero-point amplitude or in the split cannot cancel.  The residual
    # measured over 2000 seeds is at most 8.9e-16
    omega = 10.0 ** rng.uniform(-3.0, 3.0, 500)
    T = 10.0 ** rng.uniform(-2.0, 2.0)
    worst = 0.0
    for units in (NATURAL, UnitSystem.si()):
        om = omega * (units.k_B / units.hbar)  # the same hbar omega / k_B in both systems
        om3 = units.hbar / (2.0 * math.pi * units.c) ** 3 * om**3
        for t, want in ((T, om3 / np.tanh(units.hbar * om / (2.0 * units.k_B * T))), (0.0, om3)):
            got = spectrum.rho_rest(om, t, units=units)
            worst = max(worst, float(np.max(np.abs(got - want) / want)))
    return _result(
        "coth-amplitude", worst, 4e-15, "total = pref omega^3 coth(hbar omega / 2 k_B T), T >= 0"
    )


def _check_mode_roundtrip(rng) -> CheckResult:
    worst = 0.0
    for v, omega, _, mu in _mode_sweep(rng):
        om_p, mu_p, _, _ = kinematics.boost_mu(omega, mu, v)
        # the reversed boost measures cosines along -vhat, going in and coming out
        om_b, mu_b, _, _ = kinematics.boost_mu(om_p, -mu_p, v.reversed())
        worst = max(worst, np.max(np.abs(om_b - omega) / omega), np.max(np.abs(mu_b + mu)))
    return _result("mode-roundtrip", worst, 1e-12, "boost then inverse boost")


def _check_jacobian_freq(rng) -> CheckResult:
    worst = 0.0
    for v, omega, _, mu in _mode_sweep(rng, 0.95):
        # reciprocity: boost_mu's 1 / (gamma (1 - beta mu)) must equal
        # gamma (1 + beta mu') at the aberrated cosine
        jac_freq = kinematics.boost_mu(omega, mu, v)[2]
        num = kinematics.inverse_doppler_factor(kinematics.aberrate_mu(mu, v), v)
        worst = max(worst, np.max(np.abs(jac_freq - num) / num))
    return _result("jacobian-freq", worst, 1e-12, "d omega/d omega' = 1/(d omega'/d omega)")


def _check_jacobian_solid_angle(rng) -> CheckResult:
    worst = 0.0
    for v, omega, _, mu in _mode_sweep(rng, 0.95):
        # fourth-order central difference; the step follows the local Doppler
        # denominator, which keeps truncation and rounding near 1e-12, far
        # below the 1e-8-sized change a wrong aberration makes in the Jacobian
        h = 3e-4 * (1.0 - v.beta_mag * mu)
        inside = np.abs(mu) + 2.0 * h < 1.0
        omega, mu, h = omega[inside], mu[inside], h[inside]

        def diff(step):
            return _half_angle_mu(mu + step, v) - _half_angle_mu(mu - step, v)

        num = (8.0 * diff(h) - diff(2.0 * h)) / (12.0 * h)  # d mu'/d mu, the inverse Jacobian
        # boost_mu's D^2, and 1 / (gamma (1 + beta mu'))^2 at the aberrated cosine
        for jac_solid_angle in (
            kinematics.boost_mu(omega, mu, v)[3],
            kinematics.inverse_doppler_factor(kinematics.aberrate_mu(mu, v), v) ** -2,
        ):
            worst = max(worst, np.max(np.abs(jac_solid_angle - 1.0 / num) * num, initial=0.0))
    return _result(
        "jacobian-solid-angle", worst, 1e-10, "central difference of half-angle aberration"
    )


def _check_lightcone(rng) -> CheckResult:
    worst = 0.0
    for v, omega, khat, mu in _mode_sweep(rng):
        om_p = kinematics.boost_mu(omega, mu, v)[0]
        k = omega[:, None] * khat  # c = 1
        kpar = k @ v.vhat
        k_perp = k - kpar[:, None] * v.vhat  # unchanged by the boost
        kvec = k_perp + (v.gamma * (kpar - v.beta_mag * omega))[:, None] * v.vhat
        worst = max(worst, np.max(np.abs(np.linalg.norm(kvec, axis=1) - om_p) / omega))
    return _result("lightcone", worst, 1e-12, "omega' = c |k'| from the raw wavevector boost")


def _check_field_invariants(rng) -> CheckResult:
    worst = 0.0
    for v in _random_boosts(rng, _N_BOOSTS):
        # stacked (E, B) rows through the matrix the correlation route uses
        E, B = rng.normal(size=(_N_MODES, 3)), rng.normal(size=(_N_MODES, 3))
        eb = np.concatenate((E, B), axis=1) @ kinematics._field_boost_matrix(v).T
        Ep, Bp = eb[:, :3], eb[:, 3:]
        scale = np.sum(E**2 + B**2, axis=1)
        inv1 = np.sum(E**2 - B**2, axis=1) - np.sum(Ep**2 - Bp**2, axis=1)
        inv2 = np.sum(E * B, axis=1) - np.sum(Ep * Bp, axis=1)
        worst = max(worst, np.max(np.abs(inv1) / scale), np.max(np.abs(inv2) / scale))
    return _result("field-invariants", worst, 1e-10, "E^2 - B^2 and E.B preserved")


def _check_aberration_bounds(rng) -> CheckResult:
    worst = 0.0
    for v, _, _, mu in _mode_sweep(rng):
        mu_p = kinematics.aberrate_mu(mu, v)
        # k_perp is boost-invariant, so |khat'_perp| = sin(theta) omega/omega'
        perp = np.sqrt((1.0 - mu) * (1.0 + mu)) / kinematics.doppler_factor(mu, v)
        worst = max(worst, np.max(np.abs(np.hypot(perp, mu_p) - 1.0)), np.max(np.abs(mu_p)) - 1.0)
    return _result("aberration-bounds", worst, 1e-12, "|khat'| = 1 and |mu'| <= 1")


def _check_pullback_identity(rng) -> CheckResult:
    omega = 10.0 ** rng.uniform(-2.0, 2.0, 400)
    mu = 2.0 * rng.random(400) - 1.0
    worst = 0.0
    for beta in (0.0, 0.1, 0.6, 0.99):
        v = make_boost([0.0, 0.0, beta])
        a = spectrum.rho_moving_mu(omega, mu, v, 1.0)
        b = spectrum.rho_moving_pullback_mu(omega, mu, v, 1.0)
        worst = max(worst, float(np.max(np.abs(a - b) / a)))
    return _result("pullback-identity", worst, 1e-12, "explicit form vs pulled-back rest form")


def _check_occupation_invariance(rng) -> CheckResult:
    worst = 0.0
    for v, omega, _, mu in _mode_sweep(rng):
        om_p, mu_p, _, _ = kinematics.boost_mu(omega, mu, v)
        # pulled back along the half-angle cosine, so a wrong mu_p cannot cancel
        om_b = kinematics.boost_mu(om_p, -_half_angle_mu(mu, v), v.reversed())[0]
        lhs = spectrum.rho_moving_mu(om_p, mu_p, v, 1.0) / om_p**3
        rhs = spectrum.rho_rest(om_b, 1.0) / om_b**3
        worst = max(worst, np.max(np.abs(lhs - rhs) / rhs))
    return _result("occupation-invariance", worst, 1e-12, "rho/omega^3 equal along the mode map")


@cache
def _gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's n-node Gauss-Legendre rule, built once, read-only; not the library's constants."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _check_direction_integral(rng) -> CheckResult:
    omega = 10.0 ** rng.uniform(-2.0, 2.0, 50)
    # 64 nodes converge the mu' rule to rounding for beta <= 0.9
    mu, w = _gauss_legendre(64)
    worst = 0.0
    for beta, t in ((0.0, 1.0), (0.3, 0.5), (0.6, 1.0), (0.9, 2.0), (0.6, 0.0)):
        v = make_boost([0.0, 0.0, beta])
        # the thermal part alone, so the zero-point part cannot mask it
        comp = Component.THERMAL if t > 0.0 else Component.TOTAL
        rho = spectrum.rho_moving_mu(omega[:, None], mu, v, t, comp)
        quad = 2.0 * np.pi * (rho @ w)
        closed = spectrum.u_moving(omega, v, t, comp)
        worst = max(worst, float(np.max(np.abs(closed - quad) / closed)))
    return _result(
        "direction-integral", worst, 1e-12, "closed-form u'(omega') vs Gauss-Legendre in mu'"
    )


def _projected_multipoles(v, T, l_max: int, n_nodes: int) -> np.ndarray:
    """a_l = (2l + 1)/2 integral T_eff(mu') P_l(mu') d mu' on n_nodes Gauss-Legendre nodes.

    The reference for spectrum.temperature_multipoles, sharing no code with
    it; the error decays like rho^{-2 n_nodes}, ln rho = acosh(1/beta), to a
    floor near 1e-14 T.
    """
    x, w = _gauss_legendre(n_nodes)
    teff = spectrum.effective_temperature_mu(x, v, T)
    vander = np.polynomial.legendre.legvander(x, l_max)
    return (2.0 * np.arange(l_max + 1) + 1.0) / 2.0 * (vander.T @ (w * teff))


def _check_multipoles(rng) -> CheckResult:
    worst = 0.0
    for beta in (1e-3, 0.123, 0.6, 0.9):
        v = make_boost([0.0, 0.0, beta])
        closed = spectrum.temperature_multipoles(v, 1.0, 4).a
        # 64 nodes converge the projection to rounding for beta <= 0.9
        projected = _projected_multipoles(v, 1.0, 4, 64)
        worst = max(worst, float(np.max(np.abs(closed - projected))))
    v = make_boost([0.0, 0.0, 1e-3])
    coeff = spectrum.temperature_multipoles(v, 1.0, 1)
    worst = max(worst, abs(coeff.a[1] + 1e-3))
    gate = _result(
        "multipoles", worst, 1e-9, "closed form vs Gauss-Legendre projection; dipole -> -beta T"
    )
    # past the l_max 16 switch the forward branch runs; the backward one is
    # accurate there too, to about 1e-14 after its 619 steps.  The 1e-9
    # above is set by the dipole's residual (1.0e-10), so this relative
    # difference has its own tolerance
    v = make_boost([0.0, 0.0, 0.9995])
    forward = spectrum.temperature_multipoles(v, 1.0, 16)
    backward, _ = spectrum._backward_recurrence(1.0, v, 16)
    branches = float(np.max(np.abs(forward.a / backward - 1.0)))
    return dataclasses.replace(
        gate,
        passed=gate.passed and forward.method == "forward-recurrence" and branches <= 1e-13,
        detail=f"{gate.detail}; forward vs backward recurrence {branches:.1e} (tol 1e-13)",
    )


def _check_stefan_boltzmann(rng) -> CheckResult:
    # the spectral route's W' at rest, against pi^2 (k_B T)^4 / (15 hbar^3 c^3)
    # formed here, so that a fault in radiometry's W cannot cancel
    worst = 0.0
    for t, units in ((0.5, NATURAL), (1.0, NATURAL), (3.0, NATURAL), (300.0, UnitSystem.si())):
        rep = radiometry.energy_density_moving_spectral(t, make_boost([0.0, 0.0, 0.0]), units)
        exact = math.pi**2 * (units.k_B * t) ** 4 / (15.0 * units.hbar**3 * units.c**3)
        worst = max(worst, abs(rep.ratio - 1.0), abs(rep.W_moving - exact) / exact)
    # the residual is 5.5e-16; a 1e-10 fault in pi^2/15 must fail
    return _result("stefan-boltzmann", worst, 1e-13, "spectral W' at rest vs pi^2 T^4/15")


def _check_route_agreement(rng) -> CheckResult:
    worst = 0.0
    for beta in (0.0, 0.3, 0.6, 0.9, 0.9999, 1.0 - 1e-9):
        v = make_boost([0.0, 0.0, beta])
        spec = radiometry.energy_density_moving_spectral(1.0, v)
        corr = radiometry.energy_density_moving_correlation(1.0, v)
        expect = radiometry.expected_energy_ratio(v)
        worst = max(
            worst,
            abs(spec.ratio - corr.ratio) / expect,
            abs(spec.ratio - expect) / expect,
            abs(corr.ratio - expect) / expect,
        )
    # the residual is 1.4e-15; a 1e-10 fault in the closed form must fail
    return _result(
        "route-agreement", worst, 1e-13, "spectral vs correlation vs gamma^2(1 + beta^2/3)"
    )


def _check_quadrature_honesty(rng) -> CheckResult:
    def planck(om, n):  # om^n / (e^om - 1), as om^(n - 1) times the pair's f h h, halved
        f, h = spectrum._x_occupation(om)
        return om ** (n - 1) * f * h * h / 2.0

    cases = [
        (lambda om: planck(om, 3), math.pi**4 / 15.0),
        (lambda om: om**3 * np.exp(-om), 6.0),
        (lambda om: planck(om, 4), 24.886266123440878),
    ]
    worst = 0.0
    honest = True
    for f, exact in cases:
        r = radiometry.integrate_semi_infinite(f)
        err = abs(r.value - exact)
        worst = max(worst, err / exact)
        honest = (honest and err <= max(r.error_estimate, 1e-13 * exact)
                  and r.error_estimate <= r.tolerance)
    res = _result("quadrature-honesty", worst, 1e-9, "known integrals within reported error")
    if not honest:
        return CheckResult(res.name, False, res.residual, res.tolerance,
                           "error estimate too small or above its tolerance")
    return res


def _check_mc_determinism(rng) -> CheckResult:
    # one chunk, so one thread; tests/test_montecarlo.py pins the thread invariance
    cfg = montecarlo.McConfig(n_samples=20_000, seed=7, omega_prime_max=24.0)
    v = make_boost([0.0, 0.0, 0.6])
    a = montecarlo.run_identity_check(1.0, v, cfg)
    b = montecarlo.run_identity_check(1.0, v, cfg)
    same = np.array_equal(a.estimated, b.estimated) and np.array_equal(a.counts, b.counts)
    return CheckResult("mc-determinism", same, float(not same), 0.0, "same seed, same report")


def _check_sampler_moments(rng) -> CheckResult:
    n = 400_000
    gen = montecarlo._chunk_rng(np.random.SeedSequence(int(rng.integers(2**31))))
    omega, mu = montecarlo.sample_rest_modes(1.0, n, gen)
    se_mean = float(np.std(omega)) / math.sqrt(n)
    z_mean = abs(float(np.mean(omega)) - montecarlo.PLANCK_ENERGY_MEAN_X) / se_mean
    frac = float(np.mean(omega < montecarlo.PLANCK_ENERGY_MEDIAN_X))
    z_med = abs(frac - 0.5) / (0.5 / math.sqrt(n))
    z_dir = abs(float(np.mean(mu))) / (1.0 / math.sqrt(3.0 * n))
    worst = max(z_mean, z_med, z_dir)
    return _result("sampler-moments", worst, 5.0, "mean, median and isotropy within 5 sigma")


def _check_mc_identity(rng) -> CheckResult:
    v = make_boost([0.0, 0.0, 0.6])
    cfg = montecarlo.McConfig(n_samples=400_000, seed=int(rng.integers(2**31)), omega_prime_max=24.0)
    rep = montecarlo.run_identity_check(1.0, v, cfg)
    # the report's own gate, on enough bins to mean something
    gate = rep.check
    return dataclasses.replace(gate, passed=gate.passed and rep.dof >= 50)


_QUICK_CHECKS = (
    _check_gamma_identity,
    _check_coth_amplitude,
    _check_mode_roundtrip,
    _check_jacobian_freq,
    _check_jacobian_solid_angle,
    _check_lightcone,
    _check_field_invariants,
    _check_aberration_bounds,
    _check_pullback_identity,
    _check_occupation_invariance,
    _check_direction_integral,
    _check_multipoles,
    _check_stefan_boltzmann,
    _check_route_agreement,
    _check_quadrature_honesty,
    _check_mc_determinism,
)
_HEAVY_CHECKS = (_check_sampler_moments, _check_mc_identity)


def run_selfcheck(quick: bool = False, seed: int = 1234) -> list[CheckResult]:
    """Run the whole battery; returns one CheckResult per check.

    quick=True skips the statistically heavy sampler checks, leaving a
    battery that runs in well under a second.  Raises ValueError unless
    the seed is an integer >= 0.
    """
    _check_count(seed, "seed")
    checks = _QUICK_CHECKS if quick else _QUICK_CHECKS + _HEAVY_CHECKS
    return [c(np.random.default_rng([seed, *c.__name__.encode()])) for c in checks]
