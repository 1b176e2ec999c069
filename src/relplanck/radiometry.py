"""Frequency quadrature, the rest-frame field correlation, and energy densities.

Semi-infinite frequency integrals go through the substitution
omega = s t / (1 - t) (s a characteristic scale of the integrand) and one
fixed rule on t in [0, 1]: 32 uniform panels, each valued with 15-node
Gauss-Legendre and its error estimated from the difference against a
7-node rule, all 704 nodes in one call of the integrand.  Both rules are
constants, numpy's leggauss(15) and leggauss(7) bit for bit (a test holds
them to it), so no integral builds a rule.  The panels' nodes,
half-widths, 1 - t and (1 - t)^2 are the same for every integral and are
tabulated on first use.  Every thermal kernel in the accepted domain meets
the tolerance max(1e-14, 1e-10 |value|) on these panels.  The integrator
returns its value with its error estimate and that tolerance, whether or
not the estimate meets it; the spectral route's report states the verdict
as a check record.  The estimate is deliberately conservative; tests hold the
integrator to |value - exact| <= reported error on known integrals.
Thermal integrals run in x = hbar omega / (k_B T), so the integrator's
absolute tolerance is relative to the integrand at any temperature and in
any unit system.

The rest-frame thermal energy density W is the Stefan-Boltzmann closed form
pi^2 (k_B T)^4 / (15 hbar^3 c^3) of thermal_energy_density_closed_form in
both routes below; energy_density_rest is its quadrature check.  Each
route computes the scale-free ratio W'/W and reports W' = W W'/W; inside
the input domain of core (README, "Domain") W and W' are normal doubles.
The two routes are genuinely different and must agree:

  * spectral: integrate the boosted thermal spectral density, analytically
    over direction (the closed-form u'(omega') of spectrum.u_moving) and by
    one quadrature over x, the only one either route runs;
  * correlation: Lorentz-transform the rest-frame field.  C is the 6x6
    equal-point correlation of (E, B) per unit scale, which isotropy and
    the absence of polarization fix in closed form as (8 pi / 3) I_6, and
    L the 6x6 field boost of kinematics._field_boost_matrix, so

        W'/W = tr(L C L^T) / tr(C).

Both must land on the closed form W'/W = gamma^2 (1 + beta^2 / 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import kinematics
from .core import NATURAL, BoostVelocity, CheckResult, UnitSystem, temperature_value
from .spectrum import _direction_integrated_x_occupation, _x_occupation, spectral_prefactor

__all__ = [
    "QuadratureResult",
    "integrate_semi_infinite",
    "EnergyDensityReport",
    "energy_density_rest",
    "energy_density_moving_spectral",
    "energy_density_moving_correlation",
    "thermal_energy_density_closed_form",
    "expected_energy_ratio",
]


# the integrator's tolerance: |error| <= max(_ABS_TOL, _REL_TOL |value|)
_REL_TOL = 1e-10
_ABS_TOL = 1e-14
# 32 panels on [0, 1]: the fewest (of 8, 16, 24, 32) on which both thermal
# kernels, x^3 n(x) and the direction-integrated moving one up to
# beta = 1 - 1e-9, meet the tolerance
_N_PANELS = 32
_PI2_15 = math.pi**2 / 15.0


@dataclass(frozen=True)
class QuadratureResult:
    """The value, its error estimate and the tolerance the estimate was held to."""

    value: float
    error_estimate: float
    n_panels: int
    n_evaluations: int
    tolerance: float


# the nonnegative halves of the 15- and 7-node Gauss-Legendre rules, node 0
# first: the floats numpy.polynomial.legendre.leggauss returns, which a test
# holds them to bit for bit, so no run builds a rule or calls LAPACK
_GL15_HALF = (
    (0.0, 0.20119409399743451, 0.3941513470775634, 0.5709721726085388,
     0.7244177313601701, 0.8482065834104272, 0.9372733924007058, 0.9879925180204854),
    (0.2025782419255613, 0.1984314853271116, 0.1861610000155622, 0.16626920581699398,
     0.13957067792615444, 0.10715922046717141, 0.0703660474881084, 0.030753241996117203),
)
_GL7_HALF = (
    (0.0, 0.4058451513773972, 0.7415311855993945, 0.9491079123427586),
    (0.4179591836734693, 0.3818300505051187, 0.27970539148927687, 0.12948496616886973),
)


def _mirrored(half: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The nodes, ascending, and weights of a symmetric odd-order rule from its nonnegative half."""
    x, w = (np.array(a) for a in half)
    return np.concatenate((-x[:0:-1], x)), np.concatenate((w[:0:-1], w))


@cache
def _gl_rules() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nodes, GL15 weights, GL7 weights) on [-1, 1].

    nodes holds both rules' nodes, GL15 then GL7, so one call of the
    integrand values a panel for both.
    """
    (x15, w15), (x7, w7) = _mirrored(_GL15_HALF), _mirrored(_GL7_HALF)
    return np.concatenate((x15, x7)), w15, w7


@cache
def _rest_correlation() -> tuple[np.ndarray, float]:
    """The rest-frame 6x6 equal-point correlation <(E, B)(E, B)^T> per unit scale, and its trace.

    A plane wave along khat has E transverse and B = khat x E, so the
    polarization-averaged E-E and B-B blocks are the transverse tensor
    delta_jm - khat_j khat_m and the E-B block is eps_jml khat_l.  Over
    isotropic directions the first integrates to (8 pi / 3) delta_jm and the
    second, odd in khat, to 0, so C = (8 pi / 3) I_6 with trace 16 pi.  The
    trace is taken as the boosted trace at L = I, so the ratio is exactly 1
    at rest.  Read-only; it does not depend on T.
    """
    corr = (8.0 * math.pi / 3.0) * np.eye(6)
    corr.setflags(write=False)
    return corr, _boosted_trace(np.eye(6), corr)


def _boosted_trace(boost: np.ndarray, corr: np.ndarray) -> float:
    """tr(L C L^T), as the dot product of L C with L."""
    return float(np.vdot(boost @ corr, boost))


@cache
def _seed_panels() -> tuple[np.ndarray, ...]:
    """(t, half, 1 - t, (1 - t)^2) of the 32 panels on [0, 1], every panel's 22 nodes flat, read-only."""
    edges = np.linspace(0.0, 1.0, _N_PANELS + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[:-1] + edges[1:])
    t = (mid[:, None] + half[:, None] * _gl_rules()[0]).ravel()
    one_m = 1.0 - t
    tables = (t, half, one_m, one_m**2)
    for arr in tables:
        arr.setflags(write=False)
    return tables


def integrate_semi_infinite(f, *, scale: float = 1.0) -> QuadratureResult:
    """Integrate f(omega) over (0, infinity) on the 32-panel rule.

    f must accept a 1-D numpy array and work elementwise; it is called
    once, on all 704 nodes.  ``scale`` sets the map omega = s t/(1 - t);
    pick the integrand's characteristic frequency (k_B T / hbar for thermal
    kernels) so the panels straddle the peak.  The integrand must decay
    fast enough for the mapped integral to be finite.

    The error estimate is the summed |GL15 - GL7|, and the tolerance
    max(1e-14, 1e-10 |value|); the result is returned whether or not the
    estimate meets it.
    """
    s = float(scale)
    if not (math.isfinite(s) and s > 0.0):
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    t, half, one_m, one_m2 = _seed_panels()
    _, w15, w7 = _gl_rules()
    # f at omega = s t / (1 - t), weighted by d omega / dt = s / (1 - t)^2
    y = (f(s * t / one_m) * (s / one_m2)).reshape(half.size, -1)
    v15 = half * (y[:, :15] @ w15)
    v7 = half * (y[:, 15:] @ w7)
    # fsum rounds correctly, so the panels' order does not matter; it reads
    # a list faster than an array
    value = math.fsum(v15.tolist())
    error = math.fsum(np.abs(v15 - v7).tolist())
    return QuadratureResult(value, error, _N_PANELS, t.size, max(_ABS_TOL, _REL_TOL * abs(value)))


@dataclass(frozen=True)
class EnergyDensityReport:
    """Rest and moving-frame energy densities from one computation route.

    A route that runs a quadrature for W_moving also states its reported
    error bound on W_moving, its panel and evaluation counts, and the
    tolerance the bound was held to, on W_moving's scale; the correlation
    route runs none and leaves them None.
    """

    W_rest: float
    W_moving: float
    ratio: float
    method: str
    error_estimate: float | None = None
    n_panels: int | None = None
    n_evaluations: int | None = None
    tolerance: float | None = None

    @property
    def check(self) -> CheckResult | None:
        """The quadrature verdict, error estimate <= tolerance (NaN fails); None with no quadrature."""
        if self.tolerance is None:
            return None
        return CheckResult("quadrature", bool(self.error_estimate <= self.tolerance),
                           self.error_estimate, self.tolerance,
                           f"W' on {self.n_panels} panels, {self.n_evaluations} evaluations")


def thermal_energy_density_closed_form(T, units: UnitSystem = NATURAL) -> float:
    """pi^2 (k_B T)^4 / (15 hbar^3 c^3), the closed-form thermal energy density.

    Both W' routes take it as W, energy_density_rest must reproduce it by
    quadrature, and the Monte Carlo sampler uses it as the normalization of
    the thermal spectrum.  Raises ValueError at T = 0, where W = 0 cannot
    normalize a ratio, and for a T outside the domain (README, "Domain").
    """
    t = temperature_value(T)
    if t == 0.0:
        raise ValueError("the thermal energy density W is 0 at T = 0; T > 0 required")
    return _PI2_15 * (units.k_B * t) ** 4 / (units.hbar * units.c) ** 3


def expected_energy_ratio(v: BoostVelocity) -> float:
    """Closed-form W'/W for the thermal component: gamma^2 (1 + beta^2/3)."""
    return v.gamma**2 * (1.0 + v.beta_mag**2 / 3.0)


def _report(w_rest: float, ratio: float, method: str, *quadrature) -> EnergyDensityReport:
    """The report for W' = W ratio."""
    w_moving = w_rest * ratio
    return EnergyDensityReport(w_rest, w_moving, w_moving / w_rest, method, *quadrature)


def energy_density_rest(T, units: UnitSystem = NATURAL) -> float:
    """Thermal energy density of the rest-frame field, by quadrature.

    It is the quadrature check of the Stefan-Boltzmann closed form
    thermal_energy_density_closed_form, which both W' routes take as W.
    The integral runs in x = hbar omega / (k_B T), where the kernel is O(1)
    at any temperature and in any unit system, and is scaled by
    (k_B T / hbar)^4 after.  No zero-point energy is computed: its spectral
    density grows as omega^3 and integrates to infinity, and a cutoff would
    make it depend on the cutoff, not on T.  The zero-point part's frame
    independence is checked pointwise instead, by spectrum.rho_moving_mu
    and u_moving.  Only the value is returned; the selftest holds it to
    the closed form.
    """
    t = temperature_value(T)
    if t == 0.0:
        return 0.0
    # integral x^3 2 / (e^x - 1) dx, as x^2 times x times the occupation
    freq = integrate_semi_infinite(lambda x: x**2 * _x_occupation(x)).value
    s = units.k_B * t / units.hbar
    return 4.0 * np.pi * spectral_prefactor(units) * s**4 * freq


def energy_density_moving_spectral(T, v: BoostVelocity, units: UnitSystem = NATURAL) -> EnergyDensityReport:
    """W' by integrating the boosted thermal spectral density.

    The direction integral is analytic (the thermal part of
    spectrum.u_moving); one quadrature I over x = hbar omega' / (k_B T)
    remains, on the scale of the hottest direction,
    1 / (gamma (1 - |beta|)).  With s = k_B T / hbar, W' = 2 pi pref s^4 I
    and W = 4 pi pref s^4 J, J = integral x^3 2 / (e^x - 1) dx = 2 pi^4 / 15,
    so W'/W = 15 I / (4 pi^4) at any temperature and in any unit system.
    W' = W W'/W with W the Stefan-Boltzmann closed form, and the error
    estimate and tolerance are the integral's, carried to W' the same way.
    """
    w_rest = thermal_energy_density_closed_form(T, units)
    hottest = 1.0 / (v.gamma * (1.0 - v.beta_mag))
    moving = integrate_semi_infinite(
        lambda x: x**2 * _direction_integrated_x_occupation(x, v), scale=hottest
    )
    per_ratio = 15.0 / (4.0 * math.pi**4)
    to_w = w_rest * per_ratio
    return _report(
        w_rest, per_ratio * moving.value, "spectral",
        to_w * moving.error_estimate, moving.n_panels, moving.n_evaluations,
        to_w * moving.tolerance,
    )


def energy_density_moving_correlation(
    T, v: BoostVelocity, units: UnitSystem = NATURAL
) -> EnergyDensityReport:
    """W' by Lorentz-transforming the rest-frame field correlations.

    The boosted equal-point correlation is L C L^T, with L the field boost
    of kinematics._field_boost_matrix and C the rest-frame 6x6 correlation,
    so W'/W = tr(L C L^T) / tr(C): the energy density is (<E^2> + <B^2>) /
    8 pi in either frame.  No boosted spectrum is evaluated on this route,
    and no quadrature: W is the Stefan-Boltzmann closed form.  W'/W is
    within 4e-16 relative of gamma^2 (1 + beta^2 / 3) (tests/test_oracle.py).
    """
    w_rest = thermal_energy_density_closed_form(T, units)
    corr, trace = _rest_correlation()
    ratio = _boosted_trace(kinematics._field_boost_matrix(v), corr) / trace
    return _report(w_rest, ratio, "correlation")
