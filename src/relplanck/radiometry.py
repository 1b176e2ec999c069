"""Frequency quadrature, the correlation route, and energy densities.

Semi-infinite frequency integrals go through the substitution
omega = scale e^s (scale a characteristic frequency of the integrand) and
one fixed rule on s in [-13, 4.5]: 4 equal panels of 32-node
Gauss-Legendre for the value, and the same panels at 20 nodes for the
error estimate, all 208 nodes in one call of the integrand.  The rules
are constants, numpy's leggauss(32) and leggauss(20) bit for bit (a test
holds them to it), and the nodes e^s and the weights, with the panels'
half-width and d omega = omega ds folded in, are tabulated on first use,
so an integral is one integrand call and one matvec.  In s the thermal
kernels are smooth and fall off exponentially at both ends, so the rule
meets them to rounding at every beta up to 1 - 1e-9.  The estimate is
QUADPACK's scaled difference of the two rules plus |omega f| at the
outermost nodes, which bounds what the finite range drops.  The
integrator returns its value with its error estimate and the tolerance
max(1e-14, 1e-10 |value|), whether or not the estimate meets it; the
spectral route's report states the verdict as a check record.  Tests hold
the integrator to |value - exact| <= reported error on known integrals.
Thermal integrals run in x = hbar omega / (k_B T), so the integrator's
absolute tolerance is relative to the integrand at any temperature and in
any unit system.

The rest-frame thermal energy density W is the Stefan-Boltzmann closed form
pi^2 (k_B T)^4 / (15 hbar^3 c^3) of thermal_energy_density_closed_form in
both routes below; at rest the spectral route is its quadrature check (the
selftest's stefan-boltzmann).  No zero-point energy is computed: its
spectral density grows as omega^3 and integrates to infinity without a
cutoff.  Each route computes the scale-free ratio W'/W and reports
W' = W W'/W; inside the input domain of core (README, "Domain") W and W'
are normal doubles.  The two routes are genuinely different and must
agree:

  * spectral: integrate the boosted thermal spectral density, analytically
    over direction (the closed-form u'(omega') of spectrum.u_moving) and by
    one quadrature over x, the only one either route runs;
  * correlation: Lorentz-transform the rest-frame field.  C is the 6x6
    equal-point correlation of (E, B) per unit scale, which isotropy and
    the absence of polarization fix in closed form as (8 pi / 3) I_6, and
    L the 6x6 field boost of kinematics._field_boost_matrix, so

        W'/W = tr(L C L^T) / tr(C),

    which is the sum of L's 36 squared entries over 6.

Both must land on the closed form W'/W = gamma^2 (1 + beta^2 / 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import kinematics
from .core import NATURAL, BoostVelocity, CheckResult, UnitSystem, _EPS, _thermal_temperature
from .spectrum import _direction_integrated_x_occupation

__all__ = [
    "QuadratureResult",
    "integrate_semi_infinite",
    "EnergyDensityReport",
    "energy_density_moving_spectral",
    "energy_density_moving_correlation",
    "thermal_energy_density_closed_form",
    "expected_energy_ratio",
]


# the integrator's tolerance: |error| <= max(_ABS_TOL, _REL_TOL |value|)
_REL_TOL = 1e-10
_ABS_TOL = 1e-14
# the rule's range in s = ln(omega / scale), in 4 equal panels: the fewest
# (3 are off by 4e-12) on which both thermal kernels, x^3 n(x) and the
# direction-integrated moving one up to beta = 1 - 1e-9, are right to rounding
_S_LO, _S_HI = -13.0, 4.5
_N_PANELS = 4
_PI2_15 = math.pi**2 / 15.0


@dataclass(frozen=True)
class QuadratureResult:
    """The value, its error estimate and the tolerance the estimate was held to."""

    value: float
    error_estimate: float
    n_panels: int
    n_evaluations: int
    tolerance: float


# the positive halves of the 32- and 20-node Gauss-Legendre rules, smallest
# node first: the floats numpy.polynomial.legendre.leggauss returns, which a
# test holds them to bit for bit, so no run builds a rule or calls LAPACK
_GL32_HALF = (
    (0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
     0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
     0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
     0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816),
    (0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
     0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
     0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
     0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506),
)
_GL20_HALF = (
    (0.07652652113349734, 0.22778585114164507, 0.37370608871541955, 0.5108670019508271,
     0.636053680726515, 0.7463319064601508, 0.8391169718222188, 0.912234428251326,
     0.9639719272779138, 0.993128599185095),
    (0.15275338713072628, 0.14917298647260424, 0.1420961093183824, 0.1316886384491769,
     0.1181945319615186, 0.1019301198172407, 0.08327674157670471, 0.06267204833410879,
     0.040601429800386446, 0.017614007139150893),
)


@cache
def _log_rule() -> tuple[np.ndarray, np.ndarray]:
    """(u, table): the nodes u = omega / scale = e^s of both rules, and their weights, read-only.

    u holds the 4 x 32 nodes of the value's rule, ascending, then the
    4 x 20 of the estimate's, so one call of the integrand values both.
    With y = f(scale u), scale (y @ table) is in one matvec the value's 4
    panels, the estimate rule's whole integral, and omega f(omega) at the
    value rule's lowest and highest node.  The weights fold in the panels'
    half-width and d omega = omega ds.
    """
    half = 0.5 * (_S_HI - _S_LO) / _N_PANELS
    mid = _S_LO + half * (2.0 * np.arange(_N_PANELS) + 1.0)
    # each rule mirrored onto [-1, 1], nodes ascending
    (x32, w32), (x20, w20) = ((np.concatenate((-x[::-1], x)), half * np.concatenate((w[::-1], w)))
                              for x, w in (np.array(_GL32_HALF), np.array(_GL20_HALF)))
    u = np.exp(np.concatenate([(mid[:, None] + half * x).ravel() for x in (x32, x20)]))
    n32 = _N_PANELS * x32.size
    table = np.zeros((u.size, _N_PANELS + 3))
    table[:n32, :_N_PANELS] = np.kron(np.eye(_N_PANELS), w32[:, None])
    table[n32:, _N_PANELS] = np.tile(w20, _N_PANELS)
    table[0, -2] = table[n32 - 1, -1] = 1.0
    table *= u[:, None]
    for arr in (u, table):
        arr.setflags(write=False)
    return u, table


def integrate_semi_infinite(f, *, scale: float = 1.0) -> QuadratureResult:
    """Integrate f(omega) over (0, infinity) on one fixed rule in s = ln(omega / scale).

    The rule covers s in [-13, 4.5], omega from scale e^-13 to scale e^4.5,
    in 4 equal panels of 32-node Gauss-Legendre for the value and the same
    panels at 20 nodes for the error estimate.  f must accept a 1-D numpy
    array and work elementwise; it is called once, on all 208 nodes.  Pick
    ``scale`` as the integrand's characteristic frequency (k_B T / hbar for
    thermal kernels).  The contract is narrower than (0, infinity): omega
    f(omega) must be negligible at both ends of the range, since the rule
    drops what lies beyond them.  For omega f rising at least like omega
    below the range and falling at least like e^-omega above it (omega in
    units of scale), each dropped part is at most omega f at that end's
    outermost node, which the estimate adds, so a truncated integrand is
    reported as a miss, not as a wrong value.

    The error estimate is QUADPACK's (Piessens et al. 1983) scaled
    difference of the two rules, max(d min(1, (200 d / resabs)^1.5),
    50 eps resabs), with d = |I32 - I20| and resabs the sum of |panel
    values|, plus |omega f(omega)| at the outermost node of each end.  The
    tolerance is max(1e-14, 1e-10 |value|); the result is returned whether
    or not the estimate meets it.
    """
    s = float(scale)
    if not (math.isfinite(s) and s > 0.0):
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    u, table = _log_rule()
    *panels, coarse, lo, hi = (f(s * u) @ table).tolist()
    # fsum rounds correctly, so the panels' order does not matter
    value = s * math.fsum(panels)
    resabs = s * sum(map(abs, panels))
    d = abs(value - s * coarse)
    scaled = d if 200.0 * d >= resabs else d * (200.0 * d / resabs) ** 1.5
    error = max(scaled, 50.0 * _EPS * resabs) + s * (abs(lo) + abs(hi))
    return QuadratureResult(value, error, _N_PANELS, u.size, max(_ABS_TOL, _REL_TOL * abs(value)))


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

    Both W' routes take it as W, the spectral route reproduces it at rest,
    and the Monte Carlo sampler normalizes the thermal spectrum with it.
    Raises ValueError at T = 0, where W = 0 cannot normalize a ratio, and
    for a T outside the domain (README, "Domain").
    """
    t = _thermal_temperature(T)
    return _PI2_15 * (units.k_B * t) ** 4 / (units.hbar * units.c) ** 3


def expected_energy_ratio(v: BoostVelocity) -> float:
    """Closed-form W'/W for the thermal component: gamma^2 (1 + beta^2/3), correctly rounded.

    With beta = p / q exactly, it is (3 q^2 + p^2) / (3 (q^2 - p^2)), and
    Python's int true division rounds that quotient correctly.
    """
    p, q = v.beta_mag.as_integer_ratio()
    return (3 * q * q + p * p) / (3 * (q * q - p * p))


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
    W'/W is within core._ERROR_BOUNDS["energy_density_moving_spectral"] of
    gamma^2 (1 + beta^2 / 3) up to 1 - 1e-9 (tests/test_oracle.py).
    """
    w_rest = thermal_energy_density_closed_form(T, units)
    hottest = 1.0 / (v.gamma * (1.0 - v.beta_mag))

    def integrand(x):
        f, h = _direction_integrated_x_occupation(x, v)
        return x**2 * f * h * h

    moving = integrate_semi_infinite(integrand, scale=hottest)
    per_ratio = 15.0 / (4.0 * math.pi**4)
    ratio, to_w = per_ratio * moving.value, w_rest * per_ratio
    return EnergyDensityReport(
        w_rest, w_rest * ratio, ratio, "spectral",
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
    8 pi in either frame.  C = (8 pi / 3) I_6, so the ratio is the sum of
    L's 36 squared entries over 6, summed correctly rounded.  No boosted
    spectrum is evaluated on this route, and no quadrature: W is the
    Stefan-Boltzmann closed form.  W'/W matches gamma^2 (1 + beta^2 / 3) to
    core._ERROR_BOUNDS["energy_density_moving_correlation"] (tests/test_oracle.py).
    """
    w_rest = thermal_energy_density_closed_form(T, units)
    boost = kinematics._field_boost_matrix(v)
    ratio = math.fsum((boost * boost).ravel().tolist()) / 6.0
    return EnergyDensityReport(w_rest, w_rest * ratio, ratio, "correlation")
