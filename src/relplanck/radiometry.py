"""Frequency quadrature, coincidence field correlations, and energy densities.

Semi-infinite frequency integrals go through the substitution
omega = s t / (1 - t) (s a characteristic scale of the integrand) and one
fixed rule on t in [0, 1]: 32 uniform panels, each valued with 15-node
Gauss-Legendre and its error estimated from the difference against a
7-node rule, all 704 nodes in one call of the integrand.  The nodes,
half-widths, 1 - t and (1 - t)^2 are the same for every integral, so they
are built once.  Every thermal kernel in the accepted domain meets the
tolerance max(1e-14, 1e-10 |value|) on these panels; an integrand that does
not raises QuadratureConvergenceError rather than return an unconverged
number.  The estimate is deliberately conservative; tests hold the
integrator to |value - exact| <= reported error on known integrals.
Thermal integrals run in x = hbar omega / (k_B T) and are scaled by
(k_B T / hbar)^4 after, so the integrator's absolute tolerance is relative
to the integrand at any temperature and in any unit system.

The rest-frame thermal energy density W is the Stefan-Boltzmann closed form
pi^2 (k_B T)^4 / (15 hbar^3 c^3) of thermal_energy_density_closed_form in
both routes below; energy_density_rest is its quadrature check.  The
moving-frame energy density W' is computed by two genuinely different
routes that must agree:

  * spectral: integrate the boosted thermal spectral density, analytically
    over direction (the closed-form u'(omega') of spectrum.u_moving) and by
    one quadrature over frequency, the only one either route runs;
  * correlation: build the equal-point field correlation tensors in the
    rest frame and assemble the boosted energy density from their traces,

        W' = [C_jj + 2 (gamma^2 - 1)(C_jj - C_vv) + 2 gamma^2 |beta| A_v] / 4 pi,

    with C the electric-electric coincidence tensor, C_vv its component
    along the boost axis, and A_v the (identically vanishing, by isotropy)
    electric-magnetic axial vector projected on the boost axis.

Both must land on the closed form W'/W = gamma^2 (1 + beta^2 / 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import NATURAL, BoostVelocity, UnitSystem, temperature_value, thermal_frequency_scale
from .spectrum import (
    _direction_integrated_x_occupation,
    spectral_prefactor,
    thermal_occupation,
)

__all__ = [
    "QuadratureResult",
    "QuadratureConvergenceError",
    "integrate_semi_infinite",
    "EnergyDensityReport",
    "energy_density_rest",
    "energy_density_moving_spectral",
    "CorrelationCoincidence",
    "correlation_coincidence",
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


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    n_panels: int
    n_evaluations: int


class QuadratureConvergenceError(RuntimeError):
    """The 32-panel rule's error estimate misses its tolerance.

    Carries the value and error estimate the rule reached, so a caller
    can see how far off it was; the integrator never returns them.
    """

    def __init__(self, value: float, error: float, detail: str):
        super().__init__(
            f"quadrature did not converge ({detail}); "
            f"best value {value!r}, error estimate {error!r}"
        )
        self.value = value
        self.error = error


@cache
def _gl_rules() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nodes, GL15 weights, GL7 weights) on [-1, 1].

    nodes holds both rules' nodes, GL15 then GL7, so one call of the
    integrand values a panel for both.
    """
    x15, w15 = np.polynomial.legendre.leggauss(15)
    x7, w7 = np.polynomial.legendre.leggauss(7)
    return np.concatenate((x15, x7)), w15, w7


_CORRELATION_NODES = 16  # per angular axis: Gauss-Legendre in mu, uniform in phi


def _correlation_angular_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(khat, weights) of the n x n Gauss-Legendre-in-mu x uniform-phi rule on the sphere."""
    mu, wmu = np.polynomial.legendre.leggauss(n)
    phi = 2.0 * np.pi * np.arange(n) / n
    smu = np.sqrt(1.0 - mu**2)
    khat = np.stack(
        [
            np.outer(smu, np.cos(phi)).ravel(),
            np.outer(smu, np.sin(phi)).ravel(),
            np.outer(mu, np.ones(n)).ravel(),
        ],
        axis=1,
    )
    return khat, np.repeat(wmu, n) * (2.0 * np.pi / n)


_EPS_LC = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS_LC[_i, _j, _k] = 1.0
    _EPS_LC[_i, _k, _j] = -1.0


@cache
def _correlation_angular_tensors() -> tuple[np.ndarray, tuple[float, ...], np.ndarray]:
    """The angular averages in the coincidence tensors and their contractions, independent of T.

    (delta_jm - khat_j khat_m), which isotropy makes (8 pi / 3) delta; its
    diagonal, whose sum is the trace; and the axial vector contracted with
    the Levi-Civita symbol from the one power of khat the electric-magnetic
    tensor carries, which averages to zero.  A caller scales all three by
    the T-dependent constant.  Summing the scaled diagonal in np.trace's
    order gives the trace of the scaled tensor, and the electric-magnetic
    tensor is exactly antisymmetric, so the scaled axial vector is the
    contraction of the scaled tensor, both bit for bit.
    """
    khat, wts = _correlation_angular_rule(_CORRELATION_NODES)
    transverse = wts.sum() * np.eye(3) - np.einsum("n,nj,nm->jm", wts, khat, khat)
    elmag = np.einsum("jml,n,nl->jm", _EPS_LC, wts, khat)
    axial = np.einsum("ljm,jm->l", _EPS_LC, elmag)
    transverse.setflags(write=False)
    axial.setflags(write=False)
    return transverse, tuple(np.diag(transverse).tolist()), axial


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

    Raises QuadratureConvergenceError if the summed |GL15 - GL7| estimate
    exceeds max(1e-14, 1e-10 |value|).
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
    # not <=, so a NaN estimate raises too
    if not error <= max(_ABS_TOL, _REL_TOL * abs(value)):
        raise QuadratureConvergenceError(value, error, f"{_N_PANELS} panels")
    return QuadratureResult(value, error, _N_PANELS, t.size)


@dataclass(frozen=True)
class EnergyDensityReport:
    """Rest and moving-frame energy densities from one computation route.

    A route that runs a quadrature for W_moving also states its reported
    error bound on W_moving and its panel and evaluation counts; the
    correlation route runs none and leaves them None.
    """

    W_rest: float
    W_moving: float
    ratio: float
    method: str
    error_estimate: float | None = None
    n_panels: int | None = None
    n_evaluations: int | None = None


def thermal_energy_density_closed_form(T, units: UnitSystem = NATURAL) -> float:
    """pi^2 (k_B T)^4 / (15 hbar^3 c^3), the closed-form thermal energy density.

    Both W' routes take it as W, energy_density_rest must reproduce it by
    quadrature, and the Monte Carlo sampler uses it as the normalization of
    the thermal spectrum.
    """
    t = temperature_value(T)
    return math.pi**2 * (units.k_B * t) ** 4 / (15.0 * units.hbar**3 * units.c**3)


def expected_energy_ratio(v: BoostVelocity) -> float:
    """Closed-form W'/W for the thermal component: gamma^2 (1 + beta^2/3)."""
    return v.gamma**2 * (1.0 + v.beta_mag**2 / 3.0)


def _thermal_x_integral(kernel, t: float, units: UnitSystem, scale: float = 1.0) -> QuadratureResult:
    """(k_B t / hbar)^4 times the integral of kernel(x) over x = hbar omega / (k_B t).

    Thermal kernels are O(1) in x at any temperature and in any unit
    system, so the absolute tolerance means the same thing at T = 1e-3 as
    at T = 1e3.  The value and the error estimate are both scaled; the
    prefactor is applied outside.
    """
    res = integrate_semi_infinite(kernel, scale=scale)
    s4 = thermal_frequency_scale(t, units) ** 4
    return QuadratureResult(s4 * res.value, s4 * res.error_estimate, res.n_panels, res.n_evaluations)


def energy_density_rest(T, units: UnitSystem = NATURAL) -> float:
    """Thermal energy density of the rest-frame field, by quadrature.

    It is the quadrature check of the Stefan-Boltzmann closed form
    thermal_energy_density_closed_form, which both W' routes take as W.
    No zero-point energy is computed: its spectral density grows as
    omega^3 and integrates to infinity, and a cutoff would make it depend
    on the cutoff, not on T.  The zero-point part's frame independence is
    checked pointwise instead, by spectrum.rho_moving_mu and u_moving.
    """
    t = temperature_value(T)
    if t == 0.0:
        return 0.0
    # integral omega^3 2 / (e^{hbar omega / k_B t} - 1) d omega
    freq = _thermal_x_integral(lambda x: x**3 * thermal_occupation(x), t, units)
    return 4.0 * np.pi * spectral_prefactor(units) * freq.value


def energy_density_moving_spectral(T, v: BoostVelocity, units: UnitSystem = NATURAL) -> EnergyDensityReport:
    """W' by integrating the boosted thermal spectral density.

    The direction integral is analytic (the thermal part of
    spectrum.u_moving); one quadrature over frequency remains, on the scale
    of the hottest direction, k_B T / (hbar gamma (1 - |beta|)).  W is the
    Stefan-Boltzmann closed form, so the ratio holds that one quadrature
    against an exact value.
    """
    t = temperature_value(T)
    if t == 0.0:
        raise ValueError("thermal energy comparison requires T > 0")
    pref = spectral_prefactor(units)
    hottest = 1.0 / (v.gamma * (1.0 - v.beta_mag))
    moving = _thermal_x_integral(
        lambda x: x**2 * _direction_integrated_x_occupation(x, v), t, units, hottest
    )
    two_pi_pref = 2.0 * np.pi * pref
    w_moving = two_pi_pref * moving.value
    w_rest = thermal_energy_density_closed_form(t, units)
    return EnergyDensityReport(
        w_rest, w_moving, w_moving / w_rest, "spectral",
        two_pi_pref * moving.error_estimate, moving.n_panels, moving.n_evaluations,
    )


@dataclass(frozen=True, eq=False)
class CorrelationCoincidence:
    """Equal-point thermal field correlation data.

    elel_tensor[j, m] is the electric-electric coincidence tensor; isotropy
    makes it (trace / 3) times the identity.  elmag_axial[l] is the axial
    vector contracted from the electric-magnetic tensor with the
    Levi-Civita symbol; the angular average of khat makes it vanish, and it
    is kept so the assembly of W' uses the full expression rather than a
    pre-simplified one.  elmag_axial_trace is its z component.
    """

    elel_tensor: np.ndarray
    elel_trace: float
    elmag_axial: np.ndarray
    elmag_axial_trace: float

    def __post_init__(self):
        for name in ("elel_tensor", "elmag_axial"):
            arr = np.array(getattr(self, name), dtype=float, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def correlation_coincidence(T, units: UnitSystem = NATURAL) -> CorrelationCoincidence:
    """Coincidence-limit correlation tensors of the rest-frame thermal field.

    The frequency integral of omega^3 2 / (e^{hbar omega / k_B T} - 1) is
    the closed form (k_B T / hbar)^4 2 pi^4 / 15.  The angular averages over
    propagation directions do not depend on T; they come once from a
    Gauss-Legendre x uniform-phi product rule with _CORRELATION_NODES nodes
    per axis, exact for the low-order angular polynomials involved, and so
    do their trace and axial contraction; each call only scales them.
    """
    t = temperature_value(T)
    if t == 0.0:
        raise ValueError("coincidence correlations are computed for the thermal part; T > 0 required")
    freq = thermal_frequency_scale(t, units) ** 4 * (2.0 * math.pi**4 / 15.0)
    const = units.hbar / ((2.0 * np.pi) ** 2 * units.c**3)
    transverse, diagonal, axial = _correlation_angular_tensors()
    scale = const * freq
    axial = scale * axial
    return CorrelationCoincidence(
        elel_tensor=scale * transverse,
        elel_trace=scale * diagonal[0] + scale * diagonal[1] + scale * diagonal[2],
        elmag_axial=axial,
        elmag_axial_trace=float(axial[2]),
    )


def energy_density_moving_correlation(
    T, v: BoostVelocity, units: UnitSystem = NATURAL
) -> EnergyDensityReport:
    """W' assembled from rest-frame coincidence correlations.

    Boosting the fields and taking the equal-point average turns the
    moving-frame energy density into traces of the rest-frame tensors; see
    the module docstring for the assembled expression.  No boosted spectrum
    is evaluated anywhere on this route, and no quadrature: W = C_jj / 4 pi
    is the Stefan-Boltzmann closed form.
    """
    corr = correlation_coincidence(T, units)
    g2 = v.gamma**2
    c_jj = corr.elel_trace
    c_vv = float(v.vhat @ corr.elel_tensor @ v.vhat)
    a_v = float(v.vhat @ corr.elmag_axial)
    w_moving = (c_jj + 2.0 * (g2 - 1.0) * (c_jj - c_vv) + 2.0 * g2 * v.beta_mag * a_v) / (4.0 * np.pi)
    w_rest = c_jj / (4.0 * np.pi)
    return EnergyDensityReport(w_rest, w_moving, w_moving / w_rest, "correlation")
