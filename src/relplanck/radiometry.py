"""Frequency quadrature, coincidence field correlations, and energy densities.

Semi-infinite frequency integrals go through the substitution
omega = s t / (1 - t) (s a characteristic scale of the integrand), then a
globally adaptive bisection on t: each panel is valued with 15-node
Gauss-Legendre and its error estimated from the difference against a 7-node
rule.  The estimate is deliberately conservative; tests hold the integrator
to |value - exact| <= reported error on known integrals.  Thermal integrals
run in x = hbar omega / (k_B T) and are scaled by (k_B T / hbar)^4 after, so
the integrator's absolute tolerance is relative to the integrand at any
temperature and in any unit system.

The moving-frame energy density is computed by two genuinely different
routes that must agree:

  * spectral: integrate the boosted thermal spectral density, analytically
    over direction (the closed-form u'(omega') of spectrum.u_moving) and by
    one adaptive quadrature over frequency;
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
from dataclasses import dataclass, replace

import numpy as np

from .core import NATURAL, BoostVelocity, Component, UnitSystem, temperature_value, thermal_frequency_scale
from .spectrum import (
    _direction_integrated_x_occupation,
    spectral_prefactor,
    thermal_occupation,
)

__all__ = [
    "QuadratureConfig",
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


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and limits for the adaptive frequency integrals.

    omega_cutoff = None means integrate to infinity; the zero-point
    component diverges there and demands an explicit cutoff.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_levels: int = 20
    omega_cutoff: float | None = None

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_levels < 1:
            raise ValueError("max_levels must be >= 1")
        if self.omega_cutoff is not None and not self.omega_cutoff > 0.0:
            raise ValueError("omega_cutoff must be positive when given")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    n_panels: int
    n_evaluations: int


class QuadratureConvergenceError(RuntimeError):
    """The adaptive integrator could not meet its tolerance.

    Carries the best value and achieved error estimate; callers that can
    live with the looser result may use them.
    """

    def __init__(self, value: float, error: float, detail: str):
        super().__init__(
            f"quadrature did not converge ({detail}); "
            f"best value {value!r}, error estimate {error!r}"
        )
        self.value = value
        self.error = error


_GL15_X, _GL15_W = np.polynomial.legendre.leggauss(15)
_GL7_X, _GL7_W = np.polynomial.legendre.leggauss(7)
_MAX_PANELS = 4096


def _panel_value(g, a: float, b: float) -> tuple[float, float]:
    """(value, error estimate) on [a, b]: GL15 value, |GL15 - GL7| error."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    v15 = half * float(_GL15_W @ g(mid + half * _GL15_X))
    v7 = half * float(_GL7_W @ g(mid + half * _GL7_X))
    return v15, abs(v15 - v7)


def integrate_semi_infinite(f, cfg: QuadratureConfig | None = None, *, scale: float = 1.0) -> QuadratureResult:
    """Integrate f(omega) over (0, omega_cutoff or infinity) adaptively.

    f must accept numpy arrays.  ``scale`` sets the map omega = s t/(1 - t);
    pick the integrand's characteristic frequency (k_B T / hbar for thermal
    kernels) so the initial panels straddle the peak.  Without a cutoff the
    integrand must decay fast enough for the mapped integral to be finite.

    Raises QuadratureConvergenceError if the tolerance cannot be met within
    max_levels bisections per panel (or a hard panel budget).
    """
    cfg = cfg or QuadratureConfig()
    s = float(scale)
    if not (math.isfinite(s) and s > 0.0):
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    if cfg.omega_cutoff is None:
        t_max = 1.0
    else:
        t_max = cfg.omega_cutoff / (s + cfg.omega_cutoff)

    def g(t):
        one_m = 1.0 - t
        om = s * t / one_m
        return f(om) * (s / one_m**2)

    n_seed = 8
    edges = np.linspace(0.0, t_max, n_seed + 1)
    panels: list[list] = []  # [a, b, value, error, depth], kept ordered in t
    for i in range(n_seed):
        v, e = _panel_value(g, edges[i], edges[i + 1])
        panels.append([edges[i], edges[i + 1], v, e, 0])
    n_evals = (15 + 7) * n_seed

    while True:
        total = math.fsum(p[2] for p in panels)
        err = math.fsum(p[3] for p in panels)
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        if err <= tol:
            return QuadratureResult(total, err, len(panels), n_evals)
        refinable = [i for i, p in enumerate(panels) if p[4] < cfg.max_levels]
        if not refinable:
            raise QuadratureConvergenceError(total, err, f"max_levels={cfg.max_levels} exhausted")
        if len(panels) >= _MAX_PANELS:
            raise QuadratureConvergenceError(total, err, f"panel budget {_MAX_PANELS} exhausted")
        worst = max(refinable, key=lambda i: panels[i][3])
        a, b, _, _, depth = panels[worst]
        mid = 0.5 * (a + b)
        v1, e1 = _panel_value(g, a, mid)
        v2, e2 = _panel_value(g, mid, b)
        panels[worst] = [a, mid, v1, e1, depth + 1]
        panels.insert(worst + 1, [mid, b, v2, e2, depth + 1])
        n_evals += 2 * (15 + 7)


@dataclass(frozen=True)
class EnergyDensityReport:
    """Rest and moving-frame energy densities from one computation route."""

    W_rest: float
    W_moving: float
    ratio: float
    method: str


def thermal_energy_density_closed_form(T, units: UnitSystem = NATURAL) -> float:
    """pi^2 (k_B T)^4 / (15 hbar^3 c^3), the closed-form thermal energy density.

    The quadrature routes must reproduce this; the Monte Carlo sampler uses
    it as the normalization of the thermal spectrum.
    """
    t = temperature_value(T)
    return math.pi**2 * (units.k_B * t) ** 4 / (15.0 * units.hbar**3 * units.c**3)


def expected_energy_ratio(v: BoostVelocity) -> float:
    """Closed-form W'/W for the thermal component: gamma^2 (1 + beta^2/3)."""
    return v.gamma**2 * (1.0 + v.beta_mag**2 / 3.0)


def _thermal_x_integral(
    kernel, t: float, cfg: QuadratureConfig, units: UnitSystem, scale: float = 1.0
) -> float:
    """(k_B t / hbar)^4 times the integral of kernel(x) over x = hbar omega / (k_B t).

    Thermal kernels are O(1) in x at any temperature and in any unit
    system, so cfg.abs_tol means the same thing at T = 1e-3 as at T = 1e3;
    cfg.omega_cutoff is mapped to x.  The prefactor is applied outside.
    """
    omega_scale = thermal_frequency_scale(t, units)
    if cfg.omega_cutoff is not None:
        cfg = replace(cfg, omega_cutoff=cfg.omega_cutoff / omega_scale)
    return omega_scale**4 * integrate_semi_infinite(kernel, cfg, scale=scale).value


def _thermal_frequency_integral(t: float, cfg: QuadratureConfig, units: UnitSystem) -> float:
    """integral omega^3 2 / (e^{hbar omega / k_B t} - 1) d omega."""
    return _thermal_x_integral(lambda x: x**3 * thermal_occupation(x), t, cfg, units)


def energy_density_rest(
    T,
    component: Component = Component.THERMAL,
    cfg: QuadratureConfig | None = None,
    units: UnitSystem = NATURAL,
) -> float:
    """Energy density of the isotropic rest-frame field, by quadrature.

    The thermal part needs no cutoff and lands on the closed form.  The
    zero-point part grows as the fourth power of the cutoff and refuses to
    run without one; a configured cutoff also truncates the thermal part,
    consistently.
    """
    cfg = cfg or QuadratureConfig()
    t = temperature_value(T)
    if component is not Component.THERMAL and cfg.omega_cutoff is None:
        raise ValueError(
            "the zero-point spectral density integrates to a divergent energy; "
            "set QuadratureConfig.omega_cutoff to request the truncated value"
        )
    four_pi_pref = 4.0 * np.pi * spectral_prefactor(units)
    w_thermal = 0.0
    if component is not Component.ZERO_POINT and t > 0.0:
        w_thermal = four_pi_pref * _thermal_frequency_integral(t, cfg, units)
    w_zero_point = 0.0
    if component is not Component.THERMAL:
        lam = cfg.omega_cutoff
        zp = integrate_semi_infinite(lambda om: om**3, cfg, scale=lam).value
        w_zero_point = four_pi_pref * zp
    return w_zero_point + w_thermal


def energy_density_moving_spectral(
    T,
    v: BoostVelocity,
    cfg: QuadratureConfig | None = None,
    units: UnitSystem = NATURAL,
    component: Component = Component.THERMAL,
) -> EnergyDensityReport:
    """W' by integrating the boosted thermal spectral density.

    The direction integral is analytic (the thermal part of
    spectrum.u_moving); one adaptive quadrature over frequency remains, on
    the scale of the hottest direction, k_B T / (hbar gamma (1 - |beta|)).
    """
    if component is not Component.THERMAL:
        raise ValueError("only the thermal component is frame-comparable without a cutoff")
    cfg = cfg or QuadratureConfig()
    t = temperature_value(T)
    if t == 0.0:
        raise ValueError("thermal energy comparison requires T > 0")
    pref = spectral_prefactor(units)
    hottest = 1.0 / (v.gamma * (1.0 - v.beta_mag))
    moving = _thermal_x_integral(
        lambda x: x**2 * _direction_integrated_x_occupation(x, v), t, cfg, units, hottest
    )
    w_moving = 2.0 * np.pi * pref * moving
    w_rest = 4.0 * np.pi * pref * _thermal_frequency_integral(t, cfg, units)
    return EnergyDensityReport(w_rest, w_moving, w_moving / w_rest, "spectral")


_EPS_LC = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS_LC[_i, _j, _k] = 1.0
    _EPS_LC[_i, _k, _j] = -1.0


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


_CORRELATION_NODES = 16  # per angular axis: Gauss-Legendre in mu, uniform in phi


def correlation_coincidence(
    T,
    cfg: QuadratureConfig | None = None,
    units: UnitSystem = NATURAL,
) -> CorrelationCoincidence:
    """Coincidence-limit correlation tensors of the rest-frame thermal field.

    The frequency integral is the adaptive thermal quadrature; the angular
    average over propagation directions is a Gauss-Legendre x uniform-phi
    product rule with _CORRELATION_NODES nodes per axis, exact for the
    low-order angular polynomials involved.
    """
    cfg = cfg or QuadratureConfig()
    t = temperature_value(T)
    if t == 0.0:
        raise ValueError("coincidence correlations are computed for the thermal part; T > 0 required")
    freq = _thermal_frequency_integral(t, cfg, units)
    const = units.hbar / ((2.0 * np.pi) ** 2 * units.c**3)

    n = _CORRELATION_NODES
    mu, wmu = np.polynomial.legendre.leggauss(n)
    phi = 2.0 * np.pi * np.arange(n) / n
    wphi = 2.0 * np.pi / n
    smu = np.sqrt(1.0 - mu**2)
    khat = np.stack(
        [
            np.outer(smu, np.cos(phi)).ravel(),
            np.outer(smu, np.sin(phi)).ravel(),
            np.outer(mu, np.ones(n)).ravel(),
        ],
        axis=1,
    )
    wts = np.repeat(wmu, n) * wphi

    # angular average of (delta_jm - khat_j khat_m); isotropy gives (8 pi / 3) delta
    transverse = wts.sum() * np.eye(3) - np.einsum("n,nj,nm->jm", wts, khat, khat)
    elel = const * freq * transverse
    # electric-magnetic tensor carries one power of khat; averages to zero
    em_tensor = const * freq * np.einsum("jml,n,nl->jm", _EPS_LC, wts, khat)
    axial = np.einsum("ljm,jm->l", _EPS_LC, em_tensor)
    return CorrelationCoincidence(
        elel_tensor=elel,
        elel_trace=float(np.trace(elel)),
        elmag_axial=axial,
        elmag_axial_trace=float(axial[2]),
    )


def energy_density_moving_correlation(
    T,
    v: BoostVelocity,
    cfg: QuadratureConfig | None = None,
    units: UnitSystem = NATURAL,
) -> EnergyDensityReport:
    """W' assembled from rest-frame coincidence correlations.

    Boosting the fields and taking the equal-point average turns the
    moving-frame energy density into traces of the rest-frame tensors; see
    the module docstring for the assembled expression.  No boosted spectrum
    is evaluated anywhere on this route.
    """
    corr = correlation_coincidence(T, cfg, units)
    g2 = v.gamma**2
    c_jj = corr.elel_trace
    c_vv = float(v.vhat @ corr.elel_tensor @ v.vhat)
    a_v = float(v.vhat @ corr.elmag_axial)
    w_moving = (c_jj + 2.0 * (g2 - 1.0) * (c_jj - c_vv) + 2.0 * g2 * v.beta_mag * a_v) / (4.0 * np.pi)
    w_rest = c_jj / (4.0 * np.pi)
    return EnergyDensityReport(w_rest, w_moving, w_moving / w_rest, "correlation")
