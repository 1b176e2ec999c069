"""Frequency quadrature, coincidence field correlations, and energy densities.

Semi-infinite frequency integrals go through the substitution
omega = s t / (1 - t) (s a characteristic scale of the integrand), then an
adaptive bisection on t in rounds.  Each panel is valued with 15-node
Gauss-Legendre and its error estimated from the difference against a 7-node
rule.  Panels bisected max_levels times are frozen; once their errors
alone exceed the tolerance the integrator gives up.  Otherwise a round
bisects every other panel whose error reaches its share
(tol - frozen) / n_refinable of the tolerance, worst first and no more than
the panel budget allows.  The 32 seed panels, and all new halves of a
round, are valued in one call of the integrand on every panel's 22 nodes.
The seed panels' nodes and their 1 - t and (1 - t)^2 depend only on the
upper limit t_max of the mapped variable, 1 for every untruncated
integral, so they are built once per t_max and kept in a small cache.
Every thermal kernel in the accepted domain meets the default tolerance on
the seed panels alone, so a thermal integral is one integrand call; other
integrands still refine.  The estimate is deliberately conservative; tests
hold the integrator to |value - exact| <= reported error on known integrals.
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
    one adaptive quadrature over frequency, the only one either route runs;
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
from functools import cache, lru_cache

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


_DEFAULT_CFG = QuadratureConfig()


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


@cache
def _gl_rules() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nodes, GL15 weights, GL7 weights) on [-1, 1].

    nodes holds both rules' nodes, GL15 then GL7, so one call of the
    integrand values a panel for both.
    """
    x15, w15 = np.polynomial.legendre.leggauss(15)
    x7, w7 = np.polynomial.legendre.leggauss(7)
    return np.concatenate((x15, x7)), w15, w7


_MAX_PANELS = 4096
# 32 seed panels, scaled to [0, t_max]: the fewest (of 8, 16, 24, 32) on
# which both thermal kernels, x^3 n(x) and the direction-integrated moving
# one up to beta = 1 - 1e-9, meet the default tolerance without a
# bisection.  One call on 704 nodes costs less than three on about 350,
# since the Python overhead per refinement round outweighs the nodes.
_SEED_EDGES = np.linspace(0.0, 1.0, 33)

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


def _mapped_nodes(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """(t, half, 1 - t, (1 - t)^2) of panels [a, b]: every panel's 22 nodes, flat."""
    nodes = _gl_rules()[0]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    t = (mid[:, None] + half[:, None] * nodes).ravel()
    one_m = 1.0 - t
    return t, half, one_m, one_m**2


@lru_cache(maxsize=8)
def _seed_panels(t_max: float) -> tuple[np.ndarray, ...]:
    """(a, b, t, half, 1 - t, (1 - t)^2) of the seed panels on [0, t_max], read-only.

    They depend on t_max alone, which is 1 for every untruncated integral,
    so they are built once; a cutoff adds one entry per distinct t_max.
    """
    edges = t_max * _SEED_EDGES
    tables = (edges[:-1], edges[1:]) + _mapped_nodes(edges[:-1], edges[1:])
    for arr in tables:
        arr.setflags(write=False)
    return tables


def _panel_values(f, s: float, t, half, one_m, one_m2) -> tuple[np.ndarray, np.ndarray]:
    """(values, error estimates) of the mapped integrand on the panels of _mapped_nodes.

    f is valued at omega = s t / (1 - t) on every panel's 22 nodes in one
    call and weighted by d omega / dt = s / (1 - t)^2; the values are the
    GL15 sums, the errors |GL15 - GL7|.
    """
    _, w15, w7 = _gl_rules()
    y = (f(s * t / one_m) * (s / one_m2)).reshape(half.size, -1)
    v15 = half * (y[:, :15] @ w15)
    v7 = half * (y[:, 15:] @ w7)
    return v15, np.abs(v15 - v7)


def integrate_semi_infinite(f, cfg: QuadratureConfig | None = None, *, scale: float = 1.0) -> QuadratureResult:
    """Integrate f(omega) over (0, omega_cutoff or infinity) adaptively.

    f must accept a 1-D numpy array and work elementwise.  ``scale`` sets the
    map omega = s t/(1 - t); pick the integrand's characteristic frequency
    (k_B T / hbar for thermal kernels) so the initial panels straddle the
    peak.  Without a cutoff the integrand must decay fast enough for the
    mapped integral to be finite.

    Raises QuadratureConvergenceError if the tolerance cannot be met within
    max_levels bisections per panel (or a hard panel budget).
    """
    cfg = _DEFAULT_CFG if cfg is None else cfg
    s = float(scale)
    if not (math.isfinite(s) and s > 0.0):
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    if cfg.omega_cutoff is None:
        t_max = 1.0
    else:
        t_max = cfg.omega_cutoff / (s + cfg.omega_cutoff)

    a, b, *seed_nodes = _seed_panels(t_max)
    value, error = _panel_values(f, s, *seed_nodes)
    depth = np.zeros(a.size, dtype=int)
    n_nodes = _gl_rules()[0].size
    n_evals = n_nodes * a.size

    while True:
        # fsum rounds correctly, so the panels' order does not matter; it
        # reads a list faster than an array
        total = math.fsum(value.tolist())
        err = math.fsum(error.tolist())
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        if err <= tol:
            return QuadratureResult(total, err, a.size, n_evals)
        refinable = depth < cfg.max_levels
        # panels at max_levels keep their error, so once those errors alone
        # exceed the tolerance no bisection can converge
        frozen = math.fsum(error[~refinable])
        if frozen > tol:
            raise QuadratureConvergenceError(total, err, f"max_levels={cfg.max_levels} exhausted")
        if a.size >= _MAX_PANELS:
            raise QuadratureConvergenceError(total, err, f"panel budget {_MAX_PANELS} exhausted")
        # every refinable panel at or over its share of what the frozen ones
        # leave of the tolerance, worst first as far as the budget allows.
        # The refinable errors sum to more than tol - frozen, so the worst
        # of them reaches the share; the min holds that against rounding.
        share = (tol - frozen) / np.count_nonzero(refinable)
        split = refinable & (error >= min(share, error[refinable].max()))
        room = _MAX_PANELS - a.size
        if np.count_nonzero(split) > room:
            worst = np.argsort(np.where(split, -error, np.inf), kind="stable")[:room]
            split = np.zeros(a.size, dtype=bool)
            split[worst] = True
        keep = ~split
        mid = 0.5 * (a[split] + b[split])
        new_a = np.concatenate((a[split], mid))
        new_b = np.concatenate((mid, b[split]))
        new_value, new_error = _panel_values(f, s, *_mapped_nodes(new_a, new_b))
        new_depth = depth[split] + 1
        a = np.concatenate((a[keep], new_a))
        b = np.concatenate((b[keep], new_b))
        value = np.concatenate((value[keep], new_value))
        error = np.concatenate((error[keep], new_error))
        depth = np.concatenate((depth[keep], new_depth, new_depth))
        n_evals += n_nodes * new_a.size


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


def _thermal_x_integral(
    kernel, t: float, cfg: QuadratureConfig, units: UnitSystem, scale: float = 1.0
) -> QuadratureResult:
    """(k_B t / hbar)^4 times the integral of kernel(x) over x = hbar omega / (k_B t).

    Thermal kernels are O(1) in x at any temperature and in any unit
    system, so cfg.abs_tol means the same thing at T = 1e-3 as at T = 1e3;
    cfg.omega_cutoff is mapped to x.  The value and the error estimate are
    both scaled; the prefactor is applied outside.
    """
    omega_scale = thermal_frequency_scale(t, units)
    if cfg.omega_cutoff is not None:
        cfg = replace(cfg, omega_cutoff=cfg.omega_cutoff / omega_scale)
    res = integrate_semi_infinite(kernel, cfg, scale=scale)
    s4 = omega_scale**4
    return QuadratureResult(s4 * res.value, s4 * res.error_estimate, res.n_panels, res.n_evaluations)


def energy_density_rest(
    T,
    component: Component = Component.THERMAL,
    cfg: QuadratureConfig | None = None,
    units: UnitSystem = NATURAL,
) -> float:
    """Energy density of the isotropic rest-frame field, by quadrature.

    The thermal part needs no cutoff and is the quadrature check of the
    Stefan-Boltzmann closed form thermal_energy_density_closed_form, which
    both W' routes take as W.  The zero-point part grows as the fourth power
    of the cutoff and refuses to run without one; a configured cutoff also
    truncates the thermal part, consistently.
    """
    cfg = _DEFAULT_CFG if cfg is None else cfg
    t = temperature_value(T)
    if component is not Component.THERMAL and cfg.omega_cutoff is None:
        raise ValueError(
            "the zero-point spectral density integrates to a divergent energy; "
            "set QuadratureConfig.omega_cutoff to request the truncated value"
        )
    four_pi_pref = 4.0 * np.pi * spectral_prefactor(units)
    w_thermal = 0.0
    if component is not Component.ZERO_POINT and t > 0.0:
        # integral omega^3 2 / (e^{hbar omega / k_B t} - 1) d omega
        freq = _thermal_x_integral(lambda x: x**3 * thermal_occupation(x), t, cfg, units)
        w_thermal = four_pi_pref * freq.value
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
    W is the Stefan-Boltzmann closed form, so the ratio holds that one
    quadrature against an exact value.  A cutoff would truncate W' but not
    W, so cfg.omega_cutoff is refused.
    """
    if component is not Component.THERMAL:
        raise ValueError("only the thermal component is frame-comparable without a cutoff")
    cfg = _DEFAULT_CFG if cfg is None else cfg
    if cfg.omega_cutoff is not None:
        raise ValueError("W' is compared with the untruncated W; omega_cutoff must be None")
    t = temperature_value(T)
    if t == 0.0:
        raise ValueError("thermal energy comparison requires T > 0")
    pref = spectral_prefactor(units)
    hottest = 1.0 / (v.gamma * (1.0 - v.beta_mag))
    moving = _thermal_x_integral(
        lambda x: x**2 * _direction_integrated_x_occupation(x, v), t, cfg, units, hottest
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
