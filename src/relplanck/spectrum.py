"""Planck spectral distributions in the rest frame and in a boosted frame.

The spectral density here is energy per unit volume, per unit angular
frequency, per steradian of propagation direction:

    rest frame:    rho(omega)        = (hbar / (2 pi c)^3) omega^3 coth(hbar omega / 2 k_B T)
    moving frame:  rho'(omega', mu') = (hbar / (2 pi c)^3) omega'^3 coth(hbar D omega' / 2 k_B T)

with D = gamma (1 + |beta| mu') the frequency pull-back factor and
mu' = khat' . vhat.  The coth splits as coth(x) = 1 + 2/(e^{2x} - 1): the 1
is the temperature-independent zero-point part (identical in both frames),
the remainder the thermal Planck part.  The moving-frame thermal part is a
rest-frame Planck law at the direction-dependent effective temperature
T_eff(mu') = T / D, which is what temperature_multipoles expands.

At T = 0 only the zero-point part survives and the density is the same
function of (omega, khat) in every frame.

Integrated over directions, the moving-frame density is the spectral
distribution u'(omega') = 2 pi integral rho'(omega', mu') d mu' (u_moving).
The mu' integral is elementary, because 2 ln(1 - e^{-u}) is an
antiderivative of 2 / (e^u - 1); its zero-point part is 4 pi times the
rest-frame one at every beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NATURAL, BoostVelocity, Component, UnitSystem, temperature_value
from .kinematics import inverse_doppler_factor

__all__ = [
    "spectral_prefactor",
    "thermal_occupation",
    "rho_rest",
    "rho_moving_mu",
    "rho_moving_pullback_mu",
    "u_moving",
    "effective_temperature_mu",
    "MultipoleCoefficients",
    "temperature_multipoles",
]


def spectral_prefactor(units: UnitSystem = NATURAL) -> float:
    """hbar / (2 pi c)^3, the overall scale of the spectral density."""
    return units.hbar / (2.0 * np.pi * units.c) ** 3


def thermal_occupation(z):
    """The thermal factor 2 / (e^z - 1) of the coth split, for z > 0.

    Written as 2 e^{-z} / (1 - e^{-z}): no overflow at large z (the
    numerator underflows smoothly to an exact 0 in the deep Wien tail) and
    expm1 keeps full precision at small z.  Vectorized.
    """
    z = np.asarray(z, dtype=float)
    return 2.0 * np.exp(-z) / (-np.expm1(-z))


def _check_nonneg_omega(om: np.ndarray, label: str):
    if np.any(om < 0.0) or not np.all(np.isfinite(om)):
        raise ValueError(f"{label} must be finite and >= 0")


def _check_mu(mu) -> np.ndarray:
    """mu_prime as a float array; raises unless every cosine is finite and in [-1, 1].

    The 1e-12 slack admits cosines computed from unit vectors.
    """
    mu = np.asarray(mu, dtype=float)
    if not np.all(np.isfinite(mu)) or np.any(np.abs(mu) > 1.0 + 1e-12):
        raise ValueError("mu_prime must be finite and lie in [-1, 1]")
    return mu


def _planck_density(om, z_of_om, t, component, units):
    """Assemble prefactor * om^3 * {1, occupation, coth} from the z map.

    z_of_om maps frequencies to the coth argument; for the rest frame that
    is hbar om / (k_B T), for the moving frame it carries the extra Doppler
    factor.  om = 0, T = 0 and a zero om * occupation (the deep Wien tail,
    where om^2 may overflow) give a thermal part of exactly 0.  The thermal
    part is formed as prefactor * om^2 * (om * occupation): om * occupation
    tends to 2 k_B T_eff / hbar, so it survives where om^3 underflows.  The
    occupation overflows only for subnormal z, where e^{-z} rounds to 1 and
    -expm1(-z) to z, so om * occupation is 2 om / z there.  Where
    prefactor * om^2 is subnormal it has lost digits, and the product is
    taken in the order prefactor * (om * occupation) * om * om instead.
    """
    if not isinstance(component, Component):
        raise TypeError(f"component must be a Component, got {component!r}")
    pref = spectral_prefactor(units)
    if component is Component.ZERO_POINT:
        return pref * om**3
    if t == 0.0:
        thermal = np.zeros_like(om)
    else:
        tiny = np.finfo(float).tiny
        # z may round up to inf near the largest double; the occupation
        # is exactly 0 there
        with np.errstate(over="ignore"):
            z = z_of_om(om)
        normal = z >= tiny
        occ = thermal_occupation(np.where(normal, z, 1.0))
        # 2 (om / z), not 2 om / z: 2 om overflows near the largest double
        om_occ = np.where(normal, om * occ, 2.0 * (om / np.where(z > 0.0, z, np.inf)))
        # om * occupation is 0 at om = 0 and deep in the Wien tail, and so
        # is the thermal part, also where om^2 would overflow
        om_t = np.where(om_occ > 0.0, om, 0.0)
        pz = pref * om_t**2
        thermal = np.where(pz >= tiny, pz * om_occ, pref * om_occ * om_t * om_t)
    if component is Component.THERMAL:
        return thermal
    return pref * om**3 + thermal


def _maybe_scalar(out, *inputs):
    if all(np.ndim(x) == 0 for x in inputs):
        return float(out)
    return out


def rho_rest(omega, T, component: Component = Component.TOTAL, units: UnitSystem = NATURAL):
    """Rest-frame spectral density; isotropic, so no direction argument.

    Vectorized over omega.  The total is exactly zero-point + thermal.
    """
    om = np.asarray(omega, dtype=float)
    _check_nonneg_omega(om, "omega")
    t = temperature_value(T)
    scale = units.k_B * t / units.hbar if t > 0.0 else 1.0
    out = _planck_density(om, lambda w: w / scale, t, component, units)
    return _maybe_scalar(out, omega)


def rho_moving_mu(
    omega_prime,
    mu_prime,
    v: BoostVelocity,
    T,
    component: Component = Component.TOTAL,
    units: UnitSystem = NATURAL,
):
    """Moving-frame spectral density as a function of the cosine mu' = khat' . vhat.

    Broadcasts omega_prime against mu_prime.  The zero-point part is
    unchanged by the boost; the thermal part is the rest-frame Planck law
    at T_eff = T / (gamma (1 + |beta| mu')).
    """
    om = np.asarray(omega_prime, dtype=float)
    _check_nonneg_omega(om, "omega_prime")
    mu = _check_mu(mu_prime)
    t = temperature_value(T)
    d = inverse_doppler_factor(mu, v)
    om_b, d_b = np.broadcast_arrays(om, d)
    scale = units.k_B * t / units.hbar if t > 0.0 else 1.0
    out = _planck_density(om_b, lambda w: d_b * w / scale, t, component, units)
    return _maybe_scalar(out, omega_prime, mu_prime)


def rho_moving_pullback_mu(
    omega_prime,
    mu_prime,
    v: BoostVelocity,
    T,
    component: Component = Component.TOTAL,
    units: UnitSystem = NATURAL,
):
    """Moving-frame density by pulling back to the rest frame.

    rho'(omega', mu') = rho(D omega') / D^3 with D = gamma (1 + |beta| mu'):
    the rest-frame density at the pulled-back frequency, divided by the
    cubed frequency ratio.  Agrees with rho_moving_mu identically; the two
    are kept as separate code paths on purpose.  Where D omega' overflows,
    the thermal part is 0 if it is 0 at the largest double, because the
    Wien tail only falls beyond it; the zero-point part raises ValueError.
    """
    om = np.asarray(omega_prime, dtype=float)
    _check_nonneg_omega(om, "omega_prime")
    mu = _check_mu(mu_prime)
    d = inverse_doppler_factor(mu, v)
    with np.errstate(over="ignore"):
        om_rest = d * om
    overflow = np.isinf(om_rest)
    if (
        component is Component.THERMAL
        and overflow.any()
        and rho_rest(np.finfo(float).max, T, component, units) == 0.0
    ):
        om_rest = np.where(overflow, 0.0, om_rest)  # rho_rest's thermal part is 0 at 0 too
    out = rho_rest(om_rest, T, component, units) / d**3
    return _maybe_scalar(out, omega_prime, mu_prime)


def _direction_integrated_x_occupation(x, v: BoostVelocity):
    """x integral_{-1}^{1} 2 / (e^{D x} - 1) d mu' with D = gamma (1 + |beta| mu'), for x > 0.

    2 ln(1 - e^{-D x}) is an antiderivative in D x, so the value is
    (2 / (gamma |beta|)) log1p(e^{-lo} (1 - e^{-2a}) / (1 - e^{-lo})) with
    lo = gamma (1 - |beta|) x and a = gamma |beta| x: nothing cancels at small
    beta or small x, the Wien tail underflows to 0, and the value tends to
    (2 / (gamma |beta|)) ln((1 + |beta|) / (1 - |beta|)) as x -> 0 without
    overflowing.  At rest, and where a underflows, the integrand is flat in
    mu' and the value is 2 x thermal_occupation(x), formed as
    4 e^{-x} (x / (1 - e^{-x})).  Vectorized.
    """
    x = np.asarray(x, dtype=float)
    if v.is_rest:
        return _flat_x_occupation(x)
    neg_lo = -(v.gamma * (1.0 - v.beta_mag)) * x
    a = v.gamma * v.beta_mag * x
    # (1 - e^{-2a}) / (1 - e^{-lo}) with both signs flipped, which is exact
    log_ratio = np.log1p(np.exp(neg_lo) * np.expm1(-2.0 * a) / np.expm1(neg_lo))
    value = np.asarray(2.0 * log_ratio / (v.gamma * v.beta_mag))
    flat = a == 0.0
    if flat.any():
        value[flat] = _flat_x_occupation(x[flat])
    return value


def _flat_x_occupation(x):
    """2 x thermal_occupation(x) as 4 e^{-x} (x / (1 - e^{-x})), the value at rest."""
    return 4.0 * np.exp(-x) * (x / -np.expm1(-x))


def u_moving(
    omega_prime,
    v: BoostVelocity,
    T,
    component: Component = Component.TOTAL,
    units: UnitSystem = NATURAL,
):
    """Moving-frame spectral density integrated over directions, u'(omega').

    u'(omega') = 2 pi integral_{-1}^{1} rho'(omega', mu') d mu', energy per unit
    volume per unit angular frequency.  The zero-point part is exactly
    4 pi (hbar / (2 pi c)^3) omega'^3 at every beta, the T = 0 invariance of
    the spectral distribution.  The thermal part is elementary,

        2 pi (hbar / (2 pi c)^3) omega'^3 (2 k_B T / (hbar gamma |beta| omega'))
            ln[(1 - e^{-gamma (1 + |beta|) x}) / (1 - e^{-gamma (1 - |beta|) x})]

    with x = hbar omega' / (k_B T), and 4 pi (hbar / (2 pi c)^3) omega'^3
    2 / (e^x - 1) at rest.  omega' = 0 and T = 0 give a thermal part of
    exactly 0.  Vectorized over omega_prime.
    """
    if not isinstance(component, Component):
        raise TypeError(f"component must be a Component, got {component!r}")
    om = np.asarray(omega_prime, dtype=float)
    _check_nonneg_omega(om, "omega_prime")
    t = temperature_value(T)
    pref = spectral_prefactor(units)
    if component is Component.ZERO_POINT:
        return _maybe_scalar(4.0 * np.pi * pref * om**3, omega_prime)
    thermal = np.zeros_like(om)
    if t > 0.0:
        scale = units.k_B * t / units.hbar
        # x may round up to inf near the largest double, deep in the Wien tail
        with np.errstate(over="ignore"):
            x = om / scale
        # lo is the hottest direction's argument: 0 where x underflows; past
        # 800, e^{-lo}, and with it the thermal part, is exactly 0
        lo = v.gamma * (1.0 - v.beta_mag) * x
        live = (lo > 0.0) & (lo < 800.0)
        x_occ = np.where(live, _direction_integrated_x_occupation(np.where(live, x, 1.0), v), 0.0)
        # om * occupation = scale * x_occ stays finite as om -> 0, where
        # om^3 underflows first; om^2 is multiplied in last, so no
        # subnormal intermediate drops digits
        thermal = 2.0 * np.pi * pref * (scale * x_occ) * om * om
    if component is Component.THERMAL:
        return _maybe_scalar(thermal, omega_prime)
    return _maybe_scalar(4.0 * np.pi * pref * om**3 + thermal, omega_prime)


def effective_temperature_mu(mu_prime, v: BoostVelocity, T):
    """T / (gamma (1 + |beta| mu')): the rest-frame temperature whose Planck law
    equals the moving-frame thermal spectrum at cosine mu'.  Vectorized;
    raises ValueError unless mu' is finite and in [-1, 1]."""
    mu = _check_mu(mu_prime)
    t = temperature_value(T)
    out = t / inverse_doppler_factor(mu, v)
    return _maybe_scalar(out, mu_prime)


@dataclass(frozen=True, eq=False)
class MultipoleCoefficients:
    """Legendre coefficients of the effective temperature over mu'.

    T_eff(mu') = sum_l a[l] P_l(mu') with mu' = khat' . vhat the cosine of
    the propagation direction.  Note this is the propagation-direction
    convention: an observer scanning arrival directions sees the sign of
    every odd multipole flipped.  The dipole a[1] is negative.

    method says how the coefficients were computed: "recurrence" (the
    closed form, with n_evaluations the number of backward-recurrence
    steps) or "projection" (Gauss-Legendre, with n_evaluations the node
    count, one T_eff evaluation each).
    """

    l_max: int
    a: np.ndarray
    method: str
    n_evaluations: int
    convention: str = "T_eff(mu') = sum_l a_l P_l(mu'), mu' = propagation cosine khat'.vhat"

    def __post_init__(self):
        arr = np.array(self.a, dtype=float, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "a", arr)


def temperature_multipoles(
    v: BoostVelocity, T, l_max: int, n_nodes: int | None = None
) -> MultipoleCoefficients:
    """Legendre coefficients of T_eff(mu') = T / (gamma (1 + |beta| mu')).

    By default they come from the closed form.  The generating expansion
    1/(z + mu') = sum_l (-1)^l (2l + 1) Q_l(z) P_l(mu') at z = 1/|beta|,
    with Q_l the Legendre function of the second kind, gives

        a_l = (-1)^l (2l + 1) T Q_l(1/beta) / (gamma beta)
            = (-1)^l (2l + 1) (T atanh(beta) / (gamma beta)) prod_{k<=l} r_k

    with Q_0(1/beta) = atanh(beta) and r_k = Q_k / Q_{k-1}.  The ratios
    come from Miller's backward recurrence (Gautschi 1967, SIAM Rev. 9:24),
    written in beta so that it holds down to beta = 0:

        r_k = k beta / ((2k + 1) - (k + 1) beta r_{k+1}),   r_{n+1} = 0,

    started at n = l_max + 2 + ceil(19 / acosh(1/beta)).  The truncation
    error of the start decays like rho^{-2(n - k)} with
    ln rho = acosh(1/beta), so 19 / ln rho extra terms put it below double
    rounding; memory stays O(l_max) and no ratio can overflow.  At rest
    every r_k is exactly 0 and the removable limit atanh(beta)/beta -> 1
    gives a_l = T delta_l0 exactly.  Each step damps the rounding of the
    ones before it only by rho^{-2}, so it accumulates as beta -> 1: every
    a_l is within 1e-15 relative of 40-digit mpmath up to beta = 0.9,
    2e-15 at 0.99, 1e-14 at 0.999, 1e-13 at 0.999999 and 1e-11 at
    1 - 1e-9 (tests/test_oracle.py).

    Given n_nodes, the coefficients are instead projected by Gauss-Legendre
    quadrature with exactly that many nodes (n_nodes > l_max, else
    ValueError):

        a_l = (2l + 1)/2 * integral_{-1}^{1} T_eff(mu') P_l(mu') d mu'

    The pole of T_eff at mu' = -1/beta makes its error decay like
    rho^{-2 n_nodes}, and rounding leaves an absolute floor near 1e-14 T on
    every coefficient; it is kept as an independent cross-check.
    """
    if l_max < 0:
        raise ValueError(f"l_max must be >= 0, got {l_max}")
    if n_nodes is not None:
        if n_nodes <= l_max:
            raise ValueError("need more quadrature nodes than l_max")
        x, w = np.polynomial.legendre.leggauss(n_nodes)
        teff = effective_temperature_mu(x, v, T)
        vander = np.polynomial.legendre.legvander(x, l_max)
        a = (2.0 * np.arange(l_max + 1) + 1.0) / 2.0 * (vander.T @ (w * teff))
        return MultipoleCoefficients(l_max, a, "projection", n_nodes)
    t = temperature_value(T)
    beta = v.beta_mag
    if beta > 0.0:
        n = l_max + 2 + math.ceil(19.0 / math.acosh(1.0 / beta))
        atanh_over_beta = math.atanh(beta) / beta
    else:  # removable limit; every ratio below is then exactly 0
        n = l_max + 2
        atanh_over_beta = 1.0
    # k runs as a float, which holds every k exactly and keeps the loop on
    # float arithmetic; the tail above l_max stores nothing
    r = 0.0
    for k in map(float, range(n, l_max, -1)):
        r = k * beta / ((2.0 * k + 1.0) - (k + 1.0) * beta * r)
    ratios = []  # -r_l_max .. -r_1
    for k in map(float, range(l_max, 0, -1)):
        r = k * beta / ((2.0 * k + 1.0) - (k + 1.0) * beta * r)
        ratios.append(-r)
    # the running product from l = 1 up, in the order of np.cumprod
    p = t * atanh_over_beta / v.gamma
    a = [p]
    for l, q in enumerate(reversed(ratios), 1):
        p *= q
        a.append((2 * l + 1) * p)
    return MultipoleCoefficients(l_max, a, "recurrence", n)
