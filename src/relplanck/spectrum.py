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

All three densities go through one assembly, _density: the zero-point
part pref omega omega omega and the thermal part

    pref * s * omega * omega * f * h * h,   s = k_B T / (hbar D),

multiplied left to right, with D = 1 at rest, f = 2 x / (1 - e^{-x}) and
h = e^{-x/2} at x = omega / s, so f h h = 2 x / (e^x - 1) <= 2 (u_moving
passes 4 pi pref and the pair's mean over mu').  Neither omega^3 nor the
occupation nor e^{-x} is formed on its own, so the thermal part survives
where omega^3 underflows, where the occupation overflows and where e^{-x}
is subnormal.  Left to right, an intermediate is subnormal only where the
density is below twice the smallest normal double: every factor after f is
at most 1, and pref s omega omega is subnormal only where f is at most 2.
Inside the domain of core (README, "Domain") no density overflows; every
public function here rejects inputs outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (_L_MAX_CAP, NATURAL, BoostVelocity, Component, UnitSystem, _check_count,
                   _check_omega, temperature_value)
from .kinematics import inverse_doppler_factor

__all__ = [
    "spectral_prefactor",
    "rho_rest",
    "rho_moving_mu",
    "rho_moving_pullback_mu",
    "u_moving",
    "effective_temperature_mu",
    "MultipoleCoefficients",
    "temperature_multipoles",
]

_SMALLEST = np.finfo(float).smallest_subnormal
_TINY = np.finfo(float).tiny


def spectral_prefactor(units: UnitSystem = NATURAL) -> float:
    """hbar / (2 pi c)^3, the overall scale of the spectral density."""
    return units.hbar / (2.0 * np.pi * units.c) ** 3


def _x_occupation(x):
    """x times the occupation, 2 x / (e^x - 1), for x > 0 as the pair (f, h) with
    f h h its value: f = 2 x / (1 - e^{-x}), 2 for subnormal x, and h = e^{-x/2}."""
    return 2.0 * x / -np.expm1(-x), np.exp(-0.5 * x)


def _density(om, s, x_occ, component, pref):
    """pref om^3 {1, occupation, coth}, assembled as the module docstring says.

    x_occ maps x = om / s, at least the smallest subnormal, where the
    occupation has reached its limit, to a pair (f, h) like _x_occupation.
    The thermal part is exactly 0 at om = 0, at T = 0 (s = 0, where om / s
    is inf or NaN) and where h is 0 or the product NaN; the zero-point
    part is pref * om * om * om, left to right like the thermal part.
    """
    if not isinstance(component, Component):
        raise TypeError(f"component must be a Component, got {component!r}")
    if component is Component.ZERO_POINT:
        return pref * om * om * om
    with np.errstate(divide="ignore", invalid="ignore"):
        f, h = x_occ(np.maximum(om / s, _SMALLEST))
        out = np.fmax(pref * s * om * om * f * h * h, 0.0)
    if component is Component.TOTAL:
        out = pref * om * om * om + out
    return out


def _maybe_scalar(out, *inputs):
    if all(np.ndim(x) == 0 for x in inputs):
        return float(out)
    return out


def rho_rest(omega, T, component: Component = Component.TOTAL, units: UnitSystem = NATURAL):
    """Rest-frame spectral density; isotropic, so no direction argument.

    Vectorized over omega.  The total is exactly zero-point + thermal.
    The thermal part holds core._ERROR_BOUNDS["rho_rest"], z = hbar omega /
    k_B T (tests/test_oracle.py).  Raises ValueError for an omega or T
    outside the domain (README, "Domain").
    """
    om = _check_omega(omega, "omega")
    s = units.k_B * temperature_value(T) / units.hbar
    out = _density(om, s, _x_occupation, component, spectral_prefactor(units))
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
    at T_eff = T / (gamma (1 + |beta| mu')), within
    core._ERROR_BOUNDS["rho_moving_mu"], z = hbar omega' / k_B T_eff
    (tests/test_oracle.py).  Raises ValueError for an omega', mu' or T
    outside the domain (README, "Domain").
    """
    om = _check_omega(omega_prime, "omega_prime")
    om_b, d_b = np.broadcast_arrays(om, inverse_doppler_factor(mu_prime, v))
    s = units.k_B * temperature_value(T) / units.hbar / d_b
    out = _density(om_b, s, _x_occupation, component, spectral_prefactor(units))
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
    cubed frequency ratio, kept apart from rho_moving_mu on purpose.  Its
    thermal part holds core._ERROR_BOUNDS["rho_moving_pullback_mu"], z =
    hbar D omega' / k_B T (tests/test_oracle.py): it is rho_rest's assembly
    with pref / D^3, so no intermediate is subnormal where the density is
    normal, without rho_rest's check of D omega', which may lie above the
    domain's omega where omega' does not.
    """
    om = _check_omega(omega_prime, "omega_prime")
    d = inverse_doppler_factor(mu_prime, v)
    s = units.k_B * temperature_value(T) / units.hbar
    out = _density(d * om, s, _x_occupation, component, spectral_prefactor(units) / d**3)
    return _maybe_scalar(out, omega_prime, mu_prime)


def _direction_integrated_x_occupation(x, v: BoostVelocity, mu_a=-1.0, mu_b=1.0):
    """x integral_{mu_a}^{mu_b} 2 / (e^{D x} - 1) d mu' with D = gamma (1 + |beta| mu'), for x > 0,
    as the pair (f, h) of _x_occupation, with f h h its value.

    2 ln(1 - e^{-D x}) is an antiderivative in D x, so the value is
    (2 / (gamma |beta|)) log1p(h h r) with h = e^{-lo/2}, lo = gamma (1 +
    |beta| mu_a) x, r = (1 - e^{-2a}) / (1 - e^{-lo}) and 2a = gamma |beta|
    (mu_b - mu_a) x; f = (2 / (gamma |beta|)) r log1p(y) / y with y = h h r
    taken as at least the smallest normal double, below which log1p(y) / y
    is exactly 1, so that f is exact where h h underflows.  Nothing cancels
    at small beta, small x or a narrow interval, and on [-1, 1] the value
    tends to (2 / (gamma |beta|)) ln((1 + |beta|) / (1 - |beta|)) as x -> 0.
    At rest, and where 2a is below the smallest normal double, so that r
    would have lost digits, the pair is the rest value _x_occupation(x), f
    times mu_b - mu_a: the integrand varies over [mu_a, mu_b] by about 2a
    relative, far below an ulp.  Broadcasts.
    """
    x = np.asarray(x, dtype=float)
    if v.is_rest:
        f, h = _x_occupation(x)
        return (mu_b - mu_a) * f, h
    neg_lo = -(v.gamma * (1.0 + v.beta_mag * mu_a)) * x
    neg_2a = -(v.gamma * v.beta_mag * (mu_b - mu_a)) * x
    h = np.exp(0.5 * neg_lo)
    # (1 - e^{-2a}) / (1 - e^{-lo}) with both signs flipped, which is exact
    r = np.expm1(neg_2a) / np.expm1(neg_lo)
    y = np.maximum(h * h * r, _TINY)
    f = 2.0 / (v.gamma * v.beta_mag) * r * np.log1p(y) / y
    flat = neg_2a > -_TINY
    if flat.any():
        f_flat, h_flat = _x_occupation(x)
        f, h = np.where(flat, (mu_b - mu_a) * f_flat, f), np.where(flat, h_flat, h)
    return f, h


def u_moving(
    omega_prime,
    v: BoostVelocity,
    T,
    component: Component = Component.TOTAL,
    units: UnitSystem = NATURAL,
):
    """Moving-frame spectral density integrated over directions, u'(omega').

    u'(omega') = 2 pi integral_{-1}^{1} rho'(omega', mu') d mu', energy per unit
    volume per unit angular frequency: the assembly of rho_rest with the
    prefactor 4 pi (hbar / (2 pi c)^3) and, as x times the occupation, its
    mean over mu'.  The zero-point part is 4 pi (hbar / (2 pi c)^3) omega'^3
    at every beta, the T = 0 invariance of the spectral distribution.  The
    thermal part is elementary,

        2 pi (hbar / (2 pi c)^3) omega'^3 (2 k_B T / (hbar gamma |beta| omega'))
            ln[(1 - e^{-gamma (1 + |beta|) x}) / (1 - e^{-gamma (1 - |beta|) x})]

    with x = hbar omega' / (k_B T), and 4 pi (hbar / (2 pi c)^3) omega'^3
    2 / (e^x - 1) at rest.  It is exactly 0 at omega' = 0, at T = 0 and
    where the hottest direction's z = gamma (1 - |beta|) x is 0, and holds
    core._ERROR_BOUNDS["u_moving"] with that z wherever it is a normal
    double (tests/test_oracle.py).  Raises ValueError for an omega' or T
    outside the domain (README, "Domain").  Vectorized over omega_prime.
    """
    om = _check_omega(omega_prime, "omega_prime")
    s = units.k_B * temperature_value(T) / units.hbar

    def mean_x_occ(x):  # f is NaN only where gamma (1 - |beta|) x and the density underflow
        f, h = _direction_integrated_x_occupation(x, v)
        return 0.5 * f, h

    out = _density(om, s, mean_x_occ, component, 4.0 * np.pi * spectral_prefactor(units))
    return _maybe_scalar(out, omega_prime)


def effective_temperature_mu(mu_prime, v: BoostVelocity, T):
    """T / (gamma (1 + |beta| mu')): the rest-frame temperature whose Planck law
    equals the moving-frame thermal spectrum at cosine mu', within
    core._ERROR_BOUNDS["effective_temperature_mu"] where T_eff is normal
    (tests/test_oracle.py).  Vectorized; raises ValueError unless mu' is
    finite and in [-1, 1], and for a T outside the domain (README, "Domain")."""
    d = inverse_doppler_factor(mu_prime, v)
    return _maybe_scalar(temperature_value(T) / d, mu_prime)


@dataclass(frozen=True, eq=False)
class MultipoleCoefficients:
    """Legendre coefficients of the effective temperature over mu'.

    T_eff(mu') = sum_l a[l] P_l(mu') with mu' = khat' . vhat the cosine of
    the propagation direction.  Note this is the propagation-direction
    convention: an observer scanning arrival directions sees the sign of
    every odd multipole flipped.  The dipole a[1] is negative.

    method names the branch of the closed form that ran: "recurrence",
    Miller's backward recurrence, or "forward-recurrence" near beta = 1
    (temperature_multipoles).  n_evaluations is that branch's number of
    recurrence steps: l_max + 2 + ceil(19 / acosh(1/beta)) backward (0 at
    l_max 0), l_max forward.
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


def temperature_multipoles(v: BoostVelocity, T, l_max: int) -> MultipoleCoefficients:
    """Legendre coefficients of T_eff(mu') = T / (gamma (1 + |beta| mu')).

    They come from the closed form.  The generating expansion
    1/(z + mu') = sum_l (-1)^l (2l + 1) Q_l(z) P_l(mu') at z = 1/|beta|,
    with Q_l the Legendre function of the second kind, gives

        a_l = (-1)^l (2l + 1) T Q_l(1/beta) / (gamma beta),

    with Q_0(1/beta) = atanh(beta), so a_0 = T (atanh(beta) / beta) / gamma
    on both branches below, bit for bit.  Q_l(1/beta) decays like rho^{-2l}
    relative to the other solution of its recurrence, ln rho =
    acosh(1/beta), and the branch is chosen by how far that matters up to
    l_max:

    - Where l_max >= 1 and 2 l_max acosh(1/beta) <= 2 (beta >= 0.99805 at
      l_max 16, 0.9469 at l_max 3), the forward recurrence written in beta,

          (l + 1) Q_{l+1} = (2l + 1) Q_l / beta - l Q_{l-1},
          Q_0 = atanh(beta),   Q_1 = atanh(beta) / beta - 1,

      is stable: rounding grows at most like rho^{2 l} <= e^2.  It runs on
      the differences d_l = Q_l - Q_{l-1}, which tend to -1/l as beta -> 1,

          d_1 = Q_0 delta - 1,   d_{l+1} = (l d_l + (2l + 1) delta Q_l) / (l + 1),

      with delta = (1 - beta) / beta, whose 1 - beta is exact, so each Q_l
      is one rounded sum; method "forward-recurrence", l_max steps.
    - Everywhere else, Miller's backward recurrence (Gautschi 1967, SIAM
      Rev. 9:24) for the ratios r_k = Q_k / Q_{k-1}, written in beta so
      that it holds down to beta = 0,

          r_k = k beta / ((2k + 1) - (k + 1) beta r_{k+1}),   r_{n+1} = 0,

      started at n = l_max + 2 + ceil(19 / acosh(1/beta)), and a_l =
      (-1)^l (2l + 1) a_0 prod_{k<=l} r_k; method "recurrence", n steps.
      The truncation error of the start decays like rho^{-2(n - k)}, so
      19 / ln rho extra terms put it below double rounding, and no ratio
      can overflow.  Below the switch n <= 20 l_max + 2 for l_max >= 1
      (322 at l_max 16, 152 at beta 0.99); at l_max 0 a_0 needs no ratio
      and n = 0.  At rest every r_k is exactly 0 and the removable limit
      atanh(beta)/beta -> 1 gives a_l = T delta_l0 exactly.

    Memory is O(l_max) on both.  Against 40-digit mpmath every a_l at
    l_max 16 is within core._ERROR_BOUNDS["temperature_multipoles"] for its
    branch and |beta| band (tests/test_oracle.py).  Raises ValueError for a
    T or an l_max outside the domain (README, "Domain").
    """
    _check_count(l_max, "l_max", _L_MAX_CAP)
    t = temperature_value(T)
    beta = v.beta_mag
    if l_max >= 1 and beta > 0.0 and 2 * l_max * math.acosh(1.0 / beta) <= 2.0:
        a = _forward_recurrence(t, v, l_max)
        return MultipoleCoefficients(l_max, a, "forward-recurrence", l_max)
    a, n = _backward_recurrence(t, v, l_max)
    return MultipoleCoefficients(l_max, a, "recurrence", n)


def _forward_recurrence(t: float, v: BoostVelocity, l_max: int) -> list:
    """a_0 .. a_l_max from the forward recurrence in differences (temperature_multipoles).

    Accurate only where l_max acosh(1/beta) <= 1; needs beta > 0.
    """
    beta = v.beta_mag
    q = math.atanh(beta)
    delta = (1.0 - beta) / beta
    scale = t / (v.gamma * beta)
    a = [t * (q / beta) / v.gamma]
    d = q * delta - 1.0
    sign = 1.0
    # l runs as a float, as k does in _backward_recurrence
    for l in map(float, range(1, l_max + 1)):
        q += d
        sign = -sign
        a.append(sign * (2.0 * l + 1.0) * scale * q)
        d = (l * d + (2.0 * l + 1.0) * delta * q) / (l + 1.0)
    return a


def _backward_recurrence(t: float, v: BoostVelocity, l_max: int) -> tuple[list, int]:
    """a_0 .. a_l_max and the step count of Miller's backward recurrence (temperature_multipoles).

    Accurate at every beta, in a number of steps that grows like
    19 / acosh(1/beta) as beta -> 1 where l_max >= 1, and none at l_max 0.
    """
    beta = v.beta_mag
    if beta > 0.0:
        n = l_max + 2 + math.ceil(19.0 / math.acosh(1.0 / beta))
        atanh_over_beta = math.atanh(beta) / beta
    else:  # removable limit; every ratio below is then exactly 0
        n = l_max + 2
        atanh_over_beta = 1.0
    if l_max == 0:  # a_0 takes no ratio
        n = 0
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
    return a, n
