"""Lorentz transformation of photon modes and electromagnetic fields.

Conventions: primed quantities live in the frame moving with velocity
``beta`` relative to the radiation rest frame, and mu = khat . vhat is the
cosine between a propagation direction and the boost axis.  The mode map is

    omega' = gamma (1 - khat . beta) omega
    mu'    = (mu - |beta|) / (1 - |beta| mu)

with frequency Jacobian d(omega)/d(omega') = gamma (1 + |beta| mu') and
solid-angle Jacobian d(Omega)/d(Omega') = 1 / (gamma (1 + |beta| mu'))^2 at
the boosted direction; ``boost_mu`` computes them as 1 / D and D^2 from
the Doppler factor D = gamma (1 - |beta| mu).  Both Doppler factors and the
aberration denominator are formed as gamma ((1 - |beta|) + |beta| (1 -+ mu)),
a sum of non-negative terms, so nothing cancels at any cosine in [-1, 1]
and any |beta| < 1.  ``boost_mu`` is the one implementation of this map,
vectorized over (omega, mu) pairs.
``boost_mode`` is built on it: it takes mu from the 3-vector, calls
``boost_mu`` once, and rebuilds the direction from the boost-invariant
transverse wavevector.

Fields transform linearly, (E', B') = L (E, B) with L the 6x6 matrix of
``_field_boost_matrix``, the one implementation of the field boost: the
correlation route of ``radiometry`` applies it to the rest-frame field
correlation as L C L^T, and the selftest to stacked (E, B) rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BoostVelocity, PhotonMode, _check_mu, _check_omega

__all__ = [
    "ModeTransformResult",
    "doppler_factor",
    "inverse_doppler_factor",
    "aberrate_mu",
    "boost_mode",
    "boost_mu",
    "direction_with_cosine",
]


@dataclass(frozen=True, eq=False)
class ModeTransformResult:
    """Boosted mode together with the Jacobians of the mode map at that point."""

    mode_prime: PhotonMode
    jac_freq: float
    jac_solid_angle: float


def _doppler_sum(one_pm_mu, b: float):
    """(1 - b) + b one_pm_mu, formed in place: with one_pm_mu = 1 -+ mu >= 0
    both terms are non-negative, so the sum does not cancel near |mu| = 1."""
    one_pm_mu *= b
    one_pm_mu += 1.0 - b
    return one_pm_mu


def doppler_factor(mu, v: BoostVelocity):
    """gamma (1 - |beta| mu) = omega'/omega at rest-frame cosine mu.  Vectorized; raises
    ValueError for a cosine outside the domain (README, "Domain")."""
    d = _doppler_sum(1.0 - _check_mu(mu, "mu"), v.beta_mag)
    d *= v.gamma
    return d


def inverse_doppler_factor(mu_prime, v: BoostVelocity):
    """gamma (1 + |beta| mu') = omega/omega' at moving-frame cosine mu'.  Vectorized; raises
    ValueError for a cosine outside the domain (README, "Domain")."""
    d = _doppler_sum(1.0 + _check_mu(mu_prime, "mu_prime"), v.beta_mag)
    d *= v.gamma
    return d


def aberrate_mu(mu, v: BoostVelocity):
    """Boosted propagation cosine (mu - |beta|) / (1 - |beta| mu).  Vectorized; raises
    ValueError for a cosine outside the domain (README, "Domain")."""
    mu = _check_mu(mu, "mu")
    b = v.beta_mag
    return (mu - b) / _doppler_sum(1.0 - mu, b)


def boost_mu(omega, mu, v: BoostVelocity):
    """Vectorized boost of (omega, mu) pairs; no 3-vector bookkeeping.

    Returns (omega', mu', jac_freq, jac_solid_angle) as arrays broadcast
    against each other.  Both Jacobians come from the rest-frame cosine,
    jac_freq = 1 / D and jac_solid_angle = D^2 with D = doppler_factor(mu, v),
    so no rounding of mu' enters them.  omega', jac_freq and D^2 hold the
    relative bounds of core._ERROR_BOUNDS["boost_mu"] where normal, and mu'
    its absolute one, as mu - |beta| cancels (tests/test_oracle.py).  Raises
    ValueError for an omega or a mu outside the domain (README, "Domain").
    """
    omega = _check_omega(omega, "omega")
    mu_p = aberrate_mu(mu, v)
    d = doppler_factor(mu, v)
    omega_p = omega * d
    jac_freq = 1.0 / d
    d *= d
    return omega_p, mu_p, jac_freq, d


def boost_mode(mode: PhotonMode, v: BoostVelocity) -> ModeTransformResult:
    """Apply Doppler shift and aberration; report the Jacobians alongside.

    omega', mu' and both Jacobians come from boost_mu.  The wavevector
    component transverse to vhat is boost-invariant, so with
    D = omega'/omega = doppler_factor(mu, v)

        khat' = (khat - mu vhat) / D + mu' vhat,

    which keeps the azimuth about vhat and needs no special case near the
    axis.  At beta = 0 the input mode is returned unchanged with unit
    Jacobians.  Raises ValueError for a mode frequency outside the domain
    (README, "Domain"); omega' may exceed that range by the Doppler factor,
    up to about 4.5e4.  So boost_mode(mode', v.reversed()) inverts the map
    only where omega' <= 1e30: omega 1e30 at mu = -1 and beta 1 - 1e-9
    boosts to 4.47e34, which the inverse rejects.
    """
    _check_omega(mode.omega, "omega")
    if v.is_rest:
        return ModeTransformResult(mode, 1.0, 1.0)
    mu = min(1.0, max(-1.0, float(mode.khat @ v.vhat)))
    omega_p, mu_p, jac_freq, jac_solid_angle = map(float, boost_mu(mode.omega, mu, v))
    khat_p = (mode.khat - mu * v.vhat) / float(doppler_factor(mu, v)) + mu_p * v.vhat
    return ModeTransformResult(PhotonMode(omega_p, khat_p), jac_freq, jac_solid_angle)


def _field_boost_matrix(v: BoostVelocity) -> np.ndarray:
    """The 6x6 L with (E', B') = L (E, B): the one implementation of the field boost.

        E' = (vhat.E) vhat + gamma [E - (vhat.E) vhat + beta x B]
        B' = (vhat.B) vhat + gamma [B - (vhat.B) vhat - beta x E]

    so L = [[A, gamma [beta]x], [-gamma [beta]x, A]] with
    A = gamma I + (1 - gamma) vhat vhat^T and [beta]x the cross-product
    matrix.  Built from Python floats in one np.array call, the cheapest
    way to fill a 6x6 on this path; identity at beta = 0.
    """
    g = v.gamma
    hx, hy, hz = v.vhat.tolist()
    bx, by, bz = (g * b for b in v.beta.tolist())
    p = 1.0 - g
    ax, ay, az = p * hx, p * hy, p * hz
    return np.array([
        [g + ax * hx, ax * hy, ax * hz, 0.0, -bz, by],
        [ay * hx, g + ay * hy, ay * hz, bz, 0.0, -bx],
        [az * hx, az * hy, g + az * hz, -by, bx, 0.0],
        [0.0, bz, -by, g + ax * hx, ax * hy, ax * hz],
        [-bz, 0.0, bx, ay * hx, g + ay * hy, ay * hz],
        [by, -bx, 0.0, az * hx, az * hy, g + az * hz],
    ])


def direction_with_cosine(mu, v: BoostVelocity, azimuth: float = 0.0) -> np.ndarray:
    """A unit vector whose cosine with v.vhat is mu, at the given azimuth; raises
    ValueError for a cosine outside the domain (README, "Domain")."""
    mu = float(_check_mu(mu, "cosine"))
    if not math.isfinite(azimuth):
        raise ValueError(f"azimuth must be finite, got {azimuth!r}")
    vh = v.vhat
    helper = np.array([1.0, 0.0, 0.0]) if abs(vh[0]) <= 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(vh, helper)
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(vh, e1)
    s = np.sqrt(max(0.0, (1.0 - mu) * (1.0 + mu)))
    k = mu * vh + s * (np.cos(azimuth) * e1 + np.sin(azimuth) * e2)
    return k / np.linalg.norm(k)
