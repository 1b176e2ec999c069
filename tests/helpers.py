"""Shared random-geometry builders for the test modules."""

import numpy as np

from relplanck import PhotonMode, make_boost
from relplanck.montecarlo import _isotropic_directions as random_unit_vectors


def random_boosts(rng, n, beta_max=0.99):
    mags = beta_max * rng.random(n) ** 0.5
    dirs = random_unit_vectors(rng, n)
    return [make_boost(b * d) for b, d in zip(mags, dirs)]


def random_modes(rng, n, omega_lo=1e-2, omega_hi=1e2):
    omega = np.exp(rng.uniform(np.log(omega_lo), np.log(omega_hi), n))
    dirs = random_unit_vectors(rng, n)
    return [PhotonMode(w, d) for w, d in zip(omega, dirs)]


# the edge checks' messages, each naming its input and range (README, "Domain")
T_RANGE = "temperature must be 0 or lie in [1e-3, 1e5]"
BETA_RANGE = "|beta| must lie in [0, 1 - 1e-9]"
OMEGA_RANGE = "must be finite and lie in [0, 1e30]"
UNITS_RANGE = "units must be natural (hbar, c, k_B) = (1, 1, 1) or SI"
SEED_RANGE = "seed must be an integer >= 0"
MU_RANGE = "must be finite and lie in [-1, 1]"
L_MAX_RANGE = "l_max must be an integer in [0, 10000]"
