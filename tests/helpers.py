"""Shared random-geometry builders for the test modules."""

import numpy as np
from hypothesis import strategies as st

from relplanck import PhotonMode, core, make_boost
from relplanck.montecarlo import _isotropic_directions as random_unit_vectors


def random_boosts(rng, n, beta_max=0.99):
    """n signed speeds along z: |beta| = beta_max sqrt(U), either sign half the time."""
    mags = beta_max * rng.random(n) ** 0.5
    signs = rng.choice((-1.0, 1.0), n)
    return [make_boost([0.0, 0.0, s * b]) for s, b in zip(signs, mags)]


def speeds(hi):
    """|beta| inside the domain: 0, or from its floor 2^-1022 up to hi."""
    return st.just(0.0) | st.floats(core._BETA_MIN, hi)


def random_modes(rng, n, omega_lo=1e-2, omega_hi=1e2):
    omega = np.exp(rng.uniform(np.log(omega_lo), np.log(omega_hi), n))
    dirs = random_unit_vectors(rng, n)
    return [PhotonMode(w, d) for w, d in zip(omega, dirs)]


class NoDraws:
    """A generator stand-in that fails any draw, so no rejected count is ever sampled."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the generator ({name})")


# the edge checks' messages, each naming its input and range (README, "Domain")
T_RANGE = "temperature must be 0 or lie in [1e-3, 1e5]"
BETA_RANGE = "|beta| must lie in [0, 1 - 1e-9]"
BETA_FLOOR = "|beta| must be 0 or at least 2^-1022"
BETA_ALONG_Z = "beta must be a velocity [0, 0, b] along z"
OMEGA_RANGE = "must be finite and lie in [0, 1e30]"
UNITS_RANGE = "units must be natural (hbar, c, k_B) = (1, 1, 1) or SI"
SEED_RANGE = "seed must be an integer >= 0"
MU_RANGE = "must be finite and lie in [-1, 1]"
L_MAX_RANGE = "l_max must be an integer in [0, 10000]"
THERMAL_T_RANGE = "the thermal spectrum is 0 at T = 0; T > 0 required"
N_SAMPLES_RANGE = "n_samples must be an integer in [1, 1000000000]"
N_MODES_RANGE = "n must be an integer in [1, 100000000]"
