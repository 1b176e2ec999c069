"""Unit systems, boost velocities, photon modes, the spectral split, and check records.

Shared domain types for the whole package.  The default unit system is
natural (hbar = c = k_B = 1); SI constants are available via
``UnitSystem.si()``.  Every type here is a frozen dataclass, immutable
after construction and safe to share across threads.  Temperature always
means the temperature in the radiation rest frame; nothing in this package
ever boosts a temperature, only the spectrum.

The accepted input domain is stated here once (README, "Domain"): T = 0 or
1e-3 <= T <= 1e5 (T > 0 where the thermal spectrum is normalized or
sampled), |beta| = 0 or 2^-1022 <= |beta| <= 1 - 1e-9, 0 <= omega <= 1e30
in the unit system's own frequency unit, the natural or SI unit system, a
cosine in [-1, 1] up to 1e-12, and integer counts up to caps of time or
memory.  temperature_value, _thermal_temperature, BoostVelocity,
UnitSystem, _check_omega, _check_mu and _check_count reject anything
outside it with a ValueError naming the input and its range, so no
density, energy density or multipole inside the package can overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cache

import numpy as np

# the accepted input domain; README's "Domain" section states the same numbers
_T_MIN = 1e-3
_T_MAX = 1e5
_BETA_MAX = 1.0 - 1e-9
# the smallest normal double: below it 2 / (gamma |beta|) in the direction integral overflows
_BETA_MIN = 2.0**-1022
_OMEGA_MAX = 1e30
_MU_SLACK = 1e-12
_L_MAX_CAP = 10**4
# Monte Carlo draws, in chunks of fixed memory: 0.057 s per 10^6 on 2 cores, a minute at the cap
_N_SAMPLES_CAP = 10**9
# modes sample_rest_modes draws at once: it peaks at 2.1 arrays of n doubles, 1.7 GB at the cap
_N_MODES_CAP = 10**8
_SI_CONSTANTS = (1.054571817e-34, 299792458.0, 1.380649e-23)

# The error bounds the functions state, each cited by its docstring and held by
# tests/test_oracle.py and scripts/bound_sweep.py: relative (eps = 2^-52) but
# boost_mu's absolute mu'; the thermal parts' times 1 + z where the part is normal;
# the multipoles' by method, (upper |beta| edge, bound) bands closed above.
_EPS = 2.0**-52
_ERROR_BOUNDS = {
    **dict.fromkeys(("rho_rest", "rho_moving_mu", "rho_moving_pullback_mu", "u_moving"),
                    {"times_1_plus_z": 4 * _EPS}),
    "effective_temperature_mu": 3 * _EPS,
    "boost_mu": {"omega_prime": 3 * _EPS, "jac_freq": 3 * _EPS, "jac_solid_angle": 5 * _EPS,
                 "mu_prime_absolute": 3 * _EPS},
    "energy_density_moving_spectral": 2e-15,
    "energy_density_moving_correlation": 8e-16,
    "temperature_multipoles": {"recurrence": ((0.9, 4e-15), (0.99, 1e-14), (1.0, 3e-14)),
                               "forward-recurrence": ((1.0, 4e-15),)},
    "run_identity_check": 1e-10,  # McReport.analytic in the included bins only
}

__all__ = [
    "Component",
    "UnitSystem",
    "NATURAL",
    "BoostVelocity",
    "CheckResult",
    "make_boost",
    "PhotonMode",
    "temperature_value",
]


class Component(Enum):
    """Selector for the zero-point / thermal split of the spectral density.

    The split follows coth(x) = 1 + 2/(e^{2x} - 1): TOTAL is identically
    ZERO_POINT + THERMAL, pointwise, in every frame.
    """

    ZERO_POINT = "zero-point"
    THERMAL = "thermal"
    TOTAL = "total"


@dataclass(frozen=True)
class UnitSystem:
    """Values of hbar, c and k_B fixing the unit system.

    The defaults are natural units, hbar = c = k_B = 1; the only other
    accepted values are those of ``UnitSystem.si()``.  Any other constants
    raise ValueError: the domain's ranges for T and omega are stated in
    these two systems.
    """

    hbar: float = 1.0
    c: float = 1.0
    k_B: float = 1.0

    def __post_init__(self):
        constants = (self.hbar, self.c, self.k_B)
        if constants not in ((1.0, 1.0, 1.0), _SI_CONSTANTS):
            raise ValueError(
                f"units must be natural (hbar, c, k_B) = (1, 1, 1) or SI {_SI_CONSTANTS}, "
                f"got {constants}"
            )

    @classmethod
    @cache
    def si(cls) -> "UnitSystem":
        """CODATA 2018 values in J s, m/s, J/K; one shared frozen instance."""
        return cls(*_SI_CONSTANTS)


NATURAL = UnitSystem()


@dataclass(frozen=True, eq=False)
class BoostVelocity:
    """Dimensionless frame velocity beta = v/c with |beta| = 0 or 2^-1022 <= |beta| <= 1 - 1e-9.

    |beta| is sqrt(b . b), or math.hypot of the components where b . b is
    below the smallest normal double; either is exact along an axis.  gamma is
    computed once at construction as 1/sqrt((1 - |b|)(1 + |b|)); the
    factored form loses no precision as |beta| approaches 1.  ``vhat``
    is the unit vector along beta; at beta = 0 it is a fixed placeholder
    (+z) that no formula depends on.
    """

    beta: np.ndarray
    beta_mag: float = field(init=False)
    gamma: float = field(init=False)
    vhat: np.ndarray = field(init=False)

    def __post_init__(self):
        b = np.array(self.beta, dtype=float, copy=True)
        if b.shape != (3,):
            raise ValueError(f"beta must be a 3-vector, got shape {b.shape}")
        if not all(map(math.isfinite, b.tolist())):
            raise ValueError("beta components must be finite")
        # np.linalg.norm's own formula for a vector, without its dispatch; b.dot(b)
        # loses digits below |beta| 1.5e-154 and is 0 below 1.5e-162, where hypot is not
        dot = b.dot(b)
        bmag = math.sqrt(dot) if dot >= _BETA_MIN else math.hypot(*b.tolist())
        if not bmag <= _BETA_MAX:
            raise ValueError(f"|beta| must lie in [0, 1 - 1e-9], got {bmag!r}")
        if 0.0 < bmag < _BETA_MIN:
            raise ValueError(f"|beta| must be 0 or at least 2^-1022 = {_BETA_MIN!r}, got {bmag!r}")
        vhat = b / bmag if bmag > 0.0 else np.array([0.0, 0.0, 1.0])
        gamma = 1.0 / math.sqrt((1.0 - bmag) * (1.0 + bmag))
        b.setflags(write=False)
        vhat.setflags(write=False)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "beta_mag", bmag)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "vhat", vhat)

    @property
    def is_rest(self) -> bool:
        return self.beta_mag == 0.0

    def reversed(self) -> "BoostVelocity":
        """The inverse boost, -beta."""
        return BoostVelocity(-self.beta)


def make_boost(beta) -> BoostVelocity:
    """Build a BoostVelocity from any 3-sequence; rejects a |beta| outside the domain."""
    return BoostVelocity(np.asarray(beta, dtype=float))


_KHAT_NORM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PhotonMode:
    """A photon mode: angular frequency omega >= 0, unit propagation direction khat.

    Directions within 1e-9 of unit length are renormalized on construction;
    anything further off is rejected as a caller bug.
    """

    omega: float
    khat: np.ndarray

    def __post_init__(self):
        om = float(self.omega)
        if not (math.isfinite(om) and om >= 0.0):
            raise ValueError(f"omega must be finite and >= 0, got {self.omega!r}")
        k = np.array(self.khat, dtype=float, copy=True)
        if k.shape != (3,):
            raise ValueError(f"khat must be a 3-vector, got shape {k.shape}")
        if not np.all(np.isfinite(k)):
            raise ValueError("khat components must be finite")
        norm = float(np.linalg.norm(k))
        if abs(norm - 1.0) > _KHAT_NORM_TOL:
            raise ValueError(f"khat must be a unit vector, |khat| = {norm}")
        k = k / norm
        k.setflags(write=False)
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "khat", k)


def temperature_value(T) -> float:
    """The rest-frame temperature T as a float; rejects any T but 0 and [1e-3, 1e5].

    The range is the same in both unit systems, natural units and kelvin.
    """
    t = float(T)
    if not (t == 0.0 or _T_MIN <= t <= _T_MAX):
        raise ValueError(f"temperature must be 0 or lie in [1e-3, 1e5], got {T!r}")
    return t


def _thermal_temperature(T) -> float:
    """temperature_value(T) where the thermal spectrum is normalized or sampled: not 0."""
    if (t := temperature_value(T)) == 0.0:
        raise ValueError(f"the thermal spectrum is 0 at T = 0; T > 0 required, got {T!r}")
    return t


@dataclass(frozen=True)
class CheckResult:
    """One verdict: a residual against a tolerance, and what was checked."""

    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""


def _check_count(n, label: str, cap: float = math.inf, low: int = 0):
    """Raise ValueError unless n is an integer in [low, cap] and not a bool."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not low <= n <= cap:
        span = f">= {low}" if cap == math.inf else f"in [{low}, {cap}]"
        raise ValueError(f"{label} must be an integer {span}, got {n!r}")


def _check_omega(om, label: str) -> np.ndarray:
    """om as a float array; raises ValueError unless every frequency lies in [0, 1e30]; NaN fails."""
    om = np.asarray(om, dtype=float)
    if not np.all((om >= 0.0) & (om <= _OMEGA_MAX)):
        raise ValueError(f"{label} must be finite and lie in [0, 1e30]")
    return om


def _check_mu(mu, label: str) -> np.ndarray:
    """mu as a float array; raises ValueError unless every cosine is within 1e-12 of [-1, 1].

    The slack admits cosines that aberrate_mu or unit vectors carry past +-1 by a few ulps; far
    below 1 - |beta| >= 1e-9, it keeps every Doppler factor positive.  min and max carry a NaN
    through, in one pass each with no temporary array."""
    mu = np.asarray(mu, dtype=float)
    if mu.size and not (-1.0 - _MU_SLACK <= mu.min() and mu.max() <= 1.0 + _MU_SLACK):
        raise ValueError(f"{label} must be finite and lie in [-1, 1]")
    return mu
