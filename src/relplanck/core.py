"""Unit systems, boost velocities, photon modes, and the spectral split.

Shared domain types for the whole package.  The default unit system is
natural (hbar = c = k_B = 1); SI constants are available via
``UnitSystem.si()``.  Every type here is a frozen dataclass, immutable
after construction and safe to share across threads.  Temperature always
means the temperature in the radiation rest frame; nothing in this package
ever boosts a temperature, only the spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cache

import numpy as np

__all__ = [
    "Component",
    "UnitSystem",
    "NATURAL",
    "BoostVelocity",
    "make_boost",
    "PhotonMode",
    "temperature_value",
    "thermal_frequency_scale",
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

    The defaults are natural units, hbar = c = k_B = 1; any other positive,
    finite values, such as ``UnitSystem.si()``, are accepted.
    """

    hbar: float = 1.0
    c: float = 1.0
    k_B: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "c", "k_B"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    @classmethod
    @cache
    def si(cls) -> "UnitSystem":
        """CODATA 2018 values in J s, m/s, J/K; one shared frozen instance."""
        return cls(1.054571817e-34, 299792458.0, 1.380649e-23)


NATURAL = UnitSystem()


@dataclass(frozen=True, eq=False)
class BoostVelocity:
    """Dimensionless frame velocity beta = v/c with |beta| < 1.

    gamma is computed once at construction as 1/sqrt((1 - |b|)(1 + |b|));
    the factored form loses no precision as |beta| approaches 1.  ``vhat``
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
        # np.linalg.norm's own formula for a vector, without its dispatch
        bmag = math.sqrt(b.dot(b))
        if bmag >= 1.0:
            raise ValueError(f"|beta| = {bmag} must be < 1")
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
    """Build a BoostVelocity from any 3-sequence; rejects |beta| >= 1."""
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
    """The rest-frame temperature T as a float; rejects NaN, inf and T < 0."""
    t = float(T)
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"temperature must be finite and >= 0, got {T!r}")
    return t


def thermal_frequency_scale(T, units: UnitSystem = NATURAL):
    """Characteristic angular frequency k_B T / hbar of the thermal spectrum.

    Returns None at T = 0, where the thermal part vanishes and no scale
    exists; callers must branch rather than divide.
    """
    t = temperature_value(T)
    if t == 0.0:
        return None
    return units.k_B * t / units.hbar

