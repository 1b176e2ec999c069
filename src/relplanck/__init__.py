"""Blackbody radiation seen from a uniformly moving frame.

The package evaluates the Planck spectral distribution with its zero-point
part in the radiation rest frame, Lorentz-transforms photon modes and
electromagnetic fields, computes the boosted spectral distribution and the
direction-dependent effective temperature, and verifies the transformation
identities by quadrature and Monte Carlo.  Temperature always means the
rest-frame temperature; it is never transformed.
"""

from . import core, kinematics, spectrum
from .core import *  # noqa: F403
from .kinematics import *  # noqa: F403
from .spectrum import *  # noqa: F403

__version__ = "0.1.0"

# the names of the modules only some commands run, imported on first access
# (PEP 562) so that `import relplanck` loads none of them
_LAZY = {
    **dict.fromkeys(["PLANCK_ENERGY_MEAN_X", "PLANCK_ENERGY_MEDIAN_X", "McConfig", "McReport",
                     "run_identity_check", "sample_rest_modes"], "montecarlo"),
    **dict.fromkeys(["EnergyDensityReport", "QuadratureResult",
                     "energy_density_moving_correlation", "energy_density_moving_spectral",
                     "expected_energy_ratio", "integrate_semi_infinite",
                     "thermal_energy_density_closed_form"], "radiometry"),
    "run_selfcheck": "selfcheck",
}


def __getattr__(name):
    # any other name, __path__ and the dunders importlib probes included, is
    # missing without a module being imported to look it up
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__():
    return sorted({*globals(), *_LAZY})


# the names `from relplanck import *` binds: the public API, not the submodules
__all__ = [*core.__all__, *kinematics.__all__, *spectrum.__all__, *_LAZY]
