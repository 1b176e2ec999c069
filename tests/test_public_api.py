"""The public names of the package, pinned so that adding or dropping one is a visible change."""

import types

import relplanck

PUBLIC_NAMES = [
    "BoostVelocity", "CheckResult", "Component", "EnergyDensityReport",
    "McConfig", "McReport", "ModeTransformResult",
    "MultipoleCoefficients", "NATURAL", "PLANCK_ENERGY_MEAN_X", "PLANCK_ENERGY_MEDIAN_X",
    "PhotonMode", "QuadratureResult", "UnitSystem",
    "aberrate_mu", "boost_mode", "boost_mu",
    "direction_with_cosine", "doppler_factor", "effective_temperature_mu",
    "energy_density_moving_correlation", "energy_density_moving_spectral",
    "energy_density_rest", "expected_energy_ratio",
    "integrate_semi_infinite", "inverse_doppler_factor", "make_boost",
    "rho_moving_mu", "rho_moving_pullback_mu", "rho_rest",
    "run_identity_check", "run_selfcheck", "sample_rest_modes", "spectral_prefactor",
    "temperature_multipoles", "temperature_value", "thermal_energy_density_closed_form",
    "u_moving",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name in dir(relplanck)
        if not name.startswith("_") and not isinstance(getattr(relplanck, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES
    assert len(names) == 38


def test_star_import_binds_the_public_names_and_no_submodule():
    namespace = {}
    exec("from relplanck import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
    assert sorted(relplanck.__all__) == PUBLIC_NAMES
