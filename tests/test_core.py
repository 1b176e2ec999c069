import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import BETA_ALONG_Z, BETA_RANGE
from relplanck import (
    NATURAL,
    BoostVelocity,
    Component,
    PhotonMode,
    UnitSystem,
    core,
    make_boost,
    temperature_value,
)


class TestBoostVelocity:
    def test_rest_frame_is_exact(self):
        v = make_boost([0.0, 0.0, 0.0])
        assert v.gamma == 1.0
        assert v.beta_mag == 0.0
        assert v.is_rest

    def test_tiny_speed_keeps_its_length(self):
        for beta in (1e-155, 1e-160, 1e-170, core._BETA_MIN):
            assert make_boost([0.0, 0.0, -beta]).beta_mag == beta

    def test_gamma_examples(self):
        assert make_boost([0.0, 0.0, 0.6]).gamma == pytest.approx(1.25, rel=1e-15)
        assert make_boost([0.0, 0.0, -0.8]).gamma == pytest.approx(5.0 / 3.0, rel=1e-15)

    def test_vhat_is_the_signed_axis(self):
        assert np.array_equal(make_boost([0.0, 0.0, -0.5]).vhat, [0.0, 0.0, -1.0])
        for beta in (0.5, 0.0):
            assert np.array_equal(make_boost([0.0, 0.0, beta]).vhat, [0.0, 0.0, 1.0])

    def test_negative_zero_is_rest_along_plus_z(self):
        v = BoostVelocity(-0.0)
        assert math.copysign(1.0, v.beta) == 1.0 and v.beta == 0.0
        assert np.array_equal(v.vhat, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("beta", [1.0, -1.0, 1.0 - 5e-10, np.nan, np.inf, -np.inf])
    def test_speed_outside_the_domain_rejected(self, beta):
        with pytest.raises(ValueError, match=re.escape(BETA_RANGE)):
            make_boost([0.0, 0.0, beta])

    @pytest.mark.parametrize("beta", [0.6, [0.1, 0.2], [0.3, 0.0, 0.5], [0.0, 1e-300, 0.5]])
    def test_anything_but_a_velocity_along_z_rejected(self, beta):
        # a ValueError naming the form, not a TypeError from unpacking
        with pytest.raises(ValueError, match=re.escape(BETA_ALONG_Z)):
            make_boost(beta)

    def test_reversed(self):
        v = make_boost([0.0, 0.0, -0.3])
        r = v.reversed()
        assert r.beta == 0.3 and np.array_equal(r.vhat, -v.vhat)
        assert r.gamma == v.gamma

    def test_immutable(self):
        v = make_boost([0.0, 0.0, 0.5])
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.gamma = 2.0
        with pytest.raises(ValueError):
            v.vhat[2] = -1.0

    @given(st.floats(-0.999, 0.999).filter(lambda b: not 0.0 < abs(b) < core._BETA_MIN))
    @settings(max_examples=200, deadline=None)
    def test_gamma_identity(self, beta):
        v = make_boost([0.0, 0.0, beta])
        assert abs(v.gamma**2 * (1.0 - v.beta_mag**2) - 1.0) <= 1e-12


class TestPhotonMode:
    def test_basic(self):
        m = PhotonMode(2.0, [0.0, 0.0, 1.0])
        assert m.omega == 2.0
        assert np.array_equal(m.khat, [0.0, 0.0, 1.0])

    def test_slightly_off_unit_renormalized(self):
        m = PhotonMode(1.0, [1.0 + 2e-10, 0.0, 0.0])
        assert np.linalg.norm(m.khat) == pytest.approx(1.0, abs=1e-15)

    def test_badly_off_unit_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            PhotonMode(1.0, [1.1, 0.0, 0.0])
        with pytest.raises(ValueError):
            PhotonMode(1.0, [0.0, 0.0, 0.0])

    def test_negative_omega_rejected(self):
        with pytest.raises(ValueError, match="omega"):
            PhotonMode(-1.0, [0.0, 0.0, 1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            PhotonMode(np.inf, [0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            PhotonMode(1.0, [np.nan, 0.0, 1.0])

    def test_zero_omega_allowed(self):
        assert PhotonMode(0.0, [0.0, 1.0, 0.0]).omega == 0.0

    def test_khat_read_only(self):
        m = PhotonMode(1.0, [0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            m.khat[0] = 1.0

    def test_does_not_alias_caller_array(self):
        k = np.array([0.0, 0.0, 1.0])
        PhotonMode(1.0, k)
        k[0] = 5.0  # must not raise: the mode owns a private copy


class TestUnitSystem:
    def test_natural_default(self):
        assert NATURAL.hbar == NATURAL.c == NATURAL.k_B == 1.0

    def test_si_constants(self):
        si = UnitSystem.si()
        assert si.hbar == 1.054571817e-34
        assert si.c == 299792458.0
        assert si.k_B == 1.380649e-23

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            UnitSystem(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            UnitSystem(1.0, -3.0, 1.0)


class TestTemperature:
    def test_temperature_value_coercion(self):
        assert temperature_value(1.5) == 1.5
        with pytest.raises(ValueError):
            temperature_value(-2.0)
        with pytest.raises(ValueError):
            temperature_value(float("nan"))


def test_component_enum_members():
    assert {c.value for c in Component} == {"zero-point", "thermal", "total"}


def test_boost_velocity_repr_contains_beta():
    assert "beta" in repr(make_boost([0.0, 0.0, 0.5]))
