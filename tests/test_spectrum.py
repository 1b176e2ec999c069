import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_boosts, random_modes
from relplanck import (
    Component,
    UnitSystem,
    boost_mode,
    effective_temperature_mu,
    make_boost,
    rho_moving_mu,
    rho_moving_pullback_mu,
    rho_rest,
    spectral_prefactor,
    temperature_multipoles,
    thermal_occupation,
    u_moving,
)
from relplanck.spectrum import _direction_integrated_x_occupation

V06 = make_boost([0.0, 0.0, 0.6])

# coth(1/2) / (2 pi)^3, frozen from a 30-digit evaluation
RHO_REST_TOTAL_AT_1_1 = 0.008723852254378968


class TestThermalOccupation:
    def test_matches_definition_midrange(self):
        for z in (0.1, 0.5, 1.0, 3.0, 10.0):
            assert thermal_occupation(z) == pytest.approx(2.0 / math.expm1(z), rel=1e-14)

    def test_small_z_series(self):
        z = 1e-8
        # 2/(e^z - 1) = (2/z)(1 - z/2 + z^2/12 - ...)
        expected = (2.0 / z) * (1.0 - z / 2.0 + z**2 / 12.0)
        assert thermal_occupation(z) == pytest.approx(expected, rel=1e-12)

    def test_wien_tail_no_overflow(self):
        assert thermal_occupation(100.0) == pytest.approx(2.0 * math.exp(-100.0), rel=1e-12)
        assert thermal_occupation(800.0) == 0.0  # graceful underflow, no warning

    def test_no_branch_discontinuity(self):
        # relative step between adjacent arguments stays smooth through the
        # region where a naive guard would switch formulas; stay below
        # z ~ 708 where the values themselves leave the normal float range
        z = np.linspace(600.0, 650.0, 501)
        occ = thermal_occupation(z)
        ratios = occ[:-1] / occ[1:]
        assert np.max(np.abs(ratios / math.exp(0.1) - 1.0)) < 1e-13

    def test_subnormal_tail_monotone(self):
        z = np.linspace(700.0, 760.0, 301)
        occ = thermal_occupation(z)
        assert np.all(np.diff(occ) <= 0.0)
        assert occ[0] > 0.0
        assert occ[-1] == 0.0


class TestRhoRest:
    def test_total_at_unit_point(self):
        assert rho_rest(1.0, 1.0) == pytest.approx(RHO_REST_TOTAL_AT_1_1, rel=1e-13)

    def test_zero_temperature_is_zero_point(self):
        expected = 1.0 / (2.0 * math.pi) ** 3
        assert rho_rest(1.0, 0.0) == pytest.approx(expected, rel=1e-15)
        assert rho_rest(1.0, 0.0) == rho_rest(1.0, 0.0, Component.ZERO_POINT)

    def test_component_additivity_bitwise_grid(self):
        omega = np.linspace(0.0, 20.0, 401)
        total = rho_rest(omega, 1.3)
        zp = rho_rest(omega, 1.3, Component.ZERO_POINT)
        th = rho_rest(omega, 1.3, Component.THERMAL)
        assert np.array_equal(zp + th, total)

    def test_thermal_at_omega_zero_is_zero(self):
        assert rho_rest(0.0, 1.0, Component.THERMAL) == 0.0
        assert rho_rest(0.0, 1.0) == 0.0

    def test_rayleigh_jeans_limit(self):
        # omega << T: thermal density -> 2 omega^2 T * prefactor
        omega = 1e-6
        expected = 2.0 * omega**2 * 1.0 * spectral_prefactor()
        assert rho_rest(omega, 1.0, Component.THERMAL) == pytest.approx(expected, rel=1e-6)

    def test_rayleigh_jeans_survives_omega_cube_underflow(self):
        # omega^3 = 1e-330 underflows, the thermal part 2 pref omega^2 T does not
        omega = 1e-110
        expected = 2.0 * spectral_prefactor() * omega**2 * 1.0
        got = rho_rest(omega, 1.0, Component.THERMAL)
        assert got == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_wien_tail_underflows_to_zero_point(self):
        assert rho_rest(800.0, 1.0) == rho_rest(800.0, 1.0, Component.ZERO_POINT)

    def test_negative_omega_rejected(self):
        with pytest.raises(ValueError):
            rho_rest(-1.0, 1.0)
        with pytest.raises(ValueError):
            rho_rest(np.array([1.0, -2.0]), 1.0)

    def test_scalar_in_scalar_out(self):
        assert isinstance(rho_rest(1.0, 1.0), float)
        out = rho_rest(np.array([1.0, 2.0]), 1.0)
        assert out.shape == (2,)

    def test_si_units_scale(self):
        si = UnitSystem.si()
        omega = 3.5e11
        val = rho_rest(omega, 2.725, units=si)
        pref = si.hbar / (2.0 * math.pi * si.c) ** 3
        z = si.hbar * omega / (si.k_B * 2.725)
        expected = pref * omega**3 * (1.0 / math.tanh(z / 2.0))
        assert val == pytest.approx(expected, rel=1e-12)

    def test_component_slot_rejects_non_component(self):
        # a units object slipped into the component slot must not silently
        # evaluate in the wrong unit system
        with pytest.raises(TypeError, match="component"):
            rho_rest(1.0, 1.0, UnitSystem.si())


class TestRhoMoving:
    def test_rest_boost_is_bitwise_identity(self):
        omega = np.linspace(0.0, 10.0, 101)
        v0 = make_boost([0, 0, 0])
        for comp in Component:
            a = rho_moving_mu(omega, -0.3, v0, 1.7, comp)
            b = rho_rest(omega, 1.7, comp)
            assert np.array_equal(a, b)

    def test_head_on_thermal_matches_doubled_temperature(self):
        lhs = rho_moving_mu(1.0, -1.0, V06, 1.0, Component.THERMAL)
        rhs = rho_rest(1.0, 2.0, Component.THERMAL)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_zero_temperature_invariance_bitwise(self):
        rng = np.random.default_rng(21)
        for v, m in zip(random_boosts(rng, 100), random_modes(rng, 100)):
            r = boost_mode(m, v)
            mu_p = float(r.mode_prime.khat @ v.vhat)
            assert rho_moving_mu(r.mode_prime.omega, mu_p, v, 0.0) == rho_rest(
                r.mode_prime.omega, 0.0
            )

    def test_rayleigh_jeans_survives_omega_cube_underflow(self):
        omega = 1e-110
        t_eff = effective_temperature_mu(0.3, V06, 1.0)
        expected = 2.0 * spectral_prefactor() * omega**2 * t_eff
        got = rho_moving_mu(omega, 0.3, V06, 1.0, Component.THERMAL)
        assert got == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_zero_point_part_unaffected_by_boost(self):
        omega = np.linspace(0.0, 5.0, 51)
        zp_moving = rho_moving_mu(omega, 0.4, V06, 1.0, Component.ZERO_POINT)
        zp_rest = rho_rest(omega, 0.0)
        assert np.array_equal(zp_moving, zp_rest)

    def test_broadcasting(self):
        omega = np.linspace(0.1, 5.0, 7)[:, None]
        mu = np.linspace(-1.0, 1.0, 5)[None, :]
        out = rho_moving_mu(omega, mu, V06, 1.0)
        assert out.shape == (7, 5)

    def test_mu_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            rho_moving_mu(1.0, 1.5, V06, 1.0)


# 2 pi integral_{-1}^{1} rho'_thermal(x, mu') d mu' at T = 1 (natural units),
# frozen from a 50-digit mpmath quadrature over mu' on panels that resolve
# the hot direction; keyed by (beta, x)
U_THERMAL_REFERENCE = {
    (1e-6, 1.0): 0.058966568792257002396,
    (0.6, 1e-3): 9.3590006992712259895e-8,
    (0.6, 1.0): 0.053182724095907156086,
    (0.6, 30.0): 0.00001859663395968653173,
    (0.999999, 1e-3): 9.9468537500042380978e-10,
    (0.999999, 1.0): 0.00051976133834140521178,
}


class TestDirectionIntegrated:
    def test_thermal_matches_direction_quadrature(self):
        for (beta, x), want in U_THERMAL_REFERENCE.items():
            got = u_moving(x, make_boost([0.0, 0.0, beta]), 1.0, Component.THERMAL)
            assert got == pytest.approx(want, rel=2e-15), (beta, x)

    def test_zero_point_is_invariant(self):
        omega = np.linspace(0.0, 50.0, 101)
        want = 4.0 * np.pi * spectral_prefactor() * omega**3
        for beta in (0.0, 0.6, 1.0 - 1e-9):
            for t in (0.0, 1.0):
                got = u_moving(omega, make_boost([0.0, 0.0, beta]), t, Component.ZERO_POINT)
                assert np.array_equal(got, want)

    def test_rest_is_four_pi_rest_density(self):
        omega = np.linspace(0.0, 40.0, 81)
        v0 = make_boost([0, 0, 0])
        for comp in Component:
            got = u_moving(omega, v0, 1.3, comp)
            want = 4.0 * np.pi * rho_rest(omega, 1.3, comp)
            assert np.allclose(got, want, rtol=1e-15, atol=0.0)

    def test_rayleigh_jeans_survives_omega_cube_underflow(self):
        # 2 pi integral of 2 pref omega^2 T / (gamma (1 + beta mu')) over mu'
        omega, b = 1e-110, 0.6
        expected = (4.0 * np.pi * spectral_prefactor() * omega**2 * 1.0
                    * math.log((1.0 + b) / (1.0 - b)) / (V06.gamma * b))
        got = u_moving(omega, V06, 1.0, Component.THERMAL)
        assert got == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_small_beta_joins_the_rest_branch(self):
        # u' is even in beta, so the first correction is O(beta^2)
        x = np.geomspace(1e-6, 30.0, 40)
        rest = u_moving(x, make_boost([0, 0, 0]), 1.0, Component.THERMAL)
        near = u_moving(x, make_boost([0.0, 0.0, 1e-9]), 1.0, Component.THERMAL)
        assert np.max(np.abs(near / rest - 1.0)) <= 1e-14

    def test_total_is_sum_of_parts_and_edges_are_finite(self):
        omega = np.concatenate(([0.0, 1e-300, 1e-12], np.geomspace(1e-3, 1e8, 60)))
        for beta in (0.3, 1.0 - 1e-9):
            v = make_boost([0.0, 0.0, beta])
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                th = u_moving(omega, v, 1.0, Component.THERMAL)
                zp = u_moving(omega, v, 1.0, Component.ZERO_POINT)
                tot = u_moving(omega, v, 1.0)
            assert np.all(np.isfinite(th)) and np.all(th >= 0.0)
            assert th[0] == 0.0 and th[-1] == 0.0
            assert np.allclose(tot, zp + th, rtol=1e-15, atol=0.0)
        assert u_moving(2.0, V06, 0.0, Component.THERMAL) == 0.0
        # |beta| x underflows to 0 while x does not: the rest value, not 0/0
        tiny_beta = make_boost([0.0, 0.0, 1e-150])
        x = np.array([1e-200, 1e-170])
        rest = u_moving(x, make_boost([0, 0, 0]), 1.0, Component.THERMAL)
        assert np.array_equal(u_moving(x, tiny_beta, 1.0, Component.THERMAL), rest)

    def test_rest_value_only_where_the_boost_underflows(self):
        # a = gamma |beta| x is 0 for the first two points only; those take
        # the rest value, the rest the logarithm, in one array or one by one
        v = make_boost([0.0, 0.0, 1e-150])
        x = np.array([1e-300, 1e-200, 1e-170, 0.5, 3.0])
        rest = _direction_integrated_x_occupation(x, make_boost([0, 0, 0]))
        got = _direction_integrated_x_occupation(x, v)
        assert np.array_equal(got[:2], rest[:2])
        lo, a = v.gamma * (1.0 - v.beta_mag) * x[2:], v.gamma * v.beta_mag * x[2:]
        log_ratio = np.log1p(np.exp(-lo) * -np.expm1(-2.0 * a) / -np.expm1(-lo))
        assert np.array_equal(got[2:], 2.0 * log_ratio / (v.gamma * v.beta_mag))
        assert [float(_direction_integrated_x_occupation(xi, v)) for xi in x] == got.tolist()

    def test_temperature_and_unit_scaling(self):
        # u'(omega') = (k_B T / hbar)^3 hbar / c^3 f(hbar omega' / k_B T)
        si = UnitSystem.si()
        for t in (1e-3, 2.725, 1e3):
            scale = si.k_B * t / si.hbar
            got = u_moving(3.0 * scale, V06, t, Component.THERMAL, si)
            want = u_moving(3.0, V06, 1.0, Component.THERMAL) * scale**3 * si.hbar / si.c**3
            assert got == pytest.approx(want, rel=1e-13)

    def test_scalar_in_scalar_out_and_validation(self):
        assert isinstance(u_moving(1.0, V06, 1.0), float)
        assert u_moving(np.array([1.0, 2.0]), V06, 1.0).shape == (2,)
        with pytest.raises(ValueError):
            u_moving(-1.0, V06, 1.0)
        with pytest.raises(ValueError):
            u_moving(float("nan"), V06, 1.0)
        with pytest.raises(TypeError, match="component"):
            u_moving(1.0, V06, 1.0, UnitSystem.si())


# frequencies down to the smallest subnormal: below about 1e-308 k_B T / hbar
# the coth argument itself is subnormal and the occupation 2 / z overflows
TINY_OMEGA = np.concatenate(
    ([5e-324, 1e-320, 1e-315, 1e-310, 1e-305], np.geomspace(1e-300, 1e-30, 271))
)


@pytest.mark.parametrize(
    "units,t",
    [(UnitSystem(), 1e-3), (UnitSystem(), 1.0), (UnitSystem(), 1e3),
     (UnitSystem.si(), 3.0), (UnitSystem.si(), 1000.0)],
    ids=["natural-1e-3", "natural-1", "natural-1e3", "si-3K", "si-1000K"],
)
def test_subnormal_coth_argument_gives_rayleigh_jeans(units, t):
    # every value finite and >= 0 without a floating-point warning, and
    # within 1e-13 of Rayleigh-Jeans wherever that is a normal double
    om = TINY_OMEGA
    pref = spectral_prefactor(units)
    kt = units.k_B * t / units.hbar
    mu = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    cases = []
    for comp in (Component.THERMAL, Component.TOTAL):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cases.append((rho_rest(om, t, comp, units), 2.0 * pref * kt * om * om))
            for v in (V06, make_boost([0.3, -0.4, 0.7])):
                b = v.beta_mag
                t_eff = effective_temperature_mu(mu, v, t)[:, None]
                rho = rho_moving_mu(om, mu[:, None], v, t, comp, units)
                rj = 2.0 * pref * (units.k_B * t_eff / units.hbar) * om * om
                cases.append((rho, rj))
                u_rj = (4.0 * np.pi * pref * kt * om * om
                        * math.log((1.0 + b) / (1.0 - b)) / (v.gamma * b))
                cases.append((u_moving(om, v, t, comp, units), u_rj))
    for got, rj in cases:
        assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
        normal = rj >= np.finfo(float).tiny
        assert np.count_nonzero(normal) >= 10
        assert np.all(np.abs(got[normal] - rj[normal]) <= 1e-13 * rj[normal])


@pytest.mark.parametrize("units", [UnitSystem(), UnitSystem.si()], ids=["natural", "si"])
def test_wien_tail_where_omega_squared_overflows_is_zero(units):
    # om^2 overflows from om ~ 1.3e154 on, while om * occupation is exactly 0
    om = np.array([1e154, 1e160, 1e200, 1e300, 1.7e308])
    mu = np.array([-1.0, 0.2, 1.0])[:, None]
    for t in (1e-3, 1.0, 1e3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [rho_rest(om, t, Component.THERMAL, units)]
            for v in (V06, make_boost([0.3, -0.4, 0.7])):
                got.append(rho_moving_mu(om, mu, v, t, Component.THERMAL, units))
                # D om' overflows at 1.7e308 on the pullback route
                got.append(rho_moving_pullback_mu(om, mu, v, t, Component.THERMAL, units))
            for v in (make_boost([0, 0, 0]), V06, make_boost([0.0, 0.0, 1.0 - 1e-9])):
                got.append(u_moving(om, v, t, Component.THERMAL, units))
        for thermal in got:
            assert np.all(thermal == 0.0)
    assert rho_rest(1e160, 1.0, Component.THERMAL) == 0.0
    assert rho_moving_mu(1e160, 0.2, V06, 1.0, Component.THERMAL) == 0.0
    # the zero-point part at an overflowing D om' cannot be formed and says so
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # THERMAL never forms the zero-point om'^3, which overflows here
        assert u_moving(1e160, V06, 1.0, Component.THERMAL) == 0.0
        for comp in (Component.TOTAL, Component.ZERO_POINT):
            with pytest.raises(ValueError, match="omega must be finite"):
                rho_moving_pullback_mu(1.7e308, 0.5, V06, 1.0, comp, units)
    # the total is the zero-point part alone, which overflows to inf
    with np.errstate(over="ignore"):
        assert rho_rest(1e160, 1.0) == math.inf
        assert rho_moving_mu(1e160, 0.2, V06, 1.0) == math.inf


class TestPullbackRoute:
    def test_agrees_with_explicit_form(self):
        rng = np.random.default_rng(22)
        omega = np.exp(rng.uniform(-2, 2, 100))
        mu = rng.uniform(-1, 1, 100)
        for beta in (0.0, 0.1, 0.6, 0.9, 0.99):
            v = make_boost([0.0, 0.0, beta])
            for comp in Component:
                a = rho_moving_mu(omega, mu, v, 1.0, comp)
                b = rho_moving_pullback_mu(omega, mu, v, 1.0, comp)
                nz = a > 0
                assert np.max(np.abs(a[nz] - b[nz]) / a[nz]) <= 1e-12

    def test_zero_temperature_cancellation(self):
        omega = np.linspace(0.01, 10.0, 100)
        a = rho_moving_pullback_mu(omega, -0.7, V06, 0.0)
        b = rho_rest(omega, 0.0)
        assert np.max(np.abs(a - b) / b) <= 1e-14


class TestEffectiveTemperature:
    def test_head_on_and_receding(self):
        assert effective_temperature_mu(-1.0, V06, 1.0) == pytest.approx(2.0, rel=1e-15)
        assert effective_temperature_mu(1.0, V06, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_rest_identity(self):
        assert effective_temperature_mu(0.3, make_boost([0, 0, 0]), 1.7) == 1.7

    def test_factorization_identity(self):
        omega = np.exp(np.random.default_rng(23).uniform(-2, 2, 200))
        worst = 0.0
        for beta in (0.1, 0.6, 0.9):
            v = make_boost([0.0, 0.0, beta])
            for mu in (-1.0, -0.5, 0.0, 0.5, 1.0):
                teff = effective_temperature_mu(mu, v, 1.0)
                a = rho_moving_mu(omega, mu, v, 1.0, Component.THERMAL)
                b = rho_rest(omega, teff, Component.THERMAL)
                nz = a > 0
                worst = max(worst, float(np.max(np.abs(a[nz] - b[nz]) / a[nz])))
        assert worst <= 1e-12

    @pytest.mark.parametrize("beta", [0.999999, 1.0 - 1e-9])
    def test_near_head_on_matches_mpmath(self, beta):
        # 1 + |beta| mu' cancels near mu' = -1 at high beta; T_eff must stay
        # at rounding level against 60-digit T / (gamma (1 + |beta| mu'))
        v = make_boost([0.0, 0.0, beta])
        mu = [-1.0, -0.999999, -0.9999, -0.99]
        teff = effective_temperature_mu(mu, v, 2.725)
        with mpmath.workdps(60):
            b = mpmath.mpf(v.beta_mag)
            g = 1 / mpmath.sqrt(1 - b * b)
            for m, got in zip(mu, teff):
                want = mpmath.mpf(2.725) / (g * (1 + b * mpmath.mpf(m)))
                assert float(abs(got / want - 1)) <= 2e-15, m

    @given(st.floats(-1.0, 1.0), st.floats(0.0, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_extremes(self, mu, beta):
        v = make_boost([0.0, 0.0, beta])
        teff = effective_temperature_mu(mu, v, 1.0)
        lo = effective_temperature_mu(1.0, v, 1.0)
        hi = effective_temperature_mu(-1.0, v, 1.0)
        assert lo - 1e-15 <= teff <= hi + 1e-15

    def test_occupation_invariant_along_mode_map(self):
        rng = np.random.default_rng(24)
        for v, m in zip(random_boosts(rng, 100), random_modes(rng, 100)):
            r = boost_mode(m, v)
            back = boost_mode(r.mode_prime, v.reversed()).mode_prime
            mu_p = float(r.mode_prime.khat @ v.vhat)
            lhs = rho_moving_mu(r.mode_prime.omega, mu_p, v, 1.0) / r.mode_prime.omega**3
            rhs = rho_rest(back.omega, 1.0) / back.omega**3
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestCosineValidation:
    FUNCTIONS = {
        "rho_moving_mu": lambda mu: rho_moving_mu(1.0, mu, V06, 1.0),
        "rho_moving_pullback_mu": lambda mu: rho_moving_pullback_mu(1.0, mu, V06, 1.0),
        "effective_temperature_mu": lambda mu: effective_temperature_mu(mu, V06, 1.0),
    }

    @pytest.mark.parametrize("name", FUNCTIONS)
    @pytest.mark.parametrize("mu", [2.0, -1.5, math.nan, math.inf])
    def test_bad_cosine_rejected(self, name, mu):
        with pytest.raises(ValueError):
            self.FUNCTIONS[name](mu)
        with pytest.raises(ValueError):
            self.FUNCTIONS[name](np.array([0.0, mu]))

    @pytest.mark.parametrize("name", FUNCTIONS)
    def test_boundary_cosines_accepted(self, name):
        out = self.FUNCTIONS[name](np.array([-1.0, 1.0]))
        assert np.all(np.isfinite(out)) and np.all(out > 0.0)


class TestMultipoles:
    def test_monopole_at_beta06(self):
        # closed form (4/3) ln 2, frozen from a 30-digit evaluation
        coeffs = temperature_multipoles(V06, 1.0, 4)
        assert coeffs.a[0] == pytest.approx(0.9241962407465937, rel=1e-12)

    def test_monopole_closed_form_sweep(self):
        for beta in (1e-3, 0.123, 0.6, 0.9, 0.99):
            v = make_boost([0.0, 0.0, beta])
            expected = math.atanh(beta) / (v.gamma * beta)
            assert temperature_multipoles(v, 1.0, 0).a[0] == pytest.approx(
                expected, rel=1e-10
            )

    def test_monopole_small_beta_series(self):
        coeffs = temperature_multipoles(make_boost([0.0, 0.0, 0.1]), 1.0, 0)
        assert abs(coeffs.a[0] - (1.0 - 0.1**2 / 6.0)) <= 2e-4
        assert coeffs.a[0] == pytest.approx(0.9983241049014441, rel=1e-12)

    def test_rest_frame_is_pure_monopole(self):
        coeffs = temperature_multipoles(make_boost([0, 0, 0]), 1.7, 4)
        assert coeffs.a[0] == pytest.approx(1.7, rel=1e-14)
        assert np.max(np.abs(coeffs.a[1:])) <= 1e-14

    def test_small_beta_quadrupole_has_the_right_sign_and_size(self):
        # the projection's rounding floor gave -1.17e-14 here: wrong sign, 100x too big
        beta, T = 1e-8, 1.7
        a2 = temperature_multipoles(make_boost([0.0, 0.0, beta]), T, 2).a[2]
        assert a2 > 0.0
        assert a2 == pytest.approx(2.0 * T * beta**2 / 3.0, rel=1e-6)

    def test_hexadecapole_at_small_beta(self):
        # 9 T Q_4(1e3) / (gamma 1e-3) at T = 1.7, frozen from a 40-digit evaluation
        a4 = temperature_multipoles(make_boost([0.0, 0.0, 1e-3]), 1.7, 4).a[4]
        assert a4 == pytest.approx(3.885717641561013011e-13, rel=1e-10)

    def test_monopole_near_light_speed_in_bounded_memory(self):
        beta, T = 0.999999, 1.7
        v = make_boost([0.0, 0.0, beta])
        tracemalloc.start()
        try:
            a0 = temperature_multipoles(v, T, 16).a[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a0 == pytest.approx(T * math.atanh(beta) / (v.gamma * beta), rel=1e-13)
        assert peak < 10_000_000

    def test_dipole_sign_and_small_beta_limit(self):
        coeffs = temperature_multipoles(make_boost([0.0, 0.0, 1e-3]), 1.0, 1)
        assert coeffs.a[1] < 0.0
        assert abs(coeffs.a[1] + 1e-3) <= 1e-9

    def test_dipole_scales_with_temperature(self):
        beta, T = 0.00123, 2.725
        coeffs = temperature_multipoles(make_boost([0.0, 0.0, beta]), T, 1)
        assert abs(abs(coeffs.a[1]) - beta * T) <= 1e-9

    def test_series_reconstructs_map(self):
        v = make_boost([0.0, 0.0, 0.3])
        coeffs = temperature_multipoles(v, 1.0, 40)
        mu = np.linspace(-1.0, 1.0, 101)
        recon = np.polynomial.legendre.legval(mu, coeffs.a)
        exact = effective_temperature_mu(mu, v, 1.0)
        assert np.max(np.abs(recon - exact)) <= 1e-12

    def test_temperature_linearity(self):
        a1 = temperature_multipoles(V06, 1.0, 3).a
        a2 = temperature_multipoles(V06, 2.0, 3).a
        assert np.allclose(a2, 2.0 * a1, rtol=1e-14)

    def test_convention_recorded(self):
        coeffs = temperature_multipoles(V06, 1.0, 2)
        assert "propagation" in coeffs.convention

    @pytest.mark.parametrize("beta", [0.0, 1e-12, 0.3, 0.6, 0.9, 0.99, 0.999, 0.999999])
    def test_recurrence_equals_the_reference_loop(self, beta):
        # one loop over every k with a branch and an array store, then
        # np.cumprod: the same arithmetic in the same order, so equal bits
        v = make_boost([0.0, 0.0, beta])
        for l_max in (0, 1, 16):
            n = temperature_multipoles(v, 1.0, l_max).n_evaluations
            r, ratios = 0.0, np.empty(l_max)
            for k in range(n, 0, -1):
                r = k * v.beta_mag / ((2 * k + 1) - (k + 1) * v.beta_mag * r)
                if k <= l_max:
                    ratios[k - 1] = r
            a0 = 2.7 * (math.atanh(beta) / beta if beta else 1.0) / v.gamma
            want = (2.0 * np.arange(l_max + 1) + 1.0) * np.cumprod(np.concatenate(([a0], -ratios)))
            assert np.array_equal(temperature_multipoles(v, 2.7, l_max).a, want)

    def test_method_and_evaluation_count_recorded(self):
        coeffs = temperature_multipoles(V06, 1.0, 16)
        assert coeffs.method == "recurrence"
        assert coeffs.n_evaluations == 16 + 2 + math.ceil(19.0 / math.acosh(1.0 / 0.6))
        rest = temperature_multipoles(make_boost([0, 0, 0]), 1.0, 16)
        assert (rest.method, rest.n_evaluations) == ("recurrence", 18)
        projected = temperature_multipoles(V06, 1.0, 16, n_nodes=64)
        assert (projected.method, projected.n_evaluations) == ("projection", 64)

    def test_validation(self):
        with pytest.raises(ValueError):
            temperature_multipoles(V06, 1.0, -1)
        with pytest.raises(ValueError):
            temperature_multipoles(V06, 1.0, 8, n_nodes=4)

    def test_coefficients_read_only(self):
        coeffs = temperature_multipoles(V06, 1.0, 2)
        with pytest.raises(ValueError):
            coeffs.a[0] = 0.0
