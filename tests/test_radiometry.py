"""The log-frequency quadrature's honesty, energy densities, and the two W' routes."""

import math
import re

import numpy as np
import pytest

from helpers import T_RANGE
from relplanck import (
    EnergyDensityReport,
    UnitSystem,
    energy_density_moving_correlation,
    energy_density_moving_spectral,
    expected_energy_ratio,
    integrate_semi_infinite,
    make_boost,
    thermal_energy_density_closed_form,
)
from relplanck import kinematics, radiometry
from relplanck.spectrum import _direction_integrated_x_occupation, _x_occupation

# closed-form reference values, frozen after independent evaluation:
#   integral x^3 e^{-x}          = Gamma(4) = 6
#   integral x^3 / (e^x - 1)     = pi^4 / 15           (Bose series sum 6/k^4)
#   integral x^4 / (e^x - 1)     = 24 zeta(5)          (Bose series sum 24/k^5)
GAMMA_4 = 6.0
PI4_OVER_15 = math.pi**4 / 15.0
ZETA5_INTEGRAL = 24.886266123440878

W_THERMAL_NATURAL_T1 = math.pi**2 / 15.0
REST = make_boost([0.0, 0.0, 0.0])


def _x3_occupation(x):
    """x^3 2 / (e^x - 1), as x^2 times the split pair's f h h."""
    f, h = _x_occupation(x)
    return x**2 * f * h * h


def _gl128_reference(f, scale, n_panels=8):
    """Composite 128-node Gauss-Legendre on the map omega = scale t / (1 - t),
    as an independently structured check on the log-frequency rule."""
    x, w = np.polynomial.legendre.leggauss(128)
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        t = 0.5 * (a + b) + half * x
        om = scale * t / (1.0 - t)
        total += half * float(w @ (f(om) * (scale / (1.0 - t) ** 2)))
    return total


def _counting(f):
    """f, recording the number of points passed in each call."""
    sizes = []

    def counted(x):
        sizes.append(np.size(x))
        return f(x)

    return counted, sizes


class TestIntegrator:
    def test_gamma_function_integral(self):
        res = integrate_semi_infinite(lambda x: x**3 * np.exp(-x))
        assert res.value == pytest.approx(GAMMA_4, rel=1e-12)
        assert abs(res.value - GAMMA_4) <= res.error_estimate

    def test_bose_cubic_integral(self):
        # 1/(e^x - 1) written overflow-free as e^{-x}/(1 - e^{-x})
        res = integrate_semi_infinite(lambda x: x**3 * np.exp(-x) / -np.expm1(-x))
        assert res.value == pytest.approx(PI4_OVER_15, rel=1e-12)
        assert abs(res.value - PI4_OVER_15) <= res.error_estimate

    def test_bose_quartic_integral_with_series_crosscheck(self):
        res = integrate_semi_infinite(lambda x: x**4 * np.exp(-x) / -np.expm1(-x))
        assert res.value == pytest.approx(ZETA5_INTEGRAL, rel=1e-12)
        # series tail beyond k = 4000 is below 1e-15 relative
        series = math.fsum(24.0 / k**5 for k in range(4000, 0, -1))
        assert series == pytest.approx(ZETA5_INTEGRAL, rel=1e-13)

    @staticmethod
    def _misses_after_one_call(f, exact, scale=1.0):
        # an integrand the rule does not resolve is returned after its one
        # call with an error estimate above its tolerance, and the value is
        # within that estimate
        counted, sizes = _counting(f)
        res = integrate_semi_infinite(counted, scale=scale)
        assert sizes == [res.n_evaluations]
        assert res.error_estimate > res.tolerance == max(1e-14, 1e-10 * abs(res.value))
        assert abs(res.value - exact) <= res.error_estimate

    def test_signed_integrand(self):
        # integral x^3 e^{-x} cos x = Re Gamma(4)/(1+i)^4 = -3/2
        self._misses_after_one_call(lambda x: x**3 * np.exp(-x) * np.cos(x), -1.5)
        # a NaN estimate is no convergence either
        res = integrate_semi_infinite(lambda x: np.where(x > 1.0, np.nan, np.exp(-x)))
        assert math.isnan(res.error_estimate)
        assert not res.error_estimate <= res.tolerance

    def test_against_a_fixed_rule_on_another_map(self):
        f = lambda x: _x3_occupation(x) / (1.0 + 0.25 * x**2)
        res = integrate_semi_infinite(f)
        ref = _gl128_reference(f, 1.0)
        assert res.value == pytest.approx(ref, rel=1e-11)

    def test_scale_choice_does_not_move_the_value(self):
        # a scale well above the peak still resolves it; one well below it
        # cuts the tail off at scale e^4.5, which the rule reports
        f = lambda x: x**3 * np.exp(-x)
        hi = integrate_semi_infinite(f, scale=11.0)
        assert hi.value == pytest.approx(GAMMA_4, rel=1e-11)
        self._misses_after_one_call(f, GAMMA_4, scale=0.37)

    def test_truncated_integrand_is_a_miss_that_covers_its_error(self):
        # e^{-x} does not vanish at 0: the rule drops integral_0^{e^-13} e^{-x}
        # dx = 2.3e-6, and the estimate's end term reports it
        self._misses_after_one_call(lambda x: np.exp(-x), 1.0)
        res = integrate_semi_infinite(lambda x: np.exp(-x))
        assert res.error_estimate <= 1.01 * abs(res.value - 1.0)

    def test_rule_spans_s_from_minus_13_to_4_5(self):
        # integral d omega / omega is the length of the range in s; the ends
        # of 1/omega's omega f = 1 make it a miss of 2
        res = integrate_semi_infinite(lambda x: 1.0 / x, scale=7.0)
        assert res.value == pytest.approx(17.5, rel=1e-15)
        assert res.error_estimate == pytest.approx(2.0, rel=1e-12)

    def test_node_table_is_built_once_and_read_only(self):
        rule = radiometry._log_rule
        first = integrate_semi_infinite(_x3_occupation)
        misses = rule.cache_info().misses
        again = integrate_semi_infinite(_x3_occupation)
        assert rule.cache_info().misses == misses
        assert (again.value, again.error_estimate) == (first.value, first.error_estimate)
        for table in rule():
            assert not table.flags.writeable

    def test_bookkeeping_fields(self):
        # 4 panels at 32 + 20 evaluations each, and the tolerance the estimate met
        res = integrate_semi_infinite(lambda x: x**3 * np.exp(-x))
        assert (res.n_panels, res.n_evaluations) == (4, 208)
        assert res.tolerance == 1e-10 * res.value
        assert res.error_estimate <= res.tolerance

    @pytest.mark.parametrize("beta", [0.0, 0.6, 0.999, 1.0 - 1e-9])
    def test_thermal_kernels_take_a_few_batched_calls(self, beta):
        # the rest kernel x^3 n(x) and the direction-integrated moving one,
        # on the scales the energy-density routes use, converge on the
        # rule in one call
        v = make_boost([0.0, 0.0, beta])

        def moving(x):
            f, h = _direction_integrated_x_occupation(x, v)
            return x**2 * f * h * h

        kernels = [(_x3_occupation, 1.0), (moving, 1.0 / (v.gamma * (1.0 - v.beta_mag)))]
        counts = []
        for kernel, scale in kernels:
            f, sizes = _counting(kernel)
            res = integrate_semi_infinite(f, scale=scale)
            assert sizes == [res.n_evaluations]
            counts.append((res.n_panels, res.n_evaluations))
        assert counts == [(4, 208), (4, 208)]

    def test_bad_scale_rejected(self):
        f = lambda x: np.exp(-x)
        with pytest.raises(ValueError):
            integrate_semi_infinite(f, scale=0.0)
        with pytest.raises(ValueError):
            integrate_semi_infinite(f, scale=-2.0)
        with pytest.raises(ValueError):
            integrate_semi_infinite(f, scale=math.nan)

class TestRestEnergyDensity:
    """At rest the spectral route's W' is the quadrature of the Stefan-Boltzmann W."""

    def test_thermal_matches_closed_form(self):
        w = energy_density_moving_spectral(1.0, REST).W_moving
        assert w == pytest.approx(W_THERMAL_NATURAL_T1, rel=1e-11)
        assert thermal_energy_density_closed_form(1.0) == W_THERMAL_NATURAL_T1

    def test_fourth_power_scaling(self):
        ratios = [energy_density_moving_spectral(t, REST).W_moving / t**4
                  for t in (0.5, 1.0, 2.725, 7.0)]
        assert np.max(np.abs(np.asarray(ratios) / ratios[0] - 1.0)) <= 1e-10

    def test_si_radiation_constant(self):
        si = UnitSystem.si()
        t = 2.725
        w = energy_density_moving_spectral(t, REST, si).W_moving
        sigma = 5.670374419e-8  # W m^-2 K^-4
        assert w == pytest.approx(4.0 * sigma / si.c * t**4, rel=1e-9)
        assert w == pytest.approx(thermal_energy_density_closed_form(t, si), rel=1e-10)


class TestMovingSpectral:
    def test_rest_limit(self):
        rep = energy_density_moving_spectral(1.0, make_boost([0, 0, 0]))
        assert rep.method == "spectral"
        assert rep.ratio == pytest.approx(1.0, abs=1e-14)

    def test_ratio_sweep_matches_closed_form(self):
        # gamma^2 (1 + beta^2/3) at the four sample speeds, correctly rounded
        # at each double beta (by exact rational arithmetic)
        frozen = {
            0.1: 1.0134680134680134,
            0.3: 1.1318681318681318,
            0.6: 1.75,
            0.9: 6.684210526315791,
        }
        for beta, want in frozen.items():
            v = make_boost([0.0, 0.0, beta])
            assert expected_energy_ratio(v) == want
            rep = energy_density_moving_spectral(1.0, v)
            assert rep.ratio == pytest.approx(want, rel=1e-9)
            assert rep.W_moving == rep.W_rest * rep.ratio
            assert rep.ratio > 1.0

    def test_moving_density_scales_as_t_fourth(self):
        v = make_boost([0.0, 0.0, 0.6])
        r1 = energy_density_moving_spectral(1.0, v)
        r2 = energy_density_moving_spectral(2.0, v)
        assert r2.W_moving / r1.W_moving == pytest.approx(16.0, rel=1e-9)

    def test_sign_of_beta_is_irrelevant(self):
        rep_z = energy_density_moving_spectral(1.0, make_boost([0.0, 0.0, 0.6]))
        rep_minus_z = energy_density_moving_spectral(1.0, make_boost([0.0, 0.0, -0.6]))
        assert rep_minus_z.ratio == rep_z.ratio

    def test_rejects_unsupported_requests(self):
        v = make_boost([0.0, 0.0, 0.5])
        with pytest.raises(ValueError):
            energy_density_moving_spectral(0.0, v)


def _correlation_scale(t, units):
    """hbar / ((2 pi)^2 c^3) (k_B t / hbar)^4 2 pi^4 / 15, the rest correlation's physical scale.

    The library needs no such scale, since W'/W is a ratio of traces; the
    test applies it to check that the scaled matrix's trace gives W.
    """
    freq = (units.k_B * t / units.hbar) ** 4 * (2.0 * math.pi**4 / 15.0)
    return units.hbar / ((2.0 * math.pi) ** 2 * units.c**3) * freq


def _plane_wave_correlation():
    """The rest-frame 6x6 <(E, B)(E, B)^T> per unit scale, summed over an isotropic set of plane waves.

    Each direction khat carries two unit polarizations e with E = e and
    B = khat x e, weighted by a product rule over the sphere (4-node
    Gauss-Legendre in cos theta, 8 uniform azimuths), which is exact for
    the degree-2 products.  The route takes the result to be
    (8 pi / 3) I_6; this builds it independently.
    """
    mus, wmu = np.polynomial.legendre.leggauss(4)
    corr = np.zeros((6, 6))
    for mu, w in zip(mus, wmu):
        for phi in np.arange(8) * (np.pi / 4.0):
            sin = math.sqrt(1.0 - mu * mu)
            k = np.array([sin * math.cos(phi), sin * math.sin(phi), mu])
            e1 = np.array([mu * math.cos(phi), mu * math.sin(phi), -sin])
            for e in (e1, np.cross(k, e1)):
                field = np.concatenate((e, np.cross(k, e)))
                corr += (w * np.pi / 4.0) * np.outer(field, field)
    return corr


class TestCorrelations:
    def test_isotropy_of_electric_tensor(self):
        # the E-E and B-B blocks are both (8 pi / 3) I, the route's C
        corr = _plane_wave_correlation()
        assert np.trace(corr) == pytest.approx(16.0 * math.pi, rel=1e-15)
        for block in (corr[:3, :3], corr[3:, 3:]):
            assert np.max(np.abs(block - 8.0 * math.pi / 3.0 * np.eye(3))) <= 1e-14

    def test_trace_reproduces_energy_density(self):
        w = _correlation_scale(1.0, UnitSystem()) * np.trace(_plane_wave_correlation()) / (8.0 * math.pi)
        assert w == pytest.approx(W_THERMAL_NATURAL_T1, rel=1e-10)

    def test_electric_magnetic_average_vanishes(self):
        # the E-B block is odd in khat, so isotropy makes it zero
        corr = _plane_wave_correlation()
        assert np.max(np.abs(corr[:3, 3:])) <= 1e-14
        assert np.allclose(corr[3:, :3], corr[:3, 3:].T, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("units, t", [(UnitSystem(), 1e-3), (UnitSystem(), 1.3),
                                          (UnitSystem(), 1e3), (UnitSystem.si(), 300.0)])
    def test_contractions_equal_those_of_the_scaled_tensors(self, units, t):
        # the route sums L's squares; the traces of the physically scaled
        # rest and boosted plane-wave correlations must give its W and W'
        scaled = _correlation_scale(t, units) * _plane_wave_correlation()
        for beta in (0.0, 0.6, -0.6, 1.0 - 1e-9, -(1.0 - 1e-9)):
            v = make_boost([0.0, 0.0, beta])
            boost = kinematics._field_boost_matrix(v)
            rep = energy_density_moving_correlation(t, v, units)
            assert rep.W_rest == pytest.approx(np.trace(scaled) / (8.0 * math.pi), rel=1e-14)
            w_moving = np.trace(boost @ scaled @ boost.T) / (8.0 * math.pi)
            assert rep.W_moving == pytest.approx(w_moving, rel=1e-14)

    def test_requires_positive_temperature(self):
        with pytest.raises(ValueError):
            energy_density_moving_correlation(0.0, make_boost([0.0, 0.0, 0.5]))


class TestRouteAgreement:
    def test_one_adaptive_quadrature_per_op(self, monkeypatch):
        # W is the closed form on both routes: only the spectral W' runs the integrator
        calls = []
        integrate = radiometry.integrate_semi_infinite

        def counted(*args, **kwargs):
            calls.append(1)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(radiometry, "integrate_semi_infinite", counted)
        v = make_boost([0.0, 0.0, 0.6])
        for route, want in ((lambda: energy_density_moving_spectral(1.0, v), 1),
                            (lambda: energy_density_moving_correlation(1.0, v), 0)):
            calls.clear()
            route()
            assert len(calls) == want

    @pytest.mark.parametrize(
        "units, t", [("natural", 1e-3), ("natural", 1.0), ("natural", 1e3), ("si", 300.0)]
    )
    def test_thermal_integrals_take_one_call_on_the_rule(self, monkeypatch, units, t):
        # both energy routes' thermal kernels, on the scales they pass, meet
        # the tolerance on the rule: one integrand call of 4 x (32 + 20)
        # points at every beta up to 1 - 1e-9
        sizes = []
        integrate = radiometry.integrate_semi_infinite

        def counted(f, *args, **kwargs):
            g, seen = _counting(f)
            res = integrate(g, *args, **kwargs)
            sizes.append(seen)
            assert (res.n_panels, res.n_evaluations) == (4, 208)
            assert res.error_estimate <= res.tolerance
            return res

        monkeypatch.setattr(radiometry, "integrate_semi_infinite", counted)
        u = UNIT_SYSTEMS[units]
        for beta in (0.0, 0.3, 0.6, 0.9, 0.99, 0.999, 0.9999, 0.999999, 1.0 - 1e-9):
            energy_density_moving_spectral(t, make_boost([0.0, 0.0, beta]), units=u)
        assert sizes == [[4 * (32 + 20)]] * 9

    def test_reports_carry_the_quadrature_diagnostics(self):
        v = make_boost([0.0, 0.0, 0.999])
        spec = energy_density_moving_spectral(1.0, v)
        assert (spec.n_panels, spec.n_evaluations) == (4, 208)
        # the error bound is on W_moving and covers its distance from the closed form
        exact = expected_energy_ratio(v) * spec.W_rest
        assert 0.0 < spec.error_estimate <= 1e-10 * spec.W_moving
        assert abs(spec.W_moving - exact) <= spec.error_estimate
        corr = energy_density_moving_correlation(1.0, v)
        assert (corr.error_estimate, corr.n_panels, corr.n_evaluations) == (None, None, None)

    @pytest.mark.parametrize("units", [UnitSystem(), UnitSystem.si()])
    def test_spectral_report_states_its_quadrature_verdict(self, units):
        rep = energy_density_moving_spectral(300.0, make_boost([0.0, 0.0, 0.6]), units)
        check = rep.check
        assert (check.name, check.passed) == ("quadrature", True)
        assert (check.residual, check.tolerance) == (rep.error_estimate, rep.tolerance)
        # the tolerance is the integrator's, carried to W' like the estimate
        assert rep.tolerance == pytest.approx(1e-10 * rep.W_moving, rel=1e-12)
        assert check.detail == "W' on 4 panels, 208 evaluations"
        corr = energy_density_moving_correlation(300.0, make_boost([0.0, 0.0, 0.6]))
        assert (corr.tolerance, corr.check) == (None, None)

    def test_missed_or_nan_estimate_fails_the_verdict(self, monkeypatch):
        # a tolerance of 0 makes the real quadrature miss it
        monkeypatch.setattr(radiometry, "_REL_TOL", 0.0)
        monkeypatch.setattr(radiometry, "_ABS_TOL", 0.0)
        rep = energy_density_moving_spectral(1.0, make_boost([0.0, 0.0, 0.6]))
        assert rep.check.passed is False
        assert rep.check.residual > rep.check.tolerance == 0.0
        nan = EnergyDensityReport(1.0, 1.75, 1.75, "spectral", math.nan, 4, 208, 1e-10)
        assert nan.check.passed is False

    def test_correlation_route_hits_closed_form_algebraically(self):
        # tr(L C L^T) / tr(C) reduces to gamma^2 (1 + beta^2/3) exactly; only
        # the rounding of L and of the matrix products can move it
        for sign in (1.0, -1.0):
            for beta in (0.0, 0.2, 0.6, 0.75, 0.9, 0.99, 0.999, 0.999999, 1.0 - 1e-9):
                v = make_boost([0.0, 0.0, sign * beta])
                rep = energy_density_moving_correlation(1.0, v)
                assert rep.method == "correlation"
                assert rep.ratio == pytest.approx(expected_energy_ratio(v), rel=1e-15)
        assert energy_density_moving_correlation(1.0, make_boost([0.0, 0.0, 0.0])).ratio == 1.0

    def test_two_routes_agree(self):
        for beta in (0.1, 0.6, 0.9):
            v = make_boost([0.0, 0.0, beta])
            spect = energy_density_moving_spectral(1.0, v)
            corr = energy_density_moving_correlation(1.0, v)
            assert abs(spect.W_moving / corr.W_moving - 1.0) <= 1e-8
            assert abs(spect.W_rest / corr.W_rest - 1.0) <= 1e-10

    def test_negative_beta_route_agreement(self):
        v = make_boost([0.0, 0.0, -0.8])
        spect = energy_density_moving_spectral(1.0, v)
        corr = energy_density_moving_correlation(1.0, v)
        assert abs(spect.W_moving / corr.W_moving - 1.0) <= 1e-8


UNIT_SYSTEMS = {"natural": UnitSystem(), "si": UnitSystem.si()}
HIGH_BETAS = (0.99, 0.999, 0.999999, 1.0 - 1e-9)


@pytest.mark.parametrize("t", [1e-3, 1e3])
@pytest.mark.parametrize("units", sorted(UNIT_SYSTEMS))
class TestAcrossTheDomain:
    """Far from T = 1 and beta = 0 the tolerance still scales with the integrand."""

    def test_rest_density_on_closed_form(self, units, t):
        u = UNIT_SYSTEMS[units]
        w = energy_density_moving_spectral(t, REST, u).W_moving
        # relative, not pytest.approx: its 1e-12 absolute floor exceeds W(1e-3)
        assert abs(w / thermal_energy_density_closed_form(t, u) - 1.0) <= 1e-12

    def test_both_routes_on_closed_form_up_to_light_speed(self, units, t):
        u = UNIT_SYSTEMS[units]
        for beta in HIGH_BETAS:
            v = make_boost([0.0, 0.0, beta])
            want = expected_energy_ratio(v)
            for rep in (energy_density_moving_spectral(t, v, units=u),
                        energy_density_moving_correlation(t, v, units=u)):
                assert abs(rep.ratio / want - 1.0) <= 1e-12, (rep.method, beta)
                w_rest = thermal_energy_density_closed_form(t, u)
                assert abs(rep.W_rest / w_rest - 1.0) <= 1e-15, (rep.method, beta)


class TestExtremeTemperatures:
    """Where W or W' would not be a normal double, T lies outside the domain and raises at the edge."""

    def test_w_near_the_largest_double(self):
        # W would be (pi^2 / 15) 1e308 at T 1e77, above the domain
        v = make_boost([0.0, 0.0, 0.6])
        for route in (thermal_energy_density_closed_form,
                      lambda t: energy_density_moving_spectral(t, v),
                      lambda t: energy_density_moving_correlation(t, v)):
            with pytest.raises(ValueError, match=re.escape(T_RANGE)):
                route(1e77)

    @pytest.mark.parametrize("t", [0.0, 1e-320, 1e-81, 1e200])
    def test_unrepresentable_w_raises(self, t):
        # W = 0 at T = 0, which the domain accepts but no W'/W can use
        message = "T > 0 required" if t == 0.0 else re.escape(T_RANGE)
        v = make_boost([0.0, 0.0, 0.6])
        for route in (thermal_energy_density_closed_form,
                      lambda t: energy_density_moving_spectral(t, v),
                      lambda t: energy_density_moving_correlation(t, v)):
            with pytest.raises(ValueError, match=message):
                route(t)

    def test_unrepresentable_w_moving_raises(self):
        # W' = W gamma^2 (1 + beta^2 / 3) overflows at T 1e77 and beta 1 - 1e-9
        v = make_boost([0.0, 0.0, 1.0 - 1e-9])
        for route in (energy_density_moving_spectral, energy_density_moving_correlation):
            with pytest.raises(ValueError, match=re.escape(T_RANGE)):
                route(1e77, v)


def test_quadrature_rules_are_leggauss_bit_for_bit():
    # the stored positive halves, mirrored, are leggauss(32) and (20); tobytes
    # also tells -0.0 from 0.0
    for half, n in ((radiometry._GL32_HALF, 32), (radiometry._GL20_HALF, 20)):
        x, w = np.polynomial.legendre.leggauss(n)
        assert np.array(half[0]).tobytes() == x[n // 2:].tobytes()
        assert np.array(half[1]).tobytes() == w[n // 2:].tobytes()
        assert np.array_equal(x[:n // 2], -x[:n // 2 - 1:-1])
        assert np.array_equal(w[:n // 2], w[:n // 2 - 1:-1])
