"""Adaptive quadrature honesty, energy densities, and the two W' routes."""

import math

import numpy as np
import pytest

from relplanck import (
    Component,
    CorrelationCoincidence,
    QuadratureConfig,
    QuadratureConvergenceError,
    UnitSystem,
    correlation_coincidence,
    energy_density_moving_correlation,
    energy_density_moving_spectral,
    energy_density_rest,
    expected_energy_ratio,
    integrate_semi_infinite,
    make_boost,
    thermal_energy_density_closed_form,
    thermal_occupation,
)
from relplanck import radiometry
from relplanck.radiometry import _MAX_PANELS
from relplanck.spectrum import _direction_integrated_x_occupation

# closed-form reference values, frozen after independent evaluation:
#   integral x^3 e^{-x}          = Gamma(4) = 6
#   integral x^3 / (e^x - 1)     = pi^4 / 15           (Bose series sum 6/k^4)
#   integral x^4 / (e^x - 1)     = 24 zeta(5)          (Bose series sum 24/k^5)
GAMMA_4 = 6.0
PI4_OVER_15 = math.pi**4 / 15.0
ZETA5_INTEGRAL = 24.886266123440878

W_THERMAL_NATURAL_T1 = math.pi**2 / 15.0


def _gl128_reference(f, scale, n_panels=8):
    """Composite 128-node Gauss-Legendre on the same t-map, as an
    independently structured check on the adaptive integrator."""
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

    def test_signed_integrand(self):
        # integral x^3 e^{-x} cos x = Re Gamma(4)/(1+i)^4 = -3/2
        res = integrate_semi_infinite(lambda x: x**3 * np.exp(-x) * np.cos(x))
        assert res.value == pytest.approx(-1.5, rel=1e-11)
        assert abs(res.value + 1.5) <= res.error_estimate

    def test_against_fixed_rule_on_same_map(self):
        f = lambda x: x**3 * thermal_occupation(x) / (1.0 + 0.25 * x**2)
        res = integrate_semi_infinite(f)
        ref = _gl128_reference(f, 1.0)
        assert res.value == pytest.approx(ref, rel=1e-11)

    def test_scale_choice_does_not_move_the_value(self):
        f = lambda x: x**3 * np.exp(-x)
        lo = integrate_semi_infinite(f, scale=0.37)
        hi = integrate_semi_infinite(f, scale=11.0)
        assert lo.value == pytest.approx(GAMMA_4, rel=1e-11)
        assert hi.value == pytest.approx(GAMMA_4, rel=1e-11)

    def test_cutoff_truncates_domain(self):
        cfg = QuadratureConfig(omega_cutoff=3.0)
        res = integrate_semi_infinite(lambda x: x**3, cfg, scale=3.0)
        assert res.value == pytest.approx(3.0**4 / 4.0, rel=1e-13)

    def test_seed_tables_are_built_once_per_upper_limit(self):
        seed = radiometry._seed_panels
        first = integrate_semi_infinite(lambda x: x**3 * thermal_occupation(x))
        misses = seed.cache_info().misses
        again = integrate_semi_infinite(lambda x: x**3 * thermal_occupation(x))
        assert seed.cache_info().misses == misses
        assert (again.value, again.error_estimate) == (first.value, first.error_estimate)
        for table in seed(1.0):
            assert not table.flags.writeable
        # every distinct cutoff is a new upper limit; the cache stays bounded
        # and an evicted limit is rebuilt to the same panels
        cutoffs = [QuadratureConfig(omega_cutoff=c) for c in (0.5, 1.0, 2.0, 4.0, 8.0)]
        before = [integrate_semi_infinite(lambda x: x**3, cfg).value for cfg in cutoffs]
        for c in np.linspace(10.0, 20.0, 2 * seed.cache_info().maxsize):
            integrate_semi_infinite(lambda x: x**3, QuadratureConfig(omega_cutoff=c))
        assert seed.cache_info().currsize <= seed.cache_info().maxsize
        assert [integrate_semi_infinite(lambda x: x**3, cfg).value for cfg in cutoffs] == before

    def test_bookkeeping_fields(self):
        # 32 seed panels at 15 + 7 evals each, 2 more panels per bisection;
        # the tighter tolerance makes the same integrand bisect
        for cfg in (None, QuadratureConfig(rel_tol=1e-13)):
            res = integrate_semi_infinite(lambda x: x**3 * np.exp(-x), cfg)
            assert res.n_panels >= 32
            assert res.n_evaluations == 704 + 44 * (res.n_panels - 32)
        assert res.n_panels > 32

    @pytest.mark.parametrize("beta", [0.0, 0.6, 0.999, 1.0 - 1e-9])
    def test_thermal_kernels_take_a_few_batched_calls(self, beta):
        # the rest kernel x^3 n(x) and the direction-integrated moving one,
        # on the scales the energy-density routes use; their exact panel and
        # evaluation counts pin the refinement rule: the 32 seed panels
        # converge without a bisection
        v = make_boost([0.0, 0.0, beta])
        kernels = [
            (lambda x: x**3 * thermal_occupation(x), 1.0),
            (lambda x: x**2 * _direction_integrated_x_occupation(x, v), 1.0 / (v.gamma * (1.0 - v.beta_mag))),
        ]
        counts = []
        for kernel, scale in kernels:
            f, sizes = _counting(kernel)
            res = integrate_semi_infinite(f, scale=scale)
            assert len(sizes) <= 4
            assert res.n_evaluations == sum(sizes)
            counts.append((res.n_panels, res.n_evaluations))
        assert counts == [(32, 704), (32, 704)]

    def test_unconvergeable_integrand_stays_within_the_panel_budget(self):
        # each round values its new halves in one call: 32 seed panels, then
        # n points make n / 22 new panels out of n / 44 old ones
        f, sizes = _counting(lambda x: np.exp(-x) * (1.0 + 0.5 * np.sin(50.0 * x**2)))
        cfg = QuadratureConfig(rel_tol=1e-15, abs_tol=1e-300)
        with pytest.raises(QuadratureConvergenceError, match="panel budget|max_levels"):
            integrate_semi_infinite(f, cfg)
        assert sizes[0] == 32 * 22
        assert all(n % 44 == 0 for n in sizes[1:])
        live = np.cumsum([32] + [n // 44 for n in sizes[1:]])
        assert live.max() <= _MAX_PANELS
        # the last round is cut short to land exactly on the budget
        assert live[-1] == _MAX_PANELS

    def test_frozen_panels_over_the_tolerance_stop_refinement(self):
        # sin(1/x) oscillates without end near 0: the panels there reach
        # max_levels with errors above the tolerance, which no further
        # bisection elsewhere can make up, so the integrator must give up
        # at once rather than bisect one panel per round to the budget
        f, sizes = _counting(lambda x: np.sin(1.0 / x))
        with pytest.raises(QuadratureConvergenceError, match="max_levels"):
            integrate_semi_infinite(f, QuadratureConfig(omega_cutoff=10.0))
        assert len(sizes) <= 40

    def test_unresolvable_spike_raises_with_partial_result(self):
        cfg = QuadratureConfig(rel_tol=1e-15, abs_tol=1e-250, max_levels=2)
        spike = lambda x: 1.0 / (1.0 + 1e8 * (x - 2.0) ** 2)
        with pytest.raises(QuadratureConvergenceError, match="max_levels") as exc:
            integrate_semi_infinite(spike, cfg, scale=2.0)
        assert math.isfinite(exc.value.value)
        assert exc.value.error > 0.0

    def test_bad_scale_rejected(self):
        f = lambda x: np.exp(-x)
        with pytest.raises(ValueError):
            integrate_semi_infinite(f, scale=0.0)
        with pytest.raises(ValueError):
            integrate_semi_infinite(f, scale=-2.0)
        with pytest.raises(ValueError):
            integrate_semi_infinite(f, scale=math.nan)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureConfig(max_levels=0)
        with pytest.raises(ValueError):
            QuadratureConfig(omega_cutoff=-5.0)


class TestRestEnergyDensity:
    def test_thermal_matches_closed_form(self):
        w = energy_density_rest(1.0)
        assert w == pytest.approx(W_THERMAL_NATURAL_T1, rel=1e-11)
        assert thermal_energy_density_closed_form(1.0) == W_THERMAL_NATURAL_T1

    def test_fourth_power_scaling(self):
        ratios = [energy_density_rest(t) / t**4 for t in (0.5, 1.0, 2.725, 7.0)]
        assert np.max(np.abs(np.asarray(ratios) / ratios[0] - 1.0)) <= 1e-10

    def test_zero_temperature_thermal_vanishes(self):
        assert energy_density_rest(0.0) == 0.0

    def test_zero_point_demands_cutoff(self):
        with pytest.raises(ValueError, match="cutoff"):
            energy_density_rest(1.0, Component.ZERO_POINT)
        with pytest.raises(ValueError, match="cutoff"):
            energy_density_rest(1.0, Component.TOTAL)

    def test_zero_point_quartic_in_cutoff(self):
        for lam in (3.0, 6.0):
            cfg = QuadratureConfig(omega_cutoff=lam)
            w = energy_density_rest(1.0, Component.ZERO_POINT, cfg)
            assert w == pytest.approx(lam**4 / (8.0 * math.pi**2), rel=1e-12)

    def test_total_is_sum_of_parts_under_shared_cutoff(self):
        cfg = QuadratureConfig(omega_cutoff=40.0)
        total = energy_density_rest(1.0, Component.TOTAL, cfg)
        zp = energy_density_rest(1.0, Component.ZERO_POINT, cfg)
        th = energy_density_rest(1.0, Component.THERMAL, cfg)
        assert total == pytest.approx(zp + th, rel=1e-12)
        # at cutoff 40 the truncated thermal part is the full one to rounding
        assert th == pytest.approx(W_THERMAL_NATURAL_T1, rel=1e-11)

    def test_si_radiation_constant(self):
        si = UnitSystem.si()
        t = 2.725
        w = energy_density_rest(t, units=si)
        sigma = 5.670374419e-8  # W m^-2 K^-4
        assert w == pytest.approx(4.0 * sigma / si.c * t**4, rel=1e-9)
        assert w == pytest.approx(thermal_energy_density_closed_form(t, si), rel=1e-10)


class TestMovingSpectral:
    def test_rest_limit(self):
        rep = energy_density_moving_spectral(1.0, make_boost([0, 0, 0]))
        assert rep.method == "spectral"
        assert rep.ratio == pytest.approx(1.0, abs=1e-14)

    def test_ratio_sweep_matches_closed_form(self):
        # gamma^2 (1 + beta^2/3) at the four sample speeds
        frozen = {
            0.1: 1.0134680134680135,
            0.3: 1.1318681318681319,
            0.6: 1.75,
            0.9: 6.684210526315789,
        }
        for beta, want in frozen.items():
            v = make_boost([0.0, 0.0, beta])
            assert expected_energy_ratio(v) == pytest.approx(want, rel=1e-15)
            rep = energy_density_moving_spectral(1.0, v)
            assert rep.ratio == pytest.approx(want, rel=1e-9)
            assert rep.ratio == rep.W_moving / rep.W_rest
            assert rep.ratio > 1.0

    def test_moving_density_scales_as_t_fourth(self):
        v = make_boost([0.0, 0.0, 0.6])
        r1 = energy_density_moving_spectral(1.0, v)
        r2 = energy_density_moving_spectral(2.0, v)
        assert r2.W_moving / r1.W_moving == pytest.approx(16.0, rel=1e-9)

    def test_axis_choice_is_irrelevant(self):
        rep_z = energy_density_moving_spectral(1.0, make_boost([0.0, 0.0, 0.6]))
        b = 0.6 / math.sqrt(3.0)
        rep_d = energy_density_moving_spectral(1.0, make_boost([b, b, b]))
        assert rep_d.ratio == pytest.approx(rep_z.ratio, rel=1e-12)

    def test_rejects_unsupported_requests(self):
        v = make_boost([0.0, 0.0, 0.5])
        with pytest.raises(ValueError):
            energy_density_moving_spectral(0.0, v)
        with pytest.raises(ValueError):
            energy_density_moving_spectral(1.0, v, component=Component.TOTAL)
        # a truncated W' over the untruncated W would compare nothing
        with pytest.raises(ValueError, match="omega_cutoff"):
            energy_density_moving_spectral(1.0, v, QuadratureConfig(omega_cutoff=30.0))


class TestCorrelations:
    def test_isotropy_of_electric_tensor(self):
        corr = correlation_coincidence(1.0)
        tens = corr.elel_tensor
        scale = corr.elel_trace
        off = tens - np.diag(np.diag(tens))
        assert np.max(np.abs(off)) <= 1e-15 * scale
        assert np.max(np.abs(np.diag(tens) - scale / 3.0)) <= 1e-14 * scale
        assert isinstance(corr, CorrelationCoincidence)

    def test_trace_reproduces_energy_density(self):
        corr = correlation_coincidence(1.0)
        assert corr.elel_trace / (4.0 * math.pi) == pytest.approx(
            W_THERMAL_NATURAL_T1, rel=1e-10
        )

    def test_electric_magnetic_average_vanishes(self):
        corr = correlation_coincidence(1.3)
        assert np.max(np.abs(corr.elmag_axial)) <= 1e-14 * corr.elel_trace
        assert corr.elmag_axial_trace == corr.elmag_axial[2]

    @pytest.mark.parametrize("units, t", [(UnitSystem(), 1e-3), (UnitSystem(), 1.3),
                                          (UnitSystem(), 1e3), (UnitSystem.si(), 300.0)])
    def test_contractions_equal_those_of_the_scaled_tensors(self, units, t):
        # the trace and the axial vector are contracted once and scaled per
        # call; they must equal the contractions of each call's tensors bitwise
        corr = correlation_coincidence(t, units)
        assert corr.elel_trace == float(np.trace(corr.elel_tensor))
        eps = radiometry._EPS_LC
        khat, wts = radiometry._correlation_angular_rule(radiometry._CORRELATION_NODES)
        transverse = wts.sum() * np.eye(3) - np.einsum("n,nj,nm->jm", wts, khat, khat)
        freq = (units.k_B * t / units.hbar) ** 4 * (2.0 * math.pi**4 / 15.0)
        scale = units.hbar / ((2.0 * np.pi) ** 2 * units.c**3) * freq
        assert np.array_equal(corr.elel_tensor, scale * transverse)
        elmag = np.einsum("jml,n,nl->jm", eps, wts, khat)
        assert np.array_equal(corr.elmag_axial, np.einsum("ljm,jm->l", eps, scale * elmag))

    def test_tensor_is_read_only(self):
        corr = correlation_coincidence(1.0)
        with pytest.raises(ValueError):
            corr.elel_tensor[0, 0] = 0.0

    def test_requires_positive_temperature(self):
        with pytest.raises(ValueError):
            correlation_coincidence(0.0)


class TestRouteAgreement:
    def test_one_adaptive_quadrature_per_op(self, monkeypatch):
        # W is the closed form on both routes: only the spectral W' and the
        # rest-frame quadrature check run the adaptive integrator
        calls = []
        integrate = radiometry.integrate_semi_infinite

        def counted(*args, **kwargs):
            calls.append(1)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(radiometry, "integrate_semi_infinite", counted)
        v = make_boost([0.0, 0.0, 0.6])
        for route, want in ((lambda: energy_density_moving_spectral(1.0, v), 1),
                            (lambda: energy_density_moving_correlation(1.0, v), 0),
                            (lambda: energy_density_rest(1.0), 1)):
            calls.clear()
            route()
            assert len(calls) == want

    @pytest.mark.parametrize(
        "units, t", [("natural", 1e-3), ("natural", 1.0), ("natural", 1e3), ("si", 300.0)]
    )
    def test_thermal_integrals_take_one_call_on_the_seed_panels(self, monkeypatch, units, t):
        # both energy routes' thermal kernels, on the scales they pass, meet
        # the default tolerance on the 32 seed panels: one integrand call of
        # 32 x 22 points, no bisection, at every beta up to 1 - 1e-9
        sizes = []
        integrate = radiometry.integrate_semi_infinite

        def counted(f, *args, **kwargs):
            g, seen = _counting(f)
            res = integrate(g, *args, **kwargs)
            sizes.append(seen)
            assert (res.n_panels, res.n_evaluations) == (32, 704)
            return res

        monkeypatch.setattr(radiometry, "integrate_semi_infinite", counted)
        u = UNIT_SYSTEMS[units]
        energy_density_rest(t, units=u)
        for beta in (0.0, 0.3, 0.6, 0.9, 0.99, 0.999, 0.9999, 0.999999, 1.0 - 1e-9):
            energy_density_moving_spectral(t, make_boost([0.0, 0.0, beta]), units=u)
        assert sizes == [[32 * 22]] * 10

    def test_reports_carry_the_quadrature_diagnostics(self):
        v = make_boost([0.0, 0.0, 0.999])
        spec = energy_density_moving_spectral(1.0, v)
        assert (spec.n_panels, spec.n_evaluations) == (32, 704)
        # the error bound is on W_moving and covers its distance from the closed form
        exact = expected_energy_ratio(v) * spec.W_rest
        assert 0.0 < spec.error_estimate <= 1e-10 * spec.W_moving
        assert abs(spec.W_moving - exact) <= spec.error_estimate
        corr = energy_density_moving_correlation(1.0, v)
        assert (corr.error_estimate, corr.n_panels, corr.n_evaluations) == (None, None, None)

    def test_correlation_route_hits_closed_form_algebraically(self):
        # the trace assembly reduces to gamma^2 (1 + beta^2/3) exactly; only
        # angular-rule rounding can move it
        for beta in (0.2, 0.75):
            v = make_boost([0.0, 0.0, beta])
            rep = energy_density_moving_correlation(1.0, v)
            assert rep.method == "correlation"
            assert rep.ratio == pytest.approx(expected_energy_ratio(v), rel=1e-13)

    def test_two_routes_agree(self):
        for beta in (0.1, 0.6, 0.9):
            v = make_boost([0.0, 0.0, beta])
            spect = energy_density_moving_spectral(1.0, v)
            corr = energy_density_moving_correlation(1.0, v)
            assert abs(spect.W_moving / corr.W_moving - 1.0) <= 1e-8
            assert abs(spect.W_rest / corr.W_rest - 1.0) <= 1e-10

    def test_oblique_axis_route_agreement(self):
        n = np.array([1.0, -2.0, 2.0]) / 3.0
        v = make_boost(0.8 * n)
        spect = energy_density_moving_spectral(1.0, v)
        corr = energy_density_moving_correlation(1.0, v)
        assert abs(spect.W_moving / corr.W_moving - 1.0) <= 1e-8


UNIT_SYSTEMS = {"natural": UnitSystem(), "si": UnitSystem.si()}
HIGH_BETAS = (0.99, 0.999, 0.999999, 1.0 - 1e-9)
# integral_0^2 x^3 / (e^x - 1) dx / (pi^4 / 15), frozen from a 40-digit mpmath quadrature
PLANCK_FRACTION_BELOW_2 = 0.18114468333295099242


@pytest.mark.parametrize("t", [1e-3, 1e3])
@pytest.mark.parametrize("units", sorted(UNIT_SYSTEMS))
class TestAcrossTheDomain:
    """Far from T = 1 and beta = 0 the tolerance still scales with the integrand."""

    def test_rest_density_on_closed_form(self, units, t):
        u = UNIT_SYSTEMS[units]
        w = energy_density_rest(t, units=u)
        # relative, not pytest.approx: its 1e-12 absolute floor exceeds W(1e-3)
        assert abs(w / thermal_energy_density_closed_form(t, u) - 1.0) <= 1e-12

    def test_cutoff_is_mapped_to_the_thermal_scale(self, units, t):
        u = UNIT_SYSTEMS[units]
        cfg = QuadratureConfig(omega_cutoff=2.0 * u.k_B * t / u.hbar)
        w = energy_density_rest(t, Component.THERMAL, cfg, u)
        fraction = w / thermal_energy_density_closed_form(t, u)
        assert abs(fraction / PLANCK_FRACTION_BELOW_2 - 1.0) <= 1e-12

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
