import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_boosts, random_modes, random_unit_vectors, speeds
from relplanck import (
    PhotonMode,
    aberrate_mu,
    boost_mode,
    boost_mu,
    direction_with_cosine,
    doppler_factor,
    inverse_doppler_factor,
    make_boost,
)
from relplanck.kinematics import _field_boost_matrix

V06 = make_boost([0.0, 0.0, 0.6])


class TestDoppler:
    def test_head_on_blueshift(self):
        m = PhotonMode(1.0, [0.0, 0.0, -1.0])
        assert boost_mode(m, V06).mode_prime.omega == pytest.approx(2.0, rel=1e-14)

    def test_receding_redshift(self):
        m = PhotonMode(1.0, [0.0, 0.0, 1.0])
        assert boost_mode(m, V06).mode_prime.omega == pytest.approx(0.5, rel=1e-14)

    def test_transverse(self):
        m = PhotonMode(1.0, [1.0, 0.0, 0.0])
        assert boost_mode(m, V06).mode_prime.omega == pytest.approx(1.25, rel=1e-14)

    def test_identity_at_rest_is_exact(self):
        m = PhotonMode(0.7431, [0.0, 1.0, 0.0])
        assert boost_mode(m, make_boost([0, 0, 0])).mode_prime.omega == m.omega

    def test_always_positive(self):
        rng = np.random.default_rng(11)
        for v, m in zip(random_boosts(rng, 200), random_modes(rng, 200)):
            assert boost_mode(m, v).mode_prime.omega > 0.0


def _khat_prime(m, v):
    return boost_mode(m, v).mode_prime.khat


def _wavevector_boost(m, v):
    """The raw wavevector omega khat, boosted: an independent route to omega' khat'."""
    k = m.omega * m.khat
    kpar = float(k @ v.vhat)
    return k - kpar * v.vhat + (v.gamma * (kpar - v.beta_mag * m.omega)) * v.vhat


class TestAberration:
    def test_collinear_fixed_points(self):
        up = PhotonMode(1.0, [0.0, 0.0, 1.0])
        down = PhotonMode(1.0, [0.0, 0.0, -1.0])
        assert np.array_equal(_khat_prime(up, V06), [0.0, 0.0, 1.0])
        assert np.array_equal(_khat_prime(down, V06), [0.0, 0.0, -1.0])

    def test_transverse_sweeps_backward(self):
        m = PhotonMode(1.0, [1.0, 0.0, 0.0])
        khat_p = _khat_prime(m, V06)
        assert float(khat_p @ V06.vhat) == pytest.approx(-0.6, abs=1e-15)

    def test_mu_equals_beta_lands_transverse(self):
        m = PhotonMode(1.0, direction_with_cosine(0.6, V06))
        khat_p = _khat_prime(m, V06)
        assert float(khat_p @ V06.vhat) == pytest.approx(0.0, abs=1e-15)

    def test_identity_at_rest(self):
        m = PhotonMode(1.0, [0.6, 0.0, 0.8])
        assert _khat_prime(m, make_boost([0, 0, 0])) is m.khat

    def test_azimuth_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = random_unit_vectors(rng, 1)[0]
            if abs(k[2]) > 0.99:
                continue
            m = PhotonMode(1.0, k)
            kp = _khat_prime(m, V06)
            assert math.atan2(kp[1], kp[0]) == pytest.approx(
                math.atan2(k[1], k[0]), abs=1e-15
            )

    def test_matches_scalar_formula(self):
        rng = np.random.default_rng(6)
        for v, m in zip(random_boosts(rng, 200), random_modes(rng, 200)):
            mu = float(m.khat @ v.vhat)
            mu_p = float(_khat_prime(m, v) @ v.vhat)
            assert mu_p == pytest.approx(float(aberrate_mu(mu, v)), abs=1e-13)

    def test_output_is_unit(self):
        rng = np.random.default_rng(7)
        for v, m in zip(random_boosts(rng, 200), random_modes(rng, 200)):
            assert np.linalg.norm(_khat_prime(m, v)) == pytest.approx(1.0, abs=1e-13)

    def test_near_collinear_matches_wavevector_boost(self):
        # the transverse part within 1e-13 of the axis is real, not noise
        for v in (V06, make_boost([0.0, 0.0, -0.999999])):
            for sign in (1.0, -1.0):
                for eps in (1e-16, 1e-15, 1e-14, 1e-13):
                    k = direction_with_cosine(sign * (1.0 - eps), v, 0.7)
                    m = PhotonMode(1.0, k)
                    kvec = _wavevector_boost(m, v)
                    want = kvec / np.linalg.norm(kvec)
                    assert np.max(np.abs(_khat_prime(m, v) - want)) <= 1e-14


class TestBoostMode:
    def test_transverse_example(self):
        r = boost_mode(PhotonMode(1.0, [1.0, 0.0, 0.0]), V06)
        assert r.mode_prime.omega == pytest.approx(1.25, rel=1e-14)
        assert float(r.mode_prime.khat @ V06.vhat) == pytest.approx(-0.6, abs=1e-15)
        assert r.jac_freq == pytest.approx(0.8, rel=1e-14)
        assert r.jac_solid_angle == pytest.approx(1.5625, rel=1e-14)

    def test_forward_example(self):
        r = boost_mode(PhotonMode(1.0, [0.0, 0.0, 1.0]), V06)
        assert r.mode_prime.omega == pytest.approx(0.5, rel=1e-14)
        assert r.jac_freq == pytest.approx(2.0, rel=1e-14)
        assert r.jac_solid_angle == pytest.approx(0.25, rel=1e-14)

    def test_identity_at_rest_returns_same_mode(self):
        m = PhotonMode(1.3, [0.0, 1.0, 0.0])
        r = boost_mode(m, make_boost([0, 0, 0]))
        assert r.mode_prime is m
        assert r.jac_freq == 1.0
        assert r.jac_solid_angle == 1.0

    def test_jacobians_multiply_consistently(self):
        # jac_freq * sqrt(1/jac_solid_angle) relation: jac_solid = 1/jac_freq^2
        rng = np.random.default_rng(8)
        for v, m in zip(random_boosts(rng, 100), random_modes(rng, 100)):
            r = boost_mode(m, v)
            assert r.jac_solid_angle == pytest.approx(1.0 / r.jac_freq**2, rel=1e-14)

    def test_lightcone_preserved(self):
        # compare against the raw wavevector transform, an independent route
        rng = np.random.default_rng(9)
        for v, m in zip(random_boosts(rng, 300), random_modes(rng, 300)):
            r = boost_mode(m, v)
            kvec = _wavevector_boost(m, v)
            assert float(np.linalg.norm(kvec)) == pytest.approx(
                r.mode_prime.omega, rel=1e-12
            )
            assert np.allclose(kvec / np.linalg.norm(kvec), r.mode_prime.khat, atol=1e-12)


class TestRoundTrip:
    def test_explicit_inverse_example(self):
        r = boost_mode(PhotonMode(1.0, [1.0, 0.0, 0.0]), V06)
        back = boost_mode(r.mode_prime, V06.reversed()).mode_prime
        assert back.omega == pytest.approx(1.0, rel=1e-14)
        assert np.allclose(back.khat, [1.0, 0.0, 0.0], atol=1e-14)

    def test_sweep(self):
        rng = np.random.default_rng(10)
        worst = 0.0
        for v, m in zip(random_boosts(rng, 1000), random_modes(rng, 1000)):
            back = boost_mode(boost_mode(m, v).mode_prime, v.reversed()).mode_prime
            worst = max(
                worst,
                abs(back.omega - m.omega) / m.omega,
                float(np.max(np.abs(back.khat - m.khat))),
            )
        assert worst <= 1e-12

    @given(
        st.floats(1e-3, 1e3),
        st.floats(-1.0, 1.0),
        st.floats(0.0, 2 * math.pi),
        speeds(0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, omega, mu, azimuth, beta):
        v = make_boost([0.0, 0.0, beta])
        m = PhotonMode(omega, direction_with_cosine(mu, v, azimuth))
        back = boost_mode(boost_mode(m, v).mode_prime, v.reversed()).mode_prime
        assert back.omega == pytest.approx(omega, rel=1e-12)
        assert np.allclose(back.khat, m.khat, atol=1e-12)

    def test_vectorized_matches_object_path(self):
        rng = np.random.default_rng(12)
        v = make_boost([0.0, 0.0, 0.77])
        omega = np.exp(rng.uniform(-2, 2, 500))
        mu = rng.uniform(-1, 1, 500)
        om_p, mu_p, jf, js = boost_mu(omega, mu, v)
        for i in range(0, 500, 25):
            m = PhotonMode(omega[i], direction_with_cosine(mu[i], v))
            r = boost_mode(m, v)
            assert om_p[i] == pytest.approx(r.mode_prime.omega, rel=1e-13)
            assert mu_p[i] == pytest.approx(float(r.mode_prime.khat @ v.vhat), abs=1e-13)
            assert jf[i] == pytest.approx(r.jac_freq, rel=1e-13)
            assert js[i] == pytest.approx(r.jac_solid_angle, rel=1e-13)


class TestJacobians:
    def test_solid_angle_by_central_difference(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for v, m in zip(random_boosts(rng, 300, 0.95), random_modes(rng, 300)):
            mu = float(m.khat @ v.vhat)
            h = 3e-5 * (1.0 - v.beta_mag * mu)
            if abs(mu) + h >= 1.0:
                continue
            num = float(aberrate_mu(mu + h, v) - aberrate_mu(mu - h, v)) / (2.0 * h)
            r = boost_mode(m, v)
            worst = max(worst, abs(r.jac_solid_angle - 1.0 / num) * num)
        assert worst <= 1e-8

    def test_freq_by_central_difference(self):
        # omega(omega') is linear at fixed direction, so the difference
        # quotient across any step must match the analytic Jacobian
        rng = np.random.default_rng(14)
        for v, m in zip(random_boosts(rng, 200, 0.95), random_modes(rng, 200)):
            r = boost_mode(m, v)
            om_p = r.mode_prime.omega
            mu_p = float(r.mode_prime.khat @ v.vhat)
            h = 1e-3 * om_p if om_p > 0 else 1e-3
            lo = v.gamma * (1.0 + v.beta_mag * mu_p) * (om_p - h)
            hi = v.gamma * (1.0 + v.beta_mag * mu_p) * (om_p + h)
            assert (hi - lo) / (2.0 * h) == pytest.approx(r.jac_freq, rel=1e-10)

    @pytest.mark.parametrize("beta", [0.9999985, 1.0 - 1e-9])
    def test_backward_jacobians_match_mpmath(self, beta):
        # 1 -+ |beta| mu cancels near mu = +-1 at high beta, backward and
        # forward; boost_mu must stay at rounding level against 60-digit
        # 1 / D, D^2 and mu' at every cosine in [-1, 1]
        v = make_boost([0.0, 0.0, beta])
        extra = [0.999999, 0.9999, 0.9996, 0.95, 0.7]
        mu = np.concatenate((np.linspace(-1.0, 1.0, 201), extra, np.negative(extra)))
        _, mu_p, jac_freq, jac_solid_angle = boost_mu(1.0, mu, v)
        with mpmath.workdps(60):
            b = mpmath.mpf(v.beta_mag)
            g = 1 / mpmath.sqrt(1 - b * b)
            for i, m in enumerate(mu):
                d = g * (1 - b * mpmath.mpf(float(m)))
                assert float(abs(jac_freq[i] * d - 1)) <= 2e-15, m
                assert float(abs(jac_solid_angle[i] / d**2 - 1)) <= 2e-15, m
                assert float(abs(mu_p[i] - (float(m) - b) * g / d)) <= 2e-15, m

    def test_doppler_reciprocity(self):
        rng = np.random.default_rng(15)
        for v, m in zip(random_boosts(rng, 200), random_modes(rng, 200)):
            mu = float(m.khat @ v.vhat)
            mu_p = float(aberrate_mu(mu, v))
            assert float(doppler_factor(mu, v) * inverse_doppler_factor(mu_p, v)) == (
                pytest.approx(1.0, rel=1e-13)
            )


def _vector_field_boost(E, B, v):
    """The field boost written out as vectors, row by row: the reference for the matrix.

        E' = (vhat.E) vhat + gamma [E - (vhat.E) vhat + beta x B]
        B' = (vhat.B) vhat + gamma [B - (vhat.B) vhat - beta x E]
    """
    vh, g, beta = v.vhat, v.gamma, v.beta_mag * v.vhat
    E_par = (E @ vh)[..., None] * vh
    B_par = (B @ vh)[..., None] * vh
    E_p = E_par + g * (E - E_par + np.cross(beta, B))
    B_p = B_par + g * (B - B_par - np.cross(beta, E))
    return E_p, B_p


def _matrix_boost(E, B, v):
    """(E', B') = L (E, B) with L = _field_boost_matrix(v), row by row for stacked (n, 3) pairs."""
    eb = np.concatenate((E, B), axis=-1) @ _field_boost_matrix(v).T
    return eb[..., :3], eb[..., 3:]


class TestFieldBoost:
    def test_matrix_matches_the_vector_formula(self):
        # random signed speeds up to 1 - 1e-9, gamma up to 2.2e4
        rng = np.random.default_rng(19)
        E, B = rng.normal(size=(64, 3)), rng.normal(size=(64, 3))
        scale = np.linalg.norm(E, axis=1) + np.linalg.norm(B, axis=1)
        mags = 1.0 - 10.0 ** rng.uniform(-9.0, 0.0, 40)
        for b in mags * rng.choice((-1.0, 1.0), 40):
            v = make_boost([0.0, 0.0, b])
            Ep, Bp = _matrix_boost(E, B, v)
            E_ref, B_ref = _vector_field_boost(E, B, v)
            bound = 1e-15 * v.gamma * scale
            assert np.all(np.max(np.abs(Ep - E_ref), axis=1) <= bound)
            assert np.all(np.max(np.abs(Bp - B_ref), axis=1) <= bound)

    def test_transverse_example(self):
        Ep, Bp = _matrix_boost(np.array([0.0, 1.0, 0.0]), np.zeros(3), V06)
        assert np.allclose(Ep, [0.0, 1.25, 0.0], atol=1e-15)
        assert np.allclose(Bp, [0.75, 0.0, 0.0], atol=1e-15)

    def test_longitudinal_unchanged(self):
        E, B = np.array([0.0, 0.0, 3.0]), np.array([0.0, 0.0, -2.0])
        Ep, Bp = _matrix_boost(E, B, V06)
        assert np.allclose(Ep, E, atol=1e-15)
        assert np.allclose(Bp, B, atol=1e-15)

    def test_identity_at_rest(self):
        assert np.array_equal(_field_boost_matrix(make_boost([0, 0, 0])), np.eye(6))
        E, B = np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])
        Ep, Bp = _matrix_boost(E, B, make_boost([0, 0, 0]))
        assert np.array_equal(Ep, E) and np.array_equal(Bp, B)

    def test_plane_wave_stays_null(self):
        # E, B, khat mutually orthogonal with |E| = |B|: boost must keep
        # both invariants at zero
        rng = np.random.default_rng(16)
        for v in random_boosts(rng, 100):
            khat = random_unit_vectors(rng, 1)[0]
            e1 = np.cross(khat, [1.0, 0.0, 0.0])
            if np.linalg.norm(e1) < 1e-6:
                e1 = np.cross(khat, [0.0, 1.0, 0.0])
            e1 /= np.linalg.norm(e1)
            b1 = np.cross(khat, e1)
            Ep, Bp = _matrix_boost(e1, b1, v)
            scale = float(Ep @ Ep + Bp @ Bp)
            assert abs(float(Ep @ Ep - Bp @ Bp)) <= 1e-12 * scale
            assert abs(float(Ep @ Bp)) <= 1e-12 * scale

    @given(
        st.lists(st.floats(-5, 5), min_size=6, max_size=6),
        speeds(0.98),
        st.sampled_from((-1.0, 1.0)),
    )
    @settings(max_examples=150, deadline=None)
    def test_invariants_property(self, comps, beta, sign):
        E, B = np.array(comps[:3]), np.array(comps[3:])
        scale = float(E @ E + B @ B)
        if scale < 1e-6:
            return
        v = make_boost([0.0, 0.0, sign * beta])
        Ep, Bp = _matrix_boost(E, B, v)
        assert float(Ep @ Ep - Bp @ Bp) == pytest.approx(
            float(E @ E - B @ B), abs=1e-10 * scale * v.gamma**2
        )
        assert float(Ep @ Bp) == pytest.approx(float(E @ B), abs=1e-10 * scale * v.gamma**2)

    def test_boost_then_reverse(self):
        rng = np.random.default_rng(17)
        for v in random_boosts(rng, 100):
            E, B = rng.normal(size=3), rng.normal(size=3)
            back_E, back_B = _matrix_boost(*_matrix_boost(E, B, v), v.reversed())
            assert np.allclose(back_E, E, atol=1e-12 * v.gamma**2)
            assert np.allclose(back_B, B, atol=1e-12 * v.gamma**2)

    def test_stacked_rows_match_single_pairs(self):
        rng = np.random.default_rng(18)
        E, B = rng.normal(size=(64, 3)), rng.normal(size=(64, 3))
        for v in random_boosts(rng, 20):
            Ep, Bp = _matrix_boost(E, B, v)
            assert Ep.shape == Bp.shape == (64, 3)
            for i in range(len(E)):
                one_E, one_B = _matrix_boost(E[i], B[i], v)
                bound = 1e-15 * v.gamma * (np.linalg.norm(E[i]) + np.linalg.norm(B[i]))
                assert np.max(np.abs(Ep[i] - one_E)) <= bound
                assert np.max(np.abs(Bp[i] - one_B)) <= bound

    def test_stacked_identity_at_rest(self):
        E, B = np.ones((4, 3)), np.zeros((4, 3))
        Ep, Bp = _matrix_boost(E, B, make_boost([0, 0, 0]))
        assert np.array_equal(Ep, E) and np.array_equal(Bp, B)


class TestDirectionWithCosine:
    def test_dot_matches(self):
        for mu in (-1.0, -0.3, 0.0, 0.77, 1.0):
            k = direction_with_cosine(mu, V06)
            assert float(k @ V06.vhat) == pytest.approx(mu, abs=1e-15)
            assert np.linalg.norm(k) == pytest.approx(1.0, abs=1e-15)

    def test_azimuth_spins_about_axis(self):
        k0 = direction_with_cosine(0.2, V06, 0.0)
        k1 = direction_with_cosine(0.2, V06, math.pi / 2)
        assert abs(float(k0 @ k1) - 0.2**2) <= 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            direction_with_cosine(1.5, V06)
        for azimuth in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="azimuth"):
                direction_with_cosine(0.2, V06, azimuth)

    @pytest.mark.parametrize("beta", [0.7, -0.7])
    def test_spins_from_y_about_the_signed_axis(self, beta):
        # (-s sin phi, s cos phi, mu) along +z, (-s sin phi, -s cos phi, -mu) along -z
        v, s = make_boost([0.0, 0.0, beta]), math.sqrt(1.0 - 0.4**2)
        c = math.copysign(1.0, beta)
        k = direction_with_cosine(-0.4, v, 1.2)
        assert np.allclose(k, [-s * math.sin(1.2), c * s * math.cos(1.2), -c * 0.4], atol=1e-15)
        assert float(k @ v.vhat) == pytest.approx(-0.4, abs=1e-15)
