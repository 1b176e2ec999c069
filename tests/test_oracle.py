"""The library against a 40-digit mpmath oracle, with every warning an error.

temperature_multipoles: a_0 .. a_16 of T_eff(mu') = T / (gamma (1 + beta mu'))
are a_l = (-1)^l (2l + 1) T Q_l(1/beta) / (gamma beta), with Q_l the Legendre
function of the second kind (mpmath.legenq, type 3).  Each coefficient is
held to a relative bound that depends on beta only:

    beta       1e-12   0.3     0.9     0.99    0.999   0.999999  1 - 1e-9
    bound      1e-15   1e-15   1e-15   2e-15   1e-14   1e-13     1e-11

The backward recurrence damps each step's rounding error by rho^-2 with
ln rho = acosh(1/beta), which tends to 0 as beta -> 1, so the error of the
l >= 1 coefficients grows there (measured worst 8.5e-16 up to 0.99, then
4.0e-15, 4.3e-14 and 5.4e-12).  The oracle takes the library's own
|beta|, so only the evaluation is tested, not the input's rounding.
"""

import mpmath
import pytest

from relplanck import make_boost, temperature_multipoles

pytestmark = pytest.mark.filterwarnings("error")

L_MAX = 16
MULTIPOLE_BOUNDS = {
    1e-12: 1e-15,
    0.3: 1e-15,
    0.9: 1e-15,
    0.99: 2e-15,
    0.999: 1e-14,
    0.999999: 1e-13,
    1.0 - 1e-9: 1e-11,
}


def _oracle_over_t(beta: float) -> list:
    """a_l / T for l = 0 .. L_MAX at 40 digits."""
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        gamma_beta = b / mpmath.sqrt(1 - b * b)
        return [
            (-1) ** l * (2 * l + 1) * mpmath.legenq(l, 0, 1 / b, type=3).real / gamma_beta
            for l in range(L_MAX + 1)
        ]


@pytest.mark.parametrize("beta", MULTIPOLE_BOUNDS, ids=repr)
def test_multipoles_match_mpmath(beta):
    v = make_boost([0.0, 0.0, beta])
    want = _oracle_over_t(v.beta_mag)
    for t in (1e-3, 2.725, 1e3):
        got = temperature_multipoles(v, t, L_MAX).a
        for l in range(L_MAX + 1):
            exact = t * want[l]
            assert abs(got[l] - exact) <= MULTIPOLE_BOUNDS[beta] * abs(exact), (t, l)
