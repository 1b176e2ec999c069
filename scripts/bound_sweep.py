"""Hold the stated error bounds to random boosts: max(error / bound) per function, as JSON.

    python3 scripts/bound_sweep.py --seed 0 --count 10000 [--out sweep.json]

Draws --count boosts: |beta| uniform on [0, 1), log-uniform on the
domain's [2^-1022, 1 - 1e-9], or 1 - 10^U(-9, 0), each a third of the
time, along a uniformly random axis; natural units or SI, each half the
time, with T log-uniform on the domain's [1e-3, 1e5] in either.  Each
route's W'/W is compared with gamma^2 (1 + beta^2 / 3) at 50 digits
(mpmath, from the library's |beta|).  At each boost a second stream,
seeded by (seed, 1), draws a cosine mu' uniform on [-1, 1] and
x = hbar omega' / k_B T, 10^U(-300, 0) or U(0, 800) each half the time,
for the four thermal densities, each against its 50-digit value
(u_moving's with |log10 beta| + |log10 x| more digits, which its logarithm
of a ratio near 1 cancels).  The multipoles are held to
tests/test_oracle.py's 40-digit recurrence, which that test holds to
mpmath.legenq.  A third stream, seeded by (seed, 2), draws a cosine mu,
uniform on [-1, 1] or +-(1 - 10^U(-16, 0)) each half the time, and a
frequency omega = 10^U(-300, 30) in the unit system's own unit: boost_mu
takes (omega, mu) as rest-frame values, effective_temperature_mu takes mu
as mu'.  Each ratio below is error over the function's bound in
relplanck.core._ERROR_BOUNDS, the table that tests/test_oracle.py reads:

  energy_density_moving_spectral     relative error of W'/W
  energy_density_moving_correlation  relative error of W'/W
  integrate_semi_infinite            the spectral W's error over the
                                     integral's reported estimate
  integrate_semi_infinite.estimate   that estimate over its tolerance
  rho_rest, rho_moving_mu,           relative error of the thermal part
  rho_moving_pullback_mu, u_moving   over its bound times 1 + z, where it
                                     is a normal double: z = x at rest,
                                     D x with D = gamma (1 + |beta| mu'),
                                     and the hottest direction's
                                     gamma (1 - |beta|) x for u_moving
  temperature_multipoles             largest relative error of a_0 ..
                                     a_16 against the recurrence, where
                                     a_l is a normal double, over the
                                     bound of the branch that ran and the
                                     |beta| band
  effective_temperature_mu           relative error of T_eff
  boost_mu.omega_prime, .jac_freq,   relative error of omega', 1 / D and
  .jac_solid_angle                   D^2, where omega' is normal
  boost_mu.mu_prime                  absolute error of mu'

A ratio above 1 is a bound that does not hold.  The JSON gives each
function's largest ratio, the point where it peaked and the number of
points over 1; the exit status is 1 if any ratio exceeds 1.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import mpmath
import numpy as np

from relplanck import (
    Component,
    UnitSystem,
    boost_mu,
    effective_temperature_mu,
    energy_density_moving_correlation,
    energy_density_moving_spectral,
    make_boost,
    rho_moving_mu,
    rho_moving_pullback_mu,
    rho_rest,
    spectral_prefactor,
    temperature_multipoles,
    u_moving,
)
from relplanck.core import _BETA_MAX, _BETA_MIN, _ERROR_BOUNDS as BOUNDS, _T_MAX, _T_MIN

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_oracle import _recurrence_over_t, _u_moving_over_cube  # noqa: E402

L_MAX = 16
TINY, HUGE = np.finfo(float).tiny, np.finfo(float).max
UNITS = {"natural": UnitSystem(), "si": UnitSystem.si()}


def draw(rng: np.random.Generator) -> tuple:
    """(beta vector, units name, T) of one random boost."""
    kind = rng.integers(3)
    if kind == 0:
        beta = rng.random()
    elif kind == 1:  # every exponent of the domain
        beta = 2.0 ** rng.uniform(math.log2(_BETA_MIN), math.log2(_BETA_MAX))
    else:
        beta = 1.0 - 10.0 ** rng.uniform(-9.0, 0.0)
    axis = rng.normal(size=3)
    name = "natural" if rng.random() < 0.5 else "si"
    t = 10.0 ** rng.uniform(math.log10(_T_MIN), math.log10(_T_MAX))
    return beta * axis / np.linalg.norm(axis), name, t


def ratio(error, bound) -> float:
    """error / bound, 0 for no error and inf for an error over a bound of 0."""
    if error == 0:
        return 0.0
    return float(error / bound) if bound > 0 else math.inf


def sweep(seed: int, count: int) -> dict:
    rng = np.random.default_rng(seed)
    # separate streams, so that each seed's boosts and density points stay
    # the same whatever is drawn after them
    aux = np.random.default_rng([seed, 1])
    kin = np.random.default_rng([seed, 2])
    worst = {}

    def record(name, value, point):
        entry = worst.setdefault(name, {"max_ratio": -math.inf, "at": None, "over": 0})
        entry["over"] += value > 1.0
        if value > entry["max_ratio"]:
            entry.update(max_ratio=value, at=point)

    with mpmath.workdps(50):
        for _ in range(count):
            beta, name, t = draw(rng)
            units = UNITS[name]
            v = make_boost(beta)
            b = mpmath.mpf(v.beta_mag)
            gamma = 1 / mpmath.sqrt(1 - b * b)
            want = (1 + b * b / 3) / (1 - b * b)
            point = {"beta": beta.tolist(), "units": name, "T": t}
            spec = energy_density_moving_spectral(t, v, units)
            corr = energy_density_moving_correlation(t, v, units)
            spec_err = abs(mpmath.mpf(spec.ratio) - want)
            record("energy_density_moving_spectral",
                   ratio(spec_err / want, BOUNDS["energy_density_moving_spectral"]), point)
            record("energy_density_moving_correlation",
                   ratio(abs(mpmath.mpf(corr.ratio) - want) / want,
                         BOUNDS["energy_density_moving_correlation"]), point)
            record("integrate_semi_infinite",
                   ratio(spec_err * spec.W_rest, spec.error_estimate), point)
            record("integrate_semi_infinite.estimate",
                   ratio(spec.error_estimate, spec.tolerance), point)

            mu = aux.uniform(-1.0, 1.0)
            x = 10.0 ** aux.uniform(-300.0, 0.0) if aux.random() < 0.5 else aux.uniform(0.0, 800.0)
            om = x * (units.k_B * t / units.hbar)  # x k_B alone is subnormal in SI
            om_mp = mpmath.mpf(om)
            x_mp = om_mp * units.hbar / (mpmath.mpf(units.k_B) * t)
            cube = spectral_prefactor(units) * om_mp**3
            d = gamma * (1 + b * mu)
            at = {**point, "mu_prime": mu, "x": x}
            lost = int(-math.log10(v.beta_mag) - min(math.log10(x), 0.0)) if b > 0 else 0
            with mpmath.workdps(50 + lost):
                u_want = cube * _u_moving_over_cube(x_mp, b, 1 / mpmath.sqrt(1 - b * b))
            for route, args, z, want in (
                    (rho_rest, (), x_mp, cube * 2 / mpmath.expm1(x_mp)),
                    (rho_moving_mu, (mu, v), d * x_mp, cube * 2 / mpmath.expm1(d * x_mp)),
                    (rho_moving_pullback_mu, (mu, v), d * x_mp, cube * 2 / mpmath.expm1(d * x_mp)),
                    (u_moving, (v,), gamma * (1 - b) * x_mp, u_want)):
                if TINY <= want <= HUGE:
                    got = route(om, *args, t, Component.THERMAL, units)
                    bound = BOUNDS[route.__name__]["times_1_plus_z"] * (1 + z)
                    record(route.__name__, ratio(abs(got - want) / want, bound), at)

            if b > 0:
                got = temperature_multipoles(v, t, L_MAX)
                # a_l is below T beta^l, subnormal past l = 313 / -log10(beta) at T 1e5
                l_normal = min(L_MAX, int(313.0 / -math.log10(v.beta_mag)))
                exact = [t * w for w in _recurrence_over_t(v.beta_mag, l_normal)]  # a_l
                err = max((abs(g / e - 1) for g, e in zip(got.a, exact) if TINY <= abs(e) <= HUGE),
                          default=0)
                # the band of the branch that ran
                bound = next(limit for edge, limit in BOUNDS["temperature_multipoles"][got.method]
                             if v.beta_mag <= edge)
                record("temperature_multipoles", ratio(err, bound), point)

            mu = kin.uniform(-1.0, 1.0) if kin.random() < 0.5 else (
                kin.choice([-1.0, 1.0]) * (1.0 - 10.0 ** kin.uniform(-16.0, 0.0)))
            om = 10.0 ** kin.uniform(-300.0, 30.0)
            at = {**point, "mu": mu, "omega": om}
            m = mpmath.mpf(mu)
            t_eff = t / (gamma * (1 + b * m))
            record("effective_temperature_mu",
                   ratio(abs(effective_temperature_mu(mu, v, t) - t_eff) / t_eff,
                         BOUNDS["effective_temperature_mu"]), at)
            bound = BOUNDS["boost_mu"]
            d = gamma * (1 - b * m)
            om_p, mu_p, jac_freq, d2 = map(float, boost_mu(om, mu, v))
            exact = {"omega_prime": mpmath.mpf(om) * d, "jac_freq": 1 / d, "jac_solid_angle": d * d}
            for key, got in (("omega_prime", om_p), ("jac_freq", jac_freq),
                             ("jac_solid_angle", d2)):
                if exact[key] >= TINY:
                    record(f"boost_mu.{key}",
                           ratio(abs(got - exact[key]) / exact[key], bound[key]), at)
            record("boost_mu.mu_prime", ratio(abs(mu_p - (m - b) / (1 - b * m)),
                                              bound["mu_prime_absolute"]), at)
    swept = ("energy_density_moving_spectral", "energy_density_moving_correlation", "rho_rest",
             "rho_moving_mu", "rho_moving_pullback_mu", "u_moving", "temperature_multipoles",
             "effective_temperature_mu", "boost_mu")
    return {"seed": seed, "count": count,
            "bounds": {**{name: BOUNDS[name] for name in swept},
                       "integrate_semi_infinite": "reported error estimate",
                       "integrate_semi_infinite.estimate": "tolerance"},
            "results": worst}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=10_000)
    ap.add_argument("--out", default=None, help="write the JSON here instead of stdout")
    args = ap.parse_args()
    if args.count < 1:
        ap.error("--count must be at least 1")
    report = sweep(args.seed, args.count)
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return int(any(r["max_ratio"] > 1.0 for r in report["results"].values()))


if __name__ == "__main__":
    sys.exit(main())
