"""Hold the stated error bounds to random boosts: max(error / bound) per function, as JSON.

    python3 scripts/bound_sweep.py --seed 0 --count 10000 [--out sweep.json]

Draws --count boosts: |beta| uniform on [0, 1) or 1 - 10^U(-9, 0), each
half the time, along a uniformly random axis; natural units with T
log-uniform on [1e-3, 1e3] or SI with T on [1, 1e4] K, each half the time.
Each route's W'/W is compared with gamma^2 (1 + beta^2 / 3) at 50 digits
(mpmath, from the library's |beta|).  At each boost a second stream,
seeded by (seed, 1), draws a cosine mu' uniform on [-1, 1] and
x = hbar omega' / k_B T, 10^U(-300, 0) or U(0, 708) each half the time,
for the pull-back density.  Each ratio below is error over bound:

  energy_density_moving_spectral     relative error of W'/W over 2e-15
  energy_density_moving_correlation  relative error of W'/W over 8e-16
  integrate_semi_infinite            the spectral W's error over the
                                     integral's reported estimate
  integrate_semi_infinite.estimate   that estimate over its tolerance
  rho_moving_pullback_mu             relative error of the thermal part
                                     over 4 eps (1 + z), z = D x, where
                                     it is a normal double and z < 708
  temperature_multipoles             largest relative error of a_0 ..
                                     a_16 against mpmath.legenq over the
                                     bound of its branch and |beta| band
                                     (tests/test_oracle.py states the same
                                     bounds; edit the two together)

A ratio above 1 is a bound that does not hold.  The JSON gives each
function's largest ratio and the point where it peaked; the exit status is
1 if any ratio exceeds 1.
"""

import argparse
import json
import math
import sys

import mpmath
import numpy as np

from relplanck import (
    Component,
    UnitSystem,
    energy_density_moving_correlation,
    energy_density_moving_spectral,
    make_boost,
    rho_moving_pullback_mu,
    spectral_prefactor,
    temperature_multipoles,
)

# the relative bounds the functions' docstrings state: the two routes', the
# pull-back's in eps (1 + z), and the multipoles': the backward branch's by
# |beta| band, each up to and including its upper edge, and the forward
# branch's, where 2 l_max acosh(1/beta) <= 2
SPECTRAL_BOUND = 2e-15
CORRELATION_BOUND = 8e-16
PULLBACK_BOUND = 4 * 2.0**-52
MULTIPOLE_BACKWARD_BOUNDS = ((0.9, 4e-15), (0.99, 1e-14), (1.0, 3e-14))
MULTIPOLE_FORWARD_BOUND = 4e-15
L_MAX = 16
TINY, HUGE = np.finfo(float).tiny, np.finfo(float).max
UNITS = {"natural": (UnitSystem(), -3.0, 3.0), "si": (UnitSystem.si(), 0.0, 4.0)}


def draw(rng: np.random.Generator) -> tuple:
    """(beta vector, units name, T) of one random boost."""
    beta = rng.random() if rng.random() < 0.5 else 1.0 - 10.0 ** rng.uniform(-9.0, 0.0)
    axis = rng.normal(size=3)
    name = "natural" if rng.random() < 0.5 else "si"
    _, lo, hi = UNITS[name]
    return beta * axis / np.linalg.norm(axis), name, 10.0 ** rng.uniform(lo, hi)


def multipole_bound(beta: float) -> float:
    if 2 * L_MAX * math.acosh(1.0 / beta) <= 2.0:  # the forward branch
        return MULTIPOLE_FORWARD_BOUND
    return next(bound for edge, bound in MULTIPOLE_BACKWARD_BOUNDS if beta <= edge)


def ratio(error, bound) -> float:
    """error / bound, 0 for no error and inf for an error over a bound of 0."""
    if error == 0:
        return 0.0
    return float(error / bound) if bound > 0 else math.inf


def sweep(seed: int, count: int) -> dict:
    rng = np.random.default_rng(seed)
    # a separate stream, so that each seed draws the same boosts as the W'/W sweep alone
    aux = np.random.default_rng([seed, 1])
    worst = {}

    def record(name, value, point):
        if name not in worst or value > worst[name]["max_ratio"]:
            worst[name] = {"max_ratio": value, "at": point}

    with mpmath.workdps(50):
        for _ in range(count):
            beta, name, t = draw(rng)
            units = UNITS[name][0]
            v = make_boost(beta)
            b = mpmath.mpf(v.beta_mag)
            want = (1 + b * b / 3) / (1 - b * b)
            point = {"beta": beta.tolist(), "units": name, "T": t}
            spec = energy_density_moving_spectral(t, v, units)
            corr = energy_density_moving_correlation(t, v, units)
            spec_err = abs(mpmath.mpf(spec.ratio) - want)
            record("energy_density_moving_spectral",
                   ratio(spec_err / want, SPECTRAL_BOUND), point)
            record("energy_density_moving_correlation",
                   ratio(abs(mpmath.mpf(corr.ratio) - want) / want, CORRELATION_BOUND), point)
            record("integrate_semi_infinite",
                   ratio(spec_err * spec.W_rest, spec.error_estimate), point)
            record("integrate_semi_infinite.estimate",
                   ratio(spec.error_estimate, spec.tolerance), point)

            mu = aux.uniform(-1.0, 1.0)
            x = 10.0 ** aux.uniform(-300.0, 0.0) if aux.random() < 0.5 else aux.uniform(0.0, 708.0)
            om = x * units.k_B * t / units.hbar
            got = rho_moving_pullback_mu(om, mu, v, t, Component.THERMAL, units)
            om_mp = mpmath.mpf(om)
            # z = D hbar omega' / k_B T with D = gamma (1 + |beta| mu')
            z = (1 + b * mu) * om_mp * units.hbar / (mpmath.sqrt(1 - b * b) * units.k_B * t)
            rho = spectral_prefactor(units) * om_mp**3 * 2 / mpmath.expm1(z)
            if TINY <= rho <= HUGE and z < 708:
                record("rho_moving_pullback_mu",
                       ratio(abs(got - rho) / rho, PULLBACK_BOUND * (1 + z)),
                       {**point, "mu_prime": mu, "x": x})

            if b > 0:
                # a_l = (-1)^l (2l + 1) T Q_l(1/beta) / (gamma beta)
                scale = t * mpmath.sqrt(1 - b * b) / b
                got = temperature_multipoles(v, t, L_MAX).a
                err = max(abs(g / ((-1) ** l * (2 * l + 1) * scale
                                   * mpmath.legenq(l, 0, 1 / b, type=3).real) - 1)
                          for l, g in enumerate(got))
                record("temperature_multipoles", ratio(err, multipole_bound(v.beta_mag)), point)
    return {"seed": seed, "count": count,
            "bounds": {"energy_density_moving_spectral": SPECTRAL_BOUND,
                       "energy_density_moving_correlation": CORRELATION_BOUND,
                       "integrate_semi_infinite": "reported error estimate",
                       "integrate_semi_infinite.estimate": "tolerance",
                       "rho_moving_pullback_mu": "4 eps (1 + z)",
                       "temperature_multipoles": {"backward": MULTIPOLE_BACKWARD_BOUNDS,
                                                  "forward": MULTIPOLE_FORWARD_BOUND}},
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
