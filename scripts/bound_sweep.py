"""Hold the stated W'/W bounds to random boosts: max(error / bound) per function, as JSON.

    python3 scripts/bound_sweep.py --seed 0 --count 10000 [--out sweep.json]

Draws --count boosts: |beta| uniform on [0, 1) or 1 - 10^U(-9, 0), each
half the time, along a uniformly random axis; natural units with T
log-uniform on [1e-3, 1e3] or SI with T on [1, 1e4] K, each half the time.
Each route's W'/W is compared with gamma^2 (1 + beta^2 / 3) at 50 digits
(mpmath, from the library's |beta|), and each ratio below is error over
bound:

  energy_density_moving_spectral     relative error of W'/W over 2e-15
  energy_density_moving_correlation  relative error of W'/W over 8e-16
  integrate_semi_infinite            the spectral W's error over the
                                     integral's reported estimate
  integrate_semi_infinite.estimate   that estimate over its tolerance

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
    UnitSystem,
    energy_density_moving_correlation,
    energy_density_moving_spectral,
    make_boost,
)

# the relative bounds the two routes' docstrings state
SPECTRAL_BOUND = 2e-15
CORRELATION_BOUND = 8e-16
UNITS = {"natural": (UnitSystem(), -3.0, 3.0), "si": (UnitSystem.si(), 0.0, 4.0)}


def draw(rng: np.random.Generator) -> tuple:
    """(beta vector, units name, T) of one random boost."""
    beta = rng.random() if rng.random() < 0.5 else 1.0 - 10.0 ** rng.uniform(-9.0, 0.0)
    axis = rng.normal(size=3)
    name = "natural" if rng.random() < 0.5 else "si"
    _, lo, hi = UNITS[name]
    return beta * axis / np.linalg.norm(axis), name, 10.0 ** rng.uniform(lo, hi)


def ratio(error, bound) -> float:
    """error / bound, 0 for no error and inf for an error over a bound of 0."""
    if error == 0:
        return 0.0
    return float(error / bound) if bound > 0 else math.inf


def sweep(seed: int, count: int) -> dict:
    rng = np.random.default_rng(seed)
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
    return {"seed": seed, "count": count,
            "bounds": {"energy_density_moving_spectral": SPECTRAL_BOUND,
                       "energy_density_moving_correlation": CORRELATION_BOUND,
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
