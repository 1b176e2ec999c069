"""Scan the thermal energy-density ratio W'/W over boost speed.

Runs both computation routes (spectral quadrature of the boosted density
and the Lorentz boost of the rest-frame field correlation) against the
closed form gamma^2 (1 + beta^2/3) and prints the residual of each, so any
drift in either route shows up immediately.

    python3 scripts/energy_ratio_scan.py
    python3 scripts/energy_ratio_scan.py --beta-max 0.995 --points 20 --csv
"""

import argparse

from relplanck import (
    energy_density_moving_correlation,
    energy_density_moving_spectral,
    expected_energy_ratio,
    make_boost,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--temperature", type=float, default=1.0)
    ap.add_argument("--beta-max", type=float, default=0.95)
    ap.add_argument("--points", type=int, default=11)
    ap.add_argument("--csv", action="store_true",
                    help="machine-readable output instead of the aligned table")
    args = ap.parse_args()

    betas = [args.beta_max * i / (args.points - 1) for i in range(args.points)]
    if args.csv:
        print("beta,expected,spectral,correlation,spectral_residual,correlation_residual")
    else:
        print(f"{'beta':>6s}  {'expected':>14s}  {'spectral dev':>13s}  "
              f"{'correlation dev':>15s}")

    worst = 0.0
    for beta in betas:
        v = make_boost([0.0, 0.0, beta])
        want = expected_energy_ratio(v)
        spect = energy_density_moving_spectral(args.temperature, v)
        corr = energy_density_moving_correlation(args.temperature, v)
        dev_s = spect.ratio / want - 1.0
        dev_c = corr.ratio / want - 1.0
        worst = max(worst, abs(dev_s), abs(dev_c))
        if args.csv:
            print(f"{beta:.17g},{want:.17g},{spect.ratio:.17g},{corr.ratio:.17g},"
                  f"{dev_s:.3e},{dev_c:.3e}")
        else:
            print(f"{beta:6.3f}  {want:14.9f}  {dev_s:13.2e}  {dev_c:15.2e}")

    if not args.csv:
        print(f"\nworst relative deviation from the closed form: {worst:.3e}")


if __name__ == "__main__":
    main()
