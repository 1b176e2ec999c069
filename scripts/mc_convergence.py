"""Monte Carlo identity check at increasing sample size, or over many seeds.

Shows the statistical machinery converging: chi-square per degree of
freedom settling near 1, the number of usable bins growing, and the
standard error of the W'/W estimate shrinking like 1/sqrt(N).  With
--seeds it runs each seed once at --n-max instead and prints the share of
seeds whose mc-identity check fails: a gate's false-alarm rate, read over
many seeds rather than seed by seed.  The runs use every CPU in the
process's affinity set; run under taskset to use fewer.

    python3 scripts/mc_convergence.py
    python3 scripts/mc_convergence.py --beta 0.9 --omega-prime-max 65 --seed 7
    python3 scripts/mc_convergence.py --beta 0.99 --seeds 1-50
"""

import argparse
import math
import time

from bench_pairs import seed_list
from relplanck import McConfig, make_boost, run_identity_check


def seed_share(args, v, omega_max):
    """One run per seed at --n-max; prints each verdict and the failed share."""
    failed = 0
    for seed in args.seeds:
        cfg = McConfig(n_samples=args.n_max, seed=seed, omega_prime_max=omega_max)
        check = run_identity_check(args.temperature, v, cfg).check
        failed += not check.passed
        print(f"{seed:>9d}  {'PASS' if check.passed else 'FAIL'}  {check.detail}")
    print(f"\n{failed} of {len(args.seeds)} seeds fail mc-identity at N = {args.n_max}: "
          f"share {failed / len(args.seeds):.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--temperature", type=float, default=1.0)
    ap.add_argument("--beta", type=float, default=0.6)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seeds", type=seed_list, default=None, metavar="LO-HI",
                    help="run each of these seeds at --n-max and print the failed share")
    ap.add_argument("--omega-prime-max", type=float, default=None,
                    help="default: 15 gamma (1 + beta) T, as mc-verify")
    ap.add_argument("--n-max", type=int, default=1_000_000)
    args = ap.parse_args()

    v = make_boost([0.0, 0.0, args.beta])
    omega_max = args.omega_prime_max
    if omega_max is None:
        omega_max = 15.0 * v.gamma * (1.0 + v.beta_mag) * args.temperature
    print(f"beta = {args.beta}, T = {args.temperature}, omega'_max = {omega_max:.6g}, "
          + (f"seeds {args.seeds[0]}..{args.seeds[-1]}" if args.seeds else f"seed = {args.seed}"))
    if args.seeds:
        seed_share(args, v, omega_max)
        return

    sizes = []
    n = 10_000
    while n < args.n_max:
        sizes.append(n)
        n *= 10
    sizes.append(args.n_max)

    print(f"{'N':>9s}  {'dof':>4s}  {'chi2/dof':>9s}  {'max|z|':>7s}  "
          f"{'ratio est':>11s}  {'std err':>9s}  {'pull':>6s}  {'sec':>6s}")
    for n in sizes:
        cfg = McConfig(n_samples=n, seed=args.seed, omega_prime_max=omega_max)
        t0 = time.perf_counter()
        rep = run_identity_check(args.temperature, v, cfg)
        dt = time.perf_counter() - t0
        if rep.ratio_std_error > 0.0:
            pull = (rep.ratio_estimate - rep.ratio_expected) / rep.ratio_std_error
        else:
            pull = math.nan
        chi2 = f"{rep.chi2_per_dof:9.3f}" if rep.dof else "      n/a"
        print(f"{n:>9d}  {rep.dof:>4d}  {chi2}  {rep.max_abs_z:7.2f}  "
              f"{rep.ratio_estimate:11.6f}  {rep.ratio_std_error:9.2e}  "
              f"{pull:6.2f}  {dt:6.2f}")
        for w in rep.warnings:
            print(f"          warning: {w}")
    print(f"\nexpected ratio gamma^2 (1 + beta^2/3) = {rep.ratio_expected:.9f}")


if __name__ == "__main__":
    main()
