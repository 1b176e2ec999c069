"""Command-line interface.

Subcommands mirror the library: `spectrum` evaluates spectral densities on
a frequency grid (per direction, or integrated over directions in the
moving frame when no cosine is given), `boost-mode` transforms a single
photon mode, `energy-density` compares the two moving-frame energy routes,
`anisotropy` expands the effective temperature in Legendre multipoles,
`mc-verify` runs the Monte Carlo identity check, and `selftest` runs the
built-in battery.

Results go to stdout, either as CSV (17 significant digits, LF endings) or
as one JSON envelope per run; progress and input echoes go to stderr, so
stdout stays machine-readable.  Exit codes: 0 success, 1 a numeric
verification failed, 2 bad usage.  All configuration is via flags; no
environment variables are read.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .core import NATURAL, Component, PhotonMode, UnitSystem, make_boost, temperature_value
from .kinematics import boost_mode, direction_with_cosine
from .montecarlo import McConfig, run_identity_check
from .radiometry import (
    QuadratureConvergenceError,
    energy_density_moving_correlation,
    energy_density_moving_spectral,
    expected_energy_ratio,
)
from .selfcheck import run_selfcheck
from .spectrum import (
    effective_temperature_mu,
    rho_moving_mu,
    rho_rest,
    temperature_multipoles,
    u_moving,
)

__all__ = ["main", "OutputEnvelope", "UsageError"]

_SCHEMA_VERSION = "1"

_COMPONENTS = {
    "total": Component.TOTAL,
    "thermal": Component.THERMAL,
    "zero-point": Component.ZERO_POINT,
}


class UsageError(Exception):
    """Bad flag values; mapped to exit code 2."""


@dataclasses.dataclass(frozen=True)
class OutputEnvelope:
    """The single JSON document emitted per run in JSON mode."""

    schema_version: str
    command: str
    inputs: dict
    results: dict
    warnings: list

    def to_json(self) -> str:
        # the fields as they are: asdict would deep-copy every nested list
        fields = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return json.dumps(fields, sort_keys=True, indent=2) + "\n"


def _g17(x) -> str:
    return format(float(x), ".17g")


def _emit_csv(header, rows):
    sys.stdout.write(",".join(header) + "\n")
    for row in rows:
        sys.stdout.write(",".join(row) + "\n")


def _emit_envelope(command: str, inputs: dict, results: dict, warnings: list):
    env = OutputEnvelope(_SCHEMA_VERSION, command, inputs, results, list(warnings))
    sys.stdout.write(env.to_json())


def _echo_inputs(inputs: dict):
    # keeps CSV stdout parseable while still recording the resolved inputs
    for key, value in inputs.items():
        sys.stderr.write(f"# {key}={value}\n")


def _add_format_flag(p: argparse.ArgumentParser, default: str):
    p.add_argument("--format", choices=["csv", "json"], default=default,
                   help=f"output format (default {default})")


def _add_units_flag(p: argparse.ArgumentParser):
    p.add_argument("--units", choices=["natural", "si"], default="natural",
                   help="natural (hbar=c=k_B=1) or SI constants")


def _add_boost_flags(p: argparse.ArgumentParser):
    group = p.add_mutually_exclusive_group()
    group.add_argument("--beta", type=float, default=None,
                       help="boost speed along +z, |beta| < 1")
    group.add_argument("--beta-vec", metavar="BX,BY,BZ", default=None,
                       help="boost velocity as three comma-separated components")


def _units_from(args) -> UnitSystem:
    return NATURAL if args.units == "natural" else UnitSystem.si()


def _boost_from(args):
    if args.beta_vec is not None:
        parts = args.beta_vec.split(",")
        if len(parts) != 3:
            raise UsageError(f"--beta-vec wants three components, got {args.beta_vec!r}")
        try:
            vec = [float(s) for s in parts]
        except ValueError:
            raise UsageError(f"--beta-vec components must be numbers, got {args.beta_vec!r}")
    elif args.beta is not None:
        vec = [0.0, 0.0, args.beta]
    else:
        vec = [0.0, 0.0, 0.0]
    try:
        return make_boost(vec)
    except ValueError as exc:
        raise UsageError(str(exc))


def _beta_list(v) -> list:
    return [float(b) for b in v.beta]


def _temperature_from(args) -> float:
    try:
        return temperature_value(args.temperature)
    except ValueError as exc:
        raise UsageError(str(exc))


def _cmd_spectrum(args) -> int:
    units = _units_from(args)
    t = _temperature_from(args)
    component = _COMPONENTS[args.component]
    if args.points < 1:
        raise UsageError(f"--points must be >= 1, got {args.points}")
    if not (np.isfinite(args.omega_min) and np.isfinite(args.omega_max)):
        raise UsageError("--omega-min and --omega-max must be finite")
    if args.omega_min < 0.0 or args.omega_max < args.omega_min:
        raise UsageError("need 0 <= omega-min <= omega-max")
    if args.grid == "log" and args.omega_min <= 0.0:
        raise UsageError("log spacing requires omega-min > 0")
    if args.grid == "log":
        omega = np.geomspace(args.omega_min, args.omega_max, args.points)
    else:
        omega = np.linspace(args.omega_min, args.omega_max, args.points)

    inputs = {"frame": args.frame, "temperature": t, "component": args.component}
    if args.frame == "rest":
        if args.mu is not None:
            raise UsageError("--mu only applies to --frame moving")
        if args.beta is not None or args.beta_vec is not None:
            raise UsageError("a boost only applies to --frame moving")
        columns = {"omega": omega, "rho": rho_rest(omega, t, component, units)}
    else:
        v = _boost_from(args)
        if args.mu is None:
            columns = {"omega_prime": omega, "u_prime": u_moving(omega, v, t, component, units)}
        else:
            if not -1.0 <= args.mu <= 1.0:
                raise UsageError(f"--mu must lie in [-1, 1], got {args.mu}")
            inputs["mu"] = args.mu
            columns = {
                "omega_prime": omega,
                "rho_prime": rho_moving_mu(omega, args.mu, v, t, component, units),
                "t_eff": np.full(len(omega), effective_temperature_mu(args.mu, v, t)),
            }
        inputs["beta"] = _beta_list(v)
    inputs.update(omega_min=args.omega_min, omega_max=args.omega_max,
                  points=args.points, grid=args.grid, units=args.units)
    columns = {name: np.atleast_1d(col) for name, col in columns.items()}
    if args.format == "json":
        _emit_envelope("spectrum", inputs,
                       {name: col.tolist() for name, col in columns.items()}, [])
    else:
        _echo_inputs(inputs)
        _emit_csv(list(columns), ([_g17(x) for x in row] for row in zip(*columns.values())))
    return 0


def _cmd_boost_mode(args) -> int:
    if args.omega < 0.0:
        raise UsageError(f"--omega must be >= 0, got {args.omega}")
    if not -1.0 <= args.mu <= 1.0:
        raise UsageError(f"--mu must lie in [-1, 1], got {args.mu}")
    v = _boost_from(args)
    khat = direction_with_cosine(args.mu, v, args.azimuth)
    res = boost_mode(PhotonMode(args.omega, khat), v)
    mu_p = float(res.mode_prime.khat @ v.vhat)
    inputs = {"omega": args.omega, "mu": args.mu, "azimuth": args.azimuth,
              "beta": _beta_list(v)}
    results = {
        "omega_prime": res.mode_prime.omega,
        "mu_prime": mu_p,
        "khat_prime": res.mode_prime.khat.tolist(),
        "jac_freq": res.jac_freq,
        "jac_solid_angle": res.jac_solid_angle,
    }
    if args.format == "json":
        _emit_envelope("boost-mode", inputs, results, [])
    else:
        _echo_inputs(inputs)
        _emit_csv(["omega_prime", "mu_prime", "jac_freq", "jac_solid_angle"],
                  [[_g17(res.mode_prime.omega), _g17(mu_p),
                    _g17(res.jac_freq), _g17(res.jac_solid_angle)]])
    return 0


def _cmd_energy_density(args) -> int:
    units = _units_from(args)
    t = _temperature_from(args)
    if t == 0.0:
        raise UsageError("energy-density compares thermal densities; temperature must be > 0")
    v = _boost_from(args)
    methods = ["spectral", "correlation"] if args.method == "both" else [args.method]
    reports = []
    for name in methods:
        if name == "spectral":
            reports.append(energy_density_moving_spectral(t, v, units=units))
        else:
            reports.append(energy_density_moving_correlation(t, v, units=units))
    expected = expected_energy_ratio(v)
    inputs = {"temperature": t, "beta": _beta_list(v), "method": args.method,
              "units": args.units}
    if args.format == "json":
        results = {
            "expected_ratio": expected,
            "methods": [
                {"method": r.method, "w_rest": r.W_rest, "w_moving": r.W_moving,
                 "ratio": r.ratio, "ratio_minus_expected": r.ratio - expected,
                 "error_estimate": r.error_estimate, "n_panels": r.n_panels,
                 "n_evaluations": r.n_evaluations}
                for r in reports
            ],
        }
        _emit_envelope("energy-density", inputs, results, [])
    else:
        _echo_inputs(inputs)
        _emit_csv(
            ["method", "w_rest", "w_moving", "ratio", "expected_ratio", "ratio_minus_expected"],
            ([r.method, _g17(r.W_rest), _g17(r.W_moving), _g17(r.ratio),
              _g17(expected), _g17(r.ratio - expected)] for r in reports),
        )
    return 0


def _cmd_anisotropy(args) -> int:
    units = _units_from(args)
    t = _temperature_from(args)
    if args.lmax < 0:
        raise UsageError(f"--lmax must be >= 0, got {args.lmax}")
    if args.map_points is not None and args.map_points < 2:
        raise UsageError(f"--map-points must be >= 2, got {args.map_points}")
    v = _boost_from(args)
    coeffs = temperature_multipoles(v, t, args.lmax)
    mu_map = teff_map = None
    if args.map_points is not None:
        mu_map = np.linspace(-1.0, 1.0, args.map_points)
        teff_map = np.atleast_1d(effective_temperature_mu(mu_map, v, t))
    inputs = {"temperature": t, "beta": _beta_list(v), "lmax": args.lmax,
              "map_points": args.map_points, "units": args.units}
    if args.format == "json":
        results = {"l": list(range(args.lmax + 1)), "a": coeffs.a.tolist(),
                   "convention": coeffs.convention, "method": coeffs.method,
                   "n_evaluations": coeffs.n_evaluations}
        if mu_map is not None:
            results["map"] = {"mu_prime": mu_map.tolist(), "t_eff": teff_map.tolist()}
        _emit_envelope("anisotropy", inputs, results, [])
    else:
        _echo_inputs(inputs)
        _emit_csv(["l", "a_l"],
                  ([str(l), _g17(a)] for l, a in enumerate(coeffs.a)))
        if mu_map is not None:
            sys.stdout.write("\n")
            _emit_csv(["mu_prime", "t_eff"],
                      ([_g17(m), _g17(te)] for m, te in zip(mu_map, teff_map)))
    return 0


def _cmd_mc_verify(args) -> int:
    units = _units_from(args)
    t = _temperature_from(args)
    if t == 0.0:
        raise UsageError("mc-verify samples the thermal spectrum; temperature must be > 0")
    if args.threads is not None and args.threads < 1:
        raise UsageError(f"--threads must be >= 1, got {args.threads}")
    v = _boost_from(args)
    omega_max = args.omega_prime_max
    if omega_max is None:
        # far enough into the Wien tail of the hottest direction to cover
        # all but a negligible weight fraction
        omega_max = 15.0 * v.gamma * (1.0 + v.beta_mag) * t * units.k_B / units.hbar
    try:
        cfg = McConfig(n_samples=args.n, seed=args.seed, omega_prime_max=omega_max,
                       n_omega_bins=args.bins_omega, n_mu_bins=args.bins_mu)
    except ValueError as exc:
        raise UsageError(str(exc))
    rep = run_identity_check(t, v, cfg, units=units, n_threads=args.threads)

    ok = rep.dof >= 1 and 0.5 <= rep.chi2_per_dof <= 1.5 and rep.max_abs_z < 6.0
    sys.stderr.write(
        f"chi2/dof = {rep.chi2_per_dof:.4f} (dof {rep.dof}), max|z| = {rep.max_abs_z:.2f}, "
        f"W'/W = {rep.ratio_estimate:.6f} +- {rep.ratio_std_error:.6f} "
        f"(expected {rep.ratio_expected:.6f})\n"
    )
    inputs = {"temperature": t, "beta": _beta_list(v), "n": args.n, "seed": args.seed,
              "bins_omega": args.bins_omega, "bins_mu": args.bins_mu,
              "omega_prime_max": omega_max, "threads": rep.n_threads, "units": args.units}
    if args.format == "json":
        chi2_per_dof = rep.chi2_per_dof if np.isfinite(rep.chi2_per_dof) else None
        results = {
            "chi2": rep.chi2, "dof": rep.dof, "chi2_per_dof": chi2_per_dof,
            "max_abs_z": rep.max_abs_z, "n_excluded": rep.n_excluded,
            "in_grid_fraction": rep.in_grid_fraction,
            "w_prime_estimate": rep.w_prime_estimate,
            "w_prime_std_error": rep.w_prime_std_error,
            "w_prime_expected": rep.w_prime_expected,
            "ratio_estimate": rep.ratio_estimate,
            "ratio_std_error": rep.ratio_std_error,
            "ratio_expected": rep.ratio_expected,
            "omega_edges": rep.omega_edges.tolist(),
            "mu_edges": rep.mu_edges.tolist(),
            "counts": rep.counts.tolist(),
            "estimated": rep.estimated.tolist(),
            "analytic": rep.analytic.tolist(),
            "std_error": rep.std_error.tolist(),
            "expected_counts": rep.expected_counts.tolist(),
            "z_scores": [[z if np.isfinite(z) else None for z in row]
                         for row in rep.z_scores.tolist()],
            "passed": ok,
        }
        _emit_envelope("mc-verify", inputs, results, list(rep.warnings))
    else:
        _echo_inputs(inputs)
        for w in rep.warnings:
            sys.stderr.write(f"# warning: {w}\n")
        rows = []
        nb_om, nb_mu = rep.config.n_omega_bins, rep.config.n_mu_bins
        for i in range(nb_om):
            for j in range(nb_mu):
                z = rep.z_scores[i, j]
                rows.append([
                    _g17(rep.omega_edges[i]), _g17(rep.omega_edges[i + 1]),
                    _g17(rep.mu_edges[j]), _g17(rep.mu_edges[j + 1]),
                    str(int(rep.counts[i, j])),
                    _g17(rep.estimated[i, j]), _g17(rep.analytic[i, j]),
                    _g17(rep.std_error[i, j]), _g17(rep.expected_counts[i, j]),
                    "1" if rep.included[i, j] else "0",
                    _g17(z) if np.isfinite(z) else "nan",
                ])
        _emit_csv(["omega_lo", "omega_hi", "mu_lo", "mu_hi", "count", "estimated",
                   "analytic", "std_error", "expected_count", "included", "z"], rows)
    return 0 if ok else 1


def _cmd_selftest(args) -> int:
    results = run_selfcheck(quick=args.quick, seed=args.seed)
    all_passed = all(r.passed for r in results)
    if args.format == "json":
        _emit_envelope(
            "selftest",
            {"quick": args.quick, "seed": args.seed},
            {"checks": [dataclasses.asdict(r) for r in results], "all_passed": all_passed},
            [],
        )
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            sys.stdout.write(
                f"{status}  {r.name:<24s}  residual={r.residual:10.3e}  "
                f"tol={r.tolerance:10.3e}  {r.detail}\n"
            )
        n_fail = sum(not r.passed for r in results)
        if n_fail:
            sys.stderr.write(f"{n_fail} of {len(results)} checks failed\n")
    return 0 if all_passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relplanck",
        description="Blackbody radiation seen from a moving frame: spectra, "
                    "kinematics, energy densities, and statistical verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="evaluate the spectral density on a frequency grid")
    p.add_argument("--temperature", type=float, required=True, help="rest-frame temperature")
    p.add_argument("--frame", choices=["rest", "moving"], default="rest")
    p.add_argument("--component", choices=sorted(_COMPONENTS), default="total")
    p.add_argument("--mu", type=float, default=None,
                   help="propagation cosine vs the boost axis (moving frame only); "
                        "without it the moving frame prints the direction-integrated "
                        "spectral density u'(omega')")
    p.add_argument("--omega-min", type=float, default=0.0)
    p.add_argument("--omega-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--grid", choices=["linear", "log"], default="linear")
    _add_boost_flags(p)
    _add_units_flag(p)
    _add_format_flag(p, "csv")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("boost-mode", help="transform a single photon mode")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--mu", type=float, required=True,
                   help="rest-frame propagation cosine vs the boost axis")
    p.add_argument("--azimuth", type=float, default=0.0)
    _add_boost_flags(p)
    _add_format_flag(p, "csv")
    p.set_defaults(func=_cmd_boost_mode)

    p = sub.add_parser("energy-density",
                       help="thermal energy density in both frames, two routes")
    p.add_argument("--temperature", type=float, required=True)
    p.add_argument("--method", choices=["spectral", "correlation", "both"], default="both")
    _add_boost_flags(p)
    _add_units_flag(p)
    _add_format_flag(p, "csv")
    p.set_defaults(func=_cmd_energy_density)

    p = sub.add_parser("anisotropy",
                       help="Legendre multipoles of the effective temperature")
    p.add_argument("--temperature", type=float, required=True)
    p.add_argument("--lmax", type=int, default=4)
    p.add_argument("--map-points", type=int, default=None,
                   help="also tabulate T_eff on a uniform mu' grid")
    _add_boost_flags(p)
    _add_units_flag(p)
    _add_format_flag(p, "csv")
    p.set_defaults(func=_cmd_anisotropy)

    p = sub.add_parser("mc-verify",
                       help="Monte Carlo check of the boosted-spectrum identity")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--n", type=int, default=100_000, help="number of sampled modes")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--bins-omega", type=int, default=32)
    p.add_argument("--bins-mu", type=int, default=16)
    p.add_argument("--omega-prime-max", type=float, default=None,
                   help="upper edge of the moving-frame frequency grid")
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads for the sample chunks (default: every usable CPU)")
    _add_boost_flags(p)
    _add_units_flag(p)
    _add_format_flag(p, "json")
    p.set_defaults(func=_cmd_mc_verify)

    p = sub.add_parser("selftest", help="run the built-in verification battery")
    p.add_argument("--quick", action="store_true",
                   help="skip the statistically heavy checks")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except QuadratureConvergenceError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
