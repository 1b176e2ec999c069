"""Command-line interface.

Subcommands mirror the library: `spectrum` evaluates spectral densities on
a frequency grid (per direction, or integrated over directions in the
moving frame when no cosine is given), `boost-mode` transforms a single
photon mode, `energy-density` compares the two moving-frame energy routes,
`anisotropy` expands the effective temperature in Legendre multipoles,
`mc-verify` runs the Monte Carlo identity check, and `selftest` runs the
built-in battery.

Each subcommand returns an _Output, and one function, _emit, writes it.
JSON mode writes one envelope per run with five keys: schema_version,
command, inputs, results and warnings.  CSV mode writes one or more tables
(17 significant digits, LF endings, one blank line between tables) and
echoes the inputs to stderr as `# key=value` lines and each warning as a
`# warning:` line, so stdout stays machine-readable.  Each verdict, a
CheckResult, is one `PASS|FAIL  name  residual=  tol=  detail` line: on
stdout for `selftest --format text`, else on stderr; `energy-density`
writes one for its spectral route's quadrature.  main alone picks the exit
code: 2 when a flag or the library rejects an input, 1 when a verdict
failed, 0 otherwise.  All configuration is via flags; no environment
variables are read.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .core import (
    NATURAL, CheckResult, Component, PhotonMode, UnitSystem, _EPS, _ERROR_BOUNDS, _check_count,
    _check_omega, _thermal_temperature, make_boost, temperature_value,
)
from .kinematics import boost_mode, direction_with_cosine
from .spectrum import (
    effective_temperature_mu,
    rho_moving_mu,
    rho_rest,
    temperature_multipoles,
    u_moving,
)

# the commands that run montecarlo, radiometry or selfcheck import them; the
# package's hook resolves their names here too, as relplanck.cli.run_selfcheck
from . import __getattr__  # noqa: F401

__all__ = ["main", "UsageError"]

_SCHEMA_VERSION = "1"

# upper bound on the grid size flags, so a large value exits 2 instead of
# allocating until the process dies; the library caps --lmax
_MAX_POINTS = 10**6


class UsageError(Exception):
    """Bad flag values; mapped to exit code 2."""


class _Output(NamedTuple):
    """One run's output: JSON results, the same numbers as CSV tables, and its verdicts."""

    inputs: dict
    results: dict
    tables: Sequence[dict] = ()
    warnings: tuple = ()
    checks: Sequence[CheckResult] = ()


def _cell(x) -> str:
    return x if isinstance(x, str) else format(float(x), ".17g")


def _emit(command: str, fmt: str, out: _Output):
    """Write one run's output: a JSON envelope or CSV tables, then its verdicts."""
    if fmt == "json":
        envelope = {"schema_version": _SCHEMA_VERSION, "command": command,
                    "inputs": out.inputs, "results": out.results, "warnings": list(out.warnings)}
        sys.stdout.write(json.dumps(envelope, sort_keys=True, indent=2) + "\n")
    elif fmt == "csv":
        # keeps CSV stdout parseable while still recording the resolved inputs
        for key, value in out.inputs.items():
            sys.stderr.write(f"# {key}={value}\n")
        for w in out.warnings:
            sys.stderr.write(f"# warning: {w}\n")
        # each table is a header line and its rows; one blank line between tables
        sys.stdout.write("\n".join(
            "".join(",".join(map(_cell, row)) + "\n" for row in [table, *zip(*table.values())])
            for table in out.tables
        ))
    # the verdicts are the whole text report; beside JSON or CSV they go to stderr
    verdicts = sys.stdout if fmt == "text" else sys.stderr
    for r in out.checks:
        verdicts.write(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<24s}  "
                       f"residual={r.residual:10.3e}  tol={r.tolerance:10.3e}  {r.detail}\n")
    if n_fail := sum(not r.passed for r in out.checks):
        sys.stderr.write(f"{n_fail} of {len(out.checks)} checks failed\n")


def _add_format_flag(p: argparse.ArgumentParser, default: str):
    p.add_argument("--format", choices=["csv", "json"], default=default,
                   help=f"output format (default {default})")


def _add_units_flag(p: argparse.ArgumentParser):
    p.add_argument("--units", choices=["natural", "si"], default="natural",
                   help="natural (hbar=c=k_B=1) or SI constants")


def _add_beta_flag(p: argparse.ArgumentParser):
    # the library's boost is the same signed speed along z: the physics sees only |beta|
    p.add_argument("--beta", type=float, default=None,
                   help="signed boost speed along z, |beta| <= 1 - 1e-9; negative points along -z")


def _units_from(args) -> UnitSystem:
    return NATURAL if args.units == "natural" else UnitSystem.si()


def _boost_from(args):
    return make_boost([0.0, 0.0, args.beta or 0.0])


def _thermal_bound_warnings(columns: dict) -> tuple:
    """One warning naming the rows where the one bound of the four thermal densities does
    not hold, the subnormal values, by their frequency in runs of consecutive rows."""
    (label, omega), (_, thermal) = list(columns.items())[:2]
    rows = np.flatnonzero((thermal > 0.0) & (thermal < np.finfo(float).tiny))
    if not rows.size:
        return ()
    cut = np.flatnonzero(np.diff(rows) > 1) + 1
    runs = ", ".join(_cell(omega[r[0]]) + ("" if r.size == 1 else f" to {_cell(omega[r[-1]])}")
                     for r in np.split(rows, cut))
    return (f"{rows.size} of {len(omega)} rows lie outside the thermal density's "
            f"{_ERROR_BOUNDS['rho_rest']['times_1_plus_z'] / _EPS:g} eps (1 + z) relative "
            f"bound, which holds where it is a normal double: {label} {runs}",)


def _cmd_spectrum(args) -> _Output:
    units = _units_from(args)
    t = temperature_value(args.temperature)
    component = Component(args.component)
    _check_count(args.points, "--points", _MAX_POINTS, low=1)
    _check_omega(args.omega_min, "--omega-min")
    _check_omega(args.omega_max, "--omega-max")
    if args.omega_max < args.omega_min:
        raise UsageError("need --omega-min <= --omega-max")
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
        if args.beta is not None:
            raise UsageError("a boost only applies to --frame moving")
        columns = {"omega": omega, "rho": rho_rest(omega, t, component, units)}
    else:
        v = _boost_from(args)
        if args.mu is None:
            columns = {"omega_prime": omega, "u_prime": u_moving(omega, v, t, component, units)}
        else:
            inputs["mu"] = args.mu
            columns = {
                "omega_prime": omega,
                "rho_prime": rho_moving_mu(omega, args.mu, v, t, component, units),
                "t_eff": np.full(len(omega), effective_temperature_mu(args.mu, v, t)),
            }
        inputs["beta"] = [0.0, 0.0, v.beta]
    inputs.update(omega_min=args.omega_min, omega_max=args.omega_max,
                  points=args.points, grid=args.grid, units=args.units)
    warnings = _thermal_bound_warnings(columns) if component is Component.THERMAL else ()
    return _Output(inputs, {name: col.tolist() for name, col in columns.items()}, [columns],
                   warnings)


def _cmd_boost_mode(args) -> _Output:
    v = _boost_from(args)
    khat = direction_with_cosine(args.mu, v, args.azimuth)
    res = boost_mode(PhotonMode(args.omega, khat), v)
    inputs = {"omega": args.omega, "mu": args.mu, "azimuth": args.azimuth,
              "beta": [0.0, 0.0, v.beta]}
    results = {
        "omega_prime": res.mode_prime.omega,
        "mu_prime": float(res.mode_prime.khat @ v.vhat),
        "khat_prime": res.mode_prime.khat.tolist(),
        "jac_freq": res.jac_freq,
        "jac_solid_angle": res.jac_solid_angle,
    }
    table = {k: [results[k]] for k in ("omega_prime", "mu_prime", "jac_freq", "jac_solid_angle")}
    return _Output(inputs, results, [table])


def _cmd_energy_density(args) -> _Output:
    from .radiometry import (
        energy_density_moving_correlation, energy_density_moving_spectral, expected_energy_ratio,
    )

    units = _units_from(args)
    t = temperature_value(args.temperature)
    v = _boost_from(args)
    reports = [route(t, v, units=units)
               for route in (energy_density_moving_spectral, energy_density_moving_correlation)]
    expected = expected_energy_ratio(v)
    inputs = {"temperature": t, "beta": [0.0, 0.0, v.beta], "units": args.units}
    rows = [
        {"method": r.method, "w_rest": r.W_rest, "w_moving": r.W_moving,
         "ratio": r.ratio, "ratio_minus_expected": r.ratio - expected,
         "error_estimate": r.error_estimate, "n_panels": r.n_panels,
         "n_evaluations": r.n_evaluations}
        for r in reports
    ]
    table = {k: [row[k] for row in rows] for k in ("method", "w_rest", "w_moving", "ratio")}
    table["expected_ratio"] = [expected] * len(rows)
    table["ratio_minus_expected"] = [row["ratio_minus_expected"] for row in rows]
    # the spectral route's quadrature verdict; the correlation route has none
    checks = [c for r in reports if (c := r.check)]
    return _Output(inputs, {"expected_ratio": expected, "methods": rows}, [table], checks=checks)


def _cmd_anisotropy(args) -> _Output:
    t = temperature_value(args.temperature)
    if args.map_points is not None:
        _check_count(args.map_points, "--map-points", _MAX_POINTS, low=2)
    v = _boost_from(args)
    coeffs = temperature_multipoles(v, t, args.lmax)
    inputs = {"temperature": t, "beta": [0.0, 0.0, v.beta], "lmax": args.lmax,
              "map_points": args.map_points}
    results = {"l": list(range(args.lmax + 1)), "a": coeffs.a.tolist(),
               "convention": coeffs.convention, "method": coeffs.method,
               "n_evaluations": coeffs.n_evaluations}
    tables = [{"l": results["l"], "a_l": coeffs.a}]
    if args.map_points is not None:
        mu_map = np.linspace(-1.0, 1.0, args.map_points)
        teff_map = effective_temperature_mu(mu_map, v, t)
        results["map"] = {"mu_prime": mu_map.tolist(), "t_eff": teff_map.tolist()}
        tables.append({"mu_prime": mu_map, "t_eff": teff_map})
    return _Output(inputs, results, tables)


def _cmd_mc_verify(args) -> _Output:
    from .montecarlo import McConfig, run_identity_check

    units = _units_from(args)
    # before the default grid edge, which is 0 at T = 0
    t = _thermal_temperature(args.temperature)
    v = _boost_from(args)
    omega_max = args.omega_prime_max
    if omega_max is None:
        # far enough into the Wien tail of the hottest direction to cover
        # all but a negligible weight fraction
        omega_max = 15.0 * v.gamma * (1.0 + v.beta_mag) * t * units.k_B / units.hbar
    cfg = McConfig(n_samples=args.n, seed=args.seed, omega_prime_max=omega_max,
                   n_omega_bins=args.bins_omega, n_mu_bins=args.bins_mu)
    rep = run_identity_check(t, v, cfg, units=units)
    inputs = {"temperature": t, "beta": [0.0, 0.0, v.beta], "n": args.n, "seed": args.seed,
              "bins_omega": args.bins_omega, "bins_mu": args.bins_mu,
              "omega_prime_max": omega_max, "units": args.units}
    results = {k: getattr(rep, k) for k in (
        "chi2", "dof", "max_abs_z", "n_excluded", "in_grid_fraction", "w_prime_estimate",
        "w_prime_std_error", "w_prime_expected", "ratio_estimate", "ratio_std_error",
        "ratio_expected")}
    results["passed"] = rep.check.passed
    results.update({k: getattr(rep, k).tolist() for k in (
        "omega_edges", "mu_edges", "counts", "estimated", "analytic", "std_error",
        "expected_counts")})
    results["chi2_per_dof"] = rep.chi2_per_dof if np.isfinite(rep.chi2_per_dof) else None
    results["z_scores"] = [[z if np.isfinite(z) else None for z in row]
                           for row in rep.z_scores.tolist()]
    # one row per bin, the mu' bins of each omega' bin in turn
    om, mu = rep.omega_edges, rep.mu_edges
    table = {
        "omega_lo": np.repeat(om[:-1], cfg.n_mu_bins), "omega_hi": np.repeat(om[1:], cfg.n_mu_bins),
        "mu_lo": np.tile(mu[:-1], cfg.n_omega_bins), "mu_hi": np.tile(mu[1:], cfg.n_omega_bins),
        "count": rep.counts.ravel(), "estimated": rep.estimated.ravel(),
        "analytic": rep.analytic.ravel(), "std_error": rep.std_error.ravel(),
        "expected_count": rep.expected_counts.ravel(), "included": rep.included.ravel(),
        "z": rep.z_scores.ravel(),
    }
    return _Output(inputs, results, [table], rep.warnings, [rep.check])


def _cmd_selftest(args) -> _Output:
    from .selfcheck import run_selfcheck

    checks = run_selfcheck(quick=args.quick, seed=args.seed)
    return _Output({"quick": args.quick, "seed": args.seed},
                   {"checks": [dataclasses.asdict(r) for r in checks],
                    "all_passed": all(r.passed for r in checks)}, checks=checks)


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
    p.add_argument("--component", choices=sorted(c.value for c in Component), default="total")
    p.add_argument("--mu", type=float, default=None,
                   help="propagation cosine vs the boost axis (moving frame only); "
                        "without it the moving frame prints the direction-integrated "
                        "spectral density u'(omega')")
    p.add_argument("--omega-min", type=float, default=0.0)
    p.add_argument("--omega-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--grid", choices=["linear", "log"], default="linear")
    _add_beta_flag(p)
    _add_units_flag(p)
    _add_format_flag(p, "csv")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("boost-mode", help="transform a single photon mode")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--mu", type=float, required=True,
                   help="rest-frame propagation cosine vs the boost axis")
    p.add_argument("--azimuth", type=float, default=0.0)
    _add_beta_flag(p)
    _add_format_flag(p, "csv")
    p.set_defaults(func=_cmd_boost_mode)

    p = sub.add_parser("energy-density",
                       help="thermal energy density in both frames, two routes")
    p.add_argument("--temperature", type=float, required=True)
    _add_beta_flag(p)
    _add_units_flag(p)
    _add_format_flag(p, "csv")
    p.set_defaults(func=_cmd_energy_density)

    p = sub.add_parser("anisotropy",
                       help="Legendre multipoles of the effective temperature")
    p.add_argument("--temperature", type=float, required=True)
    p.add_argument("--lmax", type=int, default=4)
    p.add_argument("--map-points", type=int, default=None,
                   help="also tabulate T_eff on a uniform mu' grid")
    _add_beta_flag(p)
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
    _add_beta_flag(p)
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
        out = args.func(args)
        _emit(args.command, args.format, out)
    except (UsageError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0 if all(r.passed for r in out.checks) else 1


if __name__ == "__main__":
    sys.exit(main())
