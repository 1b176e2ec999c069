"""The three benchmark workloads: op sequences, how one op runs, output checks.

Every op sequence is a pure function of (workload, seed, seconds): the op
count is fixed from ``seconds`` and the nominal op cost below, never from a
clock, so two runs with one seed attempt exactly the same ops and
``failed / attempted`` repeats exactly.

Checks never trust a verdict the program computes.  Each output is compared
with a closed form evaluated here, or, for the Monte Carlo report, the
chi-square gate is recomputed from the report's arrays.

Known defects present when this benchmark was added are recorded in
``known_defect``: such a failed check counts in ``failed`` but is expected;
any other failed check makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import numpy as np

WORKLOADS = ("cli_session", "mc_verify", "quadrature_sweep")

# seconds per op measured when this benchmark was added (2-core x86-64 VM,
# Python 3.11, numpy 2.4); sizes the fixed op count so a run lasts about
# --seconds
NOMINAL_OP_S = {"cli_session": 0.75, "mc_verify": 0.54, "quadrature_sweep": 0.06}

MC_BETAS = (0.3, 0.6, 0.9, 0.99)
MC_SAMPLES = 1_000_000
QUAD_BETAS = (0.0, 0.3, 0.6, 0.9, 0.99, 0.999)
QUAD_L_MAX = 16
# temperature_multipoles sizes a dense Gauss-Legendre eigenproblem from beta:
# 850 nodes at 0.999 but 26,871 at 0.999999, which runs out of memory.  No
# op may call it above this cap.
MULTIPOLE_BETA_CAP = 0.999
CLI_BETA_MAX = 0.999
CLI_INVOCATIONS = (
    "spectrum_rest", "spectrum_moving", "boost-mode", "energy-density",
    "anisotropy", "mc-verify", "selftest",
)
# the Monte Carlo chi-square reference, the spectral W' route and the
# multipole projection are known to miss at high beta (3-node bin averages;
# fixed 64-node mu rule; a_0 rounding up to ~8e-12 relative at 0.995-0.999)
KNOWN_DEFECT_BETA = 0.9

CYCLE = {"cli_session": len(CLI_INVOCATIONS), "mc_verify": len(MC_BETAS),
         "quadrature_sweep": 3 * len(QUAD_BETAS)}


def op_count(workload: str, seconds: float) -> int:
    cycle = CYCLE[workload]
    return cycle * max(1, round(seconds / (NOMINAL_OP_S[workload] * cycle)))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def make_ops(workload: str, seed: int, seconds: float) -> list[dict]:
    """The fixed op sequence for one run; depends only on its arguments."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for i in range(op_count(workload, seconds)):
        if workload == "mc_verify":
            ops.append({"beta": MC_BETAS[i % len(MC_BETAS)], "seed": rng.randrange(2**31)})
        elif workload == "quadrature_sweep":
            # a third of the ops use SI, spread so that every beta meets SI
            si = (i + i // len(QUAD_BETAS)) % 3 == 2
            t = _log_uniform(rng, 1.0, 1e4) if si else _log_uniform(rng, 1e-3, 1e3)
            ops.append({"beta": QUAD_BETAS[i % len(QUAD_BETAS)], "T": t, "si": si})
        else:
            ops.append({
                "inv": CLI_INVOCATIONS[i % len(CLI_INVOCATIONS)],
                "T": _log_uniform(rng, 1e-3, 1e3),
                "beta": rng.uniform(0.0, CLI_BETA_MAX),
                "mu": rng.uniform(-1.0, 1.0),
                "omega": _log_uniform(rng, 1e-2, 1e2),
                "seed": rng.randrange(2**31),
            })
    return ops


def warmup_ops(workload: str) -> list[dict]:
    """Fixed, seed-independent ops run once before timing (counted in setup)."""
    if workload == "mc_verify":
        return [{"beta": MC_BETAS[0], "seed": 0}]
    if workload == "quadrature_sweep":
        return [{"beta": b, "T": 1.0, "si": b == QUAD_BETAS[-1]} for b in QUAD_BETAS]
    return []


LOW_COUNT_Z = "low-count bin"


def known_defect(op: dict, why: str) -> str | None:
    """Why the failed check ``why`` on this input is a known defect, or None."""
    if why.startswith(LOW_COUNT_Z):
        return ("z uses each bin's own sample variance, so a bin expecting ~10 draws "
                "that gets a few has a tiny error and |z| >= 6 on correct physics")
    if op["beta"] < KNOWN_DEFECT_BETA:
        return None
    if why.startswith("chi2/dof"):
        return "Monte Carlo chi2 reference (3-node bin averages) is biased at high beta"
    if why.startswith("spectral W'/W"):
        return "spectral W' route (fixed 64-node mu rule) misses at high beta"
    if why.startswith("a_0/T"):
        return "Gauss-Legendre projection of T_eff loses digits as beta nears 1"
    return None


# ---------------------------------------------------------------- closed forms

def gamma(beta: float) -> float:
    return 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))


def energy_ratio(beta: float) -> float:
    return gamma(beta) ** 2 * (1.0 + beta**2 / 3.0)


def monopole_over_t(beta: float) -> float:
    return 1.0 if beta == 0.0 else math.atanh(beta) / (gamma(beta) * beta)


def _rho_natural(omega, t, d=1.0):
    """hbar=c=k_B=1 total density omega^3 coth(D omega / 2T) / (2 pi)^3."""
    omega = np.asarray(omega, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = omega**3 / np.tanh(d * omega / (2.0 * t)) / (2.0 * math.pi) ** 3
    return np.where(omega == 0.0, 0.0, out)


def _close(got, want, rel: float) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= rel * np.abs(want) + 1e-300))


def mc_gate(beta, estimated, analytic, std_error, counts, expected_counts, ratio,
            ratio_se) -> str | None:
    """The CLI's pass rule recomputed from the report arrays, plus W'/W within 6 sigma."""
    est, ana, se, cnt, exp = (np.asarray(a, dtype=float).ravel() for a in
                              (estimated, analytic, std_error, counts, expected_counts))
    included = exp >= 10.0
    dof = int(np.count_nonzero(included))
    if dof < 1:
        return "no bin has an expected count >= 10"
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.nan_to_num((est - ana)[included] / se[included], nan=np.inf)
    chi2_dof = float(np.sum(z**2)) / dof
    max_z = float(np.max(np.abs(z)))
    if not (0.5 <= chi2_dof <= 1.5 and max_z < 6.0):
        worst = int(np.argmax(np.abs(z)))
        rest = np.delete(z, worst)
        if (cnt[included][worst] < exp[included][worst] and rest.size
                and 0.5 <= float(np.mean(rest**2)) <= 1.5 and float(np.max(np.abs(rest))) < 6.0):
            return (f"{LOW_COUNT_Z}: z {z[worst]:.3g} from {cnt[included][worst]:.0f} of "
                    f"{exp[included][worst]:.3g} expected draws; other bins pass")
        return f"chi2/dof {chi2_dof:.3g} max|z| {max_z:.3g} dof {dof}"
    if not abs(ratio - energy_ratio(beta)) <= 6.0 * ratio_se:
        return f"W'/W {ratio!r} vs {energy_ratio(beta)!r} +- {ratio_se!r}"
    return None


# ---------------------------------------------------------------- in-process ops

def run_inprocess(workload: str, op: dict):
    """One timed op; library functions are looked up at call time so a tracer
    installed on the module attributes sees them."""
    from relplanck import core, montecarlo, radiometry, spectrum

    beta = op["beta"]
    v = core.make_boost([0.0, 0.0, beta])
    if workload == "mc_verify":
        cfg = montecarlo.McConfig(
            n_samples=MC_SAMPLES, seed=op["seed"],
            omega_prime_max=15.0 * gamma(beta) * (1.0 + beta),
            n_omega_bins=32, n_mu_bins=16)
        return montecarlo.run_identity_check(1.0, v, cfg)
    if beta > MULTIPOLE_BETA_CAP:
        raise ValueError(f"beta {beta} above the multipole memory cap {MULTIPOLE_BETA_CAP}")
    units = core.UnitSystem.si() if op["si"] else core.NATURAL
    t = op["T"]
    return (radiometry.energy_density_moving_spectral(t, v, units=units),
            radiometry.energy_density_moving_correlation(t, v, units=units),
            spectrum.temperature_multipoles(v, t, QUAD_L_MAX))


def digest_inprocess(workload: str, out) -> str:
    h = hashlib.sha256()
    if workload == "mc_verify":
        for a in (out.counts, out.estimated, out.analytic, out.std_error, out.expected_counts):
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
        h.update(repr((out.chi2, out.dof, out.ratio_estimate, out.ratio_std_error)).encode())
    else:
        spec, corr, mult = out
        h.update(repr((spec.W_rest, spec.W_moving, corr.W_rest, corr.W_moving)).encode())
        h.update(np.ascontiguousarray(mult.a, dtype=float).tobytes())
    return h.hexdigest()


def check_inprocess(workload: str, op: dict, out) -> str | None:
    """None when the output is right, else what is wrong."""
    beta = op["beta"]
    if workload == "mc_verify":
        return mc_gate(beta, out.estimated, out.analytic, out.std_error, out.counts,
                       out.expected_counts, out.ratio_estimate, out.ratio_std_error)
    spec, corr, mult = out
    want = energy_ratio(beta)
    for rep in (spec, corr):
        if not _close(rep.ratio, want, 1e-8):
            return f"{rep.method} W'/W {rep.ratio!r} vs {want!r}"
    if not _close(mult.a[0] / op["T"], monopole_over_t(beta), 1e-12):
        return f"a_0/T {mult.a[0] / op['T']!r} vs {monopole_over_t(beta)!r}"
    return None


# ---------------------------------------------------------------- CLI ops

def cli_argv(op: dict) -> list[str]:
    t, beta, mu = repr(op["T"]), repr(op["beta"]), repr(op["mu"])
    inv = op["inv"]
    if inv == "spectrum_rest":
        return ["spectrum", "--temperature", t, "--omega-max", repr(12.0 * op["T"])]
    if inv == "spectrum_moving":
        return ["spectrum", "--temperature", t, "--frame", "moving", "--mu", mu,
                "--beta", beta, "--omega-max", repr(12.0 * op["T"])]
    if inv == "boost-mode":
        return ["boost-mode", "--omega", repr(op["omega"]), "--mu", mu, "--beta", beta]
    if inv == "energy-density":
        return ["energy-density", "--temperature", t, "--beta", beta, "--format", "json"]
    if inv == "anisotropy":
        return ["anisotropy", "--temperature", t, "--beta", beta, "--lmax", "3",
                "--map-points", "11"]
    if inv == "mc-verify":
        return ["mc-verify", "--temperature", t, "--beta", beta, "--seed", str(op["seed"])]
    return ["selftest", "--quick"]


def _csv_blocks(text: str) -> list[tuple[list[str], np.ndarray]]:
    blocks = []
    for chunk in text.strip().split("\n\n"):
        lines = chunk.strip().split("\n")
        header = lines[0].split(",")
        rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]], dtype=float)
        blocks.append((header, rows.reshape(-1, len(header))))
    return blocks


def check_cli(op: dict, returncode: int, stdout: str) -> str | None:
    """Exit code 0, parseable output, and every number against its closed form.

    ``mc-verify`` exits 1 when its own gate fails; its output is still
    checked, so the failure is classified by the recomputed gate.
    """
    if returncode != 0 and not (op["inv"] == "mc-verify" and returncode == 1):
        return f"exit code {returncode}"
    try:
        return _check_cli_output(op, returncode, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {exc!r}"


def _check_cli_output(op: dict, returncode: int, stdout: str) -> str | None:
    inv, t, beta = op["inv"], op["T"], op["beta"]
    g = gamma(beta)
    if inv in ("spectrum_rest", "spectrum_moving"):
        (header, rows), = _csv_blocks(stdout)
        if rows.shape[0] != 64:
            return f"{rows.shape[0]} rows, expected 64"
        d = 1.0 if inv == "spectrum_rest" else g * (1.0 + beta * op["mu"])
        if not _close(rows[:, 1], _rho_natural(rows[:, 0], t, d), 1e-12):
            return "spectral density differs from the closed form"
        if inv == "spectrum_moving" and not _close(rows[:, 2], np.full(64, t / d), 1e-12):
            return "T_eff differs from T / (gamma (1 + beta mu'))"
        return None
    if inv == "boost-mode":
        (_, rows), = _csv_blocks(stdout)
        mu = op["mu"]
        mu_p = (mu - beta) / (1.0 - beta * mu)
        jac = g * (1.0 + beta * mu_p)
        want = [op["omega"] * g * (1.0 - beta * mu), mu_p, jac, 1.0 / jac**2]
        got = rows[0]
        if not (_close(got[[0, 2, 3]], np.array(want)[[0, 2, 3]], 1e-12)
                and abs(got[1] - mu_p) <= 1e-12):
            return f"boosted mode {got.tolist()} vs {want}"
        return None
    if inv == "energy-density":
        res = json.loads(stdout)["results"]
        want = energy_ratio(beta)
        if not _close(res["expected_ratio"], want, 1e-12):
            return f"expected_ratio {res['expected_ratio']!r} vs {want!r}"
        methods = {m["method"]: m["ratio"] for m in res["methods"]}
        if sorted(methods) != ["correlation", "spectral"]:
            return f"methods {sorted(methods)}"
        for name, ratio in sorted(methods.items()):
            if not _close(ratio, want, 1e-8):
                return f"{name} W'/W {ratio!r} vs {want!r}"
        return None
    if inv == "anisotropy":
        (_, coeffs), (_, teff) = _csv_blocks(stdout)
        if coeffs.shape[0] != 4 or not _close(coeffs[0, 1] / t, monopole_over_t(beta), 1e-12):
            return f"a_0/T {coeffs[0, 1] / t!r} vs {monopole_over_t(beta)!r}"
        if not _close(teff[:, 1], t / (g * (1.0 + beta * teff[:, 0])), 1e-12):
            return "T_eff map differs from T / (gamma (1 + beta mu'))"
        return None
    if inv == "mc-verify":
        res = json.loads(stdout)["results"]
        why = mc_gate(beta, res["estimated"], res["analytic"], res["std_error"],
                      res["counts"], res["expected_counts"], res["ratio_estimate"],
                      res["ratio_std_error"])
        if why is None and (returncode != 0 or res["passed"] is not True):
            return "program reports failure where the recomputed gate passes"
        return why
    lines = stdout.strip().split("\n")
    if not lines or not all(ln.startswith("PASS ") for ln in lines):
        return "selftest line not PASS"
    return None
