"""Self-test of the benchmark's own code: tracer, op sequences and checks.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import sys
import threading

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import relplanck  # noqa: E402
from relplanck import core, montecarlo, radiometry  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

QUAD_OPS = [{"beta": 0.6, "T": 0.7, "si": False}, {"beta": 0.999, "T": 300.0, "si": True}]


def test_traced_outputs_equal_untraced_bit_for_bit():
    for workload, ops in (("quadrature_sweep", QUAD_OPS),
                          ("mc_verify", workloads.make_ops("mc_verify", 3, 0.0)[:2])):
        plain = [workloads.digest_inprocess(workload, workloads.run_inprocess(workload, op))
                 for op in ops]
        tracer = Tracer()
        with tracer.installed():
            traced = [workloads.digest_inprocess(workload, workloads.run_inprocess(workload, op))
                      for op in ops]
        assert traced == plain
        assert tracer.spans


def test_uninstall_restores_every_patched_attribute():
    before = (montecarlo.run_identity_check, relplanck.run_identity_check,
              relplanck.cli.run_identity_check, montecarlo.boost_mu,
              core.PhotonMode.__post_init__)
    tracer = Tracer()
    with tracer.installed():
        assert montecarlo.run_identity_check is relplanck.cli.run_identity_check
        assert montecarlo.run_identity_check is not before[0]
    after = (montecarlo.run_identity_check, relplanck.run_identity_check,
             relplanck.cli.run_identity_check, montecarlo.boost_mu,
             core.PhotonMode.__post_init__)
    assert all(a is b for a, b in zip(before, after))


def test_threaded_spans_land_on_their_own_thread_stacks():
    v = core.make_boost([0.0, 0.0, 0.6])
    cfg = montecarlo.McConfig(n_samples=600_000, seed=5, omega_prime_max=24.0)
    tracer = Tracer()
    with tracer.installed():
        montecarlo.run_identity_check(1.0, v, cfg, n_threads=2)
    main = threading.get_ident()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[0], []).append(span)
    (top,) = by_name["montecarlo.run_identity_check"]
    assert top[1] == main
    chunk_spans = by_name["montecarlo.sample_rest_modes"] + by_name["kinematics.boost_mu"]
    assert len(by_name["montecarlo.sample_rest_modes"]) == 5
    # chunks run in pool threads, whose stacks start empty
    assert all(s[1] != main and s[5] is None for s in chunk_spans)
    # a nested call closes on the same thread's stack as its parent
    boost_threads = {s[1] for s in by_name["kinematics.boost_mu"]}
    nested = [s for s in by_name["kinematics.doppler_factor"] if s[5] == "kinematics.boost_mu"]
    assert nested and all(s[1] in boost_threads for s in nested)
    # the parent's child time counts its own thread's children only
    own = [s for s in tracer.spans if s[1] == main and s[5] == "montecarlo.run_identity_check"]
    assert own and top[4] == pytest.approx(sum(s[3] - s[2] for s in own), rel=1e-12)


def test_uncalled_and_unwrapped_functions_report_zero():
    targets = {k: v for k, v in TARGETS.items()
               if k != "radiometry.integrate_semi_infinite"}
    original = radiometry.integrate_semi_infinite
    tracer = Tracer()
    with tracer.installed(targets):
        assert radiometry.integrate_semi_infinite is original
        workloads.run_inprocess("quadrature_sweep", QUAD_OPS[0])
    got = layers.span_metrics(tracer.spans, tracer.counts)
    assert got["radiometry.integrate_semi_infinite.calls"] == 0
    assert got["radiometry.integrate_semi_infinite.panels"] == 0
    assert got["montecarlo.run_identity_check.calls"] == 0
    assert got["montecarlo.bins_used_ratio"] == 0.0
    assert got["radiometry.energy_density_moving_spectral.calls"] == 1
    assert got["spectrum.multipole_nodes"] == 64


def test_op_sequence_depends_only_on_its_arguments():
    for workload in workloads.WORKLOADS:
        a = workloads.make_ops(workload, 11, 20.0)
        assert a == workloads.make_ops(workload, 11, 20.0)
        assert a != workloads.make_ops(workload, 12, 20.0)
        assert len(a) % workloads.CYCLE[workload] == 0
    quad = workloads.make_ops("quadrature_sweep", 1, 0.0)
    assert sum(op["si"] for op in quad) == len(quad) // 3
    assert {op["beta"] for op in quad if op["si"]} == set(workloads.QUAD_BETAS)
    assert max(op["beta"] for op in quad) <= workloads.MULTIPOLE_BETA_CAP


def test_checks_flag_the_known_spectral_defect_only_at_high_beta():
    ok, bad = ({"beta": b, "T": 2.0, "si": False} for b in (0.6, 0.999))
    assert workloads.check_inprocess(
        "quadrature_sweep", ok, workloads.run_inprocess("quadrature_sweep", ok)) is None
    why = workloads.check_inprocess(
        "quadrature_sweep", bad, workloads.run_inprocess("quadrature_sweep", bad))
    assert why and why.startswith("spectral")
    assert workloads.known_defect(bad, why)
    assert workloads.known_defect(ok, "spectral W'/W 1.0 vs 1.1") is None


def test_mc_gate_tells_a_collapsed_low_count_bin_from_a_biased_reference():
    z = np.tile([1.0, -1.0], 150)
    z[0] = -7.0
    expected = np.full(z.size, 50.0)
    expected[0] = 12.0
    ratio = workloads.energy_ratio(0.3)

    def gate(z, counts):
        return workloads.mc_gate(0.3, 10.0 + z, np.full(z.size, 10.0), np.ones(z.size),
                                 counts, expected, ratio, 1.0)

    low = gate(z, np.where(expected == 12.0, 2.0, 50.0))
    assert low.startswith(workloads.LOW_COUNT_Z)
    assert workloads.known_defect({"beta": 0.3}, low)
    full = gate(z, expected)
    assert not full.startswith(workloads.LOW_COUNT_Z)
    assert workloads.known_defect({"beta": 0.3}, full) is None
    assert gate(3.0 * z, np.where(expected == 12.0, 2.0, 50.0)).startswith("chi2/dof")
    assert gate(np.tile([1.0, -1.0], 150), expected) is None


def test_import_breakdown_attributes_subtrees_to_packages():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |     scipy._lib",
        "import time:        70 |        120 |   scipy",
        "import time:        30 |         30 |     scipy.special",
        "import time:        40 |         40 |         numpy.random",
        "import time:        10 |         50 |       scipy._lib.compat",
        "import time:        10 |         60 |     scipy.linalg",
        "import time:        10 |        220 |   relplanck.montecarlo",
        "import time:        20 |        500 | relplanck",
    ])
    got = layers.import_breakdown(stderr)
    assert got == {"cli.import_s": 500e-6, "cli.import_numpy_s": 300e-6,
                   "cli.import_scipy_s": 210e-6, "cli.import_relplanck_self_s": 30e-6}


def test_benchmark_json_lists_exactly_the_reported_layer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == layers.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
