"""In-memory span tracer that wraps relplanck's public functions from outside.

Each wrapped function is replaced at every ``relplanck.*`` module attribute
that holds it, which is where its callers look it up (``from .x import f``
binds a second name, so both names are patched).  A wrapper passes its
arguments and result through unchanged and records one span: name, thread,
start, end, time spent in child spans on the same thread, the parent span's
name, and sizes read from the arguments and return value.

Spans live in memory on a per-thread stack while open and in one list once
closed; nothing is written until the caller asks for them.  A function that
is never called simply has no spans, so its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np


def _size(*arrays) -> int:
    return int(np.broadcast(*[np.asarray(a) for a in arrays]).size)


def _arg(bound, name):
    return bound.arguments[name]


# span name -> (module, attribute, sizes(bound_arguments, result) -> dict | None)
TARGETS = {
    "cli.main": ("cli", "main", None),
    "selfcheck.run_selfcheck": ("selfcheck", "run_selfcheck", None),
    "montecarlo.run_identity_check": (
        "montecarlo", "run_identity_check",
        lambda b, r: {"dof": r.dof, "bins": int(r.included.size),
                      "in_grid": r.in_grid_fraction,
                      "samples": _arg(b, "cfg").n_samples},
    ),
    "montecarlo.sample_rest_modes": (
        "montecarlo", "sample_rest_modes", lambda b, r: {"samples": int(_arg(b, "n"))},
    ),
    "kinematics.boost_mu": (
        "kinematics", "boost_mu",
        lambda b, r: {"elements": _size(_arg(b, "omega"), _arg(b, "mu"))},
    ),
    "kinematics.doppler_factor": ("kinematics", "doppler_factor", None),
    "kinematics.boost_mode": ("kinematics", "boost_mode", None),
    "spectrum.rho_moving_mu": (
        "spectrum", "rho_moving_mu",
        lambda b, r: {"points": _size(_arg(b, "omega_prime"), _arg(b, "mu_prime"))},
    ),
    "spectrum.temperature_multipoles": ("spectrum", "temperature_multipoles", None),
    "spectrum.effective_temperature_mu": (
        "spectrum", "effective_temperature_mu",
        lambda b, r: {"nodes": _size(_arg(b, "mu_prime"))},
    ),
    "radiometry.integrate_semi_infinite": (
        "radiometry", "integrate_semi_infinite",
        lambda b, r: {"panels": r.n_panels, "evaluations": r.n_evaluations},
    ),
    "radiometry.energy_density_moving_spectral": (
        "radiometry", "energy_density_moving_spectral",
        lambda b, r: {"ratio": r.ratio, "beta": _arg(b, "v").beta_mag},
    ),
    "radiometry.energy_density_moving_correlation": (
        "radiometry", "energy_density_moving_correlation", None,
    ),
}

PHOTON_MODE_COUNT = "core.PhotonMode.constructed"


class Tracer:
    """Collects spans from wrapped functions; see the module docstring.

    ``spans`` holds tuples (name, thread_id, start, end, child_s, parent,
    sizes) in the order the spans closed; ``counts`` holds plain counters.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {PHOTON_MODE_COUNT: 0}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, sizes=None):
        sig = inspect.signature(fn) if sizes is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            returned = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                measured = None
                if sig is not None and returned:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    measured = sizes(bound, result)
                with self._lock:
                    self.spans.append(
                        (name, threading.get_ident(), start, end, frame[1], parent, measured)
                    )
            return result

        return traced

    def _patch_everywhere(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "relplanck" or mod_name.startswith("relplanck.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    def install(self, targets: dict = TARGETS):
        """Wrap every target; requires the relplanck modules to be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, (mod, attr, sizes) in targets.items():
            module = importlib.import_module(f"relplanck.{mod}")
            original = getattr(module, attr)
            self._patch_everywhere(original, self.wrap(name, original, sizes))
        core = importlib.import_module("relplanck.core")
        post_init = core.PhotonMode.__post_init__

        def counted_post_init(mode):
            with self._lock:
                self.counts[PHOTON_MODE_COUNT] += 1
            return post_init(mode)

        core.PhotonMode.__post_init__ = counted_post_init
        self._patches.append((core.PhotonMode, "__post_init__", post_init))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets: dict = TARGETS):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()
