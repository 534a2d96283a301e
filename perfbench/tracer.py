"""Timing wrappers installed around beamswarm functions from the outside.

The program carries no spans of its own yet, so a traced run replaces the
module attributes that name each layer's functions with wrappers that time
every call, and puts the originals back afterwards. Every module attribute
bound to a target function is swapped, including re-exports, so the wrapper
runs whichever module the caller looks the name up in.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (span name, module, attribute path); spans nest through the call stack
TARGETS = (
    ("harness.run_trial", "beamswarm.harness", "run_trial"),
    ("channel.realize", "beamswarm.channel", "realize_channels"),
    ("pso.optimize", "beamswarm.pso", "optimize"),
    ("pso.init", "beamswarm.pso", "init_swarm"),
    ("linkrate.build", "beamswarm.linkrate", "SumRateEvaluator.__init__"),
    ("linkrate.sum_rates", "beamswarm.linkrate", "SumRateEvaluator.sum_rates"),
    ("linkrate.beamspace", "beamswarm.linkrate", "SumRateEvaluator.beamspace_channels"),
    ("pso.select", "beamswarm.pso", "top_beam_indices"),
    ("pso.bests", "beamswarm.pso", "update_bests"),
    ("pso.velocity", "beamswarm.pso", "update_velocity_and_position"),
    ("pso.proj_beams", "beamswarm.pso", "project_beams"),
    ("pso.proj_powers", "beamswarm.pso", "project_powers"),
    ("pso.proj_phases", "beamswarm.pso", "project_phases"),
)


def _beamspace_counts(args, kwargs, result):
    """Computed work of one phase-to-beamspace call, from array shapes."""
    evaluator = args[0]
    kn, m = evaluator._op.shape
    a = result.shape[0]
    # complex multiply-add = 8 flops; bytes: read op and phases, write and
    # read exp(1j*phases), write the (K*N, A) product
    return {
        "beamspace_flop": 8 * kn * m * a,
        "beamspace_bytes": 16 * kn * m + 8 * m * a + 2 * 16 * m * a + 16 * kn * a,
    }


def _sum_rates_counts(args, kwargs, result):
    return {"candidates": len(result)}


COUNTERS = {
    "linkrate.beamspace": _beamspace_counts,
    "linkrate.sum_rates": _sum_rates_counts,
}


class Tracer:
    """Per-span call counts, total and child nanoseconds, and work counts.

    ``keep`` names spans whose (args, kwargs, result) are saved in
    ``returns`` so the caller can check them after the timed region.
    """

    def __init__(self, keep=()):
        self.calls = Counter()
        self.total_ns = Counter()
        self.child_ns = Counter()
        self.counts = Counter()
        self.returns = []
        self.missing = []
        self._keep = frozenset(keep)
        self._stack = []

    def self_ns(self, span):
        return self.total_ns[span] - self.child_ns[span]

    def wrap(self, span, fn):
        counter = COUNTERS.get(span)
        keep = span in self._keep
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0]  # nanoseconds spent in child spans
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self.calls[span] += 1
                self.total_ns[span] += dt
                self.child_ns[span] += frame[0]
            if counter is not None:
                self.counts.update(counter(args, kwargs, result))
            if keep:
                self.returns.append((args, kwargs, result))
            return result

        return timed

    @contextmanager
    def installed(self):
        """Swap every target for its timing wrapper; restore on exit."""
        saved = []
        try:
            for span, module, path in TARGETS:
                owner_name, _, attr = path.rpartition(".")
                owner = sys.modules[module]
                if owner_name:
                    owner = getattr(owner, owner_name)
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.append(f"{module}.{path}")
                    continue
                wrapper = self.wrap(span, original)
                for holder, name in _bindings(owner, attr, original):
                    saved.append((holder, name, original))
                    setattr(holder, name, wrapper)
            yield self
        finally:
            for holder, name, original in reversed(saved):
                setattr(holder, name, original)


def _bindings(owner, attr, original):
    """Every (holder, name) whose attribute is ``original``."""
    if isinstance(owner, type):
        return [(owner, attr)]
    return [
        (module, name)
        for module_name, module in list(sys.modules.items())
        if module is not None
        and (module_name == "beamswarm" or module_name.startswith("beamswarm."))
        for name, value in list(vars(module).items())
        if value is original
    ]
