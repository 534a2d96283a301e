"""Run the swarm on one realization and watch the best sum rate climb."""

import numpy as np

from beamswarm import PsoConfig, make_config, optimize, realize_channels, derive_stream
from beamswarm.harness import emit_trace_csv, iterations_to_fraction

cfg = make_config(rng_seed=1)
pso_cfg = PsoConfig()  # A=50 particles, T=200 iterations

channels = realize_channels(cfg, derive_stream(cfg.rng_seed, 0))
solution, best_rate, trace = optimize(
    channels, cfg, pso_cfg, derive_stream(cfg.rng_seed, 1)
)

print(f"random initialization: {trace[0]:.3f} bit/s/Hz")
for t in (1, 5, 10, 25, 50, 100, 200):
    print(f"  after {t:3d} iterations: {trace[t]:.3f}")
print(f"final: {best_rate:.3f} bit/s/Hz "
      f"(+{best_rate - trace[0]:.3f} over the random start)")
print(f"reached 95% of the final value at iteration "
      f"{iterations_to_fraction(trace)}")

print(f"\nbest solution uses beams {solution.beam_set.tolist()}")
watts = ", ".join(f"{p:.2f}" for p in solution.powers)
print(f"power split (W): [{watts}]  (budget {cfg.total_power:.0f} W)")

emit_trace_csv(trace, "swarm_trace.csv")
print("wrote swarm_trace.csv")
