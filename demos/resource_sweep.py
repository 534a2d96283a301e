"""Desk-scale sweep: how the mean sum rate grows with the user count.

Uses 20 trials per point so it finishes in well under a minute; the CLI
(`beamswarm sweep --trials 200 ...`) reproduces the full-size version.
"""

from beamswarm import ExperimentSpec, PsoConfig, emit_csv, make_config, run_sweep

spec = ExperimentSpec(
    scenario=make_config(n_selected_beams=16, rng_seed=0),
    pso=PsoConfig(),
    sweep_param="n_users",
    sweep_values=(4, 8, 16),
    n_trials=20,
)

result = run_sweep(spec)
emit_csv(result, "user_sweep.csv")
print("users   mean rate (bit/s/Hz)   stderr")
for value, mean, se in zip(result.sweep_values, result.means, result.stderrs):
    print(f"{value:5d}   {mean:20.3f}   {se:6.3f}")

print("\nat 20 trials the K=8 and K=16 points overlap within noise;")
print("the 200-trial acceptance run separates them cleanly")
print("wrote user_sweep.csv and user_sweep_summary.csv")
