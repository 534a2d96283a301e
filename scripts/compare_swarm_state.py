"""Compare the swarm state of this tree with another tree's, bit for bit.

    python3 scripts/compare_swarm_state.py OTHER_TREE

OTHER_TREE is a checkout of the program (for example a ``git archive`` of
the parent commit) with the same package layout under ``src/``. The script
runs the same 9 configurations x 4 trials of ``optimize`` against each
tree's ``src/``, one subprocess per tree, one after the other on this
machine. For each configuration it prints whether the optimizer's
solutions, the ``population``, ``velocity`` and ``personal_best`` after
every iteration, and the traces match bitwise, and the largest relative
difference in the per-iteration qualities and in the rates (best rates and
traces). It exits 1 when a solution or a position differs, or when either
relative difference exceeds 1e-12: rates may move in their last bits when
the arithmetic is reordered, but not beyond rounding.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

# (name, make_config keywords, PsoConfig keywords)
CONFIGS = (
    ("defaults", {}, {}),
    ("m1024_t25", {"m_total": 1024}, {"n_iterations": 25}),
    ("k16_ns16_t60", {"n_users": 16, "n_selected_beams": 16}, {"n_iterations": 60}),
    ("k4_ns16", {"n_users": 4, "n_selected_beams": 16}, {}),
    ("m100_t40", {"m_total": 100}, {"n_iterations": 40}),
    ("inertia0.9_t60", {}, {"inertia": 0.9, "n_iterations": 60}),
    ("uneven_a20_t40", {"n_ris": 3, "uc_per_ris": (5, 9, 2)},
     {"n_particles": 20, "n_iterations": 40}),
    ("k16_ns16_t50_seed7", {"n_users": 16, "n_selected_beams": 16, "rng_seed": 7},
     {"n_iterations": 50}),
    # one path per link makes every surface's channel rank 1
    ("los_n32_t60", {"n_nlos_paths": 0, "n_antennas": 32}, {"n_iterations": 60}),
)
N_TRIALS = 4
RATE_TOLERANCE = 1e-12  # largest relative difference that counts as rounding
POSITIONS = ("population", "velocity", "personal_best")


def run_configs(src):
    """The digests and rates of every configuration, from the package in src."""
    sys.path.insert(0, src)
    import numpy as np

    import beamswarm
    from beamswarm.channel import realize_channels
    from beamswarm.pso import PsoConfig, optimize
    from beamswarm.scenario import derive_stream, make_config

    if not Path(beamswarm.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise RuntimeError(f"imported {beamswarm.__file__}, not the package in {src}")
    results = {}
    for name, scenario_kwargs, pso_kwargs in CONFIGS:
        scenario = make_config(**scenario_kwargs)
        pso_cfg = PsoConfig(**pso_kwargs)
        digests = {key: hashlib.sha256() for key in POSITIONS + ("solutions", "traces")}
        qualities, rates = [], []

        def record(t, swarm):
            for key in POSITIONS:
                digests[key].update(getattr(swarm, key).tobytes())
            qualities.extend(swarm.quality.tolist())

        for trial in range(N_TRIALS):
            channels = realize_channels(scenario, derive_stream(scenario.rng_seed, 0, trial))
            best, rate, trace = optimize(
                channels, scenario, pso_cfg, derive_stream(scenario.rng_seed, 1, trial),
                callback=record,
            )
            for field in (best.beam_set, best.powers, best.phases):
                digests["solutions"].update(np.ascontiguousarray(field).tobytes())
            digests["traces"].update(trace.tobytes())
            rates.append(rate)
            rates.extend(trace.tolist())
        results[name] = {
            "digests": {key: h.hexdigest() for key, h in digests.items()},
            "qualities": qualities,
            "rates": rates,
        }
    return results


def collect(tree):
    """run_configs on ``tree``'s src/, in a fresh interpreter."""
    src = str(Path(tree).resolve() / "src")
    out = subprocess.run(
        [sys.executable, __file__, "--child", src],
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def largest_rel_diff(ours, theirs):
    worst = 0.0
    for a, b in zip(ours, theirs, strict=True):
        if a != b:
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    return worst


def main(argv):
    if len(argv) == 3 and argv[1] == "--child":
        json.dump(run_configs(argv[2]), sys.stdout)
        return 0
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    here = Path(__file__).resolve().parent.parent
    ours, theirs = collect(here), collect(argv[1])
    ok, drift = True, False
    header = ("config", "solutions") + POSITIONS + ("traces", "qualities_rel", "rates_rel")
    width = max(len(name) for name, *_ in CONFIGS)
    row = lambda cells: " ".join([f"{cells[0]:<{width}}"] + [f"{c:>13}" for c in cells[1:]])
    print(row(header))
    for name, *_ in CONFIGS:
        a, b = ours[name], theirs[name]
        same = {key: a["digests"][key] == b["digests"][key] for key in a["digests"]}
        rel = [largest_rel_diff(a[key], b[key]) for key in ("qualities", "rates")]
        ok = ok and all(same[key] for key in ("solutions",) + POSITIONS)
        drift = drift or max(rel) > RATE_TOLERANCE
        cells = [name] + [
            "same" if same[key] else "DIFFERENT" for key in ("solutions",) + POSITIONS + ("traces",)
        ] + [f"{r:.2e}" for r in rel]
        print(row(cells))
    print("solutions and positions bit-identical" if ok else "solutions or positions differ")
    if drift:
        print(f"qualities or rates differ by more than rel {RATE_TOLERANCE:g}")
    return 0 if ok and not drift else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
