"""Regenerate the committed references under perfbench/refs/.

    python3 perfbench/make_refs.py [workload ...]

Trial workloads store the final sum rate of every pool trial index. The
sweep workload stores sha256 hashes of the detail and ``_summary`` CSVs of
every pool seed, made at ``--jobs 1`` so the ``--jobs 2`` runs are checked
against the serial result. Regenerate only when a change is meant to alter
results; the committed files are what later commits are checked against.
"""

from __future__ import annotations

import json
import subprocess
import sys

import bench


def trial_refs(workload):
    from beamswarm import harness

    scenario, pso = bench._configs(workload)
    return {"rates": [harness.run_trial(scenario, pso, i)[0] for i in range(workload.pool)]}


def sweep_refs(workload):
    def hashes(args, seed):
        argv = [*args, "--jobs", "1", "--seed", str(seed), "--out", str(out)]
        subprocess.run([sys.executable, "-m", "beamswarm", *argv], env=bench._child_env(),
                       cwd=bench.ROOT, capture_output=True, check=True)
        return bench._hashes(out)

    with bench._work_dir() as tmp:
        out = tmp / "sweep.csv"
        return {
            "setup": hashes(workload.setup_args, 0),
            "sweeps": {str(s): hashes(workload.args, s) for s in range(workload.pool)},
        }


def make_refs(workload):
    if isinstance(workload, bench.TrialWorkload):
        refs = trial_refs(workload)
    else:
        refs = sweep_refs(workload)
    return {"workload": bench.workload_key(workload), **refs}


def main(names):
    bench.REFS.mkdir(exist_ok=True)
    for name in names or bench.WORKLOADS:
        refs = make_refs(bench.WORKLOADS[name])
        path = bench.REFS / f"{name}.json"
        path.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
