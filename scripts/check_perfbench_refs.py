"""Check the program against every committed perfbench reference.

    python3 scripts/check_perfbench_refs.py

A timed benchmark run only reaches the pool entries its time allows. This
script visits all of them with the benchmark's own checks: every committed
trial index of the trial workloads in process (rates to the benchmark's
relative tolerance), and every committed seed of the sweep workload plus
its set-up sweep as CLI children (CSV files by sha256). It prints one line
per workload and exits 1 when any check failed; failures are listed on
standard error.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import bench  # noqa: E402


def check(workload):
    """A tally of the workload's reference checks."""
    refs = bench.load_refs(workload)
    tally = bench.Tally()
    if isinstance(workload, bench.TrialWorkload):
        scenario, pso = bench._configs(workload)
        for index, reference in enumerate(refs["rates"]):
            bench._checked_trial(scenario, pso, index, reference, tally)
        return tally
    with bench._work_dir() as tmp:
        out = tmp / "sweep.csv"
        bench._sweep_child(workload.setup_args, bench.JOBS, 0, out, refs["setup"], tally)
        for seed, expected in refs["sweeps"].items():
            bench._sweep_child(workload.args, bench.JOBS, int(seed), out, expected, tally)
    return tally


def main():
    ok = True
    for name, workload in bench.WORKLOADS.items():
        tally = check(workload)
        print(f"{name}: {tally.attempted - tally.failed} of {tally.attempted} references match")
        ok = ok and tally.attempted > 0 and tally.failed == 0
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
