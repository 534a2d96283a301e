"""Run one beamswarm benchmark workload and print its result.

    python3 perfbench/run.py --workload trial-m128 --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. The line before it is the environment block. Failed checks
are counted and listed on standard error; they do not stop the run.

``--workload all`` runs every workload in turn and ends with a table.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "beamswarm" / "__init__.py").is_file():
        print(f"error: no beamswarm package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import bench

    if args.workload == "all":
        return _run_all(args, bench.WORKLOADS)
    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)} or all")
    outcome = bench.run(bench.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("environment " + json.dumps(bench.environment()))
    print(json.dumps(outcome))
    return 0


def _run_all(args, workloads):
    """Each workload in its own interpreter, then one table of metrics."""
    rows = []
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        *head, last = proc.stdout.strip().splitlines()
        print(head[-1])  # environment block
        outcome = json.loads(last)
        rows.append((name, "failed_frac", outcome["failed"] / outcome["attempted"], "frac"))
        rows.extend(
            (name, metric, m["value"], m["unit"]) for metric, m in outcome["metrics"].items()
        )
    for name, metric, value, unit in rows:
        print(f"{name:<12} {metric:<36} {value:>14.6g} {unit}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
