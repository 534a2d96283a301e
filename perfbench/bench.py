"""Workloads, correctness gates and metrics of the beamswarm benchmark.

All load is closed-loop: the benchmark process waits for each trial or
sweep before it starts the next. Trial workloads call the public API in
process; the sweep workload starts the CLI as a child process, whose
``--jobs 2`` pool adds at most two workers. The workload seed only picks
which committed trial indices or sweep seeds a run uses, so the program
sees nothing but configs and indices.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from itertools import count
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"

# rates must match the committed references, and the batched optimizer rate
# the per-user evaluate_solution path, to this relative tolerance
RATE_RTOL = 1e-12
SETUP_REPEATS = 5
# pool workers of the sweep workload
JOBS = 2
# 100 samples leave 10 above the p90
MIN_TRIALS = 100
# stop a timed loop here whatever the floor, so a run ends within 180 s
TIMED_CAP_S = 120.0
CHILD_TIMEOUT_S = 120.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class TrialWorkload:
    """``run_trial`` in process on consecutive committed trial indices."""

    name: str
    scenario: dict  # make_config keyword arguments
    pso: dict  # PsoConfig keyword arguments
    pool: int = 256  # trial indices 0..pool-1 have committed rates


@dataclass(frozen=True)
class SweepWorkload:
    """One CLI child process per sweep at ``--jobs JOBS``."""

    name: str
    args: tuple  # CLI arguments without --jobs, --seed and --out
    pool: int = 32  # --seed values 0..pool-1 have committed CSV hashes

    def _option(self, flag):
        return self.args[self.args.index(flag) + 1]

    @property
    def trials_per_sweep(self):
        return len(self._option("--values").split(",")) * int(self._option("--trials"))

    @property
    def setup_args(self):
        """The same sweep cut to its middle value and one trial."""
        values = self._option("--values").split(",")
        one = {"--values": values[len(values) // 2], "--trials": "1"}
        args = list(self.args)
        for flag, value in one.items():
            args[args.index(flag) + 1] = value
        return tuple(args)


WORKLOADS = {
    w.name: w
    for w in (
        TrialWorkload("trial-m128", scenario={}, pso={}),
        TrialWorkload("trial-m1024", scenario={"m_total": 1024}, pso={"n_iterations": 25}),
        SweepWorkload(
            "sweep-jobs2",
            args=("sweep", "--param", "n_users", "--values", "4,8,16",
                  "--n-selected-beams", "16", "--trials", "2"),
        ),
    )
}


def pool_sequence(workload, seed):
    """Endless run of consecutive pool entries from a seed-chosen start."""
    start = random.Random(seed).randrange(workload.pool)
    return ((start + i) % workload.pool for i in count())


class Tally:
    """Attempted and failed operations; failures are reported, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what, problem):
        self.attempted += 1
        if problem:
            self.failed += 1
            print(f"FAILED {what}: {problem}", file=sys.stderr)


def _rate_problem(rate, reference):
    if abs(rate - reference) <= RATE_RTOL * abs(reference):
        return None
    return f"rate {rate!r} differs from reference {reference!r}"


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _p90(samples):
    return statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def load_refs(workload):
    """Committed references; refuses ones made for another workload config."""
    refs = json.loads((REFS / f"{workload.name}.json").read_text(encoding="utf-8"))
    made_for = refs["workload"]
    if made_for != workload_key(workload):
        raise ValueError(
            f"{workload.name}: references were made for {made_for}; "
            "regenerate them with perfbench/make_refs.py"
        )
    return refs


def workload_key(workload):
    if isinstance(workload, TrialWorkload):
        return {"scenario": workload.scenario, "pso": workload.pso, "pool": workload.pool}
    return {"args": list(workload.args), "pool": workload.pool}


def metric_units():
    """Metric names and units per mode, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def result(tally, values, traced):
    units = metric_units()[traced]
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def run(workload, seed, seconds, traced, refs=None):
    """One run of a workload; returns the result object the runner prints."""
    refs = refs or load_refs(workload)
    if isinstance(workload, TrialWorkload):
        runner = _trials_traced if traced else _trials
    else:
        runner = _sweeps_traced if traced else _sweeps
    tally = Tally()
    values = runner(workload, seed, seconds, refs, tally)
    return result(tally, values, traced)


# ---------------------------------------------------------------- trials

_SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import beamswarm
from beamswarm import harness
scenario = beamswarm.make_config(**json.loads(sys.argv[1]))
pso = beamswarm.PsoConfig(**json.loads(sys.argv[2]))
rate = harness.run_trial(scenario, pso, int(sys.argv[3]))[0]
print(json.dumps({"setup_s": time.perf_counter() - t0, "rate": rate}))
"""


def _setup_trial(workload, index, reference, tally):
    """Time importing beamswarm plus one trial in a fresh interpreter.

    Returns the seconds taken, or None when the child failed.
    """
    argv = [sys.executable, "-c", _SETUP_CHILD, json.dumps(workload.scenario),
            json.dumps(workload.pso), str(index)]
    what = f"set-up trial {index}"
    code, out, err = _child(argv)
    if code != 0:
        tally.record(what, f"exit {code}: {err.strip()}")
        return None
    try:
        outcome = json.loads(out.strip().splitlines()[-1])
        rate, seconds = outcome["rate"], outcome["setup_s"]
    except (IndexError, ValueError, KeyError, TypeError) as exc:
        tally.record(what, f"unreadable output {out!r}: {type(exc).__name__}: {exc}")
        return None
    tally.record(what, _rate_problem(rate, reference))
    return seconds


def _child(argv):
    """Run a child process to its end; returns (exit code, stdout, stderr).

    The child leads its own process group, so on time-out its pool
    workers are killed with it.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=_child_env(), cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nkilled after {CHILD_TIMEOUT_S} s"
    return proc.returncode, out, err


def _configs(workload):
    import beamswarm

    return beamswarm.make_config(**workload.scenario), beamswarm.PsoConfig(**workload.pso)


def _checked_trial(scenario, pso, index, reference, tally):
    from beamswarm import harness

    try:
        rate = harness.run_trial(scenario, pso, index)[0]
    except Exception as exc:  # a failing trial is counted, the run goes on
        tally.record(f"trial {index}", f"{type(exc).__name__}: {exc}")
        return
    tally.record(f"trial {index}", _rate_problem(rate, reference))


def _trials(workload, seed, seconds, refs, tally):
    rates = refs["rates"]
    indices = pool_sequence(workload, seed)
    warm = next(indices)
    setups = [_setup_trial(workload, warm, rates[warm], tally) for _ in range(SETUP_REPEATS)]
    scenario, pso = _configs(workload)
    _checked_trial(scenario, pso, warm, rates[warm], tally)

    ms, elapsed = [], 0.0
    start = time.perf_counter()
    while (elapsed < seconds or len(ms) < MIN_TRIALS) and elapsed < TIMED_CAP_S:
        index = next(indices)
        t0 = time.perf_counter()
        _checked_trial(scenario, pso, index, rates[index], tally)
        t1 = time.perf_counter()
        ms.append((t1 - t0) * 1e3)
        elapsed = t1 - start
    return {
        "trials_per_s": len(ms) / elapsed,
        "trial_ms_p50": statistics.median(ms),
        "trial_ms_p90": _p90(ms),
        "setup_s": statistics.median([s for s in setups if s is not None] or [float("nan")]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _check_optimize_returns(tracer, tally, improving):
    """Batched optimizer rate against the per-user evaluate_solution path."""
    import numpy as np
    from beamswarm import evaluate_solution

    what = "optimize vs evaluate_solution"
    for args, _, (solution, rate, trace) in tracer.returns:
        channels, scenario = args[0], args[1]
        try:
            expected = evaluate_solution(channels, solution, scenario.noise_variance)
        except Exception as exc:  # counted like a wrong rate
            tally.record(what, f"{type(exc).__name__}: {exc}")
        else:
            tally.record(what, _rate_problem(rate, expected))
        improving[0] += int(np.count_nonzero(np.diff(trace) > 0))
        improving[1] += len(trace) - 1
    tracer.returns.clear()


def _trials_traced(workload, seed, seconds, refs, tally):
    from tracer import Tracer

    rates = refs["rates"]
    scenario, pso = _configs(workload)
    indices = pool_sequence(workload, seed)
    warm = next(indices)
    _checked_trial(scenario, pso, warm, rates[warm], tally)

    tracer = Tracer(keep={"pso.optimize"})
    improving = [0, 0]
    ratios, traced_s, cpu_s = [], 0.0, 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        index = next(indices)
        wall = {}
        # alternate which copy runs first so drift hits both alike
        for traced in (True, False) if len(ratios) % 2 == 0 else (False, True):
            with tracer.installed() if traced else contextlib.nullcontext():
                c0, t0 = _cpu_s(), time.perf_counter()
                _checked_trial(scenario, pso, index, rates[index], tally)
                wall[traced] = time.perf_counter() - t0
                if traced:
                    cpu_s += _cpu_s() - c0
        _check_optimize_returns(tracer, tally, improving)
        traced_s += wall[True]
        ratios.append(wall[True] / wall[False])

    values = _layer_values(tracer, traced_s, improving)
    values["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    values["harness.cpu_per_trial_s"] = cpu_s / len(ratios)
    values["harness.cpu_per_wall"] = cpu_s / traced_s
    values["harness.jobs2_speedup"] = _pool_speedup(scenario, pso, tally)
    return values


def _pool_speedup(scenario, pso, tally):
    """Wall time of one two-trial sweep at jobs 1 over the same at jobs 2.

    NaN when a sweep failed; the failure is counted.
    """
    from beamswarm import ExperimentSpec, run_sweep

    spec = ExperimentSpec(scenario=scenario, pso=pso, sweep_param="n_iterations",
                          sweep_values=(pso.n_iterations,), n_trials=2)
    walls = {1: [], JOBS: []}
    rates = {}
    for jobs in (1, JOBS, JOBS, 1):
        t0 = time.perf_counter()
        try:
            rates[jobs] = run_sweep(spec, jobs=jobs).rates
        except Exception as exc:  # counted, the run goes on
            tally.record(f"in-process sweep jobs={jobs}", f"{type(exc).__name__}: {exc}")
            continue
        walls[jobs].append(time.perf_counter() - t0)
    if not (walls[1] and walls[JOBS]):
        return float("nan")
    same = (rates[1] == rates[JOBS]).all()
    tally.record("jobs 1 vs jobs 2 rates", None if same else "rates depend on --jobs")
    return statistics.median(walls[1]) / statistics.median(walls[JOBS])


_LAYER_SPANS = {
    # metric: (span, self time?) -- self times partition a traced trial
    "channel.realize_ms": ("channel.realize", False),
    "linkrate.build_ms": ("linkrate.build", False),
    "linkrate.beamspace_ms": ("linkrate.beamspace", False),
    "linkrate.rate_kernel_self_ms": ("linkrate.sum_rates", True),
    "pso.init_ms": ("pso.init", True),
    "pso.select_ms": ("pso.select", False),
    "pso.bests_ms": ("pso.bests", False),
    "pso.velocity_self_ms": ("pso.velocity", True),
    "pso.proj_beams_ms": ("pso.proj_beams", False),
    "pso.proj_powers_ms": ("pso.proj_powers", False),
    "pso.proj_phases_ms": ("pso.proj_phases", False),
    "pso.loop_self_ms": ("pso.optimize", True),
}
# spans whose self time is a residual rather than timed work: leaving them
# out of trace.accounted_frac lets it fall when a layer's span is missing
_UNACCOUNTED = ("harness.run_trial", "pso.optimize")


def _layer_values(tracer, traced_s, improving):
    """Per-trial layer metrics from a tracer that saw whole trials."""
    from tracer import TARGETS

    if tracer.missing:
        print(f"note: not traced (absent): {', '.join(tracer.missing)}", file=sys.stderr)
    trials = max(tracer.calls["harness.run_trial"], 1)

    def per_trial_ms(ns):
        return ns / 1e6 / trials

    values = {
        metric: per_trial_ms(tracer.self_ns(span) if own else tracer.total_ns[span])
        for metric, (span, own) in _LAYER_SPANS.items()
    }
    beamspace_s = tracer.total_ns["linkrate.beamspace"] / 1e9
    flop = tracer.counts["beamspace_flop"]
    values["linkrate.beamspace_gflops"] = flop / 1e9 / beamspace_s if beamspace_s else 0.0
    values["linkrate.candidates"] = tracer.counts["candidates"] / trials
    values["computed.beamspace_gflop"] = flop / 1e9 / trials
    values["computed.beamspace_mb"] = tracer.counts["beamspace_bytes"] / 1e6 / trials
    values["pso.improving_iter_frac"] = improving[0] / improving[1] if improving[1] else 0.0
    values["harness.trial_ms"] = per_trial_ms(tracer.total_ns["harness.run_trial"])
    layered_ns = sum(tracer.self_ns(span) for span, _, _ in TARGETS if span not in _UNACCOUNTED)
    values["trace.accounted_frac"] = layered_ns / 1e9 / traced_s if traced_s else 0.0
    for span, _, _ in TARGETS:
        values[f"calls.{span}"] = tracer.calls[span] / trials
    return values


# ---------------------------------------------------------------- sweeps


def _csv_pair(out):
    return out, out.with_name(out.stem + "_summary" + out.suffix)


def _hashes(out):
    return [hashlib.sha256(p.read_bytes()).hexdigest() for p in _csv_pair(out)]


def _remove_csvs(out):
    for path in _csv_pair(out):
        path.unlink(missing_ok=True)


def _csv_problem(out, expected):
    try:
        got = _hashes(out)
    except OSError as exc:
        return f"missing CSV output: {exc}"
    return None if got == expected else f"CSV hashes {got} differ from references {expected}"


def _sweep_child(args, jobs, seed, out, expected, tally):
    """Run one CLI sweep as a child process; returns (wall s, CPU s)."""
    argv = [sys.executable, "-m", "beamswarm", *args, "--jobs", str(jobs),
            "--seed", str(seed), "--out", str(out)]
    c0, t0 = _cpu_s(), time.perf_counter()
    code, _, err = _child(argv)
    wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
    problem = f"exit {code}: {err.strip()}" if code != 0 else _csv_problem(out, expected)
    tally.record(f"sweep jobs={jobs} seed={seed}", problem)
    _remove_csvs(out)
    return wall, cpu


@contextlib.contextmanager
def _work_dir():
    """A temporary directory inside the checkout, removed afterwards."""
    path = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _sweeps(workload, seed, seconds, refs, tally):
    seeds = pool_sequence(workload, seed)
    with _work_dir() as tmp:
        out = tmp / "sweep.csv"
        setups = [
            _sweep_child(workload.setup_args, JOBS, 0, out, refs["setup"], tally)[0]
            for _ in range(SETUP_REPEATS)
        ]
        per_trial_ms, walls = [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            s = next(seeds)
            wall, _ = _sweep_child(workload.args, JOBS, s, out,
                                   refs["sweeps"][str(s)], tally)
            walls.append(wall)
            per_trial_ms.append(wall * 1e3 / workload.trials_per_sweep)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "trials_per_s": len(walls) * workload.trials_per_sweep / sum(walls),
        "trial_ms_p50": statistics.median(per_trial_ms),
        "trial_ms_p90": _p90(per_trial_ms),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": (own + kids) / 1024,
    }


def _sweep_in_process(workload, seed, out, expected, tracer, tally):
    """The same sweep through ``cli.main`` at --jobs 1; returns wall s."""
    from beamswarm import cli

    argv = [*workload.args, "--jobs", "1", "--seed", str(seed), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - t0
    what = f"in-process sweep seed={seed}"
    tally.record(what, f"exit {code}" if code else _csv_problem(out, expected))
    _remove_csvs(out)
    return wall


def _sweeps_traced(workload, seed, seconds, refs, tally):
    """Child sweeps at jobs 1 and 2, plus traced in-process jobs-1 sweeps.

    Pool workers are out of reach of the wrappers, so the layers are timed
    on the same sweeps run in process at --jobs 1.
    """
    from tracer import Tracer

    tracer = Tracer(keep={"pso.optimize"})
    improving = [0, 0]
    seeds = pool_sequence(workload, seed)
    walls = {1: [], JOBS: []}
    cpu = []
    ratios, traced_s = [], 0.0
    with _work_dir() as tmp:
        out = tmp / "sweep.csv"
        start = time.perf_counter()
        while not ratios or time.perf_counter() - start < seconds:
            s = next(seeds)
            expected = refs["sweeps"][str(s)]
            order = (JOBS, 1) if len(ratios) % 2 == 0 else (1, JOBS)
            for jobs in order:
                wall, cpu_s = _sweep_child(workload.args, jobs, s, out, expected, tally)
                walls[jobs].append(wall)
                if jobs == JOBS:
                    cpu.append(cpu_s)
            wall = {}
            for traced in (True, False) if len(ratios) % 2 == 0 else (False, True):
                wall[traced] = _sweep_in_process(workload, s, out, expected,
                                                 tracer if traced else None, tally)
            _check_optimize_returns(tracer, tally, improving)
            traced_s += wall[True]
            ratios.append(wall[True] / wall[False])

    values = _layer_values(tracer, traced_s, improving)
    values["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    pooled_wall = sum(walls[JOBS])
    values["harness.cpu_per_trial_s"] = sum(cpu) / (len(cpu) * workload.trials_per_sweep)
    values["harness.cpu_per_wall"] = sum(cpu) / pooled_wall
    values["harness.jobs2_speedup"] = statistics.median(walls[1]) / statistics.median(walls[JOBS])
    return values


# ---------------------------------------------------------------- environment


def environment():
    """Where a result was measured: cores, interpreter, BLAS, threads, commit."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "start_method": multiprocessing.get_start_method(),
        "git_commit": _git_commit(),
        "src_sha256": _tree_digest(SRC),
    }


def _git_commit():
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _tree_digest(root):
    """sha256 over the Python sources, which identifies code without git."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()
