"""Monte-Carlo experiment drivers: single trials, one sweep runner and CSV export.

Every trial owns derived random streams keyed by (top seed, sweep value
index, trial index), so results are independent of execution order and of
the worker count.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import realize_channels
from .pso import PsoConfig, optimize
from .scenario import (
    ScenarioConfig, _require_int, _require_ints, derive_seed, derive_stream, even_split
)

SWEEP_AXES = ("n_users", "n_selected_beams", "m_total", "n_iterations")

# disjoint stream tags for the two random consumers inside a trial
_CHANNEL_TAG = 0
_SWARM_TAG = 1


@dataclass(frozen=True)
class ExperimentSpec:
    """A sweep: base configs, the axis to vary, its values, and trial count."""

    scenario: ScenarioConfig
    pso: PsoConfig
    sweep_param: str
    sweep_values: tuple
    n_trials: int

    def __post_init__(self):
        if self.sweep_param not in SWEEP_AXES:
            raise ValueError(
                f"sweep_param must be one of {SWEEP_AXES} (got {self.sweep_param!r})"
            )
        object.__setattr__(self, "sweep_values",
                           _require_ints("sweep_values", self.sweep_values))
        _require_int("n_trials", self.n_trials, 1)
        for value in self.sweep_values:
            derive_configs(self, value)  # rejects infeasible derived configs


def derive_configs(spec, value):
    """Configs for one sweep value; raises naming the violated constraint."""
    scenario, pso_cfg = spec.scenario, spec.pso
    try:
        if spec.sweep_param == "n_users":
            scenario = dataclasses.replace(scenario, n_users=value)
        elif spec.sweep_param == "n_selected_beams":
            scenario = dataclasses.replace(scenario, n_selected_beams=value)
        elif spec.sweep_param == "m_total":
            scenario = dataclasses.replace(
                scenario, uc_per_ris=even_split(value, scenario.n_ris)
            )
        else:  # n_iterations
            pso_cfg = dataclasses.replace(pso_cfg, n_iterations=value)
    except ValueError as exc:
        raise ValueError(
            f"infeasible sweep value {spec.sweep_param}={value}: {exc}"
        ) from exc
    return scenario, pso_cfg


@dataclass(frozen=True)
class SweepResult:
    """Per-trial final sum rates and the per-value mean best-so-far trace; the
    per-value mean, standard error and trial count are read from ``rates``."""

    sweep_param: str
    sweep_values: tuple
    rates: np.ndarray  # (n_values, n_trials)
    mean_traces: tuple  # one (T_v + 1,) array per sweep value

    @property
    def n_trials(self):
        return self.rates.shape[1]

    @property
    def means(self):
        return self.rates.mean(axis=1)

    @property
    def stderrs(self):
        n = self.n_trials
        if n > 1:
            return self.rates.std(axis=1, ddof=1) / np.sqrt(n)
        return np.zeros(len(self.rates))


def run_trial(scenario, pso_cfg, trial_index):
    """One channel realization plus one swarm run on it.

    The channels and the swarm draw on two streams of ``scenario.rng_seed``.
    Returns (optimized sum rate, random-initialization baseline, trace);
    the baseline is trace index 0.
    """
    _require_int("trial_index", trial_index, 0)
    channel_rng = derive_stream(scenario.rng_seed, _CHANNEL_TAG, trial_index)
    channels = realize_channels(scenario, channel_rng)
    swarm_rng = derive_stream(scenario.rng_seed, _SWARM_TAG, trial_index)
    _, best_rate, trace = optimize(channels, scenario, pso_cfg, swarm_rng)
    return best_rate, float(trace[0]), trace


def _trial_trace(task):
    scenario, pso_cfg, trial_index = task
    return run_trial(scenario, pso_cfg, trial_index)[2]


def _value_tasks(spec):
    """Per-value derived configs, reseeded so trials depend on (top, v, t)."""
    tasks = []
    for v_index, value in enumerate(spec.sweep_values):
        scenario, pso_cfg = derive_configs(spec, value)
        scenario = dataclasses.replace(
            scenario, rng_seed=derive_seed(spec.scenario.rng_seed, v_index)
        )
        tasks.extend((scenario, pso_cfg, t) for t in range(spec.n_trials))
    return tasks


def _bundled_openblas():
    """numpy's bundled OpenBLAS as a ``ctypes`` library, or None."""
    import ctypes
    import glob
    import os

    libs = os.path.dirname(np.__file__) + ".libs"
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            return ctypes.CDLL(path)
        except OSError:
            pass
    return None


def _one_blas_thread():
    """Pool initializer: run the worker's BLAS on one thread.

    Workers share the cores, so a second BLAS thread per worker only
    oversubscribes them. Does nothing without the bundled library.
    """
    import ctypes

    lib = _bundled_openblas()
    if not (hasattr(lib, "scipy_openblas_set_num_threads64_")
            and hasattr(lib, "blas_thread_shutdown_")):
        return
    lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
    lib.scipy_openblas_set_num_threads64_.restype = None
    lib.blas_thread_shutdown_.restype = ctypes.c_int
    lib.scipy_openblas_set_num_threads64_(1)
    # setting the count restarts the thread pool that the fork stopped, and
    # its idle thread spins for about 0.1 s of CPU; at one thread BLAS never
    # restarts it once it is shut down again
    lib.blas_thread_shutdown_()


def _pool(workers):
    """A pool of processes that each run BLAS on one thread, forked on Linux
    whatever the interpreter's default start method."""
    context = multiprocessing.get_context("fork") if sys.platform == "linux" else None
    return ProcessPoolExecutor(max_workers=workers, mp_context=context,
                               initializer=_one_blas_thread)


def _run_tasks(tasks, jobs):
    _require_int("jobs", jobs, 1)
    workers = min(jobs, len(tasks))  # a pool never starts idle workers
    if workers <= 1:
        return [_trial_trace(task) for task in tasks]
    # map() preserves submission order, so aggregation ignores completion order
    with _pool(workers) as pool:
        return list(pool.map(_trial_trace, tasks))


def run_sweep(spec, jobs=1):
    """All trials for all sweep values: final rates and mean traces."""
    traces = _run_tasks(_value_tasks(spec), jobs)
    n = spec.n_trials
    rates = np.array([t[-1] for t in traces]).reshape(len(spec.sweep_values), n)
    mean_traces = tuple(
        np.mean(traces[i * n : (i + 1) * n], axis=0)
        for i in range(len(spec.sweep_values))
    )
    return SweepResult(spec.sweep_param, spec.sweep_values, rates, mean_traces)


def iterations_to_fraction(trace):
    """First iteration index where the trace reaches 95 % of its final value."""
    trace = np.asarray(trace)
    return int(np.argmax(trace >= 0.95 * trace[-1]))


def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".9g")


def _write_rows(path, rows):
    """Write rows as UTF-8 with LF line endings; returns the path."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
    return path


def summary_path_for(path):
    """Aggregate-file path derived from the detail-file path."""
    path = Path(path)
    return path.with_name(path.stem + "_summary" + path.suffix)


def emit_csv(result, path):
    """Write the detail and aggregate CSV files; returns both paths.

    Detail rows are one per (sweep value, trial); the aggregate file sits
    next to the detail file with a ``_summary`` stem suffix. Numbers carry
    9 significant digits; files are UTF-8 with LF line endings.
    """
    detail = ["sweep_param,sweep_value,trial,sum_rate_bps_hz"]
    for v_index, value in enumerate(result.sweep_values):
        detail.extend(
            f"{result.sweep_param},{_fmt(value)},{t},{_fmt(result.rates[v_index, t])}"
            for t in range(result.n_trials)
        )
    aggregate = ["sweep_value,mean,stderr,n_trials"]
    aggregate.extend(
        f"{_fmt(value)},{_fmt(mean)},{_fmt(se)},{result.n_trials}"
        for value, mean, se in zip(result.sweep_values, result.means, result.stderrs)
    )
    return _write_rows(path, detail), _write_rows(summary_path_for(path), aggregate)


def emit_convergence_csv(result, path):
    """Write sweep_value,iteration,mean_best_rate rows for every trace."""
    rows = ["sweep_value,iteration,mean_best_rate"]
    for value, trace in zip(result.sweep_values, result.mean_traces):
        rows.extend(
            f"{_fmt(value)},{i},{_fmt(r)}" for i, r in enumerate(trace)
        )
    return _write_rows(path, rows)


def emit_trace_csv(trace, path):
    """Write one trial's per-iteration best sum rate as iteration,best_rate rows."""
    rows = ["iteration,best_rate"]
    rows.extend(f"{i},{_fmt(r)}" for i, r in enumerate(trace))
    return _write_rows(path, rows)
