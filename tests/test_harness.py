import dataclasses
import os

import numpy as np
import pytest

from beamswarm import harness
from beamswarm.harness import (
    ExperimentSpec,
    SweepResult,
    derive_configs,
    emit_convergence_csv,
    emit_csv,
    emit_trace_csv,
    iterations_to_fraction,
    run_sweep,
    run_trial,
    summary_path_for,
)
from beamswarm.channel import realize_channels
from beamswarm.pso import PsoConfig, optimize
from beamswarm.scenario import derive_seed, derive_stream, make_config
from test_boundary import ENTRY, TABLE, rejects_as_numpy


def _blas_threads(_):
    """The worker's BLAS thread count and, where /proc shows it, its number
    of threads, which an idle BLAS pool would raise."""
    tasks = "/proc/self/task"
    n_threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else 1
    return harness._bundled_openblas().scipy_openblas_get_num_threads64_(), n_threads


def _base_scenario(seed=11):
    return make_config(n_antennas=8, n_users=2, n_ris=2, m_total=8,
                       n_selected_beams=4, rng_seed=seed)


def _base_pso():
    return PsoConfig(n_particles=4, n_iterations=5)


def _spec(**overrides):
    base = dict(
        scenario=_base_scenario(),
        pso=_base_pso(),
        sweep_param="n_users",
        sweep_values=(2, 4),
        n_trials=2,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="sweep_param must be one of"):
            _spec(sweep_param="carrier_freq_ghz")

    def test_rejects_infeasible_derived_config(self):
        # n_users=16 would exceed the base n_selected_beams=4
        with pytest.raises(ValueError, match="infeasible sweep value n_users=16"):
            _spec(sweep_values=(2, 16))

    def test_rejects_m_total_below_surface_count(self):
        with pytest.raises(ValueError, match="infeasible sweep value m_total=1"):
            _spec(sweep_param="m_total", sweep_values=(1,))

    @pytest.mark.parametrize("key, cls", [
        ("ExperimentSpec.n_trials", "fraction"), ("ExperimentSpec.n_trials", "float"),
        ("ExperimentSpec.sweep_values", "fraction"), ("ExperimentSpec.sweep_values", "float"),
        ("ExperimentSpec.sweep_values", "str")], ids=[
        "overrides0-n_trials", "overrides1-n_trials", r"overrides2-sweep_values\[0\]",
        r"overrides3-sweep_values\[1\]", r"overrides4-sweep_values\[0\]"])
    def test_rejects_non_integral_counts(self, key, cls):
        rejects_as_numpy(key, cls)  # sweep values read out of an array

    def test_values_are_tuplized(self):
        spec = _spec(sweep_values=[2, 4])
        assert spec.sweep_values == (2, 4)


class TestDeriveConfigs:
    def test_n_users_axis(self):
        spec = _spec()
        scenario, pso = derive_configs(spec, 4)
        assert scenario.n_users == 4
        assert pso is spec.pso

    def test_n_selected_beams_axis(self):
        spec = _spec(sweep_param="n_selected_beams", sweep_values=(4, 6))
        scenario, _ = derive_configs(spec, 6)
        assert scenario.n_selected_beams == 6

    def test_m_total_axis_splits_evenly(self):
        spec = _spec(sweep_param="m_total", sweep_values=(6, 8))
        scenario, _ = derive_configs(spec, 6)
        assert scenario.uc_per_ris == (3, 3)
        assert scenario.total_uc == 6

    def test_n_iterations_axis_touches_only_pso(self):
        spec = _spec(sweep_param="n_iterations", sweep_values=(3, 9))
        scenario, pso = derive_configs(spec, 9)
        assert pso.n_iterations == 9
        assert scenario is spec.scenario


class TestRunTrial:
    def test_outputs_are_welded_to_the_trace(self):
        best, baseline, trace = run_trial(_base_scenario(), _base_pso(), 0)
        assert baseline == trace[0]
        assert best == trace[-1]
        assert best >= baseline
        assert np.all(np.diff(trace) >= 0.0)
        assert trace.shape == (6,)

    def test_deterministic_in_trial_index(self):
        args = (_base_scenario(), _base_pso())
        _, _, t1 = run_trial(*args, 3)
        _, _, t2 = run_trial(*args, 3)
        assert np.array_equal(t1, t2)
        _, _, t3 = run_trial(*args, 4)
        assert not np.array_equal(t1, t3)

    def test_both_streams_come_from_the_scenario_seed(self):
        scenario, pso = _base_scenario(), _base_pso()
        channels = realize_channels(scenario, derive_stream(11, 0, 2))
        _, rate, _ = optimize(channels, scenario, pso, derive_stream(11, 1, 2))
        assert run_trial(scenario, pso, 2)[0] == rate


class TestRunSweep:
    def test_shapes_and_aggregates(self):
        result = run_sweep(_spec())
        assert isinstance(result, SweepResult)
        assert result.rates.shape == (2, 2)
        assert len(dataclasses.fields(result)) == 4  # the aggregates are not fields
        assert result.means == pytest.approx(result.rates.mean(axis=1))
        assert result.stderrs == pytest.approx(
            result.rates.std(axis=1, ddof=1) / np.sqrt(2)
        )
        assert np.all(result.rates > 0.0)

    def test_rates_match_independently_recomputed_trials(self):
        spec = _spec()
        result = run_sweep(spec)
        for v_index, value in enumerate(spec.sweep_values):
            scenario, pso = derive_configs(spec, value)
            scenario = dataclasses.replace(
                scenario, rng_seed=derive_seed(spec.scenario.rng_seed, v_index)
            )
            traces = []
            for t in range(spec.n_trials):
                best, _, trace = run_trial(scenario, pso, t)
                assert result.rates[v_index, t] == best == trace[-1]
                traces.append(trace)
            assert np.array_equal(
                result.mean_traces[v_index], np.mean(traces, axis=0)
            )

    def test_worker_count_does_not_change_results(self):
        spec = _spec()
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=2)
        assert np.array_equal(serial.rates, parallel.rates)

    def test_one_task_runs_in_process(self, monkeypatch):
        spec = _spec(sweep_values=(2,), n_trials=1)
        serial = run_sweep(spec, jobs=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-task sweep started a process pool")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        assert np.array_equal(run_sweep(spec, jobs=2).rates, serial.rates)

    def test_pool_has_no_more_workers_than_tasks(self, monkeypatch):
        sizes = []
        options = []

        class InlinePool:
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                options.append(kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        run_sweep(_spec(sweep_values=(2,), n_trials=3), jobs=4)
        run_sweep(_spec(), jobs=2)
        assert sizes == [3, 2]
        assert all(o["initializer"] is harness._one_blas_thread for o in options)

    def test_pool_workers_run_one_blas_thread(self):
        lib = harness._bundled_openblas()
        symbols = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_set_num_threads64_", "blas_thread_shutdown_")
        if not all(hasattr(lib, name) for name in symbols):
            pytest.skip("numpy bundles no scipy-openblas thread control")
        before = lib.scipy_openblas_get_num_threads64_()
        with harness._pool(2) as pool:
            assert list(pool.map(_blas_threads, range(2))) == [(1, 1), (1, 1)]
        assert lib.scipy_openblas_get_num_threads64_() == before

    def test_single_trial_has_zero_stderr(self):
        result = run_sweep(_spec(n_trials=1))
        assert result.rates.shape == (2, 1)
        assert np.all(result.stderrs == 0.0)


# numpy scalars, such as entries read out of an array, meet the checks that
# tests/test_boundary.py's table puts to Python values
SIZES = ("ExperimentSpec.n_trials", "PsoConfig.n_iterations", "ScenarioConfig.n_antennas",
         "ScenarioConfig.n_nlos_paths", "ScenarioConfig.n_users", "ScenarioConfig.rng_seed",
         "ScenarioConfig.uc_per_ris", "run_trial.trial_index")
BOOLS = {**{key: key for key in SIZES + (
    "ExperimentSpec.sweep_values", "PsoConfig.n_particles",
    "ScenarioConfig.n_selected_beams", "make_config.m_total")},
    "ScenarioConfig.n_ris": "make_config.n_ris", "jobs": "run_sweep.jobs"}
NON_INTEGRAL = {
    "trial_index_float": ("run_trial.trial_index", "float"),
    "trial_index_str": ("run_trial.trial_index", "str"),
    "derive_stream_float": ("derive_stream.seed", "fraction"),
    "derive_seed_float_key": ("derive_seed.key", "fraction"),
    "derive_seed_bool_seed": ("derive_seed.seed", "bool"),
    "derive_stream_bool_key": ("derive_stream.key", "bool"),
    **{f"{entry}_negative_{arg}": (f"{entry}.{arg}", "below")
       for entry in ("derive_stream", "derive_seed") for arg in ("seed", "key")},
    "m_total_float": ("make_config.m_total", "fraction"),
    "m_total_nan": ("make_config.m_total", "nan"),
    "m_total_str": ("make_config.m_total", "str"),
    "n_ris_float": ("make_config.n_ris", "float"),
    "dft_matrix_float": ("dft_matrix.n", "fraction"),
    "steering_float": ("steering.n_elements", "float")}


@pytest.mark.parametrize("key", BOOLS.values(), ids=BOOLS)
def test_booleans_are_not_sizes(key):
    rejects_as_numpy(key, "bool")


@pytest.mark.parametrize("key, cls", NON_INTEGRAL.values(), ids=NON_INTEGRAL)
def test_non_integral_indices_are_rejected_not_truncated(key, cls):
    rejects_as_numpy(key, cls)


BOUNDS = {**{key: key for key in SIZES + (
    "dft_matrix.n", "make_config.n_ris", "steering.n_elements")},
    "make_config.n_ris_with_uc_per_ris": "make_config(uc_per_ris=(16,)).n_ris",
    "jobs": "run_sweep.jobs"}


@pytest.mark.parametrize("key", BOUNDS.values(), ids=BOUNDS)
def test_integer_bounds_name_the_field(key):
    """The table rejects one below the bound its message names; the bound
    itself passes."""
    entry, arg = key.rsplit(".", 1)
    below = TABLE[key]["below"][0]
    bound = below[:-1] + (below[-1] + 1,) if isinstance(below, tuple) else below + 1
    fits = {"n_users": 1, "n_selected_beams": 1} if arg == "n_antennas" else {}
    ENTRY[entry](**{arg: bound}, **fits)


def _toy_result():
    rates = np.array([[1.0 / 3.0, 2.0 / 3.0], [1.25, 1.75]])
    return SweepResult("n_users", (2, 4), rates,
                       (np.array([0.25, 0.5]), np.array([1.0, 1.5])))


class TestEmitCsv:
    def test_detail_and_aggregate_layout(self, tmp_path):
        detail, summary = emit_csv(_toy_result(), tmp_path / "out.csv")
        lines = detail.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "sweep_param,sweep_value,trial,sum_rate_bps_hz"
        assert lines[1] == "n_users,2,0,0.333333333"
        assert lines[2] == "n_users,2,1,0.666666667"
        assert len(lines) == 5
        agg = summary.read_text(encoding="utf-8").splitlines()
        assert agg[0] == "sweep_value,mean,stderr,n_trials"
        assert agg[1].startswith("2,0.5,")
        assert agg[2].startswith("4,1.5,")

    def test_aggregate_mean_recomputable_from_detail(self, tmp_path):
        detail, summary = emit_csv(_toy_result(), tmp_path / "out.csv")
        rows = [
            line.split(",")
            for line in detail.read_text(encoding="utf-8").splitlines()[1:]
        ]
        by_value = {}
        for _, value, _, rate in rows:
            by_value.setdefault(value, []).append(float(rate))
        for line in summary.read_text(encoding="utf-8").splitlines()[1:]:
            value, mean, _, n = line.split(",")
            assert len(by_value[value]) == int(n)
            assert float(mean) == pytest.approx(np.mean(by_value[value]), rel=1e-7)

    def test_lf_only_and_reemit_identical(self, tmp_path):
        detail, summary = emit_csv(_toy_result(), tmp_path / "a.csv")
        first = detail.read_bytes(), summary.read_bytes()
        assert b"\r" not in first[0] and b"\r" not in first[1]
        detail2, summary2 = emit_csv(_toy_result(), tmp_path / "b.csv")
        assert (detail2.read_bytes(), summary2.read_bytes()) == first

    def test_summary_path(self, tmp_path):
        assert summary_path_for("out/x.csv").name == "x_summary.csv"
        assert summary_path_for(tmp_path / "r.csv") == tmp_path / "r_summary.csv"


class TestConvergence:
    def test_traces_follow_iteration_budgets(self):
        spec = _spec(sweep_param="n_iterations", sweep_values=(3, 6))
        result = run_sweep(spec)
        assert isinstance(result, SweepResult)
        assert [t.size for t in result.mean_traces] == [4, 7]
        for trace, means in zip(result.mean_traces, result.means):
            assert np.all(np.diff(trace) >= 0.0)
            assert trace[-1] == pytest.approx(means)

    def test_emit_convergence_csv(self, tmp_path):
        result = SweepResult("m_total", (4, 8), np.array([[2.0], [2.5]]),
                             (np.array([1.0, 2.0]), np.array([1.5, 2.5])))
        path = emit_convergence_csv(result, tmp_path / "conv.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == [
            "sweep_value,iteration,mean_best_rate",
            "4,0,1",
            "4,1,2",
            "8,0,1.5",
            "8,1,2.5",
        ]


def test_emit_trace_csv(tmp_path):
    path = emit_trace_csv(np.array([1.0, 2.5, 2.5]), tmp_path / "trace.csv")
    text = path.read_text(encoding="utf-8")
    assert text == "iteration,best_rate\n0,1\n1,2.5\n2,2.5\n"


class TestIterationsToFraction:
    def test_first_crossing(self):
        assert iterations_to_fraction(np.array([0.0, 5.0, 9.5, 10.0])) == 2

    def test_flat_trace_crosses_immediately(self):
        assert iterations_to_fraction(np.array([2.0, 2.0, 2.0])) == 0
