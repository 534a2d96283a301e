"""Acceptance suite: eight end-to-end guarantees, one test per criterion.

The Monte-Carlo grid points behind criteria 4 and 5 are cached at module
level, and criterion 3 keeps its per-run traces, so criterion 6 can audit
every trace these tests produce without re-running anything. The full file
takes several minutes on one core; run it with ``pytest -v`` to get one
pass/fail line per criterion.
"""

import itertools
import time

import numpy as np
import pytest

from beamswarm.channel import (
    cascaded_spatial,
    dft_matrix,
    realize_channels,
    to_beamspace,
)
from beamswarm.cli import main
from beamswarm.harness import run_trial, summary_path_for
from beamswarm.linkrate import SumRateEvaluator, evaluate_solution, sum_rate
from beamswarm.pso import PsoConfig, Solution, optimize, top_beam_indices
from beamswarm.scenario import derive_seed, derive_stream, make_config

N_TRIALS = 200

# (n_users, n_selected_beams, m_total) -> per-trial rates, baselines, traces
_MC_CACHE = {}
_TINY_RUNS = []


def _mc_point(n_users, n_selected, m_total):
    """Seeded trials at one (K, N_s, M) grid point, defaults elsewhere."""
    key = (n_users, n_selected, m_total)
    if key not in _MC_CACHE:
        scenario = make_config(
            n_users=n_users,
            n_selected_beams=n_selected,
            m_total=m_total,
            rng_seed=derive_seed(101, *key),
        )
        pso_cfg = PsoConfig(rng_seed=derive_seed(202, *key))
        runs = [run_trial(scenario, pso_cfg, t) for t in range(N_TRIALS)]
        _MC_CACHE[key] = {
            "rates": np.array([r[0] for r in runs]),
            "baselines": np.array([r[1] for r in runs]),
            "traces": [r[2] for r in runs],
        }
    return _MC_CACHE[key]


def _tiny_runs():
    """Tiny-instance PSO runs paired with an exhaustive grid oracle.

    N=4, K=2, N_s=2, J=1, M=4; the oracle enumerates all 6 beam pairs x
    4 phase levels per unit cell x 11 power splits (16896 candidates).
    """
    if _TINY_RUNS:
        return _TINY_RUNS
    scenario = make_config(n_antennas=4, n_users=2, n_ris=1, m_total=4,
                           n_selected_beams=2, rng_seed=11)
    pso_cfg = PsoConfig(rng_seed=13)  # A=50, T=200

    pairs = np.array(list(itertools.combinations(range(4), 2)))
    levels = np.array(
        list(itertools.product(np.arange(4) * (np.pi / 2.0), repeat=4))
    )
    splits = np.linspace(0.0, 1.0, 11)
    pair_idx = np.repeat(np.arange(len(pairs)), len(levels) * len(splits))
    level_idx = np.tile(np.repeat(np.arange(len(levels)), len(splits)), len(pairs))
    split_idx = np.tile(np.arange(len(splits)), len(pairs) * len(levels))
    beam_sets = pairs[pair_idx].T
    phases = levels[level_idx].T
    p_first = splits[split_idx] * scenario.total_power
    powers = np.vstack([p_first, scenario.total_power - p_first])

    for run in range(50):
        channels = realize_channels(
            scenario, derive_stream(scenario.rng_seed, 0, run)
        )
        grid = SumRateEvaluator(channels).sum_rates(
            phases, beam_sets, powers, scenario.noise_variance
        )
        top = int(np.argmax(grid))
        # cross-check the winning cell against the plain one-solution path
        winner = Solution(beam_set=beam_sets[:, top],
                          powers=powers[:, top], phases=phases[:, top])
        assert evaluate_solution(
            channels, winner, scenario.noise_variance
        ) == pytest.approx(grid[top], rel=1e-10)

        init_best = []

        def record(t, swarm):
            if t == 0:
                init_best.append(float(np.max(swarm.quality)))

        _, pso_rate, trace = optimize(
            channels, scenario, pso_cfg,
            derive_stream(pso_cfg.rng_seed, 1, run), callback=record,
        )
        _TINY_RUNS.append({
            "oracle": float(grid[top]),
            "pso": pso_rate,
            "trace": trace,
            "init_best": init_best[0],
        })
    return _TINY_RUNS


def test_criterion_1_unitary_beamspace_transform():
    """||U^H U - I||_F < 1e-12; beamspace == spatial rate at full selection."""
    for n in (4, 16, 64):
        u = dft_matrix(n)
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) < 1e-12

    cfg = make_config()
    full = np.arange(cfg.n_antennas)
    for i in range(100):
        channels = realize_channels(cfg, derive_stream(7, i))
        rng = derive_stream(8, i)
        phases = 2.0 * np.pi * rng.random(cfg.total_uc)
        powers = rng.random(cfg.n_users)
        powers *= cfg.total_power / powers.sum()
        h_bar = cascaded_spatial(channels, phases)
        h_beam = to_beamspace(h_bar, channels.dft_matrix)
        spatial = sum_rate(h_bar, full, powers, cfg.noise_variance).sum_rate
        beam = sum_rate(h_beam, full, powers, cfg.noise_variance).sum_rate
        assert beam == pytest.approx(spatial, rel=1e-9)


def test_criterion_2_constraint_feasibility():
    """50 seeds x 200 iterations at defaults: every column stays feasible."""
    cfg = make_config()
    pso_cfg = PsoConfig()
    n, k = cfg.n_antennas, cfg.n_users
    columns_checked = 0

    def check(t, swarm):
        nonlocal columns_checked
        f = swarm.population
        beams, powers, phases = f[:n], f[n : n + k], f[n + k :]
        assert beams.min() >= 0.0 and beams.max() <= 1.0
        assert np.all(beams.max(axis=0) == 1.0)
        assert powers.min() >= 0.0
        assert np.allclose(powers.sum(axis=0), cfg.total_power, rtol=1e-9, atol=0.0)
        assert phases.min() >= 0.0 and phases.max() <= 2.0 * np.pi
        idx = top_beam_indices(beams, cfg.n_selected_beams)
        assert idx.shape[0] == cfg.n_selected_beams
        assert np.all(np.diff(idx, axis=0) > 0)  # N_s distinct beams
        columns_checked += f.shape[1]

    for seed in range(50):
        channels = realize_channels(cfg, derive_stream(seed, 0))
        optimize(channels, cfg, pso_cfg, derive_stream(seed, 1), callback=check)
    assert columns_checked == 50 * (pso_cfg.n_iterations + 1) * pso_cfg.n_particles


def test_criterion_3_oracle_optimality_at_desk_scale():
    """PSO reaches >= 95% of the exhaustive grid optimum in >= 90% of runs."""
    runs = _tiny_runs()
    hits = sum(run["pso"] >= 0.95 * run["oracle"] for run in runs)
    assert hits >= int(0.9 * len(runs))


def test_criterion_4_gain_over_random_initialization():
    """M=256, T=200, 200 trials: mean(PSO - random init) > 6 bit/s/Hz."""
    point = _mc_point(8, 8, 256)
    gain = float(np.mean(point["rates"] - point["baselines"]))
    assert gain > 6.0


def test_criterion_5_user_beam_and_cell_trends():
    """Mean-rate trends over users, selected beams and unit cells."""
    # (a) strictly increasing in K over {4, 8, 16} at M=128
    means = [float(np.mean(_mc_point(k, 16, 128)["rates"])) for k in (4, 8, 16)]
    assert means[0] < means[1] < means[2]
    # (b) at K=16, the N_s = 16 -> 32 gain lies in [0.3, 1.5] bit/s/Hz
    gain_beams = float(
        np.mean(_mc_point(16, 32, 128)["rates"])
        - np.mean(_mc_point(16, 16, 128)["rates"])
    )
    assert 0.3 <= gain_beams <= 1.5
    # (c) from a common (M=32, N_s=32) base, doubling the cell count beats
    # doubling the selected-beam count
    base = float(np.mean(_mc_point(8, 32, 32)["rates"]))
    gain_cells = float(np.mean(_mc_point(8, 32, 64)["rates"])) - base
    gain_rf = float(np.mean(_mc_point(8, 64, 32)["rates"])) - base
    assert gain_cells > gain_rf


def test_criterion_6_monotone_exported_traces():
    """Every trace from criteria 3-5: non-decreasing, length T+1, honest start."""
    audited = 0
    for run in _tiny_runs():
        trace = run["trace"]
        assert trace.shape == (201,)
        assert np.all(np.diff(trace) >= 0.0)
        assert trace[0] == run["init_best"]
        audited += 1
    for key in (
        (8, 8, 256),
        (4, 16, 128), (8, 16, 128), (16, 16, 128), (16, 32, 128),
        (8, 32, 32), (8, 32, 64), (8, 64, 32),
    ):
        point = _mc_point(*key)
        for trace, baseline in zip(point["traces"], point["baselines"]):
            assert trace.shape == (201,)
            assert np.all(np.diff(trace) >= 0.0)
            assert trace[0] == baseline
            audited += 1
    assert audited == 50 + 8 * N_TRIALS


def test_criterion_7_per_iteration_complexity_scaling():
    """Doubling the swarm changes per-iteration time by a factor in [1.6, 2.6]."""
    cfg = make_config()
    channels = realize_channels(cfg, derive_stream(9, 0))

    def timed_run(n_particles, block, repeat, n_iterations=100):
        pso_cfg = PsoConfig(n_particles=n_particles, n_iterations=n_iterations)
        rng = derive_stream(10, n_particles, block, repeat)
        start = time.perf_counter()
        optimize(channels, cfg, pso_cfg, rng)
        return (time.perf_counter() - start) / (n_iterations + 1)

    timed_run(50, 0, 0, n_iterations=20)  # warm caches and allocator
    timed_run(100, 0, 0, n_iterations=20)
    # alternate the two sizes and keep per-block minima so that load spikes
    # and clock drift hit both measurements alike
    ratios = []
    for block in range(3):
        small, large = np.inf, np.inf
        for repeat in range(5):
            large = min(large, timed_run(100, block, repeat))
            small = min(small, timed_run(50, block, repeat))
        ratios.append(large / small)
    ratio = float(np.median(ratios))
    assert 1.6 <= ratio <= 2.6


def test_criterion_8_byte_identical_sweep_outputs(tmp_path):
    """Same seed -> byte-identical sweep CSVs, also with --jobs > 1."""

    def run_sweep_cli(out, jobs):
        argv = [
            "sweep",
            "--n-antennas", "16", "--n-users", "4", "--n-ris", "4",
            "--m-total", "32", "--n-selected-beams", "8",
            "--particles", "8", "--iterations", "25", "--seed", "5",
            "--param", "n_users", "--values", "2,4", "--trials", "3",
            "--jobs", str(jobs), "--out", str(out),
        ]
        assert main(argv) == 0
        return out.read_bytes(), summary_path_for(out).read_bytes()

    first = run_sweep_cli(tmp_path / "a.csv", 1)
    second = run_sweep_cli(tmp_path / "b.csv", 1)
    third = run_sweep_cli(tmp_path / "c.csv", 2)
    assert first == second == third
