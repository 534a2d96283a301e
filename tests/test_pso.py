import re
import tracemalloc

import numpy as np
import pytest

from beamswarm import linkrate, pso
from beamswarm.channel import realize_channels, split_phases
from beamswarm.linkrate import SumRateEvaluator, evaluate_solution
from beamswarm.pso import (
    PsoConfig,
    Solution,
    Swarm,
    constraints_check,
    decode,
    init_swarm,
    optimize,
    project_beams,
    project_phases,
    project_powers,
    top_beam_indices,
    update_bests,
    update_velocity_and_position,
)
from beamswarm.scenario import derive_stream, make_config
from test_boundary import rejects_as_numpy

TWO_PI = 2.0 * np.pi


# Oracles: the plain formulas that the library replaced with faster ones
# that give the same bits.


def mod_phases(block):
    return np.mod(block, TWO_PI, out=block)


def argsort_top(scores, n_selected):
    order = np.argsort(-np.asarray(scores), axis=0, kind="stable")
    return np.sort(order[:n_selected], axis=0)


def rolled_ring_picks(values):
    left = np.roll(np.arange(values.size), 1)
    right = np.roll(np.arange(values.size), -1)
    return np.where(values[left] >= values[right], left, right)


def allocating_velocity(swarm, scenario, cfg, rng):
    # reads the global best from rolled_bests' own copy, not from the index
    f, x = swarm.population, swarm.velocity
    rand_global = rng.random(f.shape)
    rand_local = rng.random(f.shape)
    local_best = swarm.personal_best[:, rolled_ring_picks(swarm.personal_best_value)]
    x *= cfg.inertia
    x += cfg.learn_global * rand_global * (swarm.oracle_global_best[:, None] - f)
    x += cfg.learn_local * rand_local * (local_best - f)
    f += x
    constraints_check(
        f, scenario.n_antennas, scenario.n_users, scenario.total_power, rng
    )
    return swarm


def rolled_bests(swarm):
    q = swarm.quality
    improved = q > swarm.personal_best_value
    swarm.personal_best_value[improved] = q[improved]
    swarm.personal_best = np.where(improved, swarm.population, swarm.personal_best)
    lead = int(np.argmax(swarm.personal_best_value))
    held = getattr(swarm, "oracle_global_value", -np.inf)  # its own copy, not the index's
    if swarm.personal_best_value[lead] > held:
        swarm.oracle_global_value = float(swarm.personal_best_value[lead])
        swarm.global_best_index = lead  # optimize decodes this column
        swarm.oracle_global_best = swarm.personal_best[:, lead].copy()
    return swarm


class TestPsoConfig:
    def test_defaults(self):
        cfg = PsoConfig()
        assert (cfg.n_particles, cfg.n_iterations) == (50, 200)
        assert (cfg.inertia, cfg.learn_global, cfg.learn_local) == (0.05, 2.0, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="ring"):
            PsoConfig(n_particles=2)

    @pytest.mark.parametrize("key, cls", [
        ("PsoConfig.n_particles", "fraction"), ("PsoConfig.n_iterations", "float"),
        ("PsoConfig.inertia", "nan"), ("PsoConfig.learn_global", "inf"),
        ("PsoConfig.learn_local", "nan")], ids=[
        "n_particles-50.5", "n_iterations-10.0", "inertia-nan", "learn_global-inf",
        "learn_local-nan"])
    def test_rejects_non_integral_and_non_finite(self, key, cls):
        rejects_as_numpy(key, cls)  # settings read out of an array


class TestProjections:
    def test_beams_normalize_by_max_magnitude(self):
        col = np.array([0.2, -0.8, 0.4])
        project_beams(col, np.random.default_rng(0))
        assert col == pytest.approx([0.25, 1.0, 0.5])
        assert col.max() == 1.0

    def test_beams_single_entry(self):
        col = np.array([5.0])
        project_beams(col, np.random.default_rng(0))
        assert col == pytest.approx([1.0])

    def test_beams_idempotent(self):
        rng = np.random.default_rng(0)
        col = rng.normal(size=6)
        once = project_beams(col.copy(), rng)
        twice = project_beams(once.copy(), rng)
        assert np.array_equal(once, twice)

    def test_beams_zero_block_restart(self):
        rng = np.random.default_rng(1)
        col = np.zeros(4)
        project_beams(col, rng)
        assert np.all(col >= 0.0) and np.all(col <= 1.0)
        assert col.max() == 1.0

    def test_column_restart_draws_like_a_one_column_matrix(self):
        col = np.zeros(4)
        mat = np.zeros((4, 1))
        project_beams(col, np.random.default_rng(7))
        project_beams(mat, np.random.default_rng(7))
        assert np.array_equal(col, mat[:, 0])

    def test_beams_matrix_with_partial_dead_columns(self):
        rng = np.random.default_rng(2)
        f = np.array([[0.5, 0.0], [-1.0, 0.0]])
        project_beams(f, rng)
        assert f[:, 0] == pytest.approx([0.5, 1.0])
        assert f[:, 1].max() == 1.0 and np.all(f[:, 1] >= 0.0)

    def test_powers_proportional_split(self):
        col = np.array([1.0, 1.0, 2.0])
        project_powers(col, 10.0)
        assert col == pytest.approx([2.5, 2.5, 5.0])

    def test_powers_absolute_value_then_budget(self):
        col = np.array([-3.0])
        project_powers(col, 7.5)
        assert col == pytest.approx([7.5])

    def test_powers_idempotent(self):
        rng = np.random.default_rng(3)
        col = rng.normal(size=5)
        once = project_powers(col.copy(), 10.0)
        twice = project_powers(once.copy(), 10.0)
        assert twice == pytest.approx(once, rel=1e-12)

    def test_powers_zero_block_equal_split(self):
        col = np.zeros(4)
        project_powers(col, 10.0)
        assert col == pytest.approx(np.full(4, 2.5))

    def test_phases_wraps(self):
        col = np.array([-0.5, 7.0, -13.0, 0.0, TWO_PI - 1e-12])
        project_phases(col)
        assert col[0] == pytest.approx(TWO_PI - 0.5, rel=1e-12)
        assert col[1] == pytest.approx(7.0 - TWO_PI, rel=1e-9)
        assert col[2] == pytest.approx(np.mod(-13.0, TWO_PI), rel=1e-12)
        assert np.all(col >= 0.0) and np.all(col < TWO_PI)

    def test_blocks_do_not_leak(self):
        # one full column: 2 beams, 2 powers, 2 phases, projected and decoded
        cfg = make_config(n_antennas=2, n_users=2, uc_per_ris=(2,), n_selected_beams=2)
        col = np.array([0.5, -2.0, 1.0, 3.0, -1.0, 9.0])
        constraints_check(col, 2, 2, 8.0, np.random.default_rng(0))
        assert col == pytest.approx([0.25, 1.0, 2.0, 6.0, TWO_PI - 1.0, 9.0 - TWO_PI])
        sol = decode(col, cfg)
        assert (sol.beam_set.tolist(), sol.powers.tolist(), sol.phases.tolist()) == (
            [0, 1], col[2:4].tolist(), col[4:].tolist())


class TestInitSwarm:
    def test_velocity_zero_and_shape(self):
        cfg = make_config()
        pcfg = PsoConfig(n_particles=10)
        swarm = init_swarm(cfg, pcfg, np.random.default_rng(0))
        assert swarm.population.shape == (64 + 8 + 128, 10)
        assert swarm.velocity.shape == (200, 10)
        assert np.all(swarm.velocity == 0.0)

    def test_determinism(self):
        cfg = make_config(n_antennas=8, n_users=2, n_ris=2, m_total=6,
                          n_selected_beams=4)
        pcfg = PsoConfig(n_particles=5)
        a = init_swarm(cfg, pcfg, np.random.default_rng(3))
        b = init_swarm(cfg, pcfg, np.random.default_rng(3))
        assert np.array_equal(a.population, b.population)

    def test_keeps_four_run_sized_arrays(self):
        cfg = make_config()
        pcfg = PsoConfig()
        rng = np.random.default_rng(0)
        block = (cfg.n_antennas + cfg.n_users + cfg.total_uc) * pcfg.n_particles
        tracemalloc.start()
        try:
            swarm = init_swarm(cfg, pcfg, rng)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        run_sized = {name for name, value in vars(swarm).items()
                     if np.size(value) >= block}
        assert run_sized == {"population", "velocity", "personal_best",
                             "draw_buffers"}
        # nothing else of that size stays behind, held by the swarm or not
        assert kept < 5 * 8 * block + 8 * block // 2

    def test_initial_population_feasible(self):
        cfg = make_config(n_antennas=8, n_users=2, n_ris=2, m_total=6,
                          n_selected_beams=4)
        pcfg = PsoConfig(n_particles=7)
        swarm = init_swarm(cfg, pcfg, np.random.default_rng(4))
        f = swarm.population
        beams, powers, phases = f[:8], f[8:10], f[10:]
        assert np.all(beams >= 0.0) and np.all(beams <= 1.0)
        assert beams.max(axis=0) == pytest.approx(np.ones(7))
        assert powers.sum(axis=0) == pytest.approx(
            np.full(7, cfg.total_power), rel=1e-9
        )
        assert np.all(powers >= 0.0)
        assert np.all(phases >= 0.0) and np.all(phases <= TWO_PI)


class TestTopBeamsAndDecode:
    def test_top_beams(self):
        assert list(top_beam_indices(np.array([0.9, 0.1, 0.8, 0.3]), 2)) == [0, 2]

    def test_tie_breaks_to_lowest_index(self):
        assert list(top_beam_indices(np.array([1.0, 1.0, 0.5]), 1)) == [0]

    def test_rejects_non_real_scores(self):
        with pytest.raises(TypeError, match="real numbers"):
            top_beam_indices(None, 1)
        with pytest.raises(TypeError, match="real numbers"):
            top_beam_indices(np.array([1.0 + 1j, 0.5]), 1)

    @pytest.mark.parametrize("n_selected", [5, 0, -1])
    def test_rejects_selection_size_out_of_range(self, n_selected):
        with pytest.raises(ValueError, match=rf"n_selected={n_selected}, N=4"):
            top_beam_indices(np.array([0.1, 0.5, 0.3, 0.9]), n_selected)

    @pytest.mark.parametrize("n_selected", [True, 2.5, np.float64(2.0)])
    def test_rejects_non_integer_selection_size(self, n_selected):
        with pytest.raises(ValueError, match="n_selected must be an integer"):
            top_beam_indices(np.array([0.1, 0.5, 0.3, 0.9]), n_selected)

    def test_rejects_nan_scores(self):
        with pytest.raises(ValueError, match="scores must not be NaN"):
            top_beam_indices(np.array([0.1, np.nan, 0.3, 0.9]), 2)
        matrix = np.array([[0.9, 0.1], [0.1, np.nan], [0.8, 0.8]])
        with pytest.raises(ValueError, match="scores must not be NaN"):
            top_beam_indices(matrix, 2)

    @pytest.mark.parametrize("shape", [(), (4, 3, 2)])
    def test_rejects_scores_that_are_not_a_vector_or_matrix(self, shape):
        scores = np.ones(shape)
        with pytest.raises(ValueError, match=re.escape(f"(got shape {shape})")):
            top_beam_indices(scores, 1)

    def test_matrix_selection(self):
        scores = np.array([[0.9, 0.1], [0.1, 0.9], [0.8, 0.8]])
        idx = top_beam_indices(scores, 2)
        assert idx[:, 0].tolist() == [0, 2]
        assert idx[:, 1].tolist() == [1, 2]

    def test_decode_splits_column(self):
        cfg = make_config(n_antennas=4, n_users=2, n_ris=2, m_total=4,
                          n_selected_beams=2)
        column = np.array([0.9, 0.1, 0.8, 0.3, 4.0, 6.0, 1.0, 2.0, 3.0, 4.0])
        sol = decode(column, cfg)
        assert isinstance(sol, Solution)
        assert list(sol.beam_set) == [0, 2]
        assert sol.powers == pytest.approx([4.0, 6.0])
        assert sol.phases == pytest.approx([1.0, 2.0, 3.0, 4.0])
        blocks = split_phases(sol.phases, cfg.uc_per_ris)
        assert [list(b) for b in blocks] == [[1.0, 2.0], [3.0, 4.0]]

    def test_decode_tie(self):
        cfg = make_config(n_antennas=3, n_users=1, n_ris=1, m_total=2,
                          n_selected_beams=1)
        sol = decode(np.array([1.0, 1.0, 0.5, 10.0, 0.1, 0.2]), cfg)
        assert list(sol.beam_set) == [0]


def _toy_swarm(population, quality):
    n_vars, a = population.shape
    return Swarm(
        population=population.astype(float),
        velocity=np.zeros((n_vars, a)),
        quality=np.asarray(quality, dtype=float),
        personal_best=np.zeros((n_vars, a)),
        personal_best_value=np.full(a, -np.inf),
        global_best_index=0,
        draw_buffers=np.empty((2, n_vars, a)),
    )


class _OnesRng:
    def random(self, shape=None, out=None):
        if out is not None:
            out.fill(1.0)
            return out
        return np.ones(shape) if shape is not None else 1.0


def _local_pull(swarm):
    """The l - f of a velocity step from rest with only the local term on.

    Returns it with the population it started from, since the step moves
    the population.
    """
    start = swarm.population.copy()
    swarm.velocity[...] = 0.0
    n_vars = start.shape[0]
    scenario = make_config(n_antennas=n_vars - 2, n_users=1, n_ris=1, m_total=1,
                           n_selected_beams=1)
    cfg = PsoConfig(inertia=0.0, learn_global=0.0, learn_local=1.0)
    update_velocity_and_position(swarm, scenario, cfg, _OnesRng())
    return swarm.velocity, start


class TestUpdateBests:
    def test_global_argmax(self):
        pop = np.arange(9.0).reshape(3, 3)
        swarm = _toy_swarm(pop, [5.0, 9.0, 7.0])
        update_bests(swarm)
        assert swarm.global_best_value == 9.0
        assert swarm.global_best_index == 1
        assert np.array_equal(swarm.personal_best[:, 1], pop[:, 1])
        with pytest.raises(AttributeError):  # read from the personal bests
            swarm.global_best_value = 10.0

    def test_global_index_moves_only_when_the_value_rises(self):
        pop = np.arange(9.0).reshape(3, 3)
        swarm = _toy_swarm(pop, [5.0, 9.0, 7.0])
        update_bests(swarm)
        swarm.population = pop + 100.0
        swarm.quality = np.array([9.0, 1.0, 9.0])  # ties, does not rise
        update_bests(swarm)
        assert swarm.global_best_index == 1
        swarm.quality = np.array([1.0, 1.0, 9.5])
        update_bests(swarm)
        assert (swarm.global_best_index, swarm.global_best_value) == (2, 9.5)
        assert np.array_equal(swarm.personal_best[:, 2], pop[:, 2] + 100.0)
        swarm.quality = np.array([1.0, 9.75, 9.75])  # 1 and the held 2 tie: 1 leads
        update_bests(swarm)
        assert (swarm.global_best_index, swarm.global_best_value) == (1, 9.75)

    def test_ring_neighbors(self):
        pop = np.arange(9.0).reshape(3, 3)
        swarm = _toy_swarm(pop, [5.0, 9.0, 7.0])
        update_bests(swarm)
        pull, f = _local_pull(swarm)
        # particle 0's neighbors are particles 2 and 1; 9 beats 7
        assert np.array_equal(pull[:, 0], pop[:, 1] - f[:, 0])
        # particle 1's neighbors are particles 0 and 2; 7 beats 5
        assert np.array_equal(pull[:, 1], pop[:, 2] - f[:, 1])
        # particle 2's neighbors are particles 1 and 0; 9 beats 5
        assert np.array_equal(pull[:, 2], pop[:, 1] - f[:, 2])

    def test_tie_picks_left_neighbor(self):
        pop = np.arange(9.0).reshape(3, 3)
        swarm = _toy_swarm(pop, [5.0, 1.0, 5.0])
        update_bests(swarm)
        pull, f = _local_pull(swarm)
        # particle 1's neighbors 0 and 2 tie at 5; the left one wins
        assert np.array_equal(pull[:, 1], pop[:, 0] - f[:, 1])

    def test_monotone_retention_on_drop(self):
        pop = np.arange(9.0).reshape(3, 3)
        swarm = _toy_swarm(pop, [5.0, 9.0, 7.0])
        update_bests(swarm)
        swarm.population = pop + 100.0
        swarm.quality = np.array([1.0, 2.0, 3.0])
        update_bests(swarm)
        assert swarm.global_best_value == 9.0
        assert swarm.global_best_index == 1
        assert np.array_equal(swarm.personal_best, pop)
        # best-ever memory keeps the old neighbor peaks too
        pull, f = _local_pull(swarm)
        assert np.array_equal(pull[:, 0], pop[:, 1] - f[:, 0])
        assert np.array_equal(pull[:, 1], pop[:, 2] - f[:, 1])

    def test_bests_do_not_alias_population_or_personal_best(self):
        pop = np.arange(9.0).reshape(3, 3)
        swarm = _toy_swarm(pop, [5.0, 9.0, 7.0])
        update_bests(swarm)
        swarm.population += 50.0
        assert np.array_equal(swarm.personal_best, pop)
        # the step gathers the local bests into its own buffer
        _local_pull(swarm)
        assert np.array_equal(swarm.personal_best, pop)
        assert (swarm.global_best_index, swarm.global_best_value) == (1, 9.0)


class TestVelocityUpdate:
    def test_injected_rand_arithmetic(self):
        # x=0, gap-to-global=1, gap-to-local=0.5, mu=0.05, w1=w2=2 -> v=3
        f = np.full((3, 3), 0.2)
        swarm = _toy_swarm(f, [1.0, 1.0, 1.0])
        # the index names column 0; the ring picks, which go by value, skip it
        swarm.personal_best = np.array([[1.2, 0.7, 0.7]] * 3)
        swarm.personal_best_value = np.array([0.0, 1.0, 1.0])
        swarm.global_best_index = 0
        scenario = make_config(n_antennas=1, n_users=1, n_ris=1, m_total=1,
                               n_selected_beams=1)
        cfg = PsoConfig(inertia=0.05, learn_global=2.0, learn_local=2.0)
        update_velocity_and_position(swarm, scenario, cfg, _OnesRng())
        assert np.all(swarm.velocity == 3.0)

    def test_stationary_at_consensus(self):
        cfg = make_config(n_antennas=4, n_users=2, n_ris=1, m_total=4,
                          n_selected_beams=2)
        pcfg = PsoConfig(n_particles=3)
        rng = np.random.default_rng(5)
        swarm = init_swarm(cfg, pcfg, rng)
        column = swarm.population[:, 0].copy()
        swarm.population = np.tile(column[:, None], (1, 3))
        swarm.personal_best = swarm.population.copy()
        swarm.personal_best_value = np.ones(3)
        update_velocity_and_position(swarm, cfg, pcfg, rng)
        assert swarm.population == pytest.approx(
            np.tile(column[:, None], (1, 3)), rel=1e-12
        )

    def test_zero_coefficients_freeze_population(self):
        cfg = make_config(n_antennas=4, n_users=2, n_ris=1, m_total=4,
                          n_selected_beams=2)
        pcfg = PsoConfig(inertia=0.0, learn_global=0.0, learn_local=0.0,
                         n_particles=3)
        rng = np.random.default_rng(6)
        swarm = init_swarm(cfg, pcfg, rng)
        before = swarm.population.copy()
        swarm.personal_best = swarm.population.copy()
        swarm.personal_best_value = np.ones(3)
        update_velocity_and_position(swarm, cfg, pcfg, rng)
        assert swarm.population == pytest.approx(before, rel=1e-12)

    def test_steps_write_into_the_buffers_of_init_swarm(self):
        cfg = make_config(n_antennas=4, n_users=2, n_ris=1, m_total=4,
                          n_selected_beams=2)
        pcfg = PsoConfig(n_particles=5)
        rng = np.random.default_rng(8)
        swarm = init_swarm(cfg, pcfg, rng)
        buffers = swarm.draw_buffers
        assert isinstance(buffers, np.ndarray)
        assert buffers.shape == (2, 4 + 2 + 4, 5)
        swarm.quality = rng.random(5)
        update_bests(swarm)
        for _ in range(3):
            before = buffers.copy()
            update_velocity_and_position(swarm, cfg, pcfg, rng)
            assert swarm.draw_buffers is buffers
            assert not np.array_equal(buffers, before)

    def test_requires_bests(self):
        cfg = make_config(n_antennas=4, n_users=2, n_ris=1, m_total=4,
                          n_selected_beams=2)
        pcfg = PsoConfig(n_particles=3)
        rng = np.random.default_rng(7)
        swarm = init_swarm(cfg, pcfg, rng)
        with pytest.raises(ValueError, match="update_bests"):
            update_velocity_and_position(swarm, cfg, pcfg, rng)


def _small_setup(seed=0):
    cfg = make_config(n_antennas=8, n_users=2, n_ris=2, m_total=8,
                      n_selected_beams=4, rng_seed=seed)
    channels = realize_channels(cfg, derive_stream(seed, 0))
    return cfg, channels


class TestOptimize:
    def test_trace_shape_and_monotonicity(self):
        cfg, channels = _small_setup()
        pcfg = PsoConfig(n_particles=8, n_iterations=30)
        sol, best, trace = optimize(channels, cfg, pcfg, derive_stream(1, 0))
        assert trace.shape == (31,)
        assert np.all(np.diff(trace) >= 0.0)
        assert trace[-1] == best
        assert best > 0.0

    def test_determinism(self):
        cfg, channels = _small_setup()
        pcfg = PsoConfig(n_particles=8, n_iterations=15)
        _, _, t1 = optimize(channels, cfg, pcfg, derive_stream(2, 0))
        _, _, t2 = optimize(channels, cfg, pcfg, derive_stream(2, 0))
        assert np.array_equal(t1, t2)

    def test_rng_has_no_default(self):
        cfg, channels = _small_setup()
        with pytest.raises(TypeError, match="rng"):
            optimize(channels, cfg, PsoConfig(n_particles=8, n_iterations=10))

    def test_best_solution_reproduces_best_rate(self):
        cfg, channels = _small_setup()
        pcfg = PsoConfig(n_particles=8, n_iterations=20)
        sol, best, _ = optimize(channels, cfg, pcfg, derive_stream(3, 0))
        assert evaluate_solution(channels, sol, cfg.noise_variance) == (
            pytest.approx(best, rel=1e-10)
        )
        assert sol.beam_set.size == cfg.n_selected_beams
        assert sol.powers.sum() == pytest.approx(cfg.total_power, rel=1e-9)
        assert np.all(sol.phases >= 0.0) and np.all(sol.phases <= TWO_PI)

    def test_callback_sees_every_iteration(self):
        cfg, channels = _small_setup()
        pcfg = PsoConfig(n_particles=8, n_iterations=12)
        seen = []
        optimize(channels, cfg, pcfg, derive_stream(4, 0),
                 callback=lambda t, swarm: seen.append(t))
        assert seen == list(range(13))

    def test_dimension_mismatch_rejected(self):
        cfg, channels = _small_setup()
        import dataclasses

        wrong = dataclasses.replace(cfg, n_antennas=16, n_selected_beams=4)
        with pytest.raises(ValueError, match="do not match"):
            optimize(channels, wrong, PsoConfig(n_particles=4, n_iterations=2),
                     derive_stream(0, 1))

    def test_diverging_swarm_rejected(self):
        cfg, channels = _small_setup()
        pcfg = PsoConfig(n_particles=5, n_iterations=20, inertia=1e100)
        with pytest.raises(
            ValueError,
            match=r"diverges at iteration \d+: .*inertia=1e\+100, "
                  r"learn_global=2\.0 and learn_local=2\.0",
        ):
            optimize(channels, cfg, pcfg, derive_stream(5, 0))

    def test_non_finite_rate_rejected(self):
        # 1e27 W over 1e-303 W noise overflows the SINR of a lone user
        cfg = make_config(n_antennas=8, n_users=1, n_ris=2, m_total=8,
                          n_selected_beams=1, power_dbm=300, noise_dbm=-3000)
        channels = realize_channels(cfg, derive_stream(0, 0))
        pcfg = PsoConfig(n_particles=5, n_iterations=2)
        with pytest.raises(
            ValueError, match=r"inf at iteration 0, not finite.*power_dbm/noise_dbm"
        ):
            optimize(channels, cfg, pcfg, derive_stream(0, 1))



def _edge_phases():
    rng = derive_stream(21, 1)
    nodes = np.arange(-6, 7) * TWO_PI
    return np.concatenate([
        [0.0, -0.0, TWO_PI, -TWO_PI, np.nextafter(TWO_PI, 0.0),
         -np.nextafter(TWO_PI, 0.0), 1e-300, -1e-300, -5e-17, 5e-17,
         1e300, -1e300, 5e-324, -5e-324],
        nodes, np.nextafter(nodes, np.inf), np.nextafter(nodes, -np.inf),
        rng.uniform(-50.0, 50.0, 100_000),
        rng.uniform(-1e-15, 1e-15, 1000),
    ])


class TestAgainstReplacedFormulas:
    def test_phase_wrap_has_the_bits_of_np_mod(self):
        full = _edge_phases()
        assert project_phases(np.array([-1e-17])).tolist() == [TWO_PI]  # [0, 2*pi]
        within = full[(full >= -TWO_PI) & (full < 2.0 * TWO_PI)]  # no fmod needed
        assert {0.0, TWO_PI, -TWO_PI, np.nextafter(2.0 * TWO_PI, 0.0),
                5e-324} <= set(within.tolist())
        for values in (full, within):
            for a in (None, 50, 7, 20_000):
                # np.resize repeats the values to fill whole rows
                rows = -(-values.size // (a or 1))
                block = values if a is None else np.resize(values, (rows, a))
                blocks = [block.copy()]
                if a is not None:
                    blocks.append(np.asfortranarray(block))
                for block in blocks:
                    want = mod_phases(block.copy())
                    got = project_phases(block)
                    assert got is block  # in place
                    assert got.tobytes() == want.tobytes()  # -0.0 and +0.0 differ
                    assert not np.signbit(got).any()
            # a strided column of a matrix, wrapped in place and alone
            f = np.full((values.size, 5), -1.0)
            f[:, 3] = values
            project_phases(f[:, 3])
            assert f[:, 3].tobytes() == mod_phases(values.copy()).tobytes()
            assert (np.delete(f, 3, axis=1) == -1.0).all()

    @pytest.mark.parametrize("n_selected", [1, 8, 16, 64])
    def test_top_beams_match_stable_argsort(self, n_selected):
        rng = derive_stream(22, 1)
        ties = rng.integers(0, 6, (64, 40)) / 5.0  # many repeated values
        smooth = rng.random((64, 40))
        constant = np.full((64, 3), 0.5)
        one_peak = np.zeros((64, 2))
        one_peak[7] = 1.0
        no_columns = np.empty((64, 0))
        for scores in (ties, smooth, constant, one_peak, no_columns):
            got = top_beam_indices(scores, n_selected)
            assert np.array_equal(got, argsort_top(scores, n_selected))
            assert got.shape == (n_selected, scores.shape[1])
            # the unchecked core that optimize calls
            assert pso._top_beams(scores, n_selected).tobytes() == got.tobytes()
            for column in scores.T:
                assert np.array_equal(top_beam_indices(column, n_selected),
                                      argsort_top(column, n_selected))

    @pytest.mark.parametrize("a", [3, 4, 50])
    def test_ring_neighbors_match_rolled_indices(self, a):
        rng = derive_stream(23, a)
        population = rng.random((5, a))
        quality = rng.integers(0, 3, a).astype(float)  # ties between neighbors
        swarm = update_bests(_toy_swarm(population, quality))
        local_best = swarm.personal_best[:, rolled_ring_picks(swarm.personal_best_value)]
        pull, f = _local_pull(swarm)
        assert np.array_equal(pull, local_best - f)

    def test_velocity_step_has_the_bits_of_the_allocating_expression(self):
        for m_total, a in ((8, 6), (1024, 50), (300, 37)):
            cfg = make_config(n_antennas=8, n_users=2, n_ris=2, m_total=m_total,
                              n_selected_beams=4)
            pcfg = PsoConfig(n_particles=a, inertia=0.3, learn_global=1.7,
                             learn_local=2.9)
            swarm = init_swarm(cfg, pcfg, derive_stream(24, 1))
            swarm.quality = derive_stream(24, 2).random(a)
            swarm.velocity = derive_stream(24, 3).normal(size=swarm.velocity.shape)
            twin = Swarm(**{k: np.copy(v) for k, v in vars(swarm).items()})
            update_bests(swarm)
            rolled_bests(twin)
            for _ in range(3):
                update_velocity_and_position(swarm, cfg, pcfg, derive_stream(24, 4))
                allocating_velocity(twin, cfg, pcfg, derive_stream(24, 4))
                assert swarm.velocity.tobytes() == twin.velocity.tobytes()
                assert swarm.population.tobytes() == twin.population.tobytes()

    def test_bests_match_the_copying_bookkeeping(self):
        cfg = make_config(n_antennas=8, n_users=2, n_ris=2, m_total=8,
                          n_selected_beams=4)
        swarm = init_swarm(cfg, PsoConfig(n_particles=9), derive_stream(25, 1))
        twin = Swarm(**{k: np.copy(v) for k, v in vars(swarm).items()})
        rng = derive_stream(25, 2)
        for _ in range(6):
            quality = rng.integers(0, 4, 9).astype(float)  # ties and drops
            swarm.population = twin.population = rng.random(swarm.population.shape)
            swarm.quality = twin.quality = quality
            update_bests(swarm)
            rolled_bests(twin)
            assert swarm.personal_best.tobytes() == twin.personal_best.tobytes()
            assert swarm.global_best_value == twin.oracle_global_value
            assert np.array_equal(swarm.personal_best[:, swarm.global_best_index],
                                  twin.oracle_global_best)


_REFERENCE_CONFIGS = {
    "defaults": ({}, {}),
    "m1024": ({"m_total": 1024}, {"n_iterations": 25}),
    "uneven": ({"n_ris": 3, "uc_per_ris": (5, 9, 2)},
               {"n_particles": 20, "n_iterations": 40}),
    "k16": ({"n_users": 16, "n_selected_beams": 16}, {"n_iterations": 50}),
}


@pytest.mark.parametrize("case", list(_REFERENCE_CONFIGS))
def test_optimize_matches_a_run_on_the_replaced_formulas(case, monkeypatch):
    scenario_kwargs, pso_kwargs = _REFERENCE_CONFIGS[case]
    cfg = make_config(**scenario_kwargs)
    pcfg = PsoConfig(**pso_kwargs)
    channels = realize_channels(cfg, derive_stream(cfg.rng_seed, 0, 1))
    got = optimize(channels, cfg, pcfg, derive_stream(cfg.rng_seed, 1, 1))
    exp_calls, top_calls = [], []

    def exp_phasors(phases, out, scratch, rot):
        exp_calls.append(phases.shape)
        out[...] = np.exp(1j * phases)
        return out

    def argsort_beams(scores, n_selected):
        top_calls.append(scores.shape)
        return argsort_top(scores, n_selected)

    with monkeypatch.context() as m:
        m.setattr(linkrate, "_unit_phasors", exp_phasors)
        m.setattr(pso, "project_phases", mod_phases)
        m.setattr(pso, "_top_beams", argsort_beams)
        m.setattr(pso, "update_bests", rolled_bests)
        m.setattr(pso, "update_velocity_and_position", allocating_velocity)
        want = optimize(channels, cfg, pcfg, derive_stream(cfg.rng_seed, 1, 1))
    # the evaluator called the patched map and the loop the patched selection,
    # once per evaluation of the swarm; decode selects the best's beams last
    evaluations = pcfg.n_iterations + 1
    assert exp_calls == [(cfg.total_uc, pcfg.n_particles)] * evaluations
    assert top_calls == [(cfg.n_antennas, pcfg.n_particles)] * evaluations + [
        (cfg.n_antennas, 1)]
    for field in ("beam_set", "powers", "phases"):
        assert getattr(got[0], field).tobytes() == getattr(want[0], field).tobytes()
    assert got[1] == pytest.approx(want[1], rel=2e-15, abs=0.0)
    assert got[2] == pytest.approx(want[2], rel=2e-15, abs=0.0)


def _checked_core(monkeypatch, owner, name, checks):
    """Make each call of ``owner.name`` first run ``checks`` on its arguments,
    with the unwrapped core in place while they run; returns the calls."""
    core = getattr(owner, name)
    calls = []

    def checked(*args):
        with monkeypatch.context() as m:
            m.setattr(owner, name, core)
            checks(*args)
        calls.append(name)
        return core(*args)

    monkeypatch.setattr(owner, name, checked)
    return calls


def _sum_rates_checks(evaluator, phases, beam_sets, powers, noise_variance):
    evaluator.sum_rates(phases, beam_sets, powers, noise_variance)
    # as they are: sum_rates would sort the sets and cast the arrays
    assert (beam_sets[1:] > beam_sets[:-1]).all()
    assert (phases.dtype, beam_sets.dtype, powers.dtype) == (float, np.intp, float)


@pytest.mark.parametrize("scenario_kwargs, pso_kwargs", [
    ({"n_ris": 3, "uc_per_ris": (5, 9, 2)}, {"n_particles": 20, "n_iterations": 10}),
    ({}, {"n_particles": 3, "n_iterations": 20}),
    ({"n_users": 16, "n_selected_beams": 16}, {"n_particles": 10, "n_iterations": 5}),
    ({}, {"n_particles": 10, "n_iterations": 10, "inertia": 0.9}),
], ids=["uneven", "a3", "k16", "inertia0.9"])
def test_optimize_hands_its_cores_only_batches_the_boundary_accepts(
    scenario_kwargs, pso_kwargs, monkeypatch
):
    cfg = make_config(**scenario_kwargs)
    pcfg = PsoConfig(**pso_kwargs)
    channels = realize_channels(cfg, derive_stream(cfg.rng_seed, 0, 3))
    scored = _checked_core(monkeypatch, SumRateEvaluator, "_score", _sum_rates_checks)
    selected = _checked_core(monkeypatch, pso, "_top_beams", top_beam_indices)
    optimize(channels, cfg, pcfg, derive_stream(cfg.rng_seed, 1, 3))
    assert len(scored) == pcfg.n_iterations + 1
    assert len(selected) == pcfg.n_iterations + 2  # and decode's


@pytest.mark.parametrize(
    "scenario_kwargs, pso_kwargs, limit_kb",
    [({}, {"n_iterations": 12}, 256), ({"m_total": 1024}, {"n_iterations": 25}, 1024)],
    ids=["defaults", "m1024"],
)
def test_iteration_allocates_little_beyond_the_run_buffers(
    scenario_kwargs, pso_kwargs, limit_kb
):
    # with (M, A)-sized temporaries made afresh in every step, an iteration
    # peaked at 455 KB at the defaults and 2005 KB at M=1024
    cfg = make_config(**scenario_kwargs)
    pcfg = PsoConfig(**pso_kwargs)
    channels = realize_channels(cfg, derive_stream(cfg.rng_seed, 0, 2))
    peaks = []
    start = [0]

    def callback(t, swarm):
        current, peak = tracemalloc.get_traced_memory()
        if t >= 3:  # the run's buffers exist from the first steps on
            peaks.append(peak - start[0])
        tracemalloc.reset_peak()
        start[0] = tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        optimize(channels, cfg, pcfg, derive_stream(cfg.rng_seed, 1, 2),
                 callback=callback)
    finally:
        tracemalloc.stop()
    assert len(peaks) == pcfg.n_iterations - 2
    assert max(peaks) <= limit_kb * 1024
