import numpy as np
import pytest

from beamswarm.channel import realize_channels, split_phases
from beamswarm.linkrate import evaluate_solution
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

TWO_PI = 2.0 * np.pi


class TestPsoConfig:
    def test_defaults(self):
        cfg = PsoConfig()
        assert (cfg.n_particles, cfg.n_iterations) == (50, 200)
        assert (cfg.inertia, cfg.learn_global, cfg.learn_local) == (0.05, 2.0, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="ring"):
            PsoConfig(n_particles=2)
        with pytest.raises(ValueError, match="n_iterations"):
            PsoConfig(n_iterations=0)
        with pytest.raises(ValueError, match="inertia"):
            PsoConfig(inertia=-0.1)
        with pytest.raises(ValueError, match="learn_local"):
            PsoConfig(learn_local=-1.0)
        with pytest.raises(ValueError, match="rng_seed"):
            PsoConfig(rng_seed=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_particles", 50.5),
            ("n_iterations", 10.0),
            ("rng_seed", 1.5),
            ("inertia", float("nan")),
            ("learn_global", float("inf")),
            ("learn_local", float("nan")),
        ],
    )
    def test_rejects_non_integral_and_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            PsoConfig(**{field: value})


class TestProjections:
    def test_beams_normalize_by_max_magnitude(self):
        col = np.array([0.2, -0.8, 0.4])
        project_beams(col, 3)
        assert col == pytest.approx([0.25, 1.0, 0.5])
        assert col.max() == 1.0

    def test_beams_single_entry(self):
        col = np.array([5.0])
        project_beams(col, 1)
        assert col == pytest.approx([1.0])

    def test_beams_idempotent(self):
        rng = np.random.default_rng(0)
        col = rng.normal(size=6)
        once = project_beams(col.copy(), 6)
        twice = project_beams(once.copy(), 6)
        assert np.array_equal(once, twice)

    def test_beams_zero_block_restart(self):
        rng = np.random.default_rng(1)
        col = np.zeros(4)
        project_beams(col, 4, rng)
        assert np.all(col >= 0.0) and np.all(col <= 1.0)
        assert col.max() == 1.0
        with pytest.raises(ValueError, match="rng"):
            project_beams(np.zeros(4), 4)

    def test_column_restart_draws_like_a_one_column_matrix(self):
        col = np.zeros(4)
        mat = np.zeros((4, 1))
        project_beams(col, 4, np.random.default_rng(7))
        project_beams(mat, 4, np.random.default_rng(7))
        assert np.array_equal(col, mat[:, 0])

    def test_beams_matrix_with_partial_dead_columns(self):
        rng = np.random.default_rng(2)
        f = np.array([[0.5, 0.0], [-1.0, 0.0]])
        project_beams(f, 2, rng)
        assert f[:, 0] == pytest.approx([0.5, 1.0])
        assert f[:, 1].max() == 1.0 and np.all(f[:, 1] >= 0.0)

    def test_powers_proportional_split(self):
        col = np.array([1.0, 1.0, 2.0])
        project_powers(col, 0, 3, 10.0)
        assert col == pytest.approx([2.5, 2.5, 5.0])

    def test_powers_absolute_value_then_budget(self):
        col = np.array([-3.0])
        project_powers(col, 0, 1, 7.5)
        assert col == pytest.approx([7.5])

    def test_powers_idempotent(self):
        rng = np.random.default_rng(3)
        col = rng.normal(size=5)
        once = project_powers(col.copy(), 0, 5, 10.0)
        twice = project_powers(once.copy(), 0, 5, 10.0)
        assert twice == pytest.approx(once, rel=1e-12)

    def test_powers_zero_block_equal_split(self):
        col = np.zeros(4)
        project_powers(col, 0, 4, 10.0)
        assert col == pytest.approx(np.full(4, 2.5))

    def test_phases_wraps(self):
        col = np.array([-0.5, 7.0, -13.0, 0.0, TWO_PI - 1e-12])
        project_phases(col, 0, 0)
        assert col[0] == pytest.approx(TWO_PI - 0.5, rel=1e-12)
        assert col[1] == pytest.approx(7.0 - TWO_PI, rel=1e-9)
        assert col[2] == pytest.approx(np.mod(-13.0, TWO_PI), rel=1e-12)
        assert np.all(col >= 0.0) and np.all(col < TWO_PI)

    def test_blocks_do_not_leak(self):
        # one full column: 2 beams, 2 powers, 2 phases
        col = np.array([0.5, -2.0, 1.0, 3.0, -1.0, 9.0])
        constraints_check(col, 2, 2, 8.0)
        assert col[:2] == pytest.approx([0.25, 1.0])
        assert col[2:4] == pytest.approx([2.0, 6.0])
        assert col[4] == pytest.approx(TWO_PI - 1.0)
        assert col[5] == pytest.approx(9.0 - TWO_PI)


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
        # the decoded pieces reassemble the tail of the encoded column
        assert np.concatenate([sol.powers, sol.phases]) == pytest.approx(column[4:])

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
        local_best=np.zeros((n_vars, a)),
        global_best=np.zeros(n_vars),
        global_best_value=-np.inf,
    )


class TestUpdateBests:
    def test_global_argmax(self):
        pop = np.arange(9.0).reshape(3, 3)
        swarm = _toy_swarm(pop, [5.0, 9.0, 7.0])
        update_bests(swarm)
        assert swarm.global_best_value == 9.0
        assert swarm.global_best == pytest.approx(pop[:, 1])

    def test_ring_neighbors(self):
        pop = np.arange(9.0).reshape(3, 3)
        swarm = _toy_swarm(pop, [5.0, 9.0, 7.0])
        update_bests(swarm)
        # particle 0's neighbors are particles 2 and 1; 9 beats 7
        assert np.array_equal(swarm.local_best[:, 0], pop[:, 1])
        # particle 1's neighbors are particles 0 and 2; 7 beats 5
        assert np.array_equal(swarm.local_best[:, 1], pop[:, 2])
        # particle 2's neighbors are particles 1 and 0; 9 beats 5
        assert np.array_equal(swarm.local_best[:, 2], pop[:, 1])

    def test_tie_picks_left_neighbor(self):
        pop = np.arange(9.0).reshape(3, 3)
        swarm = _toy_swarm(pop, [5.0, 1.0, 5.0])
        update_bests(swarm)
        # particle 1's neighbors 0 and 2 tie at 5; the left one wins
        assert np.array_equal(swarm.local_best[:, 1], pop[:, 0])

    def test_monotone_retention_on_drop(self):
        pop = np.arange(9.0).reshape(3, 3)
        swarm = _toy_swarm(pop, [5.0, 9.0, 7.0])
        update_bests(swarm)
        swarm.population = pop + 100.0
        swarm.quality = np.array([1.0, 2.0, 3.0])
        update_bests(swarm)
        assert swarm.global_best_value == 9.0
        assert np.array_equal(swarm.global_best, pop[:, 1])
        # best-ever memory keeps the old neighbor peaks too
        assert np.array_equal(swarm.local_best[:, 0], pop[:, 1])
        assert np.array_equal(swarm.local_best[:, 1], pop[:, 2])

    def test_bests_do_not_alias_population_or_personal_best(self):
        pop = np.arange(9.0).reshape(3, 3)
        swarm = _toy_swarm(pop, [5.0, 9.0, 7.0])
        update_bests(swarm)
        local, best = swarm.local_best.copy(), swarm.global_best.copy()
        swarm.population += 50.0
        swarm.personal_best += 50.0
        assert np.array_equal(swarm.local_best, local)
        assert np.array_equal(swarm.global_best, best)


class _OnesRng:
    def random(self, shape=None):
        return np.ones(shape) if shape is not None else 1.0


class TestVelocityUpdate:
    def test_injected_rand_arithmetic(self):
        # x=0, gap-to-global=1, gap-to-local=0.5, mu=0.05, w1=w2=2 -> v=3
        f = np.full((3, 3), 0.2)
        swarm = _toy_swarm(f, [1.0, 1.0, 1.0])
        swarm.global_best = np.full(3, 1.2)
        swarm.local_best = np.full((3, 3), 0.7)
        swarm.global_best_value = 1.0
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
        swarm.global_best = column.copy()
        swarm.local_best = np.tile(column[:, None], (1, 3))
        swarm.global_best_value = 1.0
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
        swarm.global_best = swarm.population[:, 0].copy()
        swarm.local_best = swarm.population.copy()
        swarm.global_best_value = 1.0
        update_velocity_and_position(swarm, cfg, pcfg, rng)
        assert swarm.population == pytest.approx(before, rel=1e-12)

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

    def test_default_rng_from_config_seed(self):
        cfg, channels = _small_setup()
        pcfg = PsoConfig(n_particles=8, n_iterations=10, rng_seed=123)
        _, _, t1 = optimize(channels, cfg, pcfg)
        _, _, t2 = optimize(channels, cfg, pcfg, np.random.default_rng(123))
        assert np.array_equal(t1, t2)

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
            optimize(channels, wrong, PsoConfig(n_particles=4, n_iterations=2))

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

