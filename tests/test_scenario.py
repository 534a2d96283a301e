import numpy as np
import pytest

from beamswarm.scenario import (
    AngleDraws,
    ScenarioConfig,
    _checked_array,
    dbm_to_watts,
    derive_seed,
    derive_stream,
    draw_angles,
    draw_path_gains,
    even_split,
    make_config,
    path_loss_db,
    place_nodes,
    spatial_frequency,
    watts_to_dbm,
)


def test_dbm_conversions():
    assert dbm_to_watts(40.0) == pytest.approx(10.0, rel=1e-12)
    assert dbm_to_watts(-110.0) == pytest.approx(1e-14, rel=1e-12)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert watts_to_dbm(dbm_to_watts(17.3)) == pytest.approx(17.3, rel=1e-12)


def test_even_split():
    assert even_split(128, 8) == (16,) * 8
    assert even_split(10, 4) == (3, 3, 2, 2)
    assert sum(even_split(257, 8)) == 257
    with pytest.raises(ValueError):
        even_split(3, 4)


def test_checked_array_bounds_away_from_zero():
    assert _checked_array("x", [5.0], (1,), low=1.0) == pytest.approx([5.0])
    assert _checked_array("x", [-5.0], (1,), high=-1.0) == pytest.approx([-5.0])
    with pytest.raises(ValueError, match=r"^x must be finite and lie in \[1.0, "):
        _checked_array("x", [5.0, 0.5], (2,), low=1.0)


class TestScenarioConfig:
    def test_defaults_match_reference_setup(self):
        cfg = make_config()
        assert cfg.n_antennas == 64
        assert cfg.n_users == 8
        assert cfg.n_ris == 8
        assert cfg.uc_per_ris == (16,) * 8
        assert cfg.total_uc == 128
        assert cfg.n_nlos_paths == 2
        assert cfg.n_selected_beams == 8
        assert cfg.total_power == pytest.approx(10.0)
        assert cfg.noise_variance == pytest.approx(1e-14)
        assert cfg.carrier_freq_ghz == 30.0
        assert (cfg.cell_radius_m, cfg.ue_ring_min_m, cfg.ue_ring_max_m) == (
            40.0,
            25.0,
            35.0,
        )

    def test_m_total_even_split(self):
        cfg = make_config(m_total=256)
        assert cfg.uc_per_ris == (32,) * 8
        cfg = make_config(m_total=10, n_ris=4, n_antennas=8, n_users=2,
                          n_selected_beams=4)
        assert cfg.uc_per_ris == (3, 3, 2, 2)

    def test_m_total_and_uc_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            make_config(m_total=16, uc_per_ris=(8, 8))

    def test_selected_beams_bounds(self):
        with pytest.raises(ValueError, match="n_selected_beams"):
            make_config(n_users=16)  # exceeds default N_s = 8
        with pytest.raises(ValueError, match="n_selected_beams"):
            make_config(n_selected_beams=65)
        make_config(n_users=8, n_selected_beams=8)  # boundary is legal

    def test_surface_count_is_the_layout_length(self):
        assert ScenarioConfig(uc_per_ris=(32,) * 4).n_ris == 4
        assert make_config(uc_per_ris=(16,) * 7).n_ris == 7
        with pytest.raises(TypeError, match="n_ris"):
            ScenarioConfig(n_ris=4)  # derived, not settable

    def test_surface_count_must_match_layout(self):
        with pytest.raises(
            ValueError,
            match=r"^uc_per_ris must list one cell count per surface "
                  r"\(got 3 entries for n_ris=2\)$",
        ):
            make_config(n_ris=2, uc_per_ris=(5, 9, 2))
        cfg = make_config(n_ris=3, uc_per_ris=(5, 9, 2))
        assert (cfg.n_ris, cfg.uc_per_ris, cfg.total_uc) == (3, (5, 9, 2), 16)

    def test_ring_validation(self):
        with pytest.raises(ValueError, match="ue_ring"):
            make_config(ue_ring_min_m=30.0, ue_ring_max_m=25.0)
        with pytest.raises(ValueError, match="ue_ring"):
            make_config(ue_ring_max_m=45.0)  # outside the cell
        make_config(ue_ring_min_m=30.0, ue_ring_max_m=30.0)  # degenerate ring


class TestPlaceNodes:
    def test_ris_even_spacing(self):
        cfg = make_config(n_ris=4, uc_per_ris=(4,) * 4, m_total=None)
        layout = place_nodes(cfg, np.random.default_rng(0))
        angles = np.arctan2(layout.ris_positions[:, 1], layout.ris_positions[:, 0])
        gaps = np.diff(np.unwrap(angles))
        assert gaps == pytest.approx(np.full(3, np.pi / 2), abs=1e-12)
        radii = np.linalg.norm(layout.ris_positions, axis=1)
        assert radii == pytest.approx(np.full(4, cfg.cell_radius_m), rel=1e-12)

    def test_degenerate_ring_pins_radius(self):
        cfg = make_config(n_users=1, n_selected_beams=8,
                          ue_ring_min_m=30.0, ue_ring_max_m=30.0)
        layout = place_nodes(cfg, np.random.default_rng(5))
        assert np.linalg.norm(layout.ue_positions[0]) == pytest.approx(30.0, abs=1e-12)

    def test_default_radii_inside_ring(self):
        cfg = make_config()
        layout = place_nodes(cfg, np.random.default_rng(7))
        radii = np.linalg.norm(layout.ue_positions, axis=1)
        assert radii.shape == (8,)
        assert np.all(radii >= 25.0) and np.all(radii <= 35.0)

    def test_bs_at_origin_and_distances(self):
        cfg = make_config()
        layout = place_nodes(cfg, np.random.default_rng(3))
        assert layout.bs_position == pytest.approx((0.0, 0.0))
        assert layout.bs_ris_distances() == pytest.approx(
            np.full(8, 40.0), rel=1e-12
        )
        d = layout.ris_ue_distances()
        assert d.shape == (8, 8)
        # triangle bounds for a UE between rings and a surface on the circle
        assert np.all(d >= 40.0 - 35.0 - 1e-9)
        assert np.all(d <= 40.0 + 35.0 + 1e-9)

    def test_determinism(self):
        cfg = make_config()
        a = place_nodes(cfg, np.random.default_rng(11))
        b = place_nodes(cfg, np.random.default_rng(11))
        assert np.array_equal(a.ris_positions, b.ris_positions)
        assert np.array_equal(a.ue_positions, b.ue_positions)


class TestPathLoss:
    def test_intercept_only(self):
        assert path_loss_db(1.0, 1.0, True) == pytest.approx(32.4, abs=1e-12)

    def test_los_hand_value(self):
        # 32.4 + 21*log10(30) + 20*log10(30) computed by hand
        assert path_loss_db(30.0, 30.0, True) == pytest.approx(92.96, abs=0.01)

    def test_nlos_hand_value(self):
        # 32.4 + 31.9*log10(30) + 20*log10(30) computed by hand
        assert path_loss_db(30.0, 30.0, False) == pytest.approx(109.06, abs=0.01)

    def test_nlos_exceeds_los_beyond_one_meter(self):
        for d in (1.01, 2.0, 25.0, 40.0, 75.0):
            assert path_loss_db(d, 30.0, False) > path_loss_db(d, 30.0, True)

    def test_monotone_in_distance_and_frequency(self):
        d = np.linspace(1.0, 100.0, 50)
        for los in (True, False):
            losses = np.array([path_loss_db(x, 30.0, los) for x in d])
            assert np.all(np.diff(losses) > 0)
            f = np.linspace(1.0, 100.0, 50)
            losses_f = np.array([path_loss_db(30.0, x, los) for x in f])
            assert np.all(np.diff(losses_f) > 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            path_loss_db(0.0, 30.0, True)
        with pytest.raises(ValueError):
            path_loss_db(30.0, -1.0, False)


class TestDrawPathGains:
    def test_shape_and_direct_path_first(self):
        d = np.array([[10.0, 20.0, 30.0], [15.0, 25.0, 35.0]])
        gains = draw_path_gains(d, 30.0, 2, np.random.default_rng(0))
        assert gains.shape == (2, 3, 3)
        los = np.sqrt(10.0 ** (-path_loss_db(d, 30.0, True) / 10.0))
        nlos = np.sqrt(10.0 ** (-path_loss_db(d, 30.0, False) / 10.0))
        assert gains[..., 0] == pytest.approx(los, rel=1e-12)
        assert np.all(gains[..., 0].imag == 0.0)
        assert np.abs(gains[..., 1:]) == pytest.approx(
            np.repeat(nlos[..., None], 2, axis=-1), rel=1e-12
        )

    def test_los_known_attenuation(self):
        # distance chosen so the LoS loss is exactly 20 dB -> amplitude 0.1
        d = 10.0 ** ((20.0 - 32.4) / 21.0)
        gain = draw_path_gains(d, 1.0, 2, np.random.default_rng(0))[0]
        assert gain == pytest.approx(0.1, rel=1e-9)
        assert gain.imag == 0.0

    def test_direct_path_only_draws_nothing(self):
        rng = np.random.default_rng(3)
        gains = draw_path_gains(np.array([30.0, 40.0]), 30.0, 0, rng)
        assert gains.shape == (2, 1)
        assert np.all(gains.imag == 0.0)
        assert rng.random() == np.random.default_rng(3).random()

    def test_one_uniform_per_scattered_path_in_c_order(self):
        d = np.array([[30.0, 31.0], [32.0, 33.0]])
        rng = np.random.default_rng(4)
        gains = draw_path_gains(d, 30.0, 3, rng)
        twin = np.random.default_rng(4)
        v = np.array([[[twin.random() for _ in range(3)] for _ in row] for row in d])
        unit = gains[..., 1:] / np.abs(gains[..., 1:])
        assert unit == pytest.approx(np.exp(-2j * np.pi * v), rel=1e-12)
        assert rng.random() == twin.random()

    def test_nlos_modulus_independent_of_phase(self):
        rng = np.random.default_rng(1)
        expected = np.sqrt(10.0 ** (-path_loss_db(30.0, 30.0, False) / 10.0))
        draws = draw_path_gains(30.0, 30.0, 100, rng)[1:]
        assert np.abs(draws) == pytest.approx(np.full(100, expected), rel=1e-12)
        assert np.unique(np.angle(draws)).size == 100  # phases really vary

    def test_phase_mean_concentration(self):
        rng = np.random.default_rng(2)
        d = 10.0 ** ((20.0 - 32.4) / 21.0)  # unit gains up to the 0.1 scale
        draws = draw_path_gains(np.full(100_000, d), 1.0, 1, rng)[:, 1]
        assert np.abs(np.mean(draws / 0.1)) < 0.02

    def test_rejects_non_positive_distance(self):
        with pytest.raises(ValueError, match="distance_m"):
            draw_path_gains(np.array([10.0, 0.0]), 30.0, 2, np.random.default_rng(0))


class TestAngles:
    def test_spatial_frequency_range_and_endpoints(self):
        assert spatial_frequency(np.pi / 2) == pytest.approx(0.5)
        assert spatial_frequency(-np.pi / 2) == pytest.approx(-0.5)
        psi = np.random.default_rng(3).uniform(-np.pi, np.pi, 100_000)
        theta = spatial_frequency(psi)
        assert np.all(theta >= -0.5) and np.all(theta <= 0.5)

    def test_draw_angles_shapes(self):
        cfg = make_config()
        angles = draw_angles(cfg, np.random.default_rng(1))
        assert isinstance(angles, AngleDraws)
        assert angles.bs_departure.shape == (8, 3)
        assert angles.ris_arrival.shape == (8, 3)
        assert angles.ris_departure.shape == (8, 8, 3)

    def test_los_only_single_angle(self):
        cfg = make_config(n_nlos_paths=0)
        angles = draw_angles(cfg, np.random.default_rng(1))
        assert angles.bs_departure.shape == (8, 1)
        assert angles.ris_departure.shape == (8, 8, 1)

    def test_angle_supports(self):
        cfg = make_config(n_users=2, n_selected_beams=8)
        rng = np.random.default_rng(4)
        arrivals = np.concatenate(
            [draw_angles(cfg, rng).ris_arrival.ravel() for _ in range(5000)]
        )
        assert arrivals.size >= 100_000
        assert np.all(np.abs(arrivals) < np.pi / 2)
        one = draw_angles(cfg, np.random.default_rng(5))
        assert np.all(np.abs(one.ris_departure) < np.pi / 2)
        assert np.all(np.abs(one.bs_departure) < np.pi)

    @pytest.mark.parametrize("bits", [np.random.PCG64, np.random.MT19937,
                                      np.random.Philox, np.random.SFC64])
    def test_stream_moves_as_when_user_arrivals_were_drawn(self, bits):
        # the draws of a previous version, which also drew a (J, K, N_p+1)
        # block of user arrival angles on U(-pi, pi) last
        cfg = make_config(n_users=3, n_selected_beams=8, n_ris=2, m_total=8)
        rng, twin = np.random.Generator(bits(5)), np.random.Generator(bits(5))
        draw_angles(cfg, rng)
        for shape, bound in (((2, 3), np.pi), ((2, 3), np.pi / 2),
                             ((2, 3, 3), np.pi / 2), ((2, 3, 3), np.pi)):
            twin.uniform(-bound, bound, shape)
        assert np.array_equal(rng.random(10), twin.random(10))

    def test_determinism(self):
        cfg = make_config()
        a = draw_angles(cfg, np.random.default_rng(9))
        b = draw_angles(cfg, np.random.default_rng(9))
        assert np.array_equal(a.bs_departure, b.bs_departure)
        assert np.array_equal(a.ris_departure, b.ris_departure)


class TestStreams:
    def test_derive_stream_reproducible_and_distinct(self):
        a = derive_stream(7, 1, 2).random(8)
        b = derive_stream(7, 1, 2).random(8)
        c = derive_stream(7, 2, 1).random(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_derive_seed_reproducible_and_distinct(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)
        assert derive_seed(7, 3) != derive_seed(7, 4)
        assert derive_seed(7, 3) >= 0
