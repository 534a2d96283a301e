import numpy as np
import pytest

from beamswarm.channel import (
    ChannelSet,
    bs_ris_channel,
    cascaded_spatial,
    dft_matrix,
    realize_channels,
    ris_ue_channel,
    split_phases,
    steering,
    to_beamspace,
)
from beamswarm.scenario import derive_stream, draw_angles, make_config, place_nodes
from test_boundary import earlier


class TestSteering:
    def test_zero_frequency(self):
        assert steering(0.0, 4) == pytest.approx(np.full(4, 0.5))

    def test_half_frequency_alternates(self):
        assert steering(0.5, 2) == pytest.approx(np.array([1.0, -1.0]) / np.sqrt(2))

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for theta in rng.uniform(-0.5, 0.5, 20):
            for n in (1, 2, 7, 64):
                assert np.linalg.norm(steering(theta, n)) == pytest.approx(
                    1.0, abs=1e-14
                )

    def test_array_gives_one_column_per_frequency(self):
        thetas = np.array([[-0.3, 0.1], [0.25, 0.4]])
        a = steering(thetas, 5)
        assert a.shape == (5, 2, 2)
        for idx in np.ndindex(thetas.shape):
            assert a[(slice(None), *idx)] == pytest.approx(steering(thetas[idx], 5))


class TestRisUeChannel:
    def test_los_only_ones(self):
        g = ris_ue_channel([1.0], [0.0], 4)
        assert g == pytest.approx(np.ones(4))

    def test_single_nlos_ones(self):
        g = ris_ue_channel([0.0, 1.0], [0.3, 0.0], 4)
        assert g == pytest.approx(np.ones(4))

    def test_term_by_term_oracle(self):
        # independent summation of the defining expression, path by path
        rng = np.random.default_rng(1)
        m, n_p = 8, 3
        gains = rng.normal(size=n_p + 1) + 1j * rng.normal(size=n_p + 1)
        thetas = rng.uniform(-0.5, 0.5, n_p + 1)
        expected = np.sqrt(m) * gains[0] * steering(thetas[0], m)
        for l in range(1, n_p + 1):
            expected += np.sqrt(m / n_p) * gains[l] * steering(thetas[l], m)
        assert ris_ue_channel(gains, thetas, m) == pytest.approx(expected, rel=1e-12)
        # a (K, P) input gives one column per user, each the 1-D channel
        k_users = 4
        shape = (k_users, n_p + 1)
        gains_k = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        thetas_k = rng.uniform(-0.5, 0.5, shape)
        g = ris_ue_channel(gains_k, thetas_k, m)
        assert g.shape == (m, k_users)
        for k in range(k_users):
            expected = np.sqrt(m) * gains_k[k, 0] * steering(thetas_k[k, 0], m)
            for l in range(1, n_p + 1):
                expected += np.sqrt(m / n_p) * gains_k[k, l] * steering(thetas_k[k, l], m)
            assert g[:, k] == pytest.approx(expected, rel=1e-12)

    def test_triangle_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            gains = rng.normal(size=3) + 1j * rng.normal(size=3)
            thetas = rng.uniform(-0.5, 0.5, 3)
            g = ris_ue_channel(gains, thetas, 16)
            bound = np.sqrt(16) * (
                abs(gains[0]) + np.sqrt(1 / 2) * np.abs(gains[1:]).sum()
            )
            assert np.linalg.norm(g) <= bound + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ris_ue_channel([1.0, 0.5], [0.0], 4)


class TestBsRisChannel:
    def test_los_only_rank_one(self):
        c = bs_ris_channel([1.0], [0.2], [-0.1], 8, 4)
        assert c.shape == (8, 4)
        assert np.linalg.matrix_rank(c) == 1
        s = np.linalg.svd(c, compute_uv=False)
        assert s[0] == pytest.approx(np.sqrt(4 * 8), rel=1e-12)

    def test_rank_bound_with_scatterers(self):
        rng = np.random.default_rng(3)
        gains = rng.normal(size=3) + 1j * rng.normal(size=3)
        c = bs_ris_channel(gains, rng.uniform(-0.5, 0.5, 3),
                           rng.uniform(-0.5, 0.5, 3), 16, 8)
        assert np.linalg.matrix_rank(c) <= 3

    def test_term_by_term_oracle(self):
        rng = np.random.default_rng(4)
        n, m, n_p = 8, 4, 2
        gains = rng.normal(size=n_p + 1) + 1j * rng.normal(size=n_p + 1)
        dep = rng.uniform(-0.5, 0.5, n_p + 1)
        arr = rng.uniform(-0.5, 0.5, n_p + 1)
        expected = (
            np.sqrt(m * n)
            * gains[0]
            * np.outer(steering(dep[0], n), steering(arr[0], m).conj())
        )
        for l in range(1, n_p + 1):
            expected += (
                np.sqrt(m * n / n_p)
                * gains[l]
                * np.outer(steering(dep[l], n), steering(arr[l], m).conj())
            )
        got = bs_ris_channel(gains, dep, arr, n, m)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bs_ris_channel([1.0], [0.0, 0.1], [0.0], 4, 4)


class TestDftMatrix:
    def test_first_column_matches_grid(self):
        u = dft_matrix(4)
        assert u[:, 0] == pytest.approx(steering(-0.375, 4))
        assert u[:, 3] == pytest.approx(steering(0.375, 4))

    def test_single_beam(self):
        assert dft_matrix(1) == pytest.approx(np.array([[1.0]]))

    def test_unitarity_all_sizes(self):
        for n in range(1, 65):
            u = dft_matrix(n)
            eye = np.eye(n)
            assert np.linalg.norm(u @ u.conj().T - eye) < 1e-12
            assert np.linalg.norm(u.conj().T @ u - eye) < 1e-12

    def test_cached_and_read_only(self):
        u = dft_matrix(8)
        assert dft_matrix(8) is u
        with pytest.raises(ValueError):
            u[0, 0] = 0.0


class TestChannelSet:
    # bad blocks are cells of tests/test_boundary.py's table
    test_shape_validation = earlier("TestChannelSet.test_shape_validation")
    test_rejects_non_finite_entries = earlier(
        "TestChannelSet.test_rejects_non_finite_entries")

    def test_immutable_and_properties(self):
        cfg = make_config(n_antennas=8, n_users=2, n_ris=2, m_total=6,
                          n_selected_beams=4)
        ch = realize_channels(cfg, derive_stream(0, 0))
        assert ch.n_antennas == 8
        assert ch.n_users == 2
        assert ch.uc_per_ris == (3, 3)
        assert ch.total_uc == 6
        with pytest.raises(ValueError):
            ch.bs_ris[0][0, 0] = 0.0
        with pytest.raises(ValueError):
            ch.ris_ue[1][0, 0] = 0.0


def test_split_phases():
    parts = split_phases(np.array([1.0, 2.0, 3.0, 4.0]), (2, 2))
    assert [list(p) for p in parts] == [[1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(ValueError):
        split_phases(np.zeros(3), (2, 2))


def _tiny_channels(seed=0, n=8, k=2, j=2, m_total=6):
    cfg = make_config(n_antennas=n, n_users=k, n_ris=j, m_total=m_total,
                      n_selected_beams=min(4, n), rng_seed=seed)
    return cfg, realize_channels(cfg, derive_stream(seed, 0))


class TestCascadedSpatial:
    def test_zero_phases_single_surface(self):
        cfg = make_config(n_antennas=8, n_users=2, n_ris=1, m_total=4,
                          n_selected_beams=4)
        ch = realize_channels(cfg, derive_stream(1, 0))
        h = cascaded_spatial(ch, np.zeros(4))
        assert h == pytest.approx(ch.bs_ris[0] @ ch.ris_ue[0], rel=1e-12)

    def test_common_shift_is_global_phase(self):
        cfg = make_config(n_antennas=8, n_users=2, n_ris=1, m_total=4,
                          n_selected_beams=4)
        ch = realize_channels(cfg, derive_stream(2, 0))
        phases = np.random.default_rng(3).uniform(0, 2 * np.pi, 4)
        shift = 0.7
        assert cascaded_spatial(ch, phases + shift) == pytest.approx(
            np.exp(1j * shift) * cascaded_spatial(ch, phases), rel=1e-12
        )

    def test_two_surface_termwise_oracle(self):
        _, ch = _tiny_channels(seed=4)
        phases = np.random.default_rng(5).uniform(0, 2 * np.pi, ch.total_uc)
        blocks = split_phases(phases, ch.uc_per_ris)
        expected = sum(
            c @ np.diag(np.exp(1j * phi)) @ g
            for c, g, phi in zip(ch.bs_ris, ch.ris_ue, blocks)
        )
        assert cascaded_spatial(ch, phases) == pytest.approx(expected, rel=1e-12)

    def test_linear_in_ris_ue_channel(self):
        cfg = make_config(n_antennas=8, n_users=2, n_ris=1, m_total=4,
                          n_selected_beams=4)
        ch = realize_channels(cfg, derive_stream(6, 0))
        doubled = ChannelSet(ch.bs_ris, (2.0 * ch.ris_ue[0],))
        phases = np.random.default_rng(7).uniform(0, 2 * np.pi, 4)
        assert cascaded_spatial(doubled, phases) == pytest.approx(
            2.0 * cascaded_spatial(ch, phases), rel=1e-12
        )

    def test_rank_one_when_los_only_single_surface(self):
        cfg = make_config(n_antennas=8, n_users=4, n_ris=1, m_total=4,
                          n_selected_beams=4, n_nlos_paths=0)
        ch = realize_channels(cfg, derive_stream(8, 0))
        h = cascaded_spatial(ch, np.random.default_rng(9).uniform(0, 6.28, 4))
        assert np.linalg.matrix_rank(h) <= 1


class TestToBeamspace:
    def test_identity_transform(self):
        h_bar = np.arange(6, dtype=complex).reshape(3, 2)
        assert to_beamspace(h_bar, np.eye(3)) == pytest.approx(h_bar)

    def test_norms_preserved(self):
        _, ch = _tiny_channels(seed=10)
        phases = np.random.default_rng(11).uniform(0, 2 * np.pi, ch.total_uc)
        h_bar = cascaded_spatial(ch, phases)
        h = to_beamspace(h_bar, ch.dft_matrix)
        assert np.linalg.norm(h, axis=0) == pytest.approx(
            np.linalg.norm(h_bar, axis=0), rel=1e-12
        )

    def test_unconjugated_inner_products_preserved(self):
        # h_k^T h_i^* is invariant because U^T U^* = I for the unitary U
        _, ch = _tiny_channels(seed=12)
        phases = np.random.default_rng(13).uniform(0, 2 * np.pi, ch.total_uc)
        h_bar = cascaded_spatial(ch, phases)
        h = to_beamspace(h_bar, ch.dft_matrix)
        assert h.T @ h.conj() == pytest.approx(h_bar.T @ h_bar.conj(), rel=1e-9)


def _ula(theta, n):
    return np.exp(-2j * np.pi * np.arange(n) * theta) / np.sqrt(n)


def _amplitude(distance, f_c, exponent):
    return np.sqrt(10.0 ** (-(32.4 + exponent * np.log10(distance)
                              + 20.0 * np.log10(f_c)) / 10.0))


class TestRealizeChannels:
    def test_twin_stream_oracle(self):
        # replay the documented draws on a twin stream and build every
        # channel matrix path by path
        cfg = make_config(n_antennas=8, n_users=2, n_ris=2, uc_per_ris=(3, 5),
                          n_nlos_paths=2, n_selected_beams=4)
        n, k_users, n_p, f_c = 8, 2, 2, cfg.carrier_freq_ghz
        stream, twin = derive_stream(21, 0), derive_stream(21, 0)
        ch = realize_channels(cfg, stream)

        layout = place_nodes(cfg, twin)
        angles = draw_angles(cfg, twin)
        v_bs = [[twin.random() for _ in range(n_p)] for _ in range(2)]
        v_ue = [[[twin.random() for _ in range(n_p)] for _ in range(k_users)]
                for _ in range(2)]

        def gains(distance, v):
            return [_amplitude(distance, f_c, 21.0)] + [
                _amplitude(distance, f_c, 31.9) * np.exp(-2j * np.pi * x) for x in v
            ]

        for j, m in enumerate(cfg.uc_per_ris):
            ris = layout.ris_positions[j]
            g_bs = gains(np.hypot(*ris), v_bs[j])
            c = np.zeros((n, m), dtype=complex)
            for l in range(n_p + 1):
                weight = np.sqrt(n * m) if l == 0 else np.sqrt(n * m / n_p)
                a_bs = _ula(0.5 * np.sin(angles.bs_departure[j, l]), n)
                a_ris = _ula(0.5 * np.sin(angles.ris_arrival[j, l]), m)
                c += weight * g_bs[l] * np.outer(a_bs, a_ris.conj())
            assert ch.bs_ris[j] == pytest.approx(c, rel=1e-12)
            for k in range(k_users):
                g_ue = gains(np.hypot(*(ris - layout.ue_positions[k])), v_ue[j][k])
                g = np.zeros(m, dtype=complex)
                for l in range(n_p + 1):
                    weight = np.sqrt(m) if l == 0 else np.sqrt(m / n_p)
                    g += weight * g_ue[l] * _ula(
                        0.5 * np.sin(angles.ris_departure[j, k, l]), m)
                assert ch.ris_ue[j][:, k] == pytest.approx(g, rel=1e-12)
        # the realization drew exactly as many uniforms as the replay
        assert stream.random() == twin.random()

    def test_shapes(self):
        cfg = make_config()
        ch = realize_channels(cfg, derive_stream(0, 0))
        assert len(ch.bs_ris) == 8
        assert all(c.shape == (64, 16) for c in ch.bs_ris)
        assert all(g.shape == (16, 8) for g in ch.ris_ue)
        assert ch.dft_matrix is dft_matrix(64)  # the cached codebook of N

    def test_determinism_and_seed_sensitivity(self):
        cfg = make_config(n_antennas=8, n_users=2, n_ris=2, m_total=6,
                          n_selected_beams=4)
        a = realize_channels(cfg, derive_stream(3, 1))
        b = realize_channels(cfg, derive_stream(3, 1))
        c = realize_channels(cfg, derive_stream(3, 2))
        for j in range(2):
            assert np.array_equal(a.bs_ris[j], b.bs_ris[j])
            assert np.array_equal(a.ris_ue[j], b.ris_ue[j])
        assert not np.array_equal(a.bs_ris[0], c.bs_ris[0])

    def test_magnitudes_track_path_loss(self):
        # LoS-only single-path channel: |C| entries equal the LoS amplitude
        cfg = make_config(n_antennas=4, n_users=1, n_ris=1, m_total=2,
                          n_selected_beams=4, n_nlos_paths=0)
        ch = realize_channels(cfg, derive_stream(5, 0))
        from beamswarm.scenario import path_loss_db

        amp = np.sqrt(10 ** (-path_loss_db(40.0, 30.0, True) / 10))
        # C = sqrt(M*N) * eta0 * a a^H with unit-modulus entries 1/sqrt(N*M)
        assert np.abs(ch.bs_ris[0]) == pytest.approx(
            np.full((4, 2), amp), rel=1e-9
        )
