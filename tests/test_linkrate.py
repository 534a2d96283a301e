import numpy as np
import pytest

from beamswarm.channel import (
    ChannelSet,
    cascaded_spatial,
    dft_matrix,
    realize_channels,
    to_beamspace,
)
from beamswarm.linkrate import (
    RateReport,
    SumRateEvaluator,
    _sorted_beam_sets,
    _unit_phasors,
    evaluate_solution,
    sum_rate,
)
from beamswarm.pso import Solution
from beamswarm.scenario import derive_stream, make_config
from test_boundary import NOT_FINITE, rejects


# Independent oracle: explicit per-user matched-filter precoders, one
# column at a time, with no code shared with the library kernel.
def mrt_precoder(h, selected):
    """Unit-norm matched-filter precoder restricted to the selected beams.

    Entries outside ``selected`` are zero. Returns the zero vector when the
    channel has no energy on the selected beams.
    """
    h = np.asarray(h)
    idx = np.asarray(selected, dtype=int)
    w = np.zeros(h.shape[0], dtype=complex)
    h_sel = h[idx]
    norm = np.linalg.norm(h_sel)
    if norm > 0.0:
        w[idx] = h_sel.conj() / norm
    return w


def _crossgains(h_beam, selected):
    """Matrix of |h_k^T w_i|^2 for masked matched-filter precoders."""
    k_users = h_beam.shape[1]
    w = np.column_stack([mrt_precoder(h_beam[:, k], selected) for k in range(k_users)])
    cross = h_beam.T @ w
    return cross.real**2 + cross.imag**2


def oracle_sinrs(h_beam, selected, powers, sigma2):
    received = _crossgains(h_beam, selected) * np.asarray(powers)[None, :]
    signal = np.diagonal(received)
    return signal / (received.sum(axis=1) - signal + sigma2)


class TestMrtPrecoder:
    def test_full_mask_conjugate(self):
        w = mrt_precoder(np.array([1.0, 1.0j, 0.0]), [0, 1, 2])
        assert w == pytest.approx(np.array([1.0, -1.0j, 0.0]) / np.sqrt(2))

    def test_single_beam_mask(self):
        w = mrt_precoder(np.array([3.0, 4.0]), [0])
        assert w == pytest.approx(np.array([1.0, 0.0]))

    def test_matched_filter_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h = rng.normal(size=8) + 1j * rng.normal(size=8)
            mask = rng.choice(8, size=3, replace=False)
            w = mrt_precoder(h, mask)
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
            assert abs(h @ w) == pytest.approx(
                np.linalg.norm(h[mask]), rel=1e-12
            )

    def test_degenerate_channel_zero_vector(self):
        h = np.array([0.0, 0.0, 1.0 + 1.0j])
        w = mrt_precoder(h, [0, 1])
        assert np.all(w == 0.0)


def _random_beamspace(rng, n=8, k=3):
    return rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))


def _sinr(k, h, selected, powers, sigma2):
    return sum_rate(h, selected, powers, sigma2).per_ue_sinr[k]


class TestSinr:
    # seeds 4-198 leave a one-ulp residue when the own term is subtracted
    @pytest.mark.parametrize("sigma2", [1e-3, 1e-9, 1e-12, 1e-15])
    @pytest.mark.parametrize("seed", [1, 4, 9, 72, 171, 174, 196, 198])
    def test_single_user_matched_filter(self, seed, sigma2):
        h = _random_beamspace(np.random.default_rng(seed), 6, 1)
        got = _sinr(0, h, np.arange(6), np.array([2.5]), sigma2)
        assert got == pytest.approx(2.5 * np.linalg.norm(h) ** 2 / sigma2, rel=1e-12)

    def test_zero_power_zero_sinr(self):
        rng = np.random.default_rng(2)
        h = _random_beamspace(rng, 6, 2)
        assert _sinr(0, h, np.arange(6), np.array([0.0, 1.0]), 1e-3) == 0.0

    def test_orthogonal_masked_channels(self):
        # users live on disjoint beams, so cross terms vanish
        h = np.zeros((4, 2), dtype=complex)
        h[[0, 1], 0] = [1.0, 1.0j]
        h[[2, 3], 1] = [2.0, -1.0]
        p = np.array([3.0, 5.0])
        mask = np.arange(4)
        for k in range(2):
            expected = p[k] * np.linalg.norm(h[:, k]) ** 2 / 1e-2
            assert _sinr(k, h, mask, p, 1e-2) == pytest.approx(expected, rel=1e-12)


def _oracle_instance(rng, i):
    """Random (h, selected, powers, sigma2); every few draws an edge case."""
    n, k = int(rng.integers(1, 13)), int(rng.integers(1, 6))
    n_s = 1 if i % 5 == 1 else int(rng.integers(1, n + 1))
    h = _random_beamspace(rng, n, k)
    selected = rng.choice(n, size=n_s, replace=False)
    if i % 5 == 0:
        h[selected, int(rng.integers(k))] = 0.0  # a zero-energy user
    powers = rng.random(k) * 10.0 ** rng.uniform(-2, 2)
    return h, selected, powers, 10.0 ** rng.uniform(-2, 0)


class TestAgainstOracle:
    def test_sum_rate_sinrs_on_random_instances(self):
        rng = np.random.default_rng(20)
        for i in range(500):
            h, selected, powers, sigma2 = _oracle_instance(rng, i)
            got = sum_rate(h, selected, powers, sigma2).per_ue_sinr
            want = oracle_sinrs(h, selected, powers, sigma2)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)

    def test_full_mask_on_spatial_channel(self):
        for seed in range(20):
            cfg = make_config(n_antennas=8, n_users=3, n_ris=2, m_total=6,
                              n_selected_beams=8)
            rng = derive_stream(seed, 21)
            ch = realize_channels(cfg, rng)
            h_bar = cascaded_spatial(ch, rng.uniform(0, 2 * np.pi, 6))
            powers = rng.random(3)
            full = np.arange(8)
            got = sum_rate(h_bar, full, powers, cfg.noise_variance).per_ue_sinr
            want = oracle_sinrs(h_bar, full, powers, cfg.noise_variance)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)

    def test_evaluator_sum_rates_on_random_instances(self):
        batch = 20
        for seed in range(25):
            rng = derive_stream(seed, 22)
            n = int(rng.choice([4, 8, 16]))
            k = int(rng.integers(1, 5))
            n_s = int(rng.integers(k, n + 1))
            n_ris = int(rng.integers(1, 4))
            m = n_ris * int(rng.integers(1, 5))
            cfg = make_config(n_antennas=n, n_users=k, n_ris=n_ris, m_total=m,
                              n_selected_beams=n_s)
            ch = realize_channels(cfg, rng)
            if seed % 5 == 0:  # user 0 sees no surface: zero energy on every beam
                silent = [g.copy() for g in ch.ris_ue]
                for g in silent:
                    g[:, 0] = 0.0
                ch = ChannelSet(ch.bs_ris, silent)
            phases = rng.uniform(0, 2 * np.pi, (m, batch))
            beam_sets = np.stack(
                [np.sort(rng.choice(n, size=n_s, replace=False)) for _ in range(batch)],
                axis=1,
            )
            powers = rng.random((k, batch)) * cfg.total_power / k
            got = SumRateEvaluator(ch).sum_rates(
                phases, beam_sets, powers, cfg.noise_variance
            )
            for a in range(batch):
                h = to_beamspace(cascaded_spatial(ch, phases[:, a]), ch.dft_matrix)
                sinrs = oracle_sinrs(h, beam_sets[:, a], powers[:, a],
                                     cfg.noise_variance)
                assert got[a] == pytest.approx(np.log2(1 + sinrs).sum(), rel=1e-10)


class TestInvariants:
    def test_beam_order_does_not_matter(self):
        rng = np.random.default_rng(23)
        for i in range(50):
            h, selected, powers, sigma2 = _oracle_instance(rng, i)
            a = sum_rate(h, selected, powers, sigma2)
            b = sum_rate(h, rng.permutation(selected), powers, sigma2)
            assert np.array_equal(a.per_ue_rate, b.per_ue_rate)

    def test_evaluator_beam_order_and_phase_period(self):
        cfg = make_config(n_antennas=8, n_users=3, n_ris=2, m_total=10,
                          n_selected_beams=5)
        rng = derive_stream(24, 1)
        ev = SumRateEvaluator(realize_channels(cfg, rng))
        phases = rng.uniform(0, 2 * np.pi, (10, 6))
        beam_sets = np.stack(
            [rng.choice(8, size=5, replace=False) for _ in range(6)], axis=1
        )
        powers = rng.random((3, 6))
        base = ev.sum_rates(phases, beam_sets, powers, cfg.noise_variance)
        shuffled = ev.sum_rates(phases, rng.permuted(beam_sets, axis=0), powers,
                                cfg.noise_variance)
        shifted = ev.sum_rates(phases + 2 * np.pi, beam_sets, powers,
                               cfg.noise_variance)
        assert shuffled == pytest.approx(base, rel=1e-12)
        assert shifted == pytest.approx(base, rel=1e-10)

    def test_user_permutation_permutes_rates(self):
        rng = np.random.default_rng(25)
        for i in range(50):
            h, selected, powers, sigma2 = _oracle_instance(rng, i)
            perm = rng.permutation(h.shape[1])
            r = sum_rate(h, selected, powers, sigma2).per_ue_rate
            r_perm = sum_rate(h[:, perm], selected, powers[perm], sigma2).per_ue_rate
            assert r_perm == pytest.approx(r[perm], rel=1e-12, abs=0.0)

    def test_rates_nonnegative(self):
        rng = np.random.default_rng(26)
        for i in range(200):
            report = sum_rate(*_oracle_instance(rng, i))
            assert np.all(report.per_ue_rate >= 0.0)
            assert report.sum_rate >= 0.0


class TestBoundary:
    # other bad inputs are cells of tests/test_boundary.py's table
    def test_rejects_overflowing_sinr(self):
        with pytest.raises(ValueError, match="powers and sigma2"):
            sum_rate(np.array([[1e-6 + 0j], [0j]]), [0], [1e27], 1e-303)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_channel(self, bad):
        """A non-finite imaginary part is caught, as the table's real ones are."""
        h_beam = np.ones((4, 2), complex)
        h_beam[-1, -1] = complex(1.0, bad)
        rejects("sum_rate.h_beam", h_beam, NOT_FINITE)


class TestSumRate:
    def test_zero_powers(self):
        h = _random_beamspace(np.random.default_rng(4), 6, 3)
        report = sum_rate(h, np.arange(6), np.zeros(3), 1e-3)
        assert report.sum_rate == 0.0
        assert np.all(report.per_ue_rate == 0.0)

    def test_single_user_closed_form(self):
        h = _random_beamspace(np.random.default_rng(5), 6, 1)
        mask = np.array([1, 4])
        p, s2 = 10.0, 1e-4
        report = sum_rate(h, mask, np.array([p]), s2)
        expected = np.log2(1 + p * np.linalg.norm(h[mask, 0]) ** 2 / s2)
        assert report.sum_rate == pytest.approx(expected, rel=1e-12)

    def test_report_invariants(self):
        rng = np.random.default_rng(6)
        h = _random_beamspace(rng, 8, 4)
        p = rng.random(4)
        report = sum_rate(h, np.array([0, 2, 5]), p, 1e-3)
        assert isinstance(report, RateReport)
        assert report.sum_rate == pytest.approx(report.per_ue_rate.sum(), rel=1e-12)
        assert np.all(report.per_ue_rate >= 0.0)
        assert np.all(report.per_ue_sinr >= 0.0)

    def test_beamspace_equals_spatial_under_full_mask(self):
        cfg = make_config(n_antennas=16, n_users=3, n_ris=2, m_total=8,
                          n_selected_beams=16)
        rng = derive_stream(cfg.rng_seed, 7)
        ch = realize_channels(cfg, rng)
        phases = rng.uniform(0, 2 * np.pi, 8)
        powers = rng.random(3)
        powers *= cfg.total_power / powers.sum()
        h_bar = cascaded_spatial(ch, phases)
        h_beam = to_beamspace(h_bar, ch.dft_matrix)
        full = np.arange(16)
        r_beam = sum_rate(h_beam, full, powers, cfg.noise_variance)
        r_spatial = sum_rate(h_bar, full, powers, cfg.noise_variance)
        assert r_beam.sum_rate == pytest.approx(r_spatial.sum_rate, rel=1e-9)
        assert r_beam.per_ue_sinr == pytest.approx(r_spatial.per_ue_sinr, rel=1e-9)

    def test_signal_norm_monotone_in_mask(self):
        rng = np.random.default_rng(8)
        h = _random_beamspace(rng, 8, 2)
        mask = [1, 3, 6]
        larger = [1, 3, 5, 6]
        for k in range(2):
            assert np.linalg.norm(h[larger, k]) >= np.linalg.norm(h[mask, k])

    def test_scale_covariance(self):
        rng = np.random.default_rng(9)
        h = _random_beamspace(rng, 8, 3)
        p = rng.random(3)
        a = sum_rate(h, [0, 1, 2, 3], p, 1e-3)
        b = sum_rate(h, [0, 1, 2, 3], 7.0 * p, 7.0 * 1e-3)
        assert a.per_ue_sinr == pytest.approx(b.per_ue_sinr, rel=1e-12)

    def test_column_phase_rotation_invariance(self):
        rng = np.random.default_rng(10)
        h = _random_beamspace(rng, 8, 3)
        p = rng.random(3)
        rotated = h.copy()
        rotated[:, 1] *= np.exp(1j * 1.234)
        a = sum_rate(h, [0, 2, 4], p, 1e-3)
        b = sum_rate(rotated, [0, 2, 4], p, 1e-3)
        assert a.sum_rate == pytest.approx(b.sum_rate, rel=1e-12)

    def test_degenerate_user_rate_zero_no_interference(self):
        # user 0 has no energy on the selected beams
        h = np.zeros((4, 2), dtype=complex)
        h[2:, 0] = [1.0, 2.0]
        h[:2, 1] = [1.0, 1.0j]
        p = np.array([5.0, 5.0])
        report = sum_rate(h, [0, 1], p, 1e-3)
        assert report.per_ue_rate[0] == 0.0
        # user 0's zero precoder must not interfere with user 1
        expected = np.log2(1 + 5.0 * 2.0 / 1e-3)
        assert report.per_ue_rate[1] == pytest.approx(expected, rel=1e-12)


def _solution_for(cfg, rng):
    n, k, m = cfg.n_antennas, cfg.n_users, cfg.total_uc
    scores = rng.random(n)
    order = np.argsort(-scores, kind="stable")[: cfg.n_selected_beams]
    powers = rng.random(k)
    powers *= cfg.total_power / powers.sum()
    return Solution(
        beam_set=np.sort(order),
        powers=powers,
        phases=rng.uniform(0, 2 * np.pi, m),
    )


class TestEvaluateSolution:
    def test_composition_identity(self):
        cfg = make_config(n_antennas=8, n_users=2, n_ris=1, m_total=4,
                          n_selected_beams=8)
        ch = realize_channels(cfg, derive_stream(0, 1))
        sol = Solution(
            beam_set=np.arange(8),
            powers=np.full(2, cfg.total_power / 2),
            phases=np.zeros(4),
        )
        direct = sum_rate(
            to_beamspace(ch.bs_ris[0] @ ch.ris_ue[0], ch.dft_matrix),
            np.arange(8),
            sol.powers,
            cfg.noise_variance,
        )
        assert evaluate_solution(ch, sol, cfg.noise_variance) == pytest.approx(
            direct.sum_rate, rel=1e-12
        )

    def test_against_verbatim_single_expression_oracle(self):
        # independent evaluation: explicit diagonal mask and phase matrices,
        # one expression per user, no shared library code paths
        cfg = make_config(n_antennas=4, n_users=2, n_ris=1, m_total=4,
                          n_selected_beams=2)
        ch = realize_channels(cfg, derive_stream(3, 1))
        rng = derive_stream(4, 1)
        sol = _solution_for(cfg, rng)

        u = ch.dft_matrix
        phi = np.diag(np.exp(1j * sol.phases))
        h = u @ (ch.bs_ris[0] @ phi @ ch.ris_ue[0])
        delta = np.zeros((4, 4))
        delta[sol.beam_set, sol.beam_set] = 1.0
        w = []
        for k in range(2):
            masked = delta @ h[:, k]
            w.append(masked.conj() / np.linalg.norm(masked))
        total = 0.0
        for k in range(2):
            signal = sol.powers[k] * abs(h[:, k] @ (delta @ w[k])) ** 2
            interference = sum(
                sol.powers[i] * abs(h[:, k] @ (delta @ w[i])) ** 2
                for i in range(2)
                if i != k
            )
            total += np.log2(1 + signal / (interference + cfg.noise_variance))
        assert evaluate_solution(ch, sol, cfg.noise_variance) == pytest.approx(
            total, rel=1e-10
        )

    def test_user_permutation_symmetry(self):
        cfg = make_config(n_antennas=8, n_users=3, n_ris=2, m_total=6,
                          n_selected_beams=4)
        ch = realize_channels(cfg, derive_stream(5, 1))
        rng = derive_stream(6, 1)
        sol = _solution_for(cfg, rng)
        perm = np.array([2, 0, 1])
        permuted = ChannelSet(ch.bs_ris, tuple(g[:, perm] for g in ch.ris_ue))
        sol_perm = Solution(sol.beam_set, sol.powers[perm], sol.phases)
        h = to_beamspace(cascaded_spatial(ch, sol.phases), ch.dft_matrix)
        h_perm = to_beamspace(cascaded_spatial(permuted, sol.phases), ch.dft_matrix)
        r = sum_rate(h, sol.beam_set, sol.powers, cfg.noise_variance)
        r_perm = sum_rate(h_perm, sol.beam_set, sol.powers[perm], cfg.noise_variance)
        assert r_perm.per_ue_rate == pytest.approx(r.per_ue_rate[perm], rel=1e-12)
        assert r_perm.sum_rate == pytest.approx(r.sum_rate, rel=1e-12)
        assert evaluate_solution(permuted, sol_perm, cfg.noise_variance) == (
            pytest.approx(evaluate_solution(ch, sol, cfg.noise_variance), rel=1e-12)
        )


class TestSumRateEvaluator:
    def test_matches_reference_path_on_batches(self):
        cfg = make_config(n_antennas=8, n_users=3, n_ris=2, m_total=10,
                          n_selected_beams=4)
        ch = realize_channels(cfg, derive_stream(7, 1))
        ev = SumRateEvaluator(ch)
        rng = derive_stream(8, 1)
        batch = 5
        phases = rng.uniform(0, 2 * np.pi, (10, batch))
        powers = rng.random((3, batch))
        powers *= cfg.total_power / powers.sum(axis=0, keepdims=True)
        beam_sets = np.stack(
            [np.sort(rng.choice(8, size=4, replace=False)) for _ in range(batch)],
            axis=1,
        )
        got = ev.sum_rates(phases, beam_sets, powers, cfg.noise_variance)
        for a in range(batch):
            sol = Solution(
                beam_set=beam_sets[:, a],
                powers=powers[:, a],
                phases=phases[:, a],
            )
            want = evaluate_solution(ch, sol, cfg.noise_variance)
            assert got[a] == pytest.approx(want, rel=1e-10)

    def test_beamspace_channels_match_composition(self):
        cfg = make_config(n_antennas=8, n_users=2, n_ris=2, m_total=6,
                          n_selected_beams=4)
        ch = realize_channels(cfg, derive_stream(9, 1))
        ev = SumRateEvaluator(ch)
        phases = derive_stream(10, 1).uniform(0, 2 * np.pi, 6)
        h = ev.beamspace_channels(phases[:, None], np.arange(8)[:, None])[0]  # (K, N)
        want = to_beamspace(cascaded_spatial(ch, phases), ch.dft_matrix)
        assert h.T == pytest.approx(want, rel=1e-10)

    def test_degenerate_column_handled(self):
        # hand-built channels where both users vanish on the selected beams:
        # user 0 sees no cell, and U C maps the two cells onto beams 2 and 3
        n = 4
        c = dft_matrix(n).conj().T[:, 2:]
        g = np.array([[0.0, 1.0], [0.0, 1.0j]])
        ch = ChannelSet((c,), (g,))
        ev = SumRateEvaluator(ch)
        q = ev.sum_rates(
            np.zeros((2, 1)),
            np.array([[0], [1]]),
            np.full((2, 1), 1.0),
            1e-3,
        )
        # both users land on unselected beams -> rates 0 up to U U^H's rounding
        assert 0.0 <= q[0] < 1e-20


def _zero_surface():
    """Two surfaces, the first with an all-zero BS-RIS matrix (rank 0)."""
    cfg = make_config(n_antennas=8, n_users=3, n_ris=2, m_total=10,
                      n_selected_beams=4)
    ch = realize_channels(cfg, derive_stream(12, 1))
    zero = np.zeros_like(ch.bs_ris[0])
    return cfg, ChannelSet((zero, ch.bs_ris[1]), ch.ris_ue)


def _realized(**kwargs):
    cfg = make_config(**kwargs)
    return cfg, realize_channels(cfg, derive_stream(13, 1))


FACTOR_CASES = {
    "defaults": lambda: _realized(),
    "m1024": lambda: _realized(m_total=1024),
    "uneven": lambda: _realized(n_ris=3, uc_per_ris=(5, 9, 2)),
    # 7 paths on 4-cell surfaces: every C_j has full rank min(N, M_j) = 4
    "full_rank": lambda: _realized(n_antennas=8, n_users=3, n_ris=2, m_total=8,
                                   n_nlos_paths=6, n_selected_beams=4),
    "rank_zero_surface": _zero_surface,
}


@pytest.mark.parametrize("case", list(FACTOR_CASES))
def test_factored_evaluator_matches_evaluate_solution(case):
    cfg, ch = FACTOR_CASES[case]()
    ev = SumRateEvaluator(ch)
    ranks = [np.linalg.matrix_rank(c) for c in ch.bs_ris]
    assert ev._op.shape == (cfg.n_antennas, sum(ranks))
    if case == "full_rank":
        assert ranks == [min(c.shape) for c in ch.bs_ris]
    rng = derive_stream(14, 1)
    batch = 12
    phases = rng.uniform(0, 2 * np.pi, (cfg.total_uc, batch))
    beam_sets = np.stack(
        [np.sort(rng.choice(cfg.n_antennas, size=cfg.n_selected_beams,
                            replace=False)) for _ in range(batch)],
        axis=1,
    )
    powers = rng.random((cfg.n_users, batch)) * cfg.total_power / cfg.n_users
    got = ev.sum_rates(phases, beam_sets, powers, cfg.noise_variance)
    for a in range(batch):
        sol = Solution(beam_set=beam_sets[:, a], powers=powers[:, a],
                       phases=phases[:, a])
        want = evaluate_solution(ch, sol, cfg.noise_variance)
        assert got[a] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_sorted_beam_sets_skip_the_sort_only_for_increasing_columns():
    ordered = np.array([[0, 2], [3, 5], [7, 6]])
    assert _sorted_beam_sets("beam_sets", ordered) is ordered  # checked, not copied
    unsorted = np.array([[3, 2], [0, 5], [7, 6]])
    got = _sorted_beam_sets("beam_sets", unsorted)
    assert np.array_equal(got, np.sort(unsorted, axis=0))
    assert np.array_equal(unsorted, [[3, 2], [0, 5], [7, 6]])  # input kept
    for duplicate in ([[0, 2], [3, 5], [3, 6]], [[3, 2], [0, 5], [3, 6]]):
        with pytest.raises(ValueError, match="^beam_sets must be unique"):
            _sorted_beam_sets("beam_sets", np.array(duplicate))


def test_unit_phasors_match_exp_up_to_the_phase_bound():
    # np.exp(1j*phi) is the oracle the table-and-series map replaces
    bound = 2.0**20
    rng = derive_stream(17, 1)
    phases = np.concatenate([
        np.linspace(-bound, bound, 400_001),
        rng.uniform(-bound, bound, 100_000),
        rng.uniform(-4 * np.pi, 4 * np.pi, 100_000),
        np.arange(-2048, 2049) * (2 * np.pi / 1024),  # table nodes
        (np.arange(-2048, 2048) + 0.5) * (2 * np.pi / 1024),  # half steps
        [0.0, -0.0, 2 * np.pi, np.nextafter(2 * np.pi, 0.0), 1e-300, -5e-17,
         bound, -bound],
    ]).reshape(-1, 7)
    out = np.empty(phases.shape, dtype=complex)
    got = _unit_phasors(phases, out, np.empty((3,) + phases.shape),
                        np.empty(phases.shape, dtype=complex))
    assert got is out
    assert np.abs(got - np.exp(1j * phases)).max() <= 1e-15


def test_sum_rates_at_the_phase_bound_match_evaluate_solution():
    cfg = make_config(n_antennas=8, n_users=3, n_ris=2, m_total=10,
                      n_selected_beams=4)
    ch = realize_channels(cfg, derive_stream(18, 1))
    phases = np.full((10, 2), 2.0**20)
    phases[::2, 1] = -(2.0**20)
    beam_sets = np.array([[0, 1, 2, 3], [4, 5, 6, 7]]).T
    powers = np.ones((3, 2))
    got = SumRateEvaluator(ch).sum_rates(phases, beam_sets, powers,
                                         cfg.noise_variance)
    for a in range(2):
        sol = Solution(beam_set=beam_sets[:, a], powers=powers[:, a],
                       phases=phases[:, a])
        want = evaluate_solution(ch, sol, cfg.noise_variance)
        assert got[a] == pytest.approx(want, rel=1e-12, abs=0.0)


def _batch(cfg, a, n_s, seed):
    rng = derive_stream(seed, a, n_s)
    phases = rng.uniform(0, 2 * np.pi, (cfg.total_uc, a))
    beam_sets = np.argsort(rng.random((cfg.n_antennas, a)), axis=0)[:n_s]
    powers = rng.random((cfg.n_users, a))
    return phases, beam_sets, powers


def test_empty_batch_gives_empty_rates():
    cfg = make_config(n_antennas=8, n_users=3, n_ris=2, m_total=10,
                      n_selected_beams=4)
    ev = SumRateEvaluator(realize_channels(cfg, derive_stream(19, 1)))
    got = ev.sum_rates(*_batch(cfg, 0, 4, 19), cfg.noise_variance)
    assert got.shape == (0,) and got.dtype == float


def test_reused_evaluator_matches_a_fresh_one():
    # the buffers are keyed by (A, N_s); changing either must not leak state
    cfg = make_config(n_users=4, n_selected_beams=16)
    ch = realize_channels(cfg, derive_stream(21, 1))
    ev = SumRateEvaluator(ch)
    shapes = [(50, 16), (7, 16), (50, 16), (50, 5), (1, 4), (50, 16), (0, 16),
              (120, 16)]
    for i, (a, n_s) in enumerate(shapes):
        batch = _batch(cfg, a, n_s, 22 + i)
        got = ev.sum_rates(*batch, cfg.noise_variance)
        want = SumRateEvaluator(ch).sum_rates(*batch, cfg.noise_variance)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", ["defaults", "k16_ns16", "zero_energy_user"])
def test_unchecked_score_has_the_bits_of_sum_rates(case):
    if case == "zero_energy_user":
        # user 0 sees no cell; U C maps the two cells onto beams 2 and 3
        c = dft_matrix(4).conj().T[:, 2:]
        ch = ChannelSet((c,), (np.array([[0.0, 1.0], [0.0, 1.0j]]),))
        phases = derive_stream(27, 1).uniform(0, 2 * np.pi, (2, 6))
        beam_sets = np.array([[0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3]])
        batch, noise_variance = (phases, beam_sets, np.ones((2, 6))), 1e-3
    else:
        cfg = make_config(**({} if case == "defaults" else
                             {"n_users": 16, "n_selected_beams": 16}))
        ch = realize_channels(cfg, derive_stream(27, 1))
        phases, beam_sets, powers = _batch(cfg, 50, cfg.n_selected_beams, 27)
        batch = phases, np.sort(beam_sets, axis=0), powers
        noise_variance = cfg.noise_variance
    ev = SumRateEvaluator(ch)
    got = ev._score(*batch, noise_variance)
    assert got.tobytes() == ev.sum_rates(*batch, noise_variance).tobytes()
    assert np.isfinite(got).all()


def test_beamspace_channels_returns_a_new_array():
    cfg = make_config()
    ev = SumRateEvaluator(realize_channels(cfg, derive_stream(23, 1)))
    phases, beam_sets, _ = _batch(cfg, 50, 8, 24)
    first = ev.beamspace_channels(phases, np.sort(beam_sets, axis=0))
    kept = first.copy()
    other, other_sets, _ = _batch(cfg, 50, 8, 25)
    second = ev.beamspace_channels(other, np.sort(other_sets, axis=0))
    assert first.tobytes() == kept.tobytes()
    assert not np.shares_memory(first, second)
