"""Matched-filter precoding, per-user SINR and the sum-rate objective.

Rates are in bit/s/Hz. A user whose channel vanishes on the selected beams
gets the zero precoder and rate zero: it neither transmits nor interferes,
which is the continuous limit of the matched-filter expression at 0/0.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

_LN2 = np.log(2.0)


@dataclass(frozen=True)
class RateReport:
    """Per-user SINRs and rates plus their sum."""

    per_ue_sinr: np.ndarray
    per_ue_rate: np.ndarray
    sum_rate: float


def validate_beam_set(selected, n_antennas):
    """Check a beam index set and return it as a sorted int array.

    Indices must be integers, unique, and lie in [0, n_antennas); a
    negative index is rejected rather than wrapped.
    """
    sel = np.asarray(selected)
    if sel.ndim != 1 or sel.dtype.kind not in "iu":
        raise ValueError(
            f"beam indices must be a 1-D integer array "
            f"(got dtype {sel.dtype}, shape {sel.shape})"
        )
    idx = np.unique(sel)
    if idx.size != sel.size:
        raise ValueError(f"beam indices must be unique (got {sel.tolist()})")
    if idx.size and (idx[0] < 0 or idx[-1] >= n_antennas):
        raise ValueError(
            f"beam indices must lie in [0, {n_antennas}) (got {sel.tolist()})"
        )
    return idx


def _mrt_sinrs(h_sel, p, noise_variance):
    """Matched-filter SINRs of a batch: (A, K, N_s) channels, (A, K) powers.

    User i's precoder is conj(h_i(S)) / |h_i(S)|, so user k receives
    p_i |<h_k(S), h_i(S)>|^2 / |h_i(S)|^2 from user i. Returns (A, K).
    """
    cross = h_sel @ h_sel.conj().transpose(0, 2, 1)  # (A, K, K)
    energy = np.einsum("akk->ak", cross).real  # |h_k(S)|^2
    cross_sq = cross.real**2 + cross.imag**2
    denom = energy[:, None, :]
    received = np.divide(
        cross_sq, denom, out=np.zeros_like(cross_sq), where=denom > 0.0
    )
    received *= p[:, None, :]
    signal = p * energy
    # self-term cancellation is exact up to rounding; clamp the residue
    interference = np.maximum(received.sum(axis=2) - signal, 0.0)
    return signal / (interference + noise_variance)


def sum_rate(h_beam, selected, powers, sigma2):
    """Achievable rates for all users under a shared beam selection.

    ``h_beam`` is the (N, K) beamspace channel with one column per user;
    ``selected`` the beam indices (see :func:`validate_beam_set`);
    ``powers`` the per-user transmit powers in watts, finite and >= 0.
    """
    if not (math.isfinite(sigma2) and sigma2 > 0.0):
        raise ValueError(f"sigma2 must be finite and > 0 (got {sigma2})")
    h_beam = np.asarray(h_beam)
    n, k = h_beam.shape
    powers = np.asarray(powers, dtype=float)
    if powers.shape != (k,):
        raise ValueError(
            f"powers must hold one entry per user: shape ({k},) "
            f"(got {powers.shape})"
        )
    if not (np.isfinite(powers).all() and (powers >= 0.0).all()):
        raise ValueError(f"powers must be finite and >= 0 (got {powers.tolist()})")
    idx = validate_beam_set(selected, n)
    sinr = _mrt_sinrs(h_beam[idx].T[None], powers[None], sigma2)[0]
    rates = np.log1p(sinr) / _LN2
    return RateReport(
        per_ue_sinr=sinr,
        per_ue_rate=rates,
        sum_rate=float(rates.sum()),
    )


def evaluate_solution(channels, sol, noise_variance):
    """Sum rate of one candidate solution on a channel realization.

    Composes the cascaded spatial channel for the solution's phase profile,
    maps it onto the beams, and scores it with the solution's beam set and
    power split.
    """
    from .channel import cascaded_spatial, to_beamspace

    h_bar = cascaded_spatial(channels, sol.phases)
    h_beam = to_beamspace(h_bar, channels.dft_matrix)
    return sum_rate(h_beam, sol.beam_set, sol.powers, noise_variance).sum_rate


class SumRateEvaluator:
    """Batched sum-rate evaluation against one fixed channel realization.

    Precomputes, per user, the linear map from unit-cell reflection
    coefficients to the beamspace channel vector, so scoring a batch of
    candidates reduces to one matrix product plus O(K^2 N_s) work per
    candidate. Results match :func:`evaluate_solution` to rounding.
    """

    def __init__(self, channels):
        k, n = channels.n_users, channels.n_antennas
        blocks = []
        for c, g in zip(channels.bs_ris, channels.ris_ue):
            b = channels.dft_matrix @ c  # (N, M_j)
            blocks.append(b[None, :, :] * g.T[:, None, :])  # (K, N, M_j)
        op = np.concatenate(blocks, axis=2)
        self.n_users = k
        self.n_antennas = n
        self.total_uc = op.shape[2]
        self._op = np.ascontiguousarray(op.reshape(k * n, self.total_uc))

    def beamspace_channels(self, phases):
        """Beamspace channel matrices for phase columns; shape (A, K, N)."""
        phases = np.asarray(phases, dtype=float)
        if phases.ndim == 1:
            phases = phases[:, None]
        v = np.exp(1j * phases)
        h_flat = self._op @ v  # (K*N, A)
        n_batch = h_flat.shape[1]
        return h_flat.reshape(self.n_users, self.n_antennas, n_batch).transpose(2, 0, 1)

    def sum_rates(self, phases, beam_sets, powers, noise_variance):
        """Sum rates for a batch of candidates, one column per candidate.

        ``phases`` is (M, A), ``beam_sets`` (N_s, A) integer beam indices,
        ``powers`` (K, A). Returns a length-A vector of sum rates.
        """
        if noise_variance <= 0.0:
            raise ValueError(f"noise_variance must be > 0 (got {noise_variance})")
        h = self.beamspace_channels(phases)  # (A, K, N)
        idx = np.asarray(beam_sets, dtype=int).T  # (A, N_s)
        h_sel = np.take_along_axis(h, idx[:, None, :], axis=2)  # (A, K, N_s)
        p = np.asarray(powers, dtype=float).T  # (A, K)
        return np.log1p(_mrt_sinrs(h_sel, p, noise_variance)).sum(axis=1) / _LN2
