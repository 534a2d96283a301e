"""Matched-filter precoding, per-user SINR and the sum-rate objective.

Rates are in bit/s/Hz. A user whose channel vanishes on the selected beams
gets the zero precoder and rate zero: it neither transmits nor interferes,
which is the continuous limit of the matched-filter expression at 0/0.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
import math

import numpy as np

from .channel import cascaded_spatial, to_beamspace
from .scenario import _checked_array, _require_real

_LN2 = np.log(2.0)

# largest |phase| that sum_rates accepts; _unit_phasors keeps 1e-15 up to here
_PHASE_BOUND = 2.0**20

# exp(1j*phi) = table[k mod 2^10] * exp(1j*b) with phi = k*step + b and
# |b| <= step/2, step = 2*pi/2^10. The step is split Cody-Waite style: HI
# keeps 25 bits of 2*pi, so k*_STEP_HI is exact for |k| < 2^28 (any |phi|
# <= _PHASE_BOUND), and _STEP_LO carries the rest of 2*pi, including the
# tail 2*pi - fl(2*pi) that a double cannot hold.
_TABLE_SIZE = 1 << 10
_TWO_PI_HI = math.ldexp(round(math.ldexp(2.0 * math.pi, 22)), -22)
_STEP_HI = _TWO_PI_HI / _TABLE_SIZE
_STEP_LO = ((2.0 * math.pi - _TWO_PI_HI) + 2.4492935982947064e-16) / _TABLE_SIZE
_STEPS_PER_RAD = _TABLE_SIZE / (2.0 * math.pi)
_TABLE = np.exp(1j * (np.arange(_TABLE_SIZE) * _STEP_HI)) * np.exp(
    1j * (np.arange(_TABLE_SIZE) * _STEP_LO)
)


def _unit_phasors(phases, out, scratch, rot):
    """exp(1j * phases) for finite |phases| <= _PHASE_BOUND, to 1e-15.

    A table lookup times a short Taylor series in the remainder b, with
    |b| <= pi/2^10: cos to b^4 and sin to b^5 leave errors below 1e-17.
    Writes into ``out`` (complex, the shape of ``phases``) and works in
    ``scratch``, a float array of shape ``(3,) + phases.shape``, and in
    ``rot``, a complex array of the shape of ``phases``.
    """
    k, b, sin = scratch
    np.multiply(phases, _STEPS_PER_RAD, out=k)
    np.rint(k, out=k)
    idx = b.view(np.intp)
    np.copyto(idx, k, casting="unsafe")
    idx &= _TABLE_SIZE - 1
    _TABLE.take(idx, out=out, mode="clip")  # "raise" would buffer out
    np.multiply(k, _STEP_HI, out=b)  # the indices are spent; reuse their buffer
    np.subtract(phases, b, out=b)
    k *= _STEP_LO
    b -= k
    b2 = np.multiply(b, b, out=k)
    np.multiply(b2, 1.0 / 120.0, out=sin)
    sin -= 1.0 / 6.0
    sin *= b2
    sin *= b
    np.add(sin, b, out=rot.imag)
    cos = np.multiply(b2, 1.0 / 24.0, out=b)
    cos -= 0.5
    cos *= b2
    np.add(cos, 1.0, out=rot.real)
    out *= rot
    return out


@dataclass(frozen=True)
class RateReport:
    """Per-user SINRs and rates plus their sum."""

    per_ue_sinr: np.ndarray
    per_ue_rate: np.ndarray
    sum_rate: float


def _sorted_beam_sets(name, beam_sets):
    """Sort checked (N_s, A) beam sets, one per column, down axis 0, and
    reject empty sets (N_s = 0) and a set that repeats an index.

    Sets that are sorted already come back as they are, not copied.
    """
    if not len(beam_sets):
        raise ValueError(f"{name} must hold at least one beam index")
    # strictly increasing columns are sorted and unique as they are
    if (beam_sets[1:] > beam_sets[:-1]).all():
        return beam_sets
    ordered = np.sort(beam_sets, axis=0)
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError(f"{name} must be unique within each beam set")
    return ordered


def _sinr_work(a, k, n_s):
    """Work arrays of :func:`_mrt_sinrs` for A candidates, K users, N_s beams."""
    return (
        np.empty((a, k, n_s), dtype=complex),  # conj(h_sel)
        np.empty((a, k, k), dtype=complex),  # cross gains
        np.empty((a, k, k)),  # |cross|^2
        np.empty((a, k, k)),  # received powers
    )


def _mrt_sinrs(h_sel, p, noise_variance, work):
    """Matched-filter SINRs of a batch: (A, K, N_s) channels, (A, K) powers.

    User i's precoder is conj(h_i(S)) / |h_i(S)|, so user k receives
    p_i |<h_k(S), h_i(S)>|^2 / |h_i(S)|^2 from each other user i; its own
    term is left out, not subtracted, so no rounding residue stays in the
    interference. Returns (A, K).
    ``work`` holds the (A, K, ·) arrays (see :func:`_sinr_work`).
    """
    h_conj, cross, cross_sq, received = work
    k = h_sel.shape[1]
    np.conjugate(h_sel, out=h_conj)
    np.matmul(h_sel, h_conj.transpose(0, 2, 1), out=cross)  # (A, K, K)
    energy = cross.diagonal(axis1=1, axis2=2).real  # |h_k(S)|^2
    np.square(cross.real, out=cross_sq)
    cross_sq += np.square(cross.imag, out=received)
    denom = energy[:, None, :]
    received.fill(0.0)
    np.divide(cross_sq, denom, out=received, where=denom > 0.0)
    received *= p[:, None, :]
    received.reshape(-1, k * k)[:, :: k + 1] = 0.0  # the diagonal, i = k
    signal = p * energy
    with np.errstate(over="ignore"):  # an inf SINR; sum_rate and optimize reject it
        return signal / (received.sum(axis=2) + noise_variance)


def sum_rate(h_beam, selected, powers, sigma2):
    """Achievable rates for all users under a shared beam selection.

    ``h_beam`` is the finite (N, K) beamspace channel, one column per user;
    ``selected`` N_s >= 1 unique integer beam indices in [0, N), in any
    order (a negative index is rejected, not wrapped); ``powers`` the
    per-user transmit powers in watts, finite and >= 0.
    Raises ValueError when an SINR overflows at these powers and ``sigma2``.
    """
    _require_real("sigma2", sigma2, 0.0, strict=True)
    h_beam = _checked_array("h_beam", h_beam, ("N", "K"), "numbers")
    n, k = h_beam.shape
    powers = _checked_array("powers", powers, (k,), low=0.0)
    if not np.size(selected):  # [] would make floats
        selected = np.empty(0, np.intp)
    idx = _checked_array("selected", selected, ("N_s",), "integers", high=n - 1)
    idx = _sorted_beam_sets("selected", idx[:, None])[:, 0]
    sinr = _mrt_sinrs(h_beam[idx].T[None], powers[None], sigma2,
                      _sinr_work(1, k, idx.size))[0]
    if not np.isfinite(sinr).all():
        raise ValueError(
            f"SINR is not finite (got {sinr.tolist()}): it overflows at these "
            f"powers and sigma2={sigma2}"
        )
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
    h_bar = cascaded_spatial(channels, sol.phases)
    h_beam = to_beamspace(h_bar, channels.dft_matrix)
    return sum_rate(h_beam, sol.beam_set, sol.powers, noise_variance).sum_rate


def _low_rank(c):
    """Split ``c`` (N, M) into an (N, r) basis and (r, M) coefficients.

    Pivoted Gram-Schmidt: each step takes the residual column of largest
    norm as the next basis direction and removes its projection, so
    ``c = basis @ coef + residual`` holds term by term. It stops once the
    residual's norm is at most ``max(N, M) * eps * ||c||`` (Frobenius
    norms; ``numpy.linalg.matrix_rank`` uses this tolerance on the singular
    values), or at r = min(N, M). An all-zero ``c`` gives r = 0.
    """
    res = np.array(c, dtype=complex)
    tol = max(c.shape) * np.finfo(float).eps * np.linalg.norm(c)
    basis, coef = [], []
    while len(basis) < min(c.shape):
        norms = (res.real**2 + res.imag**2).sum(axis=0)
        if norms.sum() <= tol**2:
            break
        pivot = int(np.argmax(norms))
        q = res[:, pivot] / np.sqrt(norms[pivot])
        row = q.conj() @ res
        res -= np.outer(q, row)
        basis.append(q)
        coef.append(row)
    n, m = c.shape
    return np.array(basis).reshape(-1, n).T, np.array(coef).reshape(-1, m)


class SumRateEvaluator:
    """Batched sum-rate evaluation against one fixed channel realization.

    Surface j reaches the beams through ``U C_j diag(exp(1j*phi_j)) G_j``,
    and ``C_j`` has small rank r_j (at most one per propagation path). The
    build factors ``C_j = B_j Q_j`` at its numerical rank (see
    :func:`_low_rank`), so ``U C_j = P_j Q_j`` with ``P_j = U B_j``, and
    folds ``G_j`` into ``W_j[(r, k), m] = Q_j[r, m] G_j[m, k]``. Scoring a
    candidate then costs ``sum_j K r_j M_j`` for ``z_j = W_j
    exp(1j*phi_j)`` plus ``K N_s sum_j r_j`` to combine it with the rows of
    ``P`` at the selected beams; the beams that are not selected are never
    formed. At full rank the same path is exact. Results match
    :func:`evaluate_solution` to rounding.

    The per-batch arrays live in buffers the evaluator keeps between calls
    and allocates anew when the batch shape (A, N_s) changes, so one
    evaluator must not be called from two threads at once. ``optimize``
    builds its own, and the sweep pool runs processes.
    """

    def __init__(self, channels):
        rows, ws = [], []
        for c, g in zip(channels.bs_ris, channels.ris_ue):
            basis, coef = _low_rank(c)
            rows.append(channels.dft_matrix @ basis)  # P_j, (N, r_j)
            # W_j, (r_j K, M_j)
            ws.append((coef[:, None, :] * g.T).reshape(-1, g.shape[0]))
        # consecutive surfaces with W_j of one shape share one batched product
        self._products = []  # (stacked W_j, their phases, their rows of z)
        end = z_end = 0
        for _, run in itertools.groupby(ws, key=np.shape):
            w = np.stack(list(run))  # (J_g, r_j K, M_j)
            j, rk, m = w.shape
            self._products.append(
                (w, slice(end, end + j * m), slice(z_end, z_end + j * rk))
            )
            end += j * m
            z_end += j * rk
        self.n_users = channels.n_users
        self.n_antennas = channels.n_antennas
        self.total_uc = end
        self._op = np.concatenate(rows, axis=1)  # P = [P_1 ... P_J], (N, R)
        self._batch = None  # (A, N_s) and the arrays of a batch of that shape

    def _buffers(self, a, n_s):
        """The arrays of an (A, N_s) batch, allocated when the shape changes."""
        if self._batch is None or self._batch[0] != (a, n_s):
            m, k, r = self.total_uc, self.n_users, self._op.shape[1]
            self._batch = (a, n_s), (
                np.empty((m, a), dtype=complex),  # unit-cell phasors v
                # the phase map's scratch and its rotation
                (np.empty((3, m, a)), np.empty((m, a), dtype=complex)),
                np.empty((r * k, a), dtype=complex),  # z, rows (j, r, k)
                np.empty((a, n_s, r), dtype=complex),  # rows of P per candidate
                _sinr_work(a, k, n_s),
            )
        return self._batch[1]

    def beamspace_channels(self, phases, beam_sets):
        """Selected-beam channels of a batch; shape (A, K, N_s).

        ``phases`` is (M, A) and ``beam_sets`` (N_s, A) beam indices; entry
        [a, k, s] is user k's channel on beam ``beam_sets[s, a]``. The
        returned array is new; the intermediates live in buffers the
        evaluator keeps between calls.

        The unchecked core of :meth:`sum_rates`, which callers should use:
        indices clip to [0, N) and a NaN phase passes into NaN channels. It
        keeps its name for the benchmark's ``linkrate.beamspace`` span, whose
        T + 1 calls per trial CI counts.
        """
        a = phases.shape[1]
        v, phase_work, z, p_rows, _ = self._buffers(a, beam_sets.shape[0])
        _unit_phasors(phases, v, *phase_work)
        for w, cells, z_rows in self._products:
            j, rk, m = w.shape
            np.matmul(w, v[cells].reshape(j, m, a), out=z[z_rows].reshape(j, rk, a))
        # rows of z run over (surface j, rank r, user k); R, not -1, for A = 0
        z_t = z.reshape(self._op.shape[1], self.n_users, a).transpose(2, 1, 0)
        self._op.take(beam_sets.T, axis=0, out=p_rows, mode="clip")
        return z_t @ p_rows.transpose(0, 2, 1)  # (A, K, N_s)

    def sum_rates(self, phases, beam_sets, powers, noise_variance):
        """Sum rates for a batch of candidates, one column per candidate.

        ``phases`` is (M, A) finite radians with |phase| <= 2^20,
        ``beam_sets`` (N_s, A) integer beam indices, N_s >= 1, unique per
        column and in [0, N), ``powers`` (K, A) finite watts >= 0. Returns a
        length-A vector of sum rates; the order of the beams within a column
        does not change them.
        """
        _require_real("noise_variance", noise_variance, 0.0, strict=True)
        phases = _checked_array("phases", phases, (self.total_uc, "A"),
                                low=-_PHASE_BOUND, high=_PHASE_BOUND)
        a = phases.shape[1]
        beam_sets = _sorted_beam_sets("beam_sets", _checked_array(
            "beam_sets", beam_sets, ("N_s", a), "integers", high=self.n_antennas - 1))
        powers = _checked_array("powers", powers, (self.n_users, a), low=0.0)
        return self._score(phases, beam_sets, powers, noise_variance)

    def _score(self, phases, beam_sets, powers, noise_variance):
        """:meth:`sum_rates` without its checks, for a batch that passes them
        as it is: float phases, unique intp beam sets, float powers."""
        h_sel = self.beamspace_channels(phases, beam_sets)  # (A, K, N_s)
        work = self._buffers(phases.shape[1], beam_sets.shape[0])[4]
        sinrs = _mrt_sinrs(h_sel, powers.T, noise_variance, work)
        return np.log1p(sinrs).sum(axis=1) / _LN2
