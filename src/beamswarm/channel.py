"""Array responses, spatial channels and the fixed beamspace transform.

A :class:`ChannelSet` holds one realization of the per-surface channel
matrices together with the lens beamforming matrix. All functions are pure;
a constructed ``ChannelSet`` is immutable and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import scenario


def steering(theta, n_elements):
    """Normalized ULA steering vectors for spatial frequencies ``theta``.

    Entry ``i`` is ``exp(-2j*pi*i*theta) / sqrt(n_elements)``, so each vector
    has unit Euclidean norm. A scalar ``theta`` gives one vector; an array of
    shape S gives shape (n_elements, *S), one vector per column.
    """
    if n_elements < 1:
        raise ValueError("n_elements must be >= 1")
    i = np.arange(n_elements).reshape((-1,) + (1,) * np.ndim(theta))
    return np.exp(-2j * np.pi * i * np.asarray(theta)) / np.sqrt(n_elements)


def _path_weights(amplitude, n_paths):
    # direct path at full weight, scattered paths share 1/N_p of it
    if n_paths == 0:
        return np.array([amplitude])
    return amplitude * np.concatenate(([1.0], np.full(n_paths, 1.0 / np.sqrt(n_paths))))


def ris_ue_channel(gains, thetas, n_uc):
    """Channel vector from one surface to one user.

    ``gains``/``thetas`` hold the direct path at index 0 followed by the
    scattered paths; ``thetas`` are spatial frequencies at the surface.
    Returns a complex vector of length ``n_uc``.
    """
    gains = np.asarray(gains)
    thetas = np.asarray(thetas)
    if gains.shape != thetas.shape:
        raise ValueError(
            f"gains and thetas must pair up one per path "
            f"(got {gains.shape} vs {thetas.shape})"
        )
    w = _path_weights(np.sqrt(n_uc), gains.size - 1)
    return steering(thetas, n_uc) @ (w * gains)


def bs_ris_channel(gains, dep_thetas, arr_thetas, n_antennas, n_uc):
    """Channel matrix from the base station to one surface.

    Each path contributes an outer product of the departure response at the
    base station and the arrival response at the surface. Returns a complex
    ``(n_antennas, n_uc)`` matrix.
    """
    gains = np.asarray(gains)
    dep_thetas = np.asarray(dep_thetas)
    arr_thetas = np.asarray(arr_thetas)
    if not gains.shape == dep_thetas.shape == arr_thetas.shape:
        raise ValueError(
            f"gains, dep_thetas and arr_thetas must pair up one per path "
            f"(got {gains.shape}, {dep_thetas.shape}, {arr_thetas.shape})"
        )
    w = _path_weights(np.sqrt(n_uc * n_antennas), gains.size - 1)
    a_bs = steering(dep_thetas, n_antennas)
    a_ris = steering(arr_thetas, n_uc)
    return (a_bs * (w * gains)) @ a_ris.conj().T


@lru_cache(maxsize=16)
def _dft_matrix_cached(n):
    thetas = (np.arange(n) - 0.5 * (n - 1)) / n
    u = steering(thetas, n)
    u.setflags(write=False)
    return u


def dft_matrix(n):
    """Lens beamforming matrix: steering-vector columns on the uniform
    spatial-frequency grid of spacing ``1/n``. Unitary; cached per size.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _dft_matrix_cached(int(n))


@dataclass(frozen=True)
class ChannelSet:
    """One realization of all spatial channels plus the beamforming matrix.

    ``bs_ris[j]`` is the (N, M_j) base-station-to-surface matrix and
    ``ris_ue[j]`` the (M_j, K) surface-to-users matrix. Arrays are marked
    read-only on construction.
    """

    bs_ris: tuple
    ris_ue: tuple
    dft_matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bs_ris", tuple(self.bs_ris))
        object.__setattr__(self, "ris_ue", tuple(self.ris_ue))
        n = self.dft_matrix.shape[0]
        if self.dft_matrix.shape != (n, n):
            raise ValueError("dft_matrix must be square")
        if len(self.bs_ris) != len(self.ris_ue):
            raise ValueError("bs_ris and ris_ue must have one matrix per surface")
        k = self.ris_ue[0].shape[1]
        for c, g in zip(self.bs_ris, self.ris_ue):
            if c.shape[0] != n or c.shape[1] != g.shape[0] or g.shape[1] != k:
                raise ValueError(
                    f"inconsistent shapes: C {c.shape}, G {g.shape}, N={n}, K={k}"
                )
        for arr in (*self.bs_ris, *self.ris_ue, self.dft_matrix):
            arr.setflags(write=False)

    @property
    def n_antennas(self):
        return self.dft_matrix.shape[0]

    @property
    def n_users(self):
        return self.ris_ue[0].shape[1]

    @property
    def n_ris(self):
        return len(self.bs_ris)

    @property
    def uc_per_ris(self):
        return tuple(g.shape[0] for g in self.ris_ue)

    @property
    def total_uc(self):
        return sum(self.uc_per_ris)


def split_phases(phases, uc_per_ris):
    """Partition a flat phase vector into per-surface blocks."""
    phases = np.asarray(phases)
    if phases.shape[0] != sum(uc_per_ris):
        raise ValueError(
            f"expected {sum(uc_per_ris)} phases, got {phases.shape[0]}"
        )
    bounds = np.cumsum(uc_per_ris)[:-1]
    return np.split(phases, bounds)


def cascaded_spatial(channels, phases):
    """Effective spatial channel through all surfaces for one phase profile.

    Sums ``C_j @ diag(exp(1j*phi_j)) @ G_j`` over surfaces; ``phases`` is the
    flat length-M vector of unit-cell phase shifts in radians.
    """
    blocks = split_phases(phases, channels.uc_per_ris)
    n, k = channels.n_antennas, channels.n_users
    h_bar = np.zeros((n, k), dtype=complex)
    for c, g, phi in zip(channels.bs_ris, channels.ris_ue, blocks):
        h_bar += (c * np.exp(1j * phi)[None, :]) @ g
    return h_bar


def to_beamspace(h_bar, u):
    """Map a spatial channel matrix onto the lens beams."""
    return u @ h_bar


def realize_channels(config, rng, layout=None):
    """Draw one full channel realization for a scenario.

    Places the nodes (unless a layout is given), draws path gains from the
    link geometry and path angles from their configured distributions, and
    assembles the per-surface matrices. Draw order is fixed, so one seed
    reproduces the realization bit for bit.
    """
    if layout is None:
        layout = scenario.place_nodes(config, rng)
    angles = scenario.draw_angles(config, rng)

    f_c = config.carrier_freq_ghz
    n_path = config.n_nlos_paths + 1

    def link_gains(distance):
        g = np.empty(n_path, dtype=complex)
        g[0] = scenario.draw_path_gain(distance, f_c, True, rng)
        for l in range(1, n_path):
            g[l] = scenario.draw_path_gain(distance, f_c, False, rng)
        return g

    d_bs_ris = layout.bs_ris_distances()
    d_ris_ue = layout.ris_ue_distances()
    bs_gains = [link_gains(d_bs_ris[j]) for j in range(config.n_ris)]
    ue_gains = [
        [link_gains(d_ris_ue[j, k]) for k in range(config.n_users)]
        for j in range(config.n_ris)
    ]

    freq = scenario.spatial_frequency
    bs_ris = []
    ris_ue = []
    for j, m_j in enumerate(config.uc_per_ris):
        bs_ris.append(
            bs_ris_channel(
                bs_gains[j],
                freq(angles.bs_departure[j]),
                freq(angles.ris_arrival[j]),
                config.n_antennas,
                m_j,
            )
        )
        g_j = np.column_stack(
            [
                ris_ue_channel(ue_gains[j][k], freq(angles.ris_departure[j, k]), m_j)
                for k in range(config.n_users)
            ]
        )
        ris_ue.append(g_j)

    return ChannelSet(
        bs_ris=tuple(bs_ris),
        ris_ue=tuple(ris_ue),
        dft_matrix=dft_matrix(config.n_antennas),
    )

