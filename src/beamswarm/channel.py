"""Array responses, spatial channels and the fixed beamspace transform.

A :class:`ChannelSet` holds one realization of the per-surface channel
matrices, and the lens beamforming matrix that their antenna count fixes.
All functions are pure; a constructed ``ChannelSet`` is immutable and safe
to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import scenario
from .scenario import _checked_array


def steering(theta, n_elements):
    """Normalized ULA steering vectors for spatial frequencies ``theta``.

    Entry ``i`` is ``exp(-2j*pi*i*theta) / sqrt(n_elements)``, so each vector
    has unit Euclidean norm. A scalar ``theta`` gives one vector; an array of
    shape S gives shape (n_elements, *S), one vector per column.
    """
    scenario._require_int("n_elements", n_elements, 1)
    i = np.arange(n_elements).reshape((-1,) + (1,) * np.ndim(theta))
    return np.exp(-2j * np.pi * i * np.asarray(theta)) / np.sqrt(n_elements)


def _path_weights(amplitude, n_paths):
    # direct path at full weight, scattered paths share 1/N_p of it
    if n_paths == 0:
        return np.array([amplitude])
    return amplitude * np.concatenate(([1.0], np.full(n_paths, 1.0 / np.sqrt(n_paths))))


def ris_ue_channel(gains, thetas, n_uc):
    """Channel vectors from one surface to its users.

    ``gains``/``thetas`` have shape (..., P): per link, the direct path at
    index 0, then the scattered paths; ``thetas`` are spatial frequencies
    at the surface. Returns the complex ``(n_uc, ...)`` channels, so a
    (K, P) input gives one column per user and a (P,) input one vector.
    """
    gains = np.asarray(gains)
    thetas = _checked_array("thetas", thetas, gains.shape)  # one per path
    w = _path_weights(np.sqrt(n_uc), gains.shape[-1] - 1)
    # one (n_uc, P) @ (P, 1) product per link, so a column matches its (P,)
    # call bit for bit; a sum over the path axis rounds apart for P >= 4
    a = np.moveaxis(steering(thetas, n_uc), 0, -2)
    return np.moveaxis((a @ (w * gains)[..., None])[..., 0], -1, 0)


def bs_ris_channel(gains, dep_thetas, arr_thetas, n_antennas, n_uc):
    """Channel matrix from the base station to one surface.

    Each path contributes an outer product of the departure response at the
    base station and the arrival response at the surface. Returns a complex
    ``(n_antennas, n_uc)`` matrix.
    """
    gains = np.asarray(gains)
    # one angle of each kind per path
    dep_thetas = _checked_array("dep_thetas", dep_thetas, gains.shape)
    arr_thetas = _checked_array("arr_thetas", arr_thetas, gains.shape)
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
    scenario._require_int("n", n, 1)
    return _dft_matrix_cached(int(n))


@dataclass(frozen=True)
class ChannelSet:
    """One realization of all spatial channels.

    ``bs_ris[j]`` is the (N, M_j) base-station-to-surface matrix and
    ``ris_ue[j]`` the (M_j, K) surface-to-users matrix, for J >= 1 surfaces;
    the rows of ``bs_ris[0]`` fix N and the lens matrix ``dft_matrix(N)``.
    Entries must be finite; arrays are marked read-only on construction.
    """

    bs_ris: tuple
    ris_ue: tuple

    def __post_init__(self):
        scenario._require_int("len(bs_ris)", len(self.bs_ris), 1)
        if len(self.ris_ue) != len(self.bs_ris):
            raise ValueError(f"ris_ue must hold {len(self.bs_ris)} matrices, one per "
                             f"surface of bs_ris (got {len(self.ris_ue)})")
        # a NaN or inf entry would make _low_rank drop or poison its surface;
        # surface 0 fixes N and K for the others
        bs_ris, ris_ue, n, k = [], [], "N", "K"
        for j, (c, g) in enumerate(zip(self.bs_ris, self.ris_ue)):
            c = _checked_array(f"bs_ris[{j}]", c, (n, f"M_{j}"), "numbers")
            g = _checked_array(f"ris_ue[{j}]", g, (c.shape[1], k), "numbers")
            bs_ris.append(c)
            ris_ue.append(g)
            n, k = c.shape[0], g.shape[1]
        for arr in (*bs_ris, *ris_ue):
            arr.setflags(write=False)
        object.__setattr__(self, "bs_ris", tuple(bs_ris))
        object.__setattr__(self, "ris_ue", tuple(ris_ue))

    @property
    def n_antennas(self):
        return self.bs_ris[0].shape[0]

    @property
    def dft_matrix(self):
        return dft_matrix(self.n_antennas)

    @property
    def n_users(self):
        return self.ris_ue[0].shape[1]

    @property
    def uc_per_ris(self):
        return tuple(g.shape[0] for g in self.ris_ue)

    @property
    def total_uc(self):
        return sum(self.uc_per_ris)


def split_phases(phases, uc_per_ris):
    """Partition a flat phase vector into per-surface blocks."""
    phases = _checked_array("phases", phases, (sum(uc_per_ris),))
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


def realize_channels(config, rng):
    """Draw one full channel realization for a scenario.

    Places the nodes, draws path angles from their configured distributions
    and path gains from the link geometry (all surface links, then all
    user links surface by surface), and assembles the per-surface matrices.
    Draw order is fixed, so one seed reproduces the realization bit for bit.
    """
    layout = scenario.place_nodes(config, rng)
    angles = scenario.draw_angles(config, rng)
    f_c, n_p = config.carrier_freq_ghz, config.n_nlos_paths
    bs_gains = scenario.draw_path_gains(layout.bs_ris_distances(), f_c, n_p, rng)
    ue_gains = scenario.draw_path_gains(layout.ris_ue_distances(), f_c, n_p, rng)
    dep, arr, ue_dep = map(scenario.spatial_frequency, (
        angles.bs_departure, angles.ris_arrival, angles.ris_departure))
    return ChannelSet(
        bs_ris=[bs_ris_channel(bs_gains[j], dep[j], arr[j], config.n_antennas, m_j)
                for j, m_j in enumerate(config.uc_per_ris)],
        ris_ue=[ris_ue_channel(ue_gains[j], ue_dep[j], m_j)
                for j, m_j in enumerate(config.uc_per_ris)],
    )
