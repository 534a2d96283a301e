"""Scenario configuration, node geometry and random channel parameters.

All powers are stored in linear watts; dBm values are converted once at
construction time (see :func:`dbm_to_watts`). Every random draw goes through
an explicit ``numpy.random.Generator`` so that a seed fully determines a
scenario realization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
import operator

import numpy as np


def dbm_to_watts(x_dbm):
    """Convert a power level in dBm to linear watts."""
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


def watts_to_dbm(x_watts):
    """Convert a power level in watts to dBm."""
    return 10.0 * math.log10(x_watts) + 30.0


def _require_int(name, value):
    """Reject a non-integral size, count or seed, naming the field."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer (got {value!r})") from None


def _require_finite(name, value):
    """Reject NaN and infinite values, naming the field."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite (got {value!r})")


def _level_to_watts(name, x_dbm):
    """A finite dBm level in watts, rejecting levels whose watts overflow or
    underflow to 0."""
    _require_finite(name, x_dbm)
    try:
        with np.errstate(over="raise"):  # numpy scalars overflow to inf otherwise
            watts = dbm_to_watts(x_dbm)
    except (OverflowError, FloatingPointError):
        raise ValueError(
            f"{name} is too large to express in watts (got {x_dbm!r})"
        ) from None
    if watts == 0.0:
        raise ValueError(f"{name} is too small to express in watts (got {x_dbm!r})")
    return watts


def even_split(m_total, n_ris):
    """Split ``m_total`` unit cells over ``n_ris`` surfaces as evenly as possible.

    The first ``m_total % n_ris`` surfaces receive one extra cell.
    """
    if m_total < n_ris:
        raise ValueError(f"m_total must be >= n_ris (got {m_total} < {n_ris})")
    base, extra = divmod(m_total, n_ris)
    return tuple(base + (1 if j < extra else 0) for j in range(n_ris))


@dataclass(frozen=True)
class ScenarioConfig:
    """Physical and system constants for one downlink scenario.

    Defaults follow the simulation setup used throughout: a 64-element lens
    base station at 30 GHz serving 8 users through 8 surfaces of 16 unit
    cells each, with 40 dBm transmit power and -110 dBm noise.

    Attributes
    ----------
    n_antennas : int
        Lens-array elements at the base station (equal to the number of
        orthogonal beams).
    n_users : int
        Single-antenna users served in the downlink.
    n_ris : int
        Reflecting surfaces placed on the cell edge.
    uc_per_ris : tuple[int, ...]
        Unit-cell count of each surface; its sum is the total cell count.
    n_nlos_paths : int
        Scattered paths per link in addition to the direct one.
    n_selected_beams : int
        Active beams (RF chains); at least ``n_users``.
    total_power : float
        Transmit power budget in watts.
    noise_variance : float
        Receiver noise power in watts.
    carrier_freq_ghz : float
        Carrier frequency in GHz.
    cell_radius_m, ue_ring_min_m, ue_ring_max_m : float
        Cell radius and the annulus that contains the users, in meters.
    rng_seed : int
        Seed for all scenario-level randomness.
    """

    n_antennas: int = 64
    n_users: int = 8
    n_ris: int = 8
    uc_per_ris: tuple = (16,) * 8
    n_nlos_paths: int = 2
    n_selected_beams: int = 8
    total_power: float = dbm_to_watts(40.0)
    noise_variance: float = dbm_to_watts(-110.0)
    carrier_freq_ghz: float = 30.0
    cell_radius_m: float = 40.0
    ue_ring_min_m: float = 25.0
    ue_ring_max_m: float = 35.0
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("n_antennas", "n_users", "n_ris", "n_nlos_paths",
                     "n_selected_beams", "rng_seed"):
            _require_int(name, getattr(self, name))
        for j, m in enumerate(self.uc_per_ris):
            _require_int(f"uc_per_ris[{j}]", m)
        for name in ("total_power", "noise_variance", "carrier_freq_ghz",
                     "cell_radius_m", "ue_ring_min_m", "ue_ring_max_m"):
            _require_finite(name, getattr(self, name))
        if self.n_antennas < 1:
            raise ValueError("n_antennas must be a positive integer")
        if self.n_users < 1:
            raise ValueError("n_users must be a positive integer")
        if self.n_ris < 1:
            raise ValueError("n_ris must be a positive integer")
        if len(self.uc_per_ris) != self.n_ris:
            raise ValueError(
                f"uc_per_ris must list one cell count per surface "
                f"(got {len(self.uc_per_ris)} entries for n_ris={self.n_ris})"
            )
        if any(m < 1 for m in self.uc_per_ris):
            raise ValueError("every uc_per_ris entry must be >= 1")
        if self.n_nlos_paths < 0:
            raise ValueError("n_nlos_paths must be non-negative")
        if not self.n_users <= self.n_selected_beams <= self.n_antennas:
            raise ValueError(
                f"n_selected_beams must satisfy n_users <= n_selected_beams "
                f"<= n_antennas (got K={self.n_users}, N_s={self.n_selected_beams}, "
                f"N={self.n_antennas})"
            )
        if self.total_power <= 0.0:
            raise ValueError("total_power must be > 0 W")
        if self.noise_variance <= 0.0:
            raise ValueError("noise_variance must be > 0 W")
        if self.carrier_freq_ghz <= 0.0:
            raise ValueError("carrier_freq_ghz must be > 0")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be nonnegative (got {self.rng_seed})")
        # A degenerate ring (min == max) is allowed; it pins users to a circle.
        if not 0.0 < self.ue_ring_min_m <= self.ue_ring_max_m <= self.cell_radius_m:
            raise ValueError(
                f"user ring must satisfy 0 < ue_ring_min_m <= ue_ring_max_m "
                f"<= cell_radius_m (got {self.ue_ring_min_m}, "
                f"{self.ue_ring_max_m}, {self.cell_radius_m})"
            )

    @property
    def total_uc(self):
        """Total number of unit cells over all surfaces."""
        return sum(self.uc_per_ris)


def make_config(power_dbm=40.0, noise_dbm=-110.0, m_total=None, **kwargs):
    """Build a :class:`ScenarioConfig` from dBm power levels.

    ``m_total`` (default 128) splits unit cells evenly over the surfaces;
    pass ``uc_per_ris`` explicitly for uneven layouts.
    """
    total_power = _level_to_watts("power_dbm", power_dbm)
    noise_variance = _level_to_watts("noise_dbm", noise_dbm)
    if "uc_per_ris" in kwargs:
        if m_total is not None:
            raise ValueError("pass either m_total or uc_per_ris, not both")
    else:
        n_ris = kwargs.get("n_ris", ScenarioConfig.n_ris)
        kwargs["uc_per_ris"] = even_split(128 if m_total is None else m_total, n_ris)
    return ScenarioConfig(
        total_power=total_power, noise_variance=noise_variance, **kwargs
    )


@dataclass(frozen=True)
class NodeLayout:
    """Positions of the base station, surfaces and users in the plane (meters)."""

    bs_position: np.ndarray
    ris_positions: np.ndarray  # (J, 2)
    ue_positions: np.ndarray  # (K, 2)

    def bs_ris_distances(self):
        return np.linalg.norm(self.ris_positions - self.bs_position, axis=1)

    def ris_ue_distances(self):
        """Pairwise distances, shape (J, K)."""
        diff = self.ris_positions[:, None, :] - self.ue_positions[None, :, :]
        return np.linalg.norm(diff, axis=2)


def place_nodes(config, rng):
    """Drop the nodes of one scenario realization.

    The base station sits at the origin, the J surfaces are evenly spaced on
    the cell circumference, and each user gets an independent uniform angle
    with a radius uniform on the configured ring.
    """
    j = np.arange(config.n_ris)
    ris_angle = 2.0 * np.pi * j / config.n_ris
    ris_xy = config.cell_radius_m * np.column_stack(
        (np.cos(ris_angle), np.sin(ris_angle))
    )

    ue_angle = rng.uniform(0.0, 2.0 * np.pi, config.n_users)
    ue_radius = rng.uniform(config.ue_ring_min_m, config.ue_ring_max_m, config.n_users)
    ue_xy = np.column_stack((ue_radius * np.cos(ue_angle), ue_radius * np.sin(ue_angle)))

    return NodeLayout(
        bs_position=np.zeros(2),
        ris_positions=ris_xy,
        ue_positions=ue_xy,
    )


def path_loss_db(distance_m, f_c_ghz, is_los):
    """Urban-micro path loss in dB at ``distance_m`` meters and ``f_c_ghz`` GHz.

    The direct branch uses a distance exponent of 2.1 (21 dB/decade), the
    scattered branch 3.19 (31.9 dB/decade); both share the 32.4 dB intercept
    and 20 dB/decade frequency term.
    """
    if np.any(np.asarray(distance_m) <= 0.0):
        raise ValueError(f"distance_m must be > 0 (got {distance_m})")
    if f_c_ghz <= 0.0:
        raise ValueError(f"f_c_ghz must be > 0 (got {f_c_ghz})")
    exponent = 21.0 if is_los else 31.9
    return 32.4 + exponent * np.log10(distance_m) + 20.0 * np.log10(f_c_ghz)


def draw_path_gain(distance_m, f_c_ghz, is_los, rng):
    """Draw one complex path gain.

    The amplitude is the linear-scale root of the path loss. A direct path
    is real-valued; a scattered path carries a uniform random phase
    ``exp(-2j*pi*v)`` with ``v ~ U[0, 1)``.
    """
    amplitude = 10.0 ** (-path_loss_db(distance_m, f_c_ghz, is_los) / 20.0)
    if is_los:
        return complex(amplitude)
    return amplitude * np.exp(-2j * np.pi * rng.random())


def spatial_frequency(psi):
    """Spatial frequency of a physical angle for half-wavelength spacing."""
    return 0.5 * np.sin(psi)


@dataclass(frozen=True)
class AngleDraws:
    """Physical angles (radians) for every propagation path.

    Index 0 along the last axis is the direct path, followed by the
    scattered paths. ``ue_arrival`` is drawn for completeness but never
    enters a channel matrix: single-antenna users have no array response.
    """

    bs_departure: np.ndarray  # (J, N_p+1), U(-pi, pi)
    ris_arrival: np.ndarray  # (J, N_p+1), U(-pi/2, pi/2)
    ris_departure: np.ndarray  # (J, K, N_p+1), U(-pi/2, pi/2)
    ue_arrival: np.ndarray  # (J, K, N_p+1), U(-pi, pi)


def draw_angles(config, rng):
    """Draw all path angles for one realization.

    Angles seen at a surface are restricted to its front half-space
    (-pi/2, pi/2); base-station departures and user arrivals are uniform on
    the full circle. All draws are independent of the node positions.
    """
    n_path = config.n_nlos_paths + 1
    j, k = config.n_ris, config.n_users
    return AngleDraws(
        bs_departure=rng.uniform(-np.pi, np.pi, (j, n_path)),
        ris_arrival=rng.uniform(-np.pi / 2, np.pi / 2, (j, n_path)),
        ris_departure=rng.uniform(-np.pi / 2, np.pi / 2, (j, k, n_path)),
        ue_arrival=rng.uniform(-np.pi, np.pi, (j, k, n_path)),
    )


def derive_stream(seed, *key):
    """Deterministic per-task random stream from a seed and an index key.

    Streams built from distinct keys are independent, so trials can run in
    any order (or concurrently) without changing results.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def derive_seed(seed, *key):
    """Deterministic child seed from a seed and an index key.

    Composes with :func:`derive_stream`: a config reseeded with a derived
    seed still yields order-independent per-trial streams.
    """
    sequence = np.random.SeedSequence([int(seed), *map(int, key)])
    return int(sequence.generate_state(1, np.uint64)[0])
