"""Scenario configuration, node geometry and random channel parameters.

All powers are stored in linear watts; dBm values are converted once at
construction time (see :func:`dbm_to_watts`). Every random draw goes through
an explicit ``numpy.random.Generator`` so that a seed fully determines a
scenario realization.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import operator

import numpy as np

_FLOAT_MAX = float(np.finfo(float).max)


def dbm_to_watts(x_dbm):
    """Convert a power level in dBm to linear watts."""
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


def watts_to_dbm(x_watts):
    """Convert a power level in watts, > 0, to dBm."""
    _require_real("x_watts", x_watts, 0.0, strict=True)
    return 10.0 * math.log10(x_watts) + 30.0


def _require_int(name, value, minimum):
    """Reject a non-integral size, count, seed or index, or one below
    ``minimum`` (``None`` where another check bounds it), naming the field.

    ``operator.index`` accepts ``True`` and ``False``; they are rejected too.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        index = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer (got {value!r})") from None
    if minimum is not None and index < minimum:
        raise ValueError(f"{name} must be >= {minimum} (got {index})")


def _require_real(name, value, minimum=None, strict=False):
    """Reject a value that is not a finite real number (a bool, a complex
    number, a string or None), or one below ``minimum`` (at or below it
    when ``strict``), naming the field."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number (got {value!r})")
    # NaN fails both comparisons, and so does an int beyond the float range
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        raise ValueError(f"{name} must be finite (got {value!r})")
    if minimum is not None and (value <= minimum if strict else value < minimum):
        raise ValueError(
            f"{name} must be {'>' if strict else '>='} {minimum} (got {value!r})"
        )


def _require_ints(name, values):
    """``values`` as a non-empty tuple of integers >= 1, such as cell counts."""
    try:
        values = tuple(values)
    except TypeError:
        raise ValueError(f"{name} must be a sequence (got {values!r})") from None
    _require_int(f"len({name})", len(values), 1)
    for i, value in enumerate(values):
        _require_int(f"{name}[{i}]", value, 1)
    return values


# booleans are not numbers here, as in _require_int and _require_real
_DTYPE_KINDS = {"real numbers": "iuf", "integers": "iu", "numbers": "iufc"}


def _checked_array(name, values, shape, family="real numbers",
                   low=-_FLOAT_MAX, high=_FLOAT_MAX):
    """``values`` as an array of ``shape`` (str entries match any length) and
    of a dtype of ``family`` (see ``_DTYPE_KINDS``; empty counts as integers),
    or a ValueError naming the argument. Real entries must be finite and in
    [low, high] and come back as floats (one ``min`` and one ``max`` pass),
    integer ones in [0, high] (one ``max``) and complex ones finite."""
    labels = str(shape).replace("'", "")  # (128, A), not (128, 'A')
    try:
        values = np.asarray(values)
    except ValueError:  # numpy's "inhomogeneous shape" names no argument
        raise ValueError(f"{name} must have shape {labels} (got a ragged "
                         "sequence)") from None
    kind = values.dtype.kind
    if kind not in _DTYPE_KINDS[family] and (values.size or family != "integers"):
        raise ValueError(f"{name} must hold {family} (got dtype {values.dtype})")
    if len(values.shape) != len(shape) or any(
            type(want) is not str and want != have
            for want, have in zip(shape, values.shape)):
        raise ValueError(f"{name} must have shape {labels} (got {values.shape})")
    if kind == "c":
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite (it holds NaN or inf)")
        return values
    if family == "integers":  # a negative index wraps past any high as unsigned
        values = values.astype(np.intp, copy=False)
        if values.view(np.uintp).max(initial=0) > high:
            raise ValueError(f"{name} must lie in [0, {high}] (got entries "
                             f"from {values.min()} to {values.max()})")
        return values
    values = values.astype(float, copy=False)
    # NaN fails both comparisons, and inf fails the default finite bounds
    if not (low <= values.min(initial=high) and values.max(initial=low) <= high):
        raise ValueError(
            f"{name} must be finite and lie in [{low}, {high}] "
            f"(got entries from {values.min()} to {values.max()})"
        )
    return values


def _require_rng(rng):
    """Reject an ``rng`` that is not a ``numpy.random.Generator``."""
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be a numpy.random.Generator (got {rng!r})")


def _level_to_watts(name, x_dbm):
    """A finite dBm level in watts, rejecting levels whose watts overflow or
    underflow to 0."""
    _require_real(name, x_dbm)
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
    _require_int("n_ris", n_ris, 1)
    _require_int("m_total", m_total, n_ris)  # at least one cell per surface
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
    uc_per_ris : tuple[int, ...]
        Unit-cell count of each surface on the cell edge, stored as a tuple;
        its length is the surface count ``n_ris``, its sum the cell total.
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
        Seed of a trial's channel and swarm streams (see ``run_trial``).
    """

    n_antennas: int = 64
    n_users: int = 8
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
        for name, minimum in (("n_antennas", 1), ("n_users", 1),
                              ("n_nlos_paths", 0), ("n_selected_beams", None),
                              ("rng_seed", 0)):
            _require_int(name, getattr(self, name), minimum)
        object.__setattr__(self, "uc_per_ris",
                           _require_ints("uc_per_ris", self.uc_per_ris))
        for name in ("total_power", "noise_variance", "carrier_freq_ghz"):
            _require_real(name, getattr(self, name), 0.0, strict=True)
        for name in ("cell_radius_m", "ue_ring_min_m", "ue_ring_max_m"):
            _require_real(name, getattr(self, name))
        if not self.n_users <= self.n_selected_beams <= self.n_antennas:
            raise ValueError(
                f"n_selected_beams must satisfy n_users <= n_selected_beams "
                f"<= n_antennas (got K={self.n_users}, N_s={self.n_selected_beams}, "
                f"N={self.n_antennas})"
            )
        # A degenerate ring (min == max) is allowed; it pins users to a circle.
        if not 0.0 < self.ue_ring_min_m <= self.ue_ring_max_m <= self.cell_radius_m:
            raise ValueError(
                f"user ring must satisfy 0 < ue_ring_min_m <= ue_ring_max_m "
                f"<= cell_radius_m (got {self.ue_ring_min_m}, "
                f"{self.ue_ring_max_m}, {self.cell_radius_m})"
            )

    @property
    def n_ris(self):
        """Number of surfaces, one per entry of ``uc_per_ris``."""
        return len(self.uc_per_ris)

    @property
    def total_uc(self):
        """Total number of unit cells over all surfaces."""
        return sum(self.uc_per_ris)


def make_config(power_dbm=40.0, noise_dbm=-110.0, m_total=None, n_ris=None,
                **kwargs):
    """Build a :class:`ScenarioConfig` from dBm power levels.

    ``m_total`` splits cells evenly over ``n_ris`` surfaces, by default the
    sum and the length of ``ScenarioConfig.uc_per_ris`` (128 over 8);
    ``uc_per_ris`` sets an uneven layout, and ``n_ris`` must agree.
    """
    total_power = _level_to_watts("power_dbm", power_dbm)
    noise_variance = _level_to_watts("noise_dbm", noise_dbm)
    if "uc_per_ris" not in kwargs:
        n_ris = len(ScenarioConfig.uc_per_ris) if n_ris is None else n_ris
        m_total = sum(ScenarioConfig.uc_per_ris) if m_total is None else m_total
        kwargs["uc_per_ris"] = even_split(m_total, n_ris)
    elif m_total is not None:
        raise ValueError("pass either m_total or uc_per_ris, not both")
    elif n_ris is not None:
        _require_int("n_ris", n_ris, 1)
    config = ScenarioConfig(
        total_power=total_power, noise_variance=noise_variance, **kwargs
    )
    if n_ris is not None and n_ris != config.n_ris:
        raise ValueError(
            f"uc_per_ris must list one cell count per surface "
            f"(got {config.n_ris} entries for n_ris={n_ris})"
        )
    return config


@dataclass(frozen=True)
class NodeLayout:
    """Surface and user positions in meters; the base station sits at the origin."""

    ris_positions: np.ndarray  # (J, 2)
    ue_positions: np.ndarray  # (K, 2)

    def bs_ris_distances(self):
        return np.linalg.norm(self.ris_positions, axis=1)

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
    _require_rng(rng)
    j = np.arange(config.n_ris)
    ris_angle = 2.0 * np.pi * j / config.n_ris
    ris_xy = config.cell_radius_m * np.column_stack(
        (np.cos(ris_angle), np.sin(ris_angle))
    )

    ue_angle = rng.uniform(0.0, 2.0 * np.pi, config.n_users)
    ue_radius = rng.uniform(config.ue_ring_min_m, config.ue_ring_max_m, config.n_users)
    ue_xy = np.column_stack((ue_radius * np.cos(ue_angle), ue_radius * np.sin(ue_angle)))

    return NodeLayout(ris_positions=ris_xy, ue_positions=ue_xy)


def path_loss_db(distance_m, f_c_ghz, is_los):
    """Urban-micro path loss in dB at ``distance_m`` meters and ``f_c_ghz`` GHz.

    The direct branch uses a distance exponent of 2.1 (21 dB/decade), the
    scattered branch 3.19 (31.9 dB/decade); both share the 32.4 dB intercept
    and 20 dB/decade frequency term.
    """
    distance_m = _checked_array("distance_m", distance_m, np.shape(distance_m))
    if distance_m.min(initial=1.0) <= 0.0:
        raise ValueError(f"distance_m must be > 0 (got {distance_m.min()})")
    _require_real("f_c_ghz", f_c_ghz, 0.0, strict=True)
    exponent = 21.0 if is_los else 31.9
    return 32.4 + exponent * np.log10(distance_m) + 20.0 * np.log10(f_c_ghz)


def draw_path_gains(distance_m, f_c_ghz, n_nlos_paths, rng):
    """Draw the complex gain of every path on links of lengths ``distance_m``.

    Returns shape ``distance_m.shape + (n_nlos_paths + 1,)``. Amplitudes are
    the linear-scale root of the path loss. The direct path at index 0 is
    real; each scattered path carries a phase ``exp(-2j*pi*v)``, one
    ``v ~ U[0, 1)`` per path, drawn link by link in C order.
    """
    _require_rng(rng)
    # float_power rounds like a scalar power; numpy's SIMD power may not
    los = np.float_power(10.0, -path_loss_db(distance_m, f_c_ghz, True) / 20.0)
    nlos = np.float_power(10.0, -path_loss_db(distance_m, f_c_ghz, False) / 20.0)
    v = rng.random(los.shape + (n_nlos_paths,))
    return np.concatenate((los[..., None], nlos[..., None] * np.exp(-2j * np.pi * v)),
                          axis=-1)


def spatial_frequency(psi):
    """Spatial frequency of a physical angle for half-wavelength spacing."""
    return 0.5 * np.sin(psi)


@dataclass(frozen=True)
class AngleDraws:
    """Physical angles (radians) for every propagation path.

    Index 0 along the last axis is the direct path, followed by the
    scattered paths. Single-antenna users have no array response, so no
    arrival angle at a user enters a channel matrix.
    """

    bs_departure: np.ndarray  # (J, N_p+1), U(-pi, pi)
    ris_arrival: np.ndarray  # (J, N_p+1), U(-pi/2, pi/2)
    ris_departure: np.ndarray  # (J, K, N_p+1), U(-pi/2, pi/2)


def draw_angles(config, rng):
    """Draw all path angles for one realization.

    Angles seen at a surface are restricted to its front half-space
    (-pi/2, pi/2); base-station departures are uniform on the full circle.
    All draws are independent of the node positions.
    """
    _require_rng(rng)
    n_path = config.n_nlos_paths + 1
    j, k = config.n_ris, config.n_users
    angles = AngleDraws(
        bs_departure=rng.uniform(-np.pi, np.pi, (j, n_path)),
        ris_arrival=rng.uniform(-np.pi / 2, np.pi / 2, (j, n_path)),
        ris_departure=rng.uniform(-np.pi / 2, np.pi / 2, (j, k, n_path)),
    )
    # one double per (J, K, N_p+1) user arrival angle, which enters no
    # channel: skipping them keeps every later draw where the seed puts it
    rng.random(j * k * n_path)
    return angles


def _entropy(seed, key):
    """``[seed, *key]`` as SeedSequence entropy, each entry an integer >= 0.

    A float, a boolean or a negative entry raises ValueError naming ``seed``
    or ``key[i]``; nothing is truncated.
    """
    for i, v in enumerate((seed, *key)):
        _require_int("seed" if i == 0 else f"key[{i - 1}]", v, 0)
    return [operator.index(v) for v in (seed, *key)]


def derive_stream(seed, *key):
    """Deterministic per-task random stream from a seed and an index key.

    Streams built from distinct keys are independent, so trials can run in
    any order (or concurrently) without changing results. The seed and the
    key entries must be integers >= 0, not booleans; anything else raises
    ValueError rather than being truncated.
    """
    return np.random.default_rng(np.random.SeedSequence(_entropy(seed, key)))


def derive_seed(seed, *key):
    """Deterministic child seed from a seed and an index key.

    Composes with :func:`derive_stream`: a config reseeded with a derived
    seed still yields order-independent per-trial streams. The seed and key
    are checked as in :func:`derive_stream`.
    """
    state = np.random.SeedSequence(_entropy(seed, key)).generate_state(1, np.uint64)
    return int(state[0])
