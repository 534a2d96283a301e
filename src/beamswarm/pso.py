"""Ring-topology particle swarm over beam scores, powers and phase shifts.

A particle is one column of the population matrix, laid out as N beam
scores, then K power entries, then M phase shifts (N_v = N + K + M rows);
``_blocks`` alone splits a column or the population into these blocks.
After every move the three projection operators repair their blocks, so
the swarm only ever scores feasible candidates. Of the best-so-far state
only the personal bests are stored: the global best is an index into them
that reads its value there, and a particle's local best is its better ring
neighbor's (indices wrap, no self).
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import math

import numpy as np

from .linkrate import SumRateEvaluator
from .scenario import _require_int, _require_real, _require_rng

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PsoConfig:
    """Swarm size, iteration budget and update coefficients."""

    n_particles: int = 50
    n_iterations: int = 200
    inertia: float = 0.05
    learn_global: float = 2.0
    learn_local: float = 2.0

    def __post_init__(self):
        _require_int("n_particles", self.n_particles, None)
        _require_int("n_iterations", self.n_iterations, 1)
        if self.n_particles < 3:
            raise ValueError(
                "n_particles must be >= 3: the ring topology needs two "
                f"distinct neighbors (got {self.n_particles})"
            )
        for name in ("inertia", "learn_global", "learn_local"):
            _require_real(name, getattr(self, name), 0.0)


@dataclass(frozen=True)
class Solution:
    """Decoded form of one population column."""

    beam_set: np.ndarray
    powers: np.ndarray
    phases: np.ndarray


@dataclass
class Swarm:
    """Population state plus the personal bests and the global best's index."""

    population: np.ndarray  # (N_v, A)
    velocity: np.ndarray  # (N_v, A)
    quality: np.ndarray  # (A,)
    personal_best: np.ndarray  # (N_v, A)
    personal_best_value: np.ndarray  # (A,)
    global_best_index: int  # the personal best of the highest value
    draw_buffers: np.ndarray  # (2, N_v, A): the velocity step's draw and gap

    @property
    def global_best_value(self):
        return float(self.personal_best_value[self.global_best_index])


def _blocks(f, n_antennas, n_users):
    """The beam, power and phase rows of a column or a population ``f``,
    as views: N beam scores, then K powers, then the M phases."""
    powers_end = n_antennas + n_users
    return f[:n_antennas], f[n_antennas:powers_end], f[powers_end:]


def project_beams(block, rng):
    """Map a beam block to [0, 1] with max exactly 1, in place.

    Works on one column's block or a population's. An all-zero column is
    restarted uniformly at random from ``rng`` before normalizing.
    """
    scores = block.reshape(len(block), -1)  # a column's block is (N, 1)
    np.abs(scores, out=scores)
    peak = scores.max(axis=0, keepdims=True)
    if not peak.all():  # some column of the block is all zero
        dead = np.flatnonzero(peak[0] == 0.0)
        scores[:, dead] = rng.random((len(scores), dead.size))
        peak = scores.max(axis=0, keepdims=True)
    scores /= peak
    return block


def project_powers(block, total_power):
    """Rescale a power block to nonnegative values summing to the budget.

    In place, one column's block or a population's. An all-zero column
    falls back to the equal split total_power / K.
    """
    powers = block.reshape(len(block), -1)
    np.abs(powers, out=powers)
    total = powers.sum(axis=0, keepdims=True)
    if not total.all():
        powers[:, total[0] == 0.0] = 1.0
        total = powers.sum(axis=0, keepdims=True)
    powers *= total_power / total
    return block


def project_phases(block):
    """Wrap a phase block into [0, 2*pi] by modular reduction, in place.

    The same bits as ``np.mod(block, 2*pi)``: -0.0 to +0.0 and -1e-17 to 2*pi.
    """
    # fmod only where one period is not enough; most of a run's phases are
    # already in [0, 2*pi) and a few percent lie past [-2*pi, 4*pi). take
    # and put index the block as flattened and write into any strided view.
    far = ((block < -_TWO_PI) | (block >= 2.0 * _TWO_PI)).ravel().nonzero()[0]
    if far.size:
        block.put(far, np.fmod(block.take(far), _TWO_PI))
    # one period up below 0, one down at or above 2*pi, else + 0.0 (which
    # turns -0.0 into +0.0). On [2*pi, 4*pi), x - 2*pi is exact (Sterbenz),
    # so it equals fmod; below 0 it is np.mod's own rounded x + 2*pi.
    step = (block < 0.0).view(np.int8) - (block >= _TWO_PI).view(np.int8)
    block += step * _TWO_PI
    return block


def constraints_check(column, n_antennas, n_users, total_power, rng):
    """Apply all three projections to a column or a matrix of columns."""
    beams, powers, phases = _blocks(column, n_antennas, n_users)
    project_beams(beams, rng)
    project_powers(powers, total_power)
    project_phases(phases)
    return column


def init_swarm(scenario, pso_cfg, rng):
    """Random population (zeros for velocity), projected once, unevaluated."""
    _require_rng(rng)
    n, k, m = scenario.n_antennas, scenario.n_users, scenario.total_uc
    shape = (sum((n, k, m)), pso_cfg.n_particles)  # N_v = N + K + M rows
    f = np.empty(shape)
    beams, powers, phases = _blocks(f, n, k)
    beams[...] = rng.random(beams.shape)
    powers[...] = 1.0 - rng.random(powers.shape)  # (0, 1], no all-zero block
    phases[...] = _TWO_PI * rng.random(phases.shape)
    constraints_check(f, n, k, scenario.total_power, rng)
    return Swarm(
        population=f,
        velocity=np.zeros(shape),
        quality=np.full(shape[1], -np.inf),
        personal_best=np.zeros(shape),
        personal_best_value=np.full(shape[1], -np.inf),
        global_best_index=0,
        draw_buffers=np.empty((2,) + shape),
    )


def top_beam_indices(scores, n_selected):
    """Indices of the n_selected largest beam scores, ties to the lowest index.

    ``scores`` may be a vector or an (N, A) matrix of non-NaN values;
    selection runs down axis 0 either way and the indices come out sorted.
    ``n_selected`` is an integer in [1, N].
    """
    scores = np.asarray(scores)
    if scores.dtype.kind not in "biuf":
        raise TypeError(f"scores must be real numbers (got dtype {scores.dtype})")
    if scores.ndim not in (1, 2):
        raise ValueError(
            f"scores must be a vector or an (N, A) matrix (got shape {scores.shape})"
        )
    n = scores.shape[0]
    _require_int("n_selected", n_selected, None)
    if not 1 <= n_selected <= n:
        raise ValueError(
            f"n_selected must satisfy 1 <= n_selected <= N "
            f"(got n_selected={n_selected}, N={n})"
        )
    if np.isnan(scores).any():
        raise ValueError("scores must not be NaN")
    if scores.ndim == 1:
        return _top_beams(scores[:, None], n_selected)[:, 0]
    return _top_beams(scores, n_selected)


def _top_beams(scores, n_selected):
    """:func:`top_beam_indices` without its checks, for an (N, A) matrix of
    real non-NaN scores and an int ``n_selected`` in [1, N]. Each column of
    the (N_s, A) result is sorted and unique."""
    n = scores.shape[0]
    by_column = scores.T  # (A, N)
    cut = np.partition(by_column, n - n_selected, axis=1)[:, n - n_selected, None]
    # each column holds at least n_selected scores >= its cut
    keep = np.greater_equal(by_column, cut, order="C")
    if np.count_nonzero(keep) > keep.shape[0] * n_selected:
        # fill the rest with the lowest-index scores equal to the cut
        keep = np.greater(by_column, cut, order="C")
        ties = np.equal(by_column, cut, order="C")
        keep |= ties & (
            np.cumsum(ties, axis=1) <= n_selected - keep.sum(axis=1, keepdims=True)
        )
    rows = keep.ravel().nonzero()[0] % n  # column by column, rows ascending
    return rows.reshape(-1, n_selected).T


def decode(column, scenario):
    """Split one projected column into its Solution."""
    beams, powers, phases = _blocks(column, scenario.n_antennas, scenario.n_users)
    return Solution(
        beam_set=top_beam_indices(beams, scenario.n_selected_beams),
        powers=powers.copy(),
        phases=phases.copy(),
    )


def update_bests(swarm):
    """Refresh the personal bests; move the global best's index to the lowest
    index of the lead if it beats the held best's value before this update."""
    q = swarm.quality
    held = swarm.global_best_value  # read before the writes below
    improved = q > swarm.personal_best_value
    swarm.personal_best_value[improved] = q[improved]
    swarm.personal_best[:, improved] = swarm.population[:, improved]
    lead = int(swarm.personal_best_value.argmax())
    if swarm.personal_best_value[lead] > held:
        swarm.global_best_index = lead
    return swarm


@functools.lru_cache(maxsize=8)
def _ring_neighbors(n_particles):
    """Read-only left and right ring neighbors of each particle (indices wrap)."""
    ring = np.arange(n_particles)
    left, right = (ring - 1) % n_particles, (ring + 1) % n_particles
    left.flags.writeable = right.flags.writeable = False
    return left, right


def update_velocity_and_position(swarm, scenario, cfg, rng):
    """Inertia-plus-attraction velocity step, move, then re-project."""
    if not math.isfinite(swarm.global_best_value):
        raise ValueError("update_bests must run before the velocity update")
    f, x = swarm.population, swarm.velocity
    draw, gap = swarm.draw_buffers
    # x = mu x + c1 r1 (g - f) + c2 r2 (l - f), each product formed in the
    # draw's buffer; c r = r c, so the bits are those of the plain expression.
    # r_local is drawn after r_global is spent, in the order of two draws.
    rng.random(out=draw)
    x *= cfg.inertia
    np.subtract(swarm.personal_best[:, swarm.global_best_index, None], f, out=gap)
    draw *= cfg.learn_global
    draw *= gap
    x += draw
    rng.random(out=draw)
    values = swarm.personal_best_value
    left, right = _ring_neighbors(values.size)
    pick = np.where(values[left] >= values[right], left, right)  # left on ties
    # the local bests, gathered into gap; "raise" would buffer the output
    swarm.personal_best.take(pick, axis=1, out=gap, mode="clip")
    gap -= f
    draw *= cfg.learn_local
    draw *= gap
    x += draw
    f += x
    constraints_check(
        f, scenario.n_antennas, scenario.n_users, scenario.total_power, rng
    )
    return swarm


def optimize(channels, scenario, cfg, rng, callback=None):
    """Run the swarm against one channel realization.

    ``rng`` is the swarm's stream; ``run_trial`` derives it from the
    scenario's seed. Returns (best Solution, its sum rate, trace). The trace
    has n_iterations + 1 entries; index 0 is the best of the random
    initialization and the series is non-decreasing. ``callback(t, swarm)``,
    if given, fires after each evaluation (t = 0 .. n_iterations) with the
    post-projection population. Raises ValueError when the best sum rate is
    not finite, e.g. when the power and noise levels overflow the SINR, and
    when a move overflows because the update coefficients make the swarm
    diverge.
    """
    _require_rng(rng)
    mine = (scenario.n_antennas, scenario.n_users, scenario.total_uc)
    theirs = (channels.n_antennas, channels.n_users, channels.total_uc)
    if mine != theirs:
        raise ValueError(f"scenario dimensions (N, K, M) = {mine} do not match "
                         f"the channel set's {theirs}")
    evaluator = SumRateEvaluator(channels)
    n, k = scenario.n_antennas, scenario.n_users
    n_sel = scenario.n_selected_beams
    sigma2 = scenario.noise_variance

    swarm = init_swarm(scenario, cfg, rng)
    trace = np.empty(cfg.n_iterations + 1)
    for t in range(cfg.n_iterations + 1):
        if t > 0:
            try:
                with np.errstate(over="raise", invalid="raise"):
                    update_velocity_and_position(swarm, scenario, cfg, rng)
            except FloatingPointError:
                raise ValueError(
                    f"the swarm diverges at iteration {t}: its move overflows "
                    f"with inertia={cfg.inertia}, learn_global={cfg.learn_global} "
                    f"and learn_local={cfg.learn_local}"
                ) from None
        beams, powers, phases = _blocks(swarm.population, n, k)
        # the projections keep phases in [0, 2*pi] and powers >= 0, and the
        # move's errstate raises before a non-finite entry reaches them
        idx = _top_beams(beams, n_sel)
        swarm.quality = evaluator._score(phases, idx, powers, sigma2)
        update_bests(swarm)
        trace[t] = swarm.global_best_value
        if not math.isfinite(trace[t]):
            raise ValueError(
                f"best sum rate is {trace[t]} at iteration {t}, "
                "not finite: the SINR overflows or is undefined at these "
                "power_dbm/noise_dbm levels"
            )
        if callback is not None:
            callback(t, swarm)
    best = decode(swarm.personal_best[:, swarm.global_best_index], scenario)
    return best, swarm.global_best_value, trace

