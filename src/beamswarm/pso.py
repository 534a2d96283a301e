"""Ring-topology particle swarm over beam scores, powers and phase shifts.

A particle is one column of the population matrix, laid out as N beam
scores, then K power entries, then M phase shifts (N_v = N + K + M rows).
After every move the three projection operators repair the blocks, so the
swarm only ever scores feasible candidates. Each particle's local best is
the better of its two ring neighbors (indices wrap, self excluded).
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .linkrate import SumRateEvaluator
from .scenario import _require_int

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PsoConfig:
    """Swarm size, iteration budget and update coefficients."""

    n_particles: int = 50
    n_iterations: int = 200
    inertia: float = 0.05
    learn_global: float = 2.0
    learn_local: float = 2.0
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("n_particles", "n_iterations", "rng_seed"):
            _require_int(name, getattr(self, name))
        if self.n_particles < 3:
            raise ValueError(
                "n_particles must be >= 3: the ring topology needs two "
                f"distinct neighbors (got {self.n_particles})"
            )
        if self.n_iterations < 1:
            raise ValueError(f"n_iterations must be >= 1 (got {self.n_iterations})")
        for name in ("inertia", "learn_global", "learn_local"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0 (got {value})")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be nonnegative (got {self.rng_seed})")


@dataclass(frozen=True)
class Solution:
    """Decoded form of one population column."""

    beam_set: np.ndarray
    powers: np.ndarray
    phases: np.ndarray


@dataclass
class Swarm:
    """Population state plus the best-so-far bookkeeping."""

    population: np.ndarray  # (N_v, A)
    velocity: np.ndarray  # (N_v, A)
    quality: np.ndarray  # (A,)
    personal_best: np.ndarray  # (N_v, A)
    personal_best_value: np.ndarray  # (A,)
    local_best: np.ndarray  # (N_v, A), the better ring neighbor's personal best
    global_best: np.ndarray  # (N_v,)
    global_best_value: float


def project_beams(column, n_antennas, rng=None):
    """Map the beam block to [0, 1] with max exactly 1, in place.

    Works on a single column or a matrix of columns. An all-zero block is
    restarted uniformly at random (requires ``rng``) before normalizing.
    """
    block = column[:n_antennas].reshape(n_antennas, -1)  # a column is (N, 1)
    np.abs(block, out=block)
    peak = block.max(axis=0, keepdims=True)
    if (peak == 0.0).any():
        if rng is None:
            raise ValueError("all-zero beam block needs an rng for the random restart")
        dead = np.flatnonzero(peak[0] == 0.0)
        block[:, dead] = rng.random((n_antennas, dead.size))
        peak = block.max(axis=0, keepdims=True)
    block /= peak
    return column


def project_powers(column, n_antennas, n_users, total_power):
    """Rescale the power block to nonnegative values summing to the budget.

    In place, single column or matrix. An all-zero block falls back to the
    equal split total_power / n_users.
    """
    block = column[n_antennas : n_antennas + n_users].reshape(n_users, -1)
    np.abs(block, out=block)
    total = block.sum(axis=0, keepdims=True)
    if (total == 0.0).any():
        block[:, total[0] == 0.0] = 1.0
        total = block.sum(axis=0, keepdims=True)
    block *= total_power / total
    return column


def project_phases(column, n_antennas, n_users):
    """Wrap the phase block into [0, 2*pi) by modular reduction, in place."""
    block = column[n_antennas + n_users :]
    np.mod(block, _TWO_PI, out=block)
    return column


def constraints_check(column, n_antennas, n_users, total_power, rng=None):
    """Apply all three projections to a column or a matrix of columns."""
    project_beams(column, n_antennas, rng)
    project_powers(column, n_antennas, n_users, total_power)
    project_phases(column, n_antennas, n_users)
    return column


def init_swarm(scenario, pso_cfg, rng):
    """Random population (zeros for velocity), projected once, unevaluated."""
    n, k, m = scenario.n_antennas, scenario.n_users, scenario.total_uc
    n_vars = n + k + m
    a = pso_cfg.n_particles
    f = np.empty((n_vars, a))
    f[:n] = rng.random((n, a))
    f[n : n + k] = 1.0 - rng.random((k, a))  # (0, 1], no all-zero block
    f[n + k :] = _TWO_PI * rng.random((m, a))
    constraints_check(f, n, k, scenario.total_power, rng)
    return Swarm(
        population=f,
        velocity=np.zeros((n_vars, a)),
        quality=np.full(a, -np.inf),
        personal_best=np.zeros((n_vars, a)),
        personal_best_value=np.full(a, -np.inf),
        local_best=np.zeros((n_vars, a)),
        global_best=np.zeros(n_vars),
        global_best_value=-np.inf,
    )


def top_beam_indices(scores, n_selected):
    """Indices of the n_selected largest beam scores, ties to the lowest index.

    ``scores`` may be a vector or an (N, A) matrix; selection runs down
    axis 0 either way.
    """
    order = np.argsort(-np.asarray(scores), axis=0, kind="stable")
    return np.sort(order[:n_selected], axis=0)


def decode(column, scenario):
    """Split one projected column into its Solution."""
    n, k = scenario.n_antennas, scenario.n_users
    return Solution(
        beam_set=top_beam_indices(column[:n], scenario.n_selected_beams),
        powers=column[n : n + k].copy(),
        phases=column[n + k :].copy(),
    )


def update_bests(swarm):
    """Refresh personal, global and ring-neighbor bests from the qualities."""
    q = swarm.quality
    improved = q > swarm.personal_best_value
    swarm.personal_best_value[improved] = q[improved]
    swarm.personal_best[:, improved] = swarm.population[:, improved]
    lead = int(np.argmax(swarm.personal_best_value))
    if swarm.personal_best_value[lead] > swarm.global_best_value:
        swarm.global_best_value = float(swarm.personal_best_value[lead])
        swarm.global_best = swarm.personal_best[:, lead].copy()  # a view otherwise
    values = swarm.personal_best_value
    a = values.size
    left = np.roll(np.arange(a), 1)  # neighbor a-1
    right = np.roll(np.arange(a), -1)  # neighbor a+1
    pick = np.where(values[left] >= values[right], left, right)
    swarm.local_best = swarm.personal_best[:, pick]  # fancy indexing copies
    return swarm


def update_velocity_and_position(swarm, scenario, cfg, rng):
    """Inertia-plus-attraction velocity step, move, then re-project."""
    if not np.isfinite(swarm.global_best_value):
        raise ValueError("update_bests must run before the velocity update")
    f, x = swarm.population, swarm.velocity
    rand_global = rng.random(f.shape)
    rand_local = rng.random(f.shape)
    x *= cfg.inertia
    x += cfg.learn_global * rand_global * (swarm.global_best[:, None] - f)
    x += cfg.learn_local * rand_local * (swarm.local_best - f)
    f += x
    constraints_check(
        f, scenario.n_antennas, scenario.n_users, scenario.total_power, rng
    )
    return swarm


def optimize(channels, scenario, cfg, rng=None, callback=None):
    """Run the swarm against one channel realization.

    Returns (best Solution, its sum rate, trace). The trace has
    n_iterations + 1 entries; index 0 is the best of the random
    initialization and the series is non-decreasing. ``callback(t, swarm)``,
    if given, fires after each evaluation (t = 0 .. n_iterations) with the
    post-projection population. Raises ValueError when the best sum rate is
    not finite, e.g. when the power and noise levels overflow the SINR.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    for mine, theirs in (
        (scenario.n_antennas, channels.n_antennas),
        (scenario.n_users, channels.n_users),
        (scenario.total_uc, channels.total_uc),
    ):
        if mine != theirs:
            raise ValueError(
                f"scenario dimensions (N={scenario.n_antennas}, "
                f"K={scenario.n_users}, M={scenario.total_uc}) do not match "
                f"the channel set (N={channels.n_antennas}, "
                f"K={channels.n_users}, M={channels.total_uc})"
            )
    evaluator = SumRateEvaluator(channels)
    n, k = scenario.n_antennas, scenario.n_users
    n_sel = scenario.n_selected_beams
    sigma2 = scenario.noise_variance

    swarm = init_swarm(scenario, cfg, rng)
    trace = np.empty(cfg.n_iterations + 1)
    for t in range(cfg.n_iterations + 1):
        if t > 0:
            update_velocity_and_position(swarm, scenario, cfg, rng)
        f = swarm.population
        idx = top_beam_indices(f[:n], n_sel)
        swarm.quality = evaluator.sum_rates(f[n + k :], idx, f[n : n + k], sigma2)
        update_bests(swarm)
        if not math.isfinite(swarm.global_best_value):
            raise ValueError(
                f"best sum rate is {swarm.global_best_value} at iteration {t}, "
                "not finite: the SINR overflows or is undefined at these "
                "power_dbm/noise_dbm levels"
            )
        trace[t] = swarm.global_best_value
        if callback is not None:
            callback(t, swarm)
    best = decode(swarm.global_best, scenario)
    return best, float(swarm.global_best_value), trace

