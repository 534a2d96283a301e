"""Downlink mmWave sum-rate simulator with a particle-swarm optimizer.

A lens-array base station serves single-antenna users exclusively through
reflecting surfaces. The library synthesizes the cascaded channels, scores
matched-filter precoding with beam selection in the beam domain, and runs
a ring-topology swarm that jointly picks beams, splits power and sets the
per-cell phase shifts.
"""

from .channel import (
    ChannelSet,
    cascaded_spatial,
    dft_matrix,
    realize_channels,
    steering,
    to_beamspace,
)
from .harness import (
    ExperimentSpec,
    SweepResult,
    emit_csv,
    run_sweep,
    run_trial,
)
from .linkrate import RateReport, SumRateEvaluator, evaluate_solution, sum_rate
from .pso import PsoConfig, Solution, Swarm, optimize
from .scenario import (
    ScenarioConfig,
    dbm_to_watts,
    derive_stream,
    make_config,
    place_nodes,
    watts_to_dbm,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelSet",
    "ExperimentSpec",
    "PsoConfig",
    "RateReport",
    "ScenarioConfig",
    "Solution",
    "SumRateEvaluator",
    "Swarm",
    "SweepResult",
    "cascaded_spatial",
    "dbm_to_watts",
    "derive_stream",
    "dft_matrix",
    "emit_csv",
    "evaluate_solution",
    "make_config",
    "optimize",
    "place_nodes",
    "realize_channels",
    "run_sweep",
    "run_trial",
    "steering",
    "sum_rate",
    "to_beamspace",
    "watts_to_dbm",
]
