"""One table of bad inputs for every public entry point.

A row is one (entry point, argument); its cells are the bad-input classes
that apply to it, each a bad value and the whole ValueError message it must
raise, in which ``{}`` stands for the argument's name. No cell may raise a
warning on the way, so a bad setting from a flag, a config file or a call
fails at the boundary and says which one it is and why.
"""

import json
import tempfile
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from beamswarm.channel import ChannelSet, dft_matrix, realize_channels, steering
from beamswarm.cli import _assemble, build_parser
from beamswarm.harness import ExperimentSpec, run_sweep, run_trial
from beamswarm.linkrate import SumRateEvaluator, sum_rate
from beamswarm.pso import PsoConfig, init_swarm, optimize
from beamswarm.scenario import (ScenarioConfig, derive_seed, derive_stream, draw_angles,
                                draw_path_gains, even_split, make_config, path_loss_db,
                                place_nodes)

NAN, INF = float("nan"), float("inf")


def integer(minimum, name="{}", none=True, **more):
    """Cells of an integer argument that must be >= ``minimum`` (None where
    a cell of ``more`` bounds it); ``none`` is false where None picks a
    default. The bool equals a valid value where one exists."""
    bad = {"nan": NAN, "bool": minimum != 0, "float": 2.0, "fraction": 2.5, "str": "3"}
    if none:
        bad["None"] = None
    cells = {cls: (v, f"{name} must be an integer (got {v!r})") for cls, v in bad.items()}
    if minimum is not None:
        cells["below"] = (minimum - 1, f"{name} must be >= {minimum} (got {minimum - 1})")
    return {**cells, **more}


def real(minimum=None, strict=False, complex_=True, **more):
    """Cells of a real argument that must be >= ``minimum`` (> it when
    ``strict``); ``complex_`` is false where the source, such as JSON, has
    no complex numbers."""
    bad = {"bool": True, "complex": 1j, "str": "1", "None": None}
    if not complex_:
        del bad["complex"]
    cells = {cls: (v, f"{{}} must be a real number (got {v!r})") for cls, v in bad.items()}
    cells.update(nan=(NAN, "{} must be finite (got nan)"),
                 inf=(INF, "{} must be finite (got inf)"))
    if minimum is not None:
        v = minimum if strict else minimum - 0.5
        cells["below"] = (v, f"{{}} must be {'>' if strict else '>='} {minimum} (got {v})")
    return {**cells, **more}


def counts():
    """Cells of a sequence of integers >= 1, such as cell counts."""
    return {"non-sequence": (5, "{} must be a sequence (got 5)"),
            "None": (None, "{} must be a sequence (got None)"),
            "empty": ((), "len({}) must be >= 1 (got 0)"),
            "bool": ((2, True), "{}[1] must be an integer (got True)"),
            "float": ((2, 4.0), "{}[1] must be an integer (got 4.0)"),
            "fraction": ((2.7,), "{}[0] must be an integer (got 2.7)"),
            "str": (("3",), "{}[0] must be an integer (got '3')"),
            "None entry": ((2, None), "{}[1] must be an integer (got None)"),
            "below": ((2, 0), "{}[1] must be >= 1 (got 0)")}


def poked(shape, value, dtype=complex):
    """Ones of ``shape`` with ``value`` in the last entry."""
    a = np.ones(shape, dtype)
    a.flat[-1] = value
    return a


def _config_file(**setting):
    """The CLI's configs from a config file that holds ``setting``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "settings.json")
        path.write_text(json.dumps(setting), encoding="utf-8")
        return _assemble(build_parser().parse_args(["trial", "--config", str(path)]))


SMALL = make_config(n_antennas=8, n_users=2, n_ris=2, m_total=8, n_selected_beams=4)
PSO = PsoConfig(n_particles=4, n_iterations=5)
C, G = np.ones((4, 3), complex), np.ones((3, 2), complex)  # N=4, M_j=3, K=2
PHASES, POWERS = np.zeros((10, 5)), np.ones((3, 5))  # M=10, K=3, A=5
BEAMS = np.tile(np.arange(4)[:, None], (1, 5))  # N_s=4 of N=8
SCENARIO = make_config(n_antennas=8, n_users=3, n_ris=2, m_total=10, n_selected_beams=4)
CHANNELS = realize_channels(SCENARIO, derive_stream(15, 1))
EVALUATOR = SumRateEvaluator(CHANNELS)
SPEC = partial(ExperimentSpec, scenario=SMALL, pso=PSO, sweep_param="n_users",
               sweep_values=(2, 4), n_trials=2)


def out_of_range(low, high, lo, hi):
    """The message of a real array with entries from lo to hi outside [low, high]."""
    return f"{{}} must be finite and lie in [{low}, {high}] (got entries from {lo} to {hi})"


POWER_RANGE = partial(out_of_range, 0.0, np.finfo(float).max)
FINITE_RANGE = partial(out_of_range, -np.finfo(float).max, np.finfo(float).max)
PHASE_RANGE = partial(out_of_range, -2.0**20, 2.0**20)
NOT_FINITE = "{} must be finite (it holds NaN or inf)"
RNG = {cls: (v, f"{{}} must be a numpy.random.Generator (got {v!r})")
       for cls, v in (("None", None), ("seed", 3))}

# entry point: a call that takes the bad argument by name
ENTRY = {
    "make_config": make_config,
    "make_config(uc_per_ris=(16,))": partial(make_config, uc_per_ris=(16,)),
    "even_split": partial(even_split, n_ris=2),
    "ScenarioConfig": ScenarioConfig,
    "PsoConfig": PsoConfig,
    "ChannelSet": partial(ChannelSet, bs_ris=(C, C), ris_ue=(G, G)),
    "sum_rate": partial(sum_rate, h_beam=np.ones((4, 2), complex), selected=(0, 1),
                        powers=(1.0, 1.0), sigma2=1e-3),
    "sum_rates": partial(EVALUATOR.sum_rates, phases=PHASES, beam_sets=BEAMS,
                         powers=POWERS, noise_variance=1e-3),
    "optimize": partial(optimize, channels=CHANNELS, scenario=SCENARIO, cfg=PSO,
                        rng=derive_stream(15, 2)),
    "realize_channels": partial(realize_channels, SMALL),
    "place_nodes": partial(place_nodes, SMALL),
    "draw_angles": partial(draw_angles, SMALL),
    "draw_path_gains": partial(draw_path_gains, np.ones(2), 30.0, 2),
    "init_swarm": partial(init_swarm, SMALL, PSO),
    "path_loss_db": partial(path_loss_db, f_c_ghz=30.0, is_los=True),
    "ExperimentSpec": SPEC,
    "run_trial": partial(run_trial, SMALL, PSO),
    "run_sweep": partial(run_sweep, SPEC()),
    "derive_stream": lambda seed=0, key=0: derive_stream(seed, 1, key),
    "derive_seed": lambda seed=0, key=0: derive_seed(seed, 1, key),
    "steering": partial(steering, 0.0),
    "dft_matrix": dft_matrix,
    "cli": _config_file,
}

# entry point.argument: {bad-input class: (a value of that class, message)}
TABLE = {
    # a numpy scalar overflows to inf where a Python float raises
    "make_config.power_dbm": real(**{
        "too large": (4000.0, "{} is too large to express in watts (got 4000.0)"),
        "too small": (-4000, "{} is too small to express in watts (got -4000)"),
        "numpy too large": (np.float64(4000.0), "{} is too large to express in "
                            "watts (got np.float64(4000.0))")}),
    "make_config.noise_dbm": real(**{
        "too large": (3200, "{} is too large to express in watts (got 3200)"),
        "too small": (-4000.0, "{} is too small to express in watts (got -4000.0)"),
        "numpy too small": (np.float64(-4000.0), "{} is too small to express in "
                            "watts (got np.float64(-4000.0))")}),
    "make_config.m_total": integer(8, none=False),  # at least n_ris=8
    "make_config.n_ris": integer(1, none=False),
    "make_config(uc_per_ris=(16,)).n_ris": integer(1, none=False),
    "make_config.uc_per_ris": counts(),
    "make_config.carrier_freq_ghz": real(0.0, strict=True),
    "even_split.m_total": integer(2),  # at least n_ris=2
    "ScenarioConfig.n_antennas": integer(1),
    "ScenarioConfig.n_users": integer(1),
    "ScenarioConfig.n_nlos_paths": integer(0),
    "ScenarioConfig.n_selected_beams": integer(None, below=(7, (
        "{} must satisfy n_users <= n_selected_beams <= n_antennas "
        "(got K=8, N_s=7, N=64)"))),
    "ScenarioConfig.rng_seed": integer(0),
    "ScenarioConfig.uc_per_ris": counts(),
    "ScenarioConfig.total_power": real(0.0, strict=True),
    "ScenarioConfig.noise_variance": real(0.0, strict=True),
    "ScenarioConfig.cell_radius_m": real(),
    "ScenarioConfig.ue_ring_min_m": real(),
    "ScenarioConfig.ue_ring_max_m": real(),
    "PsoConfig.n_particles": integer(None, below=(2, (
        "{} must be >= 3: the ring topology needs two distinct neighbors (got 2)"))),
    "PsoConfig.n_iterations": integer(1),
    "PsoConfig.inertia": real(0.0),
    "PsoConfig.learn_global": real(0.0),
    "PsoConfig.learn_local": real(0.0),
    "ChannelSet.bs_ris": {
        "nan": ((poked((4, 3), NAN), C), NOT_FINITE.format("bs_ris[0]")),
        "inf": ((poked((4, 3), INF), C), NOT_FINITE.format("bs_ris[0]")),
        "ndim": ((np.ones(4), C), "bs_ris[0] must have shape (N, M_0) (got (4,))"),
        "shape": ((C, np.ones((5, 3))), "bs_ris[1] must have shape (4, M_1) (got (5, 3))"),
        "empty": ((), "len(bs_ris) must be >= 1 (got 0)")},
    "ChannelSet.ris_ue": {
        "nan": ((G, poked((3, 2), NAN)), NOT_FINITE.format("ris_ue[1]")),
        "inf": ((G, poked((3, 2), INF)), NOT_FINITE.format("ris_ue[1]")),
        "ndim": ((np.ones(3), G), "ris_ue[0] must have shape (3, K) (got (3,))"),
        "shape": ((G, np.ones((3, 3))), "ris_ue[1] must have shape (3, 2) (got (3, 3))"),
        "count": ((G,), "ris_ue must hold 2 matrices, one per surface of bs_ris (got 1)")},
    "sum_rate.h_beam": {
        "nan": (poked((4, 2), NAN), NOT_FINITE), "inf": (poked((4, 2), INF), NOT_FINITE),
        "ndim": (np.ones(4), "{} must have shape (N, K) (got (4,))"),
        "str": (np.array([["a"]]), "{} must hold numbers (got dtype <U1)")},
    "sum_rate.selected": {  # N=4
        "duplicate": ((0, 0, 1), "selected must be unique within each beam set"),
        "below": ((-1, 0, 1), "selected must lie in [0, 3] (got entries from -1 to 1)"),
        "above": ((0, 1, 4), "selected must lie in [0, 3] (got entries from 0 to 4)"),
        "float": ((0.0, 1.5), "selected must hold integers (got dtype float64)"),
        "empty": ([], "selected must hold at least one beam index"),
        "ndim": ([[0, 1]], "selected must have shape (N_s,) (got (1, 2))"),
        "str": (("0", "1"), "selected must hold integers (got dtype <U1)")},
    "sum_rate.powers": {
        "below": ((1.0, -0.5), POWER_RANGE(-0.5, 1.0)),
        "nan": ((1.0, NAN), POWER_RANGE(NAN, NAN)),
        "inf": ((1.0, INF), POWER_RANGE(1.0, INF)),
        "complex": ((1 + 1j, 1.0), "{} must hold real numbers (got dtype complex128)"),
        "zero imaginary": (np.ones(2) + 0j,
                           "{} must hold real numbers (got dtype complex128)"),
        "shape": (np.ones(3), "{} must have shape (2,) (got (3,))"),
        "str": (("1", "1"), "{} must hold real numbers (got dtype <U1)"),
        "None": (None, "{} must hold real numbers (got dtype object)")},
    "sum_rate.sigma2": real(0.0, strict=True),
    "sum_rates.phases": {
        "ndim": (PHASES[:, 0], "{} must have shape (10, A) (got (10,))"),
        "rows": (PHASES[1:], "{} must have shape (10, A) (got (9, 5))"),
        "nan": (poked((10, 5), NAN, float), PHASE_RANGE(NAN, NAN)),
        "too large": (poked((10, 5), -2.0**20 - 2.0**-32, float),
                      PHASE_RANGE(-2.0**20 - 2.0**-32, 1.0)),
        "complex": (PHASES + 1j, "{} must hold real numbers (got dtype complex128)"),
        "str": (np.full((10, 5), "0"), "{} must hold real numbers (got dtype <U1)")},
    "sum_rates.beam_sets": {
        "float": (BEAMS.astype(float), "{} must hold integers (got dtype float64)"),
        "columns": (BEAMS[:, 1:], "{} must have shape (N_s, 5) (got (4, 4))"),
        "below": (poked((4, 5), -7, int),
                  "{} must lie in [0, 7] (got entries from -7 to 1)"),
        "above": (poked((4, 5), 8, int),
                  "{} must lie in [0, 7] (got entries from 1 to 8)"),
        "duplicate": (np.ones((4, 5), int), "{} must be unique within each beam set"),
        "empty": (BEAMS[:0], "{} must hold at least one beam index")},
    # a (1, A) row would broadcast to every user
    "sum_rates.powers": {
        "rows": (POWERS[:1], "{} must have shape (3, 5) (got (1, 5))"),
        "columns": (POWERS[:, :1], "{} must have shape (3, 5) (got (3, 1))"),
        "below": (poked((3, 5), -1.0, float), POWER_RANGE(-1.0, 1.0)),
        "nan": (poked((3, 5), NAN, float), POWER_RANGE(NAN, NAN)),
        "inf": (poked((3, 5), INF, float), POWER_RANGE(1.0, INF)),
        "complex": (POWERS + 0j, "{} must hold real numbers (got dtype complex128)")},
    "sum_rates.noise_variance": real(0.0, strict=True),
    "optimize.rng": RNG,
    "optimize.scenario": {"dimensions": (SMALL, (
        "{} dimensions (N, K, M) = (8, 2, 8) do not match the channel set's (8, 3, 10)"))},
    "realize_channels.rng": RNG,
    "place_nodes.rng": RNG,
    "draw_angles.rng": RNG,
    "draw_path_gains.rng": RNG,
    "init_swarm.rng": RNG,
    "path_loss_db.distance_m": {
        "nan": (NAN, FINITE_RANGE(NAN, NAN)), "inf": (INF, FINITE_RANGE(INF, INF)),
        "str": ("a", "{} must hold real numbers (got dtype <U1)"),
        "complex": (1j, "{} must hold real numbers (got dtype complex128)"),
        "zero": (0.0, "{} must be > 0 (got 0.0)"),
        "negative": ((30.0, -1.0), "{} must be > 0 (got -1.0)")},
    "ExperimentSpec.n_trials": integer(1),
    "ExperimentSpec.sweep_values": counts(),
    "run_trial.trial_index": integer(0),
    "run_sweep.jobs": integer(1),
    "derive_stream.seed": integer(0, name="seed"),
    "derive_stream.key": integer(0, name="key[1]"),
    "derive_seed.seed": integer(0, name="seed"),
    "derive_seed.key": integer(0, name="key[1]"),
    "steering.n_elements": integer(1),
    "dft_matrix.n": integer(1),
    # JSON has no complex numbers; NaN and Infinity are its extensions
    "cli.uc_per_ris": counts(),
    "cli.power_dbm": real(complex_=False),
    "cli.inertia": real(0.0, complex_=False),
    "cli.n_users": integer(1),
    "cli.rng_seed": integer(0),
}


CELLS = [(key, cls) for key, cells in TABLE.items() for cls in cells]


def rejects(key, value, message):
    """Row ``key``'s argument set to ``value`` raises a ValueError with
    ``message``, and no warning."""
    entry, arg = key.rsplit(".", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as caught:
            ENTRY[entry](**{arg: value})
    assert str(caught.value) == message.replace("{}", arg)


def rejects_as_numpy(key, cls):
    """Cell (``key``, ``cls``) with numpy scalars for its Python ones, as
    read out of an array, is rejected alike; a type message shows them."""
    value, message = TABLE[key][cls]
    scalars = value if isinstance(value, tuple) else (value,)
    numpy = tuple(np.asarray(v)[()] for v in scalars)
    if cls != "below":  # a bound message shows the value as a Python int
        for v, n in zip(scalars, numpy):
            message = message.replace(f"(got {v!r})", f"(got {n!r})")
    rejects(key, numpy if isinstance(value, tuple) else numpy[0], message)


@pytest.mark.parametrize("key, cls", CELLS, ids=[f"{k}-{c}" for k, c in CELLS])
def test_bad_input_is_rejected_by_name(key, cls):
    rejects(key, *TABLE[key][cls])
