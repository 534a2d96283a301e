"""Command line front end: trial, sweep and convergence subcommands.

Settings come from an optional JSON config file of flat keys, with command
line flags taking precedence: the keywords of ``make_config`` (powers in
dBm), among them ``rng_seed``, which seeds the channels and the swarm as
``--seed`` does, and the ``PsoConfig`` fields. Other keys fail.
``--m-total`` or ``--n-ris`` replaces the file's ``uc_per_ris``, whose sum
and length stand in for whichever of the two is unset; a file may not set
both ``m_total`` and ``uc_per_ris``. Exits 0 on success; failures print one
``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .harness import (
    SWEEP_AXES,
    ExperimentSpec,
    emit_convergence_csv,
    emit_csv,
    emit_trace_csv,
    iterations_to_fraction,
    run_sweep,
    run_trial,
)
from .pso import PsoConfig
from .scenario import _require_ints, make_config

# (flag, type, destination, help); a flag's value wins over its config key
_SETTINGS_FLAGS = (
    ("--n-users", int, "n_users", "number of users (K)"),
    ("--m-total", int, "m_total", "total unit cells (M)"),
    ("--n-selected-beams", int, "n_selected_beams", "active beams (N_s)"),
    ("--n-antennas", int, "n_antennas", "lens-array beams (N)"),
    ("--n-ris", int, "n_ris", "number of surfaces (J)"),
    ("--power-dbm", float, "power_dbm", "transmit power budget"),
    ("--noise-dbm", float, "noise_dbm", "noise variance"),
    ("--iterations", int, "n_iterations", "swarm iterations (T)"),
    ("--particles", int, "n_particles", "swarm size (A)"),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="beamswarm",
        description=(
            "Downlink sum-rate simulator and particle-swarm optimizer for a "
            "lens-array base station serving users through reflecting surfaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file of settings (flags win)")
        for flag, kind, dest, text in _SETTINGS_FLAGS:
            p.add_argument(flag, type=kind, dest=dest, help=text)
        p.add_argument("--seed", type=int, help="top-level seed (default 0)")
        p.add_argument("--out", help="output CSV path")

    def multi_trial(p):
        common(p)
        p.add_argument("--trials", type=int, help="trials per point (default 200)")
        p.add_argument("--jobs", type=int, default=1, help="parallel workers")

    p_trial = sub.add_parser("trial", help="run one seeded trial")
    common(p_trial)
    p_trial.add_argument("--trial-index", type=int, default=0)
    p_trial.set_defaults(func=_cmd_trial)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter over values")
    multi_trial(p_sweep)
    p_sweep.add_argument("--param", choices=SWEEP_AXES, default="n_users")
    p_sweep.add_argument(
        "--values", default="2,4,8", help="comma-separated sweep values"
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_conv = sub.add_parser(
        "convergence", help="mean best-so-far trace per sweep value"
    )
    multi_trial(p_conv)
    p_conv.add_argument("--param", choices=SWEEP_AXES, default="m_total")
    p_conv.add_argument(
        "--values", default="64,128,256", help="comma-separated sweep values"
    )
    p_conv.set_defaults(func=_cmd_convergence)
    return parser


def _assemble(args):
    """Configs from file plus flag overrides."""
    settings = {}
    if args.config:
        text = Path(args.config).read_text(encoding="utf-8")
        loaded = json.loads(text)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {args.config} must hold one JSON object")
        settings.update(loaded)
    flags = {dest: getattr(args, dest) for _, _, dest, _ in _SETTINGS_FLAGS
             if getattr(args, dest) is not None}
    if ("uc_per_ris" in settings and "m_total" not in settings
            and flags.keys() & {"m_total", "n_ris"}):
        cells = _require_ints("uc_per_ris", settings.pop("uc_per_ris"))
        settings["m_total"] = sum(cells)
        settings.setdefault("n_ris", len(cells))
    settings.update(flags)
    if args.seed is not None:
        settings["rng_seed"] = args.seed
    pso_kwargs = {f.name: settings.pop(f.name)
                  for f in dataclasses.fields(PsoConfig) if f.name in settings}
    return make_config(**settings), PsoConfig(**pso_kwargs)


def _parse_values(text):
    try:
        return tuple(int(v) for v in str(text).split(",") if v.strip())
    except ValueError:
        raise ValueError(f"--values must be comma-separated integers (got {text!r})")


def _cmd_trial(args):
    scenario, pso_cfg = _assemble(args)
    pso_rate, baseline, trace = run_trial(scenario, pso_cfg, args.trial_index)
    print(
        f"trial={args.trial_index} sum_rate_bps_hz={pso_rate:.9g} "
        f"random_baseline_bps_hz={baseline:.9g} iterations={trace.size - 1}"
    )
    if args.out:
        print(f"wrote {emit_trace_csv(trace, args.out)}")
    return 0


def _make_spec(args):
    scenario, pso_cfg = _assemble(args)
    return ExperimentSpec(
        scenario=scenario,
        pso=pso_cfg,
        sweep_param=args.param,
        sweep_values=_parse_values(args.values),
        n_trials=args.trials if args.trials is not None else 200,
    )


def _cmd_sweep(args):
    spec = _make_spec(args)
    result = run_sweep(spec, jobs=args.jobs)
    detail, summary = emit_csv(result, args.out or "sweep.csv")
    for value, mean, stderr in zip(result.sweep_values, result.means, result.stderrs):
        print(
            f"{spec.sweep_param}={value} mean_bps_hz={mean:.9g} "
            f"stderr={stderr:.9g} n_trials={result.n_trials}"
        )
    print(f"wrote {detail} and {summary}")
    return 0


def _cmd_convergence(args):
    spec = _make_spec(args)
    result = run_sweep(spec, jobs=args.jobs)
    for value, trace in zip(result.sweep_values, result.mean_traces):
        reach = iterations_to_fraction(trace)
        print(
            f"{spec.sweep_param}={value} final_bps_hz={trace[-1]:.9g} "
            f"iterations_to_95pct={reach}"
        )
    out = emit_convergence_csv(result, args.out or "convergence.csv")
    print(f"wrote {out}")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # single-line, machine-parsable failure
        message = f"{type(exc).__name__}: {exc}".replace("\n", "; ")
        print(f"error: {message}", file=sys.stderr)
        return 2
