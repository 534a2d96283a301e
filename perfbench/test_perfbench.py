"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import bench
import make_refs
from tracer import TARGETS, Tracer

TINY = bench.TrialWorkload(
    "tiny",
    scenario={"n_antennas": 16, "n_users": 2, "n_selected_beams": 4, "m_total": 16, "n_ris": 2},
    pso={"n_particles": 5, "n_iterations": 5},
    pool=8,
)
TINY_SWEEP = bench.SweepWorkload(
    "tiny-sweep",
    args=("sweep", "--param", "n_users", "--values", "2,3", "--n-antennas", "16",
          "--n-users", "2", "--n-selected-beams", "4", "--m-total", "16", "--n-ris", "2",
          "--particles", "5", "--iterations", "5", "--trials", "2"),
    pool=2,
)


@pytest.fixture(scope="module")
def tiny_refs():
    return make_refs.make_refs(TINY)


@pytest.fixture(scope="module")
def sweep_refs():
    return make_refs.make_refs(TINY_SWEEP)


def _originals():
    import beamswarm  # noqa: F401  (loads every module TARGETS names)

    out = {}
    for _, module, path in TARGETS:
        owner = sys.modules[module]
        for part in path.split("."):
            owner = getattr(owner, part)
        out[(module, path)] = owner
    return out


def _declared(traced):
    return set(bench.metric_units()[traced])


@pytest.mark.parametrize("traced", [False, True])
def test_trial_workload_smoke(tiny_refs, traced):
    outcome = bench.run(TINY, 1, 0.3, traced, refs=tiny_refs)
    assert outcome["correct"] and outcome["failed"] == 0
    assert set(outcome["metrics"]) == _declared(traced)
    if traced:
        calls = {k: v["value"] for k, v in outcome["metrics"].items() if k.startswith("calls.")}
        assert calls["calls.linkrate.beamspace"] == TINY.pso["n_iterations"] + 1
        assert 0.5 < outcome["metrics"]["trace.accounted_frac"]["value"] <= 1.0


@pytest.mark.parametrize("traced", [False, True])
def test_sweep_workload_smoke(sweep_refs, traced):
    outcome = bench.run(TINY_SWEEP, 1, 0.1, traced, refs=sweep_refs)
    assert outcome["correct"] and outcome["failed"] == 0, outcome
    assert set(outcome["metrics"]) == _declared(traced)


def test_wrappers_only_inside_traced_section(tiny_refs):
    originals = _originals()
    import beamswarm

    tracer = Tracer()
    with tracer.installed():
        for (module, path), fn in originals.items():
            owner = sys.modules[module]
            for part in path.split("."):
                owner = getattr(owner, part)
            assert owner is not fn and owner.__wrapped__ is fn
        assert beamswarm.run_trial is not originals[("beamswarm.harness", "run_trial")]
    assert _originals() == originals
    assert beamswarm.run_trial is originals[("beamswarm.harness", "run_trial")]

    bench.run(TINY, 2, 0.1, True, refs=tiny_refs)
    assert _originals() == originals


def test_wrappers_restored_when_a_call_raises():
    originals = _originals()
    from beamswarm import pso

    with pytest.raises(TypeError):
        with Tracer().installed():
            pso.top_beam_indices(None, 1)  # argsort of None raises
    assert _originals() == originals


def test_untraced_run_never_wraps(tiny_refs, monkeypatch):
    monkeypatch.setattr(Tracer, "installed", lambda self: pytest.fail("traced in --trace 0"))
    assert bench.run(TINY, 3, 0.1, False, refs=tiny_refs)["correct"]


def test_workload_seed_changes_inputs():
    for workload in (bench.WORKLOADS["trial-m128"], bench.WORKLOADS["sweep-jobs2"]):
        first, again, other = (
            list(islice(bench.pool_sequence(workload, seed), 3)) for seed in (1, 1, 2)
        )
        assert first == again != other


def test_corrupted_reference_is_a_failure_not_a_crash(tiny_refs, sweep_refs):
    bad = dict(tiny_refs, rates=[r * (1 + 1e-9) for r in tiny_refs["rates"]])
    outcome = bench.run(TINY, 1, 0.1, False, refs=bad)
    assert not outcome["correct"]
    assert outcome["failed"] == outcome["attempted"] > 0

    bad_sweeps = {k: ["0" * 64, "0" * 64] for k in sweep_refs["sweeps"]}
    outcome = bench.run(TINY_SWEEP, 1, 0.1, False, refs=dict(sweep_refs, sweeps=bad_sweeps))
    assert not outcome["correct"] and 0 < outcome["failed"] < outcome["attempted"]


@pytest.mark.parametrize("name", ["run_sweep", "evaluate_solution"])
def test_program_call_that_raises_is_a_failure_not_a_crash(tiny_refs, monkeypatch, name):
    import beamswarm

    def broken(*args, **kwargs):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(beamswarm, name, broken)
    outcome = bench.run(TINY, 1, 0.1, True, refs=tiny_refs)
    assert not outcome["correct"] and outcome["failed"] > 0
    assert set(outcome["metrics"]) == _declared(True)


def test_setup_sweep_is_one_value_one_trial():
    args = bench.WORKLOADS["sweep-jobs2"].setup_args
    assert args[args.index("--values") + 1] == "8"
    assert args[args.index("--trials") + 1] == "1"


def test_committed_references_match_their_workloads():
    for workload in bench.WORKLOADS.values():
        refs = bench.load_refs(workload)
        key = "rates" if isinstance(workload, bench.TrialWorkload) else "sweeps"
        assert len(refs[key]) == workload.pool


def test_runner_fails_without_the_program(tmp_path):
    here = Path(bench.__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench")
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "trial-m128", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_child_that_hangs_is_killed_and_reported(monkeypatch):
    monkeypatch.setattr(bench, "CHILD_TIMEOUT_S", 0.5)
    code, _, err = bench._child([sys.executable, "-c", "import time; time.sleep(30)"])
    assert code != 0 and "killed after" in err
