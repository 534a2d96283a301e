import json
import re

import pytest

from beamswarm.cli import _assemble, build_parser, main
from beamswarm.harness import summary_path_for

_TINY = [
    "--n-antennas", "8",
    "--n-users", "2",
    "--n-ris", "2",
    "--m-total", "8",
    "--n-selected-beams", "4",
    "--particles", "4",
    "--iterations", "5",
    "--seed", "3",
]


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrial:
    def test_prints_one_result_line(self, capsys):
        code, out, err = _run(["trial", *_TINY], capsys)
        assert code == 0
        assert err == ""
        assert re.fullmatch(
            r"trial=0 sum_rate_bps_hz=\S+ random_baseline_bps_hz=\S+ iterations=5",
            out.strip(),
        )

    def test_reproducible_and_seed_sensitive(self, capsys):
        _, out1, _ = _run(["trial", *_TINY], capsys)
        _, out2, _ = _run(["trial", *_TINY], capsys)
        assert out1 == out2
        other = [v if v != "3" else "4" for v in _TINY]
        _, out3, _ = _run(["trial", *other], capsys)
        assert out1 != out3

    def test_writes_trace_csv(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        code, stdout, _ = _run(["trial", *_TINY, "--out", str(out)], capsys)
        assert code == 0
        assert f"wrote {out}" in stdout
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "iteration,best_rate"
        assert len(lines) == 7  # header + T+1 trace entries


class TestErrors:
    def test_infeasible_settings_exit_2(self, capsys):
        code, out, err = _run(["trial", "--n-users", "16"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ValueError:")
        assert err.count("\n") == 1  # single line, trailing newline only

    def test_non_finite_rate_exit_2(self, capsys):
        code, out, err = _run(
            ["trial", "--n-users", "1", "--n-selected-beams", "1",
             "--power-dbm", "300", "--noise-dbm", "-3000", "--n-antennas", "8",
             "--m-total", "8", "--n-ris", "2", "--particles", "5",
             "--iterations", "2"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ValueError: best sum rate is inf")
        assert err.count("\n") == 1  # no RuntimeWarning ahead of the error line

    def test_missing_config_file(self, capsys):
        code, _, err = _run(
            ["trial", "--config", "/nonexistent/config.json"], capsys
        )
        assert code == 2
        assert err.startswith("error: FileNotFoundError:")

    def test_bad_values_string(self, capsys):
        code, _, err = _run(
            ["sweep", *_TINY, "--values", "4,x", "--trials", "1"], capsys
        )
        assert code == 2
        assert "comma-separated integers" in err

    def test_unknown_subcommand_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("flag", ["--jobs", "--trials"])
    def test_trial_rejects_multi_trial_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trial", *_TINY, flag, "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


class TestAssemble:
    def _args(self, argv):
        return build_parser().parse_args(argv)

    def test_config_file_supplies_settings(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n_antennas": 8, "n_users": 2, "n_ris": 2, "m_total": 8,
            "n_selected_beams": 4, "rng_seed": 4, "n_particles": 6,
        }), encoding="utf-8")
        scenario, pso = _assemble(self._args(["trial", "--config", str(cfg)]))
        assert scenario.n_antennas == 8
        assert scenario.rng_seed == 4
        assert pso.rng_seed == 4  # pso seed defaults to the scenario seed
        assert pso.n_particles == 6

    def test_flags_beat_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n_antennas": 8, "n_users": 4, "n_ris": 2, "m_total": 8,
            "n_selected_beams": 4,
        }), encoding="utf-8")
        scenario, _ = _assemble(
            self._args(["trial", "--config", str(cfg), "--n-users", "2"])
        )
        assert scenario.n_users == 2

    def test_separate_pso_seed_honored(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n_antennas": 8, "n_users": 2, "n_ris": 2, "m_total": 8,
            "n_selected_beams": 4, "rng_seed": 4, "pso_seed": 9,
        }), encoding="utf-8")
        scenario, pso = _assemble(self._args(["trial", "--config", str(cfg)]))
        assert (scenario.rng_seed, pso.rng_seed) == (4, 9)

    def test_seed_flag_overrides_both_streams(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n_antennas": 8, "n_users": 2, "n_ris": 2, "m_total": 8,
            "n_selected_beams": 4, "rng_seed": 4, "pso_seed": 9,
        }), encoding="utf-8")
        scenario, pso = _assemble(
            self._args(["trial", "--config", str(cfg), "--seed", "12"])
        )
        assert (scenario.rng_seed, pso.rng_seed) == (12, 12)

    def test_uc_per_ris_list_from_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n_antennas": 8, "n_users": 2, "n_ris": 2, "uc_per_ris": [5, 3],
            "n_selected_beams": 4,
        }), encoding="utf-8")
        scenario, _ = _assemble(self._args(["trial", "--config", str(cfg)]))
        assert scenario.uc_per_ris == (5, 3)

    def test_non_object_config_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ValueError, match="one JSON object"):
            _assemble(self._args(["trial", "--config", str(cfg)]))

    def test_defaults_without_any_input(self):
        scenario, pso = _assemble(self._args(["trial"]))
        assert scenario.n_antennas == 64
        assert scenario.total_uc == 128
        assert (pso.n_particles, pso.n_iterations) == (50, 200)


def _sweep_argv(out):
    return [
        "sweep", *_TINY,
        "--param", "n_users",
        "--values", "2,4",
        "--trials", "2",
        "--out", str(out),
    ]


class TestSweep:
    def test_outputs_and_files(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, stdout, err = _run(_sweep_argv(out), capsys)
        assert code == 0 and err == ""
        lines = stdout.splitlines()
        assert re.fullmatch(
            r"n_users=2 mean_bps_hz=\S+ stderr=\S+ n_trials=2", lines[0]
        )
        assert lines[1].startswith("n_users=4 ")
        assert lines[2] == f"wrote {out} and {summary_path_for(out)}"
        assert out.exists() and summary_path_for(out).exists()

    def test_stdout_matches_summary_file(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        _, stdout, _ = _run(_sweep_argv(out), capsys)
        printed = {
            m.group(1): m.group(2)
            for m in re.finditer(r"n_users=(\d+) mean_bps_hz=(\S+)", stdout)
        }
        for line in summary_path_for(out).read_text().splitlines()[1:]:
            value, mean, _, _ = line.split(",")
            assert printed[value] == mean

    def test_byte_identical_across_runs_and_jobs(self, capsys, tmp_path):
        paths = [tmp_path / f"s{i}.csv" for i in range(3)]
        _run(_sweep_argv(paths[0]), capsys)
        _run(_sweep_argv(paths[1]), capsys)
        _run(_sweep_argv(paths[2]) + ["--jobs", "2"], capsys)
        blobs = [
            (p.read_bytes(), summary_path_for(p).read_bytes()) for p in paths
        ]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_default_values_are_feasible(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--particles", "3", "--iterations", "1", "--trials", "1",
                "--out", str(out)]
        code, stdout, err = _run(argv, capsys)
        assert code == 0 and err == ""
        values = re.findall(r"^n_users=(\d+) ", stdout, flags=re.MULTILINE)
        assert values == ["2", "4", "8"]


def _convergence_argv(out):
    return [
        "convergence", *_TINY,
        "--param", "n_iterations",
        "--values", "3,6",
        "--trials", "2",
        "--out", str(out),
    ]


class TestConvergence:
    def test_outputs_and_file(self, capsys, tmp_path):
        out = tmp_path / "conv.csv"
        code, stdout, err = _run(_convergence_argv(out), capsys)
        assert code == 0 and err == ""
        lines = stdout.splitlines()
        assert re.fullmatch(
            r"n_iterations=3 final_bps_hz=\S+ iterations_to_95pct=\d+", lines[0]
        )
        assert lines[1].startswith("n_iterations=6 ")
        assert lines[2] == f"wrote {out}"
        text = out.read_text(encoding="utf-8").splitlines()
        assert text[0] == "sweep_value,iteration,mean_best_rate"
        assert len(text) == 1 + 4 + 7

    def test_byte_identical_across_runs_and_jobs(self, capsys, tmp_path):
        paths = [tmp_path / f"c{i}.csv" for i in range(3)]
        _run(_convergence_argv(paths[0]), capsys)
        _run(_convergence_argv(paths[1]), capsys)
        _run(_convergence_argv(paths[2]) + ["--jobs", "2"], capsys)
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]
