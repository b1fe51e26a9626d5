"""Tests for the command-line interface (:mod:`repro.cli`)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.core.examples import figure1_task
from repro.io.json_io import save_task


@pytest.fixture
def task_file(tmp_path):
    return str(save_task(figure1_task(period=20, deadline=15), tmp_path / "task.json"))


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        for args in (
            ["analyse", "task.json", "-m", "4"],
            ["transform", "task.json"],
            ["simulate", "task.json", "--policy", "depth-first"],
            ["simulate", "task.json", "--gantt"],
            ["makespan", "task.json", "--method", "bnb"],
            ["generate", "-o", "out", "--count", "2"],
            ["experiment", "figure9", "--scale", "quick"],
            ["serve", "--port", "0", "--max-pending", "8"],
        ):
            namespace = parser.parse_args(args)
            assert callable(namespace.func)

    def test_serve_flag_defaults_ignore_the_environment(self, monkeypatch):
        # The serving flags have no environment-variable twins.
        for name, value in (
            ("REPRO_TRACE_SAMPLE", "0.5"),
            ("REPRO_TRACE_RING_BYTES", "1024"),
            ("REPRO_LOG_LEVEL", "debug"),
            ("REPRO_ACCESS_LOG", "1"),
        ):
            monkeypatch.setenv(name, value)
        namespace = build_parser().parse_args(["serve"])
        assert (
            namespace.trace_sample,
            namespace.trace_ring_bytes,
            namespace.log_level,
            namespace.access_log,
        ) == (1.0, 4 << 20, "warning", False)

    def test_unknown_experiment_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "figure42"])


class TestCommands:
    def test_analyse(self, task_file, capsys):
        assert main(["analyse", task_file, "-m", "2"]) == 0
        output = capsys.readouterr().out
        assert "R_hom" in output and "= 13" in output
        assert "R_het" in output and "= 12" in output
        assert "schedulable" in output

    def test_analyse_missing_file(self, capsys):
        assert main(["analyse", "no-such-file.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_transform_writes_output(self, task_file, tmp_path, capsys):
        output = tmp_path / "prime.json"
        assert main(["transform", task_file, "-o", str(output)]) == 0
        document = json.loads(output.read_text())
        assert "v_sync" in document["nodes"]
        assert "sync node" in capsys.readouterr().out

    def test_transform_to_dot(self, task_file, tmp_path):
        output = tmp_path / "prime.dot"
        assert main(["transform", task_file, "-o", str(output)]) == 0
        assert output.read_text().startswith("digraph")

    def test_simulate_fast_path_is_default(self, task_file, capsys):
        # The default route goes through the batched simulate_many fast
        # path: same makespan as the reference engine, no Gantt chart.
        assert main(["simulate", task_file, "-m", "2"]) == 0
        output = capsys.readouterr().out
        assert "makespan" in output and "= 12" in output
        assert "core0" not in output

    def test_simulate_gantt(self, task_file, capsys):
        assert main(["simulate", task_file, "-m", "2", "--gantt"]) == 0
        output = capsys.readouterr().out
        assert "makespan" in output and "= 12" in output
        assert "core0" in output

    def test_simulate_seeded_random_policy(self, task_file, capsys):
        assert (
            main(["simulate", task_file, "-m", "2", "--policy", "random",
                  "--seed", "7"])
            == 0
        )
        assert "makespan" in capsys.readouterr().out

    def test_simulate_transformed(self, task_file, capsys):
        assert main(["simulate", task_file, "-m", "2", "--transformed"]) == 0
        output = capsys.readouterr().out
        assert "makespan" in output and "= 10" in output

    def test_makespan(self, task_file, capsys):
        assert main(["makespan", task_file, "-m", "2", "--method", "ilp", "-v"]) == 0
        output = capsys.readouterr().out
        assert "minimum makespan = 8" in output
        assert "v_off" in output

    def test_generate(self, tmp_path, capsys):
        output_dir = tmp_path / "generated"
        assert (
            main(
                [
                    "generate",
                    "-o",
                    str(output_dir),
                    "--preset",
                    "small-fig7-m2",
                    "--count",
                    "2",
                    "--seed",
                    "3",
                    "--offload-fraction",
                    "0.2",
                ]
            )
            == 0
        )
        files = sorted(output_dir.glob("*.json"))
        assert len(files) == 2
        document = json.loads(files[0].read_text())
        assert document["offloaded_node"] is not None

    def test_experiment_with_exports(self, tmp_path, capsys):
        csv_path = tmp_path / "fig9.csv"
        json_path = tmp_path / "fig9.json"
        assert (
            main(
                [
                    "experiment",
                    "worked-example",
                    "--csv",
                    str(csv_path),
                    "--json",
                    str(json_path),
                ]
            )
            == 0
        )
        assert csv_path.exists() and json_path.exists()
        output = capsys.readouterr().out
        assert "worked example" in output.lower()

    def test_experiment_quick_figure9(self, capsys):
        assert main(["experiment", "figure9", "--dags", "3", "--seed", "1"]) == 0
        assert "m=2" in capsys.readouterr().out

    def test_serve_rejects_a_bad_queue_bound(self, capsys):
        # The batcher refuses max_pending < 1 before anything binds.
        assert main(["serve", "--port", "0", "--max-pending", "0"]) == 1
        assert "max_pending" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("flags", "setting"),
        [
            (["--oracle-budget", "-1"], "oracle_budget"),
            (["--oracle-budget", "nan"], "oracle_budget"),
            (["--breaker-reset", "nan"], "reset_timeout"),
            (["--breaker-reset", "inf"], "reset_timeout"),
        ],
    )
    def test_serve_rejects_oracle_settings_outside_their_domain(
        self, flags, setting, capsys, monkeypatch
    ):
        # Refused before anything binds: a negative budget once started a
        # server whose every /makespan answered 400, a NaN budget never
        # expired and a NaN breaker reset never let a probe through.
        from repro.service import http

        def never_bind(*args, **kwargs):
            raise AssertionError("the service was built and went on to bind")

        monkeypatch.setattr(http, "ServiceHTTPServer", never_bind)
        assert main(["serve", "--port", "0", *flags]) == 1
        assert setting in capsys.readouterr().err

    def test_serve_reports_bind_failures(self, capsys):
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        try:
            assert main(["serve", "--port", str(port)]) == 1
            assert "cannot bind" in capsys.readouterr().err
        finally:
            blocker.close()
