"""Tests of the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_parses(self):
        args = build_parser().parse_args(["run", "lemma15_suburb", "--scale", "full"])
        assert args.experiment == "lemma15_suburb"
        assert args.scale == "full"

    def test_run_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "bogus"])

    def test_experiment_alias_parses(self):
        args = build_parser().parse_args(
            ["experiment", "thm3_radius", "--engine", "auto", "--jobs", "2"]
        )
        assert args.command == "experiment"
        assert args.experiment == "thm3_radius"
        assert args.engine == "auto"
        assert args.jobs == 2

    def test_engine_defaults_unset(self):
        args = build_parser().parse_args(["run", "thm3_radius"])
        assert args.engine is None
        assert args.jobs == 1

    def test_all_and_report_take_engine_jobs(self):
        args = build_parser().parse_args(["all", "--engine", "scalar", "--jobs", "3"])
        assert args.engine == "scalar" and args.jobs == 3
        args = build_parser().parse_args(["report", "--engine", "auto"])
        assert args.engine == "auto"

    def test_flood_parses(self):
        args = build_parser().parse_args(["flood", "--n", "500", "--seed", "3"])
        assert args.n == 500
        assert args.seed == 3

    def test_flood_source_is_an_index_or_a_name(self):
        def source(value):
            return build_parser().parse_args(["flood", "--n", "50", "--source", value]).source

        assert source("7") == 7
        assert source("central") == "central"

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["experiment", "thm3_radius"], "workers", "2"),
            (
                ["sweep", "--n", "100", "--parameter", "radius", "--values", "2",
                 "--checkpoint", "ck"],
                "lease-ttl",
                "5",
            ),
        ],
        ids=["experiment-workers", "sweep-lease-ttl"],
    )
    def test_leasing_flags_are_gone(self, argv, flag, value, capsys):
        # A sweep is one invocation: --jobs N replaces cooperating workers.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*argv, f"--{flag}", value])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCommands:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1_spatial" in out
        assert "thm18_lower" in out

    def test_run_deterministic_experiment(self, capsys):
        code = main(["run", "lemma15_suburb"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Lemma 15" in out
        assert "PASS" in out

    def test_run_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        code = main(["run", "lemma15_suburb", "--csv", str(csv_path)])
        capsys.readouterr()
        assert code == 0
        assert csv_path.exists()

    def test_experiment_alias_runs_with_engine(self, capsys):
        code = main(["experiment", "thm10_growth", "--engine", "auto", "--jobs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Theorem 10" in out

    def test_engine_on_non_scheduler_experiment_errors(self, capsys):
        with pytest.raises(SystemExit, match="engine"):
            main(["run", "fig1_spatial", "--engine", "auto"])

    def test_resume_without_a_checkpoint_exits_with_the_message(self, tmp_path):
        # A directory holding no manifest is a CLI error, not a traceback.
        with pytest.raises(SystemExit, match="nothing to resume: .* contains no manifest"):
            main(["experiment", "thm3_radius", "--resume", str(tmp_path)])

    def test_resume_of_another_plan_exits_with_the_message(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "ck")
        assert main(["experiment", "cor12_large_r", "--checkpoint", checkpoint]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="the sweep plan does not match the checkpoint"):
            main(["experiment", "thm3_radius", "--resume", checkpoint])
        with pytest.raises(SystemExit, match="already contains a sweep checkpoint"):
            main(["experiment", "cor12_large_r", "--checkpoint", checkpoint])

    def test_flood_command(self, capsys):
        code = main(
            ["flood", "--n", "400", "--radius-factor", "2.0", "--max-steps", "2000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "flooding time" in out
        assert "Theorem 3 bound" in out

    def test_flood_with_source_index(self, capsys):
        code = main(["flood", "--n", "400", "--source", "7", "--max-steps", "2000"])
        capsys.readouterr()
        assert code == 0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["flood", "--n", "1"], "n must be at least 2, got 1"),
            (["flood", "--n", "50", "--source", "5000"], r"source index must be in \[0, 50\)"),
            (["flood", "--n", "50", "--source", "abc"], "source must be an index or one of"),
            (
                ["sweep", "--n", "1", "--parameter", "radius_factor", "--values", "1"],
                "n must be at least 2, got 1",
            ),
            (
                ["flood", "--n", "50", "--mobility", "random-walk", "--speed-fraction", "100"],
                r"random-walk needs a speed \(its move radius\) in \(0, side=",
            ),
            (
                ["sweep", "--n", "50", "--parameter", "radius", "--values", "2", "-1"],
                "cannot sweep 'radius': radius must be positive and finite, got -1",
            ),
            (
                ["sweep", "--n", "50", "--parameter", "radius", "--values", "nan"],
                "cannot sweep 'radius': radius must be positive and finite, got nan",
            ),
            (
                ["sweep", "--n", "50", "--parameter", "n", "--values", "1"],
                "cannot sweep 'n': n must be at least 2, got 1",
            ),
        ],
        ids=[
            "flood-n", "flood-source-index", "flood-source-name", "sweep-n", "flood-random-walk",
            "sweep-radius-negative", "sweep-radius-nan", "sweep-point-n",
        ],
    )
    def test_config_errors_exit_with_the_config_message(self, argv, message):
        # A rejected option is a CLI error, not a traceback.
        with pytest.raises(SystemExit, match=message):
            main(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["flood", "--n", "50"],
            ["experiment", "fig1_spatial"],
            ["all"],
            ["sweep", "--n", "50", "--parameter", "radius", "--values", "2"],
            ["report"],
        ],
        ids=["flood", "experiment", "all", "sweep", "report"],
    )
    @pytest.mark.parametrize("seed", ["-1", "1.5"])
    def test_bad_seed_is_a_usage_error(self, argv, seed, capsys):
        # Parsed before anything runs: SeedSequence takes no negative seed.
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--seed", seed])
        assert excinfo.value.code == 2
        assert "argument --seed" in capsys.readouterr().err
