import json

import numpy as np
import pytest

from proxyot import io as pio
from proxyot.cli import main


@pytest.fixture(scope="module")
def cli_fixture(tmp_path_factory):
    out = tmp_path_factory.mktemp("clifx")
    code = main(
        [
            "gen-fixture", "--seed", "11", "--out", str(out),
            "--n", "40", "--classes", "3", "--dim", "8",
            "--descriptions", "4", "--separation", "3.0",
        ]
    )
    assert code == 0
    return out


def _pipeline_args(fx, out, mode="kpl_text", extra=()):
    return [
        "pipeline", "--mode", mode,
        "--images", str(fx / "images.emb"),
        "--kb", str(fx / "kb.json"),
        "--labels", str(fx / "labels.txt"),
        "--out", str(out),
        *extra,
    ]


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "proxyot" in capsys.readouterr().out

    def test_subcommand_help_exits_zero(self, capsys):
        for cmd in ("pipeline", "retrieve", "plan", "learn", "classify",
                    "eval", "bench-ot", "gen-fixture"):
            assert main([cmd, "--help"]) == 0
            assert "--" in capsys.readouterr().out

    def test_version_prints_build_identifier(self, capsys):
        assert main(["--version"]) == 0
        assert "proxyot 0.1.0" in capsys.readouterr().out

    def test_missing_required_flag_is_usage_error(self, cli_fixture, tmp_path, capsys):
        code = main(
            ["pipeline", "--mode", "kpl_text", "--kb", str(cli_fixture / "kb.json"),
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 1
        assert "--images" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, cli_fixture, tmp_path, capsys):
        code = main(
            _pipeline_args(cli_fixture, tmp_path / "r.json", extra=["--frobnicate", "1"])
        )
        assert code == 1

    def test_bad_mode_rejected(self, cli_fixture, tmp_path):
        args = _pipeline_args(cli_fixture, tmp_path / "r.json")
        args[2] = "telepathy"
        assert main(args) == 1

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        code = main(
            ["pipeline", "--mode", "kpl_text", "--images", str(tmp_path / "ghost.emb"),
             "--kb", str(tmp_path / "ghost.json"), "--out", str(tmp_path / "r.json")]
        )
        assert code == 2

    def test_corrupt_embeddings_are_data_error(self, cli_fixture, tmp_path, capsys):
        blob = bytearray((cli_fixture / "images.emb").read_bytes())
        blob[30] ^= 0x01
        bad = tmp_path / "bad.emb"
        bad.write_bytes(bytes(blob))
        code = main(
            ["pipeline", "--mode", "kpl_text", "--images", str(bad),
             "--kb", str(cli_fixture / "kb.json"), "--out", str(tmp_path / "r.json")]
        )
        assert code == 2
        assert "CRC" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["pipeline", "--mode", "kpl_text"],
            ["eval", "--mode", "kpl_full", "--labels", "LABELS"],
            ["classify", "--mode", "clip_baseline"],
            ["retrieve"],
            ["plan"],
            ["learn"],
            ["bench-ot"],
        ],
        ids=lambda command: command[0],
    )
    def test_dim_mismatch_is_data_error(self, cli_fixture, tmp_path, capsys, command):
        images = tmp_path / "narrow.emb"
        rows = np.random.default_rng(0).standard_normal((5, 7))
        pio.write_embeddings(rows / np.linalg.norm(rows, axis=1, keepdims=True), images)
        args = [str(cli_fixture / "labels.txt") if a == "LABELS" else a for a in command]
        code = main(
            [*args, "--images", str(images), "--kb", str(cli_fixture / "kb.json"),
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")
        assert "dim 7" in err[0] and "dim 8" in err[0]

    @pytest.mark.parametrize(
        "flag, content",
        [
            ("--kb", b'{"dim": 8, "classes": [{"name": "a", "descriptions": ["x"], '
                     b'"embeddings": [[1, 0], [0]]}]}'),
            ("--kb", b'{"dim": 8, "classes": [{"name": "a", "descriptions": ["x"], '
                     b'"embeddings": [[1, 0, 0, 0, 0, 0, 0, 0]], "name_embedding": [[1]]}]}'),
            ("--kb", b"\xff{}"),
            ("--marginal", b"[true, 1, 1]"),
            ("--marginal", b"[]"),
            ("--marginal", b"\xff[]"),
            ("--labels", b"\xff0\n"),
        ],
        ids=["ragged-embeddings", "2d-name-embedding", "kb-not-utf8", "bool-weight",
             "empty-marginal", "marginal-not-utf8", "labels-not-utf8"],
    )
    def test_malformed_file_is_one_data_error_line(
        self, cli_fixture, tmp_path, capsys, flag, content
    ):
        bad = tmp_path / "bad"
        bad.write_bytes(content)
        files = {"--kb": cli_fixture / "kb.json", "--labels": cli_fixture / "labels.txt"}
        files[flag] = bad
        code = main(
            ["pipeline", "--mode", "kpl_full", "--images", str(cli_fixture / "images.emb"),
             *(arg for f, path in files.items() for arg in (f, str(path))),
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")

    @pytest.mark.parametrize(
        "mode", ["clip_baseline", "description_baseline", "kpl_text", "kpl_full"]
    )
    def test_image_file_without_rows_is_data_error(self, cli_fixture, tmp_path, capsys, mode):
        images = tmp_path / "empty.emb"
        pio.write_embeddings(np.zeros((0, 8)), images)
        code = main(
            ["pipeline", "--mode", mode, "--images", str(images),
             "--kb", str(cli_fixture / "kb.json"), "--out", str(tmp_path / "r.json")]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")
        assert str(images) in err[0]
        assert not (tmp_path / "r.json").exists()

    def test_linear_overflow_is_numeric_error(self, cli_fixture, capsys):
        code = main(
            ["bench-ot", "--images", str(cli_fixture / "images.emb"),
             "--kb", str(cli_fixture / "kb.json"),
             "--tau-ot", "0.001", "--algorithm", "sinkhorn_linear"]
        )
        assert code == 3
        assert "overflow" in capsys.readouterr().err


class TestNumericEdges:
    """Inputs that leave the float range exit with one error line: no numpy
    warning (any warning fails these tests) and no traceback."""

    def _stage(self, fx, tmp_path, command, *extra):
        return main(
            [command, "--images", str(fx / "images.emb"), "--kb", str(fx / "kb.json"),
             "--out", str(tmp_path / "out"), *extra]
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "mode", ["clip_baseline", "description_baseline", "kpl_text", "kpl_full"]
    )
    def test_image_row_with_overflowing_norm_is_data_error(
        self, cli_fixture, tmp_path, capsys, mode
    ):
        """A row whose squared entries overflow is normalized, not rejected: the
        run predicts what it predicts on the unscaled file."""
        rows = pio.read_embeddings(cli_fixture / "images.emb")
        rows[3] *= 1e200
        images = tmp_path / "huge.emb"
        pio.write_embeddings(rows, images)
        outs = []
        for name, path in (("huge", images), ("plain", cli_fixture / "images.emb")):
            outs.append(tmp_path / f"{name}.json")
            code = main(
                ["pipeline", "--mode", mode, "--images", str(path),
                 "--kb", str(cli_fixture / "kb.json"), "--out", str(outs[-1])]
            )
            assert code == 0
        assert "warning" not in capsys.readouterr().err
        huge, plain = (out.with_suffix(".csv").read_bytes() for out in outs)
        assert huge == plain

    @pytest.mark.filterwarnings("error")
    def test_diverging_learning_step_is_numeric_error(self, cli_fixture, tmp_path, capsys):
        assert self._stage(cli_fixture, tmp_path, "learn", "--lr", "1e308") == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric error: step diverged")
        assert "epoch 1" in err[0] and "learning_rate=1e+308" in err[0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("algorithm", ["sinkhorn_linear", "sinkhorn_log", "stable_greenkhorn"])
    def test_denormal_tau_is_numeric_error(self, cli_fixture, tmp_path, capsys, algorithm):
        code = self._stage(
            cli_fixture, tmp_path, "plan", "--tau-ot", "1e-310", "--algorithm", algorithm
        )
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric error: m/tau overflows")

    @pytest.mark.filterwarnings("error")
    def test_capped_plan_with_overflowing_mass_is_numeric_error(
        self, cli_fixture, tmp_path, capsys
    ):
        code = self._stage(
            cli_fixture, tmp_path, "plan", "--tau-ot", "0.001", "--max-iterations", "1"
        )
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric error: plan mass overflows")
        assert "after 1 iterations" in err[0] and "--max-iterations" in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    def test_bench_ot_reports_overflowing_mass(self, cli_fixture, tmp_path, capsys):
        code = self._stage(
            cli_fixture, tmp_path, "bench-ot", "--tau-ot", "0.001",
            "--max-iterations", "1", "--algorithm", "stable_greenkhorn",
        )
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("stable_greenkhorn: plan mass overflows after 1 iterations")
        rows = json.loads((tmp_path / "out").read_text())
        assert rows[0]["status"] == "numeric_overflow"


class TestPipelineCommand:
    def test_happy_path_writes_report_and_csv(self, cli_fixture, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(_pipeline_args(cli_fixture, out)) == 0
        report = json.loads(out.read_text())
        assert report["mode"] == "kpl_text"
        assert 0.0 <= report["accuracy"] <= 1.0
        csv = (tmp_path / "report.csv").read_text().splitlines()
        assert csv[0] == "index,predicted_class_name"
        assert len(csv) == 41

    def test_eval_requires_labels(self, cli_fixture, tmp_path):
        code = main(
            ["eval", "--mode", "kpl_text",
             "--images", str(cli_fixture / "images.emb"),
             "--kb", str(cli_fixture / "kb.json"),
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 1

    def test_classify_writes_only_csv(self, cli_fixture, tmp_path):
        out = tmp_path / "pred.csv"
        code = main(
            ["classify", "--mode", "description_baseline",
             "--images", str(cli_fixture / "images.emb"),
             "--kb", str(cli_fixture / "kb.json"), "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().startswith("index,predicted_class_name")

    def test_full_mode_flags_reach_the_report(self, cli_fixture, tmp_path):
        out = tmp_path / "full.json"
        code = main(
            _pipeline_args(
                cli_fixture, out, mode="kpl_full",
                extra=["--tau-ot", "0.05", "--max-iterations", "20000",
                       "--lr", "0.05", "--epochs", "50", "--k", "2", "--seed", "9"],
            )
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["solver"]["tau_ot"] == 0.05
        assert report["config"]["learn"]["learning_rate"] == 0.05
        assert report["config"]["k"] == 2
        assert report["config"]["seed"] == 9
        assert report["solver_diagnostics"]["iterations_used"] >= 1
        assert report["learn_summary"]["epochs_run"] >= 1


class TestStageCommands:
    def test_retrieve_writes_selection(self, cli_fixture, tmp_path):
        out = tmp_path / "sel.json"
        code = main(
            ["retrieve", "--images", str(cli_fixture / "images.emb"),
             "--kb", str(cli_fixture / "kb.json"), "--k", "2", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["k"] == 2
        assert len(doc["classes"]) == 3
        for entry in doc["classes"]:
            assert len(entry["selected_indices"]) == 2
            assert entry["scores"] == sorted(entry["scores"], reverse=True)

    def test_plan_writes_pseudo_labels(self, cli_fixture, tmp_path):
        out = tmp_path / "plan.json"
        code = main(
            ["plan", "--images", str(cli_fixture / "images.emb"),
             "--kb", str(cli_fixture / "kb.json"),
             "--tau-ot", "0.05", "--max-iterations", "20000", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        rows = np.array(doc["pseudo_labels"])
        assert rows.shape == (40, 3)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)

    def test_learn_writes_emb1_weights(self, cli_fixture, tmp_path):
        out = tmp_path / "w.emb"
        code = main(
            ["learn", "--images", str(cli_fixture / "images.emb"),
             "--kb", str(cli_fixture / "kb.json"),
             "--tau-ot", "0.05", "--max-iterations", "20000",
             "--epochs", "50", "--out", str(out)]
        )
        assert code == 0
        w = pio.read_embeddings(out)
        assert w.shape == (3, 8)
        np.testing.assert_allclose(np.linalg.norm(w, axis=1), 1.0, atol=1e-9)

    def test_bench_ot_writes_table(self, cli_fixture, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            ["bench-ot", "--images", str(cli_fixture / "images.emb"),
             "--kb", str(cli_fixture / "kb.json"),
             "--tau-ot", "0.05", "--max-iterations", "20000", "--out", str(out)]
        )
        assert code == 0
        rows = json.loads(out.read_text())
        assert [r["algorithm"] for r in rows] == [
            "sinkhorn_linear", "sinkhorn_log", "stable_greenkhorn"
        ]
        assert all(r["status"] == "converged" for r in rows)


class TestGenFixture:
    def test_seed_is_required(self, tmp_path, capsys):
        assert main(["gen-fixture", "--out", str(tmp_path / "fx")]) == 1
        assert "--seed" in capsys.readouterr().err

    def test_writes_all_files(self, cli_fixture):
        for name in ("images.emb", "labels.txt", "kb.json", "manifest.json"):
            assert (cli_fixture / name).exists()
        manifest = json.loads((cli_fixture / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["name_noise"] == pytest.approx(0.25)

    def test_same_seed_gives_byte_identical_files(self, tmp_path):
        args = ["gen-fixture", "--seed", "5", "--n", "20", "--classes", "3",
                "--dim", "8", "--descriptions", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in ("images.emb", "labels.txt", "kb.json", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_invalid_spec_rejected(self, tmp_path):
        code = main(
            ["gen-fixture", "--seed", "1", "--out", str(tmp_path / "x"),
             "--classes", "10", "--dim", "4"]
        )
        assert code == 1

    def test_gapless_fixture_makes_name_proxies_perfect(self, tmp_path):
        fx = tmp_path / "clean"
        assert main(
            ["gen-fixture", "--seed", "7", "--out", str(fx),
             "--angle", "0", "--offset", "0", "--noise", "0",
             "--separation", "8.0"]
        ) == 0
        out = tmp_path / "clean.json"
        assert main(_pipeline_args(fx, out, mode="clip_baseline")) == 0
        assert json.loads(out.read_text())["accuracy"] == 1.0


class TestCapWarnings:
    """A stage that stops at its cap says so on stderr; stdout and files do not change."""

    def _args(self, fx, tmp_path, command, extra):
        mode = ["--mode", "kpl_full"] if command in ("pipeline", "eval", "classify") else []
        labels = ["--labels", str(fx / "labels.txt")] if command == "eval" else []
        return [command, *mode, "--images", str(fx / "images.emb"),
                "--kb", str(fx / "kb.json"), *labels,
                "--out", str(tmp_path / "out"), *extra]

    @pytest.mark.parametrize(
        "command, solver_line, learner_line",
        [
            ("pipeline", True, True),
            ("eval", True, True),
            ("classify", True, True),
            ("plan", True, False),
            ("learn", True, True),
        ],
    )
    def test_capped_stages_warn_once_each(
        self, cli_fixture, tmp_path, capsys, command, solver_line, learner_line
    ):
        extra = ["--max-iterations", "1"] + (["--epochs", "1"] if command != "plan" else [])
        assert main(self._args(cli_fixture, tmp_path, command, extra)) == 0
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == solver_line + learner_line
        if solver_line:
            assert err[0].startswith("warning: stable_greenkhorn did not converge in 1 iterations")
            assert "violations (" in err[0] and "tolerance 1e-06" in err[0]
        if learner_line:
            assert err[-1] == "warning: learning stopped at its cap of 1 epochs"
        assert "warning" not in captured.out

    @pytest.mark.parametrize("command", ["pipeline", "eval", "classify", "plan", "learn"])
    def test_converged_run_is_silent(self, cli_fixture, tmp_path, capsys, command):
        extra = ["--tau-ot", "0.05", "--max-iterations", "20000"]
        if command != "plan":
            extra += ["--lr", "0"]  # the loss stops falling after one epoch
        assert main(self._args(cli_fixture, tmp_path, command, extra)) == 0
        assert capsys.readouterr().err == ""

    def test_linear_stop_on_its_tolerance_reports_converged(self, tmp_path, capsys):
        """On this instance sinkhorn_linear stops at sweep 77 on a tolerance that
        lies between the row violation of its plan p and that of exp(log(p)).
        The plan reports the violations its stop test saw, so it converged."""
        fx = tmp_path / "fx7"
        assert main(["gen-fixture", "--seed", "7", "--out", str(fx)]) == 0
        capsys.readouterr()
        extra = ["--algorithm", "sinkhorn_linear", "--tau-ot", "0.05",
                 "--tolerance", "9.95100506571e-07"]
        assert main(self._args(fx, tmp_path, "plan", extra)) == 0
        doc = json.loads((tmp_path / "out").read_text())
        assert doc["iterations_used"] == 77
        assert doc["converged"] is True
        assert doc["final_row_violation"] <= 9.95100506571e-07
        assert capsys.readouterr().err == ""
