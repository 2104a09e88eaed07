import argparse
import json
import math
import os
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import inline_kb_doc
from proxyot import io as pio
from proxyot.cli import build_parser, main
from proxyot.solvers import SolverConfig


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


def _with(args, flag, value):
    """``args`` with the value after ``flag`` replaced by ``value``."""
    at = args.index(flag) + 1
    return [*args[:at], str(value), *args[at + 1 :]]


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
            ("--marginal", b"[1e308, 1e308, 1]"),
            ("--labels", b"\xff0\n"),
        ],
        ids=["ragged-embeddings", "2d-name-embedding", "kb-not-utf8", "bool-weight",
             "empty-marginal", "marginal-not-utf8", "marginal-sum-overflows",
             "labels-not-utf8"],
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

    @pytest.mark.parametrize("command", ["eval", "learn"])
    def test_out_of_memory_is_one_data_error_line(
        self, cli_fixture, tmp_path, capsys, monkeypatch, command
    ):
        def exhausted(*args):
            raise MemoryError(
                "Unable to allocate 38.1 MiB for an array with shape (50, 100000) "
                "and data type float64"
            )

        # eval reaches learn_stage through run, learn calls it from the CLI module
        monkeypatch.setattr("proxyot.pipeline.learn_stage", exhausted)
        monkeypatch.setattr("proxyot.cli.learn_stage", exhausted)
        inputs = ["--images", str(cli_fixture / "images.emb"), "--kb", str(cli_fixture / "kb.json")]
        args = {
            "eval": ["eval", *_pipeline_args(cli_fixture, tmp_path / "r.json", "kpl_full")[1:]],
            "learn": ["learn", *inputs, "--out", str(tmp_path / "r.emb")],
        }[command]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "data error: out of memory: Unable to allocate 38.1 MiB for an array with "
            "shape (50, 100000) and data type float64"
        ]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("case", [
        "images_under_a_file", "name_too_long", "out_under_a_file", "gen_fixture_over_a_file",
    ])
    def test_os_error_on_a_named_path_is_one_data_error_line(
        self, cli_fixture, tmp_path, capsys, case
    ):
        under_file = cli_fixture / "images.emb" / "x"
        base = _pipeline_args(cli_fixture, tmp_path / "r.json")
        args = {
            "images_under_a_file": _with(base, "--images", under_file),
            "name_too_long": _with(base, "--images", tmp_path / ("x" * 300)),
            "out_under_a_file": _with(base, "--out", under_file),
            "gen_fixture_over_a_file": ["gen-fixture", "--seed", "1", "--out",
                                        str(cli_fixture / "kb.json")],
        }[case]
        assert main(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: ")

    @pytest.mark.parametrize("out", [".", ""])
    def test_out_with_an_empty_name_is_one_data_error_line(
        self, cli_fixture, tmp_path, capsys, monkeypatch, out
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["eval", *_pipeline_args(cli_fixture, out)[1:]]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: ")
        assert list(tmp_path.iterdir()) == []

    def test_directory_out_is_refused_before_any_input_is_read(
        self, cli_fixture, tmp_path, capsys, monkeypatch
    ):
        reads = []
        real = pio.read_embeddings

        def counting(*args, **kwargs):
            reads.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(pio, "read_embeddings", counting)
        out = tmp_path / "reports"
        out.mkdir()
        args = _pipeline_args(cli_fixture, out, mode="kpl_full")
        assert main(["eval", *args[1:]]) == 2
        assert reads == []
        assert capsys.readouterr().err.splitlines() == [
            f"data error: [Errno 21] Is a directory: '{out}'"
        ]

    def test_directory_predictions_csv_leaves_no_report(self, cli_fixture, tmp_path, capsys):
        (tmp_path / "r.csv").mkdir()
        out = tmp_path / "r.json"
        args = _pipeline_args(cli_fixture, out, mode="kpl_full")
        assert main(["eval", *args[1:]]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"data error: [Errno 21] Is a directory: '{tmp_path / 'r.csv'}'"
        ]
        assert not out.exists()

    def test_bench_ot_empty_out_is_data_error(self, cli_fixture, capsys):
        code = main(
            ["bench-ot", "--images", str(cli_fixture / "images.emb"),
             "--kb", str(cli_fixture / "kb.json"),
             "--tau-ot", "0.05", "--max-iterations", "20000", "--out", ""]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: ")

    @pytest.mark.parametrize("command", ["pipeline", "eval"])
    def test_csv_report_path_is_usage_error(self, cli_fixture, tmp_path, capsys, command):
        out = tmp_path / "report.csv"
        assert main([command, *_pipeline_args(cli_fixture, out)[1:]]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"usage error: --out {out}: the predictions CSV would overwrite the report"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["non_unit_row", "duplicate_name", "count", "dim"])
    def test_knowledge_base_rule_error_names_the_file(
        self, cli_fixture, tmp_path, capsys, fault
    ):
        doc = inline_kb_doc(cli_fixture / "kb.json")
        classes = doc["classes"]
        if fault == "non_unit_row":
            classes[2]["embeddings"][3] = [2 * x for x in classes[2]["embeddings"][3]]
        elif fault == "duplicate_name":
            classes[1]["name"] = classes[0]["name"]
        elif fault == "count":
            classes[0]["descriptions"].pop()
        else:
            doc["dim"] += 1
        kb = tmp_path / "badkb.json"
        kb.write_text(json.dumps(doc))
        assert main(_with(_pipeline_args(cli_fixture, tmp_path / "r.json"), "--kb", kb)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"data error: {kb}: ")
        assert {
            "non_unit_row": "class 'class_02': embedding row 3 has norm 2.0",
            "duplicate_name": "duplicate class name 'class_00'",
            "count": "class 'class_00': 3 descriptions but 4 embedding rows",
            "dim": "class 'class_00' embeddings have dim 8, expected 9",
        }[fault] in err[0]

    def test_lone_surrogate_class_name_writes_nothing(self, cli_fixture, tmp_path, capsys):
        doc = json.loads((cli_fixture / "kb.json").read_text())
        doc["classes"][1]["name"] = "\ud800x"  # JSON's "\ud800x" escape reads back as this
        kb = cli_fixture / "surrogate_kb.json"  # beside the fixture's kb.emb
        kb.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        argv = _with(_pipeline_args(cli_fixture, out), "--kb", kb)
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"data error: {kb}: class 1 'name' '\\ud800x' is not valid Unicode text: "
            "surrogates not allowed at character 0"
        ]
        assert list(tmp_path.iterdir()) == []

    def test_non_unit_row_in_the_embeddings_file_names_the_kb(
        self, cli_fixture, tmp_path, capsys
    ):
        kb = tmp_path / "kb.json"
        kb.write_bytes((cli_fixture / "kb.json").read_bytes())
        rows = pio.read_embeddings(cli_fixture / "kb.emb")
        rows[2 * 4 + 3] *= 2  # class 2, description 3
        pio.write_embeddings(rows, tmp_path / "kb.emb")
        assert main(_with(_pipeline_args(cli_fixture, tmp_path / "r.json"), "--kb", kb)) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"data error: {kb}: class 'class_02': embedding row 3 has norm 2.000000000, "
            "expected 1"
        ]


class TestEmbeddingsFileFaults:
    """A knowledge base whose EMB1 file is missing or does not fit it exits 2
    with one line naming the KB and, where one is named, the EMB1 file."""

    @pytest.fixture
    def kb(self, cli_fixture, tmp_path):
        for name in ("kb.json", "kb.emb"):
            (tmp_path / name).write_bytes((cli_fixture / name).read_bytes())
        return tmp_path / "kb.json"

    @staticmethod
    def _edit(kb, **fields):
        doc = json.loads(kb.read_text())
        kb.write_text(json.dumps(doc | fields))

    @pytest.mark.parametrize(
        "fault", ["missing", "not_a_string", "crc", "rows", "cols", "also_inline"]
    )
    def test_fault_is_one_data_error_line(self, cli_fixture, kb, tmp_path, capsys, fault):
        emb = tmp_path / "kb.emb"
        rows = pio.read_embeddings(emb)
        if fault == "missing":
            emb.unlink()
            expected = f"embeddings file {emb}: No such file or directory"
        elif fault == "not_a_string":
            self._edit(kb, embeddings_file=["kb.emb"])
            expected = "'embeddings_file' must be a nonempty file name, got ['kb.emb']"
        elif fault == "crc":
            blob = bytearray(emb.read_bytes())
            blob[30] ^= 0x01
            emb.write_bytes(bytes(blob))
            expected = f"embeddings file {emb}: CRC-32 mismatch at byte offset"
        elif fault == "rows":
            pio.write_embeddings(rows[:-1], emb)
            expected = f"embeddings file {emb} has 11 rows but the classes list 12 descriptions"
        elif fault == "cols":
            pio.write_embeddings(rows[:, :-1], emb)
            expected = f"embeddings file {emb} has 7 columns but 'dim' is 8"
        else:
            doc = json.loads(kb.read_text())
            doc["classes"][1]["embeddings"] = rows[4:8].tolist()
            kb.write_text(json.dumps(doc))
            expected = (
                f"class 'class_01' has inline 'embeddings' but the KB names "
                f"'embeddings_file' {emb}; give one or the other"
            )
        code = main(_with(_pipeline_args(cli_fixture, tmp_path / "r.json"), "--kb", kb))
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"data error: {kb}: {expected}")


# Every input flag of each subcommand that reads inputs and writes a file.
_READS = {
    "pipeline": ("images", "kb", "labels", "marginal"),
    "eval": ("images", "kb", "labels", "marginal"),
    "classify": ("images", "kb", "marginal"),
    "retrieve": ("images", "kb"),
    "plan": ("images", "kb", "marginal"),
    "learn": ("images", "kb", "marginal"),
    "bench-ot": ("images", "kb", "marginal"),
}
_INPUT_FILES = {
    "images": "images.emb", "kb": "kb.json", "labels": "labels.txt",
    "marginal": "marginal.json",
}


class TestOverwriteRefused:
    """An output that resolves to an input, or to the command's other output,
    exits 1 with one usage line before anything is read or written. The EMB1
    file the knowledge base names is known once the KB is read, so an output
    over it is refused then, still before anything is written."""

    @pytest.fixture
    def fx(self, cli_fixture, tmp_path):
        """Private copies of the inputs, so a refused write cannot reach the shared ones."""
        fx = tmp_path / "fx"
        fx.mkdir()
        for name in ("images.emb", "kb.json", "kb.emb", "labels.txt"):
            (fx / name).write_bytes((cli_fixture / name).read_bytes())
        (fx / "marginal.json").write_text("[1, 2, 1]\n")
        return fx

    @staticmethod
    def _args(command, fx, out, **paths):
        paths = {flag: fx / name for flag, name in _INPUT_FILES.items()} | paths
        args = [command]
        if command in ("pipeline", "eval", "classify"):
            args += ["--mode", "kpl_text"]
        for flag in _READS[command]:
            args += [f"--{flag}", paths[flag]]
        return [str(a) for a in (*args, "--out", out)]

    @staticmethod
    def _refused(argv, capsys, *flags):
        """Run ``argv``; it must exit 1 with one usage line naming every flag in ``flags``."""
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ")
        for flag in flags:
            assert f"{flag} " in err[0]

    @staticmethod
    def _snapshot(fx):
        return {path.name: path.read_bytes() for path in fx.iterdir()}

    @pytest.mark.parametrize(
        "command, flag", [(c, f) for c, flags in _READS.items() for f in flags]
    )
    def test_out_over_an_input(self, fx, capsys, command, flag):
        before = self._snapshot(fx)
        self._refused(
            self._args(command, fx, fx / _INPUT_FILES[flag]), capsys, "--out", f"--{flag}"
        )
        assert self._snapshot(fx) == before

    @pytest.mark.parametrize("command", _READS)
    def test_out_over_the_knowledge_base_embeddings_file(self, fx, capsys, command):
        before = self._snapshot(fx)
        argv = self._args(command, fx, fx / "kb.emb")
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"usage error: --out {fx / 'kb.emb'} would overwrite --kb {fx / 'kb.json'}'s "
            f"embeddings file {fx / 'kb.emb'}"
        ]
        assert self._snapshot(fx) == before

    @pytest.mark.parametrize("command", ["pipeline", "eval"])
    def test_predictions_csv_over_an_input(self, fx, capsys, command):
        (fx / "l.csv").write_bytes((fx / "labels.txt").read_bytes())
        before = self._snapshot(fx)
        argv = self._args(command, fx, fx / "l.json", labels=fx / "l.csv")
        self._refused(argv, capsys, "--out", "--labels")
        assert self._snapshot(fx) == before

    def test_dot_spelling_of_an_input(self, fx, capsys, monkeypatch):
        monkeypatch.chdir(fx.parent)
        before = self._snapshot(fx)
        argv = self._args("retrieve", Path("fx"), "./fx/../fx/./kb.json")
        self._refused(argv, capsys, "--out", "--kb")
        assert self._snapshot(fx) == before

    def test_symlink_to_an_input(self, fx, tmp_path, capsys):
        link = tmp_path / "proxies.emb"
        link.symlink_to(fx / "images.emb")
        before = self._snapshot(fx)
        self._refused(self._args("learn", fx, link), capsys, "--out", "--images")
        assert self._snapshot(fx) == before
        assert link.is_symlink()

    def test_hard_link_to_an_input(self, fx, capsys):
        link = fx / "hard.emb"
        os.link(fx / "images.emb", link)
        before = self._snapshot(fx)
        self._refused(self._args("learn", fx, link), capsys, "--out", "--images")
        assert self._snapshot(fx) == before

    def test_predictions_csv_hard_linked_to_an_input(self, fx, capsys):
        os.link(fx / "labels.txt", fx / "r.csv")
        before = self._snapshot(fx)
        self._refused(self._args("eval", fx, fx / "r.json"), capsys, "--out", "--labels")
        assert self._snapshot(fx) == before

    def test_fifo_input_still_runs(self, fx, tmp_path, capsys):
        fifo = tmp_path / "images.fifo"
        os.mkfifo(fifo)
        blob = (fx / "images.emb").read_bytes()

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(blob)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        out = tmp_path / "pred.csv"
        code = main(self._args("classify", fx, out, images=fifo))
        writer.join(timeout=10)
        assert code == 0 and not writer.is_alive()
        assert out.read_text().startswith("index,predicted_class_name\n")

    def test_symlink_loop_input_is_one_data_error_line(self, fx, tmp_path, capsys):
        loop = tmp_path / "loop.emb"
        loop.symlink_to(loop)
        assert main(self._args("classify", fx, tmp_path / "p.csv", images=loop)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: ")


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
    def test_non_finite_initial_loss_is_numeric_error(self, cli_fixture, tmp_path, capsys):
        assert self._stage(cli_fixture, tmp_path, "learn", "--tau-learn", "1e-307") == 3
        assert capsys.readouterr().err.splitlines() == [
            "numeric error: initial loss is nan (learning_rate=0.02, tau_learn=1e-307)"
        ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("algorithm", ["sinkhorn_linear", "sinkhorn_log", "stable_greenkhorn", "newton_semidual"])
    def test_denormal_tau_is_numeric_error(self, cli_fixture, tmp_path, capsys, algorithm):
        code = self._stage(
            cli_fixture, tmp_path, "plan", "--tau-ot", "1e-310", "--algorithm", algorithm
        )
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric error: m/tau overflows")

    @pytest.mark.filterwarnings("error")
    def test_capped_greedy_plan_at_tiny_tau_warns(self, cli_fixture, tmp_path, capsys):
        # exp(m/tau) overflows here, but greedy starts from the row-normalized plan,
        # so a plan capped after one update is finite and merely unconverged
        code = self._stage(
            cli_fixture, tmp_path, "plan", "--tau-ot", "0.001", "--max-iterations", "1",
            "--algorithm", "stable_greenkhorn",
        )
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("warning: stable_greenkhorn did not converge in 1 iterations")
        doc = json.loads((tmp_path / "out").read_text())
        assert doc["iterations_used"] == 1 and doc["converged"] is False
        assert 0 < doc["final_row_violation"] < 1 and 0 < doc["final_col_violation"] < 1

    @pytest.mark.filterwarnings("error")
    def test_bench_ot_reports_capped_greedy_at_tiny_tau(self, cli_fixture, tmp_path, capsys):
        code = self._stage(
            cli_fixture, tmp_path, "bench-ot", "--tau-ot", "0.001",
            "--max-iterations", "1", "--algorithm", "stable_greenkhorn",
        )
        assert code == 0
        assert capsys.readouterr().err == ""
        rows = json.loads((tmp_path / "out").read_text())
        assert rows[0]["status"] == "max_iterations" and rows[0]["iterations"] == 1


class TestBadSettingsAndData:
    """NaN and infinite settings are usage errors; bad file data is one error line
    naming its source."""

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("plan", "--tau-ot"), ("plan", "--tolerance"),
            ("learn", "--tau-learn"), ("learn", "--lr"),
            ("gen-fixture", "--separation"), ("gen-fixture", "--angle"),
            ("gen-fixture", "--offset"), ("gen-fixture", "--noise"),
            ("gen-fixture", "--name-noise"),
        ],
    )
    def test_nan_setting_is_usage_error(self, cli_fixture, tmp_path, capsys, command, flag):
        if command == "gen-fixture":
            args = ["gen-fixture", "--seed", "42"]
        else:
            args = [command, "--images", str(cli_fixture / "images.emb"),
                    "--kb", str(cli_fixture / "kb.json"), "--max-iterations", "200"]
        for value in ("nan", "inf"):
            code = main([*args, flag, value, "--out", str(tmp_path / "out")])
            assert code == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("usage error:")
            assert not (tmp_path / "out").exists()

    def test_nan_image_entry_names_the_file(self, cli_fixture, tmp_path, capsys):
        rows = pio.read_embeddings(cli_fixture / "images.emb")
        rows[3, 4] = np.nan
        images = tmp_path / "nan.emb"
        pio.write_embeddings(rows, images)
        code = main(
            ["pipeline", "--mode", "kpl_text", "--images", str(images),
             "--kb", str(cli_fixture / "kb.json"), "--out", str(tmp_path / "r.json")]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"data error: {images}: ")
        assert "(3, 4)" in err[0] and err[0].endswith(": nan")

    @pytest.mark.parametrize(
        "mode", ["clip_baseline", "description_baseline", "kpl_text", "kpl_full"]
    )
    def test_non_unit_name_embedding_fails_only_the_name_baseline(
        self, cli_fixture, tmp_path, capsys, mode
    ):
        doc = inline_kb_doc(cli_fixture / "kb.json")
        entry = doc["classes"][1]
        entry["name_embedding"] = [2.0 * v for v in entry["name_embedding"]]
        kb = tmp_path / "kb.json"
        kb.write_text(json.dumps(doc))
        code = main(
            ["pipeline", "--mode", mode, "--images", str(cli_fixture / "images.emb"),
             "--kb", str(kb), "--out", str(tmp_path / "r.json")]
        )
        err = capsys.readouterr().err.splitlines()
        if mode != "clip_baseline":
            assert code == 0
            return
        assert code == 2
        assert len(err) == 1 and err[0].startswith("data error: class 'class_01': ")
        norm = err[0].split("name embedding has norm ")[1].removesuffix(", expected 1")
        assert float(norm) == pytest.approx(2.0)


class TestSmallKnowledgeBases:
    """Knowledge bases at the edges of the proxy builders, written inline."""

    @staticmethod
    def _inputs(tmp_path, classes):
        images = tmp_path / "images.emb"
        pio.write_embeddings(np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]]), images)
        labels = tmp_path / "labels.txt"
        labels.write_text(f"{classes[-1]['name']}\n" * 3)
        kb = tmp_path / "kb.json"
        kb.write_text(json.dumps({"dim": 2, "classes": classes}))
        return ["--images", str(images), "--kb", str(kb), "--labels", str(labels)]

    # 'up' has two opposite descriptions, so their mean is the zero vector
    OPPOSITE = [
        {"name": "up", "descriptions": ["a", "b"], "embeddings": [[1.0, 0.0], [-1.0, 0.0]]},
        {"name": "down", "descriptions": ["c", "d"], "embeddings": [[0.0, 1.0], [0.6, 0.8]]},
    ]

    def test_one_class_runs_in_every_mode(self, tmp_path):
        args = self._inputs(tmp_path, [
            {"name": "only", "descriptions": ["a", "b"], "embeddings": [[0.0, 1.0], [0.6, 0.8]],
             "name_embedding": [0.0, 1.0]},
        ])
        for mode in ["clip_baseline", "description_baseline", "kpl_text", "kpl_full"]:
            out = tmp_path / f"{mode}.json"
            assert main(["eval", "--mode", mode, *args, "--k", "2", "--out", str(out)]) == 0
            assert json.loads(out.read_text())["accuracy"] == 1.0
        assert json.loads((tmp_path / "clip_baseline.json").read_text())["predictions"] == [0] * 3

    def test_retrieve_writes_no_proxies_so_a_zero_mean_passes(self, tmp_path):
        args = self._inputs(tmp_path, self.OPPOSITE)[:4]
        out = tmp_path / "r.json"
        assert main(["retrieve", *args, "--k", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [entry["selected_indices"] for entry in doc["classes"]] == [[0, 1], [1, 0]]

    @pytest.mark.parametrize(
        "mode, averaged", [("description_baseline", "descriptions"), ("kpl_text", "top-2 descriptions")]
    )
    def test_proxy_averaging_to_zero_names_its_class(self, tmp_path, capsys, mode, averaged):
        args = self._inputs(tmp_path, self.OPPOSITE)
        out = tmp_path / "e.json"
        assert main(["eval", "--mode", mode, *args, "--k", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"data error: class 'up': its {averaged} average to the zero vector"
        ]
        assert not out.exists()


_IO = ("--images", "--kb")
_RETRIEVAL = ("--k",)
_TRANSPORT = ("--algorithm", "--tau-ot", "--max-iterations", "--tolerance")
_LEARNING = ("--tau-learn", "--lr", "--momentum", "--epochs")
_CHAIN = (*_RETRIEVAL, *_TRANSPORT, *_LEARNING)
# subcommand -> (its option strings in help order, the required ones)
SUBCOMMAND_OPTIONS = {
    "pipeline": (("--mode", *_IO, "--labels", "--marginal", *_CHAIN, "--seed", "--out"),
                 {"--mode", *_IO, "--out"}),
    "eval": (("--mode", *_IO, "--labels", "--marginal", *_CHAIN, "--seed", "--out"),
             {"--mode", *_IO, "--labels", "--out"}),
    "classify": (("--mode", *_IO, "--marginal", *_CHAIN, "--out"),
                 {"--mode", *_IO, "--out"}),
    "retrieve": ((*_IO, *_RETRIEVAL, "--out"), {*_IO, "--out"}),
    "plan": ((*_IO, "--marginal", *_RETRIEVAL, *_TRANSPORT, "--out"), {*_IO, "--out"}),
    "learn": ((*_IO, "--marginal", *_CHAIN, "--out"), {*_IO, "--out"}),
    "bench-ot": ((*_IO, "--marginal", *_RETRIEVAL, *_TRANSPORT, "--out"), set(_IO)),
    "gen-fixture": (
        ("--seed", "--out", "--n", "--classes", "--dim", "--separation", "--angle",
         "--offset", "--noise", "--descriptions", "--name-noise"),
        {"--seed", "--out"},
    ),
}


class TestParserTable:
    """Which options each subcommand takes, and which it requires, stay frozen."""

    def _subparsers(self):
        (action,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        return action.choices

    def test_options_and_required_flags(self):
        got = {}
        for name, sub in self._subparsers().items():
            actions = [a for a in sub._actions if a.option_strings != ["-h", "--help"]]
            got[name] = (
                tuple(a.option_strings[0] for a in actions),
                {a.option_strings[0] for a in actions if a.required},
            )
        assert got == SUBCOMMAND_OPTIONS

    @pytest.mark.parametrize("command", ["retrieve", "plan", "learn", "bench-ot"])
    def test_stage_views_run_kpl_full(self, command):
        args = build_parser().parse_args(
            [command, "--images", "i.emb", "--kb", "kb.json", "--out", "o"]
        )
        assert args.mode == "kpl_full"

    @pytest.mark.parametrize(
        "command, flag, extra",
        [("classify", "--seed", ["--mode", "kpl_text"]), ("retrieve", "--marginal", [])],
        ids=["classify-seed", "retrieve-marginal"],
    )
    def test_flag_that_changes_no_output_is_refused(
        self, cli_fixture, tmp_path, capsys, command, flag, extra
    ):
        """classify writes no report to record a seed in; retrieve solves no transport."""
        marginal = tmp_path / "m.json"
        marginal.write_text("[1, 2, 1]\n")
        value = {"--seed": "1", "--marginal": str(marginal)}[flag]
        out = tmp_path / "out"
        code = main(
            [command, *extra, "--images", str(cli_fixture / "images.emb"),
             "--kb", str(cli_fixture / "kb.json"), flag, value, "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("usage error:")] == [
            f"usage error: unrecognized arguments: {flag} {value}"
        ]
        assert not out.exists()


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

    def test_plan_prints_the_diagnostics_it_writes(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "plan.json"
        code = main(
            ["plan", "--images", str(fixture_dir / "images.emb"),
             "--kb", str(fixture_dir / "kb.json"), "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert capsys.readouterr().out == (
            f"{doc['algorithm']}: {doc['iterations_used']} iterations, violations "
            f"({doc['final_row_violation']:.3e}, {doc['final_col_violation']:.3e}) -> {out}\n"
        )

    def test_learn_prints_the_report_learn_summary(self, fixture_dir, tmp_path, capsys):
        inputs = ["--images", str(fixture_dir / "images.emb"), "--kb", str(fixture_dir / "kb.json")]
        labels = ["--labels", str(fixture_dir / "labels.txt")]
        report = tmp_path / "report.json"
        assert main(["eval", "--mode", "kpl_full", *inputs, *labels, "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        summary = doc["learn_summary"]
        capsys.readouterr()
        out = tmp_path / "proxies.emb"
        assert main(["learn", *inputs, "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            f"learned {len(doc['class_names'])} proxies in {summary['epochs_run']} epochs "
            f"({summary['stop_reason']}, final loss {summary['final_loss']:.6g}) -> {out}\n"
        )

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
            "sinkhorn_linear", "sinkhorn_log", "stable_greenkhorn", "newton_semidual"
        ]
        assert all(r["status"] == "converged" for r in rows)


class TestGenFixture:
    def test_seed_is_required(self, tmp_path, capsys):
        assert main(["gen-fixture", "--out", str(tmp_path / "fx")]) == 1
        assert "--seed" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "fx"
        assert main(["gen-fixture", "--seed", "-1", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["usage error: seed must be a non-negative integer, got -1"]
        assert not out.exists()

    def test_writes_all_files(self, cli_fixture):
        for name in ("images.emb", "labels.txt", "kb.json", "kb.emb", "manifest.json"):
            assert (cli_fixture / name).exists()
        manifest = json.loads((cli_fixture / "manifest.json").read_text())
        assert manifest["files"]["knowledge_base_embeddings"] == "kb.emb"
        assert manifest["seed"] == 11
        assert manifest["name_noise"] == pytest.approx(0.25)

    def test_same_seed_gives_byte_identical_files(self, tmp_path):
        args = ["gen-fixture", "--seed", "5", "--n", "20", "--classes", "3",
                "--dim", "8", "--descriptions", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in ("images.emb", "labels.txt", "kb.json", "kb.emb", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_invalid_spec_rejected(self, tmp_path):
        code = main(
            ["gen-fixture", "--seed", "1", "--out", str(tmp_path / "x"),
             "--classes", "10", "--dim", "4"]
        )
        assert code == 1

    @pytest.mark.parametrize("flag, setting", [
        ("--offset", "offset"), ("--noise", "noise"), ("--name-noise", "name_noise"),
    ])
    def test_setting_too_large_for_its_draw_is_usage_error(
        self, tmp_path, capsys, flag, setting
    ):
        out = tmp_path / "x"
        assert main(["gen-fixture", "--seed", "1", "--out", str(out), flag, "1e308"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"usage error: {setting} is too large: its fixture draw is not finite"
        ]
        assert not out.exists()

    # Each size fails at once on any 64-bit machine: numpy cannot index it, or
    # it asks for more bytes than a 64-bit address space holds.
    @pytest.mark.parametrize("sizes, reason", [
        (["--n", str(10**18)], "are more than numpy can index"),
        (["--dim", str(10**17)], "are more than numpy can index"),
        (["--classes", str(10**10), "--dim", str(10**10)], "are more than numpy can index"),
        (["--n", str(10**20)], "are more than numpy can index"),
        (["--descriptions", str(10**17)], "are more than numpy can index"),
        (["--n", str(10**17), "--classes", "2", "--dim", "2"], "do not fit in memory"),
    ])
    def test_oversized_fixture_is_usage_error(self, tmp_path, capsys, sizes, reason):
        out = tmp_path / "x"
        assert main(["gen-fixture", "--seed", "1", "--out", str(out), *sizes]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ")
        assert reason in err[0]
        for value in sizes[1::2]:
            assert value in err[0]
        assert not out.exists()

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
        # No single update or sweep of the default solver meets a tolerance of 0 here.
        # At --tau-ot 0.05 the pseudo-labels are soft enough that one epoch moves the
        # loss by more than loss_tolerance; at the default 0.01 one epoch does not.
        extra = ["--max-iterations", "1", "--tolerance", "0", "--tau-ot", "0.05"]
        extra += ["--epochs", "1"] if command != "plan" else []
        assert main(self._args(cli_fixture, tmp_path, command, extra)) == 0
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == solver_line + learner_line
        if solver_line:
            algorithm = SolverConfig().algorithm
            assert err[0].startswith(f"warning: {algorithm} did not converge in 1 iterations")
            assert "violations (" in err[0] and err[0].endswith(", tolerance 0")
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

    def test_rising_loss_runs_to_the_cap(self, cli_fixture, tmp_path, capsys):
        """At --lr 5 the first step overshoots and the loss rises; that is no stop."""
        assert main(self._args(cli_fixture, tmp_path, "learn", ["--lr", "5"])) == 0
        captured = capsys.readouterr()
        assert "500 epochs (max_epochs," in captured.out
        assert captured.err.splitlines() == ["warning: learning stopped at its cap of 500 epochs"]

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

    def test_greedy_start_within_tolerance_makes_no_update(
        self, fixture_dir, tmp_path, capsys
    ):
        """A tolerance the row-normalized start already meets stops greedy before
        its first update, with every row at 1/300 to rounding."""
        extra = ["--algorithm", "stable_greenkhorn", "--tolerance", "1e300"]
        assert main(self._args(fixture_dir, tmp_path, "plan", extra)) == 0
        doc = json.loads((tmp_path / "out").read_text())
        assert doc["iterations_used"] == 0
        assert 0 <= doc["final_row_violation"] <= 1e-14  # rounding alone: 3e-12 of 1/300
        assert 0 < doc["final_col_violation"] < 1
        assert capsys.readouterr().err == ""


FIXTURE_FLOAT_FLAGS = ["--separation", "--angle", "--offset", "--noise", "--name-noise"]

# any float, plus the infinite, NaN and huge values a random draw rarely hits
SETTING_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 1.7e308, 1e300, 0.0]),
)


class TestFixtureSettingsProperty:
    """Any value of gen-fixture's float settings either writes the fixture or is
    one usage error line: never a data error, a traceback or a leaked warning."""

    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.fixed_dictionaries({}, optional=dict.fromkeys(FIXTURE_FLOAT_FLAGS, SETTING_VALUES)))
    def test_writes_fixture_or_exits_one(self, capsys, values):
        capsys.readouterr()
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "fx"
            args = ["gen-fixture", "--seed", "3", "--out", str(out), "--n", "12",
                    "--classes", "3", "--dim", "6", "--descriptions", "2"]
            for flag, value in values.items():
                args.append(f"{flag}={value!r}")
            code = main(args)
            captured = capsys.readouterr()
            if code == 0:
                assert (out / "manifest.json").exists()
                assert captured.err == ""
            else:
                assert code == 1
                err = captured.err.splitlines()
                assert len(err) == 1 and err[0].startswith("usage error:")
                assert not out.exists()
