"""The output comparison tool: its matrix, its masking, and the work directory it removes."""

import importlib.util
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "tools" / "compare_outputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_matrix_has_56_uniquely_labelled_invocations(tool):
    labels = [label for label, _ in tool.matrix(Path("fx"))]
    assert len(labels) == 56
    assert len(set(labels)) == len(labels)


def test_masked_replaces_the_output_directory_and_timings(tool):
    out = Path("/work/old/07")
    data = (
        b'[{"algorithm": "sinkhorn_log", "wall_time_s": 1.25e-05, "out": "/work/old/07/b.json"}]\n'
        b"sinkhorn_log: converged after 44 iterations, objective 0.5, 12.3 ms\n"
        b"written to /work/old/07/b.json\n"
    )
    assert tool.masked(data, out) == (
        b'[{"algorithm": "sinkhorn_log", "wall_time_s": <s>, "out": "<OUT>/b.json"}]\n'
        b"sinkhorn_log: converged after 44 iterations, objective 0.5, <ms> ms\n"
        b"written to <OUT>/b.json\n"
    )


def test_main_removes_its_work_directory(tool, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(tool, "FIXTURES", {"fx": (1, ["--n", "20", "--classes", "2", "--dim", "4"])})

    def one_eval(fixtures):
        fx = fixtures / "fx"
        return [("fx eval kpl_text", [
            "eval", "--mode", "kpl_text", "--images", str(fx / "images.emb"),
            "--kb", str(fx / "kb.json"), "--labels", str(fx / "labels.txt"),
            "--out", "{out}/report.json",
        ])]

    monkeypatch.setattr(tool, "matrix", one_eval)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    src = str(ROOT / "src")
    assert tool.main([src, src]) == 0
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().out == "1 invocations a side, 0 with differences\n"
