import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import inline_kb_doc
from proxyot import io as pio
from proxyot.cli import main
from proxyot.errors import DataError, UsageError
from proxyot.fixture import FixtureSpec, generate_fixture, write_fixture
from proxyot.learner import LearnConfig
from proxyot import pipeline
from proxyot.pipeline import RunSpec, accuracy, bench_solvers, load, run
from proxyot.solvers import ClassMarginal, SolverConfig

FAST_SOLVER = SolverConfig(tau_ot=0.05, max_iterations=20_000, tolerance=1e-6)


@pytest.fixture(scope="module")
def small_fixture(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    spec = FixtureSpec(
        n_images=40, n_classes=3, dim=8, descriptions_per_class=4, separation=3.0
    )
    write_fixture(generate_fixture(3, spec), out)
    return out


def _spec(small_fixture, mode, **kwargs):
    kwargs.setdefault("solver", FAST_SOLVER)
    kwargs.setdefault("labels", small_fixture / "labels.txt")
    return RunSpec(
        mode=mode,
        images=small_fixture / "images.emb",
        kb=small_fixture / "kb.json",
        **kwargs,
    )


class TestAccuracy:
    def test_identical_vectors(self):
        overall, per_class = accuracy([0, 1, 2], [0, 1, 2])
        assert overall == 1.0
        assert per_class == {0: 1.0, 1: 1.0, 2: 1.0}

    def test_disjoint_vectors(self):
        overall, _ = accuracy([1, 1, 1], [0, 0, 0])
        assert overall == 0.0

    def test_partial_match(self):
        overall, per_class = accuracy([0, 1, 1, 0], [0, 1, 0, 0])
        assert overall == 0.75
        assert per_class == {0: pytest.approx(2 / 3), 1: 1.0}

    def test_length_mismatch_rejected(self):
        with pytest.raises(UsageError):
            accuracy([0, 1], [0])

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            accuracy([], [])

    def test_negative_gold_label_rejected(self):
        with pytest.raises(UsageError, match="gold label -1 is negative"):
            accuracy([0, 0], [0, -1])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_the_per_class_mean(self, data):
        # gold over k classes, predictions over a range that may miss some of
        # them or name classes gold never holds; k = 1 is a single class
        k = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, 40))
        gold = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        lo, hi = sorted(data.draw(st.lists(st.integers(0, k + 2), min_size=2, max_size=2)))
        pred = data.draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))
        overall, per_class = accuracy(pred, gold)
        assert overall == sum(p == g for p, g in zip(pred, gold)) / n
        want = {}
        for c in sorted(set(gold)):
            mine = [p for p, g in zip(pred, gold) if g == c]
            want[c] = sum(p == c for p in mine) / len(mine)
        assert per_class == want
        assert list(per_class) == list(want)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_bit_equal_to_the_float_weighted_count(self, data):
        # the counting of float64 weights that integer hit counts replaced,
        # frozen; gold skips some class indices below its largest, and one
        # class present in gold is never predicted right
        k = data.draw(st.integers(2, 8))
        present = data.draw(
            st.lists(st.integers(0, k - 1), min_size=1, max_size=k - 1, unique=True)
        )
        n = data.draw(st.integers(1, 200))
        gold = np.array(data.draw(st.lists(st.sampled_from(present), min_size=n, max_size=n)))
        pred = np.array(data.draw(st.lists(st.integers(0, k), min_size=n, max_size=n)))
        missed = gold[data.draw(st.integers(0, n - 1))]
        pred[(gold == missed) & (pred == missed)] = missed + 1
        counts = np.bincount(gold)
        hits = np.bincount(gold, weights=pred == gold)
        want = float(np.mean(pred == gold)), {
            int(c): float(hits[c] / counts[c]) for c in np.flatnonzero(counts)
        }
        got = accuracy(pred, gold)
        assert got[1][int(missed)] == 0.0
        assert got == want  # float ==, which no two distinct finite nonzero bit patterns pass
        assert list(got[1]) == list(want[1])

    def test_labeled_eval_imports_no_numpy_submodule(self, small_fixture, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        # numpy may load some submodules lazily (numpy.ma on first np.unique);
        # a labeled eval should pay for none of them inside cli.main
        script = (
            "import sys\n"
            "from proxyot.cli import main\n"
            "before = set(sys.modules)\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'numpy'))\n"
        )
        for mode in ("kpl_text", "kpl_full"):
            proc = subprocess.run(
                [sys.executable, "-c", script, "eval", "--mode", mode,
                 "--images", str(small_fixture / "images.emb"),
                 "--kb", str(small_fixture / "kb.json"),
                 "--labels", str(small_fixture / "labels.txt"),
                 "--out", str(tmp_path / f"{mode}.json")],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.splitlines()[-1] == "[]", mode


class TestRunModes:
    def test_all_modes_produce_reports(self, small_fixture):
        for mode in ("clip_baseline", "description_baseline", "kpl_text", "kpl_full"):
            report = run(_spec(small_fixture, mode))
            assert report["mode"] == mode
            assert len(report["predictions"]) == 40
            assert 0.0 <= report["accuracy"] <= 1.0
            assert set(report["per_class_accuracy"]) == set(report["class_names"])

    def test_solver_and_learn_diagnostics_only_for_full_mode(self, small_fixture):
        text = run(_spec(small_fixture, "kpl_text"))
        assert text["solver_diagnostics"] is None and text["learn_summary"] is None
        full = run(_spec(small_fixture, "kpl_full"))
        assert full["solver_diagnostics"]["algorithm"] == "newton_semidual"
        assert full["learn_summary"]["epochs_run"] >= 1

    def test_zero_learning_rate_degenerates_to_text_mode(self, small_fixture):
        text = run(_spec(small_fixture, "kpl_text"))
        frozen = run(
            _spec(
                small_fixture,
                "kpl_full",
                learn=LearnConfig(learning_rate=0.0, momentum=0.0),
            )
        )
        assert frozen["predictions"] == text["predictions"]

    def test_gold_labels_optional(self, small_fixture):
        spec = RunSpec(
            mode="kpl_text",
            images=small_fixture / "images.emb",
            kb=small_fixture / "kb.json",
            solver=FAST_SOLVER,
        )
        report = run(spec)
        assert report["accuracy"] is None
        assert report["per_class_accuracy"] is None
        assert len(report["predictions"]) == 40

    def test_marginal_file_is_honored(self, small_fixture, tmp_path):
        marg = tmp_path / "q.json"
        marg.write_text("[1, 1, 1]")
        report = run(_spec(small_fixture, "kpl_full", marginal=marg))
        assert report["config"]["marginal"] == str(marg)

    def test_unknown_mode_rejected(self, small_fixture):
        with pytest.raises(UsageError):
            RunSpec(mode="zero_shot", images="x", kb="y")

    def test_report_records_every_resolved_value(self, small_fixture):
        report = run(_spec(small_fixture, "kpl_full"))
        cfg = report["config"]
        assert cfg["k"] == 3
        assert cfg["marginal"] == "uniform"
        assert cfg["solver"]["algorithm"] == "newton_semidual"
        assert cfg["learn"]["momentum"] == 0.5
        assert cfg["normalize_images"] is True

    @pytest.mark.parametrize("mode", ["clip_baseline", "description_baseline", "kpl_text"])
    def test_modes_that_never_solve_echo_no_solver_or_learner(self, small_fixture, mode):
        cfg = run(_spec(small_fixture, mode))["config"]
        assert cfg["solver"] is None and cfg["learn"] is None
        assert cfg["k"] == 3 and cfg["marginal"] == "uniform"

    def test_identical_runs_give_identical_reports(self, small_fixture):
        a = run(_spec(small_fixture, "kpl_full"))
        b = run(_spec(small_fixture, "kpl_full"))
        assert json.dumps(a) == json.dumps(b)


    @pytest.mark.parametrize("mode", pipeline.MODES)
    def test_run_returns_the_report_eval_writes(self, fixture_dir, tmp_path, mode):
        files = {flag: str(fixture_dir / name) for flag, name in
                 (("images", "images.emb"), ("kb", "kb.json"), ("labels", "labels.txt"))}
        returned, written = tmp_path / "run.json", tmp_path / "eval.json"
        pio.write_report(run(RunSpec(mode=mode, **files)), returned)
        flags = [arg for flag, path in files.items() for arg in (f"--{flag}", path)]
        assert main(["eval", "--mode", mode, *flags, "--out", str(written)]) == 0
        assert returned.read_bytes() == written.read_bytes()

class TestDefaultConfiguration:
    @pytest.mark.parametrize("seed", [42, 7])
    def test_default_solver_converges_on_default_fixture(self, tmp_path, seed):
        write_fixture(generate_fixture(seed, FixtureSpec()), tmp_path)
        spec = RunSpec(mode="kpl_full", images=tmp_path / "images.emb", kb=tmp_path / "kb.json")
        assert run(spec)["solver_diagnostics"]["converged"] is True


class TestRunErrors:
    def test_dimension_mismatch_names_both_files(self, small_fixture, tmp_path):
        from proxyot import io as pio

        bad = tmp_path / "bad.emb"
        pio.write_embeddings(np.eye(4), bad)
        spec = RunSpec(mode="kpl_text", images=bad, kb=small_fixture / "kb.json")
        with pytest.raises(DataError, match="dim 4.*dim 8"):
            run(spec)

    def test_marginal_length_mismatch(self, small_fixture, tmp_path):
        marg = tmp_path / "q.json"
        marg.write_text("[0.5, 0.5]")
        with pytest.raises(DataError, match="2 entries"):
            run(_spec(small_fixture, "kpl_full", marginal=marg))

    def test_clip_mode_without_name_embeddings(self, small_fixture, tmp_path):
        doc = inline_kb_doc(small_fixture / "kb.json")
        for entry in doc["classes"]:
            entry.pop("name_embedding", None)
        stripped = tmp_path / "stripped.json"
        stripped.write_text(json.dumps(doc))
        spec = RunSpec(
            mode="clip_baseline", images=small_fixture / "images.emb", kb=stripped
        )
        with pytest.raises(DataError, match="name embeddings"):
            run(spec)

    def test_label_count_mismatch(self, small_fixture, tmp_path):
        short = tmp_path / "short.txt"
        short.write_text("0\n1\n")
        with pytest.raises(DataError, match="2 labels"):
            run(_spec(small_fixture, "kpl_text", labels=short))

    def test_bad_labels_fail_before_the_solve(self, small_fixture, tmp_path, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solve ran before the labels were checked")

        monkeypatch.setattr(pipeline, "solve", no_solve)
        short = tmp_path / "short.txt"
        short.write_text("0\n1\n")
        with pytest.raises(DataError, match="2 labels"):
            run(_spec(small_fixture, "kpl_full", labels=short))


class TestLoad:
    def test_inputs_are_validated_and_normalized(self, small_fixture):
        inputs = load(_spec(small_fixture, "kpl_full"))
        assert inputs.images.shape == (40, 8)
        np.testing.assert_allclose(np.linalg.norm(inputs.images, axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(inputs.marginal.q, np.full(3, 1 / 3))
        assert inputs.gold.shape == (40,)

    def test_labels_are_optional(self, small_fixture):
        assert load(_spec(small_fixture, "kpl_text", labels=None)).gold is None


class TestRelabelingEquivariance:
    def test_baseline_predictions_permute_with_classes(self, small_fixture, tmp_path):
        doc = inline_kb_doc(small_fixture / "kb.json")
        perm = [2, 0, 1]
        permuted = dict(doc, classes=[doc["classes"][j] for j in perm])
        kb2 = tmp_path / "permuted.json"
        kb2.write_text(json.dumps(permuted))
        inverse = np.argsort(perm)
        for mode in ("clip_baseline", "description_baseline"):
            base = run(
                RunSpec(mode=mode, images=small_fixture / "images.emb",
                        kb=small_fixture / "kb.json")
            )["predictions"]
            moved = run(
                RunSpec(mode=mode, images=small_fixture / "images.emb", kb=kb2)
            )["predictions"]
            np.testing.assert_array_equal(moved, inverse[base])


class TestBenchSolvers:
    def test_benign_instance_reaches_tolerance_and_agrees(self):
        rng = np.random.default_rng(20250808)
        m = rng.uniform(-1, 1, size=(12, 4))
        q = ClassMarginal.uniform(4)
        configs = [
            SolverConfig(tau_ot=0.1, max_iterations=400_000, tolerance=1e-9, algorithm=a)
            for a in ("sinkhorn_linear", "sinkhorn_log", "stable_greenkhorn", "newton_semidual")
        ]
        rows = bench_solvers(m, q, configs)
        assert [r["status"] for r in rows] == ["converged"] * 4
        assert all(
            r["final_row_violation"] <= 1e-6 and r["final_col_violation"] <= 1e-6
            for r in rows
        )
        objectives = [r["objective"] for r in rows]
        assert max(objectives) - min(objectives) <= 1e-8

    def test_empty_config_list_gives_empty_table(self):
        rows = bench_solvers(np.zeros((2, 2)), ClassMarginal.uniform(2), [])
        assert rows == []

    def test_overflow_recorded_while_stable_solvers_finish(self):
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        q = ClassMarginal.uniform(2)
        configs = [
            SolverConfig(tau_ot=1e-3, max_iterations=5_000, tolerance=1e-6, algorithm=a)
            for a in ("sinkhorn_linear", "sinkhorn_log", "stable_greenkhorn", "newton_semidual")
        ]
        rows = bench_solvers(m, q, configs)
        assert rows[0]["status"] == "numeric_overflow"
        assert "sinkhorn_log" in rows[0]["error"]
        assert rows[1]["status"] == "converged"
        assert rows[2]["status"] == "converged"
        assert rows[3]["status"] == "converged"
