"""Each error a caller can meet, by its class and its whole message.

The other test files reach most raises in passing; these are the ones they
do not. Raises the CLI can reach are driven through ``main``, which must map
them to their exit code and one stderr line.
"""

import json
import math
import re

import numpy as np
import pytest

from conftest import inline_kb_doc, make_kb, unit_rows
from proxyot import io as pio
from proxyot.cli import main
from proxyot.errors import DataError, UsageError
from proxyot.learner import LearnConfig, ProxyWeights, classify, learn
from proxyot.numerics import as_matrix, as_vector
from proxyot.retrieval import ClassRecord, RetrievalResult, build_text_proxies, retrieve
from proxyot.solvers import (
    ALGORITHMS,
    ClassMarginal,
    PseudoLabels,
    SolverConfig,
    entropic_objective,
    solve,
)

RNG = np.random.default_rng(0)
IMAGES = unit_rows(RNG, (5, 4))
PROXIES = ProxyWeights(unit_rows(RNG, (3, 4)))
LABELS = PseudoLabels(np.full((5, 3), 1.0 / 3))


def _raises(exc, message):
    return pytest.raises(exc, match=f"^{re.escape(message)}$")


def _objective_of_a_wider_matrix():
    plan = solve(IMAGES @ PROXIES.w.T, SolverConfig(), ClassMarginal.uniform(3))
    entropic_objective(plan, np.zeros((5, 4)), 1.0)


def _proxies_for_one_class_of_three():
    kb = make_kb(np.random.default_rng(1), n_classes=3, n_descriptions=2, dim=4)
    selection = retrieve(IMAGES, kb, 1)
    build_text_proxies(kb, RetrievalResult(selection.selected[:1], selection.scores[:1], 1))


LIBRARY_RAISES = {
    "retrieval result class counts differ": (
        lambda: RetrievalResult((np.array([0]),), (), 1),
        UsageError, "selection and score lists differ in class count",
    ),
    "retrieval result size is not k": (
        lambda: RetrievalResult((np.array([0, 1]),), (np.array([1.0, 0.0]),), 1),
        UsageError, "class 0: selection size differs from k=1",
    ),
    "retrieval result repeats an index": (
        lambda: RetrievalResult((np.array([1, 1]),), (np.array([1.0, 0.0]),), 2),
        UsageError, "class 0: selected indices are not distinct",
    ),
    "retrieval result scores rise": (
        lambda: RetrievalResult((np.array([0, 1]),), (np.array([0.0, 1.0]),), 2),
        UsageError, "class 0: scores are not sorted non-increasing",
    ),
    "marginal weights are 2-D": (
        lambda: ClassMarginal(np.full((2, 2), 0.25)),
        UsageError, "class marginal must be a nonempty vector",
    ),
    "marginal weight is not finite": (
        lambda: ClassMarginal([math.inf, 1.0]),
        DataError, "class marginal has a non-finite entry",
    ),
    "uniform marginal over no class": (
        lambda: ClassMarginal.uniform(0),
        UsageError, "marginal needs at least one class, got 0",
    ),
    "pseudo-label is negative": (
        lambda: PseudoLabels([[1.5, -0.5]]),
        DataError, "pseudo-labels contain a negative entry",
    ),
    "objective of a matrix of another shape": (
        _objective_of_a_wider_matrix,
        UsageError, "matrix shape (5, 4) does not match plan (5, 3)",
    ),
    "classify images of another dim": (
        lambda: classify(IMAGES[:, :3], PROXIES),
        UsageError, "images have dim 3 but proxies have dim 4",
    ),
    "learn from images of another dim": (
        lambda: learn(IMAGES[:, :3], LABELS, PROXIES, LearnConfig(max_epochs=1)),
        UsageError, "images have dim 3 but proxies have dim 4",
    ),
    "learn from non-finite images of another dim": (  # shapes are checked first
        lambda: learn(np.full((5, 3), math.nan), LABELS, PROXIES, LearnConfig(max_epochs=1)),
        UsageError, "images have dim 3 but proxies have dim 4",
    ),
    "learn from labels of another shape": (
        lambda: learn(IMAGES, PseudoLabels(np.full((5, 2), 0.5)), PROXIES, LearnConfig()),
        UsageError, "labels shape (5, 2) does not match 5 images x 3 classes",
    ),
    "text proxies from a selection of fewer classes": (
        _proxies_for_one_class_of_three,
        UsageError, "selection covers 1 classes, knowledge base has 3",
    ),
    "class name embedding of another dim": (
        lambda: ClassRecord("c", ("a",), IMAGES[:1], np.ones(3)),
        DataError, "class 'c': name embedding has dim 3, expected 4",
    ),
    "matrix is 1-D": (
        lambda: as_matrix(np.ones(3), "m"),
        UsageError, "m must be 2-D, got 1-D",
    ),
    "vector is 2-D": (
        lambda: as_vector(np.ones((1, 3)), "v"),
        UsageError, "v must be 1-D, got 2-D",
    ),
}


@pytest.mark.parametrize("case", LIBRARY_RAISES)
def test_library_raise(case):
    call, exc, message = LIBRARY_RAISES[case]
    with _raises(exc, message):
        call()


def test_write_embeddings_of_a_vector(tmp_path):
    path = tmp_path / "v.emb"
    with _raises(UsageError, "embedding matrix must be 2-D, got 1-D"):
        pio.write_embeddings(np.ones(3), path)
    assert not path.exists()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("entry", [0.0, math.nan])
def test_solve_with_a_marginal_of_another_length(algorithm, entry):
    # the shapes are checked before the values, so a NaN does not change the error
    m = np.zeros((4, 2))
    m[1, 1] = entry
    with _raises(UsageError, "marginal length 3 does not match 2 columns"):
        solve(m, SolverConfig(algorithm=algorithm), ClassMarginal.uniform(3))


@pytest.mark.parametrize("flag, value, message", [
    ("--n", "0", "need at least one image, got 0"),
    ("--classes", "1", "need at least two classes, got 1"),
    ("--descriptions", "0", "each class needs at least one description"),
])
def test_gen_fixture_size_below_its_floor(tmp_path, capsys, flag, value, message):
    out = tmp_path / "fx"
    assert main(["gen-fixture", "--seed", "1", "--out", str(out), flag, value]) == 1
    assert capsys.readouterr().err.splitlines() == [f"usage error: {message}"]
    assert not out.exists()


@pytest.fixture(scope="module")
def small_fixture(tmp_path_factory):
    out = tmp_path_factory.mktemp("raises")
    args = ["--n", "20", "--classes", "3", "--dim", "8", "--descriptions", "3"]
    assert main(["gen-fixture", "--seed", "1", "--out", str(out), *args]) == 0
    return out


def _eval(fx, kb, out, *extra):
    return main(["eval", "--mode", "kpl_text", "--images", str(fx / "images.emb"),
                 "--kb", str(kb), "--labels", str(fx / "labels.txt"),
                 "--out", str(out), *extra])


def test_k_below_one(small_fixture, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert _eval(small_fixture, small_fixture / "kb.json", out, "--k", "0") == 1
    assert capsys.readouterr().err.splitlines() == ["usage error: k must be >= 1, got 0"]
    assert not out.exists()


def _not_an_object(doc):
    doc["classes"][1] = ["class_01"]


def _description_not_a_string(doc):
    doc["classes"][1]["descriptions"][0] = 3


def _no_name(doc):
    del doc["classes"][1]["name"]


def _name_embedding_too_short(doc):
    doc["classes"][1]["name_embedding"].pop()


def _no_classes(doc):
    doc["classes"] = []


@pytest.mark.parametrize("fault, message", [
    (_not_an_object, "class 1 must be an object"),
    (_description_not_a_string, "class 'class_01' needs a list of description strings"),
    (_no_name, "class 1 has no usable 'name'"),
    (_name_embedding_too_short, "class 'class_01': name embedding has dim 7, expected 8"),
    (_no_classes, "knowledge base has no classes"),
])
def test_malformed_knowledge_base_class(small_fixture, tmp_path, capsys, fault, message):
    doc = inline_kb_doc(small_fixture / "kb.json")
    fault(doc)
    kb = tmp_path / "kb.json"
    kb.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert _eval(small_fixture, kb, out) == 2
    assert capsys.readouterr().err.splitlines() == [f"data error: {kb}: {message}"]
    assert not out.exists()
