"""The public stage functions reject a non-finite input entry wherever it sits.

Each raises DataError naming the entry's (row, column) and value. These tests
pin that contract at the API boundary, so a change that moves or drops a
scan of the inputs still has to give every caller the same error.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_kb, unit_rows
from proxyot.errors import DataError
from proxyot.learner import LearnConfig, ProxyWeights, classify, learn
from proxyot.numerics import _BLOCK_ROWS
from proxyot.retrieval import mean_image_feature, name_proxies, retrieve
from proxyot.solvers import (
    ALGORITHMS,
    ClassMarginal,
    PseudoLabels,
    SolverConfig,
    entropic_objective,
    solve,
)

BOUNDED = settings(max_examples=40, deadline=None)


@st.composite
def poisoned(draw, min_rows=1):
    """A matrix of unit rows, a copy with one non-finite entry, and that entry.

    Some draws have more rows than one block of the whole-matrix checks, and
    the last row is drawn often, so the entry also sits past the first block.
    """
    n = draw(st.integers(min_rows, 12) | st.just(_BLOCK_ROWS + 2))
    d = draw(st.integers(2, 5))
    clean = unit_rows(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), (n, d))
    i = draw(st.just(n - 1) | st.integers(0, n - 1))
    j = draw(st.integers(0, d - 1))
    value = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    bad = clean.copy()
    bad[i, j] = value
    return clean, bad, (i, j, value)


def assert_rejects(call, entry):
    i, j, value = entry
    with pytest.raises(DataError, match=rf"non-finite entry at \({i}, {j}\): {value}$"):
        call()


def _learning_inputs(clean):
    """Uniform pseudo-labels over 3 classes and unit proxies of the images' dim."""
    n, d = clean.shape
    w = ProxyWeights(unit_rows(np.random.default_rng(0), (3, d)))
    return PseudoLabels(np.full((n, 3), 1.0 / 3)), w


@BOUNDED
@given(case=poisoned())
def test_retrieve_and_mean_image_feature(case):
    clean, bad, entry = case
    kb = make_kb(np.random.default_rng(1), n_classes=2, n_descriptions=2, dim=clean.shape[1])
    assert_rejects(lambda: retrieve(bad, kb, 1), entry)
    assert_rejects(lambda: mean_image_feature(bad), entry)


@BOUNDED
@given(case=poisoned())
def test_learn_loss_and_gradient(case):
    clean, bad, entry = case
    labels, w = _learning_inputs(clean)
    assert_rejects(lambda: learn(bad, labels, w, LearnConfig(max_epochs=1)), entry)


@BOUNDED
@given(case=poisoned())
def test_classify(case):
    clean, bad, entry = case
    _, w = _learning_inputs(clean)
    assert_rejects(lambda: classify(bad, w), entry)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@BOUNDED
@given(case=poisoned())
def test_solve(algorithm, case):
    clean, bad, entry = case
    cfg = SolverConfig(tau_ot=1.0, max_iterations=1, algorithm=algorithm)
    assert_rejects(lambda: solve(bad, cfg, ClassMarginal.uniform(clean.shape[1])), entry)


@BOUNDED
@given(case=poisoned())
def test_entropic_objective(case):
    clean, bad, entry = case
    cfg = SolverConfig(tau_ot=1.0, max_iterations=1)
    plan = solve(clean, cfg, ClassMarginal.uniform(clean.shape[1]))
    assert_rejects(lambda: entropic_objective(plan, bad, 1.0), entry)


@BOUNDED
@given(case=poisoned(min_rows=2))
def test_name_proxies(case):
    _, bad, entry = case
    assert_rejects(lambda: name_proxies(bad), entry)
