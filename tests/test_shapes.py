"""Every public function, given empty or small shapes, returns or raises a ProxyOTError.

N images, K classes and d dimensions are each drawn from {0, 1, 3}, so each
function meets empty, single and several lines on every axis. A bare numpy or
Python exception there is an error a caller cannot catch as ``ProxyOTError``.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxyot import (
    ALGORITHMS,
    ClassMarginal,
    LearnConfig,
    ProxyOTError,
    ProxyWeights,
    PseudoLabels,
    SolverConfig,
    TransportPlan,
    UsageError,
    accuracy,
    classify,
    entropic_objective,
    l2_normalize_rows,
    learn,
    mean_image_feature,
    name_proxies,
    pseudo_labels,
    solve,
    top_k,
)

SIZES = st.sampled_from([0, 1, 3])


def _rows(rng, n, d):
    """n x d Gaussian rows, scaled to unit norm when d > 0."""
    m = rng.standard_normal((n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True) if d else m


def _calls(n, k, d, algorithm):
    """Each public function on inputs of N = n images, K = k classes and d dimensions."""
    rng = np.random.default_rng(0)
    images, proxies, names = _rows(rng, n, d), _rows(rng, k, d), _rows(rng, k, d)
    m = images @ proxies.T
    p = np.full((n, k), 1.0 / max(k, 1))
    plan = TransportPlan(np.log(p), 1, 0.0, 0.0, True)
    # a marginal of at least one class, so solve meets an N x 0 matrix itself;
    # a capped solve ends unconverged on 3 x 3, which is still a return
    q = ClassMarginal.uniform(max(k, 1))
    return {
        "ProxyWeights": lambda: ProxyWeights(proxies),
        "PseudoLabels": lambda: PseudoLabels(p),
        "classify": lambda: classify(images, ProxyWeights(proxies)),
        "solve": lambda: solve(m, SolverConfig(algorithm=algorithm, max_iterations=200), q),
        "pseudo_labels": lambda: pseudo_labels(plan),
        "entropic_objective": lambda: entropic_objective(plan, m, 0.01),
        "l2_normalize_rows": lambda: l2_normalize_rows(images),
        "mean_image_feature": lambda: mean_image_feature(images),
        "name_proxies": lambda: name_proxies(names),
        "learn": lambda: learn(
            images, PseudoLabels(p), ProxyWeights(proxies), LearnConfig(max_epochs=2)
        ),
        "accuracy": lambda: accuracy(np.zeros(n, dtype=int), np.zeros(n, dtype=int)),
        "top_k": lambda: top_k(np.zeros(n), k),
    }


@pytest.mark.parametrize("name", list(_calls(1, 1, 1, ALGORITHMS[0])))
@settings(max_examples=60, deadline=None)
@given(n=SIZES, k=SIZES, d=SIZES, algorithm=st.sampled_from(ALGORITHMS))
def test_returns_or_raises_a_proxyot_error(name, n, k, d, algorithm):
    try:
        _calls(n, k, d, algorithm)[name]()
    except ProxyOTError:
        pass


def test_proxy_weights_without_rows_is_a_usage_error():
    with pytest.raises(UsageError, match="^proxy weights has no rows"):
        ProxyWeights(np.zeros((0, 3)))


@pytest.mark.parametrize("shape", [(3, 0), (0, 0)])
def test_plan_without_class_columns_is_a_usage_error(shape):
    plan = TransportPlan(np.zeros(shape), 1, 0.0, 0.0, True)
    with pytest.raises(UsageError, match=re.escape(f"plan of shape {shape} has no class")):
        pseudo_labels(plan)
