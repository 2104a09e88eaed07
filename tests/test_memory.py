"""Memory bounds: ingest holds the images once from file to prediction, and
learning holds about one N x K array beside its inputs.

Peaks come from ``tracemalloc``, which sees numpy's array buffers, and count
only what the measured call allocates.
"""

import json
import tracemalloc

import numpy as np
import pytest

from conftest import unit_rows

from proxyot import io as pio
from proxyot.learner import LearnConfig, ProxyWeights, classify, learn
from proxyot.pipeline import RunSpec, load
from proxyot.solvers import PseudoLabels

N, D = 40000, 128


def _peak_bytes(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dtype, bound", [("binary64", 1.3), ("binary32", 1.6)])
def test_load_holds_the_images_once(tmp_path, dtype, bound):
    """Read, check and normalize in one array; binary32 widens by one copy."""
    images = tmp_path / "images.emb"
    pio.write_embeddings(np.random.default_rng(0).standard_normal((N, D)), images, dtype)
    kb = tmp_path / "kb.json"
    eye = np.eye(D)
    kb.write_text(json.dumps({"dim": D, "classes": [
        {"name": f"c{j}", "descriptions": ["x"], "embeddings": [eye[j].tolist()]}
        for j in range(2)
    ]}))
    payload = N * D * 8  # the float64 matrix load returns
    peak = _peak_bytes(load, RunSpec(mode="kpl_text", images=images, kb=kb))
    assert peak <= bound * payload, f"peak {peak / payload:.2f}x the float64 payload"


def test_classify_peak_does_not_grow_with_the_images():
    """Logits are taken a block of rows at a time, never N x K at once."""
    rng = np.random.default_rng(1)
    images = unit_rows(rng, (2 * N, 64))
    w = ProxyWeights(unit_rows(rng, (128, 64)))
    half = _peak_bytes(classify, images[:N], w)
    full = _peak_bytes(classify, images, w)
    assert abs(full - half) <= 0.1 * half, f"peak {half} bytes at {N} rows, {full} at {2 * N}"


def test_learn_peak_is_bounded_in_logits_arrays():
    """One K x N buffer serves every epoch; the label terms are taken once."""
    k = 20
    rng = np.random.default_rng(2)
    images = unit_rows(rng, (N, 64))
    labels = PseudoLabels(rng.dirichlet(np.ones(k), size=N))
    init = ProxyWeights(unit_rows(rng, (k, 64)))
    cfg = LearnConfig(max_epochs=5, loss_tolerance=0.0)
    logits = N * k * 8
    peak = _peak_bytes(learn, images, labels, init, cfg)
    assert peak <= 2.5 * logits, f"peak {peak / logits:.2f}x an N x K float64 array"
