"""Memory bounds: ingest holds the images once from file to prediction, plus
one block of temporaries, and learning holds about one N x K array beside its
inputs.

Peaks come from ``tracemalloc``, which sees numpy's array buffers, and count
only what the measured call allocates.
"""

import json
import random
import tracemalloc

import numpy as np
import pytest

from conftest import make_kb, unit_rows

from proxyot import io as pio
from proxyot.learner import LearnConfig, ProxyWeights, classify, learn
from proxyot.numerics import _BLOCK_ROWS
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


def test_read_labels_holds_the_text_and_one_block(tmp_path):
    """No Python string per line of the file: the text, one block of lines, the labels.

    On 200000 class names of 9 bytes a line the peak was 9.1x the file's
    bytes when every line was split at once; block by block it is 2.5x.
    """
    kb = make_kb(np.random.default_rng(0), n_classes=50, n_descriptions=1, dim=4)
    rnd = random.Random(0)
    path = tmp_path / "labels.txt"
    path.write_text("".join(f"{kb.names[rnd.randrange(50)]}\n" for _ in range(200_000)))
    size = path.stat().st_size
    peak = _peak_bytes(pio.read_labels, path, kb)
    assert peak <= 3 * size, f"peak {peak / size:.2f}x the file's bytes"


def _classify_peak_beyond_output(images, w):
    """Tracemalloc peak of ``classify`` less its N-row output array.

    tracemalloc does not see the packing buffer OpenBLAS takes for a product;
    that buffer grows with a block's rows too, so bounding the rows of a block
    is what bounds it.
    """
    return _peak_bytes(classify, images, w) - len(images) * np.dtype(np.intp).itemsize


def test_classify_peak_does_not_grow_with_the_images():
    """Logits are taken a block of rows at a time, never N x K at once."""
    rng = np.random.default_rng(1)
    images = unit_rows(rng, (2 * N, 64))
    w = ProxyWeights(unit_rows(rng, (128, 64)))
    half = _classify_peak_beyond_output(images[:N], w)
    full = _classify_peak_beyond_output(images, w)
    assert abs(full - half) <= 0.1 * half, f"peak {half} bytes at {N} rows, {full} at {2 * N}"


@pytest.mark.parametrize("n", [2 * _BLOCK_ROWS - 1, 3 * _BLOCK_ROWS + 5])
def test_classify_holds_no_block_wider_than_the_bound(n):
    """No more logits than at N = _BLOCK_ROWS, one block as wide as a block gets.

    A last block that took the remainder held up to 2 * _BLOCK_ROWS - 1 rows.
    """
    rng = np.random.default_rng(4)
    images = unit_rows(rng, (n, 64))
    w = ProxyWeights(unit_rows(rng, (50, 64)))
    widest = _classify_peak_beyond_output(images[:_BLOCK_ROWS], w)
    peak = _classify_peak_beyond_output(images, w)
    assert peak <= 1.1 * widest, f"peak {peak} bytes at {n} rows, {widest} in one block"


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
