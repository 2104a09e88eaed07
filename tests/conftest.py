import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from proxyot import FixtureSpec, generate_fixture, write_fixture
from proxyot import io as pio
from proxyot.retrieval import ClassRecord, KnowledgeBase


def reference_plan(m, tau, q, sweeps):
    """Plain-Python log-space alternating scaling, independent of the package.

    Serves as the slow, trusted fixed-point oracle for the transport solvers.
    """
    n = len(m)
    k = len(m[0])
    logp = [[m[i][j] / tau for j in range(k)] for i in range(n)]

    def lse(vals):
        mx = max(vals)
        if mx == float("-inf"):
            return mx
        return mx + math.log(sum(math.exp(v - mx) for v in vals))

    ln_row = math.log(1.0 / n)
    for _ in range(sweeps):
        for i in range(n):
            shift = ln_row - lse(logp[i])
            logp[i] = [v + shift for v in logp[i]]
        for j in range(k):
            shift = math.log(q[j]) - lse([logp[i][j] for i in range(n)])
            for i in range(n):
                logp[i][j] += shift
    return np.array([[math.exp(v) for v in row] for row in logp])


def unit_rows(rng, shape):
    m = rng.standard_normal(shape)
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def make_kb(rng, n_classes=3, n_descriptions=4, dim=8, with_names=False):
    """Small random knowledge base with unit description embeddings."""
    records = []
    for j in range(n_classes):
        emb = unit_rows(rng, (n_descriptions, dim))
        name_emb = unit_rows(rng, (1, dim))[0] if with_names else None
        records.append(
            ClassRecord(
                name=f"class_{j:02d}",
                descriptions=tuple(
                    f"cue {l} of class {j}" for l in range(n_descriptions)
                ),
                embeddings=emb,
                name_embedding=name_emb,
            )
        )
    return KnowledgeBase(classes=tuple(records), dim=dim)


# names and texts with quotes, commas, backslashes and non-ASCII characters
_TEXT = st.text(alphabet=st.sampled_from('ab "\',\\\né漢🙂'), max_size=10)
# entries too small to square are zeroed, so every drawn row normalizes to unit
_ENTRY = st.floats(-4.0, 4.0).map(lambda x: x if abs(x) > 1e-6 else 0.0)


@st.composite
def knowledge_bases(draw):
    """Small valid knowledge bases, with or without name embeddings."""
    dim = draw(st.integers(1, 6))
    with_names = draw(st.booleans())
    names = draw(st.lists(_TEXT.filter(bool), min_size=1, max_size=4, unique=True))
    records = []
    for name in names:
        count = draw(st.integers(1, 5))
        texts = draw(st.lists(_TEXT, min_size=count, max_size=count))
        rows = np.array(draw(st.lists(
            st.lists(_ENTRY, min_size=dim, max_size=dim), min_size=count, max_size=count
        )))
        rows[~rows.any(axis=1), 0] = 1.0
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        name_emb = None
        if with_names:
            finite = st.floats(allow_nan=False, allow_infinity=False)
            name_emb = np.array(draw(st.lists(finite, min_size=dim, max_size=dim)))
        records.append(ClassRecord(name, tuple(texts), rows, name_emb))
    return KnowledgeBase(tuple(records), dim=dim)


def inline_kb_doc(kb_path):
    """The knowledge base at ``kb_path`` as one JSON document with inline ``embeddings``.

    Tests edit this document, or write it to a directory of their own, without
    the EMB1 file that a written knowledge base names.
    """
    doc = json.loads(Path(kb_path).read_text(encoding="utf-8"))
    doc.pop("embeddings_file", None)
    for entry, rec in zip(doc["classes"], pio.read_knowledge_base(kb_path).classes):
        entry["embeddings"] = rec.embeddings.tolist()
    return doc


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    """The standard seed-42 synthetic fixture, generated once per session."""
    out = tmp_path_factory.mktemp("fixture")
    write_fixture(generate_fixture(42, FixtureSpec()), out)
    return out
