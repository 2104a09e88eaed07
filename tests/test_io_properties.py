"""Property tests: whatever a file holds, the readers return or raise DataError.

Any other exception would reach the CLI as a traceback with exit 1 instead
of a ``data error:`` line with exit 2.
"""

import json
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxyot import io as pio
from proxyot.errors import DataError

# bounded so the whole file stays a few seconds of the tier-1 run
BOUNDED = settings(max_examples=100, deadline=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)

# documents shaped like a knowledge base, so the per-class checks are reached
unit_rows = st.lists(
    st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.5]), min_size=2, max_size=2),
    min_size=1,
    max_size=2,
)
kb_classes = st.fixed_dictionaries(
    {
        "name": st.sampled_from(["a", "b", ""]) | json_values,
        "descriptions": st.lists(st.text(max_size=4), min_size=1, max_size=2)
        | json_values,
        "embeddings": unit_rows | json_values,
    },
    optional={"name_embedding": st.lists(st.floats(), max_size=3) | json_values},
)
kb_docs = st.fixed_dictionaries(
    {
        "dim": st.integers(0, 3) | json_values,
        "classes": st.lists(kb_classes, max_size=3) | json_values,
    }
)


@st.composite
def emb1_like(draw):
    """A well-formed EMB1 file, intact or with one byte overwritten or cut short."""
    code = draw(st.sampled_from([0, 1]))
    huge = st.sampled_from([2**62, 2**64 - 1])
    rows = draw(st.integers(0, 3) | huge)
    cols = draw(st.integers(0, 3) | huge)
    size = rows * cols * (4 if code == 0 else 8)
    payload = draw(st.binary(min_size=size, max_size=size)) if size <= 48 else b""
    header = struct.pack("<4sHBQQ", b"EMB1", 1, code, rows, cols)
    blob = bytearray(header + payload + struct.pack("<I", zlib.crc32(payload)))
    fault = draw(st.sampled_from(["intact", "overwrite", "truncate"]))
    if fault == "overwrite":
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    elif fault == "truncate":
        del blob[draw(st.integers(0, len(blob) - 1)) :]
    return bytes(blob)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    directory = tmp_path_factory.mktemp("props")
    kb_path = directory / "kb.json"
    kb_path.write_text(
        json.dumps(
            {
                "dim": 2,
                "classes": [
                    {"name": "a", "descriptions": ["x"], "embeddings": [[1.0, 0.0]]},
                    {"name": "b", "descriptions": ["y"], "embeddings": [[0.0, 1.0]]},
                ],
            }
        )
    )
    return directory, pio.read_knowledge_base(kb_path)


def _only_data_errors(read, path, blob):
    path.write_bytes(blob)
    try:
        read(path)
    except DataError:
        pass


def _json_bytes(value):
    return json.dumps(value).encode("utf-8")


@BOUNDED
@given(blob=st.binary(max_size=96) | emb1_like())
def test_read_embeddings_raises_only_data_error(work, blob):
    directory, _ = work
    _only_data_errors(pio.read_embeddings, directory / "x.emb", blob)


@BOUNDED
@given(blob=st.binary(max_size=64) | (json_values | kb_docs).map(_json_bytes))
def test_read_knowledge_base_raises_only_data_error(work, blob):
    directory, _ = work
    _only_data_errors(pio.read_knowledge_base, directory / "kb_prop.json", blob)


@BOUNDED
@given(blob=st.binary(max_size=64) | (json_values | st.lists(json_values)).map(_json_bytes))
def test_read_marginal_raises_only_data_error(work, blob):
    directory, _ = work
    _only_data_errors(pio.read_marginal, directory / "q.json", blob)


label_lines = st.lists(
    st.sampled_from(["0", "1", "2", "-1", "a", "b", "c", "", " 1 "]) | st.text(max_size=5),
    max_size=6,
).map(lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass"))


@BOUNDED
@given(blob=st.binary(max_size=64) | label_lines | json_values.map(_json_bytes))
def test_read_labels_raises_only_data_error(work, blob):
    directory, kb = work
    _only_data_errors(lambda p: pio.read_labels(p, kb), directory / "y.txt", blob)
