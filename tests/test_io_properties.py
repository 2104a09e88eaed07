"""Property tests of the file formats.

Whatever a file holds, the readers return or raise DataError: any other
exception would reach the CLI as a traceback with exit 1 instead of a
``data error:`` line with exit 2. The writers give back what the readers
read, and reports are the bytes ``json.dumps(doc, indent=2)`` gives.
"""

import json
import struct
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import knowledge_bases
from proxyot import io as pio
from proxyot.errors import DataError
from proxyot.retrieval import ClassRecord, KnowledgeBase

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
    },
    optional={
        "embeddings": unit_rows | json_values,
        "name_embedding": st.lists(st.floats(), max_size=3) | json_values,
    },
)
kb_docs = st.fixed_dictionaries(
    {
        "dim": st.integers(0, 3) | json_values,
        "classes": st.lists(kb_classes, max_size=3) | json_values,
    },
    # x.emb holds whatever the EMB1 property test last wrote
    optional={"embeddings_file": st.sampled_from(
        ["x.emb", "kb.json", "none.emb", "", ".", "\x00", "\ud800", "x" * 300]
    ) | json_values},
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


def _expected_label(token, names):
    """A stripped token's class index, or None: ASCII digits index, anything else names."""
    if token.isascii() and token.isdigit():
        return int(token) if int(token) < len(names) else None
    return names.index(token) if token in names else None


digit_like = st.sampled_from(
    ["0", "1", "2", "01", "+1", "-0", "1_0", "1.0", " 1", "\u0661", "\uff10", "a", "b", "1e0"]
)


@BOUNDED
@given(tokens=st.lists(digit_like | st.text(max_size=3), min_size=1, max_size=5))
def test_read_labels_takes_only_ascii_digits_as_indices(work, tokens):
    directory, kb = work
    path = directory / "y_idx.txt"
    path.write_text("\n".join(tokens), encoding="utf-8", errors="surrogatepass")
    # lines end at \n, \r\n or \r (read_text turns the last two into \n)
    text = "\n".join(tokens).replace("\r\n", "\n").replace("\r", "\n")
    lines = text.removesuffix("\n").split("\n") if text else []
    expected = [_expected_label(line.strip(), kb.names) for line in lines]
    if lines and None not in expected:
        assert pio.read_labels(path, kb).tolist() == expected
    else:
        with pytest.raises(DataError):
            pio.read_labels(path, kb)


def _as_json_bool(row, position):
    """``row`` with its entry at ``position`` (when given) as the equal JSON boolean."""
    row = list(row)
    if position is not None and row[position] in (0, 1):
        row[position] = bool(row[position])
    return row


# unit rows, so numpy's coercion of a boolean to 0.0/1.0 would give a valid base
unit_rows_maybe_bool = st.lists(
    st.builds(
        _as_json_bool,
        st.sampled_from([[1.0, 0.0], [0, 1], [-1.0, 0], [0.0, -1]]),
        st.sampled_from([None, 0, 1]),
    ),
    min_size=1,
    max_size=3,
)


@BOUNDED
@given(rows=unit_rows_maybe_bool, field=st.sampled_from(["embeddings", "name_embedding"]))
def test_knowledge_base_rejects_any_boolean_entry(work, rows, field):
    directory, _ = work
    cls = {"name": "a", "descriptions": ["x"] * len(rows), "embeddings": rows}
    if field == "name_embedding":
        cls = {"name": "a", "descriptions": ["x"], "embeddings": [[1.0, 0.0]],
               "name_embedding": rows[0]}
    path = directory / "kb_bool.json"
    path.write_text(json.dumps({"dim": 2, "classes": [cls]}))
    values = [x for row in rows for x in row] if field == "embeddings" else rows[0]
    if any(isinstance(x, bool) for x in values):
        with pytest.raises(DataError, match="only numbers"):
            pio.read_knowledge_base(path)
    else:
        pio.read_knowledge_base(path)


# what reports hold: nested objects and arrays, flat lists of ints, ints of any
# sign and size, floats with NaN and infinities, None, and strings with quotes,
# escapes and non-ASCII characters
_REPORT_TEXT = st.text(alphabet=st.sampled_from('ab "\\/\n\t\x00é漢🙂\ud800'), max_size=8)
_REPORT_KEYS = _REPORT_TEXT | st.integers() | st.floats() | st.booleans() | st.none()
report_docs = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _REPORT_TEXT
    | st.lists(st.integers(), max_size=20),
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_REPORT_KEYS, inner, max_size=5),
    max_leaves=40,
)


@BOUNDED
@given(doc=report_docs)
def test_write_report_writes_the_bytes_of_json_dumps(work, doc):
    directory, _ = work
    path = directory / "report.json"
    pio.write_report(doc, path)
    assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _assert_same_base(got, want):
    """Same dim, names and texts, and bit-equal embedding and name-embedding rows."""
    assert got.dim == want.dim
    assert got.names == want.names
    for a, b in zip(got.classes, want.classes):
        assert a.descriptions == b.descriptions
        np.testing.assert_array_equal(_bits(a.embeddings), _bits(b.embeddings))
        assert (a.name_embedding is None) == (b.name_embedding is None)
        if b.name_embedding is not None:
            np.testing.assert_array_equal(_bits(a.name_embedding), _bits(b.name_embedding))


@BOUNDED
@given(kb=knowledge_bases(), name=st.sampled_from(["kb.json", "kb.emb", "kb", "k.b.json"]))
def test_knowledge_base_round_trip_is_bit_exact(work, kb, name):
    directory, _ = work
    path = directory / "rt" / name
    path.parent.mkdir(exist_ok=True)
    pio.write_knowledge_base(kb, path)
    back = pio.read_knowledge_base(path)
    assert back.embeddings_file == pio.knowledge_base_embeddings_path(path) != path
    _assert_same_base(back, kb)


@BOUNDED
@given(kb=knowledge_bases())
def test_inline_and_embeddings_file_twins_read_identically(work, kb):
    directory, _ = work
    twin = directory / "twin.json"
    pio.write_knowledge_base(kb, twin)
    doc = json.loads(twin.read_text(encoding="utf-8"))
    del doc["embeddings_file"]
    for entry, rec in zip(doc["classes"], kb.classes):
        entry["embeddings"] = rec.embeddings.tolist()
    inline = directory / "inline.json"
    inline.write_text(json.dumps(doc), encoding="utf-8")
    _assert_same_base(pio.read_knowledge_base(inline), pio.read_knowledge_base(twin))


def read_labels_reference(path, kb):
    """The label reader as it was before its one-table lookup, kept frozen.

    It splits lines with ``str.splitlines``, so it is the reference only for
    text that holds none of the separators that method adds to ``\\n``.
    """
    text = pio._read_text(path)
    name_to_index = {name: j for j, name in enumerate(kb.names)}
    labels = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        token = line.strip()
        if not token:
            raise DataError(f"{path}:{lineno}: empty label line")
        if token.isascii() and token.isdigit():
            digits = token.lstrip("0") or "0"
            # lengths first: int() refuses strings of more than 4300 digits
            if len(digits) > len(str(kb.n_classes)) or int(digits) >= kb.n_classes:
                raise DataError(
                    f"{path}:{lineno}: label index {token} out of range [0, {kb.n_classes})"
                )
            idx = int(digits)
        elif token in name_to_index:
            idx = name_to_index[token]
        else:
            raise DataError(
                f"{path}:{lineno}: label {token!r} is not a class name in the knowledge base"
            )
        labels.append(idx)
    if not labels:
        raise DataError(f"{path}: label file is empty")
    return np.array(labels, dtype=np.int64)


# str.splitlines breaks at these as well as at \n and \r
SPLITLINES_ONLY = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
label_names = st.lists(
    st.sampled_from(["a", "b c", "7", "01", "12", "\u0663", "\u00b2", "+1", "1_0", "x\ty"])
    | st.text(st.characters(exclude_characters=SPLITLINES_ONLY), min_size=1, max_size=3),
    min_size=1,
    max_size=14,
    unique=True,
)
label_tokens = st.sampled_from(
    ["0", "1", "2", "9", "10", "11", "12", "007", "00", "0" * 5000 + "1", "9" * 5000,
     "7", "01", "\u0663", "\u00b2", "+1", "1_0", "a", "b c", " a ", "x\ty", "", "  ", "\t"]
) | st.text(  # a label file is UTF-8, so its tokens hold no lone surrogate
    st.characters(codec="utf-8", exclude_characters=SPLITLINES_ONLY), max_size=3
)


@BOUNDED
@given(
    names=label_names,
    tokens=st.lists(label_tokens, max_size=12),
    newline=st.sampled_from(["\n", "\r\n"]),
    trailing=st.booleans(),
    bom=st.booleans(),
    block=st.integers(1, 12) | st.just(pio._LABEL_BLOCK_CHARS),
)
# blocks of a few characters split the lines at every position; these place
# a failing token, CRLF, a missing or empty last line and a BOM past block 1
@example(names=["a"], tokens=["a", "a", "a", "b"], newline="\n", trailing=True, bom=False, block=2)
@example(names=["a"], tokens=["a", "0", "1"], newline="\r\n", trailing=False, bom=True, block=1)
@example(names=["a"], tokens=["0", "a", ""], newline="\r\n", trailing=True, bom=True, block=3)
@example(names=["a"], tokens=["00", "a", "a"], newline="\n", trailing=False, bom=False, block=4)
def test_read_labels_matches_frozen_reference(
    work, names, tokens, newline, trailing, bom, block
):
    directory, _ = work
    kb = KnowledgeBase(
        tuple(ClassRecord(name, ("d",), np.array([[1.0]])) for name in names), dim=1
    )
    path = directory / "y_ref.txt"
    text = newline.join(tokens) + (newline if trailing and tokens else "")
    path.write_bytes(("\ufeff" if bom else "").encode("utf-8") + text.encode("utf-8"))
    with mock.patch.object(pio, "_LABEL_BLOCK_CHARS", block):
        try:
            want = read_labels_reference(path, kb)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                pio.read_labels(path, kb)
            assert str(got.value) == str(exc)
        else:
            got = pio.read_labels(path, kb)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
