import csv
import json
import os
import struct
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import knowledge_bases
from proxyot import io as pio
from proxyot.errors import DataError, UsageError
from proxyot.fixture import FixtureSpec, generate_fixture, write_fixture


class TestEmb1RoundTrip:
    def test_binary64_round_trip_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(42)
        m = rng.standard_normal((5, 8))
        path = tmp_path / "m.emb"
        pio.write_embeddings(m, path)
        back = pio.read_embeddings(path)
        np.testing.assert_array_equal(back, m)
        assert back.dtype == np.float64

    def test_binary32_widens_exactly(self, tmp_path):
        rng = np.random.default_rng(42)
        m = rng.standard_normal((4, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path / "m32.emb"
        pio.write_embeddings(m, path, dtype="binary32")
        back = pio.read_embeddings(path)
        np.testing.assert_array_equal(back, m)

    def test_binary32_signaling_nan_widens_without_a_warning(self, tmp_path):
        # numpy warns "invalid value encountered in cast" when it widens a
        # signaling NaN; the reader returns it, and as_matrix names it later
        payload = struct.pack("<I", 0x7F81BB1A)
        path = tmp_path / "snan.emb"
        path.write_bytes(
            b"EMB1" + struct.pack("<HBQQ", 1, 0, 1, 1) + payload
            + struct.pack("<I", zlib.crc32(payload))
        )
        back = pio.read_embeddings(path)
        assert back.shape == (1, 1) and np.isnan(back[0, 0])

    def test_empty_matrix_round_trips(self, tmp_path):
        path = tmp_path / "empty.emb"
        pio.write_embeddings(np.zeros((0, 6)), path)
        back = pio.read_embeddings(path)
        assert back.shape == (0, 6)

    def test_unknown_dtype_rejected_on_write(self, tmp_path):
        with pytest.raises(UsageError):
            pio.write_embeddings(np.zeros((1, 1)), tmp_path / "x.emb", dtype="fp16")


class TestEmb1Corruption:
    def _write(self, tmp_path, shape=(3, 4)):
        rng = np.random.default_rng(0)
        path = tmp_path / "c.emb"
        pio.write_embeddings(rng.standard_normal(shape), path)
        return path

    def test_single_bit_flip_in_payload_detected(self, tmp_path):
        path = self._write(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[23 + 5] ^= 0x10  # payload starts at byte 23
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="CRC-32 mismatch"):
            pio.read_embeddings(path)

    def test_bad_magic_names_offset_zero(self, tmp_path):
        path = self._write(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="byte offset 0"):
            pio.read_embeddings(path)

    def test_truncation_reports_sizes(self, tmp_path):
        path = self._write(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(DataError, match="truncated"):
            pio.read_embeddings(path)

    def test_header_truncation(self, tmp_path):
        path = self._write(tmp_path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(DataError, match="header"):
            pio.read_embeddings(path)

    def test_unknown_dtype_code(self, tmp_path):
        path = self._write(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[6] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="dtype code 9"):
            pio.read_embeddings(path)

    def test_bad_version(self, tmp_path):
        path = self._write(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version"):
            pio.read_embeddings(path)


def _kb_doc(dim=3, inline=True):
    rows = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    doc = {
        "dim": dim,
        "classes": [
            {
                "name": "alpha",
                "descriptions": ["first cue", "second cue"],
                "embeddings": rows,
            },
            {
                "name": "beta",
                "descriptions": ["third cue"],
                "embeddings": [[0.0, 0.0, 1.0]],
            },
        ],
    }
    if not inline:
        del doc["classes"][0]["embeddings"]
    return doc


class TestKnowledgeBaseFile:
    def test_minimal_kb_parses(self, tmp_path):
        path = tmp_path / "kb.json"
        doc = {
            "dim": 2,
            "classes": [
                {"name": "only", "descriptions": ["d"], "embeddings": [[1.0, 0.0]]}
            ],
        }
        path.write_text(json.dumps(doc))
        kb = pio.read_knowledge_base(path)
        assert kb.n_classes == 1
        assert kb.names == ["only"]

    def test_duplicate_class_names_rejected(self, tmp_path):
        doc = _kb_doc()
        doc["classes"][1]["name"] = "alpha"
        doc["classes"][1]["embeddings"] = [[1.0, 0.0, 0.0]]
        path = tmp_path / "kb.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="alpha"):
            pio.read_knowledge_base(path)

    def test_lone_surrogate_name_rejected_by_position(self, tmp_path):
        path = tmp_path / "kb.json"
        # the escape as JSON writes it; json.loads turns it into a lone surrogate
        path.write_text(json.dumps(_kb_doc()).replace('"beta"', '"\\ud800x"'))
        assert '"\\ud800x"' in path.read_text()
        with pytest.raises(DataError) as err:
            pio.read_knowledge_base(path)
        assert str(err.value) == (
            f"{path}: class 1 'name' '\\ud800x' is not valid Unicode text: "
            "surrogates not allowed at character 0"
        )

    def test_count_mismatch_rejected(self, tmp_path):
        doc = _kb_doc()
        doc["classes"][0]["descriptions"] = ["just one"]
        path = tmp_path / "kb.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="1 descriptions.*2 embedding rows"):
            pio.read_knowledge_base(path)

    def test_dim_mismatch_rejected(self, tmp_path):
        doc = _kb_doc(dim=5)
        path = tmp_path / "kb.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="dim"):
            pio.read_knowledge_base(path)

    def test_missing_embeddings_without_sidecar_rejected(self, tmp_path):
        doc = _kb_doc(inline=False)
        path = tmp_path / "kb.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="class 'alpha' has no 'embeddings'"):
            pio.read_knowledge_base(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "kb.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="JSON"):
            pio.read_knowledge_base(path)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("embeddings", [[1.0, 0.0, 0.0], [0.0, 1.0]], "rectangular"),
            ("embeddings", [["1", "0", "0"], [0.0, 1.0, 0.0]], "only numbers"),
            ("name_embedding", ["x", "y", "z"], "only numbers"),
            ("name_embedding", [[1.0, 0.0, 0.0]], "1-D"),
            ("embeddings", [[True, 0.0, 0.0], [0.0, 1.0, 0.0]], "not booleans"),
            ("embeddings", [[1, 0, 0], [0, 1, False]], "not booleans"),
            ("name_embedding", [1.0, False, 0.0], "not booleans"),
        ],
    )
    def test_malformed_arrays_name_the_class(self, tmp_path, field, value, match):
        doc = _kb_doc()
        doc["classes"][0][field] = value
        path = tmp_path / "kb.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"class 'alpha' {field} .*{match}"):
            pio.read_knowledge_base(path)

    def test_boolean_dim_rejected(self, tmp_path):
        doc = _kb_doc()
        doc["dim"] = True
        path = tmp_path / "kb.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="'dim'"):
            pio.read_knowledge_base(path)

    def test_embeddings_file_resolves_against_the_kb_directory(self, tmp_path, monkeypatch):
        (tmp_path / "sub").mkdir()
        doc = _kb_doc()
        rows = [row for entry in doc["classes"] for row in entry.pop("embeddings")]
        pio.write_embeddings(np.array(rows), tmp_path / "sub" / "rows.emb")
        doc["embeddings_file"] = "rows.emb"
        (tmp_path / "sub" / "kb.json").write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        kb = pio.read_knowledge_base(Path("sub") / "kb.json")
        assert kb.embeddings_file == Path("sub") / "rows.emb"
        np.testing.assert_array_equal(kb.classes[0].embeddings, rows[:2])
        np.testing.assert_array_equal(kb.classes[1].embeddings, rows[2:])

    @pytest.mark.parametrize("name", ["missing.emb", ".", "x" * 300, "\x00", "\ud800"])
    def test_unreadable_embeddings_file_is_data_error(self, tmp_path, name):
        doc = _kb_doc(inline=False)
        del doc["classes"][1]["embeddings"]
        path = tmp_path / "kb.json"
        path.write_text(json.dumps(doc | {"embeddings_file": name}))
        with pytest.raises(DataError, match=f"^{path}: embeddings file "):
            pio.read_knowledge_base(path)

    def test_inline_kb_names_no_embeddings_file(self, tmp_path):
        path = tmp_path / "kb.json"
        path.write_text(json.dumps(_kb_doc()))
        assert pio.read_knowledge_base(path).embeddings_file is None

    @pytest.mark.parametrize(
        "kb, emb", [("kb.json", "kb.emb"), ("kb", "kb.emb"), ("kb.emb", "kb.emb.emb"),
                    ("kb.v2.json", "kb.v2.emb")]
    )
    def test_written_embeddings_file_never_is_the_kb(self, tmp_path, kb, emb):
        assert pio.knowledge_base_embeddings_path(tmp_path / kb) == tmp_path / emb

    def test_name_embedding_is_parsed(self, tmp_path):
        doc = _kb_doc()
        doc["classes"][0]["name_embedding"] = [1.0, 0.0, 0.0]
        doc["classes"][1]["name_embedding"] = [0.0, 1.0, 0.0]
        path = tmp_path / "kb.json"
        path.write_text(json.dumps(doc))
        kb = pio.read_knowledge_base(path)
        names = kb.name_embedding_matrix()
        np.testing.assert_array_equal(names, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _frozen_fixture_kb_doc(fixture) -> dict:
    """The kb.json document write_fixture writes, assembled by hand; its bytes pin the format."""
    return {
        "dim": fixture.images.shape[1],
        "embeddings_file": "kb.emb",
        "classes": [
            {
                "name": rec.name,
                "descriptions": list(rec.descriptions),
                "name_embedding": rec.name_embedding.tolist(),
            }
            for rec in fixture.kb.classes
        ],
    }


def _frozen_fixture_kb_embeddings(fixture) -> bytes:
    """The kb.emb file write_fixture writes: every description row, in class order, as EMB1."""
    rows = np.concatenate([rec.embeddings for rec in fixture.kb.classes])
    payload = rows.astype("<f8").tobytes()
    header = struct.pack("<4sHBQQ", b"EMB1", 1, 1, *rows.shape)
    return header + payload + struct.pack("<I", zlib.crc32(payload))


class TestKnowledgeBaseWriter:
    @settings(max_examples=60, deadline=None)
    @given(kb=knowledge_bases())
    def test_write_then_read_gives_the_same_base(self, tmp_path_factory, kb):
        path = tmp_path_factory.mktemp("kbw") / "kb.json"
        pio.write_knowledge_base(kb, path)
        back = pio.read_knowledge_base(path)
        assert back.dim == kb.dim
        assert back.names == kb.names
        for got, want in zip(back.classes, kb.classes):
            assert got.descriptions == want.descriptions
            np.testing.assert_array_equal(_bits(got.embeddings), _bits(want.embeddings))
            if want.name_embedding is None:
                assert got.name_embedding is None
            else:
                np.testing.assert_array_equal(
                    _bits(got.name_embedding), _bits(want.name_embedding)
                )

    @pytest.mark.parametrize("seed, spec", [
        (42, FixtureSpec()),
        (7, FixtureSpec(n_images=30, n_classes=4, dim=9, descriptions_per_class=3,
                        noise=0.2, name_noise=0.9)),
    ])
    def test_fixture_kb_matches_the_frozen_document(self, tmp_path, seed, spec):
        fixture = generate_fixture(seed, spec)
        write_fixture(fixture, tmp_path)
        frozen = json.dumps(_frozen_fixture_kb_doc(fixture), indent=2) + "\n"
        assert (tmp_path / "kb.json").read_bytes() == frozen.encode("utf-8")
        assert (tmp_path / "kb.emb").read_bytes() == _frozen_fixture_kb_embeddings(fixture)


class TestLabels:
    def _kb(self, tmp_path):
        path = tmp_path / "kb.json"
        path.write_text(json.dumps(_kb_doc()))
        return pio.read_knowledge_base(path)

    def test_indices_and_names_mix(self, tmp_path):
        kb = self._kb(tmp_path)
        labels = tmp_path / "y.txt"
        labels.write_text("0\nbeta\nalpha\n1\n")
        np.testing.assert_array_equal(pio.read_labels(labels, kb), [0, 1, 0, 1])

    def test_unknown_name_rejected_with_line(self, tmp_path):
        kb = self._kb(tmp_path)
        labels = tmp_path / "y.txt"
        labels.write_text("alpha\ngamma\n")
        with pytest.raises(DataError, match=":2"):
            pio.read_labels(labels, kb)

    def test_out_of_range_index_rejected(self, tmp_path):
        kb = self._kb(tmp_path)
        labels = tmp_path / "y.txt"
        labels.write_text("5\n")
        with pytest.raises(DataError, match="out of range"):
            pio.read_labels(labels, kb)

    @pytest.mark.parametrize("token", ["1_0", "+1", "\u0661", "\uff11", "-0", "1.0"])
    def test_only_ascii_digits_are_indices(self, tmp_path, token):
        kb = self._kb(tmp_path)
        labels = tmp_path / "y.txt"
        labels.write_text(f"0\n{token}\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2: label .* is not a class name"):
            pio.read_labels(labels, kb)

    def test_leading_zeros_and_huge_indices(self, tmp_path):
        kb = self._kb(tmp_path)
        labels = tmp_path / "y.txt"
        labels.write_text("00\n001\n")
        np.testing.assert_array_equal(pio.read_labels(labels, kb), [0, 1])
        labels.write_text("0" * 5000 + "1\n")
        np.testing.assert_array_equal(pio.read_labels(labels, kb), [1])
        labels.write_text("9" * 5000 + "\n")  # beyond int()'s digit limit
        with pytest.raises(DataError, match="out of range"):
            pio.read_labels(labels, kb)

    @pytest.mark.parametrize("sep", ["\x0b", "\u2028"])
    def test_only_newlines_end_a_line(self, tmp_path, sep):
        # str.splitlines would break at these; a label line does not
        kb = self._kb(tmp_path)
        labels = tmp_path / "y.txt"
        labels.write_text(f"alpha{sep}\n{sep}beta\n1\n", encoding="utf-8")
        np.testing.assert_array_equal(pio.read_labels(labels, kb), [0, 1, 1])
        labels.write_text(f"alpha\nalpha{sep}beta\n1\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2: label .* is not a class name"):
            pio.read_labels(labels, kb)
        labels.write_text(f"alpha{sep}\nbeta\ngamma\n", encoding="utf-8")
        with pytest.raises(DataError, match=":3: label 'gamma'"):
            pio.read_labels(labels, kb)

    def test_digit_named_class_is_reached_by_index_only(self, tmp_path):
        doc = _kb_doc()
        doc["classes"][0]["name"] = "1"
        path = tmp_path / "kb.json"
        path.write_text(json.dumps(doc))
        kb = pio.read_knowledge_base(path)
        labels = tmp_path / "y.txt"
        labels.write_text("1\n0\nbeta\n")
        np.testing.assert_array_equal(pio.read_labels(labels, kb), [1, 0, 1])

    def test_digit_like_class_names_are_names(self, tmp_path):
        doc = _kb_doc()
        doc["classes"][0]["name"] = "+1"
        path = tmp_path / "kb.json"
        path.write_text(json.dumps(doc))
        kb = pio.read_knowledge_base(path)
        labels = tmp_path / "y.txt"
        labels.write_text("+1\n1\n")
        np.testing.assert_array_equal(pio.read_labels(labels, kb), [0, 1])


class TestMarginal:
    def test_already_normalized(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text("[0.5, 0.5]")
        np.testing.assert_allclose(pio.read_marginal(path).q, [0.5, 0.5], atol=0)

    def test_unnormalized_weights_rescaled_exactly(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text("[2, 2]")
        np.testing.assert_array_equal(pio.read_marginal(path).q, [0.5, 0.5])

    def test_negative_entry_rejected(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text("[1, -1]")
        with pytest.raises(DataError, match="negative"):
            pio.read_marginal(path)

    def test_zero_sum_rejected(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text("[0, 0]")
        with pytest.raises(DataError):
            pio.read_marginal(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text('["a", "b"]')
        with pytest.raises(DataError):
            pio.read_marginal(path)


    def test_boolean_weight_rejected(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text("[true, 1, 1, 1, 1]")
        with pytest.raises(DataError, match="array of numbers"):
            pio.read_marginal(path)

    def test_empty_array_rejected(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text("[]")
        with pytest.raises(DataError, match="nonempty"):
            pio.read_marginal(path)

    def test_weights_whose_sum_overflows_rejected(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text("[1e308, 1e308, 1, 1, 1]")
        with pytest.raises(DataError, match="weights sum past the float range"):
            pio.read_marginal(path)

    def test_integer_beyond_float_range_rejected(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(f"[1, {10 ** 400}]")
        with pytest.raises(DataError, match="out of range"):
            pio.read_marginal(path)


@pytest.mark.parametrize("reader", ["kb", "labels", "marginal"])
def test_text_that_is_not_utf8_is_data_error(tmp_path, reader):
    kb_path = tmp_path / "kb.json"
    kb_path.write_text(json.dumps(_kb_doc()))
    read = {
        "kb": pio.read_knowledge_base,
        "labels": lambda p: pio.read_labels(p, pio.read_knowledge_base(kb_path)),
        "marginal": pio.read_marginal,
    }[reader]
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe0\n1\n")
    with pytest.raises(DataError, match="UTF-8"):
        read(bad)


def _kb_fields(kb):
    return kb.dim, kb.names, [(c.descriptions, c.embeddings.tolist()) for c in kb.classes]


@pytest.mark.parametrize(
    "reader, text",
    [("kb", json.dumps(_kb_doc())), ("labels", "beta\n0\nalpha\n"), ("marginal", "[1, 3]")],
    ids=["kb", "labels", "marginal"],
)
def test_leading_byte_order_mark_is_ignored(tmp_path, reader, text):
    kb_path = tmp_path / "kb.json"
    kb_path.write_text(json.dumps(_kb_doc()))
    read = {
        "kb": lambda p: _kb_fields(pio.read_knowledge_base(p)),
        "labels": lambda p: pio.read_labels(p, pio.read_knowledge_base(kb_path)).tolist(),
        "marginal": lambda p: pio.read_marginal(p).q.tolist(),
    }[reader]
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert read(marked) == read(plain)


def test_empty_payload_with_absurd_shape_is_data_error(tmp_path):
    path = tmp_path / "wide.emb"
    pio.write_embeddings(np.zeros((0, 1)), path)
    blob = bytearray(path.read_bytes())
    blob[15:23] = (2**62).to_bytes(8, "little")  # cols
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="cannot shape"):
        pio.read_embeddings(path)


class TestReportWriting:
    def test_identical_reports_serialize_identically(self, tmp_path):
        doc = {"mode": "kpl_text", "accuracy": 0.94, "predictions": [0, 1, 2]}
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        pio.write_report(doc, a)
        pio.write_report(dict(doc), b)
        assert a.read_bytes() == b.read_bytes()

    def test_predictions_csv_layout(self, tmp_path):
        path = tmp_path / "p.csv"
        pio.write_predictions_csv(path, np.array([1, 0]), ["healthy", "lesion"])
        assert path.read_text() == "index,predicted_class_name\n0,lesion\n1,healthy\n"

    def test_predictions_csv_same_bytes_for_list_and_array(self, tmp_path):
        labels = [2, 0, 1, 1, 0]
        names = ["a", "b, c", "d"]
        as_list, as_array = tmp_path / "list.csv", tmp_path / "array.csv"
        pio.write_predictions_csv(as_list, labels, names)
        pio.write_predictions_csv(as_array, np.array(labels, dtype=np.intp), names)
        assert as_list.read_bytes() == as_array.read_bytes()

    def test_csv_quotes_awkward_names(self, tmp_path):
        path = tmp_path / "p.csv"
        pio.write_predictions_csv(path, np.array([0]), ['cloudy, "opaque" lens'])
        assert path.read_text().splitlines()[1] == '0,"cloudy, ""opaque"" lens"'

    def test_csv_names_round_trip_through_csv_reader(self, tmp_path):
        names = ["plain", 'cloudy, "opaque" lens', "two\nlines", "carriage\rreturn", "a\r\nb"]
        path = tmp_path / "p.csv"
        pio.write_predictions_csv(path, np.arange(len(names)), names)
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert rows == [["index", "predicted_class_name"]] + [
            [str(i), name] for i, name in enumerate(names)
        ]


def read_embeddings_reference(path):
    """Whole-file EMB1 reader: the file's bytes, a sliced payload and a float64 copy.

    Kept frozen for :func:`pio.read_embeddings`, which reads into one array
    and must return the same matrix, or raise the same message, for any file.
    """
    header = struct.Struct("<4sHBQQ")
    dtypes = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
    blob = Path(path).read_bytes()
    if len(blob) < header.size:
        raise DataError(
            f"{path}: truncated header, file ends at byte {len(blob)} "
            f"but the header needs {header.size}"
        )
    magic, version, code, rows, cols = header.unpack_from(blob, 0)
    if magic != b"EMB1":
        raise DataError(f"{path}: bad magic {magic!r} at byte offset 0")
    if version != 1:
        raise DataError(f"{path}: unsupported version {version} at byte offset 4")
    if code not in dtypes:
        raise DataError(f"{path}: unknown dtype code {code} at byte offset 6")
    item = dtypes[code].itemsize
    payload_len = rows * cols * item
    expected = header.size + payload_len + 4
    if len(blob) != expected:
        raise DataError(
            f"{path}: truncated or oversized file, ends at byte {len(blob)} "
            f"but {rows}x{cols} {item * 8}-bit payload plus CRC needs {expected}"
        )
    payload = blob[header.size : header.size + payload_len]
    (stored_crc,) = struct.unpack_from("<I", blob, header.size + payload_len)
    actual_crc = zlib.crc32(payload)
    if stored_crc != actual_crc:
        raise DataError(
            f"{path}: CRC-32 mismatch at byte offset {header.size + payload_len}: "
            f"stored 0x{stored_crc:08x}, computed 0x{actual_crc:08x}"
        )
    values = np.frombuffer(payload, dtype=dtypes[code]).astype(np.float64)
    try:
        return values.reshape(rows, cols)
    except ValueError as exc:
        raise DataError(f"{path}: cannot shape {rows}x{cols}: {exc}") from exc


def _outcome(read, path):
    try:
        return read(path)
    except DataError as exc:
        return str(exc)


def _emb1_bytes(matrix, code):
    payload = matrix.astype("<f4" if code == 0 else "<f8").tobytes()
    header = struct.pack("<4sHBQQ", b"EMB1", 1, code, *matrix.shape)
    return header + payload + struct.pack("<I", zlib.crc32(payload))


@st.composite
def emb1_files(draw):
    """EMB1 files around the row-block boundaries, intact or with one fault."""
    rows = draw(st.sampled_from([0, 1, 8191, 8192, 8193, 20000]))
    cols = draw(st.integers(1, 3))
    code = draw(st.sampled_from([0, 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blob = bytearray(_emb1_bytes(rng.standard_normal((rows, cols)), code))
    fault = draw(st.sampled_from(["intact", "overwrite", "truncate", "extend", "shape"]))
    if fault == "overwrite":
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    elif fault == "truncate":
        del blob[draw(st.integers(0, len(blob) - 1)) :]
    elif fault == "extend":
        blob += draw(st.binary(min_size=1, max_size=9))
    elif fault == "shape":
        field = draw(st.sampled_from([slice(7, 15), slice(15, 23)]))
        value = draw(st.sampled_from([0, 1, rows + 1, 2**60, 2**62, 2**64 - 1]))
        blob[field] = value.to_bytes(8, "little")
        if draw(st.booleans()):  # an empty payload, so only the shape is wrong
            blob = blob[:23] + struct.pack("<I", zlib.crc32(b""))
    return bytes(blob)


@pytest.fixture(scope="module")
def emb_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("emb1")


class TestReadMatchesReference:
    """Reading into one preallocated array returns what the whole-file read did."""

    @settings(max_examples=60, deadline=None)
    @given(blob=emb1_files())
    def test_any_file(self, emb_dir, blob):
        path = emb_dir / "x.emb"
        path.write_bytes(blob)
        got = _outcome(pio.read_embeddings, path)
        want = _outcome(read_embeddings_reference, path)
        if isinstance(got, str) or isinstance(want, str):
            assert got == want
        else:
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("code", [0, 1])
    @pytest.mark.parametrize("shape", [(0, 2**60), (2**60, 0), (2**64 - 1, 0)])
    def test_empty_payload_with_absurd_shape(self, emb_dir, code, shape):
        path = emb_dir / "absurd.emb"
        path.write_bytes(_emb1_bytes(np.zeros((0, 1)), code)[:7] + struct.pack("<QQ", *shape)
                         + struct.pack("<I", zlib.crc32(b"")))
        got = _outcome(pio.read_embeddings, path)
        assert "cannot shape" in got
        assert got == _outcome(read_embeddings_reference, path)

    @pytest.mark.parametrize("cut", [None, 10, 23, 1000])
    def test_fifo_reads_like_the_file(self, tmp_path, cut):
        path = tmp_path / "m.emb"
        pio.write_embeddings(np.random.default_rng(4).standard_normal((9000, 3)), path)
        blob = path.read_bytes()[:cut]
        path.write_bytes(blob)
        fifo = tmp_path / "m.fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(blob)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        got = _outcome(pio.read_embeddings, fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        want = _outcome(pio.read_embeddings, path)
        if cut is None:
            assert np.array_equal(got, want)
        else:
            assert got == want.replace(str(path), str(fifo))
