import csv
import json

import numpy as np
import pytest

from proxyot import io as pio
from proxyot.errors import DataError, UsageError


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

    def test_sidecar_embeddings_are_loaded(self, tmp_path):
        doc = _kb_doc(inline=False)
        kb_path = tmp_path / "kb.json"
        kb_path.write_text(json.dumps(doc))
        sidecar = tmp_path / "alpha.emb"
        pio.write_embeddings(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), sidecar)
        kb = pio.read_knowledge_base(kb_path, sidecars={"alpha": sidecar})
        np.testing.assert_array_equal(
            kb.classes[0].embeddings, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        )

    def test_missing_embeddings_without_sidecar_rejected(self, tmp_path):
        doc = _kb_doc(inline=False)
        path = tmp_path / "kb.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="sidecar"):
            pio.read_knowledge_base(path)

    def test_sidecar_count_mismatch_rejected(self, tmp_path):
        doc = _kb_doc(inline=False)
        kb_path = tmp_path / "kb.json"
        kb_path.write_text(json.dumps(doc))
        sidecar = tmp_path / "alpha.emb"
        pio.write_embeddings(np.array([[1.0, 0.0, 0.0]]), sidecar)
        with pytest.raises(DataError, match="descriptions"):
            pio.read_knowledge_base(kb_path, sidecars={"alpha": sidecar})

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

    def test_name_embedding_is_parsed(self, tmp_path):
        doc = _kb_doc()
        doc["classes"][0]["name_embedding"] = [1.0, 0.0, 0.0]
        doc["classes"][1]["name_embedding"] = [0.0, 1.0, 0.0]
        path = tmp_path / "kb.json"
        path.write_text(json.dumps(doc))
        kb = pio.read_knowledge_base(path)
        names = kb.name_embedding_matrix()
        np.testing.assert_array_equal(names, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


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
