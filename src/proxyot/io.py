"""File formats: EMB1 embedding matrices, knowledge-base JSON, labels, marginals.

EMB1 layout (all integers little-endian)::

    offset 0   magic  b"EMB1"
    offset 4   version          u16   (currently 1)
    offset 6   dtype code       u8    (0 = IEEE-754 binary32, 1 = binary64)
    offset 7   rows             u64
    offset 15  cols             u64
    offset 23  payload, row-major, rows*cols values
    tail       CRC-32 of the payload bytes, u32

Matrices always come back as float64 (binary32 payloads widen exactly);
rows are never auto-normalized here.
"""

from __future__ import annotations

import itertools
import json
import struct
import zlib
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import DataError, UsageError
from .retrieval import ClassRecord, KnowledgeBase
from .solvers import ClassMarginal

__all__ = [
    "read_embeddings",
    "write_embeddings",
    "read_knowledge_base",
    "read_labels",
    "read_marginal",
    "write_report",
    "write_predictions_csv",
]

_MAGIC = b"EMB1"
_VERSION = 1
_HEADER = struct.Struct("<4sHBQQ")  # magic, version, dtype code, rows, cols
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_CODES = {"binary32": 0, "binary64": 1}


def write_embeddings(matrix, path, dtype: str = "binary64") -> None:
    """Write a matrix as an EMB1 file; binary32 narrows the payload."""
    if dtype not in _DTYPE_CODES:
        raise UsageError(f"dtype must be binary32 or binary64, got {dtype!r}")
    mat = np.ascontiguousarray(np.asarray(matrix, dtype=np.float64))
    if mat.ndim != 2:
        raise UsageError(f"embedding matrix must be 2-D, got {mat.ndim}-D")
    code = _DTYPE_CODES[dtype]
    payload = np.ascontiguousarray(mat.astype(_DTYPES[code])).tobytes()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, code, mat.shape[0], mat.shape[1]))
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8: {exc}") from exc


def _read_json(path):
    try:
        return json.loads(_read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc


def _numeric_array(value, what: str, ndim: int) -> np.ndarray:
    """A JSON nested list of numbers as a float64 array of ``ndim`` dimensions."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise DataError(f"{what} must be a rectangular array of numbers: {exc}") from exc
    if arr.dtype.kind not in "iuf":
        raise DataError(f"{what} must hold only numbers")
    if arr.ndim != ndim:
        raise DataError(f"{what} must be {ndim}-D, got {arr.ndim}-D")
    # numpy coerces booleans mixed with numbers; JSON true is not a number
    entries = value if ndim == 1 else itertools.chain.from_iterable(value)
    if bool in set(map(type, entries)):
        raise DataError(f"{what} must hold only numbers, not booleans")
    return arr.astype(np.float64, copy=False)


def read_embeddings(path) -> np.ndarray:
    """Read an EMB1 file into a float64 matrix, verifying the payload CRC."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise DataError(
            f"{path}: truncated header, file ends at byte {len(blob)} "
            f"but the header needs {_HEADER.size}"
        )
    magic, version, code, rows, cols = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise DataError(f"{path}: bad magic {magic!r} at byte offset 0")
    if version != _VERSION:
        raise DataError(f"{path}: unsupported version {version} at byte offset 4")
    if code not in _DTYPES:
        raise DataError(f"{path}: unknown dtype code {code} at byte offset 6")
    item = _DTYPES[code].itemsize
    payload_len = rows * cols * item
    expected = _HEADER.size + payload_len + 4
    if len(blob) != expected:
        raise DataError(
            f"{path}: truncated or oversized file, ends at byte {len(blob)} "
            f"but {rows}x{cols} {item * 8}-bit payload plus CRC needs {expected}"
        )
    payload = blob[_HEADER.size : _HEADER.size + payload_len]
    (stored_crc,) = struct.unpack_from("<I", blob, _HEADER.size + payload_len)
    actual_crc = zlib.crc32(payload)
    if stored_crc != actual_crc:
        raise DataError(
            f"{path}: CRC-32 mismatch at byte offset {_HEADER.size + payload_len}: "
            f"stored 0x{stored_crc:08x}, computed 0x{actual_crc:08x}"
        )
    values = np.frombuffer(payload, dtype=_DTYPES[code]).astype(np.float64)
    try:
        return values.reshape(rows, cols)
    except ValueError as exc:  # a zero-size shape too large for numpy, e.g. 0 x 2**62
        raise DataError(f"{path}: cannot shape {rows}x{cols}: {exc}") from exc


def read_knowledge_base(
    path, sidecars: Mapping[str, Path | str] | None = None
) -> KnowledgeBase:
    """Parse and validate a knowledge-base JSON document.

    A class may omit its inline ``embeddings`` list if ``sidecars`` maps its
    name to an EMB1 file carrying them. An optional per-class
    ``name_embedding`` row makes the class usable as a name-proxy baseline.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise DataError(f"{path}: top level must be an object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise DataError(f"{path}: 'dim' must be a positive integer, got {dim!r}")
    classes_raw = doc.get("classes")
    if not isinstance(classes_raw, list) or not classes_raw:
        raise DataError(f"{path}: 'classes' must be a nonempty list")
    records = []
    for pos, entry in enumerate(classes_raw):
        if not isinstance(entry, dict):
            raise DataError(f"{path}: class {pos} must be an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise DataError(f"{path}: class {pos} has no usable 'name'")
        descriptions = entry.get("descriptions")
        if (
            not isinstance(descriptions, list)
            or not descriptions
            or not all(isinstance(t, str) for t in descriptions)
        ):
            raise DataError(
                f"{path}: class {name!r} needs a nonempty list of description strings"
            )
        if "embeddings" in entry:
            emb = _numeric_array(
                entry["embeddings"], f"{path}: class {name!r} embeddings", ndim=2
            )
        elif sidecars is not None and name in sidecars:
            emb = read_embeddings(sidecars[name])
        else:
            raise DataError(
                f"{path}: class {name!r} has no inline embeddings and no sidecar file"
            )
        name_emb = entry.get("name_embedding")
        if name_emb is not None:
            name_emb = _numeric_array(
                name_emb, f"{path}: class {name!r} name_embedding", ndim=1
            )
        records.append(
            ClassRecord(
                name=name,
                descriptions=tuple(descriptions),
                embeddings=emb,
                name_embedding=name_emb,
            )
        )
    return KnowledgeBase(classes=tuple(records), dim=dim)


def read_labels(path, kb: KnowledgeBase) -> np.ndarray:
    """Read one label per line: a class index or a class name from the base.

    Only a token of ASCII digits is an index; any other token (``+1``,
    ``1_0``, non-ASCII digits) must be a class name.
    """
    text = _read_text(path)
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


def read_marginal(path) -> ClassMarginal:
    """Read a JSON array of nonnegative class weights and renormalize exactly."""
    doc = _read_json(path)
    if (
        not isinstance(doc, list)
        or not doc
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in doc)
    ):
        raise DataError(f"{path}: marginal must be a nonempty JSON array of numbers")
    try:
        weights = np.asarray(doc, dtype=np.float64)
    except OverflowError as exc:  # an integer beyond the float range
        raise DataError(f"{path}: marginal weight out of range: {exc}") from exc
    return ClassMarginal.from_weights(weights)


def write_report(report, path) -> None:
    """Serialize a report with fixed key order; identical reports give identical bytes."""
    doc = report.to_json_dict() if hasattr(report, "to_json_dict") else report
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def write_predictions_csv(path, predictions, class_names) -> None:
    """Two-column CSV: image index, predicted class name."""
    fields = [
        '"' + name.replace('"', '""') + '"' if any(c in name for c in ',"\r\n') else name
        for name in class_names
    ]
    lines = ["index,predicted_class_name"]
    lines += [f"{i},{fields[int(label)]}" for i, label in enumerate(predictions)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
