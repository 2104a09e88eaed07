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

A knowledge base is a JSON document in one of two forms::

    {"dim": d, "embeddings_file": "kb.emb",
     "classes": [{"name": ..., "descriptions": [...], "name_embedding": [...]}, ...]}

    {"dim": d,
     "classes": [{"name": ..., "descriptions": [...], "embeddings": [[...], ...],
                  "name_embedding": [...]}, ...]}

In the first, one EMB1 file beside the KB holds every description
embedding in class order; ``write_knowledge_base`` writes it. The second,
with inline rows, is for knowledge bases written by hand. ``name_embedding``
is optional in both.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
import zlib
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import DataError, UsageError
from .retrieval import ClassRecord, KnowledgeBase
from .solvers import ClassMarginal

__all__ = [
    "read_embeddings",
    "write_embeddings",
    "read_knowledge_base",
    "write_knowledge_base",
    "knowledge_base_embeddings_path",
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
    mat = np.asarray(matrix, dtype=np.float64)
    if mat.ndim != 2:
        raise UsageError(f"embedding matrix must be 2-D, got {mat.ndim}-D")
    code = _DTYPE_CODES[dtype]
    # written from its own buffer: no copy for a C-ordered float64 matrix
    payload = np.ascontiguousarray(mat, dtype=_DTYPES[code])
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


def _drain(fh) -> int:
    """Read ``fh`` to its end; the number of bytes that were left."""
    left = 0
    while chunk := fh.read(1 << 20):
        left += len(chunk)
    return left


def read_embeddings(path) -> np.ndarray:
    """Read an EMB1 file into a float64 matrix, verifying the payload CRC.

    The payload is read straight into the array that holds it, so a binary64
    file is held once and a binary32 file once more while it widens. The
    file's size is judged by what the reads return, so a pipe works too.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise DataError(
                f"{path}: truncated header, file ends at byte {len(header)} "
                f"but the header needs {_HEADER.size}"
            )
        magic, version, code, rows, cols = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise DataError(f"{path}: bad magic {magic!r} at byte offset 0")
        if version != _VERSION:
            raise DataError(f"{path}: unsupported version {version} at byte offset 4")
        if code not in _DTYPES:
            raise DataError(f"{path}: unknown dtype code {code} at byte offset 6")
        item = _DTYPES[code].itemsize
        payload_len = rows * cols * item
        expected = _HEADER.size + payload_len + 4

        def size_error(end: int) -> DataError:
            return DataError(
                f"{path}: truncated or oversized file, ends at byte {end} "
                f"but {rows}x{cols} {item * 8}-bit payload plus CRC needs {expected}"
            )

        try:  # flat, so a zero-size payload always fits; shaped below
            values = np.empty(rows * cols, dtype=_DTYPES[code])
        except (MemoryError, ValueError) as exc:  # more than numpy can hold
            end = _HEADER.size + _drain(fh)
            if end != expected:
                raise size_error(end) from None
            raise DataError(f"{path}: cannot shape {rows}x{cols}: {exc}") from exc
        got = fh.readinto(values)  # a buffered read fills it unless the stream ends
        tail = fh.read(4)
        end = _HEADER.size + got + len(tail) + _drain(fh)
    if end != expected:
        raise size_error(end)
    (stored_crc,) = struct.unpack("<I", tail)
    actual_crc = zlib.crc32(values)
    if stored_crc != actual_crc:
        raise DataError(
            f"{path}: CRC-32 mismatch at byte offset {_HEADER.size + payload_len}: "
            f"stored 0x{stored_crc:08x}, computed 0x{actual_crc:08x}"
        )
    values = values.astype(np.float64, copy=False)  # widens binary32 only
    try:
        return values.reshape(rows, cols)
    except ValueError as exc:  # a zero-size shape too large for numpy, e.g. 0 x 2**62
        raise DataError(f"{path}: cannot shape {rows}x{cols}: {exc}") from exc


# The knowledge-base reader calls the EMB1 reader by this name, so a wrapper
# installed over ``read_embeddings`` (perfbench's trace) times the images alone.
_read_emb1 = read_embeddings


def read_knowledge_base(path) -> KnowledgeBase:
    """Parse a knowledge-base JSON document into a validated ``KnowledgeBase``.

    Each class lists its description texts; an optional ``name_embedding``
    row makes the class usable as a name-proxy baseline. The description
    embeddings come in one of two forms: a top-level ``"embeddings_file"``
    names one EMB1 file, resolved against the KB's directory, that holds
    every description row in class order, or each class carries its own
    inline ``embeddings`` rows. This reader checks what the files can get
    wrong (types, booleans, ragged arrays, ``dim``, the EMB1 shape and CRC);
    ``ClassRecord`` and ``KnowledgeBase`` check the rest. Every error names
    ``path``.
    """
    doc = _read_json(path)
    try:
        return _knowledge_base(doc, Path(path))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _embeddings_file(doc: dict, path: Path) -> Path | None:
    """The EMB1 file ``doc`` names, resolved against the KB's directory, or None."""
    if "embeddings_file" not in doc:
        return None
    name = doc["embeddings_file"]
    if not isinstance(name, str) or not name:
        raise DataError(f"'embeddings_file' must be a nonempty file name, got {name!r}")
    return path.parent / name


def _split_rows(emb_path: Path, counts: list[int], dim: int) -> list[np.ndarray]:
    """The rows of the EMB1 file ``emb_path``, one block of ``counts[j]`` rows per class."""
    try:
        matrix = _read_emb1(emb_path)
    except (OSError, ValueError) as exc:  # ValueError: a name the OS cannot take (NUL)
        reason = getattr(exc, "strerror", None) or exc
        raise DataError(f"embeddings file {emb_path}: {reason}") from None
    except DataError as exc:  # its message starts with the EMB1 path
        raise DataError(f"embeddings file {exc}") from None
    rows, cols = matrix.shape
    if rows != sum(counts):
        raise DataError(
            f"embeddings file {emb_path} has {rows} rows but the classes list "
            f"{sum(counts)} descriptions"
        )
    if cols != dim:
        raise DataError(f"embeddings file {emb_path} has {cols} columns but 'dim' is {dim}")
    return np.split(matrix, np.cumsum(counts)[:-1])


def _knowledge_base(doc, path: Path) -> KnowledgeBase:
    if not isinstance(doc, dict):
        raise DataError("top level must be an object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise DataError(f"'dim' must be a positive integer, got {dim!r}")
    classes = doc.get("classes")
    if not isinstance(classes, list):
        raise DataError("'classes' must be a list")
    emb_path = _embeddings_file(doc, path)
    parsed = []  # (name, descriptions, name embedding) of each class
    inline = []  # each class's embedding rows, when the KB names no EMB1 file
    for pos, entry in enumerate(classes):
        if not isinstance(entry, dict):
            raise DataError(f"class {pos} must be an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise DataError(f"class {pos} has no usable 'name'")
        descriptions = entry.get("descriptions")
        if not isinstance(descriptions, list) or not all(
            isinstance(t, str) for t in descriptions
        ):
            raise DataError(f"class {name!r} needs a list of description strings")
        if emb_path is None:
            if "embeddings" not in entry:
                raise DataError(f"class {name!r} has no 'embeddings'")
            inline.append(
                _numeric_array(entry["embeddings"], f"class {name!r} embeddings", ndim=2)
            )
        elif "embeddings" in entry:
            raise DataError(
                f"class {name!r} has inline 'embeddings' but the KB names "
                f"'embeddings_file' {emb_path}; give one or the other"
            )
        name_emb = entry.get("name_embedding")
        if name_emb is not None:
            name_emb = _numeric_array(name_emb, f"class {name!r} name_embedding", ndim=1)
        parsed.append((name, descriptions, name_emb))
    if emb_path is None:
        rows = inline
    else:
        rows = _split_rows(emb_path, [len(d) for _, d, _ in parsed], dim)
    records = [ClassRecord(n, tuple(d), emb, ne) for (n, d, ne), emb in zip(parsed, rows)]
    return KnowledgeBase(classes=tuple(records), dim=dim, embeddings_file=emb_path)


def knowledge_base_embeddings_path(path) -> Path:
    """Where ``write_knowledge_base(kb, path)`` puts the EMB1 file: never ``path`` itself.

    ``kb.json`` gives ``kb.emb``; a KB path that already ends in ``.emb``
    gets a second one.
    """
    path = Path(path)
    emb = path.with_suffix(".emb")
    return emb if emb != path else path.with_name(path.name + ".emb")


def write_knowledge_base(kb: KnowledgeBase, path) -> None:
    """Write ``kb`` as the JSON document and EMB1 file that ``read_knowledge_base`` reads back.

    Every description embedding goes, in class order, into the binary64 EMB1
    file that ``knowledge_base_embeddings_path(path)`` gives; the JSON names
    it relative to its own directory.
    """
    emb_path = knowledge_base_embeddings_path(path)
    write_embeddings(np.concatenate([rec.embeddings for rec in kb.classes]), emb_path)
    classes = []
    for rec in kb.classes:
        entry = {"name": rec.name, "descriptions": list(rec.descriptions)}
        if rec.name_embedding is not None:
            entry["name_embedding"] = rec.name_embedding.tolist()
        classes.append(entry)
    write_report({"dim": kb.dim, "embeddings_file": emb_path.name, "classes": classes}, path)


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


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _json_key(key) -> str:
    """A dict key as ``json.dumps`` quotes it: strings, and the scalars it converts."""
    if not isinstance(key, (str, int, float)) and key is not None:
        raise TypeError(
            f"keys must be str, int, float, bool or None, not {type(key).__name__}"
        )
    return encode_basestring_ascii(key if isinstance(key, str) else _json(key, ""))


def _json(value, indent: str) -> str:
    """``value`` exactly as ``json.dumps(value, indent=2)`` writes it, ``indent`` deep.

    A flat list of ints (predictions, selected indices) is joined in one
    pass; everything else follows ``json.dumps`` element by element.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:
            items = map(int.__repr__, value)
        else:
            items = (_json(v, inner) for v in value)
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (f"{_json_key(k)}: {_json(v, inner)}" for k, v in value.items())
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    return json.dumps(value)  # raises json's TypeError for what it cannot encode


def write_report(doc, path) -> None:
    """Write ``json.dumps(doc, indent=2)`` and a newline; equal documents give equal bytes.

    The bytes are ``json.dumps``'s, written without Python's indenting
    encoder, which spends about half a microsecond on each list item.
    """
    Path(path).write_text(_json(doc, "") + "\n", encoding="utf-8")


def write_predictions_csv(path, predictions, class_names) -> None:
    """Two-column CSV: image index, predicted class name."""
    fields = [
        '"' + name.replace('"', '""') + '"' if any(c in name for c in ',"\r\n') else name
        for name in class_names
    ]
    lines = ["index,predicted_class_name"]
    labels = np.asarray(predictions).tolist()  # Python ints in one numpy pass
    lines += [f"{i},{fields[label]}" for i, label in enumerate(labels)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
