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

Reports, and the JSON half of a knowledge base, are written by
``write_report``: the bytes of ``json.dumps(doc, indent=2)`` plus a newline,
with one join for each flat list of ints, through one string per distinct
value. ``write_predictions_csv`` builds its CSV as bytes in numpy, in bounded
blocks of rows whose indices share one digit width, and ``read_labels``
resolves each distinct line of a label file once.
"""

from __future__ import annotations

import itertools
import json
import struct
import zlib
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
    try:  # utf-8-sig: UTF-8 that drops one leading byte-order mark
        return Path(path).read_text(encoding="utf-8-sig")
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
    with np.errstate(invalid="ignore"):  # a binary32 signaling NaN; later checks name it
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
        try:  # JSON's \ud800 escape gives a lone surrogate, which UTF-8 cannot encode
            name.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise DataError(
                f"class {pos} 'name' {name!r} is not valid Unicode text: {exc.reason} "
                f"at character {exc.start}"
            ) from None
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


# Characters per block of label lines: the reader holds one block's line
# strings at a time, not one string per line of the file.
_LABEL_BLOCK_CHARS = 1 << 16


def read_labels(path, kb: KnowledgeBase) -> np.ndarray:
    """Read one label per line: a class index or a class name from the base.

    A line ends at ``\\n`` (``_read_text`` has turned ``\\r\\n`` and ``\\r``
    into it), and surrounding whitespace is stripped from its token. A token
    of ASCII digits is an index, leading zeros allowed, even where a class
    has that name; any other token (``+1``, ``1_0``, non-ASCII digits) must
    be a class name. Each distinct line is resolved once, through one table
    of names and index strings, into a memo that later blocks read; a block
    that finds the memo over twice the table's size empties it first.

    The reader holds the decoded text plus one block of whole lines (about
    ``_LABEL_BLOCK_CHARS`` characters), the memo of at most twice the
    table's lines plus one block's, and the int64 array it returns.
    """
    text = _read_text(path)
    if not text:
        raise DataError(f"{path}: label file is empty")
    table = {name: j for j, name in enumerate(kb.names) if name and not _is_index(name)}
    table.update((str(j), j) for j in range(kb.n_classes))
    codes = {}  # each distinct line seen so far -> its class index
    end = len(text) - text.endswith("\n")  # a final newline ends the last line, starts none
    labels = np.empty(text.count("\n", 0, end) + 1, dtype=np.int64)
    row = start = 0
    while start <= end:  # a block of whole lines ends at a newline or at `end`
        stop = text.find("\n", start + _LABEL_BLOCK_CHARS, end)
        stop = end if stop < 0 else stop
        lines = text[start:stop].split("\n")
        try:
            block = np.fromiter(map(codes.__getitem__, lines), np.int64, len(lines))
        except KeyError:  # a line not seen before: resolve this block's new lines
            if len(codes) > 2 * len(table):  # many spellings of a label: keep no old ones
                codes.clear()
            for line in set(lines).difference(codes):
                key = _label_key(line.strip())
                if key in table:
                    codes[line] = table[key]
            bad = next((i for i, line in enumerate(lines) if line not in codes), None)
            if bad is not None:
                raise _label_error(path, kb, row + bad + 1, lines[bad].strip()) from None
            block = np.fromiter(map(codes.__getitem__, lines), np.int64, len(lines))
        labels[row : row + len(lines)] = block
        row += len(lines)
        start = stop + 1
    return labels


def _label_key(token: str) -> str:
    """A token's table key: an index's digits without leading zeros, else the token."""
    return token.lstrip("0") or "0" if _is_index(token) else token


def _label_error(path, kb: KnowledgeBase, lineno: int, token: str) -> DataError:
    """The error for line ``lineno`` of ``path``, whose stripped token ``token`` failed."""
    if not token:
        return DataError(f"{path}:{lineno}: empty label line")
    if _is_index(token):
        return DataError(f"{path}:{lineno}: label index {token} out of range [0, {kb.n_classes})")
    return DataError(f"{path}:{lineno}: label {token!r} is not a class name in the knowledge base")


def _is_index(token: str) -> bool:
    """Whether a label token is a class index: one or more ASCII digits."""
    return token.isascii() and token.isdigit()


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


def _json(value, indent: str) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, ``indent`` deep.

    Dicts with only str keys are walked and a flat list of ints is joined in
    one pass; every other value is ``json.dumps``'s own output, re-indented
    (it escapes newlines inside strings, so each one it writes ends a line).
    """
    inner = indent + "  "
    if isinstance(value, dict) and value and all(type(k) is str for k in value):
        items = (f"{json.dumps(k)}: {_json(v, inner)}" for k, v in value.items())
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    if isinstance(value, (list, tuple)) and set(map(type, value)) == {int}:
        reprs = {v: int.__repr__(v) for v in set(value)}  # one string per distinct value
        items = map(reprs.__getitem__, value)
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def write_report(doc, path) -> None:
    """Write ``json.dumps(doc, indent=2)`` and a newline; equal documents give equal bytes.

    A flat list of ints (predictions, selected indices) is joined in one
    pass instead of through Python's indenting encoder, which spends about
    half a microsecond on each list item; each distinct value is turned into
    a string once. A list that mixes ints with booleans or floats is left to
    ``json.dumps``.
    """
    Path(path).write_text(_json(doc, "") + "\n", encoding="utf-8")


# Bytes per block of CSV rows: the writer holds the labels and one block of
# rows (with its length mask) at a time, whatever the length of a class name.
_CSV_BLOCK_BYTES = 1 << 20


def write_predictions_csv(path, predictions, class_names) -> None:
    """Two-column CSV: image index, predicted class name.

    Line ``i`` is ``f"{i},{field}\\n"``, where a name holding a comma, quote,
    CR or LF is quoted with its quotes doubled, in UTF-8. ``predictions``
    is any sequence of class indices, each taken as ``class_names[label]``
    takes it: negative ones count from the end, and one that indexing
    refuses raises what indexing raises, before the file is opened.

    The bytes are built in numpy, in blocks of rows whose indices have one
    digit width (about ``_CSV_BLOCK_BYTES`` each): each class's ``",field\\n"``
    suffix is encoded once into a table row, and the digits are written a
    column at a time. Where the suffixes in a block differ in length, a
    mask by length drops the padding.
    """
    suffixes = [
        (',"' + name.replace('"', '""') + '"\n' if any(c in name for c in ',"\r\n')
         else f",{name}\n").encode("utf-8")
        for name in class_names
    ]
    lens = np.fromiter(map(len, suffixes), dtype=np.intp, count=len(suffixes))
    wide = int(lens.max(initial=0))
    table = np.frombuffer(b"".join(s.ljust(wide, b"\0") for s in suffixes), dtype=np.uint8)
    table = table.reshape(len(suffixes), wide)
    labels = _class_rows(predictions, len(suffixes))
    step = max(1, _CSV_BLOCK_BYTES // (wide + len(str(len(labels)))))  # rows per block
    with open(path, "wb") as fh:
        fh.write(b"index,predicted_class_name\n")
        first, width = 0, 1
        while first < len(labels):  # the indices [first, end) all have `width` digits
            end = min(10 * first or 10, len(labels))
            for lo in range(first, end, step):
                fh.write(_csv_rows(table, lens, labels, lo, min(lo + step, end), width))
            first, width = end, width + 1


def _csv_rows(table, lens, labels, lo: int, hi: int, width: int) -> np.ndarray:
    """The CSV bytes of rows ``lo`` to ``hi``, whose indices all have ``width`` digits."""
    rows = labels[lo:hi]
    row_lens = lens[rows]
    short, long = int(row_lens.min()), int(row_lens.max())
    block = np.empty((hi - lo, width + long), dtype=np.uint8)
    index = np.arange(lo, hi, dtype=np.min_scalar_type(hi))
    for c in range(width - 1, -1, -1):  # the last digit first
        block[:, c] = index % 10 + 48
        index //= 10
    # every row is in range; mode "raise" would also copy through a buffer
    np.take(table[:, :long], rows, axis=0, out=block[:, width:], mode="clip")
    if short != long:
        block = block[np.arange(width + long) < (row_lens + width)[:, None]]
    return block


def _class_rows(predictions, k: int) -> np.ndarray:
    """``predictions`` as indices into a list of ``k`` items, each as list indexing takes it.

    A list or tuple of ints in [0, min(k, 256)) is checked in one pass
    through ``bytearray``; anything else is indexed one at a time through
    a list of positions, so the first prediction that indexing refuses
    raises what it raises, and a negative one comes back as the position
    it counts to. Every index returned is in [0, k).
    """
    if isinstance(predictions, (list, tuple)):
        try:  # bytearray takes each item's __index__, as list indexing does
            labels = np.frombuffer(bytearray(predictions), dtype=np.uint8)
        except (TypeError, ValueError):
            pass
        else:
            if not labels.size or labels.max() < k:
                return labels
    positions = list(range(k))
    return np.fromiter(map(positions.__getitem__, predictions), dtype=np.intp)
