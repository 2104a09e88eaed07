#!/usr/bin/env python3
"""Tour the file formats: EMB1 matrices with CRC, knowledge-base JSON, marginals."""

import json
import tempfile
from pathlib import Path

import numpy as np

from proxyot import DataError
from proxyot import io as pio

work = Path(tempfile.mkdtemp(prefix="formats-"))
rng = np.random.default_rng(1)

# --- EMB1: magic, version, dtype code, dims, payload, trailing CRC-32 ---
m = rng.standard_normal((3, 4))
emb = work / "demo.emb"
pio.write_embeddings(m, emb)
blob = emb.read_bytes()
print(f"EMB1 file is {len(blob)} bytes: 23 header + {3*4*8} payload + 4 CRC")
print("header bytes:", blob[:23].hex(" "))

back = pio.read_embeddings(emb)
print("round trip bit-identical:", np.array_equal(back, m))

corrupted = bytearray(blob)
corrupted[40] ^= 0x01  # single bit flip inside the payload
(work / "bad.emb").write_bytes(bytes(corrupted))
try:
    pio.read_embeddings(work / "bad.emb")
except DataError as exc:
    print("single-bit corruption detected:", exc)

# --- knowledge base JSON: per-class descriptions plus unit embedding rows ---
kb_doc = {
    "dim": 2,
    "classes": [
        {
            "name": "crescent",
            "descriptions": ["thin bright arc", "dark core"],
            "embeddings": [[1.0, 0.0], [0.0, 1.0]],
            "name_embedding": [1.0, 0.0],
        },
        {
            "name": "disk",
            "descriptions": ["filled circle"],
            "embeddings": [[0.0, 1.0]],
        },
    ],
}
kb_path = work / "kb.json"
kb_path.write_text(json.dumps(kb_doc, indent=2))
kb = pio.read_knowledge_base(kb_path)
print(f"\nknowledge base: {kb.n_classes} classes, dim {kb.dim}, names {kb.names}")

# Write it back out and read it again: the writer is the reader's inverse.
kb2_path = work / "kb_copy.json"
pio.write_knowledge_base(kb, kb2_path)
kb2 = pio.read_knowledge_base(kb2_path)
same = all(np.array_equal(a.embeddings, b.embeddings) for a, b in zip(kb.classes, kb2.classes))
print("written and read back:", kb2.names, "embeddings bit-identical:", same)

# A knowledge-base rule violation names the file it came from.
kb_doc["classes"][1]["embeddings"] = [[0.0, 2.0]]
kb_path.write_text(json.dumps(kb_doc))
try:
    pio.read_knowledge_base(kb_path)
except DataError as exc:
    print("non-unit row rejected:", exc)

# --- class marginal: JSON weights, renormalized exactly ---
(work / "q.json").write_text("[2, 2]")
q = pio.read_marginal(work / "q.json")
print("\nmarginal [2, 2] renormalizes to", q.q.tolist())

# --- labels: one line each, indices or class names ---
(work / "y.txt").write_text("crescent\n1\ndisk\n0\n")
labels = pio.read_labels(work / "y.txt", kb)
print("labels resolve to", labels.tolist())
