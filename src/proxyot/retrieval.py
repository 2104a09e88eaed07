"""Description retrieval and text-proxy construction.

A knowledge base pairs each class with a pool of description texts and
their precomputed unit-norm embeddings. Retrieval scores every description
of a class against the mean image embedding of the dataset, keeps the top
k, and averages the survivors into one unit proxy vector per class.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, UsageError
from .learner import ProxyWeights
from .numerics import _as_2d, as_matrix, as_vector, l2_normalize_rows

__all__ = [
    "ClassRecord",
    "KnowledgeBase",
    "RetrievalResult",
    "top_k",
    "retrieve",
    "build_text_proxies",
    "description_proxies",
]


@dataclass(frozen=True)
class ClassRecord:
    """One class: its name, description texts, and their embedding rows."""

    name: str
    descriptions: tuple[str, ...]
    embeddings: np.ndarray
    name_embedding: np.ndarray | None = None

    def __post_init__(self):
        emb = as_matrix(self.embeddings, f"embeddings of class {self.name!r}")
        if len(self.descriptions) == 0:
            raise DataError(f"class {self.name!r} has no descriptions")
        if emb.shape[0] != len(self.descriptions):
            raise DataError(
                f"class {self.name!r}: {len(self.descriptions)} descriptions "
                f"but {emb.shape[0]} embedding rows"
            )
        norms = np.linalg.norm(emb, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            row = int(np.flatnonzero(np.abs(norms - 1.0) > 1e-6)[0])
            raise DataError(
                f"class {self.name!r}: embedding row {row} has norm "
                f"{norms[row]:.9f}, expected 1"
            )
        object.__setattr__(self, "embeddings", emb)
        object.__setattr__(self, "descriptions", tuple(self.descriptions))
        if self.name_embedding is not None:
            ne = as_vector(self.name_embedding, f"name embedding of {self.name!r}")
            if ne.size != emb.shape[1]:
                raise DataError(
                    f"class {self.name!r}: name embedding has dim {ne.size}, "
                    f"expected {emb.shape[1]}"
                )
            object.__setattr__(self, "name_embedding", ne)

    @property
    def n_descriptions(self) -> int:
        return len(self.descriptions)


@dataclass(frozen=True)
class KnowledgeBase:
    """Ordered class records sharing one embedding dimension."""

    classes: tuple[ClassRecord, ...]
    dim: int
    # the EMB1 file the description embeddings were read from, if one was
    embeddings_file: Path | None = None

    def __post_init__(self):
        if len(self.classes) == 0:
            raise DataError("knowledge base has no classes")
        seen: set[str] = set()
        for rec in self.classes:
            if rec.name in seen:
                raise DataError(f"duplicate class name {rec.name!r} in knowledge base")
            seen.add(rec.name)
            if rec.embeddings.shape[1] != self.dim:
                raise DataError(
                    f"class {rec.name!r} embeddings have dim "
                    f"{rec.embeddings.shape[1]}, expected {self.dim}"
                )
        object.__setattr__(self, "classes", tuple(self.classes))

    @property
    def names(self) -> list[str]:
        return [rec.name for rec in self.classes]

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def name_embedding_matrix(self) -> np.ndarray:
        """Stack per-class name embeddings; a missing or non-unit one is a data error."""
        missing = [rec.name for rec in self.classes if rec.name_embedding is None]
        if missing:
            raise DataError(
                f"knowledge base has no name embeddings for: {', '.join(missing)}"
            )
        mat = np.stack([rec.name_embedding for rec in self.classes])
        norms = np.linalg.norm(mat, axis=1)
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-9))  # NaN norms fail too
        if bad.size:
            raise DataError(
                f"class {self.classes[bad[0]].name!r}: name embedding has norm "
                f"{float(norms[bad[0]])}, expected 1"
            )
        return mat


@dataclass(frozen=True)
class RetrievalResult:
    """Per class: indices of the selected descriptions and their scores.

    Scores are sorted non-increasing; indices are distinct positions into the
    class's description list.
    """

    selected: tuple[np.ndarray, ...]
    scores: tuple[np.ndarray, ...]
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise UsageError(f"k must be >= 1, got {self.k}")
        if len(self.selected) != len(self.scores):
            raise UsageError("selection and score lists differ in class count")
        for j, (idx, s) in enumerate(zip(self.selected, self.scores)):
            if len(idx) != self.k or len(s) != self.k:
                raise UsageError(f"class {j}: selection size differs from k={self.k}")
            if len(set(int(i) for i in idx)) != len(idx):
                raise UsageError(f"class {j}: selected indices are not distinct")
            if np.any(np.diff(s) > 0):
                raise UsageError(f"class {j}: scores are not sorted non-increasing")


def top_k(scores, k: int) -> np.ndarray:
    """Indices of the k largest scores, best first; ties keep the lower index."""
    s = as_vector(scores, "scores")
    if k < 1 or k > s.size:
        raise UsageError(f"k must be in [1, {s.size}], got {k}")
    return np.argsort(-s, kind="stable")[:k]


def retrieve(images, kb: KnowledgeBase, k: int) -> RetrievalResult:
    """Score every description against the mean image; keep each class's top k.

    A description's score is its cosine with the arithmetic mean of the image
    rows, which is deliberately left unnormalized. The inputs are checked once,
    before any class is scored; only a non-finite mean makes ``as_matrix``
    scan the images to name the entry.
    """
    mat = _as_2d(images, "image embeddings")
    if mat.shape[0] == 0:
        raise UsageError("cannot take the mean image feature of an empty dataset")
    with np.errstate(invalid="ignore"):  # inf - inf
        feat = mat.mean(axis=0)
    if not np.all(np.isfinite(feat)):
        as_matrix(mat, "image embeddings")
    if feat.size != kb.dim:
        raise UsageError(
            f"mean image feature has dim {feat.size} but the knowledge base has dim {kb.dim}"
        )
    for rec in kb.classes:
        if k > rec.n_descriptions:
            raise UsageError(
                f"k={k} exceeds the {rec.n_descriptions} descriptions "
                f"of class {rec.name!r}"
            )
    feat_norm = np.linalg.norm(feat)
    if feat_norm == 0.0:
        raise DataError("mean image feature is the zero vector; scores are undefined")
    selected = []
    score_lists = []
    for rec in kb.classes:
        emb = rec.embeddings
        scores = (emb @ feat) / (feat_norm * np.linalg.norm(emb, axis=1))
        idx = top_k(scores, k)
        selected.append(idx)
        score_lists.append(scores[idx])
    return RetrievalResult(tuple(selected), tuple(score_lists), k)


def build_text_proxies(kb: KnowledgeBase, selection: RetrievalResult) -> ProxyWeights:
    """Average each class's selected description embeddings into a unit proxy row."""
    if len(selection.selected) != kb.n_classes:
        raise UsageError(
            f"selection covers {len(selection.selected)} classes, "
            f"knowledge base has {kb.n_classes}"
        )
    rows = []
    for rec, idx in zip(kb.classes, selection.selected):
        idx = np.asarray(idx)
        n = len(rec.embeddings)
        if idx.dtype.kind not in "iu" or np.any((idx < 0) | (idx >= n)):
            raise UsageError(
                f"class {rec.name!r}: selected indices {idx.tolist()} are not "
                f"integers in [0, {n})"
            )
        rows.append(rec.embeddings[idx].mean(axis=0))
    return _unit_proxies(kb, rows, f"top-{selection.k} descriptions")


def description_proxies(kb: KnowledgeBase) -> ProxyWeights:
    """Average all descriptions per class (the no-retrieval baseline proxies)."""
    rows = [rec.embeddings.mean(axis=0) for rec in kb.classes]
    return _unit_proxies(kb, rows, "descriptions")


def _unit_proxies(kb: KnowledgeBase, rows, averaged: str) -> ProxyWeights:
    """Scale one mean row per class to unit norm; a zero mean is named by its class."""
    mat = np.stack(rows)
    zero = np.flatnonzero(~mat.any(axis=1))
    if zero.size:
        raise DataError(
            f"class {kb.classes[zero[0]].name!r}: its {averaged} average to the zero vector"
        )
    return ProxyWeights(l2_normalize_rows(mat))
