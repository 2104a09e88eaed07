"""Synthetic embedding fixtures with a controllable modality gap.

Images are unit-normalized draws from spherical Gaussian clusters around
orthonormal class directions. The text side lives in a displaced copy of
that space: description embeddings are noisy copies of the class direction
pushed through a random equal-angle rotation plus a constant offset vector,
so every class direction sits at exactly the requested angle from its text
counterpart before the offset. Name embeddings are a single, noisier draw
from the same displaced model, mimicking a terse class name.

Everything is driven by one 64-bit seed; identical seeds give byte-identical
fixture files.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import UsageError
from .io import (
    knowledge_base_embeddings_path,
    write_embeddings,
    write_knowledge_base,
    write_report,
)
from .numerics import _finite_settings, l2_normalize_rows
from .retrieval import ClassRecord, KnowledgeBase

__all__ = ["FixtureSpec", "Fixture", "generate_fixture", "write_fixture"]

# Name embeddings default to this many times the description noise; a single
# class name carries far less signal than a pool of curated descriptions.
NAME_NOISE_FACTOR = 5.0


@dataclass(frozen=True)
class FixtureSpec:
    n_images: int = 300
    n_classes: int = 5
    dim: int = 32
    separation: float = 3.5
    angle_deg: float = 25.0
    offset: float = 0.3
    noise: float = 0.05
    descriptions_per_class: int = 20
    name_noise: float | None = None  # resolved to NAME_NOISE_FACTOR * noise

    def __post_init__(self):
        if self.n_images < 1:
            raise UsageError(f"need at least one image, got {self.n_images}")
        if self.n_classes < 2:
            raise UsageError(f"need at least two classes, got {self.n_classes}")
        if self.dim < self.n_classes:
            raise UsageError(
                f"dim {self.dim} cannot hold {self.n_classes} orthonormal class directions"
            )
        if not self.separation > 0:
            raise UsageError(f"separation must be positive, got {self.separation}")
        if not (self.noise >= 0 and self.offset >= 0 and self.angle_deg >= 0):
            raise UsageError("angle, offset and noise must be nonnegative")
        if self.descriptions_per_class < 1:
            raise UsageError("each class needs at least one description")
        # the largest array a fixture draws is max(N, dim, descriptions) x dim float64
        longest = max(self.n_images, self.dim, self.descriptions_per_class)
        if longest * self.dim * 8 > np.iinfo(np.intp).max:
            raise UsageError(f"{_sizes(self)} are more than numpy can index")
        if self.name_noise is not None and not self.name_noise >= 0:
            raise UsageError(f"name_noise must be nonnegative, got {self.name_noise}")
        _finite_settings(self, "separation", "angle_deg", "offset", "noise", "name_noise")

    @property
    def resolved_name_noise(self) -> float:
        if self.name_noise is not None:
            return self.name_noise
        return NAME_NOISE_FACTOR * self.noise


def _sizes(spec: FixtureSpec) -> str:
    return (
        f"{spec.n_images} images, {spec.n_classes} classes, dim {spec.dim} and "
        f"{spec.descriptions_per_class} descriptions per class"
    )


@dataclass
class Fixture:
    images: np.ndarray      # (N, d) unit rows
    labels: np.ndarray      # (N,) class indices
    kb: KnowledgeBase       # unit description and name embedding rows
    manifest: dict


def _equal_angle_rotation(rng: np.random.Generator, dim: int, angle_deg: float) -> np.ndarray:
    """Random orthogonal matrix rotating every vector by ``angle_deg``.

    Built as 2x2 rotation blocks over a random orthonormal basis, so
    <v, Rv> = cos(angle) * |v|^2 for every v (exactly, when dim is even;
    one basis direction stays fixed when dim is odd).
    """
    theta = math.radians(angle_deg)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    block = np.eye(dim)
    c, s = math.cos(theta), math.sin(theta)
    for i in range(0, dim - 1, 2):
        block[i, i] = c
        block[i + 1, i + 1] = c
        block[i, i + 1] = -s
        block[i + 1, i] = s
    return basis @ block @ basis.T


def _finite(draw: np.ndarray, setting: str) -> np.ndarray:
    """``draw``, unless the ``setting`` that scales it is too large to keep it finite."""
    if not np.all(np.isfinite(draw)):
        raise UsageError(f"{setting} is too large: its fixture draw is not finite")
    return draw


def generate_fixture(seed: int, spec: FixtureSpec) -> Fixture:
    """Draw a complete fixture (images, labels, knowledge base) from one seed."""
    if seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {seed}")
    try:
        return _draw(seed, spec)
    except MemoryError as exc:
        raise UsageError(f"{_sizes(spec)} do not fit in memory: {exc}") from None


@np.errstate(over="ignore", invalid="ignore")  # a draw that overflows is rejected below
def _draw(seed: int, spec: FixtureSpec) -> Fixture:
    rng = np.random.default_rng(seed)
    n, k, d = spec.n_images, spec.n_classes, spec.dim

    means, _ = np.linalg.qr(rng.standard_normal((d, k)))
    means = means.T  # (k, d) orthonormal class directions

    # Balanced labels so the uniform class marginal is the true one.
    counts = np.full(k, n // k)
    counts[: n % k] += 1
    labels = np.repeat(np.arange(k), counts)
    rng.shuffle(labels)

    images = l2_normalize_rows(_finite(
        spec.separation * means[labels] + rng.standard_normal((n, d)), "separation"
    ))

    rotation = _equal_angle_rotation(rng, d, spec.angle_deg)
    offset_dir = rng.standard_normal(d)
    offset_vec = spec.offset * offset_dir / np.linalg.norm(offset_dir)
    text_centers = _finite(means @ rotation.T + offset_vec, "offset")  # (k, d)

    description_embeddings = [
        l2_normalize_rows(_finite(
            text_centers[j]
            + spec.noise * rng.standard_normal((spec.descriptions_per_class, d)), "noise"
        ))
        for j in range(k)
    ]
    name_embeddings = l2_normalize_rows(_finite(
        text_centers + spec.resolved_name_noise * rng.standard_normal((k, d)), "name_noise"
    ))
    records = []
    for j, (emb, name_emb) in enumerate(zip(description_embeddings, name_embeddings)):
        name = f"class_{j:02d}"
        texts = tuple(
            f"distinguishing visual pattern {l:02d} of {name}"
            for l in range(spec.descriptions_per_class)
        )
        records.append(ClassRecord(name, texts, emb, name_emb))
    kb = KnowledgeBase(tuple(records), dim=d)

    manifest = {
        "seed": int(seed),
        **asdict(spec),
        "name_noise": spec.resolved_name_noise,
        "class_counts": counts.tolist(),
        "files": {
            "images": "images.emb",
            "labels": "labels.txt",
            "knowledge_base": "kb.json",
            "knowledge_base_embeddings": knowledge_base_embeddings_path("kb.json").name,
        },
    }
    return Fixture(images=images, labels=labels, kb=kb, manifest=manifest)


def write_fixture(fixture: Fixture, out_dir) -> dict:
    """Write the files that ``manifest["files"]`` names, and manifest.json, into ``out_dir``.

    The knowledge base's EMB1 file lands beside it, under the name the
    manifest gives.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = fixture.manifest["files"]
    write_embeddings(fixture.images, out / files["images"])
    names = fixture.kb.names
    (out / files["labels"]).write_text(
        "\n".join(names[j] for j in fixture.labels) + "\n", encoding="utf-8"
    )
    write_knowledge_base(fixture.kb, out / files["knowledge_base"])
    write_report(fixture.manifest, out / "manifest.json")
    return fixture.manifest
