#!/usr/bin/env python3
"""Walk through description retrieval on a tiny hand-built knowledge base.

Two classes, four candidate descriptions each. The dataset's mean image
embedding scores every description by cosine; the top k per class are
averaged into one unit-norm text proxy per class.
"""

import numpy as np

from proxyot import (
    ClassRecord,
    KnowledgeBase,
    build_text_proxies,
    description_proxies,
    retrieve,
)
from proxyot.numerics import l2_normalize_rows

rng = np.random.default_rng(7)

# Image space: two clusters around orthogonal directions in 6-d.
axis_a = np.array([1.0, 0, 0, 0, 0, 0])
axis_b = np.array([0, 1.0, 0, 0, 0, 0])
images = l2_normalize_rows(
    np.vstack(
        [
            3.0 * axis_a + 0.3 * rng.standard_normal((10, 6)),
            3.0 * axis_b + 0.3 * rng.standard_normal((10, 6)),
        ]
    )
)

# Text side: for each class, two on-topic descriptions near the class axis
# and two off-topic ones pointing elsewhere.
def noisy(direction, scale):
    return l2_normalize_rows(direction + scale * rng.standard_normal((1, 6)))[0]

kb = KnowledgeBase(
    dim=6,
    classes=(
        ClassRecord(
            name="ring",
            descriptions=(
                "bright ring boundary",
                "circular halo",
                "unrelated speckle",
                "generic texture",
            ),
            embeddings=np.vstack(
                [noisy(axis_a, 0.1), noisy(axis_a, 0.15), noisy(axis_b, 0.2), noisy(-axis_a, 0.4)]
            ),
        ),
        ClassRecord(
            name="streak",
            descriptions=(
                "elongated streak",
                "linear smear",
                "unrelated blob",
                "generic texture",
            ),
            embeddings=np.vstack(
                [noisy(axis_b, 0.1), noisy(axis_b, 0.15), noisy(axis_a, 0.2), noisy(-axis_b, 0.4)]
            ),
        ),
    ),
)

print("mean image feature (first 3 coords):", np.round(images.mean(axis=0)[:3], 3))

# k = 4 keeps every description, best first; k = 2 is the selection that is averaged
ranked = retrieve(images, kb, k=4)
selection = retrieve(images, kb, k=2)
for rec, order, scores, chosen in zip(
    kb.classes, ranked.selected, ranked.scores, selection.selected
):
    print(f"\nclass {rec.name!r} description scores, best first:")
    for l, s in zip(order, scores):
        marker = " <-- selected" if l in chosen else ""
        print(f"  [{l}] {s:+.3f}  {rec.descriptions[l]}{marker}")

proxies = build_text_proxies(kb, selection)
print("\ntop-2 retrieved proxies:")
print(np.round(proxies.w, 3))

all_mean = description_proxies(kb)
print("\nall-description mean proxies for comparison:")
print(np.round(all_mean.w, 3))
print(
    "\nretrieval discards the off-topic descriptions, so the retrieved proxies "
    "hug the class axes more tightly than the plain means."
)
