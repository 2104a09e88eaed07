"""End-to-end runs: baselines, retrieval-only classification, and the full chain.

``load`` is the only path from input files to validated arrays. ``run``
composes the stage functions over its result into one mode and returns a
reproducible report; the CLI's stage subcommands call the same functions.
``bench_solvers`` races the transport solvers over one instance. The modes:

* ``clip_baseline``       -- classify with class-name embeddings as proxies.
* ``description_baseline``-- classify with all-description mean proxies.
* ``kpl_text``            -- classify with retrieved top-k mean proxies.
* ``kpl_full``            -- retrieved proxies guide transport pseudo-labels,
  which train multimodal proxies; classify with those.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import io as pio
from .errors import DataError, NumericError, UsageError
from .learner import LearnConfig, ProxyWeights, classify, learn
from .numerics import l2_normalize_rows
from .retrieval import KnowledgeBase, build_text_proxies, description_proxies, retrieve
from .solvers import (
    ClassMarginal,
    PseudoLabels,
    SolverConfig,
    entropic_objective,
    pseudo_labels,
    solve,
)

__all__ = [
    "MODES", "RunSpec", "Inputs", "load", "text_stage", "transport_stage", "learn_stage",
    "run", "accuracy", "bench_solvers",
]

MODES = ("clip_baseline", "description_baseline", "kpl_text", "kpl_full")


@dataclass(frozen=True)
class RunSpec:
    """Everything one pipeline invocation needs, resolved to concrete values."""

    mode: str
    images: str | Path
    kb: str | Path
    labels: str | Path | None = None
    marginal: str | Path | None = None
    k: int = 3
    solver: SolverConfig = field(default_factory=SolverConfig)
    learn: LearnConfig = field(default_factory=LearnConfig)
    seed: int | None = None  # recorded for provenance; the pipeline is deterministic

    def __post_init__(self):
        if self.mode not in MODES:
            raise UsageError(f"unknown mode {self.mode!r}; choose from {', '.join(MODES)}")
        if self.k < 1:
            raise UsageError(f"k must be >= 1, got {self.k}")


def accuracy(pred, gold) -> tuple[float, dict[int, float]]:
    """Exact-match fraction overall and per gold class.

    Gold labels are class indices: none may be negative, and the count
    takes one bin per index up to the largest. ``per_class`` has one entry
    per class present in ``gold``, in ascending order.
    """
    p = np.asarray(pred, dtype=np.int64)
    g = np.asarray(gold, dtype=np.int64)
    if p.shape != g.shape or p.ndim != 1:
        raise UsageError(f"prediction/gold shapes differ: {p.shape} vs {g.shape}")
    if p.size == 0:
        raise UsageError("accuracy needs at least one prediction")
    if g.min() < 0:
        raise UsageError(f"gold label {g.min()} is negative, not a class index")
    counts = np.bincount(g)
    hits = np.bincount(g[p == g], minlength=counts.size)
    overall = float(hits.sum() / p.size)
    return overall, {int(c): float(hits[c] / counts[c]) for c in np.flatnonzero(counts)}


def _resolved_config(spec: RunSpec) -> dict:
    """The run's settings; solver and learner settings only for the mode that uses them."""
    solves = spec.mode == "kpl_full"
    return {
        "images": str(spec.images),
        "kb": str(spec.kb),
        "labels": None if spec.labels is None else str(spec.labels),
        "marginal": "uniform" if spec.marginal is None else str(spec.marginal),
        "k": spec.k,
        "normalize_images": True,
        "seed": spec.seed,
        "solver": {"algorithm": spec.solver.algorithm, **asdict(spec.solver)} if solves else None,
        "learn": asdict(spec.learn) if solves else None,
    }


@dataclass(frozen=True)
class Inputs:
    """The validated inputs of one run, as ``load`` returns them."""

    images: np.ndarray  # unit rows whose dim matches the knowledge base
    kb: KnowledgeBase
    marginal: ClassMarginal
    gold: np.ndarray | None = None  # one class index per image row


def load(spec: RunSpec) -> Inputs:
    """Read and validate every input file ``spec`` names.

    Images need at least one row, must match the knowledge base's dim and
    come back with unit rows;
    a marginal file needs one entry per class, a labels file one per image.
    """
    images = pio.read_embeddings(spec.images)
    if images.shape[0] == 0:
        raise DataError(f"{spec.images}: no image rows to classify")
    kb = pio.read_knowledge_base(spec.kb)
    if images.shape[1] != kb.dim:
        raise DataError(
            f"{spec.images}: image rows have dim {images.shape[1]} but "
            f"{spec.kb} declares dim {kb.dim}"
        )
    try:  # in place: the images are held once from file to prediction
        images = l2_normalize_rows(images, copy=False)
    except DataError as exc:
        raise DataError(f"{spec.images}: {exc}") from None
    if spec.marginal is None:
        q = ClassMarginal.uniform(kb.n_classes)
    else:
        q = pio.read_marginal(spec.marginal)
        if len(q) != kb.n_classes:
            raise DataError(
                f"{spec.marginal}: marginal has {len(q)} entries but "
                f"{spec.kb} has {kb.n_classes} classes"
            )
    gold = None
    if spec.labels is not None:
        gold = pio.read_labels(spec.labels, kb)
        if gold.size != images.shape[0]:
            raise DataError(
                f"{spec.labels}: {gold.size} labels but {images.shape[0]} images"
            )
    return Inputs(images=images, kb=kb, marginal=q, gold=gold)


def text_stage(inputs: Inputs, k: int) -> ProxyWeights:
    """Text Proxy Optimization: retrieve top-k descriptions, average them into proxies."""
    return build_text_proxies(inputs.kb, retrieve(inputs.images, inputs.kb, k))


def transport_stage(
    inputs: Inputs, proxies: ProxyWeights, cfg: SolverConfig
) -> tuple[dict, PseudoLabels]:
    """Solve transport over the image/proxy similarities and read pseudo-labels off it.

    Returns the report's ``solver_diagnostics`` section, in its fixed key
    order, with the pseudo-labels; the plan itself is not kept.
    """
    plan = solve(inputs.images @ proxies.w.T, cfg, inputs.marginal)
    return {
        "algorithm": cfg.algorithm,
        "iterations_used": plan.iterations_used,
        "final_row_violation": plan.final_row_violation,
        "final_col_violation": plan.final_col_violation,
        "converged": plan.converged,
    }, pseudo_labels(plan)


def learn_stage(inputs: Inputs, spec: RunSpec) -> tuple[ProxyWeights, dict, dict]:
    """Multimodal Proxy Learning: the whole ``kpl_full`` chain up to learned proxies.

    Returns the learned proxies with the report's ``solver_diagnostics`` and
    ``learn_summary`` sections, each in its fixed key order.
    """
    proxies = text_stage(inputs, spec.k)
    diagnostics, guide = transport_stage(inputs, proxies, spec.solver)
    weights, trace = learn(inputs.images, guide, proxies, spec.learn)
    return weights, diagnostics, {
        "epochs_run": trace.epochs_run,
        "stop_reason": trace.stop_reason,
        "initial_loss": trace.losses[0],
        "final_loss": trace.losses[-1],
    }


def run(spec: RunSpec, inputs: Inputs | None = None) -> dict:
    """Execute one mode end to end over the files named in ``spec``.

    Returns the report document ``eval`` writes, in its fixed key order;
    identical runs give equal documents. ``inputs`` is what ``load(spec)``
    returned, for a caller that has loaded them already; by default ``run``
    loads them itself.
    """
    if inputs is None:
        inputs = load(spec)
    kb = inputs.kb
    solver_diag = learned = None
    if spec.mode == "clip_baseline":
        weights = ProxyWeights(kb.name_embedding_matrix())
    elif spec.mode == "description_baseline":
        weights = description_proxies(kb)
    elif spec.mode == "kpl_text":
        weights = text_stage(inputs, spec.k)
    else:  # kpl_full
        weights, solver_diag, learned = learn_stage(inputs, spec)

    predictions = classify(inputs.images, weights)
    names = kb.names
    overall = per_class = None
    if inputs.gold is not None:
        overall, by_index = accuracy(predictions, inputs.gold)
        per_class = {names[c]: frac for c, frac in by_index.items()}
    return {
        "mode": spec.mode,
        "config": _resolved_config(spec),
        "n_images": inputs.images.shape[0],
        "n_classes": len(names),
        "class_names": names,
        "solver_diagnostics": solver_diag,
        "learn_summary": learned,
        "predictions": predictions.tolist(),
        "accuracy": overall,
        "per_class_accuracy": per_class,
    }


def bench_solvers(m, q: ClassMarginal, configs) -> list[dict]:
    """Run each solver config over one instance; one result row per config.

    A numeric failure is recorded in its row rather than aborting the table,
    so fragile and stable solvers can be compared on the same instance.
    """
    rows = []
    for cfg in configs:
        start = time.perf_counter()
        row = {"algorithm": cfg.algorithm, "tau_ot": cfg.tau_ot}
        try:
            plan = solve(m, cfg, q)
        except NumericError as exc:
            row.update(status="numeric_overflow", error=str(exc), iterations=None,
                       final_row_violation=None, final_col_violation=None, objective=None)
        else:
            row.update(
                status="converged" if plan.converged else "max_iterations",
                error=None,
                iterations=plan.iterations_used,
                final_row_violation=plan.final_row_violation,
                final_col_violation=plan.final_col_violation,
                objective=entropic_objective(plan, m, cfg.tau_ot),
            )
        row["wall_time_s"] = time.perf_counter() - start
        rows.append(row)
    return rows
