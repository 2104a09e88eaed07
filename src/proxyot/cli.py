"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numeric error.
Results go to ``--out``; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import __version__
from . import io as pio
from .errors import DataError, ProxyOTError, UsageError
from .fixture import NAME_NOISE_FACTOR, FixtureSpec, generate_fixture, write_fixture
from .learner import LearnConfig
from .pipeline import MODES, RunSpec, bench_solvers, learn_stage, load, run, text_stage
from .pipeline import transport_stage
from .solvers import ALGORITHMS, SolverConfig

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so exit codes stay ours."""

    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


def _flags(args, config) -> dict:
    """Keyword arguments for the dataclass ``config`` from the flags the user set."""
    return {
        f.name: getattr(args, f.name)
        for f in fields(config)
        if getattr(args, f.name, None) is not None
    }


def _run_spec(args) -> RunSpec:
    return RunSpec(
        solver=SolverConfig(**_flags(args, SolverConfig)),
        learn=LearnConfig(**_flags(args, LearnConfig)),
        **_flags(args, RunSpec),
    )


def _predictions_csv_path(out: Path) -> Path:
    return out.with_suffix(".csv") if out.suffix else out.parent / (out.name + ".csv")


def _warn_at_caps(tolerance: float, diag: dict | None, learned: dict | None) -> None:
    """One stderr line for each stage that stopped at its cap instead of converging."""
    if diag is not None and not diag["converged"]:
        print(
            f"warning: {diag['algorithm']} did not converge in "
            f"{diag['iterations_used']} iterations: violations "
            f"({diag['final_row_violation']:.3e}, {diag['final_col_violation']:.3e}), "
            f"tolerance {tolerance:g}",
            file=sys.stderr,
        )
    if learned is not None and learned["stop_reason"] == "max_epochs":
        print(
            f"warning: learning stopped at its cap of {learned['epochs_run']} epochs",
            file=sys.stderr,
        )


def _load(args):
    """The run spec ``args`` give and its loaded inputs.

    The knowledge base's EMB1 file is known once its JSON is parsed, so the
    overwrite check runs again here with it, before anything is written.
    """
    spec = _run_spec(args)
    inputs = load(spec)
    _refuse_overwrites(args, inputs.kb.embeddings_file)
    return spec, inputs


def _run(args):
    """``run`` for the pipeline subcommands, warning on stderr about capped stages."""
    spec, inputs = _load(args)
    report = run(spec, inputs)
    _warn_at_caps(spec.solver.tolerance, report["solver_diagnostics"], report["learn_summary"])
    return report


def _file_identity(path):
    """``(st_dev, st_ino)`` of ``path``, or its ``os.path.realpath`` if it cannot be stat'ed.

    ``os.stat`` opens nothing, so a FIFO stays unread. A path with no stat (an
    output not written yet, or a symlink loop, which fails where it is read)
    is keyed by its resolved spelling.
    """
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _refuse_overwrites(args, kb_embeddings=None) -> None:
    """Refuse a command whose output is one of its inputs, its other output or a directory.

    ``kb_embeddings`` is the EMB1 file the knowledge base names, once read.
    Symlinks, hard links and ``.``/``..`` spellings of one file all match.
    A directory is refused with an ``IsADirectoryError``, as a write to it
    would be, but before anything is read; ``gen-fixture`` writes into its
    ``--out``.
    """
    if getattr(args, "out", None) is None or args.handler is _cmd_gen_fixture:
        return
    named = {}  # file identity -> how the message names it
    for flag in ("images", "kb", "labels", "marginal"):
        path = getattr(args, flag, None)
        if path is not None:
            named[_file_identity(path)] = f"--{flag} {path}"
    if kb_embeddings is not None:
        named[_file_identity(kb_embeddings)] = (
            f"--kb {args.kb}'s embeddings file {kb_embeddings}"
        )
    out = Path(args.out)
    writes = [(f"--out {out}", out)]
    if args.handler is _cmd_pipeline:
        writes.append((f"--out {out}: the predictions CSV", _predictions_csv_path(out)))
    for what, path in writes:
        key = _file_identity(path)
        if key in named:
            raise UsageError(f"{what} would overwrite {named[key]}")
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        named[key] = "the report"  # only pipeline/eval write a second file


def _cmd_pipeline(args) -> int:
    out = Path(args.out)
    csv = _predictions_csv_path(out)
    report = _run(args)
    pio.write_report(report, out)
    pio.write_predictions_csv(csv, report["predictions"], report["class_names"])
    if report["accuracy"] is not None:
        print(f"{args.mode}: accuracy {report['accuracy']:.4f} -> {out}")
    else:
        print(f"{args.mode}: {report['n_images']} predictions -> {out}")
    return 0


def _cmd_classify(args) -> int:
    report = _run(args)
    pio.write_predictions_csv(Path(args.out), report["predictions"], report["class_names"])
    print(f"{args.mode}: {report['n_images']} predictions -> {args.out}")
    return 0


def _cmd_retrieve(args) -> int:
    spec, inputs = _load(args)
    kb = inputs.kb
    selection, _ = text_stage(inputs, spec.k)
    doc = {
        "k": spec.k,
        "classes": [
            {
                "name": rec.name,
                "selected_indices": idx.tolist(),
                "scores": scores.tolist(),
                "descriptions": [rec.descriptions[i] for i in idx],
            }
            for rec, idx, scores in zip(kb.classes, selection.selected, selection.scores)
        ],
    }
    pio.write_report(doc, args.out)
    print(f"retrieved top-{spec.k} descriptions for {kb.n_classes} classes -> {args.out}")
    return 0


def _cmd_plan(args) -> int:
    spec, inputs = _load(args)
    _, proxies = text_stage(inputs, spec.k)
    diag, guide = transport_stage(inputs, proxies, spec.solver)
    _warn_at_caps(spec.solver.tolerance, diag, None)
    doc = {
        "algorithm": diag.pop("algorithm"),
        "tau_ot": spec.solver.tau_ot,
        **diag,
        "class_names": inputs.kb.names,
        "pseudo_labels": guide.p.tolist(),
    }
    pio.write_report(doc, args.out)
    print(
        f"{doc['algorithm']}: {doc['iterations_used']} iterations, violations "
        f"({doc['final_row_violation']:.3e}, {doc['final_col_violation']:.3e}) -> {args.out}"
    )
    return 0


def _cmd_learn(args) -> int:
    spec, inputs = _load(args)
    weights, diag, learned = learn_stage(inputs, spec)
    _warn_at_caps(spec.solver.tolerance, diag, learned)
    pio.write_embeddings(weights.w, args.out)
    print(
        f"learned {weights.w.shape[0]} proxies in {learned['epochs_run']} epochs "
        f"({learned['stop_reason']}, final loss {learned['final_loss']:.6g}) -> {args.out}"
    )
    return 0


def _cmd_bench_ot(args) -> int:
    spec, inputs = _load(args)
    _, proxies = text_stage(inputs, spec.k)
    algorithms = [args.algorithm] if args.algorithm else ALGORITHMS
    configs = [replace(spec.solver, algorithm=name) for name in algorithms]
    rows = bench_solvers(inputs.images @ proxies.w.T, inputs.marginal, configs)
    if args.out is not None:
        pio.write_report(rows, args.out)
    for row in rows:
        if row["status"] == "numeric_overflow":
            print(f"{row['algorithm']}: {row['error']}", file=sys.stderr)
        else:
            print(
                f"{row['algorithm']}: {row['status']} after {row['iterations']} "
                f"iterations, violations ({row['final_row_violation']:.3e}, "
                f"{row['final_col_violation']:.3e}), objective {row['objective']:.9g}, "
                f"{row['wall_time_s'] * 1e3:.1f} ms"
            )
    if any(row["status"] == "numeric_overflow" for row in rows):
        return 3
    return 0


def _cmd_gen_fixture(args) -> int:
    fixture = generate_fixture(args.seed, FixtureSpec(**_flags(args, FixtureSpec)))
    manifest = write_fixture(fixture, args.out)
    print(f"fixture written to {args.out} (manifest: {json.dumps(manifest['files'])})")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="proxyot",
        description="Zero-shot classification over precomputed embeddings via "
        "entropic optimal-transport pseudo-labeling and proxy learning.",
    )
    parser.add_argument(
        "--version", action="version", version=f"proxyot {__version__}"
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    # Each chain subcommand is a view of the kpl_full chain with the flags of its
    # first `stages` stages (1 retrieval, 2 transport, 3 learning). pipeline, eval
    # and classify run whichever --mode they are given; the other four run
    # kpl_full up to the stage whose output they write. Only pipeline and eval
    # write a report, so only they take --seed.
    for name, help_text, labels, stages, out_help, handler in (
        ("pipeline", "run one mode end to end and write a report", "optional", 3,
         "report JSON path (predictions CSV lands beside it)", _cmd_pipeline),
        ("eval", "pipeline with gold labels required", "required", 3,
         "report JSON path (predictions CSV lands beside it)", _cmd_pipeline),
        ("classify", "write predictions CSV only", "none", 3,
         "predictions CSV path", _cmd_classify),
        ("retrieve", "score and select top-k descriptions per class", "none", 1,
         "retrieval JSON path", _cmd_retrieve),
        ("plan", "solve the transport problem and dump pseudo-labels", "none", 2,
         "plan JSON path", _cmd_plan),
        ("learn", "learn multimodal proxies and write them as EMB1", "none", 3,
         "EMB1 path for the learned proxies", _cmd_learn),
        ("bench-ot", "race the transport solvers on one instance", "none", 2,
         "optional JSON path for the comparison table", _cmd_bench_ot),
    ):
        p = sub.add_parser(name, help=help_text)
        whole_mode = handler in (_cmd_pipeline, _cmd_classify)
        p.set_defaults(handler=handler, mode=None if whole_mode else "kpl_full")
        if whole_mode:
            p.add_argument("--mode", required=True, choices=MODES)
        p.add_argument("--images", required=True, help="EMB1 file of image embeddings")
        p.add_argument("--kb", required=True, help="knowledge-base JSON file")
        if labels != "none":
            p.add_argument("--labels", required=labels == "required",
                           help="gold labels, one index or class name per line")
        if stages >= 2:
            p.add_argument("--marginal", help="JSON array of class weights for the "
                           "transport column marginal (default: uniform)")
        p.add_argument("--k", type=int, help="descriptions retrieved per class (default 3)")
        if stages >= 2:
            p.add_argument("--algorithm", choices=ALGORITHMS, help="transport solver")
            p.add_argument("--tau-ot", type=float, help="transport temperature")
            p.add_argument("--max-iterations", type=int, help="solver iteration cap")
            p.add_argument("--tolerance", type=float, help="marginal violation target")
        if stages >= 3:
            p.add_argument("--tau-learn", type=float, help="softmax temperature for learning")
            p.add_argument("--lr", dest="learning_rate", type=float, help="learning rate")
            p.add_argument("--momentum", type=float, help="descent momentum in [0, 1)")
            p.add_argument(
                "--epochs", dest="max_epochs", type=int, help="maximum learning epochs"
            )
        if handler is _cmd_pipeline:
            p.add_argument(
                "--seed", type=int, help="recorded in the report; the run is deterministic"
            )
        p.add_argument("--out", required=handler is not _cmd_bench_ot, help=out_help)

    p = sub.add_parser("gen-fixture", help="generate a synthetic modality-gap fixture")
    p.add_argument("--seed", type=int, required=True, help="64-bit generation seed")
    p.add_argument("--out", required=True, help="output directory")
    # defaults come from FixtureSpec; dest is its field name, metavar the flag's
    p.add_argument("--n", dest="n_images", metavar="N", type=int, help="number of images")
    p.add_argument(
        "--classes", dest="n_classes", metavar="CLASSES", type=int, help="number of classes"
    )
    p.add_argument("--dim", type=int, help="embedding dimension")
    p.add_argument("--separation", type=float, help="cluster separation")
    p.add_argument(
        "--angle", dest="angle_deg", metavar="ANGLE", type=float,
        help="modality-gap rotation, degrees",
    )
    p.add_argument("--offset", type=float, help="modality-gap offset magnitude")
    p.add_argument("--noise", type=float, help="description embedding noise")
    p.add_argument(
        "--descriptions", dest="descriptions_per_class", metavar="DESCRIPTIONS", type=int,
        help="descriptions per class",
    )
    p.add_argument(
        "--name-noise",
        type=float,
        help=f"name embedding noise (default: {NAME_NOISE_FACTOR:g} x description noise)",
    )
    p.set_defaults(handler=_cmd_gen_fixture)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _refuse_overwrites(args)
        return args.handler(args)
    except SystemExit as exc:  # argparse --help / --version
        code = exc.code
        return int(code) if code is not None else 0
    except ProxyOTError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a path the user named cannot be read or written
        print(f"{DataError.label}: {exc}", file=sys.stderr)
        return DataError.exit_code


if __name__ == "__main__":
    sys.exit(main())
