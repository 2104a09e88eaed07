"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numeric error.
Results go to ``--out``; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
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
from .pipeline import MODES, RunSpec, bench_solvers, learn_stage, learn_summary, load, run
from .pipeline import solver_diagnostics, text_stage, transport_stage
from .solvers import ALGORITHMS, SolverConfig

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so exit codes stay ours."""

    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


def _add_io_flags(p: argparse.ArgumentParser, labels: str = "optional") -> None:
    p.add_argument("--images", required=True, help="EMB1 file of image embeddings")
    p.add_argument("--kb", required=True, help="knowledge-base JSON file")
    if labels != "none":
        p.add_argument(
            "--labels",
            required=labels == "required",
            help="gold labels, one index or class name per line",
        )
    p.add_argument(
        "--marginal",
        help="JSON array of class weights for the transport column marginal "
        "(default: uniform)",
    )


def _add_chain_flags(p: argparse.ArgumentParser, stages: int = 3) -> None:
    """Flags of the first ``stages`` kpl_full stages: retrieval, transport, learning."""
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
        p.add_argument("--epochs", dest="max_epochs", type=int, help="maximum learning epochs")


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
    return out.with_suffix(".csv") if out.suffix else out.with_name(out.name + ".csv")


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
    _warn_at_caps(spec.solver.tolerance, report.solver_diagnostics, report.learn_summary)
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
    """Refuse a command whose output is one of its inputs or its other output.

    ``kb_embeddings`` is the EMB1 file the knowledge base names, once read.
    Symlinks, hard links and ``.``/``..`` spellings of one file all match.
    """
    if getattr(args, "out", None) is None:
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
        named[key] = "the report"  # only pipeline/eval write a second file


def _cmd_pipeline(args) -> int:
    out = Path(args.out)
    csv = _predictions_csv_path(out)
    report = _run(args)
    pio.write_report(report.to_json_dict(), out)
    pio.write_predictions_csv(csv, report.predictions, report.class_names)
    if report.accuracy is not None:
        print(f"{args.mode}: accuracy {report.accuracy:.4f} -> {out}")
    else:
        print(f"{args.mode}: {report.n_images} predictions -> {out}")
    return 0


def _cmd_classify(args) -> int:
    report = _run(args)
    pio.write_predictions_csv(Path(args.out), report.predictions, report.class_names)
    print(f"{args.mode}: {report.n_images} predictions -> {args.out}")
    return 0


# The stage subcommands are views of the kpl_full chain (their parsers set the
# mode): each runs the chain up to the stage whose output it shows.


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
    plan, guide = transport_stage(inputs, proxies, spec.solver)
    diag = solver_diagnostics(plan, spec.solver)
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
        f"{spec.solver.algorithm}: {plan.iterations_used} iterations, violations "
        f"({plan.final_row_violation:.3e}, {plan.final_col_violation:.3e}) -> {args.out}"
    )
    return 0


def _cmd_learn(args) -> int:
    spec, inputs = _load(args)
    plan, weights, trace = learn_stage(inputs, spec)
    _warn_at_caps(
        spec.solver.tolerance, solver_diagnostics(plan, spec.solver), learn_summary(trace)
    )
    pio.write_embeddings(weights.w, args.out)
    print(
        f"learned {weights.w.shape[0]} proxies in {trace.epochs_run} epochs "
        f"({trace.stop_reason}, final loss {trace.losses[-1]:.6g}) -> {args.out}"
    )
    return 0


def _cmd_bench_ot(args) -> int:
    spec, inputs = _load(args)
    _, proxies = text_stage(inputs, spec.k)
    algorithms = [args.algorithm] if args.algorithm else ALGORITHMS
    configs = [replace(spec.solver, algorithm=name) for name in algorithms]
    rows = bench_solvers(inputs.images @ proxies.w.T, inputs.marginal, configs)
    if args.out:
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

    for name, help_text, labels, out_help, handler in (
        ("pipeline", "run one mode end to end and write a report", "optional",
         "report JSON path (predictions CSV lands beside it)", _cmd_pipeline),
        ("eval", "pipeline with gold labels required", "required",
         "report JSON path (predictions CSV lands beside it)", _cmd_pipeline),
        ("classify", "write predictions CSV only", "none",
         "predictions CSV path", _cmd_classify),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--mode", required=True, choices=MODES)
        _add_io_flags(p, labels=labels)
        _add_chain_flags(p)
        p.add_argument(
            "--seed", type=int, help="recorded in the report; the run is deterministic"
        )
        p.add_argument("--out", required=True, help=out_help)
        p.set_defaults(handler=handler)

    p = sub.add_parser("retrieve", help="score and select top-k descriptions per class")
    _add_io_flags(p, labels="none")
    _add_chain_flags(p, stages=1)
    p.add_argument("--out", required=True, help="retrieval JSON path")
    p.set_defaults(handler=_cmd_retrieve, mode="kpl_full")

    p = sub.add_parser("plan", help="solve the transport problem and dump pseudo-labels")
    _add_io_flags(p, labels="none")
    _add_chain_flags(p, stages=2)
    p.add_argument("--out", required=True, help="plan JSON path")
    p.set_defaults(handler=_cmd_plan, mode="kpl_full")

    p = sub.add_parser("learn", help="learn multimodal proxies and write them as EMB1")
    _add_io_flags(p, labels="none")
    _add_chain_flags(p)
    p.add_argument("--out", required=True, help="EMB1 path for the learned proxies")
    p.set_defaults(handler=_cmd_learn, mode="kpl_full")

    p = sub.add_parser("bench-ot", help="race the transport solvers on one instance")
    _add_io_flags(p, labels="none")
    _add_chain_flags(p, stages=2)
    p.add_argument("--out", help="optional JSON path for the comparison table")
    p.set_defaults(handler=_cmd_bench_ot, mode="kpl_full")

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
