"""Traced run of one ``proxyot eval`` call, for per-layer numbers.

Run as ``python3 traced.py RESULT.json ARG...`` with the same arguments the
untraced run passes to ``proxyot.cli.main``. It makes one call to the real
``proxyot.cli.main([ARG...])``, after replacing the module-level names that
``cli`` and ``pipeline.run`` look up with wrappers that open a span around
each call:

* ``proxyot.io``'s readers and writers, which ``pipeline`` and ``cli`` reach
  as ``pio.<name>``;
* the names ``pipeline`` binds at import: ``l2_normalize_rows``,
  ``retrieve``, ``build_text_proxies``, ``solve``, ``pseudo_labels``,
  ``learn``, ``classify`` and ``accuracy``;
* ``cli.build_parser`` and the parser's ``parse_args``.

The wrappers are removed when the call returns. Whatever order ``cli`` and
``pipeline`` call these in, the spans follow it, and the parent checks that
the report and CSV written here are byte-identical to the untraced call's.

``pipeline.similarity`` is not a call: it is the gap between the end of
``build_text_proxies`` and the start of ``solve``. A stage the mode bypasses
gets an empty span after the call, so it reads the cost of a span (about a
microsecond) instead of a constant zero. Spans are kept in memory and written
with the counts when the call ends.
"""

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# span name -> (module, attribute) of every name the wrappers replace
TRACED = {
    "io.read_embeddings": ("proxyot.io", "read_embeddings"),
    "io.read_knowledge_base": ("proxyot.io", "read_knowledge_base"),
    "io.read_labels": ("proxyot.io", "read_labels"),
    "io.write_report": ("proxyot.io", "write_report"),
    "io.write_predictions_csv": ("proxyot.io", "write_predictions_csv"),
    "numerics.l2_normalize_rows": ("proxyot.pipeline", "l2_normalize_rows"),
    "retrieval.retrieve": ("proxyot.pipeline", "retrieve"),
    "retrieval.build_text_proxies": ("proxyot.pipeline", "build_text_proxies"),
    "solvers.solve": ("proxyot.pipeline", "solve"),
    "solvers.pseudo_labels": ("proxyot.pipeline", "pseudo_labels"),
    "learner.learn": ("proxyot.pipeline", "learn"),
    "learner.classify": ("proxyot.pipeline", "classify"),
    "pipeline.accuracy": ("proxyot.pipeline", "accuracy"),
    "cli.build_parser": ("proxyot.cli", "build_parser"),
    "cli.parse_args": ("proxyot.cli", "_Parser.parse_args"),
}

# facts taken from return values, without keeping the values alive
NOTES = {
    "io.read_embeddings": lambda images: {"dim": images.shape[1], "payload_bytes": images.nbytes},
    "io.read_knowledge_base": lambda kb: {
        "descriptions": sum(rec.n_descriptions for rec in kb.classes)
    },
}

# spans every eval call reports, called or not
EXPECTED = [*TRACED, "pipeline.similarity"]


class Tracer:
    """In-memory spans: name, start, end and the index of the enclosing span."""

    def __init__(self):
        self.spans = []
        self.facts = {}
        self._stack = []

    @contextmanager
    def span(self, name):
        record = {"name": name, "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if note is not None:
                self.facts.update(note(result))
            return result

        return wrapper


@contextmanager
def installed(tracer):
    """Replace every name in TRACED with its traced wrapper; put the originals back after."""
    undo = []
    for name, (module_name, attr) in TRACED.items():
        owner = sys.modules[module_name]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        setattr(owner, leaf, tracer.wrap(name, original))
        undo.append((owner, leaf, original))
    try:
        yield
    finally:
        for owner, leaf, original in reversed(undo):
            setattr(owner, leaf, original)


def close_gaps(tracer):
    """Add the derived ``pipeline.similarity`` span and an empty span per bypassed stage."""
    ends = {s["name"]: s for s in tracer.spans}
    proxies, solve = ends.get("retrieval.build_text_proxies"), ends.get("solvers.solve")
    if proxies and solve:
        tracer.spans.append({"name": "pipeline.similarity", "parent": proxies["parent"],
                             "start": proxies["end"], "end": solve["start"], "derived": True})
    seen = {s["name"] for s in tracer.spans}
    for name in EXPECTED:
        if name not in seen:
            with tracer.span(name):
                pass


def counts(tracer, cli_args):
    """Sizes and solver/learner outcomes, from the recorded facts and the written report."""
    from proxyot.cli import _predictions_csv_path, build_parser

    out = Path(build_parser().parse_args(cli_args).out)
    csv = _predictions_csv_path(out)
    report = json.loads(out.read_text(encoding="utf-8"))
    solver = report["solver_diagnostics"] or {}
    learned = report["learn_summary"] or {}
    return dict(
        mode=report["mode"],
        n_images=report["n_images"],
        n_classes=report["n_classes"],
        kb_bytes=Path(report["config"]["kb"]).stat().st_size,
        bytes_written=out.stat().st_size + csv.stat().st_size,
        algorithm=solver.get("algorithm"),
        iterations=solver.get("iterations_used", 0),
        converged=bool(solver.get("converged", False)),
        final_row_violation=solver.get("final_row_violation", 0.0),
        final_col_violation=solver.get("final_col_violation", 0.0),
        epochs=learned.get("epochs_run", 0),
        stop_reason=learned.get("stop_reason"),
        final_loss=learned.get("final_loss", 0.0),
        **tracer.facts,
    )


def main(argv):
    result_path, cli_args = argv[0], argv[1:]
    import proxyot.cli

    imported_at = time.monotonic()
    tracer = Tracer()
    with installed(tracer), tracer.span("cli.main"):
        code = proxyot.cli.main(cli_args)
    doc = {"imported_at": imported_at, "proxyot_file": proxyot.cli.__file__, "code": code}
    if code == 0:
        close_gaps(tracer)
        doc.update(spans=tracer.spans, counts=counts(tracer, cli_args))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
