"""proxyot's benchmark: the ``eval`` CLI end to end on generated inputs, plus a traced run.

Run from the repository root::

    python3 perfbench/run.py --workload gap_default --seed 42 --seconds 20 --trace 0

Each run generates its inputs from ``--seed`` with ``proxyot gen-fixture``
(cached under ``.perfbench/inputs``, keyed by seed, spec and a hash of the
package sources, and never timed), reads them once so they sit in the page
cache, then calls
``proxyot.cli.main(["eval", ...])`` one call at a time, each in a fresh
child process, for ``--seconds`` seconds. Calls cycle over the run's inputs
and continue until every input ran and the first one ran twice, and at
least three calls ran. The load is one closed-loop client; BLAS gets
``nproc`` threads.

Workloads (sizes are N images x K classes x d dims, descriptions per class):

* ``gap_default``  -- 300x5x32, 20; ``--mode kpl_full`` with every default
  (the greedy ``stable_greenkhorn`` solver). The paper's A6 experiment; the
  solver takes ~97 % of a call. Whether greedy converges before its 100k
  update cap depends on the draw (about a third of seeds converge, at
  49k-94k updates; the rest hit the cap), so a run draws six inputs: the seed itself
  and five seeds derived from it, and reports the mean over inputs.
* ``learn_heavy``  -- 5000x20x128, 20; ``--mode kpl_full --algorithm
  sinkhorn_log``. The learner takes ~80 % of a call (500 epochs); the
  log-domain solver converges in ~40 sweeps.
* ``ingest_large`` -- 450000x50x128, 200; ``--mode kpl_text``. Solver and
  learner are bypassed; the 460.8 MB EMB1 payload is over 4x a 105 MiB L3,
  next to a 42 MB knowledge base, a 450k-line label file and ~12 MB of
  report and CSV writes.

End-to-end metrics (``--trace 0``), from the untraced calls:

* ``run_s``        -- wall time of one ``cli.main`` call after import: the
  median over an input's calls, averaged over the run's inputs. No tail
  percentile: a run makes 3 to 7 calls, and a percentile with ten samples
  beyond it needs eleven or more.
* ``images_per_s`` -- N / ``run_s``.
* ``setup_s``      -- child start until ``proxyot.cli`` is imported; median
  over five import-only probes and every call.
* ``peak_rss_mb``  -- the call's maximum RSS from ``os.wait4``, in 1e6
  bytes; median.
* ``accuracy``     -- read from the report; mean over the run's inputs.

``failed_frac`` and ``unconverged_frac`` are printed for every run but are
not in the JSON metrics, since either can be 0: the JSON's ``failed`` and
``attempted`` carry the first, and the traced ``solvers.converged`` the
second.

Output checks (a call that fails one counts in ``failed``): exit code 0;
the report has N predictions in range; the CSV matches the report; the
report's accuracy equals the one recomputed from the fixture's labels; the
number correct equals the reference recorded for that input seed, or meets
the workload's floor for other seeds; every call on the same input gives a
byte-identical report and CSV (acceptance criterion A8); and, with
``--trace 1``, the traced run writes the same bytes as the untraced call.

Per-layer metrics (``--trace 1``) come from ``traced.py``, which makes the
same ``cli.main`` call with a span around each module function that ``cli``
and ``pipeline`` call; the median over two traced runs is reported. Layers
and the end-to-end metric each should move:

* ``solvers`` (solve_s, iterations, sweeps, us_per_iteration, converged,
  final violations, pseudo_labels_s) -- ``run_s`` and unconverged_frac on
  gap_default; ~2 % of ``run_s`` on learn_heavy; nothing on ingest_large.
* ``learner`` (learn_s, epochs, stopped_at_cap, ms_per_epoch, gflop_per_s,
  final_loss, classify_s) -- ``run_s`` on learn_heavy; ~3 % on gap_default;
  only classify_s on ingest_large.
* ``io`` (read/write times, MB/s, bytes) and ``numerics``
  (l2_normalize_rows_s) -- ``run_s`` and ``peak_rss_mb`` on ingest_large;
  negligible elsewhere.
* ``retrieval`` (retrieve_s, descriptions_scored) -- ``run_s`` on
  ingest_large.
* ``pipeline``/``cli`` (similarity_s, similarity_gflop, self_s, parse_s)
  and ``trace.overhead_s`` (traced minus untraced time) -- every workload,
  as a check on span coverage.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (environment,
every sample, spans) goes to ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"

SETUP_PROBES = 5
MIN_CALLS = 3
TRACED_RUNS = 2
DEADLINE_S = 110.0  # start no further call after this, so a run ends well inside 180 s
CHILD_TIMEOUT_S = 150.0
CACHE_LIMIT_BYTES = 1_600_000_000  # about three ingest_large inputs
GEN_FIXTURE_FLAGS = {  # FixtureSpec field -> `proxyot gen-fixture` flag
    "n_images": "--n",
    "n_classes": "--classes",
    "dim": "--dim",
    "descriptions_per_class": "--descriptions",
}


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict  # proxyot.fixture.FixtureSpec fields
    flags: tuple  # flags for `proxyot eval`, besides the input and output paths
    inputs_per_run: int
    reference_correct: dict = field(default_factory=dict)  # input seed -> correct count
    accuracy_floor: float = 0.0  # for input seeds without a reference


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gap_default",
            dict(n_images=300, n_classes=5, dim=32, descriptions_per_class=20),
            ("--mode", "kpl_full"),
            inputs_per_run=6,
            reference_correct={42: 285, 7: 292},
            accuracy_floor=0.90,
        ),
        Workload(
            "learn_heavy",
            dict(n_images=5000, n_classes=20, dim=128, descriptions_per_class=20),
            ("--mode", "kpl_full", "--algorithm", "sinkhorn_log"),
            inputs_per_run=1,
            reference_correct={42: 4249, 7: 4233},
            accuracy_floor=0.80,
        ),
        Workload(
            "ingest_large",
            dict(n_images=450_000, n_classes=50, dim=128, descriptions_per_class=200),
            ("--mode", "kpl_text"),
            inputs_per_run=1,
            reference_correct={42: 338058},
            accuracy_floor=0.70,
        ),
    )
}

END_TO_END_UNITS = {
    "run_s": "s",
    "images_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy": "fraction",
}

PER_LAYER_UNITS = {
    "solvers.solve_s": "s",
    "solvers.iterations": "count",
    "solvers.sweeps": "sweeps",
    "solvers.us_per_iteration": "us",
    "solvers.converged": "bool",
    "solvers.final_row_violation": "mass",
    "solvers.final_col_violation": "mass",
    "solvers.pseudo_labels_s": "s",
    "learner.learn_s": "s",
    "learner.epochs": "count",
    "learner.stopped_at_cap": "bool",
    "learner.ms_per_epoch": "ms",
    "learner.gflop_per_s": "GFLOP/s",
    "learner.final_loss": "nats",
    "learner.classify_s": "s",
    "io.read_embeddings_s": "s",
    "io.read_embeddings_mb_per_s": "MB/s",
    "io.read_knowledge_base_s": "s",
    "io.kb_bytes": "bytes",
    "io.read_labels_s": "s",
    "io.write_report_s": "s",
    "io.write_predictions_csv_s": "s",
    "io.bytes_written": "bytes",
    "numerics.l2_normalize_rows_s": "s",
    "retrieval.retrieve_s": "s",
    "retrieval.descriptions_scored": "count",
    "pipeline.similarity_s": "s",
    "pipeline.similarity_gflop": "GFLOP",
    "pipeline.self_s": "s",
    "cli.parse_s": "s",
    "trace.overhead_s": "s",
}


class SetupError(Exception):
    """The benchmark cannot run here: no source tree, or input generation failed."""


# ---------------------------------------------------------------- processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


@dataclass
class Child:
    code: int
    spawned_at: float
    max_rss_mb: float
    doc: dict | None
    log: str

    @property
    def setup_s(self) -> float | None:
        return None if self.doc is None else self.doc["imported_at"] - self.spawned_at


def spawn(script: str, args: list, scratch: Path, tag: str) -> Child:
    """Run ``script`` in a fresh interpreter and wait for it; collect its result and RSS."""
    result = scratch / f"{tag}.result.json"
    log_path = scratch / f"{tag}.log"
    result.unlink(missing_ok=True)
    with open(log_path, "wb") as log:
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / script), str(result), *args],
            stdout=log,
            stderr=subprocess.STDOUT,
            cwd=ROOT,
            env=child_env(),
        )
    deadline = spawned_at + CHILD_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    doc = json.loads(result.read_text()) if result.exists() else None
    if doc is not None and not doc.get("proxyot_file", str(ROOT)).startswith(str(ROOT)):
        raise SetupError(f"child imported proxyot from {doc['proxyot_file']}, not {ROOT}")
    return Child(
        proc.returncode, spawned_at, usage.ru_maxrss * 1024 / 1e6, doc,
        log_path.read_text(errors="replace"),
    )


# ---------------------------------------------------------------- inputs


def input_seeds(seed: int, count: int) -> list[int]:
    """The run's fixture seeds: the seed itself, then independent seeds derived from it."""
    derived = [
        int.from_bytes(hashlib.sha256(f"{seed}/{i}".encode()).digest()[:8], "little")
        for i in range(1, count)
    ]
    return [seed, *derived]


@functools.cache
def source_sha256() -> str:
    """Hash of the package sources, which both generate the inputs and run them."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "proxyot").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def fixture(workload: Workload, seed: int, work: Path) -> Path:
    """Directory of the generated inputs for (seed, spec, sources); generated once, then reused."""
    key = hashlib.sha256(
        json.dumps({"seed": seed, "spec": workload.spec, "sources": source_sha256()},
                   sort_keys=True).encode()
    ).hexdigest()[:16]
    inputs = work / "inputs"
    target = inputs / f"{workload.name}-{seed}-{key}"
    if (target / "manifest.json").exists():
        os.utime(target)
        return target
    tmp = inputs / (target.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    flags = [f"{GEN_FIXTURE_FLAGS[k]}={v}" for k, v in workload.spec.items()]
    gen = spawn("child.py", ["cli", "gen-fixture", f"--seed={seed}", f"--out={tmp}", *flags],
                tmp, "gen")
    if gen.code != 0:
        raise SetupError(f"fixture generation failed (exit {gen.code}):\n{gen.log}")
    for name in ("gen.result.json", "gen.log"):
        (tmp / name).unlink()
    for path in tmp.iterdir():  # write back now, not during the timed calls
        with open(path, "rb") as fh:
            os.fsync(fh.fileno())
    tmp.rename(target)
    return target


def evict(work: Path, keep: set) -> None:
    """Drop the least recently used cached inputs beyond CACHE_LIMIT_BYTES."""
    entries = [p for p in (work / "inputs").iterdir() if p not in keep]
    total = sum(f.stat().st_size for p in (work / "inputs").iterdir() for f in p.iterdir())
    for entry in sorted(entries, key=lambda p: p.stat().st_mtime):
        if total <= CACHE_LIMIT_BYTES:
            break
        total -= sum(f.stat().st_size for f in entry.iterdir())
        shutil.rmtree(entry)


def warm(fixture_dir: Path) -> None:
    """Read every input file once so timed calls find them in the page cache."""
    for path in fixture_dir.iterdir():
        with open(path, "rb") as fh:
            while fh.read(1 << 24):
                pass


def eval_args(workload: Workload, fixture_dir: Path, seed: int, out: Path) -> list[str]:
    fx = fixture_dir.relative_to(ROOT) if fixture_dir.is_relative_to(ROOT) else fixture_dir
    return [
        "eval", *workload.flags,
        "--images", str(fx / "images.emb"),
        "--kb", str(fx / "kb.json"),
        "--labels", str(fx / "labels.txt"),
        "--seed", str(seed),
        "--out", str(out),
    ]


# ---------------------------------------------------------------- checks


def csv_path(report: Path) -> Path:
    return report.with_suffix(".csv")


def check_outputs(workload: Workload, fixture_dir: Path, seed: int, report: Path):
    """Check one call's report and CSV; return (errors, facts about the call)."""
    manifest = json.loads((fixture_dir / "manifest.json").read_text())
    try:
        report_bytes = report.read_bytes()
        csv_bytes = csv_path(report).read_bytes()
        doc = json.loads(report_bytes)
        names = doc["class_names"]
        preds = doc["predictions"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable outputs: {exc!r}"], {}
    n = manifest["n_images"]
    errors = []
    if doc.get("n_images") != n or len(preds) != n:
        errors.append(f"report has {len(preds)} predictions for {n} images")
    if not all(isinstance(p, int) and 0 <= p < len(names) for p in preds):
        errors.append("a prediction is not a class index")
        return errors, {}
    expected_csv = "index,predicted_class_name\n" + "".join(
        f"{i},{names[p]}\n" for i, p in enumerate(preds)
    )
    if csv_bytes != expected_csv.encode():
        errors.append("predictions CSV does not match the report")
    index = {name: j for j, name in enumerate(names)}
    gold = [index[t] for t in (fixture_dir / "labels.txt").read_text().split()]
    correct = sum(p == g for p, g in zip(preds, gold))
    if doc.get("accuracy") != correct / n:
        errors.append(f"report accuracy {doc.get('accuracy')!r} but {correct}/{n} correct")
    reference = workload.reference_correct.get(seed)
    if reference is not None and correct != reference:
        errors.append(f"{correct}/{n} correct, reference for seed {seed} is {reference}")
    if reference is None and correct < workload.accuracy_floor * n:
        errors.append(f"{correct}/{n} correct, below the floor {workload.accuracy_floor}")
    solver = doc.get("solver_diagnostics") or {}
    learned = doc.get("learn_summary") or {}
    if "kpl_full" in workload.flags and not (
        isinstance(solver.get("iterations_used"), int) and isinstance(learned.get("epochs_run"), int)
    ):
        errors.append("kpl_full report lacks solver diagnostics or learn summary")
    facts = {
        "correct": correct,
        "accuracy": correct / n,
        "converged": solver.get("converged"),
        "iterations": solver.get("iterations_used"),
        "epochs": learned.get("epochs_run"),
        "stop_reason": learned.get("stop_reason"),
        "digest": hashlib.sha256(report_bytes + b"\0" + csv_bytes).hexdigest(),
    }
    return errors, facts


# ---------------------------------------------------------------- statistics


def layer_metrics(traced: dict, untraced_run_s: float) -> dict:
    spans, c = traced["spans"], traced["counts"]
    dur = {}
    for s in spans:
        dur[s["name"]] = dur.get(s["name"], 0.0) + s["end"] - s["start"]
    root = dur["cli.main"]
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] == 0)
    n, k, d = c["n_images"], c["n_classes"], c["dim"]
    greedy = c["algorithm"] == "stable_greenkhorn"
    solve_s, learn_s = dur["solvers.solve"], dur["learner.learn"]
    return {
        "solvers.solve_s": solve_s,
        "solvers.iterations": c["iterations"],
        "solvers.sweeps": c["iterations"] / (n + k) if greedy else c["iterations"],
        "solvers.us_per_iteration": solve_s * 1e6 / max(1, c["iterations"]),
        "solvers.converged": int(c["converged"]),
        "solvers.final_row_violation": c["final_row_violation"],
        "solvers.final_col_violation": c["final_col_violation"],
        "solvers.pseudo_labels_s": dur["solvers.pseudo_labels"],
        "learner.learn_s": learn_s,
        "learner.epochs": c["epochs"],
        "learner.stopped_at_cap": int(c["stop_reason"] == "max_epochs"),
        "learner.ms_per_epoch": learn_s * 1e3 / max(1, c["epochs"]),
        "learner.gflop_per_s": c["epochs"] * 3 * 2 * n * k * d / 1e9 / learn_s,
        "learner.final_loss": c["final_loss"],
        "learner.classify_s": dur["learner.classify"],
        "io.read_embeddings_s": dur["io.read_embeddings"],
        "io.read_embeddings_mb_per_s": c["payload_bytes"] / 1e6 / dur["io.read_embeddings"],
        "io.read_knowledge_base_s": dur["io.read_knowledge_base"],
        "io.kb_bytes": c["kb_bytes"],
        "io.read_labels_s": dur["io.read_labels"],
        "io.write_report_s": dur["io.write_report"],
        "io.write_predictions_csv_s": dur["io.write_predictions_csv"],
        "io.bytes_written": c["bytes_written"],
        "numerics.l2_normalize_rows_s": dur["numerics.l2_normalize_rows"],
        "retrieval.retrieve_s": dur["retrieval.retrieve"] + dur["retrieval.build_text_proxies"],
        "retrieval.descriptions_scored": c["descriptions"],
        "pipeline.similarity_s": dur["pipeline.similarity"],
        "pipeline.similarity_gflop": 2 * n * k * d / 1e9 if c["mode"] == "kpl_full" else 0.0,
        "pipeline.self_s": root - top,
        "cli.parse_s": dur["cli.build_parser"] + dur["cli.parse_args"],
        "trace.overhead_s": root - untraced_run_s,
    }


# ---------------------------------------------------------------- the run


def _output(command: list) -> str:
    """Stripped standard output of a short command, or "" if it cannot run."""
    try:
        return subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def environment(probe: Child, workload: Workload, seeds: list, fixtures: list) -> dict:
    commit = _output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else ""
    l3 = _output(["getconf", "LEVEL3_CACHE_SIZE"])
    l3_bytes = int(l3) if l3.isdigit() and int(l3) > 0 else None
    payload = workload.spec["n_images"] * workload.spec["dim"] * 8
    return {
        "workload": workload.name,
        "input_seeds": seeds,
        "git_commit": commit or None,
        "source_sha256": source_sha256(),
        "python": probe.doc["python"],
        "numpy": probe.doc["numpy"],
        "blas": probe.doc["blas"],
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3_bytes,
        "emb1_payload_bytes": payload,
        "emb1_file_bytes": (fixtures[0] / "images.emb").stat().st_size,
        "payload_over_l3": payload / l3_bytes if l3_bytes else None,
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path = WORK,
            say=print) -> dict:
    """One benchmark run; returns the result line and writes the full record under ``work``."""
    started = time.monotonic()
    seeds = input_seeds(seed, workload.inputs_per_run)
    fixtures = [fixture(workload, s, work) for s in seeds]
    evict(work, set(fixtures))
    scratch = work / "runs" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    for fx in fixtures:
        warm(fx)

    probes = [spawn("child.py", ["probe"], scratch, f"probe{i}") for i in range(SETUP_PROBES)]
    if any(p.code != 0 or p.doc is None for p in probes):
        raise SetupError(f"import probe failed:\n{probes[0].log}")
    env = environment(probes[0], workload, seeds, fixtures)
    say(f"env {json.dumps(env)}")

    calls, first_digest, failed = [], {}, 0
    minimum = max(MIN_CALLS, len(fixtures) + 1)
    measure_from = time.monotonic()
    while len(calls) < minimum or (
        time.monotonic() - measure_from < seconds and time.monotonic() - started < DEADLINE_S
    ):
        i = len(calls) % len(fixtures)
        out = scratch / f"call{len(calls)}.json"
        child = spawn("child.py", ["cli", *eval_args(workload, fixtures[i], seeds[i], out)],
                      scratch, f"call{len(calls)}")
        errors, facts = [f"exit code {child.code}: {child.log[-2000:]}"], {}
        if child.code == 0 and child.doc is not None:
            errors, facts = check_outputs(workload, fixtures[i], seeds[i], out)
            if facts and first_digest.setdefault(i, facts["digest"]) != facts["digest"]:
                errors.append("report or CSV differs from the first call on the same input (A8)")
        if calls:  # only the first call's outputs are kept, for the traced run
            csv_path(out).unlink(missing_ok=True)
            out.unlink(missing_ok=True)
        failed += bool(errors)
        calls.append({
            "input": i,
            "seed": seeds[i],
            "code": child.code,
            "run_s": child.doc.get("run_s") if child.doc else None,
            "setup_s": child.setup_s,
            "peak_rss_mb": child.max_rss_mb,
            "errors": errors,
            **{k: v for k, v in facts.items() if k != "digest"},
        })
        say(f"call {len(calls)} input {seeds[i]}: " + (
            "; ".join(errors) if errors else
            f"run_s {calls[-1]['run_s']:.4f} setup_s {child.setup_s:.4f} rss {child.max_rss_mb:.1f} MB "
            f"correct {facts['correct']} converged {facts['converged']} "
            f"iterations {facts['iterations']} epochs {facts['epochs']} ({facts['stop_reason']})"
        ))

    timed = [c for c in calls if not c["errors"]] or [c for c in calls if c["run_s"] is not None]
    if not timed:
        raise SetupError("no call produced a timing")
    per_input = {}
    for c in timed:
        per_input.setdefault(c["input"], []).append(c["run_s"])
    run_s = statistics.fmean(statistics.median(v) for v in per_input.values())
    accuracies = {c["input"]: c["accuracy"] for c in calls if "accuracy" in c}
    end_to_end = {
        "run_s": run_s,
        "images_per_s": workload.spec["n_images"] / run_s,
        "setup_s": statistics.median([p.setup_s for p in probes] + [c["setup_s"] for c in timed]),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in timed),
        "accuracy": statistics.fmean(accuracies.values()) if accuracies else 0.0,
    }
    for name, value in end_to_end.items():
        say(f"{name} {value:.6g} {END_TO_END_UNITS[name]}")
    say(f"calls {len(calls)}")
    say(f"failed_frac {failed}/{len(calls)} = {failed / len(calls):.4g}")
    solved = [c for c in calls if c.get("converged") is not None]
    if solved:
        unconverged = sum(not c["converged"] for c in solved)
        say(f"unconverged_frac {unconverged}/{len(solved)} = {unconverged / len(solved):.4g}")
    else:
        say("unconverged_frac n/a (the mode runs no solver)")

    attempted, traced_runs, per_layer = len(calls), [], None
    if trace:
        reference = scratch / "call0.json"
        untraced = statistics.median(per_input.get(0, [run_s]))
        for r in range(TRACED_RUNS):
            out = scratch / f"traced{r}.json"
            child = spawn("traced.py", eval_args(workload, fixtures[0], seeds[0], out),
                          scratch, f"traced{r}")
            attempted += 1
            same = (
                child.code == 0
                and reference.exists()
                and out.read_bytes() == reference.read_bytes()
                and csv_path(out).read_bytes() == csv_path(reference).read_bytes()
            )
            if not same:
                failed += 1
                say(f"traced run {r}: outputs differ from the untraced call (exit {child.code}) "
                    f"{child.log[-2000:]}")
                continue
            traced_runs.append(child.doc)
        if traced_runs:
            layers = [layer_metrics(doc, untraced) for doc in traced_runs]
            per_layer = {name: statistics.median(m[name] for m in layers) for name in PER_LAYER_UNITS}
            for name, value in per_layer.items():
                say(f"{name} {value:.6g} {PER_LAYER_UNITS[name]}")

    shutil.rmtree(scratch, ignore_errors=True)
    if trace:
        units, values = PER_LAYER_UNITS, per_layer or {}
    else:
        units, values = END_TO_END_UNITS, end_to_end
    line = {
        "correct": failed == 0 and (not trace or bool(traced_runs)),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"env": env, "calls": calls, "end_to_end": end_to_end,
              "per_layer": per_layer, "traced_runs": traced_runs, "result": line}
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "proxyot" / "cli.py").is_file():
        print(f"perfbench: no proxyot source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    say = functools.partial(print, flush=True)
    say(f"perfbench {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    try:
        line = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), say=say)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
