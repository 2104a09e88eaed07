"""Run one fixed CLI matrix under two source trees and report every output that differs.

Usage::

    python tools/compare_outputs.py OLD_SRC NEW_SRC [--work DIR]

OLD_SRC and NEW_SRC are directories that hold the ``proxyot`` package (a
checkout's ``src``). The fixtures are generated once, with OLD_SRC: seeds 42
and 7, each at 300 x 5 x 32 and at 5000 x 20 x 128. Each invocation then
runs twice, once under each ``PYTHONPATH``, every time in a fresh process.
Per fixture the matrix is ``eval`` in all four modes, ``plan`` under each
``--algorithm``, ``learn``, ``bench-ot``, ``plan --tolerance 0``,
``plan --tau-ot 1e-310`` (which exits 3), ``retrieve``, ``retrieve --k 20``
(every description, so every score is compared), ``classify --mode
kpl_full``, ``pipeline --mode kpl_text`` without labels, ``eval`` with the
knowledge base as its images (bad magic, which exits 2)
and the fixture's own ``gen-fixture``, into the invocation's output
directory; on the 300 x 5 fixtures, ``eval``, ``plan``,
``plan --tolerance 0`` and ``learn`` also run with the zero-mass marginal
``[1, 0, 2, 1, 0]``. One more fixture is a copy of fx42-300x5 whose five
classes are renamed to names of mixed lengths, with a comma, a quote, a
newline and non-ASCII text, and whose labels are class indices; on it run
``eval --mode kpl_text``, ``eval --mode kpl_full`` and ``classify --mode
kpl_text``, so the predictions CSV is compared for quoted fields of unequal
lengths. That is 83 invocations a side, covering every subcommand.

Compared are stdout, stderr, the exit code and every file an invocation
writes, byte for byte. Before comparing, the invocation's own output
directory is replaced by ``<OUT>``, and so are bench-ot's timings: the
``wall_time_s`` values and the ms column. Each difference is printed; the
exit status is 0 only when there is none. The work directory, fixtures and
outputs included, is removed at the end unless ``--work`` names it. The
test suite checks the tool but does not run its matrix, which takes under a
minute a side on two cores.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ALGORITHMS = ("sinkhorn_linear", "sinkhorn_log", "stable_greenkhorn", "newton_semidual")
MODES = ("clip_baseline", "description_baseline", "kpl_text", "kpl_full")
FIXTURES = {  # name: (seed, gen-fixture size flags)
    "fx42-300x5": (42, []),
    "fx7-300x5": (7, []),
    "fx42-5000x20": (42, ["--n", "5000", "--classes", "20", "--dim", "128"]),
    "fx7-5000x20": (7, ["--n", "5000", "--classes", "20", "--dim", "128"]),
}
ZERO_MASS = "[1, 0, 2, 1, 0]"  # one weight per class of the 300 x 5 fixtures
RENAMED = {"fx42-300x5-names": "fx42-300x5"}  # name: the fixture it copies
AWKWARD_NAMES = ["a", 'lesion, "opaque"', "two\nlines", "nævus 漢🙂", "a much longer class name"]

_WALL_TIME = re.compile(rb'("wall_time_s": )[-+0-9.eE]+')
_MS_COLUMN = re.compile(rb"[0-9.]+ ms$", re.MULTILINE)


def matrix(fixtures: Path) -> list[tuple[str, list[str]]]:
    """(label, CLI arguments) per invocation; ``{out}`` is its output directory."""
    runs = []
    for name in FIXTURES:
        fx = fixtures / name
        inputs = ["--images", str(fx / "images.emb"), "--kb", str(fx / "kb.json")]
        labels = ["--labels", str(fx / "labels.txt")]
        variants = [("", [])]
        if name.endswith("300x5"):
            variants.append((" zero-mass", ["--marginal", str(fixtures / "zero_mass.json")]))
        for mode in MODES:
            runs.append((f"{name} eval {mode}",
                         ["eval", "--mode", mode, *inputs, *labels, "--out", "{out}/report.json"]))
        for algorithm in ALGORITHMS:
            runs.append((f"{name} plan {algorithm}",
                         ["plan", *inputs, "--algorithm", algorithm, "--out", "{out}/plan.json"]))
        runs.append((f"{name} bench-ot", ["bench-ot", *inputs, "--out", "{out}/bench.json"]))
        runs.append((f"{name} plan tau-ot 1e-310",
                     ["plan", *inputs, "--tau-ot", "1e-310", "--out", "{out}/plan.json"]))
        runs.append((f"{name} retrieve", ["retrieve", *inputs, "--out", "{out}/retrieval.json"]))
        runs.append((f"{name} retrieve k 20",
                     ["retrieve", *inputs, "--k", "20", "--out", "{out}/retrieval.json"]))
        runs.append((f"{name} classify kpl_full",
                     ["classify", "--mode", "kpl_full", *inputs, "--out", "{out}/predictions.csv"]))
        runs.append((f"{name} pipeline kpl_text",
                     ["pipeline", "--mode", "kpl_text", *inputs, "--out", "{out}/report.json"]))
        runs.append((f"{name} eval kpl_text kb as images",
                     ["eval", "--mode", "kpl_text", "--images", str(fx / "kb.json"),
                      "--kb", str(fx / "kb.json"), *labels, "--out", "{out}/report.json"]))
        seed, sizes = FIXTURES[name]
        runs.append((f"{name} gen-fixture",
                     ["gen-fixture", "--seed", str(seed), *sizes, "--out", "{out}"]))
        for tag, marginal in variants:
            if tag:
                runs.append((f"{name} eval kpl_full{tag}",
                             ["eval", "--mode", "kpl_full", *inputs, *marginal, *labels,
                              "--out", "{out}/report.json"]))
                runs.append((f"{name} plan{tag}",
                             ["plan", *inputs, *marginal, "--out", "{out}/plan.json"]))
            runs.append((f"{name} plan tolerance 0{tag}",
                         ["plan", *inputs, *marginal, "--tolerance", "0", "--out", "{out}/plan.json"]))
            runs.append((f"{name} learn{tag}",
                         ["learn", *inputs, *marginal, "--out", "{out}/proxies.emb"]))
    for name in RENAMED:
        fx = fixtures / name
        inputs = ["--images", str(fx / "images.emb"), "--kb", str(fx / "kb.json")]
        labels = ["--labels", str(fx / "labels.txt")]
        for mode in ("kpl_text", "kpl_full"):
            runs.append((f"{name} eval {mode}",
                         ["eval", "--mode", mode, *inputs, *labels, "--out", "{out}/report.json"]))
        runs.append((f"{name} classify kpl_text",
                     ["classify", "--mode", "kpl_text", *inputs, "--out", "{out}/predictions.csv"]))
    return runs


def rename_classes(source: Path, out: Path) -> None:
    """Copy the fixture ``source`` to ``out`` with AWKWARD_NAMES as its class names.

    The labels become class indices, since a name with a newline cannot be a
    label line.
    """
    shutil.copytree(source, out)
    kb = json.loads((out / "kb.json").read_text(encoding="utf-8"))
    old_names = [entry["name"] for entry in kb["classes"]]
    for entry, name in zip(kb["classes"], AWKWARD_NAMES, strict=True):
        entry["name"] = name
    (out / "kb.json").write_text(json.dumps(kb, indent=2) + "\n", encoding="utf-8")
    lines = (out / "labels.txt").read_text(encoding="utf-8").splitlines()
    (out / "labels.txt").write_text(
        "".join(f"{old_names.index(line)}\n" for line in lines), encoding="utf-8"
    )


def proxyot(src: Path, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "proxyot", *args], env=env, capture_output=True)


def masked(data: bytes, out: Path) -> bytes:
    data = data.replace(str(out).encode(), b"<OUT>")
    return _MS_COLUMN.sub(b"<ms> ms", _WALL_TIME.sub(rb"\1<s>", data))


def outputs(src: Path, args: list[str], out: Path) -> dict[str, bytes]:
    """Masked stdout, stderr, exit code and written files of one invocation."""
    out.mkdir(parents=True)
    done = proxyot(src, [a.replace("{out}", str(out)) for a in args])
    found = {
        "stdout": masked(done.stdout, out),
        "stderr": masked(done.stderr, out),
        "exit code": str(done.returncode).encode(),
    }
    for path in sorted(out.rglob("*")):
        if path.is_file():
            found[f"file {path.relative_to(out)}"] = masked(path.read_bytes(), out)
    return found


def describe(name: str, old: bytes | None, new: bytes | None) -> str:
    if old is None or new is None:
        return f"  {name}: only on the {'new' if old is None else 'old'} side"
    try:
        old_lines, new_lines = old.decode().splitlines(), new.decode().splitlines()
    except UnicodeDecodeError:
        return f"  {name}: binary, {len(old)} bytes old, {len(new)} bytes new"
    diff = list(difflib.unified_diff(old_lines, new_lines, "old", "new", n=0, lineterm=""))
    shown = "\n".join("    " + line[:200] for line in diff[2:22])
    more = f"\n    ... {len(diff) - 22} more diff lines" if len(diff) > 22 else ""
    return f"  {name}:\n{shown}{more}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--work", type=Path,
                        help="scratch directory to keep (default: a temporary one, removed after)")
    ns = parser.parse_args(argv)
    old_src, new_src = ns.old_src.resolve(), ns.new_src.resolve()
    if ns.work is None:
        with tempfile.TemporaryDirectory(prefix="compare_outputs_") as work:
            return compare(old_src, new_src, Path(work).resolve())
    work = ns.work.resolve()
    status = compare(old_src, new_src, work)
    print(f"work dir kept: {work}")
    return status


def compare(old_src: Path, new_src: Path, work: Path) -> int:
    """Run the matrix under ``work`` and print each difference; the exit status."""
    fixtures = work / "fixtures"
    fixtures.mkdir(parents=True)
    (fixtures / "zero_mass.json").write_text(ZERO_MASS + "\n")
    for name, (seed, sizes) in FIXTURES.items():
        made = proxyot(old_src, ["gen-fixture", "--seed", str(seed), *sizes, "--out", str(fixtures / name)])
        if made.returncode != 0:
            sys.stderr.write(made.stderr.decode())
            return 2
    for name, source in RENAMED.items():
        rename_classes(fixtures / source, fixtures / name)
    runs = matrix(fixtures)
    differing = 0
    for i, (label, args) in enumerate(runs):
        old = outputs(old_src, args, work / "old" / f"{i:02d}")
        new = outputs(new_src, args, work / "new" / f"{i:02d}")
        names = [n for n in {**old, **new} if old.get(n) != new.get(n)]
        if names:
            differing += 1
            print(f"{label}: {', '.join(names)} differ")
            for name in names:
                print(describe(name, old.get(name), new.get(name)))
    print(f"{len(runs)} invocations a side, {differing} with differences")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
