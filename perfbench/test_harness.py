"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json

import pytest

import run as bench
import traced as traced_module

TINY = bench.Workload(
    "tiny",
    dict(n_images=60, n_classes=3, dim=8, descriptions_per_class=5),
    ("--mode", "kpl_full", "--algorithm", "sinkhorn_log", "--epochs", "20"),
    inputs_per_run=2,
)


def test_benchmark_json_names_the_metrics_the_harness_prints():
    doc = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench.PER_LAYER_UNITS
    assert {w["name"] for w in doc["workloads"]} == set(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_appears_with_its_unit(tmp_path, trace):
    line = bench.measure(TINY, seed=3, seconds=0, trace=trace, work=tmp_path, say=lambda _: None)
    units = bench.PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= bench.MIN_CALLS
    assert set(line["metrics"]) == set(units)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
    json.dumps(line, allow_nan=False)


def _one_call(tmp_path, workload=TINY, seed=3):
    fixture_dir = bench.fixture(workload, seed, tmp_path)
    out = tmp_path / "report.json"
    args = ["cli", *bench.eval_args(workload, fixture_dir, seed, out)]
    assert bench.spawn("child.py", args, tmp_path, "call").code == 0
    return fixture_dir, out


def test_output_checks_pass_on_a_good_report_and_fire_on_corrupted_ones(tmp_path):
    fixture_dir, out = _one_call(tmp_path)
    errors, facts = bench.check_outputs(TINY, fixture_dir, 3, out)
    assert errors == []

    good = out.read_bytes()
    doc = json.loads(good)
    doc["predictions"][0] = (doc["predictions"][0] + 1) % doc["n_classes"]
    out.write_text(json.dumps(doc, indent=2) + "\n")
    errors, _ = bench.check_outputs(TINY, fixture_dir, 3, out)
    assert any("CSV" in e for e in errors) and any("accuracy" in e for e in errors)

    doc = json.loads(good)
    doc["accuracy"] = 1.0 if doc["accuracy"] != 1.0 else 0.5
    out.write_text(json.dumps(doc, indent=2) + "\n")
    errors, _ = bench.check_outputs(TINY, fixture_dir, 3, out)
    assert any("accuracy" in e for e in errors)

    out.write_bytes(good[: len(good) // 2])
    errors, _ = bench.check_outputs(TINY, fixture_dir, 3, out)
    assert errors and errors[0].startswith("unreadable")

    out.write_bytes(good)
    wrong_reference = bench.Workload(**{**TINY.__dict__, "reference_correct": {3: facts["correct"] + 1}})
    errors, _ = bench.check_outputs(wrong_reference, fixture_dir, 3, out)
    assert any("reference" in e for e in errors)


def test_traced_run_writes_the_same_bytes_as_the_cli(tmp_path):
    fixture_dir, out = _one_call(tmp_path)
    traced = tmp_path / "traced.json"
    child = bench.spawn("traced.py", bench.eval_args(TINY, fixture_dir, 3, traced), tmp_path, "traced")
    assert child.code == 0
    assert traced.read_bytes() == out.read_bytes()
    assert bench.csv_path(traced).read_bytes() == bench.csv_path(out).read_bytes()
    names = [s["name"] for s in child.doc["spans"]]
    assert names[0] == "cli.main" and set(traced_module.EXPECTED) <= set(names)
    called = [s["name"] for s in child.doc["spans"] if s["parent"] == 0 and not s.get("derived")]
    assert called.index("solvers.solve") < called.index("learner.learn") < called.index("learner.classify")

