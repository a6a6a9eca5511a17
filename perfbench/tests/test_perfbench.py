"""Tests of the benchmark harness itself, on tiny thresholds.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import calltree  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Experiment, Workload, command_lines  # noqa: E402

TINY = {
    "sl2z-frobenius": Workload("tiny", (
        Experiment("count", "count", 20.0, 1),
        Experiment("coset", "coset", 20.0, 2),
        Experiment("torus", "torus", 20.0, 2),
    ), same_top_count=("count", "coset", "torus")),
    "lattice-paths": Workload("tiny", (
        Experiment("sarith", "sarith", 12.0, 1),
        Experiment("forms", "forms", 1e3, 2),
        Experiment("sl3z-count", "count", 2.5, 2, flags=("--group", "sl3z", "--steps", "6")),
    )),
    "quadrature": Workload("tiny", (
        Experiment("volume", "volume", 20.0, 1),
        Experiment("spectral", "spectral", 10.0, 2),
        Experiment("balanced", "balanced", 20.0, 2, repeats=2),
        Experiment("admissibility", "admissibility", 20.0, 2),
    )),
}
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, workload in TINY.items():
        monkeypatch.setitem(WORKLOADS, name, workload)
    monkeypatch.setattr(run, "RESULTS_DIR", tmp_path / "results")
    monkeypatch.setattr(run, "REFERENCE", tmp_path / "digests.json")
    monkeypatch.setattr(run, "SETUP_PROBES", 2)
    return tmp_path


def bench(capsys, workload, seed, trace):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    record = json.loads((run.RESULTS_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return out, record


def assert_declared(out, key):
    declared = {m["name"]: m["unit"] for m in DECLARED[key]}
    emitted = {name: m["unit"] for name, m in out["metrics"].items()}
    assert emitted == declared
    for m in out["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_end_to_end_metric_is_emitted_with_its_unit(tiny, capsys, workload):
    out, record = bench(capsys, workload, 1, 0)
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == sum(e.repeats for e in TINY[workload].experiments)
    assert_declared(out, "end_to_end")
    assert record["metrics"]["failed_share"][0] == 0.0


def test_traced_run_emits_layers_with_well_formed_spans(tiny, capsys):
    out, record = bench(capsys, "sl2z-frobenius", 0, 1)
    assert out["correct"]
    assert_declared(out, "per_layer")
    trees = [rec["trace"] for rec in record["experiments"] if "trace" in rec]
    assert len(trees) == 3
    for tree in trees:
        assert calltree.problems(tree) == []
        names = {node["name"] for node, _ in calltree.walk(tree)}
        assert {"cli.run_experiment", "lattice.enumerate_ball", "gauges.gauge_leq"} <= names
    m = record["metrics"]
    top_counts = [rec["counts"]["count"][-1] for rec in record["experiments"] if "trace" in rec]
    assert m["lattice.elements_kept"][0] == sum(top_counts)
    assert 0 < m["lattice.keep_ratio"][0] < 1

    again, _ = bench(capsys, "sl2z-frobenius", 0, 1)
    for name, metric in out["metrics"].items():
        if metric["unit"] == "count":
            assert again["metrics"][name] == metric, name


TRACED_COUNT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from calltree import Tracer
from latcount import cli, groups
tracer = Tracer()
tracer.install()
if sys.argv[3] == "bypass":  # as a trusted constructor would: no __post_init__
    groups.GroupElement.__post_init__ = lambda self: None
args = cli.build_parser().parse_args(["count", "--tmax", "20", "--threads", "1"])
tracer.run(lambda: cli.run_experiment(cli.resolve_spec(args)))
print(json.dumps(tracer.tree("count")))
"""


def traced_count(mode):
    proc = subprocess.run([sys.executable, "-c", TRACED_COUNT, str(HERE),
                           str(HERE.parent / "src"), mode],
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


def test_elements_built_does_not_depend_on_element_construction():
    counted, bypassed = traced_count("validate"), traced_count("bypass")
    constructed = {name: sum(n["calls"] for n, _ in calltree.walk(tree)
                             if n["name"] == "groups.GroupElement")
                   for name, tree in (("counted", counted), ("bypassed", bypassed))}
    assert constructed["counted"] > 0 and constructed["bypassed"] == 0
    agg, built, _ = run.aggregate([counted])
    _, built_bypassed, _ = run.aggregate([bypassed])
    assert built == built_bypassed
    assert 0 < agg["lattice.enumerate_ball"]["items"] < built


def test_problems_flags_a_child_outside_its_parent():
    leaf = {"name": "b", "start_ns": 5, "end_ns": 30, "total_ns": 25, "self_ns": 25,
            "children": []}
    tree = {"name": "a", "start_ns": 0, "end_ns": 20, "total_ns": 20, "self_ns": -5,
            "children": [leaf]}
    found = calltree.problems(tree)
    assert any("outside its parent" in p for p in found)
    assert any("negative self time" in p for p in found)


def test_a_corrupted_reference_digest_is_a_failed_operation(tiny, capsys):
    _, record = bench(capsys, "lattice-paths", 2, 0)
    digests = {rec["label"]: rec["digest"] for rec in record["experiments"]}
    reference = {"lattice-paths": {"2": digests}}
    run.REFERENCE.write_text(json.dumps(reference))
    out, _ = bench(capsys, "lattice-paths", 2, 0)
    assert out["correct"] and out["failed"] == 0

    digests["forms"] = dict(digests["forms"], json="0" * 64)
    run.REFERENCE.write_text(json.dumps(reference))
    out, record = bench(capsys, "lattice-paths", 2, 0)
    assert not out["correct"] and out["failed"] == 1
    assert record["metrics"]["failed_share"][0] == pytest.approx(1 / 3)


def test_seed_zero_is_the_stated_spec_and_other_seeds_move_only_inputs():
    frob = command_lines(WORKLOADS["sl2z-frobenius"], 0)
    assert frob["count"] == ["count", "--tmax", "150.0", "--threads", "1"]
    moved = command_lines(WORKLOADS["sl2z-frobenius"], 7)
    tops = {float(argv[argv.index("--tmax") + 1]) for argv in moved.values()}
    assert len(tops) == 1 and 150.0 < tops.pop() < 151.5
    assert "--x0" in moved["torus"]
    assert command_lines(WORKLOADS["quadrature"], 7) == command_lines(WORKLOADS["quadrature"], 7)


def test_missing_program_sources_fail_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(DECLARED))
    assert run.main(["--workload", "quadrature", "--seconds", "0"]) != 0
    assert capsys.readouterr().out == ""
