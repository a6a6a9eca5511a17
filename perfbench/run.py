"""latcount benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: experiments run one after another, each in a
fresh interpreter (perfbench/worker.py), so latcount's process-wide caches
start cold as they do for a ``latcount <kind>`` call.  With --trace 0 the run
repeats whole passes over the workload while another pass still fits in S
seconds (always at least one) and reports medians.  With --trace 1 it runs one
plain pass and one traced pass and reports per-layer numbers from the trace.

Every experiment's CSV and JSON are checked against the recorded digests for
this seed (perfbench/reference/digests.json) when there are any, and against
two invariants for any seed: counts never decrease along a report, and the
experiments listed in ``same_top_count`` agree on the top-threshold count.

Human-readable lines (every metric by name, verdicts, environment) come
first; the last line of stdout is one JSON object with the metrics that
BENCHMARK.json declares.  The full record, spans included, goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from calltree import LAYERS, walk
from workloads import SLOTS, WORKLOADS, Workload, command_lines

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference" / "digests.json"
RESULTS_DIR = HERE / "results"
SETUP_PROBES = 8
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed experiment)."""


def launch(latcount_args: list[str], trace: bool = False) -> dict:
    """One fresh interpreter; adds setup_wall_s, launch to latcount imported."""
    env = dict(os.environ)
    env.pop("LATCOUNT_BUDGET", None)
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT)]
    cmd += ["--trace"] if trace else []
    t0 = time.monotonic_ns()
    proc = subprocess.run(cmd + latcount_args, capture_output=True, text=True,
                          env=env, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
    rec = json.loads(proc.stdout.splitlines()[-1])
    rec["setup_wall_s"] = (rec.pop("ready_ns") - t0) / 1e9
    return rec


def run_pass(workload: Workload, argvs: dict[str, list[str]], *, trace: bool,
             repeat: bool) -> list[dict]:
    records = []
    for exp in workload.experiments:
        for _ in range(exp.repeats if repeat else 1):
            rec = launch(argvs[exp.label], trace)
            rec["label"] = exp.label
            records.append(rec)
    return records


def check(workload: Workload, expected: dict, records: list[dict]) -> None:
    """Set rec["problems"]: an empty list means the experiment's output is correct."""
    for rec in records:
        problems = rec["problems"] = []
        if rec["error"]:
            problems.append("raised: " + rec["error"].strip().splitlines()[-1])
            continue
        want = expected.get(rec["label"])
        if want is not None and want != rec["digest"]:
            problems.append("output differs from the reference digest")
        for col, values in rec["counts"].items():
            if any(b < a for a, b in zip(values, values[1:])):
                problems.append(f"column {col} decreases")
    tops = {rec["label"]: rec["counts"]["count"][-1] for rec in records
            if rec["label"] in workload.same_top_count and not rec["error"]}
    if len(set(tops.values())) > 1:
        for rec in records:
            if rec["label"] in tops:
                rec["problems"].append(f"top-threshold counts disagree: {tops}")


def end_to_end(workload: Workload, records: list[dict], setups: list[dict]) -> dict:
    """Gated times are the reference-speed ones; raw wall times are shown too.

    ``setup_s`` is the median set-up CPU time at reference speed over the bare
    launches and the experiments; ``setup_wall_s`` is the same median of wall time.
    """
    def medians(key):
        by_label = defaultdict(list)
        for rec in records:
            by_label[rec["label"]].append(rec[key])
        return {label: statistics.median(v) for label, v in by_label.items()}

    failed = sum(1 for rec in records if rec["problems"])
    metrics = {
        "setup_s": (statistics.median(r["setup_ref_s"] for r in setups), "s"),
        "setup_wall_s": (statistics.median(r["setup_wall_s"] for r in setups), "s"),
        "peak_rss_mib": (max(rec["rss_mib"] for rec in records), "MiB"),
        "failed_share": (failed / len(records), "share"),
    }
    for suffix, key, unit in (("_s", "seconds", "s"), ("_ref_s", "ref_s", "ref_s")):
        per_label = medians(key)
        metrics["wall" + suffix] = (sum(per_label.values()), unit)
        for slot in SLOTS:
            metrics[f"exp{slot}{suffix}"] = (sum(per_label[e.label] for e in workload.experiments
                                                 if e.slot == slot), unit)
        for label, value in per_label.items():
            metrics[label + suffix] = (value, unit)
        short = [per_label[k] for k in ("spectral", "balanced", "admissibility") if k in per_label]
        if short:
            metrics["short_kinds" + suffix] = (sum(short), unit)
    return metrics


def aggregate(trees: list[dict]) -> tuple[dict, int, int]:
    """Per node name: summed calls/items/errors/total/self; elements built; first volume.

    Every element an enumerator generates is tested by exactly one ``gauge_leq``
    call made directly under ``enumerate_ball``, so those calls count the
    elements built however an element is constructed.
    """
    agg = defaultdict(lambda: defaultdict(int))
    built = first_volume_ns = 0
    for tree in trees:
        for node, parent in walk(tree):
            a = agg[node["name"]]
            for key in ("calls", "items", "errors", "total_ns", "self_ns"):
                a[key] += node[key]
            if (node["name"] == "gauges.gauge_leq" and parent is not None
                    and parent["name"] == "lattice.enumerate_ball"):
                built += node["calls"]
        first_volume_ns += tree["first_call_ns"].get("haar.volume_of_ball", 0)
    return agg, built, first_volume_ns


def per_layer(trees: list[dict], overhead_s: float) -> dict:
    agg, built, first_volume_ns = aggregate(trees)

    def calls(name):
        return (agg[name]["calls"], "count")

    def total(name):
        return (agg[name]["total_ns"] / 1e9, "s")

    def self_s(name):
        return (agg[name]["self_ns"] / 1e9, "s")

    kept = agg["lattice.enumerate_ball"]["items"]
    enum_s = agg["lattice.enumerate_ball"]["total_ns"] / 1e9
    cli_self = sum(a["self_ns"] for name, a in agg.items()
                   if name.startswith("cli.") and not name.startswith("cli.render"))
    metrics = {
        "lattice.enumerate.self_s": self_s("lattice.enumerate_ball"),
        "lattice.enumerate.calls": calls("lattice.enumerate_ball"),
        "lattice.elements_kept": (kept, "count"),
        "groups.elements_built": (built, "count"),
        "lattice.keep_ratio": (kept / built if built else 0.0, "ratio"),
        "lattice.bucket.self_s": self_s("lattice.bucket_index"),
        "lattice.bucket_index.calls": calls("lattice.bucket_index"),
        "lattice.elements_per_s": (kept / enum_s if enum_s else 0.0, "1/s"),
        "lattice.orbit_forms.self_s": self_s("lattice.orbit_forms_count"),
        "torus.deviation_series.self_s": self_s("torus.deviation_series"),
        "haar.first_volume_s": (first_volume_ns / 1e9, "s"),
        "cli.self_s": (cli_self / 1e9, "s"),
        "cli.render_s": ((agg["cli.render_csv"]["total_ns"]
                          + agg["cli.render_json"]["total_ns"]) / 1e9, "s"),
        "trace.overhead_s": (overhead_s, "ref_s"),
    }
    for name in ("gauges.forms_substitute", "gauges.gauge_leq", "gauges.gauge_eval",
                 "groups.reduce_mod", "groups.group_inv", "haar.volume_of_ball",
                 "spectral.xi_eval"):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.s"] = total(name)
    for name in ("torus.decay_fit", "haar.convolve_profiles", "haar.admissibility_estimate",
                 "haar.fit_growth", "spectral.spectral_summary"):
        metrics[f"{name}.s"] = total(name)
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = (sum(a["errors"] for name, a in agg.items()
                                          if name.startswith(layer + ".")), "count")
    return metrics


def environment(seed: int, records: list[dict]) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "latcount").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": records[0]["python"],
        "numpy": records[0]["numpy"],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the full record (metrics as name -> (value, unit))."""
    loadavg = os.getloadavg()
    workload = WORKLOADS[name]
    argvs = command_lines(workload, seed)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    expected = reference.get(name, {}).get(str(seed), {})
    # the build step: without cached bytecode (PYTHONDONTWRITEBYTECODE, a fresh
    # checkout) every launch would compile latcount, which an installed CLI does not
    if not compileall.compile_dir(ROOT / "src", quiet=2):
        raise BenchError(f"cannot byte-compile {ROOT / 'src'}")
    start = time.monotonic()
    if trace:
        plain = run_pass(workload, argvs, trace=False, repeat=False)
        traced = run_pass(workload, argvs, trace=True, repeat=False)
        records = plain + traced
        overhead = sum(r["ref_s"] for r in traced) - sum(r["ref_s"] for r in plain)
        metrics = per_layer([r["trace"] for r in traced], overhead)
        passes = 1
    else:
        setups = [launch([]) for _ in range(SETUP_PROBES)]
        records, passes = [], 0
        while True:
            t = time.monotonic()
            records += run_pass(workload, argvs, trace=False, repeat=True)
            passes += 1
            if time.monotonic() - start + (time.monotonic() - t) > seconds:
                break
        setups += records
    check(workload, expected, records)
    if not trace:
        metrics = end_to_end(workload, records, setups)
    env = environment(seed, records)
    env["loadavg_at_start"] = list(loadavg)
    return {
        "workload": name,
        "trace": trace,
        "passes": passes,
        "elapsed_s": time.monotonic() - start,
        "environment": env,
        "commands": argvs,
        "reference_checked": sorted(expected),
        "metrics": metrics,
        "experiments": records,
    }


def declared_metrics(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def report_lines(result: dict) -> list[str]:
    env = result["environment"]
    lines = [
        f"# workload {result['workload']}  trace {int(result['trace'])}  "
        f"passes {result['passes']}  elapsed {result['elapsed_s']:.1f} s",
        "# env " + " ".join(f"{k}={v}" for k, v in env.items()),
    ]
    for label, argv in result["commands"].items():
        lines.append(f"# command {label}: latcount {' '.join(argv)}")
    for name, (value, unit) in result["metrics"].items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        lines.append(f"# metric {name} = {shown} {unit}")
    seen = set()
    for rec in result["experiments"]:
        for v in rec.get("verdicts", ()):
            key = (rec["label"], v["name"])
            if key in seen:
                continue
            seen.add(key)
            theory = v.get("theoretical", [v.get("theoretical_low"), v.get("theoretical_high")])
            lines.append(f"# verdict {rec['label']} {v['name']}: fitted={v['fitted']} "
                         f"theoretical={theory} passed={v['passed']}")
        for problem in rec["problems"]:
            lines.append(f"# FAILED {rec['label']}: {problem}")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        names = declared_metrics(bool(args.trace))
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    for line in report_lines(result):
        print(line)
    failed = sum(1 for rec in result["experiments"] if rec["problems"])
    metrics = {n: {"value": result["metrics"][n][0], "unit": result["metrics"][n][1]}
               for n in names}
    print(json.dumps({"correct": failed == 0, "attempted": len(result["experiments"]),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
