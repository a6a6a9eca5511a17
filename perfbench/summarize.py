"""Fold sets of runs into one point of the benchmark trajectory.

    python3 perfbench/summarize.py NAME DIR [DIR ...]

Each DIR holds the result files (run.py writes them to perfbench/results/) of
one set of runs of the same code, for example ten seeds per workload; move a
set's files into a directory of its own before running the next set.  Writes
perfbench/trajectory/NAME.json: per set, workload and trace mode, every
metric's median, quartiles and sample count, the spread (quartile distance
over median) of the end-to-end metrics BENCHMARK.json declares, the bound
verdicts seen and the environment stamp of each run; and, for every later set,
how far each declared end-to-end median moved from the first set's, as a
share of it, next to the metric's bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import HERE, ROOT


def summarize(results: list[dict], gated: dict[str, float]) -> dict:
    groups = defaultdict(list)
    for result in results:
        groups[(result["workload"], int(result["trace"]))].append(result)
    point = {}
    for (workload, trace), runs in sorted(groups.items()):
        metrics = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric][0] for r in runs]
            q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                           else (values[0],) * 3)
            entry = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                     "unit": runs[0]["metrics"][metric][1]}
            if metric in gated and not trace and med:
                entry["spread"] = (q3 - q1) / med
            metrics[metric] = entry
        verdicts = defaultdict(set)
        for r in runs:
            for rec in r["experiments"]:
                for v in rec.get("verdicts", ()):
                    verdicts[f"{rec['label']}.{v['name']}"].add(v["passed"])
        point[f"{workload}/trace{trace}"] = {
            "seeds": [r["environment"]["seed"] for r in runs],
            "failed": sum(1 for r in runs for rec in r["experiments"] if rec["problems"]),
            "metrics": metrics,
            "verdicts_passed": {k: sorted(v) for k, v in sorted(verdicts.items())},
            "environments": [r["environment"] for r in runs],
        }
    return point


def agreement(first: dict, later: dict, gated: dict[str, float]) -> dict:
    """Per workload and declared end-to-end metric: (later - first) / first median."""
    out = {}
    for key, group in first.items():
        if not key.endswith("/trace0") or key not in later:
            continue
        out[key] = {metric: {"shift": later[key]["metrics"][metric]["median"] / entry["median"] - 1,
                             "bound": gated[metric]}
                    for metric, entry in group["metrics"].items() if metric in gated}
    return out


def main(name: str, dirs: list[str]) -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    sets = [summarize([json.loads(p.read_text()) for p in sorted(Path(d).glob("*.json"))], gated)
            for d in dirs]
    point = {"sets": sets,
             "agreement": [agreement(sets[0], later, gated) for later in sets[1:]]}
    out = HERE / "trajectory" / f"{name}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out}")
    for i, shifts in enumerate(point["agreement"], start=2):
        for key, metrics in shifts.items():
            worst = max(metrics.items(), key=lambda kv: abs(kv[1]["shift"]) / kv[1]["bound"])
            print(f"set {i} vs set 1, {key}: largest shift {worst[0]} "
                  f"{worst[1]['shift']:+.3f} (bound {worst[1]['bound']})")


if __name__ == "__main__":
    if len(sys.argv) < 3:
        raise SystemExit(__doc__)
    main(sys.argv[1], sys.argv[2:])
