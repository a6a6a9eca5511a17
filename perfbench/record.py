"""Record the reference digests that run.py checks every experiment's output against.

    python3 perfbench/record.py --seeds 0-9

Runs each experiment of every workload once per seed, untimed and one per CPU
at a time, and stores the digests of its CSV and of its JSON (runtime_seconds
dropped) in perfbench/reference/digests.json, keeping entries for other seeds.
Record only from a commit whose outputs are the accepted ones.
"""

from __future__ import annotations

import argparse
import json
import os
from concurrent.futures import ThreadPoolExecutor

from run import REFERENCE, launch
from workloads import WORKLOADS, command_lines


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-9")
    args = ap.parse_args()
    tasks = [(name, seed, label, argv)
             for name, workload in WORKLOADS.items()
             for seed in args.seeds
             for label, argv in command_lines(workload, seed).items()]
    with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
        records = list(pool.map(lambda task: launch(task[3]), tasks))
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for (name, seed, label, argv), rec in zip(tasks, records):
        if rec["error"]:
            raise SystemExit(f"{name} seed {seed} {label} raised:\n{rec['error']}")
        reference.setdefault(name, {}).setdefault(str(seed), {})[label] = rec["digest"]
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(tasks)} experiments into {REFERENCE}")


if __name__ == "__main__":
    main()
