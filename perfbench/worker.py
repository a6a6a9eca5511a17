"""Run one latcount experiment in this fresh interpreter and report on stdout.

    python3 perfbench/worker.py ROOT [--trace] [LATCOUNT_ARGS...]

Imports latcount from ROOT/src, then drives the experiment through the public
CLI functions: build_parser -> resolve_spec -> run_experiment -> render_csv /
render_json.  With no LATCOUNT_ARGS it only imports (a set-up probe).  Prints
one JSON line: the monotonic time at which the import finished, the set-up
time at reference speed (below), the experiment time, digests of the CSV and of the JSON with runtime_seconds dropped, the
count columns, the bound verdicts, the peak RSS and, with --trace, the call
tree.  An exception inside latcount is reported in the "error" field.

On a shared 2-vCPU Xeon host the CPU speed drifts by up to 40% over seconds
(other tenants share its cores), so the experiment is also reported as
``ref_s``: its CPU time scaled to a reference speed.  A SIGPROF timer
interrupts the experiment every 10 ms of CPU time to time a fixed pure-Python
loop; CPU time x mean(REF_NS / loop time) is the time the experiment would
take at the speed where that loop takes REF_NS.  A traced experiment is
sampled the same way, so traced and plain ref_s compare; the probes add about
2% to every span alike.  The set-up time is reported the same way, as
``setup_ref_s``: the CPU time from interpreter start until latcount is
imported, scaled by probes timed during that import.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import io
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
import traceback

COUNT_COLUMNS = ("count", "orbit_count", "gamma_count")
REF_NS = 100_000
PROBE_EVERY_S = 0.01
BRACKET_PROBES = 5  # probes just before and just after the experiment


def speed_probe() -> int:
    """Nanoseconds taken by a fixed pure-Python loop of float math and small lists.

    Of the loops tried on a shared 2-vCPU Xeon host, this one's slowdown under
    contention best matched that of latcount's kinds, short ones included.
    """
    t0 = time.perf_counter_ns()
    acc = 0.0
    for i in range(300):
        x = math.cos(i * 0.1) * 1.5 + math.sqrt(i + 1.0)
        m = [[x, 1.0], [0.5, x]]
        acc += m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return time.perf_counter_ns() - t0


def sampled(fn, samples: list[int]):
    """Call fn() with speed_probe() timed every PROBE_EVERY_S of CPU time."""
    previous = signal.signal(signal.SIGPROF, lambda *_: samples.append(speed_probe()))
    signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, previous)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(csv_text: str, json_text: str) -> dict:
    payload = json.loads(json_text)
    payload.pop("runtime_seconds", None)
    return {"csv": sha256(csv_text),
            "json": sha256(json.dumps(payload, sort_keys=True))}


def count_columns(csv_text: str) -> dict[str, list[int]]:
    rows = list(csv.reader(io.StringIO(csv_text)))
    header, body = rows[0], rows[1:]
    return {col: [int(r[i]) for r in body]
            for i, col in enumerate(header)
            if col in COUNT_COLUMNS and all(r[i] for r in body)}


def verdicts(json_text: str) -> list[dict]:
    keep = ("name", "fitted", "theoretical", "theoretical_low", "theoretical_high", "passed")
    return [{k: b[k] for k in keep if k in b} for b in json.loads(json_text)["bounds"]]


def main(argv: list[str]) -> int:
    root, rest = argv[0], argv[1:]
    trace = bool(rest) and rest[0] == "--trace"
    latcount_args = rest[1:] if trace else rest
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "latcount", "cli.py")):
        print(f"worker: no latcount sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    for _ in range(3):
        speed_probe()  # warm up: the first calls run slower
    import_samples = [speed_probe()]
    cli = sampled(lambda: importlib.import_module("latcount.cli"), import_samples)
    ready_ns = time.monotonic_ns()
    import_samples.append(speed_probe())
    # CPU time from interpreter start to here, at the reference speed
    setup_ref_s = time.process_time() * statistics.fmean(REF_NS / ns for ns in import_samples)
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"worker: imported latcount from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    import numpy

    out = {"ready_ns": ready_ns, "setup_ref_s": setup_ref_s, "python": sys.version.split()[0],
           "numpy": numpy.__version__, "error": None}
    if latcount_args:
        tracer = None
        if trace:
            from calltree import Tracer
            tracer = Tracer()
            tracer.install()

        def experiment():
            args = cli.build_parser().parse_args(latcount_args)
            report = cli.run_experiment(cli.resolve_spec(args))
            return cli.render_csv(report), cli.render_json(report)

        samples = [speed_probe() for _ in range(BRACKET_PROBES)]
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            body = (lambda: tracer.run(experiment)) if tracer else experiment
            csv_text, json_text = sampled(body, samples)
        except Exception:
            out["error"] = traceback.format_exc(limit=3)
        out["seconds"] = time.perf_counter() - t0
        cpu_s = time.process_time() - c0
        samples += [speed_probe() for _ in range(BRACKET_PROBES)]
        out["ref_s"] = cpu_s * statistics.fmean(REF_NS / ns for ns in samples)
        out["speed_samples"] = len(samples)
        if not out["error"]:
            out["digest"] = digests(csv_text, json_text)
            out["counts"] = count_columns(csv_text)
            out["verdicts"] = verdicts(json_text)
        if tracer:
            out["trace"] = tracer.tree(" ".join(latcount_args))
    out["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
