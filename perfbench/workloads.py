"""The benchmark's workloads: which latcount experiments each one runs, per seed.

Every experiment is one ``latcount <kind> ...`` command line.  Seed 0 gives the
specs exactly as listed; any other seed changes only the generated inputs the
program sees: every top threshold of the workload moves up by the same factor
in [1, 1.01), the torus base point is drawn from the unit square, and the
admissibility sampler gets its own ``--seed``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Experiment:
    label: str
    kind: str
    tmax: float              # the CLI default, or the workload's stated threshold
    slot: int                # 1: the workload's lead experiment, 2: the others
    flags: tuple[str, ...] = ()
    repeats: int = 1         # fresh-interpreter runs per pass; short kinds repeat


@dataclass(frozen=True)
class Workload:
    why: str
    experiments: tuple[Experiment, ...]
    # labels whose reports must agree on the count at the top threshold
    same_top_count: tuple[str, ...] = ()


WORKLOADS: dict[str, Workload] = {
    "sl2z-frobenius": Workload(
        why="sl2z rnorm:2 ball at T=150 (criteria 2, 4, 5): enumeration, bucketing, "
            "gauge tests; exp1=count (count only), exp2=coset+torus (per-element observables)",
        experiments=(
            Experiment("count", "count", 150.0, 1),
            Experiment("coset", "coset", 150.0, 2),
            Experiment("torus", "torus", 150.0, 2),
        ),
        same_top_count=("count", "coset", "torus"),
    ),
    "lattice-paths": Workload(
        why="the other enumeration paths: exp1=sarith T=80 (p-power level ladder), "
            "exp2=forms at default (orbit counting) + sl3z count T=4.5 (third-row sweep)",
        experiments=(
            Experiment("sarith", "sarith", 80.0, 1),
            Experiment("forms", "forms", 1e5, 2),
            Experiment("sl3z-count", "count", 4.5, 2,
                       flags=("--group", "sl3z", "--steps", "6")),
        ),
    ),
    "quadrature": Workload(
        why="Haar and spectral quadrature, no lattice work: exp1=volume rnorm:1 with "
            "KAK calibration, exp2=spectral+balanced+admissibility, 9 runs each",
        experiments=(
            Experiment("volume", "volume", 150.0, 1, flags=("--gauge", "rnorm:1")),
            Experiment("spectral", "spectral", 10.0, 2, repeats=9),
            Experiment("balanced", "balanced", 20.0, 2, repeats=9),
            Experiment("admissibility", "admissibility", 20.0, 2, repeats=9),
        ),
    ),
}

SLOTS = (1, 2)


def command_lines(workload: Workload, seed: int) -> dict[str, list[str]]:
    """The latcount arguments of every experiment of the workload at this seed."""
    rng = random.Random(seed)
    factor = 1.0 if seed == 0 else 1.0 + 0.01 * rng.random()
    x0 = None if seed == 0 else (rng.random(), rng.random())
    sample_seed = 0 if seed == 0 else rng.randrange(1, 2**31)
    out = {}
    for exp in workload.experiments:
        argv = [exp.kind, *exp.flags, "--tmax", repr(exp.tmax * factor), "--threads", "1"]
        if exp.kind == "torus" and x0 is not None:
            argv += ["--x0", f"{x0[0]!r},{x0[1]!r}"]
        if exp.kind == "admissibility":
            argv += ["--seed", str(sample_seed)]
        out[exp.label] = argv
    return out
