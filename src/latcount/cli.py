"""Experiment driver: one command per pipeline, CSV/JSON reports out."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field, fields, replace
from typing import Callable

from . import __version__
from .errors import BudgetError, NumericalError, SpecError
from .gauges import Gauge, parse_gauge
from .groups import GROUPS, resolve_group
from .haar import (
    admissibility_estimate,
    balanced_volume_ratio,
    balanced_volume_verdict,
    balanced_weight_criterion,
    ball_volume_profile,
    convolve_profiles,
    fit_growth,
    tensor_factor_profiles,
    tensor_weights,
    volume_growth,
)
from .lattice import count_series, orbit_forms_series
from .spectral import (
    counting_error_exponent,
    default_params,
    spectral_decay_theta,
    spectral_summary,
    xi_eval,
)
from .torus import CosetObservable, TorusCharacter, decay_fit, deviation_series

_DEFAULT_X0 = (math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0)


@dataclass
class ExperimentSpec:
    """Fully resolved parameters of one experiment run."""

    kind: str
    group: str
    gauge: Gauge
    scale: str
    tmax: float
    steps: int
    thresholds: tuple[float, ...]
    q: int | None
    p: float
    r: float
    prime: int
    observable: tuple[int, ...] | None
    x0: tuple[float, ...] | None
    threads: int
    seed: int
    budget: int | None

    def echo(self) -> dict:
        echo = {f.name: getattr(self, f.name) for f in fields(self)}
        echo["gauge"] = self.gauge.describe()
        return echo


@dataclass
class Report:
    """Everything one run produced, ready for CSV/JSON emission."""

    spec: ExperimentSpec
    columns: tuple[str, ...]
    rows: list[tuple]
    fits: dict = field(default_factory=dict)
    bounds: list[dict] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    runtime_seconds: float = 0.0

    def as_json_dict(self) -> dict:
        return {
            "version": __version__,
            "spec": self.spec.echo(),
            "table": {"columns": list(self.columns), "rows": [list(r) for r in self.rows]},
            "fits": self.fits,
            "bounds": self.bounds,
            "extras": self.extras,
            "runtime_seconds": self.runtime_seconds,
        }


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="latcount",
        description="Count lattice points in gauge balls and test the matching "
        "volume, equidistribution, and decay predictions.",
    )
    ap.add_argument("kind", choices=tuple(_KINDS), help="experiment pipeline to run")
    ap.add_argument("--config", help="key=value file; explicit flags override it")
    ap.add_argument("--group", choices=tuple(GROUPS))
    ap.add_argument("--gauge", help="gauge spec, e.g. rnorm:2, hyperbolic, "
                    "form:deg=4:coeffs=1,0,0,0,1, height:p=2")
    ap.add_argument("--scale", choices=("T", "t"), help="scale of --tmax")
    ap.add_argument("--tmax", type=float, help="largest threshold")
    ap.add_argument("--steps", type=int, help="number of grid thresholds")
    ap.add_argument("--q", type=int, help="modulus (coset) / tensor power l (balanced)")
    ap.add_argument("--p", type=float, help="integrability index for spectral runs")
    ap.add_argument("--r", type=float, help="norm index for spectral runs")
    ap.add_argument("--prime", type=int, help="prime for S-arithmetic runs")
    ap.add_argument("--observable", help="character frequencies m1,m2")
    ap.add_argument("--x0", help="torus base point a,b")
    ap.add_argument("--threads", type=int, help="no effect; echoed in the JSON spec")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--budget", type=int,
                    help="budget override: elements of a walked ball, "
                         "r2 table entries of a shell count")
    ap.add_argument("--out", help="output path prefix (default: stdout)")
    ap.add_argument("--format", choices=("csv", "json"),
                    help="emit only this format (default: both)")
    return ap


def load_config(path: str) -> dict[str, str]:
    """Plain key=value lines; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise SpecError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise SpecError(f"cannot read config {path}: {exc}") from exc
    return out


def _merge(args: argparse.Namespace, config: dict[str, str], key: str, cast, default=None):
    """The flag, else the config value, else default; a string is cast once."""
    value = getattr(args, key)
    if value is None:
        value = config.get(key, default)
    if not isinstance(value, str):
        return value
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"config value {key}={value!r} is not a valid {cast.__name__}") from exc


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise SpecError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_float_tuple(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise SpecError(f"expected comma-separated reals, got {text!r}") from exc


def _to_native_tmax(gauge: Gauge, scale: str, tmax: float) -> float:
    """Convert a declared-scale threshold to the gauge's native scale."""
    if scale == gauge.scale:
        return tmax
    if gauge.scale == "t":
        # declared T, native hyperbolic radius
        if tmax * tmax <= 2.0:
            raise SpecError(f"threshold T={tmax:g} is inside the identity shell")
        return math.acosh(tmax * tmax / 2.0)
    # native T-scale gauge, declared t
    if gauge.kind == "rnorm" and gauge.r == 2.0:
        return math.sqrt(2.0 * math.cosh(tmax))
    return math.exp(tmax)


def _grid(kind: str, gauge: Gauge, tmax: float, steps: int) -> tuple[float, ...]:
    """Deterministic threshold grid in the gauge's native scale."""
    if steps < 1:
        raise SpecError(f"steps must be >= 1, got {steps}")
    if steps == 1:
        return (tmax,)
    if kind == "admissibility":
        lo = max(1.0, tmax / 2.0)
        return tuple(lo + (tmax - lo) * i / (steps - 1) for i in range(steps))
    if kind == "balanced":
        lo = max(2.0, tmax / 5.0)
        return tuple(lo + (tmax - lo) * i / (steps - 1) for i in range(steps))
    if gauge.scale == "T":
        lo = max(2.0, tmax / 100.0)
        if lo >= tmax:
            raise SpecError(f"tmax {tmax:g} too small for a T-scale grid")
        return tuple(lo * (tmax / lo) ** (i / (steps - 1)) for i in range(steps))
    lo = max(1.0, tmax / 10.0)
    if lo >= tmax:
        raise SpecError(f"tmax {tmax:g} too small for a t-scale grid")
    return tuple(lo + (tmax - lo) * i / (steps - 1) for i in range(steps))


def resolve_spec(args: argparse.Namespace) -> ExperimentSpec:
    config = load_config(args.config) if args.config else {}
    row = _KINDS[args.kind]

    group = _merge(args, config, "group", str, row.group)
    resolve_group(group)
    prime = _merge(args, config, "prime", int, 2)
    gauge = parse_gauge(_merge(args, config, "gauge", str, row.gauge or f"height:p={prime}"))
    scale = _merge(args, config, "scale", str, gauge.scale)
    if scale not in ("T", "t"):
        raise SpecError(f"scale must be T or t, got {scale!r}")
    tmax = _merge(args, config, "tmax", float, row.tmax)
    steps = _merge(args, config, "steps", int, row.steps)
    try:
        tmax_native = _to_native_tmax(gauge, scale, tmax)
    except OverflowError:
        tmax_native = math.inf
    if not math.isfinite(tmax_native):
        raise SpecError(f"tmax {tmax:g} on the {scale} scale gives no finite threshold")
    return ExperimentSpec(
        kind=args.kind,
        group=group,
        gauge=gauge,
        scale=scale,
        tmax=tmax,
        steps=steps,
        thresholds=_grid(args.kind, gauge, tmax_native, steps),
        observable=_merge(args, config, "observable", _parse_int_tuple),
        x0=_merge(args, config, "x0", _parse_float_tuple),
        q=_merge(args, config, "q", int, row.q),
        p=_merge(args, config, "p", float, 2.0),
        r=_merge(args, config, "r", float, 2.0),
        prime=prime,
        threads=_merge(args, config, "threads", int, 1),
        seed=_merge(args, config, "seed", int, 0),
        budget=_merge(args, config, "budget", int),
    )


def _ratio_decay_fit(series) -> dict | None:
    """Exponential fit of |ratio - 1| against log T (native t / dt_dlogT)."""
    g = series.gauge
    samples = [(g.threshold_to_t(row.threshold) / g.dt_dlogT(), row.abs_dev)
               for row in series.rows if row.abs_dev is not None and row.abs_dev > 0.0]
    if len(samples) < 5:
        return None
    fit = fit_growth(samples, "exp_decay", window=(samples[0][0], samples[-1][0]))
    return fit.as_json_dict()


_COUNT_COLUMNS = ("threshold", "count", "volume", "ratio", "abs_dev")


def _bound(name: str, comparison: str, fitted, passed, **theory) -> dict:
    """One pass/fail bound entry; theory is theoretical=..., or for a range
    theoretical_low=... and theoretical_high=..."""
    return {"name": name, "comparison": comparison, **theory,
            "fitted": fitted, "passed": bool(passed)}


def _run_count(spec: ExperimentSpec) -> Report:
    series = count_series(
        spec.group, spec.gauge, spec.thresholds,
        budget=spec.budget,
    )
    rows = [
        (r.threshold, r.count, r.volume, r.ratio, r.abs_dev) for r in series.rows
    ]
    fits: dict = {}
    bounds: list[dict] = []
    decay = _ratio_decay_fit(series)
    if decay is not None:
        fits["ratio_decay"] = decay
        if spec.group == "sl2z" and spec.gauge.bi_K_invariant:
            summary = spectral_summary(spec.group, spec.gauge, p=spec.p, r=spec.r)
            fitted_rate = decay["params"]["a"]
            theoretical = summary["alpha_T_scale"]
            bounds.append(_bound("ratio_decay_rate_vs_alpha",
                                 "fitted decay rate (per log T) >= alpha_T_scale",
                                 fitted_rate, fitted_rate >= theoretical,
                                 theoretical=theoretical))
            fits["alpha"] = summary
    return Report(
        spec=spec,
        columns=_COUNT_COLUMNS,
        rows=rows,
        fits=fits,
        bounds=bounds,
    )


def _tail_window(thresholds: tuple[float, ...], gauge: Gauge) -> tuple[float, float]:
    """Upper half of the grid in the scale the exponent lives in."""
    lo, hi = thresholds[0], thresholds[-1]
    if gauge.scale == "T":
        return (math.sqrt(lo * hi), hi)
    return ((lo + hi) / 2.0, hi)


def _run_volume(spec: ExperimentSpec) -> Report:
    desc = resolve_group(spec.group)
    vols, fit, t_exponent = volume_growth(spec.group, spec.gauge, spec.thresholds,
                                          _tail_window(spec.thresholds, spec.gauge))
    rows = [(t, None, v, None, None) for t, v in zip(spec.thresholds, vols)]
    theory = float(desc.n * desc.n - desc.n)
    tol = 0.05 if desc.n == 2 else 0.2
    return Report(
        spec=spec,
        columns=_COUNT_COLUMNS,
        rows=rows,
        fits={"volume_growth": fit.as_json_dict()},
        bounds=[_bound("volume_T_exponent", f"|fitted T-exponent - {theory:g}| <= {tol:g}",
                       t_exponent, abs(t_exponent - theory) <= tol, theoretical=theory)],
    )


def _run_admissibility(spec: ExperimentSpec) -> Report:
    profile = ball_volume_profile(spec.group, spec.gauge)
    eps_grid = (0.01, 0.02, 0.05)
    report = admissibility_estimate(
        profile, spec.thresholds, eps_grid, samples=10_000, seed=spec.seed
    )
    rows = [(t, e, c) for t, e, c in report.table]
    return Report(
        spec=spec,
        columns=("t", "eps", "c_hat"),
        rows=rows,
        extras={
            "c_sup": report.c_sup,
            "verdict": report.verdict,
            "product_checked": report.product_checked,
            "product_violations": report.product_violations,
            "product_c": report.product_c,
        },
        bounds=[_bound("admissible_c", "|c_sup - 1| <= 0.05 and zero product violations",
                       report.c_sup,
                       abs(report.c_sup - 1.0) <= 0.05 and report.product_violations == 0,
                       theoretical=1.0)],
    )


def _run_balanced(spec: ExperimentSpec) -> Report:
    l = spec.q
    if l < 2:
        raise SpecError(f"tensor power must be >= 2, got {l}")
    weight = balanced_weight_criterion(
        tensor_weights(l), rho=(1, 1), factor_split=((0,), (1,))
    )
    f1, f2 = tensor_factor_profiles(l)
    product = convolve_profiles(f1, f2, t_max=spec.thresholds[-1] + 1.0)
    rows = []
    for t in spec.thresholds:
        rows.append((
            t,
            balanced_volume_ratio(product, f1, t),
            balanced_volume_ratio(product, f2, t),
        ))
    volume_verdict = balanced_volume_verdict(product, spec.thresholds)
    agree = weight.verdict == volume_verdict
    return Report(
        spec=spec,
        columns=("t", "ratio_factor1", "ratio_factor2"),
        rows=rows,
        extras={
            "l": l,
            "weight_verdict": weight.verdict,
            "delta": float(weight.delta),
            "volume_verdict": volume_verdict,
        },
        bounds=[_bound("verdict_agreement", "weight-polytope verdict == volume-ratio verdict",
                       volume_verdict, agree, theoretical=weight.verdict)],
    )


def _deviation_report(spec: ExperimentSpec, observable, point) -> Report:
    series = deviation_series(
        spec.group, spec.gauge, spec.thresholds, observable, point,
        budget=spec.budget,
    )
    fit = decay_fit(series)
    return Report(
        spec=spec,
        columns=("t", "deviation", "count"),
        rows=list(series.rows),
        fits={"deviation_decay": fit.as_json_dict()},
        bounds=[_bound("decay_rate_positive",
                       "fitted decay rate > 0 (paper rate is existential)",
                       fit.a, fit.a > 0.0, theoretical=0.0)],
        extras={"observable": series.observable_label},
    )


def _run_coset(spec: ExperimentSpec) -> Report:
    return _deviation_report(spec, CosetObservable(spec.q), None)


def _run_torus(spec: ExperimentSpec) -> Report:
    m = spec.observable if spec.observable is not None else (1, 0)
    x0 = spec.x0 if spec.x0 is not None else _DEFAULT_X0
    return _deviation_report(spec, TorusCharacter(tuple(m)), tuple(x0))


def _run_spectral(spec: ExperimentSpec) -> Report:
    summary = spectral_summary(spec.group, spec.gauge, p=spec.p, r=spec.r)
    n = resolve_group(spec.group).n
    base = default_params(spec.group, p=spec.p, r=spec.r)
    theta_exact = spectral_decay_theta(float(n * n - n), base)
    alpha_exact = counting_error_exponent(replace(base, theta=theta_exact))
    alpha = summary["alpha_T_scale"]
    steps = max(2, spec.steps)
    s_vals = [10.0 * i / (steps - 1) for i in range(steps)]
    rows = [(s, xi_eval(s)) for s in s_vals]
    return Report(
        spec=spec,
        columns=("s", "xi"),
        rows=rows,
        fits={"alpha": summary},
        bounds=[_bound("alpha_T_scale",
                       "alpha from measured volume growth vs exact-growth alpha",
                       alpha, abs(alpha - alpha_exact) <= 0.01, theoretical=alpha_exact)],
    )


def _run_forms(spec: ExperimentSpec) -> Report:
    if spec.gauge.kind != "rep_form":
        raise SpecError("forms experiments need a form:... gauge")
    f0 = spec.gauge.form
    rows = []
    samples = []
    for t, oc in zip(spec.thresholds, orbit_forms_series(f0, spec.thresholds, budget=spec.budget)):
        rows.append((t, oc.orbit_count, oc.stabilizer_order, oc.gamma_count))
        samples.append((t, float(oc.orbit_count)))
    window = (spec.thresholds[0], spec.thresholds[-1])
    fit = fit_growth(samples, "power", window=window)
    theory = 2.0 / f0.degree
    return Report(
        spec=spec,
        columns=("threshold", "orbit_count", "stabilizer_order", "gamma_count"),
        rows=rows,
        fits={"orbit_growth": fit.as_json_dict()},
        bounds=[_bound("orbit_exponent", f"|fitted exponent - {theory:g}| <= 0.15",
                       fit.a, abs(fit.a - theory) <= 0.15, theoretical=theory)],
    )


def _run_sarith(spec: ExperimentSpec) -> Report:
    if spec.group != "sl2z1p":
        raise SpecError("sarith experiments need --group sl2z1p")
    series = count_series(
        spec.group, spec.gauge, spec.thresholds,
        budget=spec.budget,
    )
    rows = [(r.threshold, r.count, r.volume, r.ratio, r.abs_dev) for r in series.rows]
    samples = [(r.threshold, float(r.count)) for r in series.rows if r.count > 0]
    if len(samples) < 5:
        raise SpecError("need at least 5 nonempty thresholds to fit the exponent")
    fit = fit_growth(samples, "power", window=_tail_window(spec.thresholds, spec.gauge))
    return Report(
        spec=spec,
        columns=_COUNT_COLUMNS,
        rows=rows,
        fits={"count_growth": fit.as_json_dict()},
        bounds=[_bound("sarith_count_exponent", "2.0 <= fitted exponent <= 2.3",
                       fit.a, 2.0 <= fit.a <= 2.3,
                       theoretical_low=2.0, theoretical_high=2.3)],
    )


@dataclass(frozen=True)
class _Kind:
    """One experiment kind: its pipeline and the defaults of its spec."""

    run: Callable[[ExperimentSpec], Report]
    gauge: str | None  # None: the height gauge of --prime
    tmax: float
    steps: int
    q: int | None = None
    group: str = "sl2z"


# The kinds in CLI order, each with its pipeline and the knobs that have a
# natural experiment scale.
_KINDS = {
    "count": _Kind(_run_count, "rnorm:2", 150.0, 12),
    "volume": _Kind(_run_volume, "rnorm:2", 150.0, 9),
    "admissibility": _Kind(_run_admissibility, "hyperbolic", 20.0, 6),
    "balanced": _Kind(_run_balanced, "rnorm:2", 20.0, 5, q=3),
    "coset": _Kind(_run_coset, "rnorm:2", 150.0, 14, q=2),
    "torus": _Kind(_run_torus, "rnorm:2", 150.0, 14),
    "spectral": _Kind(_run_spectral, "rnorm:2", 10.0, 21),
    "forms": _Kind(_run_forms, "form:deg=4:coeffs=1,0,0,0,1", 1e5, 9),
    "sarith": _Kind(_run_sarith, None, 150.0, 9, group="sl2z1p"),
}


def run_experiment(spec: ExperimentSpec) -> Report:
    """Dispatch to the kind's pipeline and stamp the runtime."""
    start = time.perf_counter()
    report = _KINDS[spec.kind].run(spec)
    report.runtime_seconds = time.perf_counter() - start
    return report


def _round_floats(obj):
    """Round every float to 12 significant digits for bit-stable emission."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float(f"{obj:.12g}")
        return obj
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def render_csv(report: Report) -> str:
    lines = [",".join(report.columns)]
    for row in report.rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(report: Report) -> str:
    payload = _round_floats(report.as_json_dict())
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write_atomic(path: str, content: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".latcount-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(content)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def emit_report(report: Report, out: str | None, fmt: str | None) -> list[str]:
    """Write CSV/JSON next to the prefix, or stream one format to stdout."""
    if out is None:
        sys.stdout.write(render_csv(report) if fmt == "csv" else render_json(report))
        return []
    written = []
    if fmt in (None, "csv"):
        path = f"{out}.csv"
        _write_atomic(path, render_csv(report))
        written.append(path)
    if fmt in (None, "json"):
        path = f"{out}.json"
        _write_atomic(path, render_json(report))
        written.append(path)
    return written


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = resolve_spec(args)
        report = run_experiment(spec)
        written = emit_report(report, args.out, args.format)
    except SpecError as exc:
        print(f"latcount: invalid spec: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"latcount: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"latcount: numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"latcount: I/O failure: {exc}", file=sys.stderr)
        return 5
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
