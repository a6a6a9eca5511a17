"""Ergodic averages over norm balls: torus characters and residue cosets."""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import SpecError
from .gauges import Gauge
from .groups import GroupElement, ResidueClass, group_inv, reduce_mod, resolve_group
from .haar import GrowthFit, fit_growth
from .lattice import (
    CosetHistogram,
    enumerate_ball,
    progression_buckets,
    sl_residue_order,
    threshold_bucketer,
)

__all__ = [
    "TorusCharacter",
    "CosetIndicator",
    "CosetObservable",
    "DeviationSeries",
    "lattice_average",
    "deviation_series",
    "decay_fit",
]


@dataclass(frozen=True)
class TorusCharacter:
    """The character x -> exp(2 pi i <m, x>) on the n-torus."""

    m: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.m or any(not isinstance(k, int) for k in self.m):
            raise SpecError("character needs a nonempty integer frequency vector")

    @property
    def label(self) -> str:
        return "character:" + ",".join(str(k) for k in self.m)

    def target(self) -> complex:
        # Haar integral of the character: 1 for the trivial frequency, else 0.
        return complex(1.0) if all(k == 0 for k in self.m) else complex(0.0)


@dataclass(frozen=True)
class CosetIndicator:
    """Indicator of a single residue class mod q."""

    q: int
    rep: ResidueClass

    def __post_init__(self) -> None:
        if self.q < 2:
            raise SpecError(f"modulus must be >= 2, got {self.q}")

    @property
    def label(self) -> str:
        return f"coset-indicator:q={self.q}"


@dataclass(frozen=True)
class CosetObservable:
    """Sup-deviation over all residue classes mod q."""

    q: int

    def __post_init__(self) -> None:
        if self.q < 2:
            raise SpecError(f"modulus must be >= 2, got {self.q}")

    @property
    def label(self) -> str:
        return f"coset-sup:q={self.q}"


def _inverse_action(el: GroupElement, point: Sequence) -> tuple:
    """Coordinates of gamma^{-1} x, exact when the point is rational."""
    inv = group_inv(el)
    if inv.p_power != 0:
        raise SpecError("torus action needs integral matrices (p_power 0)")
    return _act(inv.entries, point)


def _act(rows: Sequence[Sequence[int]], point: Sequence) -> tuple:
    """rows . point; the one float expression behind every torus phase."""
    n = len(rows)
    return tuple(sum(rows[i][j] * point[j] for j in range(n)) for i in range(n))


def _phase(m: Sequence[int], coords: Sequence) -> complex:
    return _turn(sum(mi * ci for mi, ci in zip(m, coords)))


def _turn(total) -> complex:
    """exp(2 pi i total), reducing total mod 1 exactly when it is a Fraction."""
    if isinstance(total, Fraction):
        frac = total - (total.numerator // total.denominator)
        return cmath.exp(2j * math.pi * float(frac))
    return cmath.exp(2j * math.pi * (total % 1.0))


def lattice_average(
    elements: Sequence[GroupElement], observable, point: Sequence | None = None
) -> complex:
    """Mean of f(gamma^{-1} x) over the elements, in canonical order."""
    ordered = sorted(elements, key=lambda e: e.sort_key())
    if not ordered:
        raise SpecError("cannot average over an empty element set")
    if isinstance(observable, TorusCharacter):
        if point is None or len(point) != ordered[0].n:
            raise SpecError("torus character needs a base point of matching dimension")
        if len(observable.m) != ordered[0].n:
            raise SpecError("frequency vector dimension mismatch")
        reals: list[float] = []
        imags: list[float] = []
        for el in ordered:
            z = _phase(observable.m, _inverse_action(el, point))
            reals.append(z.real)
            imags.append(z.imag)
        n = len(ordered)
        return complex(math.fsum(reals) / n, math.fsum(imags) / n)
    if isinstance(observable, CosetIndicator):
        hits = sum(
            1 for el in ordered if reduce_mod(el, observable.q) == observable.rep
        )
        return complex(hits / len(ordered))
    raise SpecError(f"unsupported observable {observable!r}")


@dataclass(frozen=True)
class DeviationSeries:
    """Deviation-from-equidistribution at each threshold of one experiment."""

    group: str
    gauge_label: str
    scale: str
    system: str
    observable_label: str
    rows: tuple[tuple[float, float, int], ...]

    def table(self) -> list[tuple[float, float, int]]:
        return [tuple(r) for r in self.rows]

    def csv_lines(self) -> list[str]:
        out = ["t,deviation,count"]
        for t, dev, cnt in self.rows:
            out.append(f"{t:.12g},{dev:.12g},{cnt}")
        return out


def _check_thresholds(thresholds: Sequence[float]) -> tuple[float, ...]:
    thr = tuple(float(x) for x in thresholds)
    if not thr:
        raise SpecError("need at least one threshold")
    if any(b <= a for a, b in zip(thr, thr[1:])):
        raise SpecError("thresholds must be strictly increasing")
    return thr


def _one_pass(group, gauge, thr, elements, budget, threads):
    """(kernel, None) with sl2z's progression_buckets, else (None, elements to bucket).

    Call it after the observable checks: on the enumeration route the ball's
    own checks and budget gate come after them too, at the first element.
    """
    if elements is not None:
        return None, elements
    kernel = progression_buckets(group, gauge, thr, budget) if group == "sl2z" else None
    if kernel is not None:
        return kernel, None
    return None, enumerate_ball(group, gauge, thr[-1], budget=budget, threads=threads)


def deviation_series(
    group: str,
    gauge: Gauge,
    thresholds: Sequence[float],
    system: str,
    observable=None,
    point: Sequence | None = None,
    *,
    elements: Sequence[GroupElement] | None = None,
    budget: int | None = None,
    threads: int = 1,
) -> DeviationSeries:
    """One pass over the ball, deviations reported at every threshold.

    On sl2z the progression kernel feeds the pass (see progression_buckets);
    other groups, form gauges and explicit elements go element by element.
    Torus sums are fsum'd per bucket, so the order of the pass does not matter.
    """
    desc = resolve_group(group)
    thr = _check_thresholds(thresholds)
    k = len(thr)
    if system == "torus":
        if not isinstance(observable, TorusCharacter):
            raise SpecError("torus system needs a TorusCharacter observable")
        if point is None or len(point) != desc.n:
            raise SpecError("torus system needs a base point of matching dimension")
        if len(observable.m) != desc.n:
            raise SpecError("frequency vector dimension mismatch")
        m = observable.m
        bucket_re: list[list[float]] = [[] for _ in range(k)]
        bucket_im: list[list[float]] = [[] for _ in range(k)]
        kernel, elements = _one_pass(group, gauge, thr, elements, budget, threads)
        if kernel is not None:
            # _phase(m, _act(((d, -b), (-c, a)), point)) unrolled: the same
            # products and left-to-right sums from 0, so the same floats
            m0, m1 = m
            x0, x1 = point
            for a, b, c, d, i in kernel:
                z = _turn(0 + m0 * (0 + d * x0 + -b * x1) + m1 * (0 + -c * x0 + a * x1))
                bucket_re[i].append(z.real)
                bucket_im[i].append(z.imag)
        else:
            bucket = threshold_bucketer(gauge, thr)
            for el in elements:
                z = _phase(m, _inverse_action(el, point))
                i = bucket(el)
                if i < k:
                    bucket_re[i].append(z.real)
                    bucket_im[i].append(z.imag)
        target = observable.target()
        rows = []
        re_parts: list[float] = []
        im_parts: list[float] = []
        count = 0
        for i in range(k):
            re_parts.append(math.fsum(bucket_re[i]))
            im_parts.append(math.fsum(bucket_im[i]))
            count += len(bucket_re[i])
            if count == 0:
                rows.append((thr[i], 0.0, 0))
                continue
            mean = complex(math.fsum(re_parts) / count, math.fsum(im_parts) / count)
            rows.append((thr[i], abs(mean - target), count))
        label = observable.label
    elif system == "coset":
        if isinstance(observable, int):
            observable = CosetObservable(observable)
        if not isinstance(observable, CosetObservable):
            raise SpecError("coset system needs a CosetObservable (or a modulus)")
        q = observable.q
        order = sl_residue_order(desc.n, q)
        buckets: list[Counter[ResidueClass]] = [Counter() for _ in range(k)]
        kernel, elements = _one_pass(group, gauge, thr, elements, budget, threads)
        if kernel is not None:
            residues: Counter[tuple[int, ...]] = Counter(
                (i, a % q, b % q, c % q, d % q) for a, b, c, d, i in kernel
            )
            for (i, ra, rb, rc, rd), n in residues.items():
                buckets[i][ResidueClass(q, ((ra, rb), (rc, rd)))] = n
        else:
            bucket = threshold_bucketer(gauge, thr)
            for el in elements:
                i = bucket(el)
                if i < k:
                    buckets[i][reduce_mod(el, q)] += 1
        rows = []
        prefix: Counter[ResidueClass] = Counter()
        count = 0
        for i in range(k):
            prefix.update(buckets[i])
            count += sum(buckets[i].values())
            if count == 0:
                rows.append((thr[i], 0.0, 0))
                continue
            hist = CosetHistogram(
                q=q,
                counts=tuple(sorted(prefix.items(), key=lambda kv: kv[0].sort_key())),
                total=count,
            )
            rows.append((thr[i], hist.sup_deviation(order), count))
        label = observable.label
    else:
        raise SpecError(f"unknown system {system!r} (expected 'torus' or 'coset')")

    return DeviationSeries(
        group=group,
        gauge_label=gauge.describe(),
        scale=gauge.scale,
        system=system,
        observable_label=label,
        rows=tuple(rows),
    )


def decay_fit(series: DeviationSeries, *, window: tuple[float, float] | None = None) -> GrowthFit:
    """Exponential decay rate of the deviations, in the log-threshold variable.

    Unlike growth fits, the default window spans all positive rows: deviation
    decay happens at small radius, and the tail is equidistribution noise.
    """
    samples = []
    for t, dev, cnt in series.rows:
        if cnt <= 0 or dev <= 0.0:
            continue
        x = math.log(t) if series.scale == "T" else t
        samples.append((x, dev))
    if len(samples) < 5:
        raise SpecError("need at least 5 positive deviation rows to fit a rate")
    if window is None:
        window = (samples[0][0], samples[-1][0])
    return fit_growth(samples, "exp_decay", window=window)
