"""Ergodic averages over norm balls: torus characters and residue cosets."""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import SpecError
from .gauges import Gauge
from .groups import GroupElement, ResidueClass, adjugate, denominator_scale, resolve_group
from .haar import GrowthFit, fit_growth
from .lattice import CosetHistogram, ball_buckets, sl_residue_order

__all__ = [
    "TorusCharacter",
    "CosetObservable",
    "DeviationSeries",
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
class CosetObservable:
    """Sup-deviation over all residue classes mod q."""

    q: int

    def __post_init__(self) -> None:
        if self.q < 2:
            raise SpecError(f"modulus must be >= 2, got {self.q}")

    @property
    def label(self) -> str:
        return f"coset-sup:q={self.q}"


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


_NOT_INTEGRAL = "torus action needs integral matrices (p_power 0)"


def _record_phase(m: Sequence[int], point: Sequence, n: int):
    """ball_buckets record -> exp(2 pi i <m, gamma^{-1} x>) for n x n elements.

    gamma^{-1} is the adjugate of an integral gamma; a record with a
    denominator raises SpecError.  The coordinates are exact when the point is
    rational.
    """
    if n == 2:
        m0, m1 = m
        x0, x1 = point

        def phase(rec: tuple[int, ...]) -> complex:
            _, den, a, b, c, d = rec
            if den != 1:
                raise SpecError(_NOT_INTEGRAL)
            # _phase(m, _act(((d, -b), (-c, a)), point)) unrolled: the same
            # products and left-to-right sums from 0, so the same floats
            return _turn(0 + m0 * (0 + d * x0 + -b * x1) + m1 * (0 + -c * x0 + a * x1))

        return phase

    def phase(rec: tuple[int, ...]) -> complex:
        if rec[1] != 1:
            raise SpecError(_NOT_INTEGRAL)
        rows = tuple(rec[2 + i * n : 2 + (i + 1) * n] for i in range(n))
        return _phase(m, _act(adjugate(rows), point))

    return phase


def _residue_keys(records: Iterable[tuple[int, ...]], q: int, n: int) -> Iterator[tuple[int, ...]]:
    """(bucket, denom, entries mod q) of each ball_buckets record of an n x n element."""
    if n == 2:
        return ((i, den, a % q, b % q, c % q, d % q) for i, den, a, b, c, d in records)
    return ((rec[0], rec[1], *[e % q for e in rec[2:]]) for rec in records)


@dataclass(frozen=True)
class DeviationSeries:
    """Deviation-from-equidistribution at each threshold of one experiment."""

    gauge: Gauge
    observable_label: str
    rows: tuple[tuple[float, float, int], ...]


def deviation_series(
    group: str,
    gauge: Gauge,
    thresholds: Sequence[float],
    observable: TorusCharacter | CosetObservable,
    point: Sequence | None = None,
    *,
    elements: Sequence[GroupElement] | None = None,
    budget: int | None = None,
) -> DeviationSeries:
    """One pass over the ball (lattice.ball_buckets), deviations at every threshold.

    The observable picks the pass: a TorusCharacter averages its phase at the
    base point, a CosetObservable takes the sup-deviation over the residue
    classes mod q.  With elements, the average runs over those of them inside
    the top ball.  Torus sums are fsum'd per bucket, so the order of the pass
    does not matter.
    """
    n = resolve_group(group).n
    thr = tuple(float(x) for x in thresholds)
    k = len(thr)
    if isinstance(observable, TorusCharacter):
        if point is None or len(point) != n:
            raise SpecError("torus average needs a base point of matching dimension")
        if len(observable.m) != n:
            raise SpecError("frequency vector dimension mismatch")
        phase = _record_phase(observable.m, point, n)
        bucket_re: list[list[float]] = [[] for _ in range(k)]
        bucket_im: list[list[float]] = [[] for _ in range(k)]
        for rec in ball_buckets(group, gauge, thr, elements=elements, budget=budget):
            z = phase(rec)
            bucket_re[rec[0]].append(z.real)
            bucket_im[rec[0]].append(z.imag)
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
    elif isinstance(observable, CosetObservable):
        q = observable.q
        order = sl_residue_order(n, q)
        records = ball_buckets(group, gauge, thr, elements=elements, budget=budget)
        residues: Counter[tuple[int, ...]] = Counter(_residue_keys(records, q, n))
        buckets: list[Counter[ResidueClass]] = [Counter() for _ in range(k)]
        for (i, den, *res), hits in residues.items():
            # 1/den reduces to a unit mod q; two denominators can share a class
            s = denominator_scale(den, q)
            scaled = tuple(tuple(e * s % q for e in res[j * n : (j + 1) * n]) for j in range(n))
            buckets[i][ResidueClass(q, scaled)] += hits
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
    else:
        raise SpecError(f"expected a TorusCharacter or CosetObservable, got {observable!r}")
    return DeviationSeries(gauge=gauge, observable_label=observable.label, rows=tuple(rows))


def decay_fit(series: DeviationSeries) -> GrowthFit:
    """Exponential decay rate of the deviations, in the gauge's native t.

    Unlike growth fits, the window spans all positive rows: deviation
    decay happens at small radius, and the tail is equidistribution noise.
    """
    samples = [(series.gauge.threshold_to_t(t), dev)
               for t, dev, cnt in series.rows if cnt > 0 and dev > 0.0]
    if len(samples) < 5:
        raise SpecError("need at least 5 positive deviation rows to fit a rate")
    return fit_growth(samples, "exp_decay", window=(samples[0][0], samples[-1][0]))
