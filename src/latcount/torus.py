"""Ergodic averages over norm balls: torus characters and residue cosets."""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import SpecError
from .gauges import Gauge
from .groups import GroupElement, ResidueClass, adjugate, denominator_scale, resolve_group
from .haar import GrowthFit, fit_growth
from .lattice import CosetHistogram, ball_columns, sl_residue_order

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


def _rows(flat: Sequence) -> tuple:
    """The n rows of n^2 row-major entries."""
    n = math.isqrt(len(flat))
    return tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))


def _column_turns(m: Sequence[int], point: Sequence[float],
                  entries: Sequence[np.ndarray]) -> np.ndarray:
    """exp(2 pi i <m, gamma^{-1} x>) of every record of integral int64 columns,
    at a float base point.

    gamma^{-1} = adjugate(gamma) at det 1, and the sum of _phase over _act
    runs on whole columns: a float point makes every step one IEEE operation,
    in the same order as on one record, and numpy's % 1.0 is Python's.  2 pi
    i f has real part 0 * f - 2 pi * 0 = 0 and imaginary part 2 pi f, one
    rounding, in numpy as in Python; exp stays cmath's, one record at a time.
    """
    total = sum(mi * ci for mi, ci in zip(m, _act(adjugate(_rows(entries)), point)))
    frac = total % 1.0
    return np.fromiter(map(cmath.exp, (frac * (2j * math.pi)).tolist()), complex, len(frac))


def _tally(codes: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct codes, ascending, and the summed weights of each."""
    order = np.argsort(codes)
    codes, weights = codes[order], weights[order]
    starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    return codes[starts], np.add.reduceat(weights, starts)


def _column_residues(chunks: Iterable[tuple[np.ndarray, ...]], q: int, k: int, n: int) -> Counter:
    """Counter of (bucket, denom, *entries mod q) over the records of ball_columns
    chunks of n x n elements in k buckets.

    While k q^(n^2) < 2**62 each record packs into one int64 code, tallied
    per chunk (one denominator each) and merged per denominator; above, the
    tuples are counted one record at a time.
    """
    shape = (k,) + (q,) * (n * n)
    packed = k * q ** (n * n) < 2**62
    found: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    residues: Counter[tuple[int, ...]] = Counter()
    for i, den, *entries in chunks:
        if not packed:
            records = zip(*(col.tolist() for col in (i, den, *entries)))
            residues.update((b, d, *(e % q for e in rec)) for b, d, *rec in records)
            continue
        code = i
        for e in entries:
            code = code * q + e % q
        found.setdefault(int(den[0]), []).append(_tally(code, np.ones_like(code)))
    for den, parts in found.items():
        codes, hits = _tally(*(np.concatenate(v) for v in zip(*parts)))
        keys = zip(*(v.tolist() for v in np.unravel_index(codes, shape)))
        for (i, *res), h in zip(keys, hits.tolist()):
            residues[(i, den, *res)] = h
    return residues


def _column_phase_sums(chunks: Iterable[tuple[np.ndarray, ...]], m: Sequence[int],
                       point: Sequence, k: int) -> list[tuple[float, float, int]]:
    """(fsum of the real parts, fsum of the imaginary parts, count) of the
    phases in each of the k buckets of ball_columns chunks.

    A float point runs on whole columns (_column_turns); an exact (Fraction
    or int) point, and 3 x 3 entries whose int64 cofactors could overflow
    (|e| >= 2**31, only among given elements), take _phase one record at a
    time, on Python integers.
    """
    exact = not all(isinstance(x, float) for x in point)
    parts: list[list[np.ndarray]] = [[np.zeros(0, complex)] for _ in range(k)]
    for i, den, *entries in chunks:
        if den[0] != 1:
            raise SpecError(_NOT_INTEGRAL)
        big = len(entries) > 4 and max(max(int(e.max()), -int(e.min())) for e in entries) >= 2**31
        if exact or big:
            records = zip(*(e.tolist() for e in entries))
            z = np.array([_phase(m, _act(adjugate(_rows(rec)), point)) for rec in records])
        else:
            z = _column_turns(m, point, entries)
        z = z[np.argsort(i)]
        for j, part in enumerate(np.split(z, np.cumsum(np.bincount(i, minlength=k))[:-1])):
            parts[j].append(part)
    sums = []
    for zs in map(np.concatenate, parts):
        sums.append((math.fsum(zs.real.tolist()), math.fsum(zs.imag.tolist()), len(zs)))
    return sums


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
    """One pass over the ball, deviations at every threshold.

    The observable picks the pass: a TorusCharacter averages its phase at the
    base point, a CosetObservable takes the sup-deviation over the residue
    classes mod q.  Both passes read the int64 column chunks of
    lattice.ball_columns, for every ball and for given elements.  Torus
    phases at an all-float base point run on whole columns, bit for bit as
    _phase gives them one record at a time; an exact (Fraction or int) point
    takes _phase on each record of the chunk.  Coset residues are packed into
    int64 codes while k q^(n^2) < 2**62 and counted as tuples above.  With
    elements, the average runs over those of them inside the top ball.  Torus
    sums are fsum'd per bucket, so the order of the pass does not matter.
    """
    n = resolve_group(group).n
    thr = tuple(float(x) for x in thresholds)
    k = len(thr)
    if isinstance(observable, TorusCharacter):
        if point is None or len(point) != n:
            raise SpecError("torus average needs a base point of matching dimension")
        if len(observable.m) != n:
            raise SpecError("frequency vector dimension mismatch")
        chunks = ball_columns(group, gauge, thr, budget, elements=elements)
        sums = _column_phase_sums(chunks, observable.m, point, k)
        target = observable.target()
        rows = []
        re_parts: list[float] = []
        im_parts: list[float] = []
        count = 0
        for i, (re, im, size) in enumerate(sums):
            re_parts.append(re)
            im_parts.append(im)
            count += size
            if count == 0:
                rows.append((thr[i], 0.0, 0))
                continue
            mean = complex(math.fsum(re_parts) / count, math.fsum(im_parts) / count)
            rows.append((thr[i], abs(mean - target), count))
    elif isinstance(observable, CosetObservable):
        q = observable.q
        order = sl_residue_order(n, q)
        chunks = ball_columns(group, gauge, thr, budget, elements=elements)
        residues = _column_residues(chunks, q, k, n)
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
