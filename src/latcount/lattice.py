"""Exact enumeration of lattice elements inside gauge balls."""
from __future__ import annotations

import bisect
import math
import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, product
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetError, SpecError
from .gauges import (
    BinaryForm,
    Gauge,
    entry_bound,
    form_norm_sq,
    form_key,
    gauge_cap,
    gauge_eval,
    gauge_key,
    gauge_leq,
    key_norm,
    rep_form_gauge,
    substitute_coeffs,
)
from .groups import (
    GroupElement,
    ResidueClass,
    ext_gcd,
    reduce_mod,
    resolve_group,
)

DEFAULT_BUDGET = 10_000_000

_SUPPORTED = {
    "sl2z": {"rnorm", "hyperbolic", "rep_form"},
    "sl3z": {"rnorm"},
    "sl2z1p": {"height"},
}


def _resolve_budget(budget: int | None) -> int:
    if budget is not None:
        return int(budget)
    env = os.environ.get("LATCOUNT_BUDGET")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SpecError(f"LATCOUNT_BUDGET must be an integer, got {env!r}") from None
    return DEFAULT_BUDGET


def _level_count(p: int | None, cap: int) -> int:
    """1 + #{k >= 1 : 2 p^(2k) <= cap}, the det = p^(2k) levels of a ball of "sq" cap.

    Hadamard (det A <= ||A||_F^2 / 2) bounds the ladder; p None is level 0 alone.
    """
    levels = 1
    while p is not None and 2 * p ** (2 * levels) <= cap:
        levels += 1
    return levels


def _shell_counts(gauge: Gauge, caps: Sequence[int]) -> list[int]:
    """#{elements with key <= cap} for every cap of a nondecreasing grid, key_norm "sq".

    An integer A = (a, b; c, d) with det A = D and ||A||^2 = n maps to the
    points (a+d, b-c) of norm n + 2D and (a-d, b+c) of norm n - 2D, of equal
    parity entrywise, and each such pair comes from one A (Lagrange's
    two-squares identity).  Every pair has equal parity when n is even and
    half of them when n is odd, so the shell n holds r2(n+2D) r2(n-2D) / (2 if
    n odd else 1) matrices, and F(D, N) = #{det A = D, ||A||^2 <= N} is a
    cumulative sum of shells.  Level l (det p^(2l); level 0 alone on sl2z)
    counts F(p^(2l), cap) less the non-canonical p B, det B = p^(2l-2):
    F(p^(2l-2), cap // p^2).  No element is built; the r2 table comes from
    one bincount over a quadrant.
    """
    top = caps[-1]
    if top < 2:  # ||A||^2 >= 2 |det A| >= 2
        return [0] * len(caps)
    p = gauge.prime
    dets = [p ** (2 * l) if l else 1 for l in range(_level_count(p, top))]
    size = top + 2 * dets[-1]
    s = math.isqrt(size)
    # x >= 1, y >= 0 holds one point of each orbit of the quarter turn on Z^2 - 0
    x = np.arange(1, s + 1, dtype=np.int64)
    y = np.arange(s + 1, dtype=np.int64)
    norms = (x[:, None] * x[:, None] + y * y).ravel()
    r2 = np.bincount(norms[norms <= size], minlength=size + 1).astype(np.int64, copy=False)
    r2 *= 4
    r2[0] = 1
    # every shell is at most max(r2)^2, and the total adds top + 1 shells per level
    assert (top + 1) * len(dets) * int(r2.max()) ** 2 < 2**63
    cap_arr = np.asarray(caps, dtype=np.int64)

    def below(det: int, cap: np.ndarray) -> np.ndarray:
        n = np.arange(2 * det, top + 1, dtype=np.int64)
        cum = np.cumsum((r2[n + 2 * det] * r2[n - 2 * det]) >> (n & 1))
        idx = cap - 2 * det
        return np.where(idx >= 0, cum[np.maximum(idx, 0)], 0)

    total = below(1, cap_arr)
    for low, det in zip(dets, dets[1:]):
        total += below(det, cap_arr) - below(low, cap_arr // (p * p))
    return [int(v) for v in total]


def estimate_count(group: str, gauge: Gauge, threshold: float) -> int:
    """Cheap a-priori overestimate of the number of elements in the ball."""
    desc = resolve_group(group)
    if desc.n == 3:
        # A -> (r1, r2, r3 without entry j), j where |(r1 x r2)_j| is largest, is
        # one-to-one on SL(3,Z): r3 . (r1 x r2) = 1 gives the entry back.  The
        # image keeps the entrywise r-norm <= T, so count the points of Z^8 in
        # the r-ball: the cube |x_i| <= B; for r <= 2 the euclidean ball, whose
        # points own disjoint unit cubes inside radius T + sqrt(2); for r = 1
        # the cross-polytope, exactly.
        b = entry_bound(gauge, threshold)
        est = (2 * b + 1) ** 8
        if gauge.r <= 2:
            est = min(est, math.ceil(math.pi**4 / 24 * (threshold + math.sqrt(2.0)) ** 8))
        if gauge.r == 1:
            est = min(est, sum(2**i * math.comb(8, i) * math.comb(b, i) for i in range(9)))
        return est
    if gauge.kind == "hyperbolic":
        return max(16, int(14.0 * math.cosh(threshold)))
    if gauge.kind == "height":
        levels = _level_count(gauge.prime, gauge_cap(gauge, threshold))
        return max(16, int(14.0 * threshold**2) * levels)
    if gauge.kind == "rep_form":
        bound = entry_bound(gauge, threshold)
        return max(16, 16 * bound * bound)
    return max(16, int(14.0 * threshold**2))


def _check_supported(group: str, gauge: Gauge) -> None:
    kinds = _SUPPORTED.get(group)
    if kinds is None:
        resolve_group(group)
        raise SpecError(f"no enumeration for group {group!r}")
    if gauge.kind not in kinds:
        raise SpecError(
            f"gauge kind {gauge.kind!r} is not enumerable over {group}; supported: {sorted(kinds)}"
        )
    if group == "sl2z1p" and gauge.prime is None:
        raise SpecError("height gauge over sl2z1p needs a prime")


def _window_1d(center: int, step: int, bound: int) -> tuple[int, int] | None:
    """k-range with |center + k*step| <= bound, or None when empty."""
    if step == 0:
        return None if abs(center) > bound else (-(1 << 62), 1 << 62)
    lo = -bound - center
    hi = bound - center
    if step > 0:
        return (-(-lo // step), hi // step)
    return (-(-hi // step), lo // step)


def _intersect(w1: tuple[int, int] | None, w2: tuple[int, int] | None) -> tuple[int, int] | None:
    if w1 is None or w2 is None:
        return None
    lo, hi = max(w1[0], w2[0]), min(w1[1], w2[1])
    return None if lo > hi else (lo, hi)


def _quadratic_window(c0: int, d0: int, sa: int, sb: int, cap: float) -> tuple[int, int] | None:
    """Float k-range with (c0+k*sa)^2 + (d0+k*sb)^2 <= cap, padded by one."""
    A = sa * sa + sb * sb
    B = 2 * (c0 * sa + d0 * sb)
    C = c0 * c0 + d0 * d0 - cap
    disc = B * B - 4 * A * C
    if disc < 0:
        return None
    root = math.sqrt(disc)
    lo = (-B - root) / (2 * A)
    hi = (-B + root) / (2 * A)
    return (math.floor(lo) - 1, math.ceil(hi) + 1)


def _cross(u: tuple[int, int, int], v: tuple[int, int, int]) -> tuple[int, int, int]:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _solve_dot_one(w: tuple[int, int, int]) -> tuple[tuple[int, int, int], tuple[int, int, int], tuple[int, int, int]]:
    """Particular solution and null-lattice basis for w . x = 1 over Z^3.

    Assumes gcd(w) = 1.  The basis spans the full rank-2 lattice of
    homogeneous solutions, so the affine sweep misses nothing.
    """
    w1, w2, w3 = w
    g12, u1, u2 = ext_gcd(w1, w2)
    if g12 == 0:
        # w = (0, 0, +-1)
        return (0, 0, w3), (1, 0, 0), (0, 1, 0)
    g, v12, v3 = ext_gcd(g12, w3)
    x0 = (v12 * u1, v12 * u2, v3)
    b1 = (-w2 // g12, w1 // g12, 0)
    b2 = (u1 * w3, u2 * w3, -g12)
    return x0, b1, b2


def _iter_sl3z_rows(bound: int, cap_sq: float) -> list[tuple[int, int, int]]:
    rows = []
    for r in product(range(-bound, bound + 1), repeat=3):
        if r == (0, 0, 0):
            continue
        if r[0] * r[0] + r[1] * r[1] + r[2] * r[2] <= cap_sq:
            rows.append(r)
    return rows


def _third_row_candidates(
    w: tuple[int, int, int], bound: int, cap_sq: float
) -> list[tuple[int, int, int]]:
    """All integer rows r3 with w . r3 = 1 inside the entry/norm box."""
    x0, b1, b2 = _solve_dot_one(w)
    out = []
    if b2[2] == 0:
        # degenerate axis case: third coordinate is fixed at x0[2]
        if abs(x0[2]) > bound:
            return out
        rem = cap_sq - x0[2] * x0[2]
        if rem < 0:
            return out
        lim = min(bound, math.isqrt(int(rem)))
        for s in range(-lim, lim + 1):
            for t in range(-lim, lim + 1):
                r3 = (x0[0] + s * b1[0] + t * b2[0], x0[1] + s * b1[1] + t * b2[1], x0[2])
                if (
                    abs(r3[0]) <= bound
                    and abs(r3[1]) <= bound
                    and r3[0] * r3[0] + r3[1] * r3[1] <= rem
                ):
                    out.append(r3)
        return out
    t_window = _window_1d(x0[2], b2[2], bound)
    if t_window is None:
        return out
    for t in range(t_window[0], t_window[1] + 1):
        z = x0[2] + t * b2[2]
        rem = cap_sq - z * z
        if rem < 0:
            continue
        base0 = x0[0] + t * b2[0]
        base1 = x0[1] + t * b2[1]
        s_window = _intersect(_window_1d(base0, b1[0], bound), _window_1d(base1, b1[1], bound))
        if s_window is None:
            continue
        slo, shi = s_window
        assert shi - slo <= 8 * bound + 16  # finite sweep with a valid basis
        for s in range(slo, shi + 1):
            r3 = (base0 + s * b1[0], base1 + s * b1[1], z)
            if r3[0] * r3[0] + r3[1] * r3[1] + z * z <= rem + z * z:
                out.append(r3)
    return out


def _enumerate_sl3z(gauge: Gauge, threshold: float) -> Iterator[GroupElement]:
    bound = entry_bound(gauge, threshold)
    if bound < 1:
        return
    exact_r2 = gauge.r == 2
    total_cap = float(threshold) ** 2 if exact_r2 else 3.0 * bound * bound
    rows = _iter_sl3z_rows(bound, total_cap - 2.0 if exact_r2 else total_cap)
    for r1 in rows:
        if math.gcd(math.gcd(r1[0], r1[1]), r1[2]) != 1:
            continue
        n1 = r1[0] * r1[0] + r1[1] * r1[1] + r1[2] * r1[2]
        for r2 in rows:
            n2 = r2[0] * r2[0] + r2[1] * r2[1] + r2[2] * r2[2]
            if exact_r2 and n1 + n2 + 1 > total_cap:
                continue
            w = _cross(r1, r2)
            if w == (0, 0, 0):
                continue
            if math.gcd(math.gcd(w[0], w[1]), w[2]) != 1:
                continue
            rem = (total_cap - n1 - n2) if exact_r2 else total_cap
            kept = []
            for r3 in _third_row_candidates(w, bound, rem):
                el = GroupElement((r1, r2, r3))
                if gauge_leq(gauge, el, threshold):
                    kept.append(el)
            kept.sort(key=lambda e: e.entries[2])
            yield from kept


def _enumerate_sl2(gauge: Gauge, threshold: float) -> Iterator[GroupElement]:
    """The ball in canonical order, one det = p^(2k) level at a time.

    Level k holds the integer matrices A with det A = p^(2k), not all entries
    divisible by p, standing for p^(-k) A; SL(2,Z) (gauge.prime is None) is
    level 0 alone.  For each top row (a, b) the bottom rows form the Bezout
    progression (c0, d0) + j (a/g, b/g), g = gcd(a, b), walked in (c, d) lex
    order inside the entry box and, for "sq" gauges, the integer cap on the
    sum of squares; gauge_leq decides every element.
    """
    bound = entry_bound(gauge, threshold)
    if bound < 1:
        return
    p = gauge.prime
    cap_sq = gauge_cap(gauge, threshold) if key_norm(gauge) == "sq" else None
    for k in range(_level_count(p, cap_sq)):
        det = p ** (2 * k) if k else 1
        for a in range(-bound, bound + 1):
            aa = a * a
            for b in range(-bound, bound + 1):
                g = math.gcd(a, b)
                if g == 0 or det % g:
                    continue
                if cap_sq is not None and aa + b * b + 1 > cap_sq:
                    continue
                _, x, y = ext_gcd(a, b)
                m = det // g
                d0, c0 = x * m, -y * m  # a*d0 - b*c0 = det
                sa, sb = a // g, b // g
                window = _intersect(_window_1d(c0, sa, bound), _window_1d(d0, sb, bound))
                if cap_sq is not None:
                    rest = cap_sq - aa - b * b
                    window = _intersect(window, _quadratic_window(c0, d0, sa, sb, rest))
                if window is None:
                    continue
                lo, hi = window
                # ascend in (c, d) lex order: c is monotone in j unless a == 0,
                # in which case d decides (b/g = +-1 there).
                lead = sa if sa != 0 else sb
                js = range(lo, hi + 1) if lead > 0 else range(hi, lo - 1, -1)
                for j in js:
                    c, d = c0 + j * sa, d0 + j * sb
                    assert a * d - b * c == det
                    if k > 0 and a % p == 0 and b % p == 0 and c % p == 0 and d % p == 0:
                        continue
                    el = GroupElement(((a, b), (c, d)), prime=p, p_power=k)
                    if gauge_leq(gauge, el, threshold):
                        yield el


def _check_ball(group: str, gauge: Gauge, threshold: float, budget: int | None) -> None:
    """Reject unsupported pairs and bad thresholds, then apply the budget gate."""
    _check_supported(group, gauge)
    if not 0 < threshold < math.inf:
        raise SpecError(f"threshold must be positive and finite, got {threshold}")
    cap = _resolve_budget(budget)
    try:
        est = estimate_count(group, gauge, threshold)
    except OverflowError:  # too large for a float: over any budget
        est = math.inf
    if est > cap:
        raise BudgetError(
            f"estimated {est} elements for {group} ball at threshold {threshold:g} "
            f"exceeds budget {cap}"
        )


def enumerate_ball(
    group: str,
    gauge: Gauge,
    threshold: float,
    *,
    budget: int | None = None,
) -> Iterator[GroupElement]:
    """Yield all lattice elements of gauge value <= threshold in canonical order.

    Canonical order is (p-power, entries row-major) lexicographic.  Raises
    BudgetError before touching the ball if the a-priori estimate exceeds the
    budget.
    """
    _check_ball(group, gauge, threshold, budget)
    if group == "sl3z":
        yield from _enumerate_sl3z(gauge, threshold)
    else:
        yield from _enumerate_sl2(gauge, threshold)


# the key norms each group's kernel walks; every other ball is enumerated
_KERNEL_NORMS = {
    "sl2z": {"sq", "abs", "max", "form"},
    "sl3z": {"sq", "abs", "max"},
    "sl2z1p": {"sq"},
}


def _progression_ball(gauge: Gauge, caps: Sequence[int], box: int) -> Iterator[tuple[int, ...]]:
    """(bisect_left(caps, key), p^l, a, b, c, d) for every element with key <= caps[-1].

    An element p^(-l) (a, b; c, d) is fixed by its level l, its top row (a, b)
    and a shift k: the bottom row is (c0, d0) + k (a/g, b/g), g = gcd(a, b),
    with a d0 - b c0 = det from ext_gcd (det = 1 on sl2z, p^(2l) on level l of
    sl2z1p).  The key (gauge_key; key_norm names it) is convex in k, so the k
    inside the ball form an interval: exact from isqrt of the discriminant for
    "sq"; for the others _window_1d bounds |c| and |d| (by caps[-1] minus the
    top row for "abs", caps[-1] for "max", the entry bound box for "form") and
    the key test trims the rest.  Order is unspecified.
    """
    top = caps[-1]
    p = gauge.prime
    norm = key_norm(gauge)
    # top rows that leave room for a nonzero bottom row
    if norm == "sq":
        amax = math.isqrt(top - 1) if top >= 1 else -1
    else:
        amax = {"abs": top - 1, "max": top, "form": box}[norm]
    for level in range(_level_count(p, top)):
        den = p ** level if level else 1
        det = den * den
        for a in range(-amax, amax + 1):
            if norm == "sq":
                bmax = math.isqrt(top - 1 - a * a)
            else:
                bmax = amax - abs(a) if norm == "abs" else amax
            for b in range(-bmax, bmax + 1):
                g = math.gcd(a, b)
                if g == 0 or det % g:
                    continue
                _, x, y = ext_gcd(a, b)
                m = det // g
                c, d = -y * m, x * m  # a*d - b*c = det
                sa, sb = a // g, b // g
                # above level 0, p * (a matrix of the level below) is not canonical
                skip_p = p if level and g % p == 0 else 0
                if norm == "sq":
                    ab = a * a + b * b
                    A = sa * sa + sb * sb
                    B = c * sa + d * sb
                    disc = B * B - A * (c * c + d * d + ab - top)
                    if disc < 0:
                        continue
                    r = math.isqrt(disc)
                    klo, khi = -((B + r) // A), (r - B) // A
                else:
                    ab = abs(a) + abs(b) if norm == "abs" else max(abs(a), abs(b))
                    bound = top - ab if norm == "abs" else amax
                    window = _intersect(_window_1d(c, sa, bound), _window_1d(d, sb, bound))
                    if window is None:
                        continue
                    klo, khi = window
                c += klo * sa
                d += klo * sb
                for _ in range(khi - klo + 1):
                    if norm == "sq":
                        key = ab + c * c + d * d
                    elif norm == "abs":
                        key = ab + abs(c) + abs(d)
                    elif norm == "max":
                        key = max(ab, abs(c), abs(d))
                    else:
                        key = form_key(gauge.form, a, b, c, d)
                    if key <= top and not (skip_p and c % skip_p == 0 and d % skip_p == 0):
                        yield bisect.bisect_left(caps, key), den, a, b, c, d
                    c += sa
                    d += sb


def _sl3_ball(norm: str, caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """(bisect_left(caps, key), 1, *entries) for every element of SL(3,Z) with key <= caps[-1].

    The sweep of _enumerate_sl3z, pruned by the integer key of key_norm norm
    (C = caps[-1]): for "abs" and "sq" each row's own key is at most C - 2,
    since the other two rows are nonzero integer rows of key >= 1.  The third
    rows r3 . (r1 x r2) = 1 come from _third_row_candidates under the squared
    norm the first two rows leave: C - k1 - k2 ("sq"), (C - k1 - k2)^2
    ("abs", as |x|_2 <= |x|_1), or the box |e| <= C ("max").  Order is
    unspecified.
    """
    top = caps[-1]
    if norm == "max":
        row_cap = bound = top
    else:
        row_cap = top - 2
        bound = (math.isqrt(row_cap) if norm == "sq" else row_cap) if row_cap >= 1 else 0
    rows = []
    for r in product(range(-bound, bound + 1), repeat=3):
        if norm == "sq":
            key = r[0] * r[0] + r[1] * r[1] + r[2] * r[2]
        elif norm == "abs":
            key = abs(r[0]) + abs(r[1]) + abs(r[2])
        else:
            key = max(abs(r[0]), abs(r[1]), abs(r[2]))
        if 0 < key <= row_cap:
            rows.append((r, key))
    box_sq = 3 * top * top
    rem = top
    for r1, k1 in rows:
        if math.gcd(math.gcd(r1[0], r1[1]), r1[2]) != 1:
            continue
        for r2, k2 in rows:
            if norm != "max":
                rem = top - k1 - k2
                if rem < 1:
                    continue
            w = _cross(r1, r2)
            if math.gcd(math.gcd(w[0], w[1]), w[2]) != 1:
                continue  # also w == 0
            head = (1, *r1, *r2)
            if norm == "sq":
                for r3 in _third_row_candidates(w, math.isqrt(rem), rem):
                    key = top - rem + r3[0] * r3[0] + r3[1] * r3[1] + r3[2] * r3[2]
                    yield (bisect.bisect_left(caps, key), *head, *r3)
            elif norm == "abs":
                for r3 in _third_row_candidates(w, rem, rem * rem):
                    k3 = abs(r3[0]) + abs(r3[1]) + abs(r3[2])
                    if k3 <= rem:
                        yield (bisect.bisect_left(caps, top - rem + k3), *head, *r3)
            else:
                k12 = max(k1, k2)
                for r3 in _third_row_candidates(w, top, box_sq):
                    key = max(k12, abs(r3[0]), abs(r3[1]), abs(r3[2]))
                    yield (bisect.bisect_left(caps, key), *head, *r3)


def _check_grid(thresholds: Sequence[float]) -> None:
    # not b > a also catches nan; finite ends then bound every entry
    if (not thresholds or not math.isfinite(thresholds[0]) or not math.isfinite(thresholds[-1])
            or any(not b > a for a, b in zip(thresholds, thresholds[1:]))):
        raise SpecError("thresholds must be finite, strictly increasing and nonempty")


def progression_buckets(
    group: str, gauge: Gauge, thresholds: Sequence[float], budget: int | None = None
) -> Iterator[tuple[int, ...]] | None:
    """The ball at thresholds[-1] as ball_buckets records, without building elements.

    Each record is (bucket, p^l, a, b, c, d) for the element p^(-l) (a, b; c, d)
    (p^l = 1 on sl2z); bucket is the index of the first threshold whose ball
    holds the element, as bucket_index gives it.  _KERNEL_NORMS says which
    balls it covers: one Bezout walk (_progression_ball) serves sl2z with
    rnorm:1, rnorm:2, rnorm:inf, hyperbolic and form gauges and sl2z1p with
    height, and _sl3_ball serves sl3z with rnorm:1, rnorm:2 and rnorm:inf
    (records (bucket, 1, *entries), nine entries).  Returns None for every
    other ball, which then needs enumerate_ball.  The grid check (finite, strictly
    increasing, nonempty), the checks and the budget gate of enumerate_ball
    run first, at the call, for every ball.
    """
    _check_grid(thresholds)
    _check_ball(group, gauge, thresholds[-1], budget)
    norm = key_norm(gauge)
    if norm not in _KERNEL_NORMS[group]:
        return None
    caps = [gauge_cap(gauge, t) for t in thresholds]
    if group == "sl3z":
        return _sl3_ball(norm, caps)
    return _progression_ball(gauge, caps, entry_bound(gauge, thresholds[-1]))


@dataclass(frozen=True)
class CountRow:
    """One threshold's worth of counting data."""

    threshold: float
    count: int
    volume: float | None
    ratio: float | None
    abs_dev: float | None


@dataclass(frozen=True)
class CountSeries:
    gauge: Gauge
    rows: tuple[CountRow, ...]

    def counts(self) -> list[int]:
        return [r.count for r in self.rows]


def bucket_index(gauge: Gauge, el: GroupElement, thresholds: Sequence[float]) -> int:
    """Smallest i with gauge(el) <= thresholds[i], decided exactly at ties (SpecError
    unless thresholds is finite, strictly increasing and nonempty)."""
    _check_grid(thresholds)
    value = gauge_eval(gauge, el)
    i = bisect.bisect_left(thresholds, value)
    while i > 0 and gauge_leq(gauge, el, thresholds[i - 1]):
        i -= 1
    while i < len(thresholds) and not gauge_leq(gauge, el, thresholds[i]):
        i += 1
    return i


def threshold_bucketer(
    gauge: Gauge, thresholds: Sequence[float]
) -> Callable[[GroupElement], int]:
    """el -> bucket_index(gauge, el, thresholds), by integer bisection where it can.

    Elements with an integer key (gauge_key) are placed by bisecting the caps;
    the rest (fractional r, r-norms of p-power elements) go through
    bucket_index.  thresholds must be finite, strictly increasing and nonempty
    (SpecError at the call otherwise).
    """
    _check_grid(thresholds)
    caps = [gauge_cap(gauge, t) for t in thresholds]

    def bucket(el: GroupElement) -> int:
        key = gauge_key(gauge, el)
        if key is None:
            return bucket_index(gauge, el, thresholds)
        return bisect.bisect_left(caps, key)

    return bucket


def ball_buckets(
    group: str,
    gauge: Gauge,
    thresholds: Sequence[float],
    *,
    elements: Iterable[GroupElement] | None = None,
    budget: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """One flat record (bucket, denom, *entries) per element of the top ball.

    The element is entries / denom (entries row-major, denom = p^k, 1 on
    integral elements) and bucket < len(thresholds) is the index of the first
    threshold whose ball holds it, as bucket_index gives it.  This is the one
    place that picks the route for records: the progression kernel where it
    covers the ball, else enumerate_ball; given elements are bucketed as they
    are and those above thresholds[-1] are dropped.  The grid must be finite, strictly
    increasing and nonempty (SpecError otherwise); without elements, the
    ball's checks and budget gate run at the call too.  Order is unspecified.
    """
    if elements is None:
        kernel = progression_buckets(group, gauge, thresholds, budget)
        if kernel is not None:
            return kernel
        elements = enumerate_ball(group, gauge, thresholds[-1], budget=budget)
    return _element_records(elements, threshold_bucketer(gauge, thresholds), len(thresholds))


def _element_records(
    elements: Iterable[GroupElement], bucket: Callable[[GroupElement], int], k: int
) -> Iterator[tuple[int, ...]]:
    for el in elements:
        i = bucket(el)
        if i < k:
            yield (i, el.prime ** el.p_power if el.p_power else 1, *el.entries_flat())


def count_series(
    group: str,
    gauge: Gauge,
    thresholds: Sequence[float],
    *,
    with_volume: bool = True,
    budget: int | None = None,
    elements: Sequence[GroupElement] | None = None,
) -> CountSeries:
    """Cumulative lattice counts over an increasing threshold grid.

    The "sq" balls of sl2z and sl2z1p (rnorm:2, hyperbolic, height) are counted
    from r2 shells (_shell_counts) without walking them; the grid check and
    the budget gate of ball_buckets still run first.  Every other ball, and
    given elements, take one pass over the ball at the largest threshold
    (ball_buckets) that feeds every bucket.  Volumes (when the gauge has a
    computable Haar volume) are normalized so that the ratio column tends to 1.
    """
    thr = [float(t) for t in thresholds]
    if elements is None and group in ("sl2z", "sl2z1p") and key_norm(gauge) == "sq":
        _check_grid(thr)
        _check_ball(group, gauge, thr[-1], budget)
        counts = _shell_counts(gauge, [gauge_cap(gauge, t) for t in thr])
    else:
        buckets = [0] * len(thr)
        for rec in ball_buckets(group, gauge, thr, elements=elements, budget=budget):
            buckets[rec[0]] += 1
        counts = list(accumulate(buckets))
    volumes: list[float | None] = [None] * len(thr)
    if with_volume:
        from .haar import lattice_normalized_volumes

        vols = lattice_normalized_volumes(group, gauge, thr)
        if vols is not None:
            volumes = list(vols)
    rows = []
    for t, cnt, vol in zip(thr, counts, volumes):
        if vol is not None and vol > 0:
            ratio = cnt / vol
            rows.append(CountRow(t, cnt, vol, ratio, abs(ratio - 1.0)))
        else:
            rows.append(CountRow(t, cnt, vol, None, None))
    return CountSeries(gauge=gauge, rows=tuple(rows))


@dataclass(frozen=True)
class CosetHistogram:
    """Element counts per residue class mod q."""

    q: int
    counts: tuple[tuple[ResidueClass, int], ...]
    total: int

    def as_dict(self) -> dict[ResidueClass, int]:
        return dict(self.counts)

    def fraction(self, cls: ResidueClass) -> float:
        return self.as_dict().get(cls, 0) / self.total if self.total else 0.0

    def sup_deviation(self, group_order: int) -> float:
        """Largest |empirical mass - 1/group_order| over all residue classes."""
        target = 1.0 / group_order
        worst = target if len(self.counts) < group_order else 0.0
        for _, c in self.counts:
            worst = max(worst, abs(c / self.total - target))
        return worst


def coset_histogram(elements: Iterable[GroupElement], q: int) -> CosetHistogram:
    """Histogram of reductions mod q, keyed and ordered by residue class."""
    if q < 2:
        raise SpecError(f"modulus must be >= 2, got {q}")
    counter: Counter[ResidueClass] = Counter()
    total = 0
    for el in elements:
        counter[reduce_mod(el, q)] += 1
        total += 1
    items = sorted(counter.items(), key=lambda kv: kv[0].sort_key())
    return CosetHistogram(q=q, counts=tuple(items), total=total)


@lru_cache(maxsize=None)
def sl_residue_order(n: int, q: int) -> int:
    """|SL_n(Z/q)| = q^(n^2 - 1) prod_{p | q} prod_{k=2..n} (1 - p^-k)."""
    if q < 2:
        raise SpecError(f"modulus must be >= 2, got {q}")
    if n < 1:
        raise SpecError(f"matrix size must be >= 1, got {n}")
    order = q ** (n * n - 1)
    rest, p = q, 2
    while rest > 1:
        if p * p > rest:
            p = rest  # the last prime factor
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            for k in range(2, n + 1):
                order = order // p**k * (p**k - 1)
        p += 1
    return order


@dataclass(frozen=True)
class OrbitCount:
    """Orbit data for a binary form under integer substitutions."""

    orbit_count: int
    stabilizer_order: int
    gamma_count: int


def orbit_forms_count(
    f0: BinaryForm, threshold: float, *, budget: int | None = None
) -> OrbitCount:
    """Count distinct forms f0 . gamma of norm <= threshold, with multiplicity.

    gamma_count = orbit_count * stabilizer_order holds exactly: the stabilizer
    acts freely on the fibers of gamma -> f0 . gamma.
    """
    return orbit_forms_series(f0, [threshold], budget=budget)[0]


def orbit_forms_series(
    f0: BinaryForm, thresholds: Sequence[float], budget: int | None = None
) -> list[OrbitCount]:
    """orbit_forms_count(f0, t) for every t of thresholds, from one pass over the top ball.

    A form's norm fixes its bucket, so the distinct forms up to a threshold are
    the distinct forms of its bucket and the buckets below; each is hit by
    exactly stabilizer_order elements, which every row checks.  Thresholds
    below ||f0|| (1 - 1e-12) give (0, 0, 0) and take no ball.
    """
    if f0.degree < 3:
        raise SpecError("orbit counting needs degree >= 3 (finite stabilizer)")
    gauge = rep_form_gauge(f0)
    base_norm = math.sqrt(form_norm_sq(f0))
    grid = sorted({float(t) for t in thresholds if float(t) >= base_norm * (1.0 - 1e-12)})
    found: dict[float, OrbitCount] = {}
    if grid:
        gammas = [0] * len(grid)
        forms: list[set[tuple[int, ...]]] = [set() for _ in grid]
        for i, _, a, b, c, d in ball_buckets("sl2z", gauge, grid, budget=budget):
            gammas[i] += 1
            forms[i].add(substitute_coeffs(f0.coeffs, a, b, c, d))
        stab = 0
        # any threshold between ||f0|| and the next orbit value isolates the stabilizer
        for _, _, a, b, c, d in ball_buckets("sl2z", gauge, [base_norm * (1.0 + 1e-9)],
                                             budget=budget):
            if substitute_coeffs(f0.coeffs, a, b, c, d) == f0.coeffs:
                stab += 1
        gamma_count = orbit_count = 0
        for t, n_gamma, seen in zip(grid, gammas, forms):
            gamma_count += n_gamma
            orbit_count += len(seen)
            if stab == 0 or gamma_count != orbit_count * stab:
                raise SpecError(
                    f"orbit bookkeeping failed: {gamma_count} elements, stabilizer {stab}"
                )
            found[t] = OrbitCount(orbit_count, stab, gamma_count)
    return [found.get(float(t), OrbitCount(0, 0, 0)) for t in thresholds]
