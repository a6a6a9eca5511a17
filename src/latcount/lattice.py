"""Exact enumeration of lattice elements inside gauge balls."""
from __future__ import annotations

import bisect
import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations, product
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetError, SpecError
from .gauges import (
    BinaryForm,
    Gauge,
    _form_weights,
    _key,
    entry_bound,
    form_norm_sq,
    gauge_cap,
    gauge_eval,
    gauge_key,
    gauge_leq,
    key_norm,
    rep_form_gauge,
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


def _shell_table(p: int | None, top: int) -> tuple[list[int], int]:
    """The dets p^(2l) of the levels of an "sq" ball of cap top, and the size
    top + 2 det_max of the r2 table that counts it."""
    dets = [p ** (2 * l) if l else 1 for l in range(_level_count(p, top))]
    return dets, top + 2 * dets[-1]


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
    dets, size = _shell_table(p, top)
    s = math.isqrt(size)
    # x >= 1, y >= 0 holds one point of each orbit of the quarter turn on Z^2 - 0
    x = np.arange(1, s + 1, dtype=np.int64)
    y = np.arange(s + 1, dtype=np.int64)
    norms = (x[:, None] * x[:, None] + y * y).ravel()
    r2 = np.bincount(norms[norms <= size], minlength=size + 1).astype(np.int64, copy=False)
    del norms  # the largest array here: free it before the shells
    r2 *= 4
    r2[0] = 1
    # every shell is at most max(r2)^2, and the total adds top + 1 shells per level
    assert (top + 1) * len(dets) * int(r2.max()) ** 2 < 2**63
    cap_arr = np.asarray(caps, dtype=np.int64)

    def below(det: int, cap: np.ndarray) -> np.ndarray:
        # shells n = 2 det .. top; r2(n + 2 det) and r2(n - 2 det) are slices
        cum = r2[4 * det : top + 2 * det + 1] * r2[: top - 2 * det + 1]
        cum[1::2] >>= 1  # odd n
        np.cumsum(cum, out=cum)
        idx = cap - 2 * det
        return np.where(idx >= 0, cum[np.maximum(idx, 0)], 0)

    total = below(1, cap_arr)
    for low, det in zip(dets, dets[1:]):
        total += below(det, cap_arr) - below(low, cap_arr // (p * p))
    return [int(v) for v in total]


# _z8_ball_points takes O(n^1.5) steps; past this n (T = 32) it counts over
# 4 * 10^12 points, beyond any walk, and the ball bound (1 + sqrt(2) / T)^8
# times the volume is within a factor 1.42 of it
_Z8_EXACT_MAX = 1024


def _z8_ball_points(n: int) -> int:
    """#{x in Z^8 : |x|^2 <= n}, in Python integers.

    The counts of each square x^2 <= n on Z are convolved up to those of
    Z^4, and a point of Z^8 is a pair of points of Z^4 with norms m and at
    most n - m.
    """
    squares = [(x * x, 2 if x else 1) for x in range(math.isqrt(n) + 1)]
    reps = [0] * (n + 1)
    for sq, w in squares:
        reps[sq] = w
    for _ in range(3):
        reps = [sum(w * reps[m - sq] for sq, w in squares[: math.isqrt(m) + 1])
                for m in range(n + 1)]
    below = list(accumulate(reps))
    return sum(reps[m] * below[n - m] for m in range(n + 1))


def estimate_count(group: str, gauge: Gauge, threshold: float) -> int:
    """Cheap a-priori overestimate of the number of elements in the ball."""
    desc = resolve_group(group)
    if desc.n == 3:
        # A -> (r1, r2, r3 without entry j), j where |(r1 x r2)_j| is largest, is
        # one-to-one on SL(3,Z): r3 . (r1 x r2) = 1 gives the entry back.  The
        # image keeps the entrywise r-norm <= T, so count the points of Z^8 in
        # the r-ball: the cube |x_i| <= B; for r <= 2 the euclidean ball
        # |x|^2 <= floor(T^2) (|x|_2 <= |x|_r), exactly up to _Z8_EXACT_MAX and
        # above it by its points' disjoint unit cubes inside radius T +
        # sqrt(2); for r = 1 the cross-polytope, exactly.
        b = entry_bound(gauge, threshold)
        est = (2 * b + 1) ** 8
        if gauge.r <= 2:
            est = min(est, math.ceil(math.pi**4 / 24 * (threshold + math.sqrt(2.0)) ** 8))
            n = math.floor(Fraction(threshold) ** 2)
            if n <= _Z8_EXACT_MAX:
                est = min(est, _z8_ball_points(n))
        if gauge.r == 1:
            est = min(est, sum(2**i * math.comb(8, i) * math.comb(b, i) for i in range(9)))
        return est
    if gauge.kind == "hyperbolic":
        # the rnorm:2 estimate 14 T^2 at the same integer cap: ||g||^2 <= 2 cosh t
        est = 14 * gauge_cap(gauge, threshold)
    elif gauge.kind == "height":
        est = int(14.0 * threshold**2) * _level_count(gauge.prime, gauge_cap(gauge, threshold))
    elif gauge.kind == "rep_form":
        est = 16 * entry_bound(gauge, threshold) ** 2
    else:
        est = int(14.0 * threshold**2)
    # the 20 elements of SL(2,Z) with entries in {-1, 0, 1} hold every ball of
    # entry bound 1, such as rnorm:inf for 1 <= T < 2
    return max(20, est)


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


def _check_threshold(group: str, gauge: Gauge, threshold: float) -> None:
    """Reject unsupported pairs and thresholds that are not positive and finite."""
    _check_supported(group, gauge)
    if not 0 < threshold < math.inf:
        raise SpecError(f"threshold must be positive and finite, got {threshold}")


def _check_ball(group: str, gauge: Gauge, threshold: float, budget: int | None) -> None:
    """Reject unsupported pairs and bad thresholds, then apply the budget gate."""
    _check_threshold(group, gauge, threshold)
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

    Canonical order is (p-power, entries row-major) lexicographic.  The ball
    is ball_columns at the one threshold, its chunks joined and sorted by
    np.lexsort on (denominator, entries row-major); each row becomes
    GroupElement(rows, prime=gauge.prime, p_power=l) for its denominator
    p^l.  So the whole ball is held as int64 columns before the first
    element is built: 48 B per SL(2) element and 88 B per SL(3) element,
    less than the GroupElement list of a caller that keeps the ball.
    Raises BudgetError before touching the ball if the a-priori estimate
    exceeds the budget, and on sl2z and sl2z1p if the integer cap is above
    _SL2_CAP_MAX (the int64 bound of _sl2_columns), before any column is
    built, even where the estimate passes the budget.
    """
    _check_ball(group, gauge, threshold, budget)
    chunks = [cols[1:] for cols in ball_columns(group, gauge, [threshold], budget)]
    if not chunks:
        return
    cols = [np.concatenate(col) for col in zip(*chunks)]  # (denom, *entries)
    del chunks
    order = np.lexsort(cols[::-1])  # lexsort's last key is its first: denom, then entries
    p, n = gauge.prime, 3 if group == "sl3z" else 2
    level = {den: round(math.log(den, p)) if den > 1 else 0 for den in np.unique(cols[0]).tolist()}
    for start in range(0, len(order), _CHUNK_RECORDS):
        dens, *entries = (col[order[start:start + _CHUNK_RECORDS]].tolist() for col in cols)
        rows = zip(*(zip(*entries[i:i + n]) for i in range(0, n * n, n)))
        for den, el in zip(dens, rows):
            yield GroupElement(el, prime=p, p_power=level[den])


# _sl2_columns keeps int64 exact up to this cap: every intermediate is below 2**62
_SL2_CAP_MAX = 2**30
# top rows per chunk of _sl2_columns; bounds the walk's memory, not its output
_SL2_CHUNK_ROWS = 2048


def _bezout(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x, y with a x + b y = gcd(a, b) entrywise, a, b >= 0: ext_gcd on every pair at once."""
    r0, r1 = a, b
    x0, x1 = np.ones_like(a), np.zeros_like(a)
    y0, y1 = np.zeros_like(a), np.ones_like(a)
    while r1.any():
        live = r1 != 0
        q = np.floor_divide(r0, np.where(live, r1, 1))
        r0, r1 = np.where(live, r1, r0), np.where(live, r0 - q * r1, r1)
        x0, x1 = np.where(live, x1, x0), np.where(live, x0 - q * x1, x1)
        y0, y1 = np.where(live, y1, y0), np.where(live, y0 - q * y1, y1)
    return x0, y0


def _window_cols(center: np.ndarray, step: np.ndarray,
                 bound: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
    """_window_1d on int64 columns, the windows of the rows of center and step
    intersected: (lo, hi), empty where lo > hi; a zero step keeps every k or none."""
    center, step = np.where(step < 0, -center, center), np.abs(step)
    span, div = np.where(np.abs(center) <= bound, 1 << 62, -1), np.maximum(step, 1)
    return (np.where(step == 0, -span, -((bound + center) // div)).max(0),
            np.where(step == 0, span, (bound - center) // div).min(0))


def _sl2_columns(gauge: Gauge, caps: Sequence[int]) -> Iterator[tuple[np.ndarray, ...]]:
    """Chunks of int64 columns (bucket, p^l, a, b, c, d), one entry per element
    p^(-l) (a, b; c, d) whose key (key_norm "sq", "abs" or "max") is <= C = caps[-1].

    The entrywise balls of sl2z and sl2z1p (height: every det = p^(2l) level;
    level 0 alone on sl2z), walked in numpy.  The quarter turn M -> M (0, -1;
    1, 0) keeps det, the key and divisibility by p and moves the top row (a,
    b) to (b, -a): the walk takes the top rows a > 0, b >= 0 with room for a
    nonzero bottom row (a^2 + b^2 < C, a + b < C, a, b <= C), _SL2_CHUNK_ROWS
    at a time, each chunk with its three turns.  With g = gcd(a, b) | det,
    the bottom rows are (c0, d0) + k u, u = (a, b) / g, a d0 - b c0 = det, and
    the k in the ball form one interval: "sq", with 0 <= B = u . (c0, d0) < A
    = |u|^2 after a shift, |A k + B| <= isqrt(A (C - a^2 - b^2) - (det / g)^2)
    (Lagrange: B^2 - A |(c0, d0)|^2 = -(det / g)^2); "max" |c|, |d| <= C;
    "abs" |c + d|, |c - d| <= C - a - b, as |c| + |d| = max(|c + d|, |c - d|).
    Above level 0, p times a matrix of the level below is not canonical and
    is dropped.  bucket is bisect_left(caps, key).  Every chunk is nonempty
    and lies on one level; the order of chunks and within them is unspecified.

    A cap above _SL2_CAP_MAX raises BudgetError before any column is computed.
    Below it every intermediate is under 2**60: under C^2 for "sq" (a, b, x,
    y <= C^(1/2), det <= C / 2), at most 3 C for "abs" and "max" (det 1).
    """
    top = caps[-1]
    if top > _SL2_CAP_MAX:
        raise BudgetError(f"cap {top} is above {_SL2_CAP_MAX}, the int64 bound of the SL(2) walk")
    norm = key_norm(gauge)
    # the top rows a = 1 .. len(bmax), b = 0 .. bmax[a - 1], one after another
    if norm == "sq":
        bmax = [math.isqrt(top - 1 - a * a) for a in range(1, math.isqrt(max(top, 1) - 1) + 1)]
    else:
        bmax = list(range(top - 2, -1, -1)) if norm == "abs" else [top] * top
    p = gauge.prime
    cap_arr = np.asarray(caps, dtype=np.int64)
    bmax = np.array(bmax, dtype=np.int64)
    ends = np.cumsum(bmax + 1)
    rows = int(ends[-1]) if len(ends) else 0
    for level in range(_level_count(p, top)):
        den = p ** level if level else 1
        det = den * den
        for start in range(0, rows, _SL2_CHUNK_ROWS):
            idx = np.arange(start, min(start + _SL2_CHUNK_ROWS, rows), dtype=np.int64)
            row = np.searchsorted(ends, idx, "right")
            a, b = row + 1, idx - ends[row] + bmax[row] + 1
            g = np.gcd(a, b)
            m = det // g
            sa, sb = a // g, b // g
            if norm == "sq":
                A = sa * sa + sb * sb
                disc = A * (top - a * a - b * b) - m * m
                ok = (det % g == 0) & (disc >= 0)
                a, b, g, m, sa, sb, A, disc = (v[ok] for v in (a, b, g, m, sa, sb, A, disc))
            else:  # det 1
                a, b, g, m, sa, sb = (v[g == 1] for v in (a, b, g, m, sa, sb))
            x, y = _bezout(a, b)
            c0, d0 = -y * m, x * m  # a*d0 - b*c0 = det
            if norm == "sq":
                shift = (c0 * sa + d0 * sb) // A
                c0 -= shift * sa
                d0 -= shift * sb
                B = c0 * sa + d0 * sb
                r = np.sqrt(disc.astype(np.float64)).astype(np.int64)
                r -= r * r > disc
                r += (r + 1) * (r + 1) <= disc
                assert ((r * r <= disc) & (disc < (r + 1) * (r + 1))).all()
                klo, khi = -((B + r) // A), (r - B) // A
            elif norm == "max":
                klo, khi = _window_cols(np.array((c0, d0)), np.array((sa, sb)), top)
            else:
                klo, khi = _window_cols(np.array((c0 + d0, c0 - d0)), np.array((sa + sb, sa - sb)),
                                        top - a - b)
            n = np.maximum(khi - klo + 1, 0)
            src = np.repeat(np.arange(len(n)), n)
            k = klo[src] + np.arange(len(src)) - (np.cumsum(n) - n)[src]
            a, b = a[src], b[src]
            c = c0[src] + k * sa[src]
            d = d0[src] + k * sb[src]
            if level:
                keep = (g[src] % p != 0) | (c % p != 0) | (d % p != 0)
                a, b, c, d = a[keep], b[keep], c[keep], d[keep]
            if not len(a):
                continue
            if norm == "sq":
                key = a * a + b * b + c * c + d * d
            else:  # a, b >= 0
                key = a + b + abs(c) + abs(d) if norm == "abs" else np.max((a, b, abs(c), abs(d)), 0)
            assert (key <= top).all() and (a * d - b * c == det).all()
            yield (np.tile(np.searchsorted(cap_arr, key, "left"), 4),
                   np.full(4 * len(a), den, np.int64),
                   np.concatenate((a, b, -a, -b)), np.concatenate((b, -a, -b, a)),
                   np.concatenate((c, d, -c, -d)), np.concatenate((d, -c, -d, c)))


def _form_columns(gauge: Gauge, caps: Sequence[int], box: int) -> Iterator[tuple]:
    """Chunks (bucket, a, b, c, d, coeffs), coeffs the n + 1 coefficient columns
    of f . g, one entry per element g = (a, b; c, d) of sl2z with form key <=
    caps[-1] and a > 0 or a = 0 < b: one of each pair +-g (f . (-g) = f . g for
    rep_form's definite, so even, forms).

    The coprime top rows (a, b), |a|, |b| <= box, _SL2_CHUNK_ROWS at a time,
    each with the bottom rows (c0, d0) + k (a, b), a d0 - b c0 = 1 (_bezout),
    |c|, |d| <= box (_window_cols); f . g = sum_i f_i (a x + b y)^(n-i) (c x +
    d y)^i is expanded on the columns.  Each term and partial sum is at most S
    = sum_i |f_i| (2 box)^n, the key (form_key) at most sum(w) S^2: on int64
    where that and caps[-1] are below 2**63, else on Python integers.  Every
    chunk is nonempty; order is unspecified.
    """
    f, n = gauge.form.coeffs, gauge.form.degree
    assert n % 2 == 0, "f . (-g) = f . g needs even degree"
    weights = _form_weights(n)
    wide = max(sum(weights) * (sum(map(abs, f)) * (2 * box) ** n) ** 2, caps[-1]) >= 2**63
    rows = (box + 1) * (2 * box + 1)  # a = 0 .. box, b = -box .. box
    for start in range(0, rows, _SL2_CHUNK_ROWS):
        a, b = np.divmod(np.arange(start, min(start + _SL2_CHUNK_ROWS, rows)), 2 * box + 1)
        b -= box
        a, b = (v[(np.gcd(a, b) == 1) & ((a > 0) | (b > 0))] for v in (a, b))
        x, y = _bezout(a, abs(b))
        c0, d0 = -y * np.sign(b), x  # a*d0 - b*c0 = 1
        klo, khi = _window_cols(np.array((c0, d0)), np.array((a, b)), box)
        n_k = np.maximum(khi - klo + 1, 0)
        src = np.repeat(np.arange(len(n_k)), n_k)
        k = klo[src] + np.arange(len(src)) - (np.cumsum(n_k) - n_k)[src]
        a, b = a[src], b[src]
        c, d = c0[src] + k * a, d0[src] + k * b
        cols = [v.astype(object) for v in (a, b, c, d)] if wide else (a, b, c, d)
        pa, pb, pc, pd = (list(accumulate([np.ones_like(v)] + [v] * n, np.multiply)) for v in cols)
        e = [0] * (n + 1)
        for i, j, l in product(range(n + 1), repeat=3):
            if f[i] and j <= n - i and l <= i:
                e[j + l] += f[i] * math.comb(n - i, j) * math.comb(i, l) * (
                    pa[n - i - j] * pb[j] * pc[i - l] * pd[l])
        key = sum(w * v * v for w, v in zip(weights, e))
        keep = key <= caps[-1]
        if keep.any():
            yield (np.searchsorted(np.array(caps, key.dtype), key[keep], "left"),
                   a[keep], b[keep], c[keep], d[keep], [v[keep] for v in e])


# the 24 signed permutation matrices Q with det Q = 1, identity first, as (perm,
# signs): (r Q)_j = signs[j] r[perm[j]], so g Q permutes and signs g's columns
_ROTATIONS = [
    (perm, signs)
    for perm in permutations(range(3))
    for signs in product((1, -1), repeat=3)
    if signs[0] * signs[1] * signs[2]
    * (-1) ** sum(perm[i] > perm[j] for i, j in ((0, 1), (0, 2), (1, 2))) == 1
]
_Row3 = tuple[int, int, int]
_Rotation = tuple[_Row3, _Row3]


def _orbit_transversal(r1: _Row3) -> list[_Rotation] | None:
    """One rotation per distinct image r1 Q, the identity first, when r1 is the
    lexicographic minimum of its orbit under _ROTATIONS; None otherwise."""
    images: dict[_Row3, _Rotation] = {}
    for rot in _ROTATIONS:
        (i, j, k), (si, sj, sk) = rot
        image = (si * r1[i], sj * r1[j], sk * r1[k])
        if image < r1:
            return None
        images.setdefault(image, rot)
    return list(images.values())


def _sl3_orbits(norm: str, caps: Sequence[int]) -> Iterator[
        tuple[_Row3, list[_Rotation], Iterator[tuple[int, _Row3, _Row3]]]]:
    """(r1, transversal, completions) for every primitive first row r1 of
    SL(3,Z) with key <= C = caps[-1] that is the lexicographic minimum of its
    orbit.

    g -> g Q, Q one of the 24 _ROTATIONS, maps SL(3,Z) onto itself, keeps the
    entrywise key of key_norm norm ("sq", "abs", "max") and moves the first
    row r1 to r1 Q.  So the ball is the union, over the representatives r1,
    of (r1, r2, r3) Q for every completion (r2, r3) of r1 and every Q of
    _orbit_transversal(r1): each element comes exactly once.  completions is
    an iterator of (bisect_left(caps, key), r2, r3), possibly empty, to be
    consumed before the next representative.  The sweep prunes by the key:
    for "abs" and "sq" each row's own key is at most C - 2, since the other
    two rows are nonzero integer rows of key >= 1.  The third rows r3 . (r1 x
    r2) = 1 come from _third_row_candidates under the squared norm the first
    two rows leave: C - k1 - k2 ("sq"), (C - k1 - k2)^2 ("abs", as |x|_2 <=
    |x|_1), or the box |e| <= C ("max").  Order is unspecified.
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

    def completions(r1: _Row3, k1: int) -> Iterator[tuple[int, _Row3, _Row3]]:
        rem = top
        for r2, k2 in rows:
            if norm != "max":
                rem = top - k1 - k2
                if rem < 1:
                    continue
            w = _cross(r1, r2)
            if math.gcd(math.gcd(w[0], w[1]), w[2]) != 1:
                continue  # also w == 0
            if norm == "sq":
                for r3 in _third_row_candidates(w, math.isqrt(rem), rem):
                    key = top - rem + r3[0] * r3[0] + r3[1] * r3[1] + r3[2] * r3[2]
                    yield bisect.bisect_left(caps, key), r2, r3
            elif norm == "abs":
                for r3 in _third_row_candidates(w, rem, rem * rem):
                    k3 = abs(r3[0]) + abs(r3[1]) + abs(r3[2])
                    if k3 <= rem:
                        yield bisect.bisect_left(caps, top - rem + k3), r2, r3
            else:
                k12 = max(k1, k2)
                for r3 in _third_row_candidates(w, top, box_sq):
                    key = max(k12, abs(r3[0]), abs(r3[1]), abs(r3[2]))
                    yield bisect.bisect_left(caps, key), r2, r3

    for r1, k1 in rows:
        if math.gcd(math.gcd(r1[0], r1[1]), r1[2]) != 1:
            continue
        transversal = _orbit_transversal(r1)
        if transversal is not None:
            yield r1, transversal, completions(r1, k1)


def _sl3_counts(norm: str, caps: Sequence[int]) -> list[int]:
    """#{elements of SL(3,Z) with key <= cap} for every cap of a nondecreasing grid.

    Each completion of a representative stands for one element per rotation
    of its transversal (_sl3_orbits); no element, record or array is built.
    """
    tally = [0] * len(caps)
    for _, transversal, completions in _sl3_orbits(norm, caps):
        weight = len(transversal)
        for bucket, _, _ in completions:
            tally[bucket] += weight
    return list(accumulate(tally))


def _sl3_columns(norm: str, caps: Sequence[int]) -> Iterator[tuple[np.ndarray, ...]]:
    """Chunks of int64 columns (bucket, 1, *entries), one entry per element of
    SL(3,Z) with key <= caps[-1]: the completions of each representative of
    _sl3_orbits in one block, and one chunk per rotation Q of its
    transversal, the block's entries with their columns permuted and signed.
    Every chunk is nonempty; order is unspecified.
    """
    for r1, transversal, completions in _sl3_orbits(norm, caps):
        block = [(b, *r2, *r3) for b, r2, r3 in completions]
        if not block:
            continue
        cols = np.array(block, dtype=np.int64).T
        bucket, tail = cols[0], cols[1:]
        signed = {1: tail, -1: -tail}
        ones = np.ones(len(bucket), np.int64)
        for perm, signs in transversal:
            head = [np.full(len(bucket), s * r1[i], np.int64) for i, s in zip(perm, signs)]
            rest = [signed[s][3 * row + i] for row in (0, 1) for i, s in zip(perm, signs)]
            yield (bucket, ones, *head, *rest)


def _check_grid(thresholds: Sequence[float]) -> None:
    # not b > a also catches nan; finite ends then bound every entry
    if (not thresholds or not math.isfinite(thresholds[0]) or not math.isfinite(thresholds[-1])
            or any(not b > a for a, b in zip(thresholds, thresholds[1:]))):
        raise SpecError("thresholds must be finite, strictly increasing and nonempty")


def _checked_caps(group: str, gauge: Gauge, thresholds: Sequence[float],
                  budget: int | None) -> list[int]:
    """The integer caps of the grid, after the grid check, the ball's checks and
    its budget gate."""
    _check_grid(thresholds)
    _check_ball(group, gauge, thresholds[-1], budget)
    return [gauge_cap(gauge, t) for t in thresholds]


def _shell_caps(group: str, gauge: Gauge, thresholds: Sequence[float],
                budget: int | None) -> list[int]:
    """The integer caps of an "sq" ball of sl2z or sl2z1p that is only counted
    (_shell_counts).

    The grid check and the ball's checks run as in _checked_caps, but no
    element is kept, so the budget gates the r2 table instead: caps[-1] + 2
    p^(2l) entries, l the top level, compared in integers before any array
    exists.
    """
    _check_grid(thresholds)
    _check_threshold(group, gauge, thresholds[-1])
    cap = _resolve_budget(budget)
    try:
        top = gauge_cap(gauge, thresholds[-1])
    except OverflowError:  # 2 cosh t has no float value: no table holds the ball
        raise BudgetError(f"{group} ball at threshold {thresholds[-1]:g} has no float cap, "
                          f"over budget {cap}") from None
    _, size = _shell_table(gauge.prime, top)
    if size > cap:
        raise BudgetError(f"r2 table of {size} entries for {group} ball at threshold "
                          f"{thresholds[-1]:g} exceeds budget {cap}")
    return [gauge_cap(gauge, t) for t in thresholds]


# records per chunk that ball_columns packs, and rows per batch that
# enumerate_ball turns into elements
_CHUNK_RECORDS = 4096


def _record_chunks(records: Iterable[tuple[int, ...]]) -> Iterator[tuple[np.ndarray, ...]]:
    """Records (bucket, denom, *entries) packed into int64 column chunks of
    _CHUNK_RECORDS records, one denominator per chunk (the last chunk of each
    shorter)."""
    pending: dict[int, list[tuple[int, ...]]] = {}
    for rec in records:
        chunk = pending.setdefault(rec[1], [])
        chunk.append(rec)
        if len(chunk) == _CHUNK_RECORDS:
            yield tuple(np.array(pending.pop(rec[1]), dtype=np.int64).T)
    for chunk in pending.values():
        yield tuple(np.array(chunk, dtype=np.int64).T)


def ball_columns(
    group: str, gauge: Gauge, thresholds: Sequence[float], budget: int | None = None, *,
    elements: Iterable[GroupElement] | None = None,
) -> Iterator[tuple[np.ndarray, ...]]:
    """The ball at thresholds[-1] as chunks of int64 columns (bucket, denom, *entries).

    Row j of a chunk is one element, entries / denom (entries row-major,
    denom = p^l at level l, 1 on sl2z and sl3z); bucket < len(thresholds) is
    the index of the first threshold whose ball holds it, as bucket_index
    gives it.
    Every element comes once, every chunk is nonempty with one denominator,
    and order is unspecified.  This is the one place that picks the walk: the
    entrywise keys (rnorm:1, rnorm:2, rnorm:inf, hyperbolic, height) take the
    first-row orbit sweep _sl3_columns on sl3z and the numpy Bezout walk
    _sl2_columns on sl2z and sl2z1p, and forms the numpy half walk
    _form_columns (a chunk of -g after each of g).  The other r-norms walk
    the "max" ball at entry_bound (|e| <= ||g||_r <= T, so it holds every
    r-ball) and decide each of its rows: by the integer key for integer r
    (_key against caps[-1], bucket by bisection), by a GroupElement and
    threshold_bucketer for fractional r.  enumerate_ball reads this
    function, not the other way round.  Given elements are bucketed as they
    are, those above thresholds[-1] dropped.  Decided rows and given
    elements are packed _CHUNK_RECORDS at a time (_record_chunks).  Entries
    must fit int64, as they do in every ball its budget admits.  The grid
    check (finite, strictly increasing, nonempty), and without elements the
    checks and the budget gate of enumerate_ball, run first, at the call.
    """
    if elements is None:
        caps = _checked_caps(group, gauge, thresholds, budget)
        norm = key_norm(gauge)
        if norm in ("sq", "abs", "max"):
            return _sl3_columns(norm, caps) if group == "sl3z" else _sl2_columns(gauge, caps)
        if norm == "form":
            half = _form_columns(gauge, caps, entry_bound(gauge, thresholds[-1]))
            return ((i, np.ones_like(i), *g) for i, a, b, c, d, _ in half
                    for g in ((a, b, c, d), (-a, -b, -c, -d)))
        box = [entry_bound(gauge, thresholds[-1])]
        chunks = (_sl3_columns("max", box) if group == "sl3z"
                  else _sl2_columns(Gauge("rnorm", r=math.inf), box))
        flats = (rec[2:] for cols in chunks for rec in zip(*(col.tolist() for col in cols)))
        if norm == "pow":
            placed = ((bisect.bisect_left(caps, _key(gauge, norm, e)), 1, *e) for e in flats)
            return _record_chunks(rec for rec in placed if rec[0] < len(caps))
        n = 3 if group == "sl3z" else 2
        elements = (GroupElement(tuple(zip(*[iter(e)] * n))) for e in flats)
    bucket = threshold_bucketer(gauge, thresholds)  # the grid check, at the call
    placed = ((bucket(el), el) for el in elements)
    return _record_chunks((i, el.prime ** el.p_power if el.p_power else 1, *el.entries_flat())
                          for i, el in placed if i < len(thresholds))


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
    the ball's checks still run first, and the budget gates the size of the
    r2 table instead of the element estimate.  sl3z with rnorm:1, rnorm:2 and
    rnorm:inf is counted from the first-row orbit sweep (_sl3_counts), after
    the checks and the budget gate of enumerate_ball, on Python integers
    alone.  Every other ball, and given elements, take one pass over the
    ball at the largest threshold (ball_columns) that feeds every bucket.
    Volumes (when the gauge has a computable Haar volume) are normalized so
    that the ratio column tends to 1.
    """
    thr = [float(t) for t in thresholds]
    norm = key_norm(gauge) if elements is None else None
    if norm == "sq" and group != "sl3z":
        counts = _shell_counts(gauge, _shell_caps(group, gauge, thr, budget))
    elif norm in ("sq", "abs", "max") and group == "sl3z":
        counts = _sl3_counts(norm, _checked_caps(group, gauge, thr, budget))
    else:
        buckets = np.zeros(len(thr), np.int64)
        for cols in ball_columns(group, gauge, thr, budget, elements=elements):
            buckets += np.bincount(cols[0], minlength=len(thr))
        counts = list(accumulate(buckets.tolist()))
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
    exactly stabilizer_order elements, which every row checks.  It reads the half
    walk _form_columns (its buckets and coefficient columns) after ball_columns'
    checks: g counts for g and -g, one form (f0 has even degree), and the same
    walk just above ||f0|| gives the stabilizer.  Thresholds below ||f0|| (1 -
    1e-12) give (0, 0, 0).
    """
    if f0.degree < 3:
        raise SpecError("orbit counting needs degree >= 3 (finite stabilizer)")
    gauge = rep_form_gauge(f0)
    base_norm = math.sqrt(form_norm_sq(f0))
    grid = sorted({float(t) for t in thresholds if float(t) >= base_norm * (1.0 - 1e-12)})
    found: dict[float, OrbitCount] = {}
    if grid:
        gammas = np.zeros(len(grid), np.int64)
        forms: list[set[tuple[int, ...]]] = [set() for _ in grid]
        caps = _checked_caps("sl2z", gauge, grid, budget)
        for i, *_, coeffs in _form_columns(gauge, caps, entry_bound(gauge, grid[-1])):
            gammas += 2 * np.bincount(i, minlength=len(grid))
            for bucket, form in zip(i.tolist(), zip(*(v.tolist() for v in coeffs))):
                forms[bucket].add(form)
        # any threshold between ||f0|| and the next orbit value isolates the stabilizer
        near = base_norm * (1.0 + 1e-9)
        caps = _checked_caps("sl2z", gauge, [near], budget)
        stab = 2 * sum(form == f0.coeffs
                       for *_, coeffs in _form_columns(gauge, caps, entry_bound(gauge, near))
                       for form in zip(*(v.tolist() for v in coeffs)))
        gamma_count = orbit_count = 0
        for t, n_gamma, seen in zip(grid, gammas.tolist(), forms):
            gamma_count += n_gamma
            orbit_count += len(seen)
            if stab == 0 or gamma_count != orbit_count * stab:
                raise SpecError(
                    f"orbit bookkeeping failed: {gamma_count} elements, stabilizer {stab}"
                )
            found[t] = OrbitCount(orbit_count, stab, gamma_count)
    return [found.get(float(t), OrbitCount(0, 0, 0)) for t in thresholds]
