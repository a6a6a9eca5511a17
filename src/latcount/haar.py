"""Haar volumes of gauge balls via closed forms and Cartan (KAK) quadrature,
growth-model fitting, admissibility tables, and balancedness checks.

Normalization: the geometric convention (hyperbolic area x unit mass on K) is
used internally; lattice-facing volumes divide by the covolume and multiply by
the center order from the group descriptor.  The KAK proportionality constant
is calibrated once against the Frobenius closed form rather than asserted.

Volumes are asked for on a whole threshold grid.  The SL2 KAK quadrature
covers the grid in one pass: its sublevel searches run on the (theta1,
threshold, theta2) rows of the whole grid, several theta1 nodes at a time,
and each threshold keeps the bits a pass of its own would give.  A search
bisects each grid of its rounds for the index a scan would pick, so it keeps
a scan's bits at a fraction of the points.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import NumericalError, SpecError
from .gauges import Gauge
from .groups import ext_gcd, resolve_group

__all__ = [
    "covolume_psl2z",
    "hyperbolic_ball_area",
    "frobenius_ball_volume",
    "volume_of_ball",
    "lattice_normalized_volumes",
    "VolumeProfile",
    "ball_volume_profile",
    "tensor_factor_profiles",
    "convolve_profiles",
    "balanced_volume_ratio",
    "balanced_volume_verdict",
    "tensor_weights",
    "balanced_weight_criterion",
    "WeightBalanceResult",
    "GrowthFit",
    "fit_growth",
    "volume_growth",
    "AdmissibilityReport",
    "admissibility_estimate",
    "gl_integrate",
]


# ---------------------------------------------------------------------------
# quadrature primitives
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gl_integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                 *, panels: int = 4, nodes: int = 16) -> float:
    """Composite Gauss-Legendre integral of a vectorized integrand on [a, b]."""
    if b <= a:
        return 0.0
    x, w = _gl_nodes(nodes)
    total = 0.0
    edges = np.linspace(a, b, panels + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        total += half * float(np.dot(w, f(mid + half * x)))
    return total


@lru_cache(maxsize=1)
def covolume_psl2z() -> float:
    """Hyperbolic area of the standard fundamental domain, by quadrature.

    Integrates dx/sqrt(1-x^2) over [-1/2, 1/2] (the y-integral done in closed
    form), doubling nodes until stable; the exact value is pi/3.
    """
    prev = None
    for nodes in (16, 32, 64):
        val = gl_integrate(lambda x: 1.0 / np.sqrt(1.0 - x * x), -0.5, 0.5,
                           panels=4, nodes=nodes)
        if prev is not None and abs(val - prev) <= 1e-12 * abs(val):
            return val
        prev = val
    raise NumericalError("covolume quadrature did not stabilize")


# ---------------------------------------------------------------------------
# SL2 closed forms and KAK quadrature
# ---------------------------------------------------------------------------

def hyperbolic_ball_area(t: float) -> float:
    """Area 2*pi*(cosh t - 1) of the hyperbolic disk of radius t (PSL convention)."""
    if t <= 0:
        return 0.0
    return 2.0 * math.pi * (math.cosh(t) - 1.0)


def frobenius_ball_volume(T: float) -> float:
    """Haar volume of {g in SL2(R): ||g||_F <= T}, same normalization."""
    if T * T <= 2.0:
        return 0.0
    return 2.0 * math.pi * (T * T / 2.0 - 1.0)


def _kak_entry_coeffs(c1: np.ndarray, s1: np.ndarray, c2: np.ndarray,
                      s2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u, v of shape (2, 2, rows) with entries(k1 a_s k2) = u e^s + v e^{-s}.

    Row i pairs the theta1 node (c1[i], s1[i]) with the theta2 node (c2[i], s2[i]).
    """
    u = np.array([[c1 * c2, -c1 * s2], [s1 * c2, -s1 * s2]])
    v = np.array([[-s1 * s2, -s1 * c2], [c1 * s2, c1 * c2]])
    return u, v


def _rnorm_of_s(u: np.ndarray, v: np.ndarray, r: float, s: np.ndarray) -> np.ndarray:
    """rnorm(u e^s + v e^{-s}) of row i at the points s[i], shape (rows, k).

    One entry at a time on (rows, k) arrays, summed in the order (0,0), (0,1),
    (1,0), (1,1): the bits of reducing the stacked (2, 2, rows, k) array over
    its two leading axes, without building it.
    """
    E = np.exp(s)
    power = not (r == 1.0 or math.isinf(r))  # x ** 1.0 is x; r = inf takes the max
    acc = None
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        t = u[i, j][:, None] * E
        t += v[i, j][:, None] / E
        np.abs(t, out=t)
        if power:
            t **= r
        if acc is None:
            acc = t
        elif math.isinf(r):
            np.maximum(acc, t, out=acc)
        else:
            acc += t
    return acc ** (1.0 / r) if power else acc


def _point(lo: np.ndarray, hi: np.ndarray, n: int, k: np.ndarray) -> np.ndarray:
    """Point k of np.linspace(lo, hi, n), elementwise and bit for bit."""
    return np.where(k == n - 1, hi, (hi - lo) / (n - 1) * k + lo)


def _spaced(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """Row i holds the n points np.linspace(lo[i], hi[i], n), bit for bit."""
    return _point(lo[:, None], hi[:, None], n, np.arange(n))


def _first(lo: np.ndarray, hi: np.ndarray, holds: Callable[[np.ndarray], np.ndarray]
           ) -> np.ndarray:
    """Row by row, the first k in [lo, hi] at which holds(k) is true, hi counted as true.

    A bisection: holds must be false and then true along each row.
    """
    while (lo < hi).any():
        mid = (lo + hi) // 2
        yes = (mid == hi) | holds(mid)
        lo, hi = np.where(yes, lo, mid + 1), np.where(yes, mid, hi)
    return lo


def _argmin_round(u: np.ndarray, v: np.ndarray, r: float, lo: np.ndarray, hi: np.ndarray,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """Narrow [lo, hi] to the neighbours of the profile's first argmin on its n-point grid.

    On a convex profile the first argmin is the first k with f[k] <= f[k + 1].
    """
    def rises(k):
        f = _rnorm_of_s(u, v, r, _point(lo[:, None], hi[:, None], n,
                                         np.stack([k, np.minimum(k + 1, n - 1)], axis=1)))
        return f[:, 0] <= f[:, 1]

    i = _first(np.zeros(lo.shape, dtype=int), np.full(lo.shape, n - 1), rises)
    return _point(lo, hi, n, np.maximum(i - 1, 0)), _point(lo, hi, n, np.minimum(i + 1, n - 1))


def _refine_crossing(u: np.ndarray, v: np.ndarray, r: float, T: np.ndarray,
                     lo: np.ndarray, hi: np.ndarray, want_leq_left: bool) -> np.ndarray:
    """Locate, row by row, the crossing of the (convex) s-profile through T in [lo, hi].

    Each of five rounds narrows [lo, hi] to the cell of its 33-point grid that
    ends at the first point where f <= T flips (index 32 when it never does,
    index 1 when point 0 has flipped already).
    """
    for _ in range(5):
        def flipped(k, lo=lo, hi=hi):
            f = _rnorm_of_s(u, v, r, _point(lo, hi, 33, k)[:, None])[:, 0]
            return (f <= T) != want_leq_left

        k = _first(np.ones(lo.shape, dtype=int), np.full(lo.shape, 32), flipped)
        lo, hi = _point(lo, hi, 33, k - 1), _point(lo, hi, 33, k)
    return 0.5 * (lo + hi)


def _sublevel_interval(u: np.ndarray, v: np.ndarray, r: float, T: np.ndarray,
                       s_cap: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row by row, the interval {s in [0, s_cap[i]] : rnorm(k1 a_s k2) <= T[i]}.

    The profile in s is convex.  Returns (nonempty, s_a, s_b); s_a and s_b
    mean nothing on rows whose sublevel set is empty.

    Every round bisects for the grid index that a scan of its grid would
    pick: the first argmin on the 65-point grid over [0, s_cap] and on three
    33-point grids about it, then for each crossing left to find, five
    33-point rounds.  Each point is _spaced's own value, so the search keeps
    the bits of scanning every point (tests/_brute.py) at a few of them.
    """
    zeros = np.zeros(u.shape[2])
    lo, hi = _argmin_round(u, v, r, zeros, s_cap, 65)
    for _ in range(3):
        lo, hi = _argmin_round(u, v, r, lo, hi, 33)
    s_min = 0.5 * (lo + hi)
    # 0.0 and s_cap are the first and last points of the 65-point grid
    f = _rnorm_of_s(u, v, r, np.stack([zeros, s_cap, s_min], axis=1))
    nonempty = ~(f[:, 2] > T)
    s_a = np.zeros_like(s_cap)
    left = nonempty & ~(f[:, 0] <= T)
    if left.any():
        s_a[left] = _refine_crossing(u[:, :, left], v[:, :, left], r, T[left],
                                     s_a[left], s_min[left], want_leq_left=False)
    s_b = s_cap.copy()
    right = nonempty & ~(f[:, 1] <= T)
    if right.any():
        s_b[right] = _refine_crossing(u[:, :, right], v[:, :, right], r, T[right],
                                      s_min[right], s_b[right], want_leq_left=True)
    return nonempty, s_a, s_b


def _kak_refusal(r: float, T: float) -> str:
    """Why the KAK search cannot run at threshold T > 0, or "" when it can.

    The cap 2 T^2 must fit a float, and so must the largest r-th power sum the
    search forms: entries of k1 a_s k2 are at most 2 cosh s, and
    2 cosh s_cap = sqrt(4 T^2 + 2) at the exponent cap, so the sum is at most
    4 (2 cosh s_cap)^r.  r = 1 and r = inf raise no entry to a power.
    """
    if not math.isfinite(2.0 * T * T):
        return f"KAK cap 2 T^2 overflows a float at T={T:g}"
    if r == 1.0 or math.isinf(r):
        return ""
    try:
        fits = math.isfinite(4.0 * math.hypot(2.0 * T, math.sqrt(2.0)) ** r)
    except OverflowError:
        fits = False
    return "" if fits else f"KAK r-norm power sum overflows a float at T={T:g}"


# Rows per sublevel search, in whole (theta1, threshold) blocks of one row per
# theta2 node: two theta1 nodes of a 9-threshold grid at the default 64 nodes.
# A search holds a few (rows, 2) float arrays, so this bounds its memory
# whatever the grid length, and is past where per-call overhead sets the time.
_KAK_ROWS = 1152


def _sl2_kak_raw(gauge: Gauge, thresholds: Sequence[float], *, panels: int = 4,
                 nodes: int = 16) -> list[float]:
    """Uncalibrated integrals of sinh(2s) over the KAK balls, (theta1,theta2) in [0,pi/2]^2.

    One value per threshold, 0.0 for an empty ball.  Quarter-period theta
    ranges suffice: shifting either angle by pi/2 permutes the entry
    magnitudes, leaving any entrywise gauge invariant; the lost factor is
    absorbed by the calibration constant.  Every cap is checked, in grid order,
    before any search.  The (theta1, threshold, theta2) rows of the whole grid
    are then searched in theta1-major order, _KAK_ROWS at a time, so one
    search covers several theta1 nodes of every threshold.  Each sum keeps
    theta1-major order, so a threshold's value does not depend on the grid.
    """
    if gauge.kind != "rnorm":
        raise SpecError(f"KAK quadrature handles rnorm gauges, not {gauge.kind!r}")
    live = []  # (index, T, exponent cap) of each nonempty ball
    for k, T in enumerate(thresholds):
        if T <= 0:
            continue
        # ||g||_F <= 2 ||g||_max <= 2 ||g||_r caps the singular exponent
        cap = 2.0 * T * T
        if cap <= 1.0:
            continue
        refusal = _kak_refusal(gauge.r, T)
        if refusal:
            raise NumericalError(refusal)
        live.append((k, T, 0.5 * math.acosh(cap)))
    totals = [0.0] * len(thresholds)
    if not live:
        return totals
    x, w = _gl_nodes(nodes)
    edges = np.linspace(0.0, math.pi / 2.0, panels + 1)
    theta_nodes = []
    theta_weights = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        theta_nodes.extend((mid + half * x).tolist())
        theta_weights.extend((half * w).tolist())
    m = len(theta_nodes)
    cos = np.array([math.cos(th) for th in theta_nodes])
    sin = np.array([math.sin(th) for th in theta_nodes])
    ks, Ts, caps = (np.array(column) for column in zip(*live))
    blocks, per_search = m * len(live), max(1, _KAK_ROWS // m)
    for start in range(0, blocks, per_search):
        # block (a, j): theta1 node a and live threshold j, one row per theta2 node
        a, j = np.divmod(np.arange(start, min(start + per_search, blocks)), len(live))
        a_rows, j_rows, b_rows = np.repeat(a, m), np.repeat(j, m), np.tile(np.arange(m), len(a))
        u, v = _kak_entry_coeffs(cos[a_rows], sin[a_rows], cos[b_rows], sin[b_rows])
        nonempty, s_a, s_b = _sublevel_interval(u, v, gauge.r, Ts[j_rows], caps[j_rows])
        rows = zip(nonempty.tolist(), s_a.tolist(), s_b.tolist())
        for a1, k in zip(a.tolist(), ks[j].tolist()):
            w1, total = theta_weights[a1], totals[k]
            # zip stops at the m-th weight before it draws another row
            for w2, (inside, sa, sb) in zip(theta_weights, rows):
                if inside:
                    total += w1 * w2 * 0.5 * (math.cosh(2.0 * sb) - math.cosh(2.0 * sa))
            totals[k] = total
    return totals


@lru_cache(maxsize=1)
def _kak_calibration() -> float:
    """Constant mapping the raw KAK integral to the geometric normalization.

    Fixed by matching the Frobenius (r = 2) ball against its closed form at two
    thresholds, both from one KAK pass; the two estimates agreeing is the
    idempotence check.
    """
    from .gauges import rnorm_gauge

    thresholds = (10.0, 25.0)
    kappas = []
    for T, raw in zip(thresholds, _sl2_kak_raw(rnorm_gauge(2), thresholds)):
        if raw <= 0:
            raise NumericalError("degenerate KAK calibration integral")
        kappas.append(frobenius_ball_volume(T) / raw)
    if abs(kappas[0] - kappas[1]) > 1e-6 * abs(kappas[0]):
        raise NumericalError(
            f"KAK calibration unstable: {kappas[0]!r} vs {kappas[1]!r}"
        )
    return 0.5 * (kappas[0] + kappas[1])


# ---------------------------------------------------------------------------
# SL3 chamber quadrature
# ---------------------------------------------------------------------------

def _sl3_a1_max(T: float) -> float:
    """Largest a1 with min_{a2} (e^{2a1} + e^{2a2} + e^{-2a1-2a2}) <= T^2."""
    target = T * T
    if target <= 3.0:
        return 0.0
    lo, hi = 0.0, math.log(T) + 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if math.exp(2.0 * mid) + 2.0 * math.exp(-mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo


def _row_dots(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """w.dot(row), i.e. np.dot(w, row), per row of f: gl_integrate's sums (f @ w is an ulp off)."""
    return np.array([w.dot(row) for row in f.reshape(-1, len(w))]).reshape(f.shape[:-1])


def _sl3_raw(T: float, *, panels: int = 6, nodes: int = 24) -> float:
    """Chamber integral of the SL3 KAK density over the Frobenius ball.

    Bi-K-invariance of the Frobenius norm reduces the five KAK coordinates to
    the two-dimensional positive chamber (a1 >= a2 >= a3, a1+a2+a3 = 0); the
    K-factors contribute only a constant, so values are raw-normalized and
    meaningful up to scale (growth exponents only).  The a2 integrals at an a1
    panel's nodes run as one numpy block, each with its own gl_integrate's bits.
    """
    x, w = _gl_nodes(nodes)

    def outer(a1s: np.ndarray) -> np.ndarray:
        lo, hi, out = np.zeros((3, len(a1s)))  # a node left at lo = hi adds 0.0
        # scalar math: np.exp and np.sinh give other bits on some arguments
        for k, a1 in enumerate(a1s.tolist()):
            R, c = T * T - math.exp(2.0 * a1), math.exp(-2.0 * a1)
            disc = R * R - 4.0 * c
            if disc == math.inf:
                raise OverflowError(f"SL3 chamber bound R^2 overflows a float at T={T:g}")
            if R <= 0 or disc < 0:
                continue
            # x_lo x_hi = c; R - sqrt(disc) would cancel to 0 once c << R^2 (T ~ 670)
            root = R + math.sqrt(disc)
            lo[k] = max(-0.5 * a1, 0.5 * math.log(2.0 * c / root))
            hi[k] = min(a1, 0.5 * math.log(0.5 * root))
        live = lo < hi
        edges = _spaced(lo[live], hi[live], 3)
        half = 0.5 * (edges[:, 1:] - edges[:, :-1])
        a2 = (0.5 * (edges[:, 1:] + edges[:, :-1]))[:, :, None] + half[:, :, None] * x
        a1 = a1s[live][:, None, None]
        panel = half * _row_dots(w, np.sinh(a1 - a2) * np.sinh(a1 + 2.0 * a2)
                                 * np.sinh(2.0 * a1 + a2))
        out[live] = 0.0 + panel[:, 0] + panel[:, 1]
        return out

    with np.errstate(over="ignore"):  # past T ~ 5e51: an inf that _sl3_volume refuses
        return gl_integrate(outer, 0.0, _sl3_a1_max(T), panels=panels, nodes=nodes)


def _sl3_volume(T: float) -> float:
    coarse = _sl3_raw(T, panels=6, nodes=24)
    fine = _sl3_raw(T, panels=12, nodes=32)
    if not (math.isfinite(coarse) and math.isfinite(fine)):
        raise OverflowError(f"SL3 chamber integral overflows a float at T={T:g}")
    if fine > 0 and abs(fine - coarse) > 1e-3 * fine:
        raise NumericalError(f"SL3 chamber quadrature not converged at T={T:g}: "
                             f"{coarse:.12g} vs {fine:.12g}")
    return fine


# ---------------------------------------------------------------------------
# public volume API
# ---------------------------------------------------------------------------

def _kak_volumes(gauge: Gauge, thresholds: Sequence[float]) -> Iterator[float]:
    """Calibrated KAK volumes in grid order, failing where a pass per threshold would.

    _sl2_kak_raw refuses a grid at its first threshold whose cap 2 T^2 or
    largest r-th power sum overflows, before any quadrature.  Only when a
    volume before that threshold may overflow a float too are those thresholds
    integrated first, so that the first overflow in grid order is the one
    reported.
    """
    ts = list(thresholds)
    first = next((k for k, T in enumerate(ts) if _kak_refusal(gauge.r, T)), len(ts))
    # ||g||_2 <= 4^(1/2 - 1/r) ||g||_r for r > 2, so vol_r(T) is at most the
    # Frobenius ball's pi T^2 times 4^max(0, 1 - 2/r); 1e-3 covers the quadrature
    bound = 1.001 * math.pi * 4.0 ** max(0.0, 1.0 - 2.0 / gauge.r)
    safe = all(math.isfinite(bound * T * T) for T in ts[:first])
    for grid in ([ts] if safe else [ts[:first], ts[first:]]):
        for raw in _sl2_kak_raw(gauge, grid):
            yield _kak_calibration() * raw


def _volume_rule(
    group: str, gauge: Gauge
) -> tuple[Callable[[Sequence[float]], Iterable[float]], Callable[[], float]] | None:
    """(ball volumes on a grid of positive thresholds, lattice covolume), or None.

    SL2 rules use the geometric normalization (covolume pi/3); the SL3 chamber
    quadrature is raw, meaningful up to scale, so its covolume is 1.  The closed
    forms and the SL3 rule (numpy blocks within a threshold) yield lazily, one
    threshold at a time; the KAK rule integrates the whole grid before it yields.
    The covolume is a function, called only where volumes are normalized by it.
    """
    desc = resolve_group(group)
    sl2 = desc.n == 2 and not desc.s_arithmetic
    if sl2 and gauge.kind == "hyperbolic":
        return partial(map, hyperbolic_ball_area), covolume_psl2z
    if sl2 and gauge.kind == "rnorm" and gauge.r == 2:
        return partial(map, frobenius_ball_volume), covolume_psl2z
    if sl2 and gauge.kind == "rnorm":
        return partial(_kak_volumes, gauge), covolume_psl2z
    if desc.n == 3 and gauge.kind == "rnorm" and gauge.r == 2:
        return partial(map, _sl3_volume), lambda: 1.0
    return None


def _ball_volumes(group: str, gauge: Gauge, thresholds: Sequence[float]
                  ) -> tuple[list[float], Callable[[], float]]:
    """Ball volumes on a threshold grid, and the covolume in the same normalization.

    0.0 at thresholds <= 0; a pair without a volume rule raises SpecError even
    there.  Volumes are checked in grid order: the first that does not fit a
    float raises NumericalError.
    """
    rule = _volume_rule(group, gauge)
    if rule is None:
        raise SpecError(f"no volume rule for gauge {gauge.describe()!r} on {group}")
    found = iter(rule[0]([t for t in thresholds if not t <= 0]))
    volumes = []
    for t in thresholds:
        if t <= 0:
            volumes.append(0.0)
            continue
        try:
            volume = next(found)
        except OverflowError:
            volume = math.inf
        if not math.isfinite(volume):
            raise NumericalError(
                f"ball volume of {gauge.describe()} on {group} at {t:g} overflows a float")
        volumes.append(volume)
    return volumes, rule[1]


def volume_of_ball(group: str, gauge: Gauge, threshold: float) -> float:
    """Haar volume of the gauge ball (geometric normalization; SL3 raw).

    0.0 at threshold <= 0; a pair without a volume rule raises SpecError there too.
    A volume that does not fit a float raises NumericalError.
    """
    return _ball_volumes(group, gauge, [threshold])[0][0]


def lattice_normalized_volumes(
    group: str, gauge: Gauge, thresholds: Sequence[float]
) -> list[float] | None:
    """Expected lattice counts per threshold, or None when no rule applies.

    center_order * ball volume / covolume, both in the rule's normalization.
    """
    if _volume_rule(group, gauge) is None:
        return None
    volumes, covolume = _ball_volumes(group, gauge, thresholds)
    covol = covolume()
    center = resolve_group(group).center_order
    return [center * v / covol for v in volumes]


def volume_growth(
    group: str, gauge: Gauge, thresholds: Sequence[float], window: tuple[float, float]
) -> tuple[list[float], GrowthFit, float]:
    """Ball volumes on thresholds, their growth fit over window, and the T-exponent.

    t-scale gauges fit power_exp in t, T-scale gauges power in T; the fitted
    rate times gauge.dt_dlogT() is the exponent per log T.
    """
    volumes = _ball_volumes(group, gauge, thresholds)[0]
    model = "power_exp" if gauge.scale == "t" else "power"
    fit = fit_growth(list(zip(thresholds, volumes)), model, window=window)
    return volumes, fit, fit.a * gauge.dt_dlogT()


# ---------------------------------------------------------------------------
# volume profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VolumeProfile:
    """A nondecreasing volume function t -> v(t); scale is "T" or "t"."""

    fn: Callable[[float], float]
    scale: str = "t"
    label: str = ""
    gauge: Gauge | None = None
    factors: tuple["VolumeProfile", ...] = ()

    def __call__(self, t: float) -> float:
        return self.fn(t)


def ball_volume_profile(group: str, gauge: Gauge) -> VolumeProfile:
    """Profile backed by volume_of_ball for the given pair."""
    return VolumeProfile(
        fn=lambda t: volume_of_ball(group, gauge, t),
        scale=gauge.scale,
        label=f"{group}:{gauge.describe()}",
        gauge=gauge,
    )


def tensor_factor_profiles(l: int) -> tuple[VolumeProfile, VolumeProfile]:
    """Factor volume profiles for the two-factor family scaled by the 2(x)l weights.

    The sum-gauge weights the second factor's intrinsic radius by 1/(l-1) (its
    top weight), so its ball of budget u has area ~ (cosh(2u/(l-1)) - 1)/2.
    """
    if l < 2:
        raise SpecError(f"tensor parameter l must be >= 2, got {l}")

    def make(h: float, name: str) -> VolumeProfile:
        return VolumeProfile(
            fn=lambda t, h=h: 0.5 * (math.cosh(2.0 * t / h) - 1.0) if t > 0 else 0.0,
            scale="t", label=name)

    return make(1.0, "factor-1"), make(float(l - 1), f"factor-2(l={l})")


def _stieltjes_sum(v: VolumeProfile, t: float, grid: np.ndarray, w: np.ndarray) -> float:
    """Sum of v(t - mid) * dw over the cells of grid below t, left to right.

    w holds the weight profile's values on grid; cells where it does not grow
    are skipped.
    """
    mids = 0.5 * (grid[:-1] + grid[1:])
    dw = np.diff(w)
    keep = (mids < t) & (dw != 0.0)
    fn, acc = v.fn, 0.0
    for mid, step in zip(mids[keep].tolist(), dw[keep].tolist()):
        acc += fn(t - mid) * step
    return acc


def convolve_profiles(v1: VolumeProfile, v2: VolumeProfile, *,
                      t_max: float = 20.0, steps: int = 512) -> VolumeProfile:
    """Sum-gauge product volume v(t) = integral of v1(t - s) dv2(s), Stieltjes.

    Tabulated on a grid of steps cells up to t_max and interpolated between,
    0 below the grid and the last row above it.  Rows are summed on demand:
    a value reads the two nodes around t, each summed by _stieltjes_sum the
    first time it is read and kept.  np.interp reads no other node of a table,
    so every value has the bits of interpolating the full table.  The result
    remembers its factors for balancedness slicing.
    """
    if v1.scale != "t" or v2.scale != "t":
        raise SpecError("convolution needs both profiles in t-scale")
    if steps < 1:
        raise SpecError(f"convolution needs at least one grid cell, got steps={steps}")
    grid = np.linspace(0.0, t_max, steps + 1)
    w = np.array([v2(s) for s in grid])
    nodes = grid.tolist()
    rows: list[float | None] = [None] * (steps + 1)

    def row(i: int) -> float:
        if rows[i] is None:
            rows[i] = _stieltjes_sum(v1, nodes[i], grid, w)
        return rows[i]

    def value(t: float) -> float:
        # the cell [grid[i], grid[i + 1]) holding t; t < 0 reads the first
        # cell, and t >= t_max or nan the last
        i = min(max(int(np.searchsorted(grid, t, "right")) - 1, 0), steps - 1)
        return float(np.interp(t, grid[i:i + 2], (row(i), row(i + 1)), left=0.0))

    return VolumeProfile(
        fn=value,
        scale="t",
        label=f"({v1.label})*({v2.label})",
        factors=(v1, v2),
    )


def balanced_volume_ratio(product_profile: VolumeProfile,
                          factor_profile: VolumeProfile, t: float) -> float:
    """Mass fraction of the product ball whose given factor stays in {d <= 1}."""
    if not product_profile.factors:
        return 0.0
    if len(product_profile.factors) != 2:
        raise SpecError("balancedness slicing implemented for two factors")
    f1, f2 = product_profile.factors
    if factor_profile is f1:
        constrained, other = f1, f2
    elif factor_profile is f2:
        constrained, other = f2, f1
    else:
        raise SpecError(f"profile {factor_profile.label!r} is not a factor")
    total = product_profile(t)
    if total <= 0:
        raise SpecError(f"product volume vanishes at t={t:g}")
    grid = np.linspace(0.0, min(1.0, t), 257)
    w = np.array([constrained(s) for s in grid])
    return _stieltjes_sum(other, t, grid, w) / total


def balanced_volume_verdict(product_profile: VolumeProfile,
                            t_grid: Sequence[float]) -> str:
    """BALANCED iff every factor's bounded-slice mass fraction decays 0.3-fold on the grid."""
    if not product_profile.factors:
        return "BALANCED"
    ts = sorted(float(t) for t in t_grid)
    if len(ts) < 2:
        raise SpecError("verdict needs at least two grid points")
    for fac in product_profile.factors:
        first = balanced_volume_ratio(product_profile, fac, ts[0])
        last = balanced_volume_ratio(product_profile, fac, ts[-1])
        if not (last < 0.3 * first):
            return "NOT BALANCED"
    return "BALANCED"


# ---------------------------------------------------------------------------
# weight-polytope balancedness (exact)
# ---------------------------------------------------------------------------

def tensor_weights(l: int) -> tuple[tuple[int, int], ...]:
    """Weights of the 2(x)l tensor representation of a rank-two product."""
    if l < 2:
        raise SpecError(f"tensor parameter l must be >= 2, got {l}")
    return tuple((e, l - 1 - 2 * j) for e in (1, -1) for j in range(l))


@dataclass(frozen=True)
class WeightBalanceResult:
    verdict: str
    delta: Fraction
    vertices: tuple[tuple[Fraction, ...], ...]
    argmax_vertices: tuple[tuple[Fraction, ...], ...]
    factor_attained: tuple[bool, ...]


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve a small square system over the rationals; None if singular."""
    n = len(rows)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1, 1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def balanced_weight_criterion(
    weights: Sequence[Sequence[int | Fraction]],
    rho: Sequence[int | Fraction],
    factor_split: Sequence[Sequence[int]],
) -> WeightBalanceResult:
    """Exact balancedness test from the weight polytope in the positive chamber.

    The polytope {x >= 0 : lam(x) <= 1 for all weights lam} is enumerated by
    vertices (rational arithmetic, d <= 3); delta = max rho.  BALANCED iff each
    factor block owns a nonzero coordinate at some rho-maximizing vertex, i.e.
    the argmax face is not confined to a proper sub-product.
    """
    d = len(rho)
    if d < 1 or d > 3:
        raise SpecError(f"weight criterion implemented for 1 <= d <= 3, got d={d}")
    lam_rows = [tuple(Fraction(w) for w in lam) for lam in weights]
    if any(len(lam) != d for lam in lam_rows):
        raise SpecError("weight functional dimension mismatch")
    rho_vec = tuple(Fraction(x) for x in rho)
    blocks = [tuple(block) for block in factor_split]
    covered = sorted(i for block in blocks for i in block)
    if covered != list(range(d)):
        raise SpecError(f"factor_split must partition 0..{d - 1}, got {factor_split}")
    _check_bounded(lam_rows, d)
    # constraints: lam . x <= 1 and x_i >= 0 (as -x_i <= 0)
    cons: list[tuple[tuple[Fraction, ...], Fraction]] = [
        (lam, Fraction(1)) for lam in lam_rows
    ]
    for i in range(d):
        row = tuple(Fraction(-1 if j == i else 0) for j in range(d))
        cons.append((row, Fraction(0)))
    vertices: set[tuple[Fraction, ...]] = set()
    for subset in combinations(range(len(cons)), d):
        rows = [list(cons[i][0]) for i in subset]
        rhs = [cons[i][1] for i in subset]
        sol = _solve_exact(rows, rhs)
        if sol is None:
            continue
        if all(_row_dot(c[0], sol) <= c[1] for c in cons):
            vertices.add(tuple(sol))
    if not vertices:
        raise SpecError("empty weight polytope (no vertices)")
    delta = max(_row_dot(rho_vec, list(v)) for v in vertices)
    argmax = tuple(sorted(v for v in vertices if _row_dot(rho_vec, list(v)) == delta))
    attained = tuple(
        any(any(v[i] != 0 for i in block) for v in argmax) for block in blocks
    )
    verdict = "BALANCED" if all(attained) else "NOT BALANCED"
    return WeightBalanceResult(
        verdict=verdict,
        delta=delta,
        vertices=tuple(sorted(vertices)),
        argmax_vertices=argmax,
        factor_attained=attained,
    )


def _row_dot(row: Sequence[Fraction], x: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(row, x)), Fraction(0))


def _check_bounded(lam_rows: list[tuple[Fraction, ...]], d: int) -> None:
    """Reject weight sets whose chamber polytope has a recession ray.

    The cone {u >= 0 : lam(u) <= 0 for all weights} is pointed, so it is nonzero
    iff some u tight on d - 1 of the planes (weights, coordinate hyperplanes)
    with sum u = 1 lies in it; the sum row fixes the sign.
    """
    planes = [list(lam) for lam in lam_rows]
    planes += [[Fraction(1 if j == i else 0) for j in range(d)] for i in range(d)]
    ones = [Fraction(1)] * d
    rhs = [Fraction(0)] * (d - 1) + [Fraction(1)]
    for subset in combinations(planes, d - 1):
        u = _solve_exact([*subset, ones], rhs)
        if u is not None and all(x >= 0 for x in u) and all(
            _row_dot(lam, u) <= 0 for lam in lam_rows
        ):
            raise SpecError("unbounded weight polytope")


# ---------------------------------------------------------------------------
# growth fitting
# ---------------------------------------------------------------------------

_MODELS = ("power", "power_exp", "exp_decay")


@dataclass(frozen=True)
class GrowthFit:
    """Fitted growth law with parameters (a, b, c), slope stderr, and R^2.

    power: v = c T^a.  power_exp: v = c t^{b-1} e^{a t} with integer b chosen
    by residual.  exp_decay: v = c e^{-a t} (a is the positive decay rate).
    """

    model: str
    a: float
    b: float
    c: float
    stderr: float
    r2: float
    window: tuple[float, float]
    n_points: int
    n_excluded: int = 0

    def as_json_dict(self) -> dict:
        return {
            "model": self.model,
            "params": {"a": self.a, "b": self.b, "c": self.c},
            "stderr": self.stderr,
            "r2": self.r2,
            "window": [self.window[0], self.window[1]],
        }


def _linfit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """Least squares y ~ slope*x + intercept; returns (slope, intercept, stderr, r2)."""
    n = len(x)
    xbar, ybar = x.mean(), y.mean()
    sxx = float(((x - xbar) ** 2).sum())
    if sxx == 0.0:
        raise SpecError("degenerate design matrix (constant abscissa)")
    slope = float(((x - xbar) * (y - ybar)).sum()) / sxx
    intercept = ybar - slope * xbar
    resid = y - slope * x - intercept
    rss = float((resid ** 2).sum())
    tss = float(((y - ybar) ** 2).sum())
    stderr = math.sqrt(rss / (n - 2) / sxx) if n > 2 else 0.0
    r2 = 1.0 - rss / tss if tss > 0 else (1.0 if rss <= 1e-24 else 0.0)
    return slope, intercept, stderr, min(max(r2, 0.0), 1.0)


def fit_growth(samples: Sequence[tuple[float, float]], model: str, *,
               window: tuple[float, float] | None = None) -> GrowthFit:
    """Least-squares growth-law fit in log coordinates.

    The default window keeps the top half of the abscissa range (asymptotic
    regime); nonpositive values are excluded and counted.
    """
    if model not in _MODELS:
        raise SpecError(f"unknown model {model!r}; choose from {_MODELS}")
    pts = [(float(t), float(v)) for t, v in samples]
    if len(pts) < 5:
        raise SpecError(f"need at least 5 samples, got {len(pts)}")
    n_excluded = sum(1 for _, v in pts if v <= 0)
    pts = [(t, v) for t, v in pts if v > 0]
    if len(pts) < 2:
        raise SpecError("fewer than 2 positive samples")
    ts_all = [t for t, _ in pts]
    if window is None:
        lo = min(ts_all) + 0.5 * (max(ts_all) - min(ts_all))
        window = (lo, max(ts_all))
    used = [(t, v) for t, v in pts if window[0] <= t <= window[1]]
    if len(used) < 3:
        raise SpecError(f"fit window {window} holds {len(used)} points; need >= 3")
    t = np.array([p[0] for p in used])
    v = np.array([p[1] for p in used])
    logv = np.log(v)
    win = (float(t.min()), float(t.max()))
    if model == "power":
        if (t <= 0).any():
            raise SpecError("power model needs positive thresholds")
        slope, intercept, stderr, r2 = _linfit(np.log(t), logv)
        return GrowthFit("power", slope, 0.0, math.exp(intercept), stderr, r2,
                         win, len(used), n_excluded)
    if model == "power_exp":
        if (t <= 0).any():
            raise SpecError("power_exp model needs positive t")
        best = None
        for b in range(5):
            y = logv - (b - 1) * np.log(t)
            slope, intercept, stderr, r2 = _linfit(t, y)
            rss = float(((y - slope * t - intercept) ** 2).sum())
            if best is None or rss < best[0]:
                best = (rss, b, slope, intercept, stderr, r2)
        _, b, slope, intercept, stderr, r2 = best
        return GrowthFit("power_exp", slope, float(b), math.exp(intercept),
                         stderr, r2, win, len(used), n_excluded)
    slope, intercept, stderr, r2 = _linfit(t, logv)
    return GrowthFit("exp_decay", -slope, 0.0, math.exp(intercept), stderr, r2,
                     win, len(used), n_excluded)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    """Log-Lipschitz table and sampled product-set check for a volume profile."""

    table: tuple[tuple[float, float, float], ...]  # (t, eps, c_hat)
    c_sup: float
    verdict: str
    product_checked: int = 0
    product_violations: int = 0
    product_c: float | None = None


def _product_set_check(ts: Sequence[float], eps: Sequence[float], c_use: float,
                       samples: int, seed: int) -> tuple[int, int, float]:
    """(checked, violations, worst (value change) / eps) of the sampled product-set check.

    Each sample draws t uniformly in [min(ts), max(ts)] and e from eps; a
    lattice element g with hyperbolic value in (t - 1, t], from random coprime
    top rows and the extreme of their Euclid progression (no full scan); and
    two perturbations u = exp(X) with sqrt(2) ||X||_F <= e/2, so that each
    moves the base point by at most e/2.  It is a violation when the value of
    u1 g u2 exceeds that of g by more than c_use * e.

    The draws are those of random.Random(seed)'s uniform, choice, randint and
    gauss, written out: choice and randint take CPython's getrandbits
    rejection loop, gauss its Box-Muller pairs with the second value kept
    (mu + z * sigma = z for the standard normal, up to the sign of a zero no
    result reads).  Every float expression keeps the operation order of the
    per-sample route in tests/_brute.py.
    """
    rng = random.Random(seed)
    random_, getrandbits = rng.random, rng.getrandbits
    t_lo, t_hi = min(ts), max(ts)
    n_eps = len(eps)
    k_eps = n_eps.bit_length()
    twopi = 2.0 * math.pi
    root2 = math.sqrt(2.0)
    gauss_next = None
    checked = violations = 0
    worst = 0.0
    for _ in range(samples):
        t = t_lo + (t_hi - t_lo) * random_()
        i = getrandbits(k_eps)
        while i >= n_eps:
            i = getrandbits(k_eps)
        e = eps[i]
        # g = [[a, b], [c, d]] with nsq = a^2 + b^2 + c^2 + d^2 <= 2 cosh t
        cap = 2.0 * math.cosh(t)
        half = int(math.sqrt(cap / 2.0))
        width = 2 * half + 1
        k_width = width.bit_length()
        for _ in range(256):
            a = getrandbits(k_width)
            while a >= width:
                a = getrandbits(k_width)
            a = -half + a
            b = getrandbits(k_width)
            while b >= width:
                b = getrandbits(k_width)
            b = -half + b
            if math.gcd(a, b) != 1:
                continue
            _, x, y = ext_gcd(a, b)
            d0, c0 = x, -y
            rem = cap - a * a - b * b
            A = a * a + b * b
            B = 2 * (c0 * a + d0 * b)
            C = c0 * c0 + d0 * d0 - rem
            disc = B * B - 4 * A * C
            if disc < 0:
                continue
            root = math.sqrt(disc)
            k = math.floor((-B + root) / (2 * A)) if random_() < 0.5 else math.ceil(
                (-B - root) / (2 * A))
            for _ in range(4):
                c, d = c0 + k * a, d0 + k * b
                nsq = a * a + b * b + c * c + d * d
                if nsq <= cap:
                    break
                k += 1 if k < -B / (2 * A) else -1
            else:
                continue
            value = math.acosh(max(1.0, nsq / 2.0))
            if value > t - 1.0:
                break
        else:
            raise NumericalError(f"could not sample a shell element near t={t:g}")
        # u1 then u2, each exp([[x, y], [z, -x]]) as a tuple (u00, u01, u10, u11)
        us = []
        for _ in range(2):
            while True:
                w = []
                for _ in range(3):
                    if gauss_next is None:
                        x2pi = random_() * twopi
                        g2rad = math.sqrt(-2.0 * math.log(1.0 - random_()))
                        w.append(math.cos(x2pi) * g2rad)
                        gauss_next = math.sin(x2pi) * g2rad
                    else:
                        w.append(gauss_next)
                        gauss_next = None
                w0, w1, w2 = w
                norm = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
                if norm > 1e-12:
                    break
            radius = e / (2.0 * root2) * random_() ** (1.0 / 3.0)
            scale = radius / norm
            # ||[[x, y], [z, -x]]||_F^2 = 2 x^2 + y^2 + z^2, so rescale x
            x = w0 * scale / root2
            y = w1 * scale
            z = w2 * scale
            # X^2 = (x^2 + yz) I gives exp(X) in closed form
            delta = x * x + y * z
            if delta > 1e-18:
                mu = math.sqrt(delta)
                ch, sh = math.cosh(mu), math.sinh(mu) / mu
            elif delta < -1e-18:
                nu = math.sqrt(-delta)
                ch, sh = math.cos(nu), math.sin(nu) / nu
            else:
                ch, sh = 1.0, 1.0
            us.append((ch + sh * x, sh * y, sh * z, ch - sh * x))
        (p00, p01, p10, p11), (q00, q01, q10, q11) = us
        g00, g01, g10, g11 = float(a), float(b), float(c), float(d)
        # u1 (g u2), and its hyperbolic value acosh(||.||_F^2 / 2)
        m00, m01 = g00 * q00 + g01 * q10, g00 * q01 + g01 * q11
        m10, m11 = g10 * q00 + g11 * q10, g10 * q01 + g11 * q11
        n00, n01 = p00 * m00 + p01 * m10, p00 * m01 + p01 * m11
        n10, n11 = p10 * m00 + p11 * m10, p10 * m01 + p11 * m11
        norm_sq = n00 * n00 + n01 * n01 + n10 * n10 + n11 * n11
        moved_value = math.acosh(max(1.0, norm_sq / 2.0))
        checked += 1
        change = (moved_value - value) / e
        if change > worst:
            worst = change
        if moved_value > value + c_use * e:
            violations += 1
    return checked, violations, worst


def admissibility_estimate(
    profile: VolumeProfile,
    t_grid: Sequence[float],
    eps_grid: Sequence[float],
    *,
    samples: int = 0,
    seed: int = 0,
) -> AdmissibilityReport:
    """Volume log-Lipschitz table c_hat(t, eps) plus a sampled product-set check.

    c_hat = (v(t+eps) - v(t)) / (eps v(t)).  Verdict ADMISSIBLE-LIKE when the
    table is finite and the top-half-of-t sups vary by less than 2x.  When the
    profile carries the hyperbolic gauge and samples > 0, lattice elements near
    the shell are perturbed two-sidedly and gauge(u g u') <= t + c*eps, with
    c = max(c_sup, 1), is verified sample by sample: _product_set_check runs
    the samples in one loop, with the draws and the bits of the per-sample
    route (tests/_brute.py::product_set_check_reference).
    """
    ts = [float(t) for t in t_grid]
    eps = [float(e) for e in eps_grid]
    if not ts or not eps:
        raise SpecError("empty admissibility grid")
    if any(e <= 0 for e in eps):
        raise SpecError("eps grid must be positive")
    table = []
    for t in ts:
        vt = profile(t)
        if vt <= 0:
            raise SpecError(f"profile vanishes at t={t:g}; grid outside support")
        for e in eps:
            c_hat = (profile(t + e) - vt) / (e * vt)
            table.append((t, e, c_hat))
    c_sup = max(row[2] for row in table)
    t_mid = min(ts) + 0.5 * (max(ts) - min(ts))
    top = [row[2] for row in table if row[0] >= t_mid]
    stable = (
        all(math.isfinite(row[2]) for row in table)
        and min(top) > 0
        and max(top) < 2.0 * min(top)
    )
    verdict = "ADMISSIBLE-LIKE" if stable else "INCONCLUSIVE"
    checked = 0
    violations = 0
    product_c: float | None = None
    if samples > 0 and profile.gauge is not None and profile.gauge.kind == "hyperbolic":
        checked, violations, product_c = _product_set_check(
            ts, eps, max(c_sup, 1.0), samples, seed)
    return AdmissibilityReport(
        table=tuple(table),
        c_sup=c_sup,
        verdict=verdict,
        product_checked=checked,
        product_violations=violations,
        product_c=product_c,
    )
