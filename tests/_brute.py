"""Slow oracles the fast routes are checked against: exhaustive small-ball
scans, the per-element Python walk of the "sq" balls, the flat SL(3) sweep
over every first row, per-record torus phases and coset residues,
residue-group and orbit counts by enumeration, the per-node-pair KAK
quadrature, the per-node SL(3) chamber quadrature, and the SL(3) chamber
integral with its a2 integral in closed form."""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from itertools import product

import numpy as np

from latcount.errors import SpecError
from latcount.gauges import (
    BinaryForm,
    Gauge,
    entry_bound,
    form_norm_sq,
    forms_substitute,
    gauge_leq,
    rep_form_gauge,
)
from latcount.groups import GroupElement, adjugate, ext_gcd, int_det
from latcount.haar import _sl3_a1_max, gl_integrate
from latcount.lattice import _cross, _level_count, _third_row_candidates
from latcount.torus import _act, _phase, _turn


def brute_sl2z(gauge: Gauge, threshold: float) -> set[GroupElement]:
    """Full scan over entry tuples up to the sound entry bound."""
    bound = entry_bound(gauge, threshold)
    rng = range(-bound, bound + 1)
    out = set()
    for a, b, c, d in product(rng, rng, rng, rng):
        if a * d - b * c != 1:
            continue
        el = GroupElement.from_rows(((a, b), (c, d)))
        if gauge_leq(gauge, el, threshold):
            out.add(el)
    return out


def brute_sl3z(gauge: Gauge, threshold: float) -> set[GroupElement]:
    bound = entry_bound(gauge, threshold)
    rng = range(-bound, bound + 1)
    out = set()
    for row1 in product(rng, repeat=3):
        for row2 in product(rng, repeat=3):
            for row3 in product(rng, repeat=3):
                rows = (row1, row2, row3)
                if int_det(rows) != 1:
                    continue
                el = GroupElement.from_rows(rows)
                if gauge_leq(gauge, el, threshold):
                    out.add(el)
    return out


def brute_sl2z1p(gauge: Gauge, threshold: float) -> set[GroupElement]:
    """Scan primitive integer matrices A with det A = p^{2k}; height = |A|_F."""
    p = gauge.prime
    bound = entry_bound(gauge, threshold)
    rng = range(-bound, bound + 1)
    out = set()
    k = 0
    # Hadamard: |A|^2 >= 2 det A, so levels stop once 2 p^{2k} clears T^2.
    # The +1 slack errs on the side of scanning; gauge_leq decides exactly.
    while 2.0 * p ** (2 * k) <= float(threshold) ** 2 + 1.0:
        det = p ** (2 * k)
        for a, b, c, d in product(rng, rng, rng, rng):
            if a * d - b * c != det:
                continue
            if k > 0 and all(x % p == 0 for x in (a, b, c, d)):
                continue
            el = GroupElement.from_rows(((a, b), (c, d)), prime=p, p_power=k)
            if gauge_leq(gauge, el, threshold):
                out.add(el)
        k += 1
    return out


def sq_ball_records(gauge: Gauge, caps) -> list[tuple[int, ...]]:
    """(bisect_left(caps, key), p^l, a, b, c, d) for every element of an "sq" ball.

    The per-element Python Bezout walk that lattice._sq_columns replaces, kept
    as its oracle: for each level l (det = p^(2l); level 0 alone on sl2z) and
    top row (a, b), a^2 + b^2 < caps[-1], the bottom rows (c0, d0) + k (a/g,
    b/g), g = gcd(a, b), with k between the roots of the discriminant (math
    isqrt), one shift at a time.  Above level 0, p times a matrix of the level
    below is skipped.
    """
    top = caps[-1]
    p = gauge.prime
    amax = math.isqrt(top - 1) if top >= 1 else -1
    out = []
    for level in range(_level_count(p, top)):
        den = p ** level if level else 1
        det = den * den
        for a in range(-amax, amax + 1):
            bmax = math.isqrt(top - 1 - a * a)
            for b in range(-bmax, bmax + 1):
                g = math.gcd(a, b)
                if g == 0 or det % g:
                    continue
                _, x, y = ext_gcd(a, b)
                m = det // g
                c, d = -y * m, x * m  # a*d - b*c = det
                sa, sb = a // g, b // g
                skip_p = p if level and g % p == 0 else 0
                ab = a * a + b * b
                A = sa * sa + sb * sb
                B = c * sa + d * sb
                disc = B * B - A * (c * c + d * d + ab - top)
                if disc < 0:
                    continue
                r = math.isqrt(disc)
                klo, khi = -((B + r) // A), (r - B) // A
                c += klo * sa
                d += klo * sb
                for _ in range(khi - klo + 1):
                    key = ab + c * c + d * d
                    if key <= top and not (skip_p and c % skip_p == 0 and d % skip_p == 0):
                        out.append((bisect.bisect_left(caps, key), den, a, b, c, d))
                    c += sa
                    d += sb
    return out


def sl3_ball_records(norm: str, caps) -> list[tuple[int, ...]]:
    """(bisect_left(caps, key), 1, *entries) for every element of SL(3,Z) with key <= caps[-1].

    The flat Python sweep over every primitive first row that the first-row
    orbit sweep of lattice (_sl3_orbits, _sl3_columns, _sl3_counts) replaces,
    kept as its oracle.  It is the sweep of _enumerate_sl3z, pruned by the
    integer key of key_norm norm (C = caps[-1]): for "abs" and "sq" each
    row's own key is at most C - 2, since the other two rows are nonzero
    integer rows of key >= 1.  The third rows r3 . (r1 x r2) = 1 come from
    _third_row_candidates under the squared norm the first two rows leave: C
    - k1 - k2 ("sq"), (C - k1 - k2)^2 ("abs", as |x|_2 <= |x|_1), or the box
    |e| <= C ("max").  Order is unspecified.
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
    out = []
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
                    out.append((bisect.bisect_left(caps, key), *head, *r3))
            elif norm == "abs":
                for r3 in _third_row_candidates(w, rem, rem * rem):
                    k3 = abs(r3[0]) + abs(r3[1]) + abs(r3[2])
                    if k3 <= rem:
                        out.append((bisect.bisect_left(caps, top - rem + k3), *head, *r3))
            else:
                k12 = max(k1, k2)
                for r3 in _third_row_candidates(w, top, box_sq):
                    key = max(k12, abs(r3[0]), abs(r3[1]), abs(r3[2]))
                    out.append((bisect.bisect_left(caps, key), *head, *r3))
    return out


def record_phase(m, point, n: int):
    """ball_buckets record -> exp(2 pi i <m, gamma^{-1} x>) for n x n elements,
    one record at a time: the per-record pass the torus columns replace.

    gamma^{-1} is the adjugate of an integral gamma; a record with a
    denominator raises SpecError.  For 2 x 2 the phase expression is unrolled
    by hand: the products and left-to-right sums from 0 of _phase(m,
    _act(((d, -b), (-c, a)), point)), so the same floats.
    """
    if n == 2:
        m0, m1 = m
        x0, x1 = point

        def phase(rec: tuple[int, ...]) -> complex:
            _, den, a, b, c, d = rec
            if den != 1:
                raise SpecError("torus action needs integral matrices (p_power 0)")
            return _turn(0 + m0 * (0 + d * x0 + -b * x1) + m1 * (0 + -c * x0 + a * x1))

        return phase

    def phase(rec: tuple[int, ...]) -> complex:
        if rec[1] != 1:
            raise SpecError("torus action needs integral matrices (p_power 0)")
        rows = tuple(rec[2 + i * n : 2 + (i + 1) * n] for i in range(n))
        return _phase(m, _act(adjugate(rows), point))

    return phase


def residue_keys(records, q: int) -> list[tuple[int, ...]]:
    """(bucket, denom, entries mod q) of each ball_buckets record, one at a time."""
    return [(rec[0], rec[1], *[e % q for e in rec[2:]]) for rec in records]


def brute_sl_residue_order(n: int, q: int) -> int:
    """|SL_n(Z/q)| by scanning all q^(n^2) matrices mod q."""
    count = 0
    for entries in product(range(q), repeat=n * n):
        rows = tuple(entries[i * n : (i + 1) * n] for i in range(n))
        if int_det(rows) % q == 1:
            count += 1
    return count


def brute_orbit_count(f0: BinaryForm, threshold: float) -> tuple[int, int, int]:
    """(orbit, stabilizer, gamma) counts at one threshold from brute_sl2z balls.

    Same conventions as lattice.orbit_forms_count: nothing below
    ||f0|| (1 - 1e-12), the stabilizer taken in the ball of radius
    ||f0|| (1 + 1e-9); but the orbit is counted as distinct forms and every
    norm is compared as a Fraction.
    """
    base = math.sqrt(form_norm_sq(f0))
    if threshold < base * (1.0 - 1e-12):
        return (0, 0, 0)
    gauge = rep_form_gauge(f0)
    forms = [forms_substitute(f0, el) for el in brute_sl2z(gauge, threshold)]
    assert all(form_norm_sq(f) <= Fraction(threshold) ** 2 for f in forms)
    stab = sum(1 for el in brute_sl2z(gauge, base * (1.0 + 1e-9)) if forms_substitute(f0, el) == f0)
    return (len({f.coeffs for f in forms}), stab, len(forms))


# ---------------------------------------------------------------------------
# KAK quadrature, one (theta1, theta2) node pair at a time
# ---------------------------------------------------------------------------

def _kak_entry_coeffs(theta1: float, theta2: float) -> tuple[np.ndarray, np.ndarray]:
    """u, v with entries(k1 a_s k2) = u e^s + v e^{-s}."""
    c1, s1 = math.cos(theta1), math.sin(theta1)
    c2, s2 = math.cos(theta2), math.sin(theta2)
    u = np.array([[c1 * c2, -c1 * s2], [s1 * c2, -s1 * s2]])
    v = np.array([[-s1 * s2, -s1 * c2], [c1 * s2, c1 * c2]])
    return u, v


def _rnorm_of_s(u: np.ndarray, v: np.ndarray, r: float, s: np.ndarray) -> np.ndarray:
    E = np.exp(s)
    entries = np.abs(u[:, :, None] * E[None, None, :] + v[:, :, None] / E[None, None, :])
    if math.isinf(r):
        return entries.max(axis=(0, 1))
    return (entries ** r).sum(axis=(0, 1)) ** (1.0 / r)


def _refine_crossing(u: np.ndarray, v: np.ndarray, r: float, T: float,
                     lo: float, hi: float, want_leq_left: bool) -> float:
    """Locate the crossing of the (convex) s-profile through T inside [lo, hi]."""
    for _ in range(5):
        s = np.linspace(lo, hi, 33)
        vals = _rnorm_of_s(u, v, r, s)
        inside = vals <= T
        if want_leq_left:
            idx = int(np.argmin(inside)) if not inside.all() else 32
        else:
            idx = int(np.argmax(inside)) if inside.any() else 32
        idx = max(1, min(idx, 32))
        lo, hi = s[idx - 1], s[idx]
    return 0.5 * (lo + hi)


def _sublevel_interval(u: np.ndarray, v: np.ndarray, r: float, T: float,
                       s_cap: float) -> tuple[float, float] | None:
    """The interval {s in [0, s_cap] : rnorm(k1 a_s k2) <= T} (convex profile)."""
    grid = np.linspace(0.0, s_cap, 65)
    vals = _rnorm_of_s(u, v, r, grid)
    # locate the profile minimum (three refinement rounds)
    i = int(vals.argmin())
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, 64)]
    for _ in range(3):
        s = np.linspace(lo, hi, 33)
        vv = _rnorm_of_s(u, v, r, s)
        j = int(vv.argmin())
        lo, hi = s[max(j - 1, 0)], s[min(j + 1, 32)]
    s_min = 0.5 * (lo + hi)
    if float(_rnorm_of_s(u, v, r, np.array([s_min]))[0]) > T:
        return None
    if float(vals[0]) <= T:
        s_a = 0.0
    else:
        s_a = _refine_crossing(u, v, r, T, 0.0, s_min, want_leq_left=False)
    if float(vals[-1]) <= T:
        s_b = s_cap
    else:
        s_b = _refine_crossing(u, v, r, T, s_min, s_cap, want_leq_left=True)
    return s_a, s_b


def kak_raw_reference(gauge: Gauge, T: float, *, panels: int = 4, nodes: int = 16) -> float:
    """haar._sl2_kak_raw computed one (theta1, theta2) node pair at a time.

    Same nodes, grids and refinement rounds as the batched route, so the two
    must agree exactly, not just to a tolerance.
    """
    if gauge.kind != "rnorm":
        raise SpecError(f"KAK quadrature handles rnorm gauges, not {gauge.kind!r}")
    if T <= 0:
        return 0.0
    if 2.0 * T * T <= 1.0:
        return 0.0
    s_cap = 0.5 * math.acosh(max(1.0, 2.0 * T * T))
    if s_cap <= 0.0:
        return 0.0
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(0.0, math.pi / 2.0, panels + 1)
    theta_nodes = []
    theta_weights = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        theta_nodes.extend(mid + half * x)
        theta_weights.extend(half * w)
    total = 0.0
    for th1, w1 in zip(theta_nodes, theta_weights):
        for th2, w2 in zip(theta_nodes, theta_weights):
            u, v = _kak_entry_coeffs(th1, th2)
            interval = _sublevel_interval(u, v, gauge.r, T, s_cap)
            if interval is None:
                continue
            s_a, s_b = interval
            total += w1 * w2 * 0.5 * (math.cosh(2.0 * s_b) - math.cosh(2.0 * s_a))
    return total


# ---------------------------------------------------------------------------
# SL(3) chamber integral: one gl_integrate call per a1 node, and a closed form
# ---------------------------------------------------------------------------

def _sl3_inner(a1: float, T: float, nodes: int) -> float:
    """Integral over a2 of the positive-root sinh product at fixed a1."""
    R = T * T - math.exp(2.0 * a1)
    if R <= 0:
        return 0.0
    c = math.exp(-2.0 * a1)
    disc = R * R - 4.0 * c
    if disc < 0:
        return 0.0
    x_hi = 0.5 * (R + math.sqrt(disc))
    # x_lo x_hi = c; R - sqrt(disc) would cancel to 0 once c << R^2 (T ~ 670)
    x_lo = 2.0 * c / (R + math.sqrt(disc))
    a2_lo = max(-0.5 * a1, 0.5 * math.log(x_lo))
    a2_hi = min(a1, 0.5 * math.log(x_hi))
    if a2_hi <= a2_lo:
        return 0.0

    def integrand(a2: np.ndarray) -> np.ndarray:
        return (np.sinh(a1 - a2) * np.sinh(a1 + 2.0 * a2)
                * np.sinh(2.0 * a1 + a2))

    return gl_integrate(integrand, a2_lo, a2_hi, panels=2, nodes=nodes)


def sl3_raw_reference(T: float, *, panels: int = 6, nodes: int = 24) -> float:
    """haar._sl3_raw with one gl_integrate call (and its numpy calls) per a1 node.

    Same nodes, bounds and summation order as the blocked route, so the two
    must agree exactly, not just to a tolerance.
    """
    a1_max = _sl3_a1_max(T)
    if a1_max <= 0:
        return 0.0

    def outer(a1s: np.ndarray) -> np.ndarray:
        return np.array([_sl3_inner(float(a1), T, nodes) for a1 in a1s])

    return gl_integrate(outer, 0.0, a1_max, panels=panels, nodes=nodes)


# sinh(a1 - a2) sinh(a1 + 2 a2) sinh(2 a1 + a2) = sum of s e^(g a1 + b a2) / 8
# over the sign triples e; (s, g, b) = (e1 e2 e3, e1 + e2 + 2 e3, -e1 + 2 e2 + e3).
# The two triples with b = 0, (1, 1, -1) and (-1, -1, 1), have g = 0 and
# opposite s, so they cancel and every term left integrates in closed form.
_SL3_TERMS = [(e1 * e2 * e3, e1 + e2 + 2 * e3, -e1 + 2 * e2 + e3)
              for e1, e2, e3 in product((1, -1), repeat=3)
              if -e1 + 2 * e2 + e3 != 0]


def sl3_raw_closed_form(T: float, *, panels: int = 48, nodes: int = 48) -> float:
    """The chamber integral of haar._sl3_raw with the a2 integral in closed form.

    Shares no code with the a2 quadrature.  Here the chamber wall a2 = -a1/2
    is the lower bound: e^(2 a1) + e^(2 a2) + e^(-2 a1 - 2 a2) <= T^2 reads
    cosh(2 a2 + a1) <= (T^2 - e^(2 a1)) e^(a1) / 2, which is symmetric about
    it.  The a1 range ends at the largest root u = e^(a1) of u^3 - T^2 u + 2,
    taken in trigonometric form.  Only the a1 integral is numeric, on its own
    composite Gauss-Legendre grid.
    """
    if T * T <= 3.0:
        return 0.0
    u = 2.0 * T / math.sqrt(3.0) * math.cos(math.acos(-3.0 * math.sqrt(3.0) / T ** 3) / 3.0)
    a1_max = math.log(u)
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for k in range(panels):
        lo, hi = a1_max * k / panels, a1_max * (k + 1) / panels
        for a1, wk in zip(0.5 * (lo + hi) + 0.5 * (hi - lo) * x, 0.5 * (hi - lo) * w):
            top = (T * T - math.exp(2.0 * a1)) * math.exp(a1) / 2.0
            if top <= 1.0:
                continue
            b_lo, b_hi = -0.5 * a1, min(a1, 0.5 * (math.acosh(top) - a1))
            if b_hi <= b_lo:
                continue
            inner = sum(s * math.exp(g * a1) * (math.exp(b * b_hi) - math.exp(b * b_lo)) / b
                        for s, g, b in _SL3_TERMS) / 8.0
            total += wk * inner
    return total
