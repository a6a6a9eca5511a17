"""Slow oracles the fast routes are checked against: exhaustive small-ball
scans (form balls on their own box and expansion), the Python walk of every
ball in canonical order that enumerate_ball must equal
(enumerate_ball_reference), per-element ball records placed by
bucket_index, the per-element Python walks of the "sq" balls and
of the "abs", "max" and form balls of SL(2,Z) (the latter three over one of
each pair +-g), the flat SL(3) sweep over every first row,
per-record torus phases and coset residues, residue-group and orbit counts
by enumeration, the scalar circle scan of unit_circle_min, the KAK
quadrature one theta1 node at a time, the per-node SL(3) chamber
quadrature, the SL(3) chamber integral with its a2 integral in closed
form, the full Stieltjes table of a profile convolution, and the
admissibility product-set check one sample at a time through
random.Random's own methods.  mutated plants a defect in a fast route, for
the tests that show an oracle catches it."""

from __future__ import annotations

import bisect
import inspect
import math
import random
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from latcount.errors import NumericalError, SpecError
from latcount.gauges import (
    BinaryForm,
    Gauge,
    _form_weights,
    _key,
    entry_bound,
    form_norm_sq,
    forms_substitute,
    gauge_cap,
    gauge_leq,
    key_norm,
    rep_form_gauge,
    substitute_coeffs,
)
from latcount.groups import GroupElement, adjugate, ext_gcd, int_det
from latcount.haar import VolumeProfile, _sl3_a1_max, _stieltjes_sum, gl_integrate
from latcount.lattice import (
    _cross,
    _intersect,
    _level_count,
    _third_row_candidates,
    _window_1d,
    bucket_index,
)
from latcount.torus import _act, _phase, _turn
import latcount.lattice as lattice


def mutated(func, old, new):
    """func recompiled from its source with the one occurrence of old made new:
    the planted defects that oracle tests must catch."""
    source = inspect.getsource(func)
    assert source.count(old) == 1
    namespace = {}
    exec(compile(source.replace(old, new), inspect.getsourcefile(func), "exec"),
         vars(inspect.getmodule(func)), namespace)
    return namespace[func.__name__]


def _brute_ball(gauge: Gauge, threshold: float) -> tuple[int, Callable[[GroupElement], bool]]:
    """(B, inside): every element of the ball has |entries| <= B, and inside
    decides membership.

    r-norms with integer or infinite r are written from the definition and
    share no decision with enumerate_ball: |e| <= ||g||_r <= T gives B =
    floor(T), and inside tests sum |e|^r <= T^r (max |e| <= T for r = inf)
    in Fractions.  Form gauges are too: with mu the least |f| on the unit
    circle (unit_circle_min_scalar), |f(u g)| >= mu |u g|^n and the sup of |f
    . g| on the circle is at most sqrt(n + 1) ||f . g|| give |e| <= ||g||_op
    <= (sqrt(n + 1) T / mu)^(1/n); B is twice that, and inside expands f(a x
    + b y, c x + d y) by polynomial products and compares sum_i e_i^2 /
    binom(n, i) <= T^2 in Fractions.  Every other gauge takes entry_bound and
    gauge_leq.
    """
    r = gauge.r
    if gauge.kind == "rnorm" and (math.isinf(r) or r == int(r)):
        T = Fraction(threshold)
        if math.isinf(r):
            return math.floor(T), lambda el: max(abs(e) for e in el.entries_flat()) <= T
        n, cap = int(r), T ** int(r)
        return math.floor(T), lambda el: sum(abs(e) ** n for e in el.entries_flat()) <= cap
    if gauge.kind == "rep_form":
        f, n = gauge.form, gauge.form.degree
        proven = (math.sqrt(n + 1) * max(threshold, 0.0) / unit_circle_min_scalar(f)) ** (1.0 / n)
        cap = Fraction(threshold) ** 2

        def inside(el: GroupElement) -> bool:
            (a, b), (c, d) = el.entries
            coeffs = [0] * (n + 1)
            for i, fi in enumerate(f.coeffs):  # fi (a x + b y)^(n-i) (c x + d y)^i
                poly = [fi]
                for lin in [(a, b)] * (n - i) + [(c, d)] * i:
                    poly = [(poly[j] if j < len(poly) else 0) * lin[0]
                            + (poly[j - 1] * lin[1] if j else 0) for j in range(len(poly) + 1)]
                coeffs = [x + y for x, y in zip(coeffs, poly)]
            return sum(Fraction(e * e, math.comb(n, i)) for i, e in enumerate(coeffs)) <= cap

        return math.ceil(2 * proven), inside
    return entry_bound(gauge, threshold), lambda el: gauge_leq(gauge, el, threshold)


def brute_sl2z(gauge: Gauge, threshold: float) -> set[GroupElement]:
    """Full scan over entry tuples up to the sound entry bound (_brute_ball)."""
    bound, inside = _brute_ball(gauge, threshold)
    rng = range(-bound, bound + 1)
    out = set()
    for a, b, c, d in product(rng, rng, rng, rng):
        if a * d - b * c != 1:
            continue
        el = GroupElement.from_rows(((a, b), (c, d)))
        if inside(el):
            out.add(el)
    return out


def brute_sl3z(gauge: Gauge, threshold: float) -> set[GroupElement]:
    bound, inside = _brute_ball(gauge, threshold)
    rng = range(-bound, bound + 1)
    out = set()
    for row1 in product(rng, repeat=3):
        for row2 in product(rng, repeat=3):
            for row3 in product(rng, repeat=3):
                rows = (row1, row2, row3)
                if int_det(rows) != 1:
                    continue
                el = GroupElement.from_rows(rows)
                if inside(el):
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


def _iter_sl3z_rows(bound: int, cap_sq: float) -> list[tuple[int, int, int]]:
    rows = []
    for r in product(range(-bound, bound + 1), repeat=3):
        if r == (0, 0, 0):
            continue
        if r[0] * r[0] + r[1] * r[1] + r[2] * r[2] <= cap_sq:
            rows.append(r)
    return rows


def _enumerate_sl3z(gauge: Gauge, threshold: float) -> Iterator[GroupElement]:
    bound = entry_bound(gauge, threshold)
    if bound < 1:
        return
    exact_r2 = gauge.r == 2
    total_cap = float(threshold) ** 2 if exact_r2 else 3.0 * bound * bound
    rows = _iter_sl3z_rows(bound, total_cap - 2.0 if exact_r2 else total_cap)
    norm = key_norm(gauge)
    if norm in ("abs", "pow"):
        # the other two rows are nonzero integer rows, of key >= 1 each
        row_cap = gauge_cap(gauge, threshold) - 2
        rows = [r for r in rows if _key(gauge, norm, r) <= row_cap]
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


def enumerate_ball_reference(group: str, gauge: Gauge, threshold: float) -> Iterator[GroupElement]:
    """The ball of lattice.enumerate_ball in canonical order, walked element by
    element in Python: the Bezout progressions of _enumerate_sl2 on sl2z and
    sl2z1p, the row sweep of _enumerate_sl3z on sl3z, gauge_leq deciding every
    candidate.  enumerate_ball sorts the numpy walks of ball_columns instead;
    this route shares no walk with it, and is its oracle.  No check or budget
    gate runs here."""
    if group == "sl3z":
        return _enumerate_sl3z(gauge, threshold)
    return _enumerate_sl2(gauge, threshold)


def sq_ball_records(gauge: Gauge, caps) -> list[tuple[int, ...]]:
    """(bisect_left(caps, key), p^l, a, b, c, d) for every element of an "sq" ball.

    The per-element Python Bezout walk that lattice._sl2_columns replaces for
    "sq", kept as its oracle: for each level l (det = p^(2l); level 0 alone on sl2z) and
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


def _progression_ball(gauge: Gauge, caps: Sequence[int], box: int) -> Iterator[tuple]:
    """(bisect_left(caps, key), a, b, c, d, coeffs) for every element g = (a, b; c, d)
    of sl2z with form key <= caps[-1] and a > 0 or a = 0 < b: one of each pair +-g.

    The Python Bezout walk of the rep_form balls that lattice._form_columns
    replaces, kept as its oracle: the coprime top rows (a, b) with
    |a|, |b| <= box, and the bottom rows (c0, d0) + k (a, b), a d0 - b c0 = 1
    (ext_gcd), with |c|, |d| <= box (_window_1d); the form key (form_key) of
    coeffs = f . g decides each.  -g has g's key: f . (-g) = f . g for
    rep_form's definite, so even, forms.  Order is unspecified.
    """
    top = caps[-1]
    assert gauge.form.degree % 2 == 0, "f . (-g) = f . g needs even degree"
    weights = _form_weights(gauge.form.degree)
    for a in range(box + 1):
        for b in range(-box, box + 1) if a else (1,):  # gcd(0, b) = |b|
            if math.gcd(a, b) != 1:
                continue
            _, x, y = ext_gcd(a, b)
            c, d = -y, x  # a*d - b*c = 1
            window = _intersect(_window_1d(c, a, box), _window_1d(d, b, box))
            if window is None:
                continue
            klo, khi = window
            c += klo * a
            d += klo * b
            for _ in range(khi - klo + 1):
                coeffs = substitute_coeffs(gauge.form.coeffs, a, b, c, d)
                key = sum(w * e * e for w, e in zip(weights, coeffs))
                if key <= top:
                    yield bisect.bisect_left(caps, key), a, b, c, d, coeffs
                c += a
                d += b


def entrywise_half_walk(gauge: Gauge, caps) -> Iterator[tuple[int, ...]]:
    """(bisect_left(caps, key), a, b, c, d) for every element g = (a, b; c, d)
    of sl2z with key <= caps[-1] and a > 0 or a = 0 < b: one of each pair +-g.

    The Python Bezout walk of the "abs" and "max" keys that
    lattice._sl2_columns replaces, kept as its oracle.  An element (a, b; c,
    d) is fixed by its top row (a, b) and a shift k: the bottom row is (c0,
    d0) + k (a, b), with a d0 - b c0 = 1 from ext_gcd.  The key is convex in
    k, so the k inside the ball form an interval: _window_1d bounds |c| and
    |d| (by caps[-1] minus the top row for "abs", caps[-1] for "max") and the
    key test trims the rest.  -g has g's key.  Order is unspecified.
    """
    top = caps[-1]
    norm = key_norm(gauge)
    # top rows that leave room for a nonzero bottom row
    amax = {"abs": top - 1, "max": top}[norm]
    for a in range(amax + 1):
        bmax = amax - a if norm == "abs" else amax
        for b in range(-bmax, bmax + 1) if a else (1,):  # gcd(0, b) = |b|
            if math.gcd(a, b) != 1:
                continue
            _, x, y = ext_gcd(a, b)
            c, d = -y, x  # a*d - b*c = 1
            ab = a + abs(b) if norm == "abs" else max(a, abs(b))
            bound = top - ab if norm == "abs" else amax
            window = _intersect(_window_1d(c, a, bound), _window_1d(d, b, bound))
            if window is None:
                continue
            klo, khi = window
            c += klo * a
            d += klo * b
            for _ in range(khi - klo + 1):
                if norm == "abs":
                    key = ab + abs(c) + abs(d)
                else:
                    key = max(ab, abs(c), abs(d))
                if key <= top:
                    yield bisect.bisect_left(caps, key), a, b, c, d
                c += a
                d += b


def entrywise_ball_records(gauge: Gauge, caps) -> list[tuple[int, ...]]:
    """(bucket, 1, a, b, c, d) for every element of an "abs" or "max" ball of
    sl2z: g and -g for each element g of entrywise_half_walk."""
    return [rec for i, a, b, c, d in entrywise_half_walk(gauge, caps)
            for rec in ((i, 1, a, b, c, d), (i, 1, -a, -b, -c, -d))]


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
    """Record (bucket, denom, *entries) -> exp(2 pi i <m, gamma^{-1} x>) for n x n elements,
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


def element_records(group: str, gauge: Gauge, thresholds,
                    elements: Iterable[GroupElement] | None = None) -> list[tuple[int, ...]]:
    """(bucket_index, denom, *entries) of every element of the ball at
    thresholds[-1] (enumerate_ball_reference), or of every given element inside it.

    The per-element route that lattice.ball_columns must reproduce: it picks
    no walk, and places each element by bucket_index.  denom = p^k for an
    element p^(-k) A, 1 on integral elements.
    """
    if elements is None:
        elements = enumerate_ball_reference(group, gauge, thresholds[-1])
    out = []
    for el in elements:
        i = bucket_index(gauge, el, thresholds)
        if i < len(thresholds):
            out.append((i, el.prime ** el.p_power if el.p_power else 1, *el.entries_flat()))
    return out


def column_records(group: str, gauge: Gauge, thresholds, **kwargs) -> list[tuple[int, ...]]:
    """Every row of every lattice.ball_columns chunk, as a tuple (bucket, denom, *entries).

    It reads lattice.ball_columns at the call, so a planted defect there reaches it.
    """
    chunks = lattice.ball_columns(group, gauge, thresholds, **kwargs)
    return [rec for cols in chunks for rec in zip(*(col.tolist() for col in cols))]


def residue_keys(records, q: int) -> list[tuple[int, ...]]:
    """(bucket, denom, entries mod q) of each record (bucket, denom, *entries), one at a time."""
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


def unit_circle_min_scalar(f: BinaryForm) -> float:
    """gauges.unit_circle_min with the 10,000 dense samples taken in scalar math too."""
    def g(theta: float) -> float:
        return abs(f.evaluate(math.cos(theta), math.sin(theta)))
    step = math.pi / 10_000
    best_i = min(range(10_000), key=lambda i: g(i * step))
    lo, hi = (best_i - 1) * step, (best_i + 1) * step
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(120):
        if gc < gd:
            b, d, gd = d, c, gc
            c = b - inv_phi * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + inv_phi * (b - a)
            gd = g(d)
    return g((a + b) / 2.0)


# ---------------------------------------------------------------------------
# KAK quadrature, one theta1 node at a time
# ---------------------------------------------------------------------------

def _kak_entry_coeffs(theta1: float, theta2s) -> tuple[np.ndarray, np.ndarray]:
    """u, v of shape (2, 2, m) with entries(k1 a_s k2) = u e^s + v e^{-s}, column i at theta2s[i]."""
    c1, s1 = math.cos(theta1), math.sin(theta1)
    c2 = np.array([math.cos(t) for t in theta2s])
    s2 = np.array([math.sin(t) for t in theta2s])
    u = np.array([[c1 * c2, -c1 * s2], [s1 * c2, -s1 * s2]])
    v = np.array([[-s1 * s2, -s1 * c2], [c1 * s2, c1 * c2]])
    return u, v


def _rnorm_of_s(u: np.ndarray, v: np.ndarray, r: float, s: np.ndarray) -> np.ndarray:
    """rnorm(u e^s + v e^{-s}) of column i of u, v at the points s[i], shape (m, k)."""
    E = np.exp(s)
    entries = np.abs(u[:, :, :, None] * E + v[:, :, :, None] / E)
    if math.isinf(r):
        return entries.max(axis=(0, 1))
    return (entries ** r).sum(axis=(0, 1)) ** (1.0 / r)


def _refine_crossing(u: np.ndarray, v: np.ndarray, r: float, T: float,
                     lo: np.ndarray, hi: np.ndarray, want_leq_left: bool) -> np.ndarray:
    """Locate, per column, the crossing of the (convex) s-profile through T inside [lo, hi]."""
    cols = np.arange(len(lo))
    for _ in range(5):
        s = np.linspace(lo, hi, 33, axis=1)
        inside = _rnorm_of_s(u, v, r, s) <= T
        if want_leq_left:
            idx = np.where(inside.all(axis=1), 32, inside.argmin(axis=1))
        else:
            idx = np.where(inside.any(axis=1), inside.argmax(axis=1), 32)
        idx = np.clip(idx, 1, 32)
        lo, hi = s[cols, idx - 1], s[cols, idx]
    return 0.5 * (lo + hi)


def _profile_min(u: np.ndarray, v: np.ndarray, r: float,
                 s_cap: float) -> tuple[np.ndarray, np.ndarray]:
    """Per column, the profile on the 65-point grid over [0, s_cap] and the
    point s_min the sublevel search takes for its minimum, by scanning every
    point of that grid and of three 33-point refinement rounds."""
    m = u.shape[2]
    cols = np.arange(m)
    grid = np.linspace(0.0, s_cap, 65)
    vals = _rnorm_of_s(u, v, r, np.broadcast_to(grid, (m, 65)))
    i = vals.argmin(axis=1)
    lo, hi = grid[np.maximum(i - 1, 0)], grid[np.minimum(i + 1, 64)]
    for _ in range(3):
        s = np.linspace(lo, hi, 33, axis=1)
        j = _rnorm_of_s(u, v, r, s).argmin(axis=1)
        lo, hi = s[cols, np.maximum(j - 1, 0)], s[cols, np.minimum(j + 1, 32)]
    return vals, 0.5 * (lo + hi)


def _sublevel_interval(u: np.ndarray, v: np.ndarray, r: float, T: float,
                       s_cap: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per column, the interval {s in [0, s_cap] : rnorm(k1 a_s k2) <= T} (convex
    profile): (nonempty, s_a, s_b), the ends meaningless where it is empty."""
    m = u.shape[2]
    vals, s_min = _profile_min(u, v, r, s_cap)
    nonempty = ~(_rnorm_of_s(u, v, r, s_min[:, None])[:, 0] > T)
    s_a, s_b = np.zeros(m), np.full(m, s_cap)
    left, right = nonempty & (vals[:, 0] > T), nonempty & (vals[:, -1] > T)
    if left.any():
        s_a[left] = _refine_crossing(u[:, :, left], v[:, :, left], r, T, s_a[left],
                                     s_min[left], want_leq_left=False)
    if right.any():
        s_b[right] = _refine_crossing(u[:, :, right], v[:, :, right], r, T, s_min[right],
                                      s_b[right], want_leq_left=True)
    return nonempty, s_a, s_b


def kak_raw_reference(gauge: Gauge, T: float, *, panels: int = 4, nodes: int = 16) -> float:
    """haar._sl2_kak_raw at one threshold, one theta1 node at a time.

    At each theta1 node the sublevel search runs on every theta2 node at once,
    with the nodes, grids and refinement rounds of the batched route, and the
    sum takes the node pairs in the same order; so the two must agree
    exactly, not just to a tolerance.
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
        u, v = _kak_entry_coeffs(th1, theta_nodes)
        nonempty, s_a, s_b = _sublevel_interval(u, v, gauge.r, T, s_cap)
        for w2, inside, a, b in zip(theta_weights, nonempty.tolist(), s_a.tolist(),
                                    s_b.tolist()):
            if inside:
                total += w1 * w2 * 0.5 * (math.cosh(2.0 * b) - math.cosh(2.0 * a))
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


# ---------------------------------------------------------------------------
# the profile convolution as one full table
# ---------------------------------------------------------------------------

def convolve_profiles_eager(v1: VolumeProfile, v2: VolumeProfile, *,
                            t_max: float = 20.0, steps: int = 512) -> Callable[[float], float]:
    """The product profile of haar.convolve_profiles from every table row,
    summed up front and interpolated by np.interp on the whole grid."""
    grid = np.linspace(0.0, t_max, steps + 1)
    w = np.array([v2(s) for s in grid])
    out = np.array([_stieltjes_sum(v1, t, grid, w) for t in grid.tolist()])
    return lambda t: float(np.interp(t, grid, out, left=0.0))


# ---------------------------------------------------------------------------
# the admissibility product-set check, one sample at a time
# ---------------------------------------------------------------------------

def gauge_eval_real(gauge: Gauge, mat: Sequence[Sequence[float]]) -> float:
    """Hyperbolic gauge value of a real 2x2 matrix (the admissibility product check)."""
    if gauge.kind == "hyperbolic":
        flat = [mat[0][0], mat[0][1], mat[1][0], mat[1][1]]
        return math.acosh(max(1.0, sum(e * e for e in flat) / 2.0))
    raise SpecError(f"real-matrix evaluation unsupported for gauge {gauge.kind!r}")


def _exp_traceless(x: float, y: float, z: float) -> list[list[float]]:
    """exp of [[x, y], [z, -x]] by the closed form (X^2 = (x^2 + yz) I)."""
    delta = x * x + y * z
    if delta > 1e-18:
        mu = math.sqrt(delta)
        ch, sh = math.cosh(mu), math.sinh(mu) / mu
    elif delta < -1e-18:
        nu = math.sqrt(-delta)
        ch, sh = math.cos(nu), math.sin(nu) / nu
    else:
        ch, sh = 1.0, 1.0
    return [[ch + sh * x, sh * y], [sh * z, ch - sh * x]]


def _sample_o_eps(rng: random.Random, eps: float) -> list[list[float]]:
    """A perturbation exp(X) with sqrt(2)*||X||_F <= eps/2, so the base point
    moves by at most eps/2 (the diagonal direction is the extremal one)."""
    while True:
        w = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        norm = math.sqrt(sum(c * c for c in w))
        if norm > 1e-12:
            break
    radius = eps / (2.0 * math.sqrt(2.0)) * rng.random() ** (1.0 / 3.0)
    scale = radius / norm
    # ||[[x, y], [z, -x]]||_F^2 = 2 x^2 + y^2 + z^2, so rescale the x-coordinate
    x = w[0] * scale / math.sqrt(2.0)
    y = w[1] * scale
    z = w[2] * scale
    return _exp_traceless(x, y, z)


def _sample_shell_element(rng: random.Random, t: float) -> tuple[list[list[float]], float]:
    """A lattice element with hyperbolic value in (t-1, t], found by random
    coprime rows plus the extreme of the Euclid progression (no full scan)."""
    cap = 2.0 * math.cosh(t)
    half = int(math.sqrt(cap / 2.0))
    for _ in range(256):
        a = rng.randint(-half, half)
        b = rng.randint(-half, half)
        if math.gcd(a, b) != 1:
            continue
        g, x, y = ext_gcd(a, b)
        d0, c0 = x, -y
        rem = cap - a * a - b * b
        A = a * a + b * b
        B = 2 * (c0 * a + d0 * b)
        C = c0 * c0 + d0 * d0 - rem
        disc = B * B - 4 * A * C
        if disc < 0:
            continue
        root = math.sqrt(disc)
        k = math.floor((-B + root) / (2 * A)) if rng.random() < 0.5 else math.ceil(
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
            return [[float(a), float(b)], [float(c), float(d)]], value
    raise NumericalError(f"could not sample a shell element near t={t:g}")


def _mat2_mul(p: list[list[float]], q: list[list[float]]) -> list[list[float]]:
    return [
        [p[0][0] * q[0][0] + p[0][1] * q[1][0], p[0][0] * q[0][1] + p[0][1] * q[1][1]],
        [p[1][0] * q[0][0] + p[1][1] * q[1][0], p[1][0] * q[0][1] + p[1][1] * q[1][1]],
    ]


def product_set_check_reference(gauge: Gauge, ts: Sequence[float], eps: Sequence[float],
                                c_use: float, samples: int, seed: int) -> tuple[int, int, float]:
    """(checked, violations, worst) of haar._product_set_check, sampled through
    random.Random's uniform, choice, randint and gauss, one helper per step."""
    rng = random.Random(seed)
    checked = violations = 0
    worst = 0.0
    for _ in range(samples):
        t = rng.uniform(min(ts), max(ts))
        e = rng.choice(eps)
        mat, value = _sample_shell_element(rng, t)
        u1 = _sample_o_eps(rng, e)
        u2 = _sample_o_eps(rng, e)
        moved = _mat2_mul(u1, _mat2_mul(mat, u2))
        moved_value = gauge_eval_real(gauge, moved)
        checked += 1
        worst = max(worst, (moved_value - value) / e)
        if moved_value > value + c_use * e:
            violations += 1
    return checked, violations, worst
