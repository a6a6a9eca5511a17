"""Enumerator correctness against exhaustive oracles, plus series plumbing."""

import itertools
import math
import os
import time
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _brute import (
    _brute_ball,
    brute_sl2z,
    brute_sl2z1p,
    brute_sl3z,
    brute_sl_residue_order,
    enumerate_ball_reference,
    mutated,
)
from latcount.errors import BudgetError, SpecError
from latcount.gauges import (
    BinaryForm,
    gauge_eval,
    gauge_leq,
    gauge_cap,
    height_gauge,
    hyperbolic_gauge,
    parse_gauge,
    rep_form_gauge,
    rnorm_gauge,
)
from latcount.groups import GroupElement, group_inv, group_mul, reduce_mod
from latcount.lattice import (
    DEFAULT_BUDGET,
    coset_histogram,
    count_series,
    enumerate_ball,
    _level_count,
    _shell_counts,
    _z8_ball_points,
    estimate_count,
    orbit_forms_count,
    sl_residue_order,
)
import latcount.lattice as lattice

G2 = rnorm_gauge(2)


def test_sl2z_matches_brute_all_gauges():
    cases = [
        (rnorm_gauge(2), 4.0),
        (rnorm_gauge(1), 5.0),
        (rnorm_gauge(math.inf), 2.0),
        (rnorm_gauge(3), 5.0),
        (hyperbolic_gauge(), 2.2),
        (parse_gauge("form:deg=4:coeffs=1,0,0,0,1"), 40.0),
    ]
    for gauge, T in cases:
        assert set(enumerate_ball("sl2z", gauge, T)) == brute_sl2z(gauge, T)


# the sl3z ball at T = 2.5 and its brute scan serve two tests: made once a session
@lru_cache(maxsize=None)
def ball(group, gauge, T):
    return tuple(enumerate_ball(group, gauge, T))


@lru_cache(maxsize=None)
def brute_ball(group, gauge, T):
    return frozenset(BRUTE[group](gauge, T))


def test_sl3z_matches_brute():
    assert set(ball("sl3z", G2, 2.5)) == brute_ball("sl3z", G2, 2.5)


def test_sl3z_r1_ball_is_the_r2_ball_cut_and_sweeps_few_rows():
    # each row of an r = 1 element has |row|_1 <= floor(T) - 2; the ball is
    # the r = 2 ball at the same T (||g||_2 <= ||g||_1), cut, in its order
    r1 = rnorm_gauge(1)
    r2_ball = list(enumerate_ball("sl3z", G2, 4.0))
    for T, size in ((3.0, 24), (4.0, 312)):
        start = time.process_time()
        ball = list(enumerate_ball("sl3z", r1, T))
        assert time.process_time() - start < 1.0
        assert len(ball) == size
        assert ball == [el for el in r2_ball if gauge_leq(r1, el, T)]


def test_sl2z1p_matches_brute():
    for p, T in ((2, 4.0), (3, 4.0)):
        g = height_gauge(p)
        assert set(enumerate_ball("sl2z1p", g, T)) == brute_sl2z1p(g, T)


def test_frozen_counts():
    assert sum(1 for _ in enumerate_ball("sl2z", G2, 1.4)) == 0
    assert sum(1 for _ in enumerate_ball("sl2z", G2, math.sqrt(2.0))) == 4
    assert sum(1 for _ in enumerate_ball("sl2z", G2, 2.0)) == 20
    assert sum(1 for _ in enumerate_ball("sl2z", G2, 3.0)) == 52
    assert sum(1 for _ in enumerate_ball("sl2z", G2, 4.0)) == 100
    assert sum(1 for _ in enumerate_ball("sl3z", G2, 2.0)) == 312
    assert sum(1 for _ in enumerate_ball("sl2z1p", height_gauge(2), 3.0)) == 68


def _definition_count(n: int, r: float, T: float) -> int:
    """#{g in SL(n, Z) : ||g||_r <= T} for r in {1, inf}, from the definitions.

    Box |e| <= floor(T), the determinant by cofactors and the norm compared
    with Fraction(T); no gauge code.
    """
    B, bound = math.floor(T), Fraction(T)
    count = 0
    for e in itertools.product(range(-B, B + 1), repeat=n * n):
        size = max(map(abs, e)) if math.isinf(r) else sum(map(abs, e))
        if size > bound:
            continue
        if n == 2:
            det = e[0] * e[3] - e[1] * e[2]
        else:
            det = (e[0] * (e[4] * e[8] - e[5] * e[7]) - e[1] * (e[3] * e[8] - e[5] * e[6])
                   + e[2] * (e[3] * e[7] - e[4] * e[6]))
        count += det == 1
    return count


@pytest.mark.parametrize("group,r,grid", [
    ("sl2z", math.inf, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)),
    ("sl2z", 1.0, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)),
    ("sl3z", math.inf, (1.0,)),
])
def test_max_and_abs_balls_are_closed_at_integer_ties(group, r, grid):
    # at integer T the "max" and "abs" keys sit exactly on the cap
    n = 2 if group == "sl2z" else 3
    counts = count_series(group, rnorm_gauge(r), grid, with_volume=False).counts()
    assert counts == [_definition_count(n, r, T) for T in grid]


BRUTE = {"sl2z": brute_sl2z, "sl3z": brute_sl3z, "sl2z1p": brute_sl2z1p}
# balls whose brute scan is cut from the r = inf ball at T = 1 (every |e| <=
# 1): the three rows of an element of SL(3,Z) are nonzero integer rows, so
# |g|_1 <= 3 leaves one entry +-1 per row, and |g|_3^3 <= 8 leaves no room
# for an entry of 2 (2^3 = 8, and two more rows with a nonzero entry each)
BRUTE_POOLS = {
    ("sl3z", "rnorm:1", 3.0): (rnorm_gauge(math.inf), 1.0),
    ("sl3z", "rnorm:3", 2.0): (rnorm_gauge(math.inf), 1.0),
}


@pytest.mark.parametrize("group,gauge,T", [
    ("sl2z", G2, 6.0),
    ("sl2z", rnorm_gauge(1), 5.0),
    ("sl2z", rnorm_gauge(math.inf), 3.0),
    ("sl2z", rnorm_gauge(3), 5.0),
    ("sl2z", rnorm_gauge(1.5), 5.0),
    ("sl2z", hyperbolic_gauge(), 3.0),
    ("sl2z", parse_gauge("form:deg=4:coeffs=1,0,1,0,1"), 30.0),
    ("sl2z1p", height_gauge(2), 6.0),
    ("sl2z1p", height_gauge(3), 6.0),
    ("sl3z", G2, 2.5),
    ("sl3z", rnorm_gauge(1), 3.0),
    ("sl3z", rnorm_gauge(math.inf), 1.0),
    ("sl3z", rnorm_gauge(3), 2.0),
], ids=lambda v: v.describe() if hasattr(v, "describe") else str(v))
def test_canonical_order(group, gauge, T):
    seq = ball(group, gauge, T)
    keys = [el.sort_key() for el in seq]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))
    pool = BRUTE_POOLS.get((group, gauge.describe(), T))
    if pool is None:
        assert set(seq) == brute_ball(group, gauge, T)
    else:
        _, inside = _brute_ball(gauge, T)
        assert set(seq) == {el for el in brute_ball(group, *pool) if inside(el)}


# every route of ball_columns that enumerate_ball sorts: the numpy walks of
# each entrywise key, the decided "max" box (rnorm:3, rnorm:1.5), forms, and
# the det = p^(2l) levels of sl2z1p
PYTHON_WALK_CASES = [
    ("sl2z", G2, 12.0),
    ("sl2z", rnorm_gauge(1), 9.0),
    ("sl2z", rnorm_gauge(math.inf), 7.0),
    ("sl2z", rnorm_gauge(3), 8.0),
    ("sl2z", rnorm_gauge(1.5), 8.0),
    ("sl2z", hyperbolic_gauge(), 3.0),
    ("sl2z", rep_form_gauge(BinaryForm(4, (1, 0, 0, 0, 1))), 300.0),
    ("sl3z", G2, 3.0),
    ("sl3z", rnorm_gauge(1), 4.0),
    ("sl3z", rnorm_gauge(math.inf), 1.0),
    ("sl3z", rnorm_gauge(3), 2.0),
    ("sl2z1p", height_gauge(2), 12.0),
    ("sl2z1p", height_gauge(3), 12.0),
]


@pytest.mark.parametrize("group,gauge,T", PYTHON_WALK_CASES,
                         ids=[f"{g}-{gauge.describe()}-{T:g}" for g, gauge, T in PYTHON_WALK_CASES])
def test_enumerate_ball_equals_the_python_walk(group, gauge, T):
    # the same list, order included
    assert list(enumerate_ball(group, gauge, T)) == list(enumerate_ball_reference(group, gauge, T))


# planted defects of enumerate_ball's sort and of the decided "max" box: each
# must fail the named oracle test, in an assert of this module
VIEW_DEFECTS = {
    "denominator-not-first": ("enumerate_ball", "np.lexsort(cols[::-1])",
                              "np.lexsort(cols[:0:-1])"),
    "pow-rows-undecided": ("ball_columns",
                           "_record_chunks(rec for rec in placed if rec[0] < len(caps))",
                           "_record_chunks(placed)"),
    "fractional-rows-undecided": ("ball_columns", "placed = ((bucket(el), el) for el in elements)",
                                  "placed = ((0, el) for el in elements)"),
}


@pytest.mark.parametrize("defect,check,case", [
    ("denominator-not-first", "test_canonical_order", ("sl2z1p", height_gauge(2), 6.0)),
    ("denominator-not-first", "test_canonical_order", ("sl2z1p", height_gauge(3), 6.0)),
    ("pow-rows-undecided", "test_sl2z_matches_brute_all_gauges", ()),
    ("fractional-rows-undecided", "test_canonical_order", ("sl2z", rnorm_gauge(1.5), 5.0)),
], ids=["denominator-not-first-p=2", "denominator-not-first-p=3", "pow-rows-undecided",
        "fractional-rows-undecided"])
def test_view_defects_fail_the_oracle_tests(monkeypatch, defect, check, case):
    name, old, new = VIEW_DEFECTS[defect]
    monkeypatch.setattr(lattice, name, mutated(getattr(lattice, name), old, new))
    monkeypatch.setitem(globals(), "enumerate_ball", lattice.enumerate_ball)
    monkeypatch.setitem(globals(), "ball", ball.__wrapped__)  # not the cached, sound balls
    with pytest.raises(AssertionError) as failure:
        globals()[check](*case)
    assert failure.traceback[-1].frame.f_globals["__name__"] == __name__  # not the walk's


def test_threshold_validation_and_budget():
    with pytest.raises(SpecError):
        list(enumerate_ball("sl2z", G2, 0.0))
    with pytest.raises(BudgetError):
        list(enumerate_ball("sl2z", G2, 500.0, budget=1000))


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("LATCOUNT_BUDGET", "10")
    with pytest.raises(BudgetError):
        list(enumerate_ball("sl2z", G2, 100.0))
    monkeypatch.setenv("LATCOUNT_BUDGET", "banana")
    with pytest.raises(SpecError):
        list(enumerate_ball("sl2z", G2, 10.0))


def test_unsupported_group_gauge_pairs():
    with pytest.raises(SpecError):
        list(enumerate_ball("sl3z", hyperbolic_gauge(), 2.0))
    with pytest.raises(SpecError):
        list(enumerate_ball("sl2z1p", G2, 3.0))
    with pytest.raises(SpecError):
        list(enumerate_ball("sl2z", height_gauge(2), 3.0))


@given(st.sampled_from([1.9, 2.4, 3.0, 3.6]))
@settings(max_examples=4, deadline=None)
def test_ball_closed_under_inverse_and_negation(T):
    ball = set(enumerate_ball("sl2z", G2, T))
    for el in ball:
        assert group_inv(el) in ball
        neg = GroupElement.from_rows(
            tuple(tuple(-x for x in row) for row in el.entries)
        )
        assert neg in ball


def test_count_series_buckets_match_separate_runs():
    thr = [1.5, 2.0, 2.5, 3.0, 4.0]
    series = count_series("sl2z", G2, thr, with_volume=False)
    for t, row in zip(thr, series.rows):
        assert row.count == sum(1 for _ in enumerate_ball("sl2z", G2, t))


def test_count_series_requires_increasing_thresholds():
    with pytest.raises(SpecError):
        count_series("sl2z", G2, [2.0, 2.0], with_volume=False)


@pytest.mark.parametrize("group,gauge,T,pool", [
    ("sl2z", rnorm_gauge(1), 5.0, None),
    ("sl2z", G2, 4.0, None),
    ("sl2z", rnorm_gauge(3), 4.0, None),
    ("sl2z", rnorm_gauge(1.5), 4.0, None),
    ("sl2z", rnorm_gauge(math.inf), 3.0, None),
    ("sl2z", hyperbolic_gauge(), 2.5, None),
    ("sl2z", parse_gauge("form:deg=4:coeffs=1,0,0,0,1"), 40.0, None),
    # the r = 1 ball lies in the r = 2 ball, which enumerates much faster
    ("sl3z", rnorm_gauge(1), 3.0, G2),
    ("sl3z", G2, 2.5, None),
    ("sl3z", rnorm_gauge(3), 2.0, None),
    ("sl3z", rnorm_gauge(math.inf), 1.0, None),
    ("sl2z1p", height_gauge(2), 4.0, None),
    ("sl2z1p", height_gauge(3), 4.0, None),
], ids=lambda v: v.describe() if hasattr(v, "describe") else str(v))
def test_negative_thresholds_are_empty_balls(group, gauge, T, pool):
    thr = [-3.0, T]
    top = count_series(group, gauge, thr, with_volume=False).counts()
    assert top[0] == 0 and top[1] > 0
    elements = list(enumerate_ball(group, pool or gauge, T))
    assert not any(gauge_leq(gauge, el, -3.0) for el in elements)
    assert count_series(group, gauge, thr, with_volume=False, elements=elements).counts() == top


def test_count_series_ratio_columns():
    series = count_series("sl2z", G2, [20.0, 40.0])
    for row in series.rows:
        assert row.volume is not None and row.volume > 0
        assert row.ratio == pytest.approx(row.count / row.volume)
        assert row.abs_dev == pytest.approx(abs(row.ratio - 1.0))


def test_coset_histogram_spec_example():
    ball = list(enumerate_ball("sl2z", G2, math.sqrt(2.0)))
    hist = coset_histogram(ball, 2)
    assert hist.total == 4
    assert sorted(c for _, c in hist.counts) == [2, 2]
    assert hist.sup_deviation(6) == pytest.approx(1.0 / 3.0)


def test_sl_residue_orders():
    assert sl_residue_order(2, 2) == 6
    assert sl_residue_order(2, 3) == 24
    assert sl_residue_order(2, 5) == 120
    assert sl_residue_order(3, 2) == 168
    assert sl_residue_order(3, 7) == 5_630_688
    with pytest.raises(SpecError):
        sl_residue_order(2, 1)


@pytest.mark.parametrize("n,qmax", [(2, 16), (3, 4)])
def test_sl_residue_orders_match_enumeration(n, qmax):
    for q in range(2, qmax + 1):
        assert sl_residue_order(n, q) == brute_sl_residue_order(n, q)


def test_reduction_is_homomorphism_on_ball():
    ball = list(enumerate_ball("sl2z", G2, 2.5))
    for a in ball[:8]:
        for b in ball[:8]:
            assert reduce_mod(group_mul(a, b), 3) == reduce_mod(a, 3) * reduce_mod(b, 3)


def test_orbit_forms_spec_example():
    f0 = BinaryForm(4, (1, 0, 0, 0, 1))
    base = math.sqrt(2.0)
    oc = orbit_forms_count(f0, base)
    assert (oc.orbit_count, oc.stabilizer_order, oc.gamma_count) == (1, 4, 4)
    below = orbit_forms_count(f0, base - 1e-6)
    assert below.gamma_count == 0


def test_orbit_stabilizer_identity_exact():
    f0 = BinaryForm(4, (1, 0, 0, 0, 1))
    for T in (5.0, 50.0, 500.0):
        oc = orbit_forms_count(f0, T)
        assert oc.gamma_count == oc.orbit_count * oc.stabilizer_order
        assert oc.stabilizer_order == 4


def test_orbit_forms_requires_degree_three():
    with pytest.raises(SpecError):
        orbit_forms_count(BinaryForm(2, (1, 0, 1)), 10.0)


def test_sarith_structure_per_element():
    g = height_gauge(2)
    for el in enumerate_ball("sl2z1p", g, 6.0):
        a, b = el.entries[0]
        c, d = el.entries[1]
        det = a * d - b * c
        assert det == 4 ** el.p_power
        if el.p_power > 0:
            assert any(x % 2 != 0 for x in (a, b, c, d))


@pytest.mark.parametrize("r,grid", [
    (2, (1.5, 2.0, 2.5, 3.0, 3.5)),
    (1, (2.0, 3.0)),
    (math.inf, (1.0, 1.5, 2.0, 2.5)),
], ids=["rnorm:2", "rnorm:1", "rnorm:inf"])
def test_sl3z_estimate_bounds_the_count(r, grid):
    gauge = rnorm_gauge(r)
    counts = count_series("sl3z", gauge, grid, with_volume=False).counts()
    for t, count in zip(grid, counts):
        assert estimate_count("sl3z", gauge, t) >= count


@pytest.mark.parametrize("group,gauge", [
    ("sl2z", G2),
    ("sl2z", hyperbolic_gauge()),
    ("sl2z1p", height_gauge(2)),
    ("sl2z1p", height_gauge(3)),
], ids=["rnorm:2", "hyperbolic", "height:p=2", "height:p=3"])
def test_sq_estimate_bounds_the_count_at_every_integer_cap(group, gauge):
    # the least threshold of each cap; at cap 7 the hyperbolic ball holds 52
    # elements, over the 49 it was priced at as 14 cosh t
    caps = range(2, 20_001)
    counts = [0, 0] + _shell_counts(gauge, list(caps))
    for cap in caps:
        t = math.acosh(cap / 2) if gauge.kind == "hyperbolic" else math.sqrt(cap)
        assert estimate_count(group, gauge, t) >= counts[gauge_cap(gauge, t)]


@pytest.mark.parametrize("group,gauge,grid", [
    ("sl2z", rnorm_gauge(1), (2.0, 3.0, 5.0, 10.0, 20.0, 40.0, 80.0)),
    ("sl2z", rnorm_gauge(math.inf), (1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 40.0)),
    ("sl2z", rnorm_gauge(3), (1.5, 2.0, 3.0, 5.0, 10.0, 20.0)),
    ("sl2z", rnorm_gauge(1.5), (1.5, 2.0, 3.0, 5.0, 10.0, 20.0)),
    ("sl2z", parse_gauge("form:deg=4:coeffs=1,0,0,0,1"), (1.5, 10.0, 60.0, 250.0, 1000.0)),
    ("sl2z", parse_gauge("form:deg=4:coeffs=1,0,1,0,1"), (1.5, 10.0, 60.0, 250.0, 1000.0)),
    ("sl3z", rnorm_gauge(3), (1.5, 2.0)),
], ids=["rnorm:1", "rnorm:inf", "rnorm:3", "rnorm:1.5", "x4+y4", "x4+x2y2+y4", "sl3z-rnorm:3"])
def test_estimate_bounds_the_count_on_a_grid(group, gauge, grid):
    # rnorm:inf at T = 1 holds the 20 elements with entries in {-1, 0, 1}
    counts = count_series(group, gauge, grid, with_volume=False).counts()
    for t, count in zip(grid, counts):
        assert estimate_count(group, gauge, t) >= count


def test_height_estimate_counts_every_level():
    # T^2 rounds up to the cap 2 * 3^10 exactly, so level k = 5 is in the ball
    gauge, T = height_gauge(3), 343.65389565666214
    assert gauge_cap(gauge, T) == 2 * 3**10
    assert _level_count(3, 2 * 3**10) == 6
    assert _level_count(3, 2 * 3**10 - 1) == 5
    assert estimate_count("sl2z1p", gauge, T) == 9_920_232  # 6 * int(14 T^2)


@pytest.mark.parametrize("T,count", [(5.0, 270_456), (6.0, 756_312)])
def test_sl3z_estimate_bounds_the_count_past_the_benchmark_ball(T, count):
    # the points of Z^8 with |x|^2 <= T^2: 1,733,537 at T = 5, where the ball
    # bound pi^4/24 (T + sqrt 2)^8 gave 11,628,819
    assert count_series("sl3z", G2, [T], with_volume=False).counts() == [count]
    assert count <= estimate_count("sl3z", G2, T) < DEFAULT_BUDGET
    assert estimate_count("sl3z", G2, 5.0) == 1_733_537


def test_z8_ball_points_match_a_scan():
    box = range(-1, 2)  # |x|^2 <= 3 keeps every |x_i| <= 1
    norms = [sum(x * x for x in p) for p in itertools.product(box, repeat=8)]
    assert [_z8_ball_points(n) for n in range(4)] == \
        [sum(1 for v in norms if v <= n) for n in range(4)] == [1, 17, 129, 577]
    # T^2 is read exactly: sqrt(11.0)^2 rounds to 11.0 in floats but lies below 11
    T = math.sqrt(11.0)
    assert T * T == 11.0 and gauge_cap(G2, T) == 10
    assert estimate_count("sl3z", G2, T) == _z8_ball_points(10) < _z8_ball_points(11)


def test_sl3z_estimate_admits_the_benchmark_ball():
    # perfbench counts the rnorm:2 ball at T = 4.5, moved up by < 1% per seed
    assert estimate_count("sl3z", G2, 4.5 * 1.01) <= DEFAULT_BUDGET
