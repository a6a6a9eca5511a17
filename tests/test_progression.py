"""The ball kernels against the enumeration oracle, bit for bit.

progression_buckets counts SL(2)-type balls along Bezout progressions, SL(3)
balls by their third rows and form balls by an integer form key, all without
building elements; enumerate_ball + bucket_index is the independent route it
must reproduce exactly: per-bucket counts, residue histograms, torus rows and
orbit counts.
"""

import inspect
import math
from collections import Counter
from functools import lru_cache

import pytest

from _brute import brute_orbit_count
from latcount.errors import BudgetError, SpecError
from latcount.gauges import (
    BinaryForm,
    form_norm_sq,
    forms_substitute,
    gauge_cap,
    gauge_key,
    gauge_leq,
    height_gauge,
    hyperbolic_gauge,
    key_norm,
    parse_gauge,
    rep_form_gauge,
    rnorm_gauge,
)
from latcount.groups import GroupElement, reduce_mod
from latcount.lattice import (
    ball_buckets,
    bucket_index,
    coset_histogram,
    count_series,
    enumerate_ball,
    orbit_forms_count,
    orbit_forms_series,
    progression_buckets,
    sl_residue_order,
    threshold_bucketer,
)
from latcount.torus import CosetObservable, TorusCharacter, deviation_series
import latcount.lattice as lattice

INF = math.inf
X0 = (math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0)

# ties (T = 5.0, T = sqrt(50.0), integer t), and runs of equal integer caps
CASES = [
    ("sl2z", rnorm_gauge(2), (1.5, 2.0, 5.0, 5.01, math.sqrt(50.0), 7.5, 20.0, 40.0)),
    ("sl2z", rnorm_gauge(1), (2.0, 3.5, 5.0, 5.05, 5.09, 12.0, 30.0)),
    ("sl2z", rnorm_gauge(INF), (1.0, 1.5, 2.0, 5.0, 5.5, 11.0, 20.0)),
    ("sl2z", hyperbolic_gauge(), (0.5, 1.0, 2.0, 3.0, 3.0001, 4.0, 5.0)),
    ("sl2z1p", height_gauge(2), (2.0, 3.0, 5.0, 5.01, 8.0, 16.0, 20.0)),
    ("sl2z1p", height_gauge(3), (2.0, 3.0, 7.0, math.sqrt(50.0), 9.0, 9.5, 20.0)),
]
IDS = [f"{g}-{gauge.describe()}" for g, gauge, _ in CASES]


def oracle_buckets(group, gauge, thr):
    """(bucket_index, element) over the enumerated ball at the top threshold."""
    return [(bucket_index(gauge, el, thr), el) for el in enumerate_ball(group, gauge, thr[-1])]


@pytest.mark.parametrize("group,gauge,thr", CASES, ids=IDS)
def test_bucket_counts_match_enumeration(group, gauge, thr):
    kernel = Counter(i for i, *_ in progression_buckets(group, gauge, thr))
    oracle = Counter(i for i, _ in oracle_buckets(group, gauge, thr))
    assert kernel == oracle
    assert len(thr) not in kernel
    series = count_series(group, gauge, thr, with_volume=False)
    assert series.counts() == [sum(oracle[j] for j in range(i + 1)) for i in range(len(thr))]


@pytest.mark.parametrize("group,gauge,thr", CASES, ids=IDS)
def test_kernel_elements_are_the_ball(group, gauge, thr):
    p = gauge.prime
    seen = Counter()
    for _, den, a, b, c, d in progression_buckets(group, gauge, thr):
        det = a * d - b * c
        level = 0 if group == "sl2z" else round(math.log(det, p)) // 2
        assert den == (p ** level if level else 1)
        seen[GroupElement.from_rows(((a, b), (c, d)), prime=p, p_power=level)] += 1
    assert set(seen.values()) == {1}
    assert set(seen) == set(enumerate_ball(group, gauge, thr[-1]))


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("gauge,thr", [
    (rnorm_gauge(2), (5.0, math.sqrt(50.0), 12.0, 25.0)),
    (hyperbolic_gauge(), (1.0, 2.0, 3.0, 4.0)),
], ids=["rnorm:2", "hyperbolic"])
def test_coset_histograms_match_enumeration(q, gauge, thr):
    kernel = Counter((i, a % q, b % q, c % q, d % q)
                     for i, _, a, b, c, d in progression_buckets("sl2z", gauge, thr))
    oracle = Counter((i, *reduce_mod(el, q).sort_key())
                     for i, el in oracle_buckets("sl2z", gauge, thr))
    assert kernel == oracle
    ball = list(enumerate_ball("sl2z", gauge, thr[-1]))
    via_kernel = deviation_series("sl2z", gauge, thr, CosetObservable(q))
    via_elements = deviation_series("sl2z", gauge, thr, CosetObservable(q), elements=ball)
    assert via_kernel.rows == via_elements.rows


@pytest.mark.parametrize("m", [(1, 0), (2, -1), (0, 0)])
@pytest.mark.parametrize("gauge,thr", [
    (rnorm_gauge(2), (5.0, math.sqrt(50.0), 12.0, 25.0)),
    (rnorm_gauge(1), (5.0, 5.05, 12.0, 20.0)),
    (hyperbolic_gauge(), (1.0, 2.0, 3.0, 4.0)),
], ids=["rnorm:2", "rnorm:1", "hyperbolic"])
def test_torus_rows_are_bit_identical(m, gauge, thr):
    ball = list(enumerate_ball("sl2z", gauge, thr[-1]))
    via_kernel = deviation_series("sl2z", gauge, thr, TorusCharacter(m), X0)
    via_elements = deviation_series("sl2z", gauge, thr, TorusCharacter(m), X0,
                                    elements=ball)
    assert via_kernel.rows == via_elements.rows  # floats compared with ==


SARITH_COSETS = [(gauge, thr, q) for group, gauge, thr in CASES if group == "sl2z1p"
                 for q in (2, 3, 5) if q % gauge.prime]


@pytest.mark.parametrize("gauge,thr,q", SARITH_COSETS,
                         ids=[f"{g.describe()}-q{q}" for g, _, q in SARITH_COSETS])
def test_sarith_coset_rows_match_enumeration(gauge, thr, q):
    ball = list(enumerate_ball("sl2z1p", gauge, thr[-1]))
    via_kernel = deviation_series("sl2z1p", gauge, thr, CosetObservable(q))
    via_elements = deviation_series("sl2z1p", gauge, thr, CosetObservable(q), elements=ball)
    assert via_kernel.rows == via_elements.rows
    # reduce_mod's p^-k scaling is the independent route for the top row
    top = coset_histogram(ball, q).sup_deviation(sl_residue_order(2, q))
    assert via_kernel.rows[-1] == (thr[-1], top, len(ball))


@pytest.mark.parametrize("m", [(1, 0), (2, -1)])
@pytest.mark.parametrize("p,thr", [(2, (1.5, 2.0, 2.5, 2.8)), (3, (2.0, 3.0, 4.0, 4.2))])
def test_sarith_torus_rows_below_level_one(p, thr, m):
    # T < p sqrt(2): the ball holds no level-1 matrix, so the torus acts
    ball = list(enumerate_ball("sl2z1p", height_gauge(p), thr[-1]))
    assert all(el.p_power == 0 for el in ball)
    via_kernel = deviation_series("sl2z1p", height_gauge(p), thr, TorusCharacter(m), X0)
    via_elements = deviation_series("sl2z1p", height_gauge(p), thr, TorusCharacter(m), X0,
                                    elements=ball)
    assert via_kernel.rows == via_elements.rows


@pytest.mark.parametrize("group,gauge,top", [
    ("sl2z", rnorm_gauge(2), 9.0),
    ("sl2z", rnorm_gauge(1), 9.0),
    ("sl2z", rnorm_gauge(INF), 6.0),
    ("sl2z", rnorm_gauge(3), 6.0),
    ("sl2z", hyperbolic_gauge(), 3.0),
    ("sl2z", parse_gauge("form:deg=4:coeffs=1,0,0,0,1"), 60.0),
    ("sl3z", rnorm_gauge(2), 2.5),
    ("sl2z1p", height_gauge(2), 9.0),
])
def test_integer_bucketer_matches_bucket_index(group, gauge, top):
    thr = [top * f for f in (0.3, 0.5, 0.55, 0.7, 1.0)]
    if gauge.kind == "rnorm":
        thr[1:3] = [math.floor(top / 2), math.floor(top / 2) + 0.25]  # tie, repeated cap
    bucket = threshold_bucketer(gauge, thr)
    for el in enumerate_ball(group, gauge, top):
        assert bucket(el) == bucket_index(gauge, el, thr)


def test_rnorm_of_p_power_elements_keeps_the_level():
    gauge = rnorm_gauge(2)
    thr = [1.5, 2.0, 3.0]
    bucket = threshold_bucketer(gauge, thr)
    for el in enumerate_ball("sl2z1p", height_gauge(2), 6.0):
        assert bucket(el) == bucket_index(gauge, el, thr)
        if el.p_power:
            assert gauge_key(gauge, el) is None


def test_gauge_leq_is_key_against_cap():
    assert [key_norm(rnorm_gauge(r)) for r in (1, 2, 3, 1.5, INF)] == \
        ["abs", "sq", "pow", None, "max"]
    assert [key_norm(g) for g in (hyperbolic_gauge(), height_gauge(2), rep_form_gauge(QUARTIC))] \
        == ["sq", "sq", "form"]
    ball = list(enumerate_ball("sl2z", rnorm_gauge(2), 8.0))
    for gauge in (rnorm_gauge(1), rnorm_gauge(2), rnorm_gauge(INF), rnorm_gauge(3),
                  hyperbolic_gauge()):
        for t in (2.0, 2.5, 5.0, math.sqrt(50.0)):
            cap = gauge_cap(gauge, t)
            for el in ball:
                assert gauge_leq(gauge, el, t) == (gauge_key(gauge, el) <= cap)
    assert gauge_cap(rnorm_gauge(2), 5.0) == 25
    assert gauge_cap(rnorm_gauge(1.5), 5.0) is None
    assert gauge_cap(hyperbolic_gauge(), -1.0) == -1


def test_negative_threshold_stays_on_the_kernel():
    # a negative threshold caps at -1, below every key, so it holds nothing
    thr = (-3.0, 2.0, 4.0)
    assert progression_buckets("sl2z", rnorm_gauge(2), thr) is not None
    ball = list(enumerate_ball("sl2z", rnorm_gauge(2), 4.0))
    expected = Counter(bucket_index(rnorm_gauge(2), el, thr) for el in ball)
    got = count_series("sl2z", rnorm_gauge(2), thr, with_volume=False).counts()
    assert got == [sum(expected[j] for j in range(i + 1)) for i in range(3)]
    row = count_series("sl2z", rnorm_gauge(2), [-3.0, 3.0]).rows[0]
    assert (row.count, row.volume, row.ratio) == (0, 0.0, None)


BAD_GRIDS = [(), (2.0, 2.0, 4.0), (2.0, 1.5, 4.0),
             (math.nan,), (1.0, math.nan, 3.0), (2.0, math.inf)]
SERIES_CALLS = {
    "count_series": lambda thr: count_series("sl2z", rnorm_gauge(2), thr),
    "torus": lambda thr: deviation_series("sl2z", rnorm_gauge(2), thr, TorusCharacter((1, 0)), X0),
    "coset": lambda thr: deviation_series("sl2z", rnorm_gauge(2), thr, CosetObservable(2)),
    "ball_buckets-elements": lambda thr: ball_buckets(
        "sl2z", rnorm_gauge(2), thr, elements=list(enumerate_ball("sl2z", rnorm_gauge(2), 3.0))),
    "progression_buckets": lambda thr: progression_buckets("sl2z", rnorm_gauge(2), thr),
    "bucket_index": lambda thr: bucket_index(
        rnorm_gauge(2), GroupElement.from_rows(((1, 2), (1, 3))), thr),
    "threshold_bucketer": lambda thr: threshold_bucketer(rnorm_gauge(2), thr),
}


@pytest.mark.parametrize("call", SERIES_CALLS.values(), ids=SERIES_CALLS)
@pytest.mark.parametrize("thr", BAD_GRIDS, ids=["empty", "repeated", "unsorted",
                                                 "nan", "nan-inside", "inf-top"])
def test_bad_grids_raise(call, thr):
    with pytest.raises(SpecError, match="strictly increasing and nonempty"):
        call(thr)


@pytest.fixture
def kernel_never_runs(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("the kernel ran before the checks")
    monkeypatch.setattr(lattice, "_progression_ball", boom)
    monkeypatch.setattr(lattice, "_shell_counts", boom)


@pytest.mark.usefixtures("kernel_never_runs")
def test_budget_gate_fires_before_the_kernel():
    with pytest.raises(BudgetError):
        count_series("sl2z", rnorm_gauge(2), [30.0], budget=10)
    with pytest.raises(BudgetError):
        count_series("sl2z1p", height_gauge(2), [30.0], budget=10)
    with pytest.raises(BudgetError):
        deviation_series("sl2z", rnorm_gauge(2), [30.0], CosetObservable(2), budget=10)
    with pytest.raises(BudgetError):
        deviation_series("sl2z", hyperbolic_gauge(), [3.0], TorusCharacter((1, 0)), X0, budget=10)


@pytest.mark.usefixtures("kernel_never_runs")
def test_an_overflowing_estimate_is_over_budget():
    # 14 cosh(t) has no float value at t = 1e6, so no budget admits the ball
    with pytest.raises(BudgetError):
        count_series("sl2z", hyperbolic_gauge(), [1e6])
    with pytest.raises(BudgetError):
        deviation_series("sl2z", hyperbolic_gauge(), [1e6], CosetObservable(2))


@pytest.mark.parametrize("threshold", [math.nan, math.inf])
def test_non_finite_ball_threshold_is_a_spec_error(threshold):
    with pytest.raises(SpecError, match="positive and finite"):
        list(enumerate_ball("sl2z", rnorm_gauge(2), threshold))


@pytest.mark.usefixtures("kernel_never_runs")
def test_spec_errors_fire_before_the_kernel():
    with pytest.raises(SpecError):
        count_series("sl2z", rnorm_gauge(2), [-1.0, 0.0])
    with pytest.raises(SpecError):
        count_series("sl2z", height_gauge(2), [3.0])
    with pytest.raises(SpecError):
        count_series("sl2z1p", rnorm_gauge(2), [3.0])
    # observable checks come before the budget gate, as on the enumeration route
    with pytest.raises(SpecError):
        deviation_series("sl2z", rnorm_gauge(2), [30.0], TorusCharacter((1, 0, 0)), X0, budget=10)
    with pytest.raises(SpecError):
        deviation_series("sl2z", rnorm_gauge(2), [30.0], 2, budget=10)  # a bare modulus


# ---------------------------------------------------------------------------
# SL(3,Z): third-row records
# ---------------------------------------------------------------------------

X3 = (math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0, math.sqrt(5.0) - 2.0)

# ties at T = sqrt(integer); r = 1 keys start at 3 (signed permutations)
SL3_CASES = [
    (rnorm_gauge(2), (1.5, 2.0, math.sqrt(5.0), 2.5, math.sqrt(8.0), 3.0, math.sqrt(10.0))),
    (rnorm_gauge(1), (2.0, math.sqrt(9.0), 3.5, math.sqrt(16.0))),
    (rnorm_gauge(INF), (0.5, 1.0, 1.5, math.sqrt(4.0))),
]
SL3_IDS = [gauge.describe() for gauge, _ in SL3_CASES]
# the r = inf ball at T = 2 holds 67,704 elements; the observables take T < 2
SL3_SMALL = SL3_CASES[:2] + [(rnorm_gauge(INF), (0.5, 1.0, 1.5))]


@lru_cache(maxsize=None)
def sl3_ball(r, top):
    return tuple(enumerate_ball("sl3z", rnorm_gauge(r), top))


def sl3_oracle(gauge, thr):
    """(bucket_index, element) for the enumerated ball at thr[-1].

    The r = 1 ball is cut from the r = 2 ball of the same radius (|x|_2 <=
    |x|_1): enumerate_ball sweeps the whole cube for r = 1, 6 s at T = 3.
    """
    ball = sl3_ball(2 if gauge.r == 1 else gauge.r, thr[-1])
    pairs = ((bucket_index(gauge, el, thr), el) for el in ball)
    return [(i, el) for i, el in pairs if i < len(thr)]


@pytest.mark.parametrize("gauge,thr", SL3_CASES, ids=SL3_IDS)
def test_sl3_records_match_enumeration(gauge, thr):
    records = list(progression_buckets("sl3z", gauge, thr))
    oracle = sl3_oracle(gauge, thr)
    assert Counter(i for i, *_ in records) == Counter(i for i, _ in oracle)
    kernel = {(rec[0], GroupElement.from_rows((rec[2:5], rec[5:8], rec[8:11])))
              for rec in records}
    assert all(rec[1] == 1 for rec in records)
    assert len(kernel) == len(records)
    assert kernel == set(oracle)
    series = count_series("sl3z", gauge, thr, with_volume=False)
    assert series.counts() == [sum(1 for i, _ in oracle if i <= j) for j in range(len(thr))]


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("gauge,thr", SL3_SMALL, ids=SL3_IDS)
def test_sl3_coset_rows_match_elements(gauge, thr, q):
    ball = [el for _, el in sl3_oracle(gauge, thr)]
    via_kernel = deviation_series("sl3z", gauge, thr, CosetObservable(q))
    via_elements = deviation_series("sl3z", gauge, thr, CosetObservable(q), elements=ball)
    assert via_kernel.rows == via_elements.rows


@pytest.mark.parametrize("gauge,thr", SL3_SMALL, ids=SL3_IDS)
def test_sl3_torus_rows_are_bit_identical(gauge, thr):
    ball = [el for _, el in sl3_oracle(gauge, thr)]
    chi = TorusCharacter((1, 0, -1))
    via_kernel = deviation_series("sl3z", gauge, thr, chi, X3)
    via_elements = deviation_series("sl3z", gauge, thr, chi, X3, elements=ball)
    assert via_kernel.rows == via_elements.rows  # floats compared with ==


# ---------------------------------------------------------------------------
# form gauges: the integer form key, and orbit counting in one pass
# ---------------------------------------------------------------------------

QUARTIC = BinaryForm(4, (1, 0, 0, 0, 1))  # ||f0||^2 = 2
MIXED = BinaryForm(4, (1, 0, 1, 0, 1))    # ||f0||^2 = 13/6
FORMS = [QUARTIC, MIXED]
FORM_IDS = ["x4+y4", "x4+x2y2+y4"]


@pytest.mark.parametrize("f0,thr", [
    (QUARTIC, (math.sqrt(2.0),)),
    (QUARTIC, (math.sqrt(2.0), math.sqrt(19.0), 10.0, 60.0, 250.0, 1000.0)),
    (MIXED, (1.0, math.sqrt(13 / 6), 5.0, 40.0, 300.0, 1000.0)),
], ids=["x4+y4-base", "x4+y4-grid", "x4+x2y2+y4-grid"])
def test_form_records_match_enumeration(f0, thr):
    gauge = rep_form_gauge(f0)
    kernel = Counter(progression_buckets("sl2z", gauge, thr))
    oracle = Counter((i, 1, *el.entries_flat()) for i, el in oracle_buckets("sl2z", gauge, thr))
    assert kernel == oracle
    assert set(kernel.values()) == {1}


@pytest.mark.parametrize("f0", FORMS, ids=FORM_IDS)
def test_form_key_is_exact_at_orbit_norm_ties(f0):
    gauge = rep_form_gauge(f0)
    ball = list(enumerate_ball("sl2z", gauge, 250.0))
    norms = [form_norm_sq(forms_substitute(f0, el)) for el in ball]
    for el, norm in zip(ball, norms):
        assert gauge_key(gauge, el) == 12 * norm  # lcm(1, 4, 6, 4, 1) = 12
    ties = [math.sqrt(n) for n in sorted(set(norms))]
    for tie in ties:
        for t in (math.nextafter(tie, 0.0), tie, math.nextafter(tie, math.inf)):
            cap = gauge_cap(gauge, t)
            for el in ball:
                assert (gauge_key(gauge, el) <= cap) == gauge_leq(gauge, el, t)
    assert gauge_cap(gauge, 0.0) == 0
    for t in (-1e-300, -ties[0], -1e3):
        assert gauge_cap(gauge, t) == -1
        assert not any(gauge_key(gauge, el) <= gauge_cap(gauge, t) for el in ball)
    # a negative threshold holds nothing on the kernel route
    records = list(progression_buckets("sl2z", gauge, (-ties[-1], ties[-1])))
    assert records and all(i == 1 for i, *_ in records)


@pytest.mark.parametrize("f0", FORMS, ids=FORM_IDS)
def test_orbit_series_matches_brute_counts(f0):
    base = math.sqrt(form_norm_sq(f0))
    grid = [base - 1e-6, base * (1 - 1e-13), math.nextafter(base, 0.0), base,
            base * 1.5, 10.0, 60.0, 250.0, 1000.0]
    series = orbit_forms_series(f0, grid)
    assert [(o.orbit_count, o.stabilizer_order, o.gamma_count) for o in series] == \
        [brute_orbit_count(f0, t) for t in grid]
    assert orbit_forms_series(f0, grid[::-1]) == series[::-1]
    assert [orbit_forms_count(f0, t) for t in grid] == series


# ---------------------------------------------------------------------------
# "sq" counts from r2 shells: the kernel and the enumeration are the oracles
# ---------------------------------------------------------------------------

# ties at T = sqrt(integer) and integer 2 cosh t, runs of equal caps, levels
# opening at T^2 = 2 p^(2k)
SHELL_CASES = [
    ("sl2z", rnorm_gauge(2), (1.5, 2.0, 5.0, 5.01, math.sqrt(50.0), 37.5, 100.0, 150.0,
                              math.sqrt(40000.0))),
    ("sl2z", hyperbolic_gauge(), (0.5, 1.0, 2.0, 3.0, 3.0001, math.acosh(500.0), 9.0,
                                  math.acosh(20000.0))),
    ("sl2z1p", height_gauge(2), (2.0, 3.0, 5.0, 5.01, math.sqrt(32.0), math.sqrt(512.0),
                                 40.0, 60.0)),
    ("sl2z1p", height_gauge(3), (2.0, math.sqrt(18.0), 7.0, 9.0, 9.5, math.sqrt(162.0), 45.0)),
    ("sl2z1p", height_gauge(5), (2.0, math.sqrt(50.0), 8.0, 20.0, math.sqrt(1250.0), 45.0)),
]
SHELL_IDS = [f"{g}-{gauge.describe()}" for g, gauge, _ in SHELL_CASES]


@pytest.mark.parametrize("group,gauge,thr", SHELL_CASES, ids=SHELL_IDS)
def test_shell_counts_match_the_kernel(group, gauge, thr):
    buckets = Counter(i for i, *_ in progression_buckets(group, gauge, thr))
    kernel = [sum(buckets[j] for j in range(i + 1)) for i in range(len(thr))]
    assert count_series(group, gauge, thr, with_volume=False).counts() == kernel


@pytest.mark.parametrize("group,gauge,thr", [
    ("sl2z", rnorm_gauge(2), (-3.0, 0.5, 2.0, 5.0, math.sqrt(50.0), 40.0)),
    ("sl2z", hyperbolic_gauge(), (-1.0, 0.0, 1.0, 3.0, 4.0)),
    ("sl2z1p", height_gauge(2), (-2.0, 1.0, math.sqrt(8.0), 16.0, 30.0)),
    ("sl2z1p", height_gauge(3), (-2.0, math.sqrt(18.0), 20.0)),
], ids=["rnorm:2", "hyperbolic", "height:p=2", "height:p=3"])
def test_shell_counts_match_enumeration(group, gauge, thr):
    oracle = Counter(i for i, _ in oracle_buckets(group, gauge, thr))
    assert oracle[0] == 0
    assert count_series(group, gauge, thr, with_volume=False).counts() == \
        [sum(oracle[j] for j in range(i + 1)) for i in range(len(thr))]


def test_shell_count_of_a_large_ball():
    # 6,000,052 at T = 1000 also came from a row-level Bezout count
    assert count_series("sl2z", rnorm_gauge(2), [1000.0], budget=10**8).counts() == [6000052]


def test_sq_counts_take_the_shell_route(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("an sq count walked the ball")
    monkeypatch.setattr(lattice, "_progression_ball", boom)
    monkeypatch.setattr(lattice, "_enumerate_sl2", boom)
    assert count_series("sl2z", rnorm_gauge(2), [10.0, 37.5]).counts() == [580, 8324]
    assert count_series("sl2z", hyperbolic_gauge(), [1.0, 2.0]).counts() == [20, 52]
    assert count_series("sl2z1p", height_gauge(2), [3.0, 30.0]).counts() == [68, 32012]


def test_given_elements_are_counted_as_given():
    gauge = rnorm_gauge(2)
    thr = (2.0, 5.0, 8.0)
    some = list(enumerate_ball("sl2z", gauge, 8.0))[::3]
    buckets = Counter(bucket_index(gauge, el, thr) for el in some)
    assert count_series("sl2z", gauge, thr, with_volume=False, elements=some).counts() == \
        [sum(buckets[j] for j in range(i + 1)) for i in range(len(thr))]
    assert count_series("sl2z", gauge, thr, with_volume=False, elements=[]).counts() == [0, 0, 0]


# ---------------------------------------------------------------------------
# which balls take a kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("group,gauge,thr", [
    ("sl2z", rnorm_gauge(1), (3.0,)),
    ("sl2z", rnorm_gauge(2), (3.0,)),
    ("sl2z", rnorm_gauge(INF), (3.0,)),
    ("sl2z", hyperbolic_gauge(), (2.0,)),
    ("sl2z", rep_form_gauge(QUARTIC), (10.0,)),
    ("sl3z", rnorm_gauge(1), (3.0,)),
    ("sl3z", rnorm_gauge(2), (2.0,)),
    ("sl3z", rnorm_gauge(INF), (1.0,)),
    ("sl2z1p", height_gauge(2), (3.0,)),
])
def test_kernel_routes(group, gauge, thr):
    assert inspect.isgenerator(progression_buckets(group, gauge, thr))


@pytest.mark.parametrize("group,gauge", [
    ("sl3z", rnorm_gauge(3)),
    ("sl2z", rnorm_gauge(1.5)),
])
def test_enumeration_routes(group, gauge):
    assert progression_buckets(group, gauge, (2.0,)) is None
