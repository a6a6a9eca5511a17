"""The ball kernels against the enumeration oracle, bit for bit.

ball_columns walks SL(2)-type balls along Bezout progressions, SL(3) balls
by the third rows of first-row orbit representatives and form balls by an
integer form key, all without building elements; the Python walk of
_brute.enumerate_ball_reference + bucket_index (_brute.element_records) is
the independent route it must reproduce exactly: per-bucket counts, residue
histograms, torus rows and orbit counts.  For the SL(2) balls walked in
numpy columns ("sq", "abs", "max" and form keys), the per-element Python
walks in _brute are the record-for-record oracles, as the flat SL(3) sweep
of _brute is for the orbit route.
"""

import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import pytest

from _brute import (
    _progression_ball,
    brute_orbit_count,
    column_records,
    element_records,
    enumerate_ball_reference,
    entrywise_ball_records,
    mutated,
    record_phase,
    residue_keys,
    sl3_ball_records,
    sq_ball_records,
)
from latcount.errors import BudgetError, SpecError
from latcount.gauges import (
    BinaryForm,
    Gauge,
    entry_bound,
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
    substitute_coeffs,
)
from latcount.groups import GroupElement, int_det, reduce_mod
from latcount.lattice import (
    bucket_index,
    coset_histogram,
    count_series,
    enumerate_ball,
    orbit_forms_count,
    orbit_forms_series,
    sl_residue_order,
    threshold_bucketer,
)
from latcount.torus import (
    CosetObservable,
    TorusCharacter,
    _column_residues,
    _column_turns,
    deviation_series,
)
import latcount.gauges as gauges
import latcount.lattice as lattice
import latcount.torus as torus

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
    """(bucket_index, element) over the Python walk's ball at the top threshold."""
    return [(bucket_index(gauge, el, thr), el)
            for el in enumerate_ball_reference(group, gauge, thr[-1])]


@pytest.mark.parametrize("group,gauge,thr", CASES, ids=IDS)
def test_bucket_counts_match_enumeration(group, gauge, thr):
    kernel = Counter(i for i, *_ in column_records(group, gauge, thr))
    oracle = Counter(i for i, _ in oracle_buckets(group, gauge, thr))
    assert kernel == oracle
    assert len(thr) not in kernel
    series = count_series(group, gauge, thr, with_volume=False)
    assert series.counts() == [sum(oracle[j] for j in range(i + 1)) for i in range(len(thr))]


@pytest.mark.parametrize("group,gauge,thr", CASES, ids=IDS)
def test_kernel_elements_are_the_ball(group, gauge, thr):
    p = gauge.prime
    seen = Counter()
    for _, den, a, b, c, d in column_records(group, gauge, thr):
        det = a * d - b * c
        level = 0 if group == "sl2z" else round(math.log(det, p)) // 2
        assert den == (p ** level if level else 1)
        seen[GroupElement.from_rows(((a, b), (c, d)), prime=p, p_power=level)] += 1
    assert set(seen.values()) == {1}
    assert set(seen) == set(enumerate_ball_reference(group, gauge, thr[-1]))


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("gauge,thr", [
    (rnorm_gauge(2), (5.0, math.sqrt(50.0), 12.0, 25.0)),
    (hyperbolic_gauge(), (1.0, 2.0, 3.0, 4.0)),
], ids=["rnorm:2", "hyperbolic"])
def test_coset_histograms_match_enumeration(q, gauge, thr):
    kernel = Counter((i, a % q, b % q, c % q, d % q)
                     for i, _, a, b, c, d in column_records("sl2z", gauge, thr))
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
    assert Counter(column_records("sl2z", rnorm_gauge(2), thr)) == \
        Counter(element_records("sl2z", rnorm_gauge(2), thr))
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
    "ball_buckets-elements": lambda thr: lattice.ball_columns(
        "sl2z", rnorm_gauge(2), thr, elements=list(enumerate_ball("sl2z", rnorm_gauge(2), 3.0))),
    "progression_buckets": lambda thr: lattice.ball_columns("sl2z", rnorm_gauge(2), thr),
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
    monkeypatch.setattr(lattice, "_form_columns", boom)
    monkeypatch.setattr(lattice, "_sl2_columns", boom)
    monkeypatch.setattr(lattice, "_shell_counts", boom)
    monkeypatch.setattr(lattice, "_sl3_orbits", boom)


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
    with pytest.raises(BudgetError):
        count_series("sl3z", rnorm_gauge(2), [2.0, 30.0], budget=10)
    with pytest.raises(BudgetError):
        count_series("sl3z", rnorm_gauge(INF), [5.0])
    with pytest.raises(BudgetError):
        deviation_series("sl3z", rnorm_gauge(1), [30.0], CosetObservable(2), budget=10)
    with pytest.raises(BudgetError):
        deviation_series("sl3z", rnorm_gauge(2), [30.0], TorusCharacter((1, 0, 0)), X3,
                         budget=10)
    # the numpy walk (rnorm:1) and the decided "max" box (rnorm:1.5 on sl2z, rnorm:3 on sl3z)
    for group, gauge, point in (("sl2z", rnorm_gauge(1), X0), ("sl2z", rnorm_gauge(1.5), X0),
                                ("sl3z", rnorm_gauge(3), X3)):
        with pytest.raises(BudgetError):
            count_series(group, gauge, [2.0, 30.0], budget=10)
        with pytest.raises(BudgetError):
            deviation_series(group, gauge, [30.0], CosetObservable(2), budget=10)
        with pytest.raises(BudgetError):
            deviation_series(group, gauge, [30.0], TorusCharacter((1,) * len(point)), point,
                             budget=10)


@pytest.mark.usefixtures("kernel_never_runs")
def test_an_overflowing_estimate_is_over_budget():
    # 14 cosh(t) has no float value at t = 1e6, so no budget admits the ball
    with pytest.raises(BudgetError):
        count_series("sl2z", hyperbolic_gauge(), [1e6])
    with pytest.raises(BudgetError):
        deviation_series("sl2z", hyperbolic_gauge(), [1e6], CosetObservable(2))


class NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} used before the gate")


@pytest.mark.parametrize("group,gauge,T,size", [
    ("sl2z", rnorm_gauge(2), 900.0, 810_002),
    ("sl2z", hyperbolic_gauge(), math.acosh(20_000.0), 40_002),
    ("sl2z1p", height_gauge(2), 40.0, 1600 + 2 * 4**4),  # levels 0..4
    ("sl2z1p", height_gauge(3), 45.0, 2025 + 2 * 9**3),  # levels 0..3
], ids=["rnorm:2", "hyperbolic", "height:p=2", "height:p=3"])
def test_shell_counts_are_gated_on_the_table_size(monkeypatch, group, gauge, T, size):
    # a count keeps no element: the budget bounds the r2 table, caps[-1] + 2 det_max
    counts = count_series(group, gauge, [T], with_volume=False, budget=size).counts()
    assert counts == count_series(group, gauge, [T], with_volume=False, budget=10**8).counts()
    monkeypatch.setattr(lattice, "np", NoNumpy())
    with pytest.raises(BudgetError, match="r2 table"):
        count_series(group, gauge, [T], with_volume=False, budget=size - 1)


def test_walks_keep_the_element_gate():
    # 14 T^2 = 11,340,000 elements at T = 900 is over the default budget for a
    # walk, while the count's table of 810,002 entries is under it
    assert count_series("sl2z", rnorm_gauge(2), [900.0], with_volume=False).counts() == \
        [4_857_140]
    with pytest.raises(BudgetError, match="estimated 11340000 elements"):
        deviation_series("sl2z", rnorm_gauge(2), [900.0], CosetObservable(2))
    with pytest.raises(BudgetError, match="estimated 11340000 elements"):
        lattice.ball_columns("sl2z", rnorm_gauge(2), [900.0])
    # given elements are not walked, so no gate holds them
    identity = GroupElement.from_rows(((1, 0), (0, 1)))
    assert column_records("sl2z", rnorm_gauge(2), [900.0], elements=[identity]) == \
        [(0, 1, 1, 0, 0, 1)]


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
    with pytest.raises(SpecError):
        count_series("sl3z", rnorm_gauge(2), [-1.0, 0.0])
    with pytest.raises(SpecError):
        count_series("sl3z", rnorm_gauge(2), [3.0, 2.0])
    with pytest.raises(SpecError):
        count_series("sl3z", height_gauge(2), [3.0])
    with pytest.raises(SpecError):
        deviation_series("sl3z", rnorm_gauge(2), [2.0, 2.0], CosetObservable(2))
    with pytest.raises(SpecError):
        deviation_series("sl3z", rnorm_gauge(INF), [0.0], CosetObservable(3))
    with pytest.raises(SpecError):
        deviation_series("sl3z", hyperbolic_gauge(), [2.0], CosetObservable(2), budget=10)


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
    return tuple(enumerate_ball_reference("sl3z", rnorm_gauge(r), top))


def sl3_oracle(gauge, thr):
    """(bucket_index, element) for the Python walk's ball at thr[-1].

    The r = 1 ball is cut from the r = 2 ball of the same radius (|x|_2 <=
    |x|_1), the one sl3_ball caches for the r = 2 tests.
    """
    ball = sl3_ball(2 if gauge.r == 1 else gauge.r, thr[-1])
    pairs = ((bucket_index(gauge, el, thr), el) for el in ball)
    return [(i, el) for i, el in pairs if i < len(thr)]


def ball_records(group, gauge, thr):
    """element_records of the ball at thr[-1], the sl3z r = 1 ball cut from the
    r = 2 ball as in sl3_oracle."""
    ball = sl3_ball(2, thr[-1]) if (group, gauge.r) == ("sl3z", 1) else None
    return element_records(group, gauge, thr, elements=ball)


@pytest.mark.parametrize("gauge,thr", SL3_CASES, ids=SL3_IDS)
def test_sl3_records_match_enumeration(gauge, thr):
    records = column_records("sl3z", gauge, thr)
    oracle = sl3_oracle(gauge, thr)
    assert Counter(i for i, *_ in records) == Counter(i for i, _ in oracle)
    kernel = {(rec[0], GroupElement.from_rows((rec[2:5], rec[5:8], rec[8:11])))
              for rec in records}
    assert all(rec[1] == 1 for rec in records)
    assert len(kernel) == len(records)
    assert kernel == set(oracle)
    series = count_series("sl3z", gauge, thr, with_volume=False)
    assert series.counts() == [sum(1 for i, _ in oracle if i <= j) for j in range(len(thr))]


@lru_cache(maxsize=None)
def flat_sl3_records(norm, caps):
    return tuple(sl3_ball_records(norm, caps))


def check_orbit_records(gauge, thr):
    """Oracle check: the orbit route's records (ball_columns, flattened from
    _sl3_columns) equal the flat sweep's as multisets, each element once."""
    caps = tuple(gauge_cap(gauge, t) for t in thr)
    records = Counter(column_records("sl3z", gauge, thr))
    oracle = Counter(flat_sl3_records(key_norm(gauge), caps))
    missing, extra = oracle - records, records - oracle
    assert not missing and not extra, f"{len(missing)} records missing, {len(extra)} extra"
    assert max(records.values()) == 1, "a record came twice"


def check_orbit_counts(gauge, thr):
    """Oracle check: the orbit route's counts (count_series, from _sl3_counts)
    equal the cumulative bucket sizes of the flat sweep."""
    caps = tuple(gauge_cap(gauge, t) for t in thr)
    buckets = Counter(rec[0] for rec in flat_sl3_records(key_norm(gauge), caps))
    assert count_series("sl3z", gauge, thr, with_volume=False).counts() == \
        list(accumulate(buckets[i] for i in range(len(thr))))


@pytest.mark.parametrize("gauge,thr", SL3_CASES, ids=SL3_IDS)
def test_sl3_orbit_route_matches_the_flat_sweep(gauge, thr):
    check_orbit_records(gauge, thr)
    check_orbit_counts(gauge, thr)


# T^2 = cap + 1/2 puts every integer cap 1..20 on the grid; sqrt(cap) can round below it
SQ_CAP_GRID = tuple(math.sqrt(cap + 0.5) for cap in range(1, 21))


def test_sl3_orbit_counts_match_the_flat_sweep_at_every_cap():
    assert [gauge_cap(rnorm_gauge(2), t) for t in SQ_CAP_GRID] == list(range(1, 21))
    check_orbit_counts(rnorm_gauge(2), SQ_CAP_GRID)


def test_sl3_count_at_every_integer_cap_to_56():
    # the flat sweep gave the same two counts in 9.4 s (Python 3.11.7)
    thr = [math.sqrt(cap + 0.5) for cap in range(1, 57)]
    start = time.process_time()
    counts = count_series("sl3z", rnorm_gauge(2), thr, with_volume=False, budget=10**8).counts()
    elapsed = time.process_time() - start
    assert counts[-2:] == [2_777_496, 2_900_760] and elapsed < 5.0, \
        f"caps 55, 56: {counts[-2:]} in {elapsed:.2f} s of CPU"


def test_sl3_counts_take_no_numpy(monkeypatch):
    monkeypatch.setattr(lattice, "np", NoNumpy())
    for gauge, thr in SL3_CASES[:2]:
        check_orbit_counts(gauge, thr)


# cap 7 holds first rows of orbit 24, such as (0, 1, 2) in (0, 1, 2; -1, 0, 0; 0, 0, 1)
DEFECT_CASE = (rnorm_gauge(2), (1.5, 2.0, math.sqrt(7.5)))


def _drop_first_image(transversal):
    return transversal[1:]


def _weight_24(transversal):
    return list(lattice._ROTATIONS)


@pytest.mark.parametrize("defect", [_drop_first_image, _weight_24],
                         ids=["first-image-dropped", "weight-24"])
def test_planted_transversal_defects_fail_the_oracle_checks(monkeypatch, defect):
    gauge, thr = DEFECT_CASE
    transversal = lattice._orbit_transversal
    monkeypatch.setattr(lattice, "_orbit_transversal",
                        lambda r1: None if transversal(r1) is None else defect(transversal(r1)))
    for check in (check_orbit_records, check_orbit_counts):
        with pytest.raises(AssertionError):
            check(gauge, thr)


def test_a_rotation_missing_fails_the_oracle_checks(monkeypatch):
    gauge, thr = DEFECT_CASE
    full = list(lattice._ROTATIONS)
    for i in range(len(full)):
        monkeypatch.setattr(lattice, "_ROTATIONS", full[:i] + full[i + 1:])
        for check in (check_orbit_records, check_orbit_counts):
            with pytest.raises(AssertionError):
                check(gauge, thr)
    monkeypatch.undo()
    check_orbit_records(gauge, thr)
    check_orbit_counts(gauge, thr)


def test_rotations_are_the_cube_group():
    mats = set()
    for perm, signs in lattice._ROTATIONS:
        rows = tuple(tuple(signs[j] if perm[j] == i else 0 for j in range(3)) for i in range(3))
        assert int_det(rows) == 1
        mats.add(rows)
    assert len(mats) == 24
    assert lattice._ROTATIONS[0] == ((0, 1, 2), (1, 1, 1))

    def image(rot, r):
        perm, signs = rot
        return tuple(s * r[i] for i, s in zip(perm, signs))

    # orbit sizes: 24 for a generic row, fewer for rows with a stabilizer
    for r, size in (((0, 1, 2), 24), ((0, 0, 1), 6), ((1, 1, 1), 8), ((0, 1, 1), 12)):
        orbit = {image(rot, r) for rot in lattice._ROTATIONS}
        rep = min(orbit)
        transversal = lattice._orbit_transversal(rep)
        assert len(orbit) == len(transversal) == size
        assert {image(rot, rep) for rot in transversal} == orbit
        assert transversal[0] == lattice._ROTATIONS[0]
        assert all(lattice._orbit_transversal(other) is None for other in orbit - {rep})


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
SKEW = BinaryForm(4, (2, 1, 3, 0, 5))     # stabilizer {I, -I} alone
SEXTIC = BinaryForm(6, (1, 0, 0, 1, 0, 0, 2))  # x^6 + x^3 y^3 + 2 y^6
# coefficients near 10^6: sum(w) S^2 passes 2**63 at every box, so its walk
# expands on Python integers
WIDE = BinaryForm(8, (1000003, 0, 0, 0, 999999, 0, 0, 0, 1000001))
WIDE_BASE = math.sqrt(form_norm_sq(WIDE))  # 1.42e6
FORMS = [QUARTIC, MIXED, SKEW, SEXTIC]
FORM_IDS = ["x4+y4", "x4+x2y2+y4", "2,1,3,0,5", "sextic"]
FORM_RECORD_CASES = [
    (QUARTIC, (math.sqrt(2.0),)),
    (QUARTIC, (math.sqrt(2.0), math.sqrt(19.0), 10.0, 60.0, 250.0, 1000.0)),
    (MIXED, (1.0, math.sqrt(13 / 6), 5.0, 40.0, 300.0, 1000.0)),
    (SKEW, (math.sqrt(form_norm_sq(SKEW)), 10.0, 60.0, 250.0, 1000.0, 3000.0)),
    (SEXTIC, (math.sqrt(form_norm_sq(SEXTIC)), 10.0, 100.0, 1000.0, 5000.0)),
    (WIDE, (WIDE_BASE, 2e6, 5e6, 3e7)),
]
FORM_RECORD_IDS = ["x4+y4-base", "x4+y4-grid", "x4+x2y2+y4-grid", "2,1,3,0,5-grid", "sextic-grid",
                   "wide-grid"]
# the forms CLI default: x^4 + y^4, 9 thresholds on its T-scale grid to 1e5
FORMS_DEFAULT_GRID = [1000.0 * 100.0 ** (i / 8) for i in range(9)]


def assert_records_match_enumeration(gauge, thr):
    kernel = Counter(column_records("sl2z", gauge, thr))
    oracle = Counter(element_records("sl2z", gauge, thr))
    assert kernel == oracle
    assert set(kernel.values()) == {1}


@pytest.mark.parametrize("f0,thr", FORM_RECORD_CASES, ids=FORM_RECORD_IDS)
def test_form_records_match_enumeration(f0, thr):
    assert_records_match_enumeration(rep_form_gauge(f0), thr)


# integer thresholds: every one is a tie of the "abs" or "max" key
ENTRYWISE_TIES = [
    (rnorm_gauge(1), (1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 13.0)),
    (rnorm_gauge(INF), (1.0, 2.0, 3.0, 4.0, 7.0, 9.0)),
]


@pytest.mark.parametrize("gauge,thr", ENTRYWISE_TIES, ids=["rnorm:1", "rnorm:inf"])
def test_entrywise_records_match_enumeration_at_integer_ties(gauge, thr):
    assert_records_match_enumeration(gauge, thr)


def form_walk_records(gauge, caps, box):
    """(bucket, a, b, c, d, coeffs) of every row of lattice._form_columns, and
    the dtypes of its coefficient columns."""
    records, dtypes = [], set()
    for i, a, b, c, d, coeffs in lattice._form_columns(gauge, caps, box):
        dtypes.update(v.dtype.name for v in coeffs)
        records += zip(i.tolist(), a.tolist(), b.tolist(), c.tolist(), d.tolist(),
                       zip(*(v.tolist() for v in coeffs)))
    return records, dtypes


# (form, thresholds, dtype at the proven box): boxes 1 to 3 cut these balls,
# so elements lie at both ends of every window
FORM_WALK_CASES = [
    (QUARTIC, FORMS_DEFAULT_GRID, "int64"),
    (SKEW, (math.sqrt(form_norm_sq(SKEW)), 60.0, 1000.0, 1e5), "int64"),
    (SEXTIC, (10.0, 1000.0, 1e6), "object"),
    (WIDE, (WIDE_BASE, 5e6, 3e7), "object"),
]


@pytest.mark.parametrize("f0,thr,dtype", FORM_WALK_CASES,
                         ids=["x4+y4-default", "2,1,3,0,5", "sextic-1e6", "wide"])
def test_form_columns_match_the_python_walk(f0, thr, dtype):
    gauge = rep_form_gauge(f0)
    caps = [gauge_cap(gauge, t) for t in thr]
    box = entry_bound(gauge, thr[-1])
    for b in (1, 2, 3, box):
        records, dtypes = form_walk_records(gauge, caps, b)
        assert sorted(records) == sorted(_progression_ball(gauge, caps, b))
        assert len(set(records)) == len(records)
    assert dtypes == {dtype}


def test_form_columns_keep_int64_to_their_bound():
    # x^4 + y^4: sum(w) S^2 = 32 * 4 * (2 box)^8 is below 2**63 up to box 63;
    # a cap of 2**62 keeps every element of the box
    gauge = rep_form_gauge(QUARTIC)
    for box, dtype in ((63, "int64"), (64, "object")):
        records, dtypes = form_walk_records(gauge, [2**40, 2**62], box)
        assert dtypes == {dtype}
        assert sorted(records) == sorted(_progression_ball(gauge, [2**40, 2**62], box))


def test_orbit_series_substitutes_each_half_walk_candidate_once(monkeypatch):
    # the forms default: x^4 + y^4, 9 thresholds to 1e5; the route that walked
    # the whole ball and substituted each kept element again made 9,040 calls
    calls = Counter()

    def counted(*args):
        calls["substitute"] += 1
        return substitute_coeffs(*args)

    monkeypatch.setattr(gauges, "substitute_coeffs", counted)  # every caller's
    grid = [1000.0 * 100.0 ** (i / 8) for i in range(9)]  # the CLI's T-scale grid
    series = orbit_forms_series(QUARTIC, grid)
    assert (series[-1].gamma_count, series[-1].stabilizer_order) == (2212, 4)
    assert calls["substitute"] <= 3412


def test_orbit_series_substitutes_nothing_at_the_forms_default(monkeypatch):
    # the numpy walk expands f . g on columns: no scalar substitution is left
    calls = Counter()

    def counted(*args):
        calls["substitute"] += 1
        return substitute_coeffs(*args)

    monkeypatch.setattr(gauges, "substitute_coeffs", counted)
    series = orbit_forms_series(QUARTIC, FORMS_DEFAULT_GRID)
    assert (series[-1].orbit_count, series[-1].gamma_count) == (553, 2212)
    assert calls["substitute"] == 0


def test_half_walk_refuses_an_odd_form():
    # rep_form_gauge admits no odd degree; a gauge built around it must not
    # reach the walk, where f . (-g) = -(f . g) would double the wrong form
    cubic = Gauge(kind="rep_form", form=BinaryForm(3, (1, 0, 0, 1)))
    with pytest.raises(AssertionError, match="even degree"):
        next(lattice._form_columns(cubic, [100], 3))


def _without_zero_rows(half):
    def walk(*args):
        for i, a, b, c, d, coeffs in half(*args):
            keep = a != 0
            yield i[keep], a[keep], b[keep], c[keep], d[keep], [v[keep] for v in coeffs]
    return walk


def _form_walk_mutated(old, new):
    return lambda: ("_form_columns", mutated(lattice._form_columns, old, new))


# planted defects of the half walk and of the two passes that read it
HALF_WALK_DEFECTS = {
    "zero-rows-dropped": lambda: ("_form_columns", _without_zero_rows(lattice._form_columns)),
    "minus-g-not-emitted": lambda: ("ball_columns", mutated(
        lattice.ball_columns, ", (-a, -b, -c, -d))", ",)")),
    "gamma-not-doubled": lambda: ("orbit_forms_series", mutated(
        lattice.orbit_forms_series, "gammas += 2 * np.bincount", "gammas += np.bincount")),
    "stabilizer-not-doubled": lambda: ("orbit_forms_series", mutated(
        lattice.orbit_forms_series, "stab = 2 * sum(", "stab = sum(")),
    "binomial-off": _form_walk_mutated("math.comb(i, l)", "(math.comb(i, l) + (l == 1))"),
    "window-one-short": _form_walk_mutated("np.array((a, b)), box)", "np.array((a, b)), box - 1)"),
    "a0-row-dropped": _form_walk_mutated("((a > 0) | (b > 0))", "(a > 0)"),
    "int64-object-swapped": _form_walk_mutated(") >= 2**63", ") < 2**63"),
}


# (defect, {oracle test: the exception it must end in}); an AssertionError
# must come from an assert of this module, not from the walk
@pytest.mark.parametrize("defect,failing", [
    ("zero-rows-dropped", {"records": AssertionError, "orbits": SpecError}),
    ("minus-g-not-emitted", {"records": AssertionError}),
    ("gamma-not-doubled", {"orbits": SpecError}),
    ("stabilizer-not-doubled", {"orbits": SpecError}),
    ("binomial-off", {"records": AssertionError, "walk": AssertionError}),
    ("window-one-short", {"walk": AssertionError}),
    ("a0-row-dropped", {"records": AssertionError, "walk": AssertionError}),
    ("int64-object-swapped", {"records": AssertionError, "walk": AssertionError}),
])
def test_half_walk_defects_fail_the_oracle_tests(monkeypatch, defect, failing):
    oracle_tests = {
        "records": lambda: [test_form_records_match_enumeration(*case)
                            for case in FORM_RECORD_CASES],
        "orbits": lambda: [test_orbit_series_matches_brute_counts(f0) for f0 in FORMS],
        "walk": lambda: [test_form_columns_match_the_python_walk(*case)
                         for case in FORM_WALK_CASES],
    }
    name, planted = HALF_WALK_DEFECTS[defect]()
    monkeypatch.setattr(lattice, name, planted)
    if name in globals():  # the oracle tests call it by the name imported here
        monkeypatch.setitem(globals(), name, planted)
    for oracle, error in failing.items():
        with pytest.raises(error) as failure:
            oracle_tests[oracle]()
        if error is AssertionError:
            assert failure.traceback[-1].frame.f_globals["__name__"] == __name__


@pytest.mark.parametrize("f0", FORMS, ids=FORM_IDS)
def test_form_key_is_exact_at_orbit_norm_ties(f0):
    gauge = rep_form_gauge(f0)
    ball = list(enumerate_ball("sl2z", gauge, 250.0))
    norms = [form_norm_sq(forms_substitute(f0, el)) for el in ball]
    # lcm_i binom(n, i): 12 for the quartics, 60 for the sextic
    lcm = math.lcm(*(math.comb(f0.degree, i) for i in range(f0.degree + 1)))
    for el, norm in zip(ball, norms):
        assert gauge_key(gauge, el) == lcm * norm
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
    records = column_records("sl2z", gauge, (-ties[-1], ties[-1]))
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
    buckets = Counter(i for i, *_ in column_records(group, gauge, thr))
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
    monkeypatch.setattr(lattice, "_form_columns", boom)
    monkeypatch.setattr(lattice, "_sl2_columns", boom)
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
# which walk each ball takes
# ---------------------------------------------------------------------------

WALKS = ("_sl2_columns", "_sl3_orbits", "_form_columns")
# (group, gauge) -> the one walk ball_columns may take for it
ROUTES = {
    ("sl2z", "rnorm:1"): "_sl2_columns",
    ("sl2z", "rnorm:2"): "_sl2_columns",
    ("sl2z", "rnorm:inf"): "_sl2_columns",
    ("sl2z", "hyperbolic"): "_sl2_columns",
    ("sl2z", "form:deg=4:coeffs=1,0,0,0,1"): "_form_columns",
    ("sl3z", "rnorm:1"): "_sl3_orbits",
    ("sl3z", "rnorm:2"): "_sl3_orbits",
    ("sl3z", "rnorm:inf"): "_sl3_orbits",
    ("sl2z1p", "height:p=2"): "_sl2_columns",
    ("sl3z", "rnorm:3"): "_sl3_orbits",  # the "max" box of the entry bound, decided
    ("sl2z", "rnorm:1.5"): "_sl2_columns",
}


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
    ("sl3z", rnorm_gauge(3), (1.5,)),
    ("sl2z", rnorm_gauge(1.5), (2.0, 4.0)),
])
def test_kernel_routes(monkeypatch, group, gauge, thr):
    walk = ROUTES[group, gauge.describe()]
    oracle = Counter(ball_records(group, gauge, thr))  # enumerates, so before the patches

    def boom(*args, **kwargs):
        raise AssertionError(f"{group} {gauge.describe()} left {walk}")

    for name in WALKS:
        if name != walk:
            monkeypatch.setattr(lattice, name, boom)
    assert Counter(column_records(group, gauge, thr)) == oracle


# ---------------------------------------------------------------------------
# entrywise SL(2) balls in numpy columns: the Python walks of _brute are the oracles
# ---------------------------------------------------------------------------

SEED2_X0 = (0.9478274870593494, 0.05655136772680869)  # the benchmark's seed-2 torus point
T_SEED2 = 151.43405140783386
# the CLI's 14-threshold grid at T = 150
CLI_GRID = tuple(2.0 * 75.0 ** (i / 13) for i in range(14))
# the tie grids of CASES, the benchmark's T = 150 and seed-2 balls in one grid,
# the p B skip at p = 2, 3, 5, and the r = 1, inf balls of the CLI grid
COLUMN_CASES = CASES + [
    ("sl2z", rnorm_gauge(2), (2.0, math.sqrt(50.0), 100.0, 149.9, 150.0, 151.0, T_SEED2)),
    ("sl2z", hyperbolic_gauge(), (1.0, 3.0, math.acosh(500.0), 9.0)),
    ("sl2z1p", height_gauge(2), (2.0, math.sqrt(32.0), math.sqrt(512.0), 40.0)),
    ("sl2z1p", height_gauge(3), (2.0, math.sqrt(18.0), 9.0, math.sqrt(162.0), 45.0)),
    ("sl2z1p", height_gauge(5), (2.0, math.sqrt(50.0), 20.0, math.sqrt(1250.0), 45.0)),
    ("sl2z", rnorm_gauge(1), CLI_GRID),
    ("sl2z", rnorm_gauge(INF), CLI_GRID),
]
COLUMN_IDS = [f"{g}-{gauge.describe()}-T{thr[-1]:.6g}" for g, gauge, thr in COLUMN_CASES]


def oracle_records(gauge, thr):
    caps = [gauge_cap(gauge, t) for t in thr]
    walk = sq_ball_records if key_norm(gauge) == "sq" else entrywise_ball_records
    return walk(gauge, caps)


@pytest.mark.parametrize("group,gauge,thr", COLUMN_CASES, ids=COLUMN_IDS)
def test_column_records_match_the_python_walk(group, gauge, thr):
    columns = Counter(column_records(group, gauge, thr))
    oracle = Counter(oracle_records(gauge, thr))
    assert dict(columns) == dict(oracle)  # Counter's own == loops in Python
    assert set(columns.values()) == {1}


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("group,gauge,thr", CASES, ids=IDS)
def test_column_records_do_not_depend_on_the_chunk_size(monkeypatch, rows, group, gauge, thr):
    monkeypatch.setattr(lattice, "_SL2_CHUNK_ROWS", rows)
    chunks = list(lattice.ball_columns(group, gauge, thr))
    assert all(len(cols[0]) and len(set(cols[1].tolist())) == 1 for cols in chunks)
    assert Counter(column_records(group, gauge, thr)) == Counter(oracle_records(gauge, thr))


# planted defects of the numpy walk that its own asserts do not see (every
# element it still emits lies in the ball, with the right det)
SL2_WALK_DEFECTS = {
    "first-k-dropped": ("n = np.maximum(khi - klo + 1, 0)",
                        "klo = klo + 1; n = np.maximum(khi - klo + 1, 0)"),
    "non-canonical-pB-kept": ("if level:", "if False:"),
    "abs-window-one-short": ("top - a - b)", "top - a - b - 1)"),
}


@pytest.mark.parametrize("defect,group,key", [
    ("first-k-dropped", "sl2z", "sq"),
    ("first-k-dropped", "sl2z", "max"),
    ("non-canonical-pB-kept", "sl2z1p", "sq"),
    ("abs-window-one-short", "sl2z", "abs"),
])
def test_sl2_walk_defects_fail_the_oracle_tests(monkeypatch, defect, group, key):
    monkeypatch.setattr(lattice, "_sl2_columns",
                        mutated(lattice._sl2_columns, *SL2_WALK_DEFECTS[defect]))
    checks = [(test_column_records_match_the_python_walk, case) for case in CASES
              if case[0] == group and key_norm(case[1]) == key]
    checks += [(test_entrywise_records_match_enumeration_at_integer_ties, case)
               for case in ENTRYWISE_TIES if key_norm(case[0]) == key]
    assert checks
    for check, case in checks:
        with pytest.raises(AssertionError) as failure:
            check(*case)
        assert failure.traceback[-1].frame.f_globals["__name__"] == __name__  # not the walk's


@pytest.mark.parametrize("m,point", [
    ((1, 0), X0),
    ((1, 0), SEED2_X0),
    ((2, -1), SEED2_X0),
    ((3, 5), (0.1, 0.7)),
    ((0, 0), (0.5, 0.25)),
    ((1, 1), (-2.75, 1e-3)),
], ids=["m10-x0", "m10-seed2", "m2-1-seed2", "m35", "trivial", "negative-point"])
def test_column_phases_equal_record_phases(m, point):
    phase = record_phase(m, point, 2)
    for cols in lattice.ball_columns("sl2z", rnorm_gauge(2), (20.0, 60.0)):
        records = zip(*(col.tolist() for col in cols))
        assert _column_turns(m, point, cols[2:]).tolist() == [phase(rec) for rec in records]


@pytest.mark.parametrize("group,gauge,thr", [
    ("sl2z", rnorm_gauge(2), (5.0, math.sqrt(50.0), 25.0, 40.0)),
    ("sl2z", hyperbolic_gauge(), (1.0, 3.0, 5.0, 7.0)),
    ("sl2z1p", height_gauge(3), (2.0, 3.0, 4.0, 4.2)),
], ids=["rnorm:2", "hyperbolic", "height:p=3-level-0"])
@pytest.mark.parametrize("point", [X0, SEED2_X0], ids=["x0", "seed2"])
def test_torus_rows_of_columns_match_the_elements(group, gauge, thr, point):
    ball = list(enumerate_ball(group, gauge, thr[-1]))
    for m in ((1, 0), (2, -1)):
        via_columns = deviation_series(group, gauge, thr, TorusCharacter(m), point)
        via_elements = deviation_series(group, gauge, thr, TorusCharacter(m), point,
                                        elements=ball)
        assert via_columns.rows == via_elements.rows  # floats compared with ==


def test_exact_points_take_the_record_route(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("an exact point took the float columns")
    monkeypatch.setattr(torus, "_column_turns", boom)
    thr = (5.0, 12.0, 25.0)
    ball = list(enumerate_ball("sl2z", rnorm_gauge(2), thr[-1]))
    for point in ((Fraction(1, 3), Fraction(2, 7)), (1, 0)):
        via_records = deviation_series("sl2z", rnorm_gauge(2), thr, TorusCharacter((1, 0)), point)
        via_elements = deviation_series("sl2z", rnorm_gauge(2), thr, TorusCharacter((1, 0)),
                                        point, elements=ball)
        assert via_records.rows == via_elements.rows


def test_a_level_above_zero_stops_the_torus_columns():
    with pytest.raises(SpecError, match="integral"):
        deviation_series("sl2z1p", height_gauge(2), (2.0, 3.0), TorusCharacter((1, 0)), X0)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("group,gauge,thr", [
    ("sl2z", rnorm_gauge(2), (5.0, math.sqrt(50.0), 20.0, 30.0)),
    ("sl2z", hyperbolic_gauge(), (1.0, 3.0, 6.0)),
    ("sl2z1p", height_gauge(2), (2.0, math.sqrt(32.0), 16.0, 20.0)),
    ("sl2z1p", height_gauge(5), (2.0, math.sqrt(50.0), 20.0, 30.0)),
], ids=["rnorm:2", "hyperbolic", "height:p=2", "height:p=5"])
def test_column_residues_match_the_records(monkeypatch, q, group, gauge, thr):
    monkeypatch.setattr(lattice, "_SL2_CHUNK_ROWS", 3)  # many chunks to merge
    records = oracle_records(gauge, thr)
    chunks = lattice.ball_columns(group, gauge, thr)
    assert _column_residues(chunks, q, len(thr), 2) == Counter(residue_keys(records, q))


def test_a_cap_above_the_int64_bound_fails_before_the_walk(monkeypatch):
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"np.{name} used before the cap check")

    monkeypatch.setattr(lattice, "np", NoNumpy())
    with pytest.raises(BudgetError, match="int64"):
        next(lattice._sl2_columns(rnorm_gauge(2), [lattice._SL2_CAP_MAX + 1]))
    # 14 T^2 = 2.24e10 elements at T = 40000 passes a budget of 10**12: the
    # Python walk enumerate_ball once ran would have started on the ball
    assert lattice.estimate_count("sl2z", rnorm_gauge(2), 40000.0) <= 10**12
    with pytest.raises(BudgetError, match="int64 bound"):
        next(enumerate_ball("sl2z", rnorm_gauge(2), 40000.0, budget=10**12))
    monkeypatch.undo()
    # T^2 = 32769^2 > 2**30 passes a budget of 10**12 (14 T^2 = 1.5e10 elements)
    with pytest.raises(BudgetError, match="int64"):
        deviation_series("sl2z", rnorm_gauge(2), [32769.0], CosetObservable(2), budget=10**12)
    with pytest.raises(BudgetError, match="int64"):
        next(lattice.ball_columns("sl2z", rnorm_gauge(2), [32769.0], budget=10**12))
    assert gauge_cap(rnorm_gauge(2), 32768.0) == lattice._SL2_CAP_MAX


def test_torus_pass_memory_stays_below_the_record_walk():
    # 8,765,590 bytes: the tracemalloc peak of this same pass when its phases
    # came from per-element Python records (Python 3.11.7, numpy 2.4.6)
    record_walk_peak = 8_765_590
    thr = tuple(2.0 * 75.0 ** (i / 13) for i in range(14))  # the torus CLI grid
    chi = TorusCharacter((1, 0))
    deviation_series("sl2z", rnorm_gauge(2), thr[:3], chi, X0)  # warm the caches
    tracemalloc.start()
    try:
        deviation_series("sl2z", rnorm_gauge(2), thr, chi, X0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= record_walk_peak


# ---------------------------------------------------------------------------
# every ball in column chunks: the per-record oracles of _brute
# ---------------------------------------------------------------------------

# the numpy walks (rnorm:1, rnorm:inf, sl3z), forms, and enumeration (rnorm:3, rnorm:1.5)
PACKED_CASES = [
    ("sl2z", rnorm_gauge(1), (2.0, 3.5, 5.0, 12.0, 20.0)),
    ("sl2z", rnorm_gauge(INF), (1.0, 2.0, 5.5, 11.0)),
    ("sl2z", rnorm_gauge(3), (1.5, 2.0, 5.0, 8.0)),
    ("sl2z", rnorm_gauge(1.5), (2.0, 3.0, 6.0)),
    ("sl2z", rep_form_gauge(QUARTIC), (math.sqrt(2.0), 10.0, 60.0)),
    ("sl3z", rnorm_gauge(2), (2.0, 3.0, 3.5)),
    ("sl3z", rnorm_gauge(1), (2.0, 3.0, 4.0)),
    ("sl3z", rnorm_gauge(INF), (0.5, 1.0, 1.5)),
]
PACKED_IDS = [f"{g}-{gauge.describe()}" for g, gauge, _ in PACKED_CASES]


@pytest.mark.parametrize("group,gauge,thr", PACKED_CASES, ids=PACKED_IDS)
def test_ball_columns_cover_every_ball(monkeypatch, group, gauge, thr):
    monkeypatch.setattr(lattice, "_CHUNK_RECORDS", 100)  # many chunks
    chunks = list(lattice.ball_columns(group, gauge, thr))
    assert all(col.dtype.name == "int64" for cols in chunks for col in cols)
    if key_norm(gauge) in ("abs", "max", "sq", "form"):  # chunks of the numpy walks' own sizes
        assert all(len(cols[0]) and set(cols[1].tolist()) == {1} for cols in chunks)
    else:
        assert all(len(cols[0]) == 100 for cols in chunks[:-1]) and len(chunks[-1][0])
    assert Counter(column_records(group, gauge, thr)) == Counter(ball_records(group, gauge, thr))


@pytest.mark.parametrize("gauge,thr", [case[1:] for case in PACKED_CASES[-3:]],
                         ids=PACKED_IDS[-3:])
def test_sl3_columns_equal_the_record_oracles(gauge, thr):
    chunks = list(lattice.ball_columns("sl3z", gauge, thr))
    records = [rec for cols in chunks for rec in zip(*(col.tolist() for col in cols))]
    for m in ((1, 0, -1), (2, 3, 5)):
        phase = record_phase(m, X3, 3)
        turns = [z for cols in chunks for z in _column_turns(m, X3, cols[2:]).tolist()]
        assert turns == [phase(rec) for rec in records]  # floats compared with ==
    for q in (2, 3, 5):
        assert _column_residues(chunks, q, len(thr), 3) == Counter(residue_keys(records, q))


SL3_GRID = (1.5, 2.0, math.sqrt(5.0), 2.5, math.sqrt(8.0), 3.0, math.sqrt(10.0))
SL2_GRID = (2.0, 5.0, math.sqrt(50.0), 12.0, 20.0, 30.0)


@pytest.mark.parametrize("group,thr,q", [
    ("sl3z", SL3_GRID, 97),       # 7 * 97^9 >= 2**62
    ("sl3z", SL3_GRID[:-1], 97),  # 6 * 97^9 < 2**62, just
    ("sl2z", SL2_GRID, 30_011),   # 6 * 30011^4 >= 2**62
    ("sl2z", SL2_GRID[1:], 30_011),
], ids=["sl3z-q97-k7", "sl3z-q97-k6", "sl2z-q30011-k6", "sl2z-q30011-k5"])
def test_coset_codes_past_int64_count_tuples(monkeypatch, group, thr, q):
    n = 3 if group == "sl3z" else 2
    if len(thr) * q ** (n * n) >= 2**62:
        def boom(*args, **kwargs):
            raise AssertionError("codes past 2**62 were packed")
        monkeypatch.setattr(torus, "_tally", boom)
    ball = sl3_ball(2, SL3_GRID[-1]) if group == "sl3z" else None
    records = element_records(group, rnorm_gauge(2), thr, elements=ball)
    chunks = lattice.ball_columns(group, rnorm_gauge(2), thr)
    assert _column_residues(chunks, q, len(thr), n) == Counter(residue_keys(records, q))


def test_wide_coset_rows_match_the_histograms():
    q, gauge = 30_011, rnorm_gauge(2)
    ball = list(enumerate_ball("sl2z", gauge, SL2_GRID[-1]))
    order = sl_residue_order(2, q)
    expected = []
    for t in SL2_GRID:
        inside = [el for el in ball if gauge_leq(gauge, el, t)]
        expected.append((t, coset_histogram(inside, q).sup_deviation(order), len(inside)))
    assert deviation_series("sl2z", gauge, SL2_GRID, CosetObservable(q)).rows == tuple(expected)


def test_given_elements_chunk_by_denominator(monkeypatch):
    monkeypatch.setattr(lattice, "_CHUNK_RECORDS", 3)
    gauge, thr = height_gauge(2), (3.0, 6.0, 10.0)
    ball = list(enumerate_ball("sl2z1p", gauge, 12.0))  # levels 0..2, some above thr[-1]
    random.Random(0).shuffle(ball)
    chunks = list(lattice.ball_columns("sl2z1p", gauge, thr, elements=ball))
    dens = [set(cols[1].tolist()) for cols in chunks]
    assert all(len(d) == 1 for d in dens)
    assert set.union(*dens) == {1, 2, 4}
    for den in (1, 2, 4):
        sizes = [len(cols[0]) for cols, d in zip(chunks, dens) if d == {den}]
        assert all(size == 3 for size in sizes[:-1]) and 1 <= sizes[-1] <= 3
    assert Counter(rec for cols in chunks for rec in zip(*(col.tolist() for col in cols))) == \
        Counter(element_records("sl2z1p", gauge, thr, elements=ball))


@pytest.mark.parametrize("group,gauge,thr", [
    ("sl2z", rnorm_gauge(2), (5.0, 12.0)),
    ("sl2z", rnorm_gauge(1), (5.0, 12.0)),
    ("sl3z", rnorm_gauge(2), (1.5, 2.0)),
], ids=["sq-walk", "sl2z-records", "sl3z-records"])
def test_float_points_take_the_columns_and_exact_points_the_records(monkeypatch, group, gauge,
                                                                     thr):
    n = 3 if group == "sl3z" else 2
    chi = TorusCharacter((1, 2, 0)[:n])
    ball = list(enumerate_ball(group, gauge, thr[-1]))

    def boom(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} ran")
        return call

    for point, patched in (((X3 if n == 3 else X0), "_phase"),
                           (tuple(Fraction(1, k + 3) for k in range(n)), "_column_turns")):
        with monkeypatch.context() as patch:
            patch.setattr(torus, patched, boom(patched))
            via_ball = deviation_series(group, gauge, thr, chi, point)
            via_elements = deviation_series(group, gauge, thr, chi, point, elements=ball)
        assert via_ball.rows == via_elements.rows


def test_large_sl3_entries_keep_exact_cofactors():
    # the cofactor N^2 - N of N = 2**32 wraps to -N in int64, which would give a
    # phase off 1; such given elements take the record route, on Python integers
    big = 2**32
    el = GroupElement.from_rows(((1, big, big), (0, 1, big), (0, 0, 1)))
    thr = (2.0**34,)
    chi = TorusCharacter((1, 2, -1))
    (rec,) = element_records("sl3z", rnorm_gauge(2), thr, elements=[el])
    z = record_phase(chi.m, X3, 3)(rec)
    rows = deviation_series("sl3z", rnorm_gauge(2), thr, chi, X3, elements=[el]).rows
    assert rows == ((thr[0], abs(z), 1),)
