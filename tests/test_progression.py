"""The progression kernel against the enumeration oracle, bit for bit.

progression_buckets counts SL(2)-type balls along Bezout progressions without
building elements; enumerate_ball + bucket_index is the independent route it
must reproduce exactly: per-bucket counts, residue histograms and torus rows.
"""

import math
from collections import Counter

import pytest

from latcount.errors import BudgetError, SpecError
from latcount.gauges import (
    gauge_cap,
    gauge_key,
    gauge_leq,
    height_gauge,
    hyperbolic_gauge,
    parse_gauge,
    rnorm_gauge,
)
from latcount.groups import GroupElement, reduce_mod
from latcount.lattice import (
    bucket_index,
    coset_histogram,
    count_series,
    enumerate_ball,
    progression_buckets,
    sl_residue_order,
    threshold_bucketer,
)
from latcount.torus import TorusCharacter, deviation_series
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
    via_kernel = deviation_series("sl2z", gauge, thr, "coset", q)
    via_elements = deviation_series("sl2z", gauge, thr, "coset", q, elements=ball)
    assert via_kernel.rows == via_elements.rows


@pytest.mark.parametrize("m", [(1, 0), (2, -1), (0, 0)])
@pytest.mark.parametrize("gauge,thr", [
    (rnorm_gauge(2), (5.0, math.sqrt(50.0), 12.0, 25.0)),
    (rnorm_gauge(1), (5.0, 5.05, 12.0, 20.0)),
    (hyperbolic_gauge(), (1.0, 2.0, 3.0, 4.0)),
], ids=["rnorm:2", "rnorm:1", "hyperbolic"])
def test_torus_rows_are_bit_identical(m, gauge, thr):
    ball = list(enumerate_ball("sl2z", gauge, thr[-1]))
    via_kernel = deviation_series("sl2z", gauge, thr, "torus", TorusCharacter(m), X0)
    via_elements = deviation_series("sl2z", gauge, thr, "torus", TorusCharacter(m), X0,
                                    elements=ball)
    assert via_kernel.rows == via_elements.rows  # floats compared with ==


SARITH_COSETS = [(gauge, thr, q) for group, gauge, thr in CASES if group == "sl2z1p"
                 for q in (2, 3, 5) if q % gauge.prime]


@pytest.mark.parametrize("gauge,thr,q", SARITH_COSETS,
                         ids=[f"{g.describe()}-q{q}" for g, _, q in SARITH_COSETS])
def test_sarith_coset_rows_match_enumeration(gauge, thr, q):
    ball = list(enumerate_ball("sl2z1p", gauge, thr[-1]))
    via_kernel = deviation_series("sl2z1p", gauge, thr, "coset", q)
    via_elements = deviation_series("sl2z1p", gauge, thr, "coset", q, elements=ball)
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
    via_kernel = deviation_series("sl2z1p", height_gauge(p), thr, "torus",
                                  TorusCharacter(m), X0)
    via_elements = deviation_series("sl2z1p", height_gauge(p), thr, "torus",
                                    TorusCharacter(m), X0, elements=ball)
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


def test_unsorted_caps_fall_back_to_enumeration():
    # a negative T-scale threshold squares to a larger cap; keep the old route
    thr = (-3.0, 2.0, 4.0)
    assert progression_buckets("sl2z", rnorm_gauge(2), thr) is None
    ball = list(enumerate_ball("sl2z", rnorm_gauge(2), 4.0))
    expected = Counter(bucket_index(rnorm_gauge(2), el, thr) for el in ball)
    got = count_series("sl2z", rnorm_gauge(2), thr, with_volume=False).counts()
    assert got == [sum(expected[j] for j in range(i + 1)) for i in range(3)]


@pytest.fixture
def kernel_never_runs(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("the kernel ran before the checks")
    monkeypatch.setattr(lattice, "_progression_ball", boom)


@pytest.mark.usefixtures("kernel_never_runs")
def test_budget_gate_fires_before_the_kernel():
    with pytest.raises(BudgetError):
        count_series("sl2z", rnorm_gauge(2), [30.0], budget=10)
    with pytest.raises(BudgetError):
        count_series("sl2z1p", height_gauge(2), [30.0], budget=10)
    with pytest.raises(BudgetError):
        deviation_series("sl2z", rnorm_gauge(2), [30.0], "coset", 2, budget=10)
    with pytest.raises(BudgetError):
        deviation_series("sl2z", hyperbolic_gauge(), [3.0], "torus",
                         TorusCharacter((1, 0)), X0, budget=10)


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
        deviation_series("sl2z", rnorm_gauge(2), [30.0], "torus",
                         TorusCharacter((1, 0, 0)), X0, budget=10)
    with pytest.raises(SpecError):
        deviation_series("sl2z", rnorm_gauge(2), [30.0], "coset", 1, budget=10)
