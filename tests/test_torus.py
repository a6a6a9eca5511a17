"""Orbit averages on the torus and congruence cosets."""

import math
from fractions import Fraction

import pytest

from _brute import record_phase
from latcount.errors import BudgetError, SpecError
from latcount.gauges import height_gauge, hyperbolic_gauge, rnorm_gauge
from latcount.groups import adjugate, reduce_mod
from latcount.lattice import coset_histogram, count_series, enumerate_ball, progression_buckets
from latcount.torus import (
    CosetObservable,
    DeviationSeries,
    TorusCharacter,
    _act,
    _phase,
    decay_fit,
    deviation_series,
)

X0 = (math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0)
G2 = rnorm_gauge(2)


def ball_deviation(elements, threshold, observable, point=None):
    """deviation_series over given elements at one threshold: |mean - target|."""
    (row,) = deviation_series("sl2z", G2, [threshold], observable, point,
                              elements=elements).rows
    return row[1]


@pytest.fixture(scope="module")
def ball20():
    return list(enumerate_ball("sl2z", rnorm_gauge(2), 20.0))


def test_character_labels_and_target():
    ch = TorusCharacter((1, 0))
    assert ch.label == "character:1,0"
    assert ch.target() == 0
    assert TorusCharacter((0, 0)).target() == 1
    with pytest.raises(SpecError):
        TorusCharacter(())


def test_coset_observable_label():
    assert CosetObservable(3).label == "coset-sup:q=3"
    with pytest.raises(SpecError):
        CosetObservable(1)


def test_average_over_smallest_ball_is_cosine_mean():
    # the radius-1.5 ball is exactly {+-I, +-J}; the orbit of (a, b) under the
    # inverses is (+-a, +-b) and (-+b, +-a), giving a clean closed form
    elements = list(enumerate_ball("sl2z", rnorm_gauge(2), 1.5))
    assert len(elements) == 4
    a, b = 0.37, 0.21
    dev = ball_deviation(elements, 1.5, TorusCharacter((1, 0)), (a, b))
    expected = 0.5 * (math.cos(2 * math.pi * a) + math.cos(2 * math.pi * b))
    assert dev == pytest.approx(abs(expected), abs=1e-12)


def test_constant_character_averages_to_one(ball20):
    dev = ball_deviation(ball20, 20.0, TorusCharacter((0, 0)), X0)
    assert dev == pytest.approx(0.0, abs=1e-12)


def test_character_average_is_contraction(ball20):
    for m in ((1, 0), (2, -1), (0, 3)):
        dev = ball_deviation(ball20, 20.0, TorusCharacter(m), X0)
        assert dev <= 1.0 + 1e-12


def test_rational_point_exact_vs_float(ball20):
    pt_exact = (Fraction(1, 3), Fraction(1, 7))
    pt_float = (1.0 / 3.0, 1.0 / 7.0)
    a = ball_deviation(ball20, 20.0, TorusCharacter((1, 2)), pt_exact)
    b = ball_deviation(ball20, 20.0, TorusCharacter((1, 2)), pt_float)
    assert abs(a - b) <= 1e-12


@pytest.mark.parametrize("point", [X0, (Fraction(1, 3), Fraction(2, 7)), (0, 1),
                                   (Fraction(1, 3), 0.25)])
def test_unrolled_2x2_phase_is_the_generic_phase(point):
    # the 2x2 phase of every record must give the floats of _phase(_act(adjugate))
    m = (2, -1)
    phase = record_phase(m, point, 2)
    for rec in progression_buckets("sl2z", rnorm_gauge(2), [12.0]):
        rows = (rec[2:4], rec[4:6])
        assert phase(rec) == _phase(m, _act(adjugate(rows), point))


def test_fixed_point_never_equidistributes():
    rows = deviation_series("sl2z", rnorm_gauge(2), [5.0, 10.0, 20.0],
                            TorusCharacter((1, 0)), (0, 0)).rows
    for _, dev, count in rows:
        assert count > 0
        assert dev == pytest.approx(1.0, abs=1e-12)


def test_coset_indicator_identity_class_at_small_radius():
    # {+-I, +-J} reduce to two classes mod 2, each of mass 1/2 against 1/6
    elements = list(enumerate_ball("sl2z", rnorm_gauge(2), math.sqrt(2.0) + 1e-9))
    assert len(elements) == 4
    ident = reduce_mod(elements[0].identity(2), 2)
    assert coset_histogram(elements, 2).fraction(ident) == pytest.approx(0.5, abs=1e-12)
    dev = ball_deviation(elements, math.sqrt(2.0) + 1e-9, CosetObservable(2))
    assert dev == 0.5 - 1.0 / 6.0


def test_indicator_fractions_sum_to_one(ball20):
    hist = coset_histogram(ball20, 2)
    total = sum(hist.fraction(cls) for cls, _ in hist.counts)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_average_validation(ball20):
    with pytest.raises(SpecError):
        ball_deviation(ball20, 20.0, TorusCharacter((1, 0)))  # no base point
    with pytest.raises(SpecError):
        ball_deviation(ball20, 20.0, TorusCharacter((1, 0, 2)), X0)
    with pytest.raises(SpecError):
        ball_deviation(ball20, 20.0, TorusCharacter((1, 0)), (0.1, 0.2, 0.3))


def test_series_counts_match_count_series(ball20):
    thresholds = [5.0, 10.0, 20.0]
    series = deviation_series("sl2z", rnorm_gauge(2), thresholds, TorusCharacter((1, 0)), X0,
                              elements=ball20)
    counted = count_series("sl2z", rnorm_gauge(2), thresholds)
    assert [r[2] for r in series.rows] == [r.count for r in counted.rows]
    assert series.observable_label == "character:1,0"
    assert series.gauge == rnorm_gauge(2)


def test_series_validation():
    with pytest.raises(SpecError):
        deviation_series("sl2z", rnorm_gauge(2), [5.0], (1, 0), X0)
    with pytest.raises(SpecError):
        deviation_series("sl2z", rnorm_gauge(2), [5.0, 4.0], TorusCharacter((1, 0)), X0)
    with pytest.raises(BudgetError):
        deviation_series("sl2z", rnorm_gauge(2), [30.0], CosetObservable(2), budget=10)


def test_torus_action_needs_integral_matrices():
    with pytest.raises(SpecError):
        deviation_series("sl2z1p", height_gauge(2), [4.0], TorusCharacter((1, 0)), X0)


def test_sarith_coset_reduction_works_when_coprime():
    series = deviation_series("sl2z1p", height_gauge(2), [4.0, 8.0], CosetObservable(3))
    for _, dev, count in series.rows:
        assert count > 0
        assert 0.0 <= dev <= 1.0
    with pytest.raises(SpecError):
        deviation_series("sl2z1p", height_gauge(2), [4.0], CosetObservable(4))


def test_coset_deviation_decays(ball20):
    rows = deviation_series("sl2z", rnorm_gauge(2), [3.0, 20.0], CosetObservable(2)).rows
    assert rows[1][1] < rows[0][1]


def test_decay_fit_recovers_synthetic_rate():
    rows = tuple((t, 2.0 * math.exp(-0.5 * t), 100) for t in
                 (2.0, 4.0, 6.0, 8.0, 10.0, 12.0))
    series = DeviationSeries(gauge=hyperbolic_gauge(), observable_label="character:1,0",
                             rows=rows)
    fit = decay_fit(series)
    assert fit.model == "exp_decay"
    assert fit.a == pytest.approx(0.5, abs=1e-9)
    assert fit.r2 == pytest.approx(1.0)


def test_decay_fit_uses_log_threshold_on_T_scale():
    rows = tuple((T, 0.1 / T, 50) for T in (2.0, 4.0, 8.0, 16.0, 32.0, 64.0))
    series = DeviationSeries(gauge=rnorm_gauge(2), observable_label="coset-sup:q=2",
                             rows=rows)
    fit = decay_fit(series)
    assert fit.a == pytest.approx(1.0, abs=1e-9)


def test_decay_fit_needs_positive_rows():
    rows = tuple((t, 0.0, 10) for t in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
    series = DeviationSeries(gauge=hyperbolic_gauge(), observable_label="character:1,0",
                             rows=rows)
    with pytest.raises(SpecError):
        decay_fit(series)
