"""Gauge evaluation, parsing, exact threshold comparisons, and bounds."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _brute import unit_circle_min_scalar
from latcount.errors import SpecError
from latcount.gauges import (
    BinaryForm,
    entry_bound,
    form_norm_sq,
    forms_substitute,
    gauge_eval,
    gauge_key,
    gauge_leq,
    height_gauge,
    hyperbolic_gauge,
    parse_gauge,
    rep_form_gauge,
    rnorm_gauge,
    unit_circle_min,
)
from latcount.groups import GroupElement

I2 = GroupElement.identity(2)
A = GroupElement.from_rows(((2, 1), (1, 1)))


def test_parse_gauge_round_trips():
    for spec in ("rnorm:2", "rnorm:1", "rnorm:inf", "hyperbolic",
                 "form:deg=4:coeffs=1,0,0,0,1", "height:p=2"):
        assert parse_gauge(spec).describe() == spec


def test_parse_gauge_rejects_junk():
    for bad in ("rnorm", "rnorm:0.5", "form:deg=4", "height:p=6", "nonsense"):
        with pytest.raises(SpecError):
            parse_gauge(bad)


def test_rnorm_values():
    assert gauge_eval(rnorm_gauge(2), A) == pytest.approx(math.sqrt(7.0))
    assert gauge_eval(rnorm_gauge(1), A) == pytest.approx(5.0)
    assert gauge_eval(rnorm_gauge(math.inf), A) == pytest.approx(2.0)
    assert gauge_eval(rnorm_gauge(2), I2) == pytest.approx(math.sqrt(2.0))


def test_float_sums_run_left_to_right():
    # the bits of adding the terms one at a time, as the builtin sum() does
    # up to 3.11; a compensated sum (3.12's sum()) ends an ulp off on both
    form = BinaryForm(4, (1, 0, 1, 0, 1))
    assert form.evaluate(0.3, 0.6).hex() == "0x1.5c5d63886594ap-3"
    el = GroupElement.from_rows(((1, 2), (-3, -5)))
    assert gauge_eval(rnorm_gauge(1.5), el).hex() == "0x1.dac586e34b0e6p+2"


def test_hyperbolic_identity_and_consistency():
    g = hyperbolic_gauge()
    assert gauge_eval(g, I2) == pytest.approx(0.0)
    # cosh(t) = |g|_F^2 / 2 links the two bi-K gauges
    t = gauge_eval(g, A)
    assert math.cosh(t) == pytest.approx(7.0 / 2.0)


def test_gauge_leq_exact_at_ties():
    # |A|_F^2 = 7: threshold sqrt(7) must include A despite float fuzz
    T = math.sqrt(7.0)
    assert gauge_leq(rnorm_gauge(2), A, T) == (Fraction(7) <= Fraction(T) ** 2)
    assert gauge_leq(rnorm_gauge(1), A, 5.0)
    assert not gauge_leq(rnorm_gauge(1), A, 4.999999999)


def test_form_norm_and_substitution():
    f = BinaryForm(4, (1, 0, 0, 0, 1))  # x^4 + y^4
    assert form_norm_sq(f) == Fraction(2)
    g = GroupElement.from_rows(((1, 1), (0, 1)))
    fg = forms_substitute(f, g)
    # substitution by rows: (x + y)^4 + y^4
    assert fg.coeffs == (1, 4, 6, 4, 2)
    assert form_norm_sq(forms_substitute(f, I2)) == Fraction(2)


def test_form_gauge_eval_matches_norm():
    f = BinaryForm(4, (1, 0, 0, 0, 1))
    gauge = rep_form_gauge(f)
    assert gauge_eval(gauge, I2) == pytest.approx(math.sqrt(2.0))


def test_is_definite_sturm():
    assert BinaryForm(4, (1, 0, 0, 0, 1)).is_definite()
    assert BinaryForm(4, (1, 0, 2, 0, 1)).is_definite()
    # x^4 - y^4 vanishes on the line x = y
    assert not BinaryForm(4, (1, 0, 0, 0, -1)).is_definite()
    # x^2 y^2 is degenerate on both axes
    assert not BinaryForm(4, (0, 0, 1, 0, 0)).is_definite()


def test_unit_circle_min_quartic():
    f = BinaryForm(4, (1, 0, 0, 0, 1))
    # min of cos^4 + sin^4 on the circle is 1/2 at pi/4
    assert unit_circle_min(f) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("coeffs", [
    (1, 0, 0, 0, 1),           # x^4 + y^4
    (2, 1, 3, 0, 5),
    (1, 0, 0, 1, 0, 0, 2),     # x^6 + x^3 y^3 + 2 y^6
    (1, 0, 1, 0, 1),           # x^4 + x^2 y^2 + y^4
], ids=["x4+y4", "2,1,3,0,5", "sextic", "x4+x2y2+y4"])
def test_unit_circle_min_equals_the_scalar_scan(coeffs):
    f = BinaryForm(len(coeffs) - 1, coeffs)
    assert f.is_definite()
    if coeffs == (1, 0, 0, 0, 1):
        # the dense samples tie exactly at pi/4 and 3 pi/4: the first must win
        step = math.pi / 10_000
        at = [abs(f.evaluate(math.cos(i * step), math.sin(i * step))) for i in (2500, 7500)]
        assert at[0] == at[1]
    assert unit_circle_min(f) == unit_circle_min_scalar(f)


def test_height_gauge_values():
    g = height_gauge(2)
    el = GroupElement.from_rows(((1, 0), (0, 4)), prime=2, p_power=1)
    # height is the Frobenius norm of the primitive integer matrix
    assert gauge_eval(g, el) == pytest.approx(math.sqrt(17.0))
    assert gauge_eval(g, GroupElement.identity(2, prime=2)) == pytest.approx(math.sqrt(2.0))


def test_scales_and_conversions():
    quartic = rep_form_gauge(BinaryForm(4, (1, 0, 0, 0, 1)))
    cases = [(rnorm_gauge(1), "T", False), (rnorm_gauge(2), "T", True),
             (rnorm_gauge(math.inf), "T", False), (hyperbolic_gauge(), "t", True),
             (quartic, "T", False), (height_gauge(2), "T", False)]
    for gauge, scale, bi_K in cases:
        assert (gauge.scale, gauge.bi_K_invariant) == (scale, bi_K), gauge.describe()
    assert rnorm_gauge(2).dt_dlogT() == 1.0
    assert hyperbolic_gauge().dt_dlogT() == 2.0
    assert hyperbolic_gauge().threshold_to_t(3.5) == 3.5
    assert rnorm_gauge(2).threshold_to_t(math.e) == pytest.approx(1.0)


def test_gauge_tests_reject_the_same_elements():
    # gauge_leq refuses what gauge_eval and gauge_key refuse
    sarith = GroupElement(((2, 1), (0, 2)), prime=2, p_power=1)
    sl3 = GroupElement.identity(3)
    quartic = rep_form_gauge(BinaryForm(4, (1, 0, 0, 0, 1)))
    pairs = [(height_gauge(3), sarith), (height_gauge(2), sl3),
             (hyperbolic_gauge(), sarith), (quartic, sl3)]
    for gauge, el in pairs:
        with pytest.raises(SpecError):
            gauge_eval(gauge, el)
        with pytest.raises(SpecError):
            gauge_key(gauge, el)
        with pytest.raises(SpecError):
            gauge_leq(gauge, el, 10.0)


def test_cartan_radius():
    assert hyperbolic_gauge().cartan_radius(4.0) == 4.0
    assert rnorm_gauge(2).cartan_radius(10.0) == pytest.approx(math.acosh(50.0))
    assert rnorm_gauge(2).cartan_radius(1.0) == 0.0
    with pytest.raises(SpecError):
        rnorm_gauge(1).cartan_radius(10.0)


def test_entry_bound_soundness_small():
    cases = [
        (rnorm_gauge(2), 4.0),
        (rnorm_gauge(1), 5.0),
        (hyperbolic_gauge(), 2.2),
        (rep_form_gauge(BinaryForm(4, (1, 0, 0, 0, 1))), 40.0),
    ]
    from _brute import brute_sl2z

    for gauge, T in cases:
        bound = entry_bound(gauge, T)
        for el in brute_sl2z(gauge, T):
            assert all(abs(x) <= bound for row in el.entries for x in row)


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=80)
def test_symmetric_gauges_invariant_under_inverse(x, y, z):
    from latcount.groups import group_inv, group_mul

    a = GroupElement.from_rows(((1, x), (0, 1)))
    b = GroupElement.from_rows(((1, 0), (y, 1)))
    c = GroupElement.from_rows(((1, z), (0, 1)))
    g = group_mul(group_mul(a, b), c)
    inv = group_inv(g)
    for gauge in (rnorm_gauge(2), hyperbolic_gauge()):
        assert gauge_eval(gauge, g) == pytest.approx(gauge_eval(gauge, inv))
