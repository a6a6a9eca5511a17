"""Volume quadratures against closed forms, fits, convolution, balancedness."""

import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import latcount.haar as haar
from _brute import (
    _kak_entry_coeffs,
    _profile_min,
    _rnorm_of_s,
    _sublevel_interval,
    convolve_profiles_eager,
    kak_raw_reference,
    mutated,
    product_set_check_reference,
    sl3_raw_closed_form,
    sl3_raw_reference,
)
from latcount.errors import NumericalError, SpecError
from latcount.gauges import hyperbolic_gauge, rnorm_gauge
from latcount.haar import (
    VolumeProfile,
    admissibility_estimate,
    balanced_volume_ratio,
    balanced_volume_verdict,
    balanced_weight_criterion,
    ball_volume_profile,
    convolve_profiles,
    covolume_psl2z,
    fit_growth,
    frobenius_ball_volume,
    gl_integrate,
    hyperbolic_ball_area,
    lattice_normalized_volumes,
    tensor_factor_profiles,
    tensor_weights,
    volume_of_ball,
)
from latcount.lattice import enumerate_ball


def test_covolume_quadrature_hits_pi_over_3():
    assert covolume_psl2z() == pytest.approx(math.pi / 3.0, abs=1e-10)


def test_closed_forms():
    t = 3.7
    assert hyperbolic_ball_area(t) == pytest.approx(2 * math.pi * (math.cosh(t) - 1))
    assert frobenius_ball_volume(10.0) == pytest.approx(2 * math.pi * 49.0)
    assert frobenius_ball_volume(1.0) == 0.0


def test_gl_integrate_polynomial_exact():
    val = gl_integrate(lambda x: x**3 - 2 * x, 0.0, 2.0, panels=2, nodes=8)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_frobenius_gauge_dual_routes_agree():
    # closed form vs the calibrated KAK quadrature, away from calibration points
    from latcount.haar import _kak_calibration, _sl2_kak_raw

    kappa = _kak_calibration()
    for T in (6.0, 40.0):
        raw = _sl2_kak_raw(rnorm_gauge(2), [T])[0]
        assert kappa * raw == pytest.approx(frobenius_ball_volume(T), rel=1e-6)


def test_kak_calibration_is_the_haar_constant():
    # on the quarter theta ranges the raw r = 2 integral is (pi/2)^2 / 2 times
    # (T^2/2 - 1) while the volume is 2 pi (T^2/2 - 1): kappa = 16/pi, and
    # the fitted kappa is off by the sublevel search's r = 2 error alone
    from latcount.haar import _kak_calibration

    kappa, exact = _kak_calibration(), 16.0 / math.pi
    error = abs(kappa - exact) / exact
    assert error <= 5e-8, f"kappa {kappa!r} vs 16/pi {exact!r}: relative error {error:.3g}"


# 0.6: early exit (2T^2 <= 1); 0.9 with r=inf: a partial ball; 1.2 with r=1:
# every theta2 row empty
@pytest.mark.parametrize("r", [1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("T", [0.6, 0.9, 1.2, 3.7, 16.05, 150.0])
def test_kak_raw_equals_per_pair_reference(r, T):
    from latcount.haar import _sl2_kak_raw

    gauge = rnorm_gauge(r)
    assert _sl2_kak_raw(gauge, [T], panels=2, nodes=8)[0] == kak_raw_reference(
        gauge, T, panels=2, nodes=8)


# nonpositive, empty (2T^2 <= 1) and partial balls, a repeated threshold and a
# descending pair: one pass must give each threshold its per-threshold bits
ONE_PASS_GRID = (-1.0, 0.0, 0.6, 0.9, 1.2, 2.0, 3.7, 7.5, 16.05, 60.0, 150.0, 3.7, 40.0, 20.0)


@pytest.mark.parametrize("r", [1.0, 2.0, 3.0, 1.5, math.inf])
def test_kak_one_pass_equals_per_threshold_reference(r):
    from latcount.haar import _KAK_ROWS, _sl2_kak_raw

    # 16 theta1 nodes and 16 theta2 rows per (theta1, threshold) block at
    # panels=2, nodes=8: the grid's blocks span more than one search and do
    # not fill the last one, and a search ends inside a theta1 node
    live = sum(1 for T in ONE_PASS_GRID if T > 0 and 2.0 * T * T > 1.0)
    blocks, per_search = 16 * live, max(1, _KAK_ROWS // 16)
    assert blocks > per_search and blocks % per_search != 0 and per_search % live != 0
    gauge = rnorm_gauge(r)
    assert _sl2_kak_raw(gauge, ONE_PASS_GRID, panels=2, nodes=8) == [
        kak_raw_reference(gauge, T, panels=2, nodes=8) for T in ONE_PASS_GRID]


def test_kak_raw_equals_per_pair_reference_at_default_size():
    from latcount.haar import _sl2_kak_raw

    gauge = rnorm_gauge(1)
    assert _sl2_kak_raw(gauge, [150.0])[0] == kak_raw_reference(gauge, 150.0)


def test_kak_one_pass_equals_per_threshold_reference_on_the_volume_grid():
    # the grid of `volume --gauge rnorm:1` at its default spec, default rule size
    from latcount.cli import _grid
    from latcount.haar import _sl2_kak_raw

    gauge = rnorm_gauge(1)
    grid = _grid("volume", gauge, 150.0, 9)
    assert _sl2_kak_raw(gauge, grid) == [kak_raw_reference(gauge, T) for T in grid]


# thresholds f_min (1 + eps) just above the minimum the search finds: the
# near-flat crossings, where a bisection could first part from a scan
NEAR_FLAT = (0.0, 1e-16, 1e-15, 1e-13, 1e-10, 1e-4)


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_sublevel_search_equals_the_scan_row_by_row(r):
    rng = random.Random(f"sublevel {r}")
    rows = []  # (u, v, T, s_cap), one column each
    for _ in range(24):
        theta1, theta2 = (rng.uniform(0.0, math.pi / 2.0) for _ in range(2))
        u, v = _kak_entry_coeffs(theta1, [theta2])
        s_cap = 0.5 * math.acosh(2.0 * rng.uniform(1.0, 150.0) ** 2)
        vals, s_min = _profile_min(u, v, r, s_cap)
        f_min = float(_rnorm_of_s(u, v, r, s_min[:, None])[0, 0])
        # and one threshold anywhere from an empty set to past the cap
        tops = [rng.uniform(0.5 * f_min, 1.1 * float(vals[0, -1]))]
        rows += [(u, v, T, s_cap) for T in [f_min * (1.0 + eps) for eps in NEAR_FLAT] + tops]
    us, vs, Ts, caps = zip(*rows)
    got = haar._sublevel_interval(np.concatenate(us, axis=2), np.concatenate(vs, axis=2), r,
                                  np.array(Ts), np.array(caps))
    want = zip(*(_sublevel_interval(*row[:2], r, *row[2:]) for row in rows))
    for name, g, w in zip(("nonempty", "s_a", "s_b"), got, want):
        assert np.array_equal(g, np.concatenate(w)), name


@pytest.mark.parametrize("r", [1.0, math.inf])
@pytest.mark.parametrize("T", [6.0, 60.0])
def test_kak_rnorm_volume_converges(r, T):
    # no closed form for r = 1, inf: the default rule against one with twice
    # the panels and twice the nodes per panel
    from latcount.haar import _sl2_kak_raw

    gauge = rnorm_gauge(r)
    coarse = _sl2_kak_raw(gauge, [T], panels=4, nodes=16)[0]
    fine = _sl2_kak_raw(gauge, [T], panels=8, nodes=32)[0]
    assert abs(coarse - fine) <= 1e-4 * fine


def test_rnorm_volumes_match_counts_at_scale():
    # independent check: quadrature volume vs exact lattice count at T=60
    for r in (1.0, math.inf):
        gauge = rnorm_gauge(r)
        vol = volume_of_ball("sl2z", gauge, 60.0)
        count = sum(1 for _ in enumerate_ball("sl2z", gauge, 60.0))
        # count approximates 2 * vol / covol (factor 2 for the center +-I)
        ratio = count / (2.0 * vol / covolume_psl2z())
        assert abs(ratio - 1.0) < 0.05


def test_volume_growth_ratio_is_quadratic():
    for r in (1.0, math.inf):
        gauge = rnorm_gauge(r)
        v1 = volume_of_ball("sl2z", gauge, 40.0)
        v2 = volume_of_ball("sl2z", gauge, 80.0)
        assert v2 / v1 == pytest.approx(4.0, rel=0.02)


def test_normalized_volumes_equal_expected_main_term():
    T = 150.0
    t = math.acosh(T * T / 2.0)
    (v_frob,) = lattice_normalized_volumes("sl2z", rnorm_gauge(2), [T])
    (v_hyp,) = lattice_normalized_volumes("sl2z", hyperbolic_gauge(), [t])
    expected = 12.0 * (math.cosh(t) - 1.0)
    assert v_frob == pytest.approx(expected, rel=1e-9)
    assert v_hyp == pytest.approx(expected, rel=1e-9)


def test_sl3_volume_stability_and_exponent():
    from latcount.haar import _sl3_raw, _sl3_volume

    v = _sl3_volume(8.0)
    fine = _sl3_raw(8.0, panels=16, nodes=40)
    assert v == pytest.approx(fine, rel=2e-3)
    Ts = np.geomspace(10.0, 30.0, 5)
    fit = fit_growth([(T, _sl3_volume(T)) for T in Ts], "power",
                     window=(float(Ts[0]), float(Ts[-1])))
    assert abs(fit.a - 6.0) < 0.2


SL3_PASSES = ((6, 24), (12, 32))  # _sl3_volume's coarse and fine rules


@lru_cache(maxsize=None)
def _sl3_reference(T, panels, nodes):
    return sl3_raw_reference(T, panels=panels, nodes=nodes)


def _sl3_grids():
    """The SL(3) volume grids the CLI, the benchmark and the acceptance run."""
    from latcount.cli import _grid

    gauge = rnorm_gauge(2)
    return {
        "benchmark count": _grid("count", gauge, 4.5, 6),
        "volume --tmax 60": _grid("volume", gauge, 60.0, 9),
        "criterion 6": [float(T) for T in np.geomspace(2.0, 150.0, 9)],
        "spectral": list(np.geomspace(20.0, 150.0, 9)),  # np.float64, as spectral passes them
        "wide": [float(T) for T in np.geomspace(1.5, 1000.0, 60)],
    }


def _sl3_mismatches(grids, passes=SL3_PASSES):
    """(grid, T, panels, nodes) wherever _sl3_raw differs from the per-node reference."""
    from latcount.haar import _sl3_raw

    return [(name, T, panels, nodes) for name, grid in grids.items() for T in grid
            for panels, nodes in passes
            if _sl3_raw(T, panels=panels, nodes=nodes) != _sl3_reference(T, panels, nodes)]


def test_sl3_blocked_quadrature_equals_per_node_reference():
    # one numpy block per a1 panel, against one gl_integrate call per a1 node;
    # the coarse pass only feeds the convergence check, so the wide grid takes
    # the fine pass alone
    grids = _sl3_grids()
    wide = {"wide": grids.pop("wide")}
    assert _sl3_mismatches(grids) + _sl3_mismatches(wide, passes=SL3_PASSES[1:]) == []


def test_sl3_row_sums_as_matrix_vector_product_fail_the_reference(monkeypatch):
    # planted defect: f @ w sums each row in gemv's order, an ulp off np.dot's
    import latcount.haar as haar

    monkeypatch.setattr(haar, "_row_dots", lambda w, f: f @ w)
    wide = {"wide": _sl3_grids()["wide"]}
    assert _sl3_mismatches(wide, passes=SL3_PASSES[1:])


@pytest.mark.parametrize("T", [2.0, 3.0, 5.0, 12.0, 60.0, 150.0, 1000.0])
def test_sl3_volume_matches_the_closed_form_a2_route(T):
    # a second route: the a2 integral in closed form, the a1 integral on its own
    # 48 x 48 Gauss-Legendre grid; this bounds the fine pass's error, where the
    # 1e-3 coarse/fine check inside _sl3_volume only bounds their disagreement
    from latcount.haar import _sl3_volume

    v = _sl3_volume(T)
    assert abs(sl3_raw_closed_form(T) - v) <= 1e-5 * v


def test_volume_of_ball_unsupported():
    with pytest.raises(SpecError):
        volume_of_ball("sl3z", rnorm_gauge(1), 5.0)
    with pytest.raises(SpecError):
        volume_of_ball("sl2z1p", rnorm_gauge(2), 5.0)
    with pytest.raises(SpecError):
        volume_of_ball("sl3z", rnorm_gauge(1), -3.0)


@pytest.mark.parametrize("group,gauge", [
    ("sl2z", rnorm_gauge(1)),
    ("sl2z", rnorm_gauge(2)),
    ("sl2z", rnorm_gauge(math.inf)),
    ("sl2z", rnorm_gauge(1.5)),
    ("sl2z", hyperbolic_gauge()),
    ("sl3z", rnorm_gauge(2)),
], ids=["sl2z-r1", "sl2z-r2", "sl2z-rinf", "sl2z-r1.5", "sl2z-hyperbolic", "sl3z-r2"])
def test_nonpositive_threshold_has_zero_volume(group, gauge):
    for t in (-3.0, -1e-300, 0.0):
        assert volume_of_ball(group, gauge, t) == 0.0


def test_volume_that_overflows_a_float_is_a_numerical_error():
    with pytest.raises(NumericalError, match="overflows"):
        volume_of_ball("sl2z", hyperbolic_gauge(), 1e6)
    # 2 T^2 is inf: refused before the sublevel search runs on inf nodes
    with pytest.raises(NumericalError, match="KAK cap"):
        volume_of_ball("sl2z", rnorm_gauge(1), 1e155)
    # a NaN threshold goes to the rule, as a positive one does, and fails there
    with pytest.raises(NumericalError, match="at nan overflows"):
        lattice_normalized_volumes("sl2z", rnorm_gauge(2), [2.0, math.nan, 3.0])


def test_overflowing_kak_cap_fails_before_the_quadrature(monkeypatch):
    # the grid of `volume --gauge rnorm:1 --tmax 1e155`: 2 T^2 first overflows
    # at its fifth threshold, and no threshold is integrated before the error
    import latcount.haar as haar
    from latcount.cli import _grid

    def no_quadrature(*args, **kwargs):
        raise AssertionError("sublevel search ran before the cap check")

    monkeypatch.setattr(haar, "_sublevel_interval", no_quadrature)
    grid = _grid("volume", rnorm_gauge(1), 1e155, 9)
    message = r"KAK cap 2 T\^2 overflows a float at T=1e\+154$"
    with pytest.raises(NumericalError, match=message):
        haar.volume_growth("sl2z", rnorm_gauge(1), grid, (grid[0], grid[-1]))
    with pytest.raises(NumericalError, match=message):
        lattice_normalized_volumes("sl2z", rnorm_gauge(1), grid)


def test_overflowing_kak_power_sum_fails_before_the_quadrature(monkeypatch):
    # r = 3: 4 (2 cosh s_cap)^3 = 4 (4 T^2 + 2)^(3/2) passes the float range
    # near T = 1.78e102; the first such threshold in grid order is refused,
    # though 2 T^2 and the volume bound still fit
    def no_quadrature(*args, **kwargs):
        raise AssertionError("sublevel search ran before the power-sum check")

    monkeypatch.setattr(haar, "_sublevel_interval", no_quadrature)
    grid = [1e100, 1.7e102, 1.8e102, 1e103, 1e160]
    with pytest.raises(NumericalError,
                       match=r"KAK r-norm power sum overflows a float at T=1\.8e\+102$"):
        haar.volume_growth("sl2z", rnorm_gauge(3), grid, (grid[0], grid[-1]))
    assert haar._kak_refusal(3.0, 1.7e102) == ""
    # r = 1 and r = inf raise nothing to a power: only 2 T^2 bounds them, also
    # where 4 T^2 + 2 itself overflows
    assert haar._kak_refusal(1.0, 9e153) == haar._kak_refusal(math.inf, 9e153) == ""
    assert haar._kak_refusal(1.5, 9e153) == ""
    assert haar._kak_refusal(1.5, 1e154).startswith("KAK cap 2 T^2")


@pytest.mark.parametrize("r", [1.0, 1.5, 3.0, math.inf])
def test_kak_volume_stays_below_its_frobenius_bound(r):
    # ||g||_2 <= 4^max(0, 1/2 - 1/r) ||g||_r puts the r-ball inside a Frobenius
    # ball; the overflow order of a grid rests on this bound
    from latcount.haar import _ball_volumes

    grid = [6.0, 1e6]
    volumes, _ = _ball_volumes("sl2z", rnorm_gauge(r), grid)
    for T, v in zip(grid, volumes):
        assert 0.0 < v <= math.pi * T * T * 4.0 ** max(0.0, 1.0 - 2.0 / r)


def test_volume_overflow_below_the_kak_cap_is_reported_first():
    # r = inf volumes overflow a float from T ~ 6.6e153 on, below the T where
    # 2 T^2 does: the first failure in grid order is the one reported
    match = r"ball volume of rnorm:inf on sl2z at 8e\+153 overflows a float"
    with pytest.raises(NumericalError, match=match):
        lattice_normalized_volumes("sl2z", rnorm_gauge(math.inf), [8e153, 1e154])


# ---------------------------------------------------------------------------
# growth fitting
# ---------------------------------------------------------------------------

def test_fit_power_exact():
    samples = [(T, 3.0 * T**4) for T in (2.0, 4.0, 8.0, 16.0, 32.0)]
    fit = fit_growth(samples, "power", window=(2.0, 32.0))
    assert fit.model == "power"
    assert fit.a == pytest.approx(4.0, abs=1e-12)
    assert fit.c == pytest.approx(3.0, rel=1e-12)
    assert fit.r2 == pytest.approx(1.0)
    assert fit.stderr == pytest.approx(0.0, abs=1e-10)


def test_fit_power_exp_selects_prefactor():
    ts = np.linspace(4.0, 12.0, 9)
    samples = [(t, 0.7 * t**2 * math.exp(2.0 * t)) for t in ts]
    fit = fit_growth(samples, "power_exp", window=(4.0, 12.0))
    assert fit.b == 3  # t^{b-1} with b - 1 = 2
    assert fit.a == pytest.approx(2.0, abs=1e-9)


def test_fit_exp_decay_exact():
    ts = np.linspace(1.0, 9.0, 9)
    samples = [(t, 2.0 * math.exp(-0.5 * t)) for t in ts]
    fit = fit_growth(samples, "exp_decay", window=(1.0, 9.0))
    assert fit.a == pytest.approx(0.5, abs=1e-12)
    assert fit.c == pytest.approx(2.0, rel=1e-9)


def test_fit_excludes_nonpositive_and_counts():
    samples = [(1.0, 0.0), (2.0, 1.0), (3.0, 2.0), (4.0, 4.0), (5.0, 8.0), (6.0, 16.0)]
    fit = fit_growth(samples, "exp_decay", window=(1.0, 6.0))
    assert fit.n_excluded == 1
    assert fit.n_points == 5


def test_fit_default_window_is_top_half():
    samples = [(float(t), math.exp(t)) for t in range(1, 11)]
    fit = fit_growth(samples, "power_exp")
    # midpoint cut at 5.5, window reported as the hull of the used samples
    assert fit.window == (6.0, 10.0)
    assert fit.n_points == 5


def test_fit_validation_errors():
    with pytest.raises(SpecError):
        fit_growth([(1.0, 1.0)] * 4, "power")
    with pytest.raises(SpecError):
        fit_growth([(t, 1.0) for t in (1.0, 2.0, 3.0, 4.0, 5.0)], "banana")
    with pytest.raises(SpecError):
        fit_growth([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (9.0, 9.0), (9.5, 9.5)],
                   "power", window=(9.2, 9.6))


def test_fit_json_schema():
    samples = [(T, T**2) for T in (2.0, 4.0, 8.0, 16.0, 32.0)]
    d = fit_growth(samples, "power", window=(2.0, 32.0)).as_json_dict()
    assert set(d) == {"model", "params", "stderr", "r2", "window"}
    assert set(d["params"]) == {"a", "b", "c"}


# ---------------------------------------------------------------------------
# convolution of profiles
# ---------------------------------------------------------------------------

def _uniform_profile():
    return VolumeProfile(
        fn=lambda t: np.clip(t, 0.0, None), scale="t",
        label="uniform",
    )


def test_convolution_of_uniforms():
    u = _uniform_profile()
    conv = convolve_profiles(u, u, t_max=10.0, steps=1024)
    for t in (2.0, 4.0, 8.0):
        assert conv(t) == pytest.approx(t * t / 2.0, rel=2e-3)


def test_convolution_exponential_growth_gains_polynomial_factor():
    e = VolumeProfile(fn=lambda t: np.exp(2.0 * np.clip(t, 0.0, None)) - 1.0,
                      scale="t", label="exp2")
    conv = convolve_profiles(e, e, t_max=20.0, steps=1024)
    samples = [(t, conv(t)) for t in np.linspace(8.0, 18.0, 11)]
    fit = fit_growth(samples, "power_exp", window=(8.0, 18.0))
    assert fit.b == 2  # t * e^{2t} shape
    assert fit.a == pytest.approx(2.0, abs=0.05)


# the profile pairs of the product-profile oracle: the tensor factors, and
# uniform and exponential growth written with Python floats, so that full
# tables at 1024 steps stay cheap
PRODUCT_PAIRS = {
    **{f"tensor-{l}": lambda l=l: tensor_factor_profiles(l) for l in (2, 3, 4)},
    "uniform": lambda: (VolumeProfile(fn=lambda t: t if t > 0 else 0.0),) * 2,
    "exp": lambda: (VolumeProfile(fn=lambda t: math.exp(2.0 * t) - 1.0 if t > 0 else 0.0),) * 2,
}


def _same_float(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


# every pair at 512 steps on a dyadic and a non-dyadic t_max, and at 1024
# steps on one of them (full tables at 1024 steps take about 0.2 s each)
PRODUCT_CASES = [(pair, 512, t_max) for pair in PRODUCT_PAIRS for t_max in (16.0, 10.3)] + [
    (pair, 1024, t_max) for pair, t_max in zip(PRODUCT_PAIRS, (16.0, 10.3) * 3)]


@pytest.mark.parametrize("pair,steps,t_max", PRODUCT_CASES)
def test_product_rows_on_demand_equal_the_full_table(pair, steps, t_max):
    v1, v2 = PRODUCT_PAIRS[pair]()
    product = convolve_profiles(v1, v2, t_max=t_max, steps=steps)
    table = convolve_profiles_eager(v1, v2, t_max=t_max, steps=steps)
    nodes = np.linspace(0.0, t_max, steps + 1).tolist()
    rng = random.Random(steps)
    points = [-1.0, -1e-300, t_max, math.nextafter(t_max, 0.0), t_max + 1.0, math.nan]
    points += [rng.uniform(-1.0, t_max + 1.0) for _ in range(500)]
    # the random points first, so that rows are summed out of order
    for t in points[::-1] + nodes + [0.5 * (a + b) for a, b in zip(nodes, nodes[1:])]:
        assert _same_float(product(t), table(t)), t
    assert math.isnan(product(math.nan)) and product(-1.0) == 0.0


def test_product_profile_needs_a_grid_cell():
    u = _uniform_profile()
    with pytest.raises(SpecError, match="grid cell"):
        convolve_profiles(u, u, steps=0)


# ---------------------------------------------------------------------------
# balancedness
# ---------------------------------------------------------------------------

def test_tensor_weights_layout():
    assert set(tensor_weights(3)) == {(1, 2), (1, 0), (1, -2), (-1, 2), (-1, 0), (-1, -2)}


def test_weight_criterion_tensor_family():
    split = ((0,), (1,))
    res2 = balanced_weight_criterion(tensor_weights(2), (1, 1), split)
    assert res2.verdict == "BALANCED"
    assert res2.delta == Fraction(1)
    for l in (3, 4):
        res = balanced_weight_criterion(tensor_weights(l), (1, 1), split)
        assert res.verdict == "NOT BALANCED"
        assert res.delta == Fraction(1)
        assert (Fraction(1), Fraction(0)) in res.argmax_vertices


def test_weight_criterion_single_factor():
    res = balanced_weight_criterion(((1,), (-1,)), (1,), ((0,),))
    assert res.verdict == "BALANCED"


def test_weight_criterion_validation():
    unbounded = [(((1, 0),), ((0,), (1,))),
                 (((-1,),), ((0,),)),
                 (((1, 0, 0), (0, 1, 0)), ((0,), (1,), (2,)))]
    for weights, split in unbounded:
        with pytest.raises(SpecError, match="unbounded"):
            balanced_weight_criterion(weights, (1,) * len(split), split)
    cube = balanced_weight_criterion(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 1, 1),
                                     ((0,), (1,), (2,)))
    assert cube.verdict == "BALANCED"
    with pytest.raises(SpecError):
        balanced_weight_criterion(tensor_weights(2), (1, 1), ((0,),))  # bad split
    with pytest.raises(SpecError):
        balanced_weight_criterion(((1, 1, 1, 1),) * 2, (1,) * 4, ((0, 1), (2, 3)))


def test_volume_route_agrees_with_weight_route():
    grid = np.linspace(4.0, 20.0, 5)
    for l in (2, 3, 4):
        f1, f2 = tensor_factor_profiles(l)
        product = convolve_profiles(f1, f2, t_max=21.0)
        verdict = balanced_volume_verdict(product, grid)
        expected = balanced_weight_criterion(
            tensor_weights(l), (1, 1), ((0,), (1,))
        ).verdict
        assert verdict == expected


def test_volume_ratio_decays_only_when_unbalanced():
    f1, f2 = tensor_factor_profiles(3)
    product = convolve_profiles(f1, f2, t_max=21.0)
    # confining the dominant factor starves the ball: ratio decays
    assert balanced_volume_ratio(product, f1, 20.0) < 0.3 * balanced_volume_ratio(
        product, f1, 4.0)
    # the slow factor's slice keeps a definite fraction
    assert balanced_volume_ratio(product, f2, 20.0) > 0.4


def test_volume_ratio_requires_factor():
    f1, f2 = tensor_factor_profiles(3)
    product = convolve_profiles(f1, f2, t_max=10.0)
    with pytest.raises(SpecError):
        balanced_volume_ratio(product, _uniform_profile(), 5.0)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def test_c_hat_matches_closed_form():
    profile = ball_volume_profile("sl2z", hyperbolic_gauge())
    t_grid = [10.0, 14.0, 18.0]
    eps_grid = [0.01, 0.05]
    report = admissibility_estimate(profile, t_grid, eps_grid)

    def oracle(t, e):
        v = lambda s: 2 * math.pi * (math.cosh(s) - 1.0)
        return (v(t + e) - v(t)) / (e * v(t))

    for t, e, c in report.table:
        assert c == pytest.approx(oracle(t, e), rel=1e-9)
    assert report.verdict == "ADMISSIBLE-LIKE"
    assert report.product_checked == 0


def test_admissibility_product_check_no_violations():
    profile = ball_volume_profile("sl2z", hyperbolic_gauge())
    report = admissibility_estimate(profile, [10.0, 15.0, 20.0], [0.02, 0.05],
                                    samples=2000, seed=3)
    assert report.product_checked == 2000
    assert report.product_violations == 0
    assert report.product_c is not None and report.product_c <= report.c_sup + 1.0


def test_admissibility_seed_reproducible():
    profile = ball_volume_profile("sl2z", hyperbolic_gauge())
    r1 = admissibility_estimate(profile, [12.0, 16.0], [0.05], samples=500, seed=11)
    r2 = admissibility_estimate(profile, [12.0, 16.0], [0.05], samples=500, seed=11)
    assert r1.product_c == r2.product_c


# (t grid, eps grid): the benchmark's, one eps, and a grid up to t = 40,
# where 2 cosh t passes 2^53 and rem = cap - a^2 - b^2 rounds
SAMPLER_GRIDS = [
    ([10.0, 12.5, 15.0, 17.5, 20.0], [0.01, 0.02, 0.05]),
    ([6.0, 12.0], [0.05]),
    ([1.5, 3.0, 40.0], [0.001, 0.3, 0.02, 0.07, 0.5]),
]


@pytest.mark.parametrize("samples", [1, 10_000])
@pytest.mark.parametrize("grid", range(len(SAMPLER_GRIDS)))
@pytest.mark.parametrize("seed", [0, 7, 11, 2**31 - 1])
def test_product_set_check_equals_the_per_sample_route(seed, grid, samples):
    ts, eps = SAMPLER_GRIDS[grid]
    got = haar._product_set_check(ts, eps, 1.03, samples, seed)
    assert got == product_set_check_reference(hyperbolic_gauge(), ts, eps, 1.03, samples, seed)
    assert got[0] == samples


def test_admissibility_report_carries_the_per_sample_check():
    profile = ball_volume_profile("sl2z", hyperbolic_gauge())
    ts, eps = SAMPLER_GRIDS[0]
    report = admissibility_estimate(profile, ts, eps, samples=3000, seed=5)
    expected = product_set_check_reference(hyperbolic_gauge(), ts, eps,
                                           max(report.c_sup, 1.0), 3000, 5)
    assert (report.product_checked, report.product_violations, report.product_c) == expected


class _ScriptedRandom(random.Random):
    """random.Random(seed) whose first random() and getrandbits() draws are given."""

    def __init__(self, seed, bits, floats):
        super().__init__(seed)
        self._bits, self._floats = list(bits), list(floats)

    def random(self):
        return self._floats.pop(0) if self._floats else super().random()

    def getrandbits(self, k):
        return self._bits.pop(0) if self._bits else super().getrandbits(k)


def test_product_set_check_keeps_the_rounding_of_the_shell_search(monkeypatch):
    # At this t, cap = 2 cosh t = 12,738,526,241,036,870 > 2^53 is the squared
    # norm of [[a, b], [c0 + a, d0 + b]], one step along the Euclid
    # progression of the top row below.  (cap - a^2) - b^2 rounds to one less
    # than the exact cap - (a^2 + b^2), which puts the larger root of the
    # progression's quadratic at 1 - 2^-53, not 1: the floor takes the element
    # at step 0, not the one at step 1.  Scripted draws: t (a grid of one),
    # eps (one to choose from), a, b, the floor branch; seed 0 draws the rest.
    t, a, b = 37.08340735869586, -57368091, -54449708
    half = int(math.sqrt(math.cosh(t)))
    monkeypatch.setattr(random, "Random", lambda seed: _ScriptedRandom(
        seed, bits=[0, a + half, b + half], floats=[0.5, 0.25]))
    got = haar._product_set_check([t], [0.05], 1.0, 1, 0)
    assert got == product_set_check_reference(hyperbolic_gauge(), [t], [0.05], 1.0, 1, 0)
    assert got == (1, 0, 0.1403255447156937)


# planted defects of the two fast routes, and the oracle test each must fail
FAST_ROUTE_DEFECTS = {
    "interpolation-window-off-by-one": (
        "convolve_profiles", '"right")) - 1, 0)', '"right")), 0)',
        lambda mp: test_product_rows_on_demand_equal_the_full_table("tensor-3", 512, 10.3)),
    "box-muller-pair-cache-dropped": (
        "_product_set_check", "gauss_next = math.sin(x2pi) * g2rad", "gauss_next = None",
        lambda mp: test_product_set_check_equals_the_per_sample_route(0, 0, 1)),
    "rem-regrouped": (
        "_product_set_check", "rem = cap - a * a - b * b", "rem = cap - (a * a + b * b)",
        test_product_set_check_keeps_the_rounding_of_the_shell_search),
}


@pytest.mark.parametrize("defect", list(FAST_ROUTE_DEFECTS))
def test_fast_route_defects_fail_the_oracle_tests(monkeypatch, defect):
    name, old, new, oracle = FAST_ROUTE_DEFECTS[defect]
    planted = mutated(getattr(haar, name), old, new)
    monkeypatch.setattr(haar, name, planted)
    if name in globals():  # the oracle tests call it by the name imported here
        monkeypatch.setitem(globals(), name, planted)
    with pytest.raises(AssertionError):
        oracle(monkeypatch)


def test_admissibility_validation():
    profile = ball_volume_profile("sl2z", hyperbolic_gauge())
    with pytest.raises(SpecError):
        admissibility_estimate(profile, [], [0.05])
    with pytest.raises(SpecError):
        admissibility_estimate(profile, [10.0], [0.0])


def test_ball_volume_profile_calls_through():
    profile = ball_volume_profile("sl2z", hyperbolic_gauge())
    assert profile.scale == "t"
    assert profile(3.0) == pytest.approx(hyperbolic_ball_area(3.0))
