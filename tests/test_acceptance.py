"""End-to-end acceptance battery; one recorded verdict per criterion."""

import bisect
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from _brute import brute_sl2z, brute_sl2z1p, brute_sl3z
from conftest import record_acceptance
from latcount.gauges import (
    BinaryForm,
    entry_bound,
    height_gauge,
    hyperbolic_gauge,
    rep_form_gauge,
    rnorm_gauge,
)
from latcount.haar import (
    admissibility_estimate,
    balanced_volume_ratio,
    balanced_volume_verdict,
    balanced_weight_criterion,
    ball_volume_profile,
    convolve_profiles,
    covolume_psl2z,
    fit_growth,
    frobenius_ball_volume,
    tensor_factor_profiles,
    tensor_weights,
    volume_of_ball,
)
from latcount.lattice import (
    _shell_counts,
    count_series,
    enumerate_ball,
    orbit_forms_count,
    sl_residue_order,
)
from latcount.spectral import (
    SpectralParams,
    counting_error_exponent,
    spectral_decay_theta,
    xi_eval,
)
from latcount.torus import CosetObservable, TorusCharacter, decay_fit, deviation_series

X0 = (math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0)


@pytest.fixture(scope="module")
def ball150():
    start = time.perf_counter()
    elements = list(enumerate_ball("sl2z", rnorm_gauge(2), 150.0))
    return elements, time.perf_counter() - start


def _loglog_slope(xs, ys):
    x = np.log(np.asarray(xs, dtype=float))
    y = np.log(np.asarray(ys, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2


def test_criterion_1_enumeration_matches_brute_force():
    start = time.perf_counter()
    cases = [
        ("sl2z", rnorm_gauge(2), 4.0, brute_sl2z),
        ("sl2z", rnorm_gauge(1), 5.0, brute_sl2z),
        ("sl2z", rnorm_gauge(math.inf), 2.0, brute_sl2z),
        ("sl2z", hyperbolic_gauge(), 2.2, brute_sl2z),
        ("sl2z", rep_form_gauge(BinaryForm(4, (1, 0, 0, 0, 1))), 40.0,
         brute_sl2z),
        ("sl3z", rnorm_gauge(2), 2.5, brute_sl3z),
        ("sl2z1p", height_gauge(2), 4.0, brute_sl2z1p),
        ("sl2z1p", height_gauge(3), 4.0, brute_sl2z1p),
    ]
    sizes = []
    ok = True
    for group, gauge, threshold, brute in cases:
        assert entry_bound(gauge, threshold) <= 6
        fast = set(enumerate_ball(group, gauge, threshold))
        slow = brute(gauge, threshold)
        ok = ok and fast == slow
        sizes.append(len(fast))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    record_acceptance(
        1, "dual-route enumeration agrees as sets", ok,
        f"{len(cases)} gauge cases, sizes {min(sizes)}..{max(sizes)}, "
        f"{elapsed:.1f}s < 10s")
    assert ok


def test_criterion_2_frobenius_count_matches_main_term(ball150):
    elements, build_seconds = ball150
    start = time.perf_counter()
    T = 150.0
    t = math.acosh(T * T / 2.0)
    count = len(elements)
    main_term = 12.0 * (math.cosh(t) - 1.0)
    # the same prediction assembled from the quadrature covolume
    via_quadrature = 2.0 * frobenius_ball_volume(T) / covolume_psl2z()
    agreement = abs(via_quadrature / main_term - 1.0)
    deviation = abs(count / main_term - 1.0)
    elapsed = build_seconds + time.perf_counter() - start
    ok = deviation <= 0.03 and agreement <= 1e-9 and elapsed < 60.0
    record_acceptance(
        2, "Frobenius ball count tracks 12(cosh t - 1)", ok,
        f"count {count}, main term {main_term:.1f}, |ratio-1| "
        f"{deviation:.5f} <= 0.03, {elapsed:.1f}s < 60s")
    assert ok


def test_criterion_3_ratio_error_decays_for_all_rnorms():
    thresholds = [float(x) for x in np.geomspace(40.0, 150.0, 9)]
    details = []
    ok = True
    for r in (1.0, 2.0, math.inf):
        series = count_series("sl2z", rnorm_gauge(r), thresholds)
        pts = [(row.threshold, row.abs_dev) for row in series.rows
               if row.abs_dev and row.abs_dev > 0]
        slope, r2 = _loglog_slope([p[0] for p in pts], [p[1] for p in pts])
        ok = ok and slope <= -0.20
        name = "inf" if math.isinf(r) else f"{r:g}"
        details.append(f"r={name}: slope {slope:.2f} (R^2 {r2:.2f})")
    # r = 2 on exact shells: sup |N / (6T^2 - 12) - 1| over dyadic T windows in
    # [16, 1024], N at every integer cap T^2, against Selberg's O(X^(2/3)), X =
    # T^2, which is a slope of -2/3 for the relative error
    caps = np.arange(16**2, 1024**2 + 1)
    counts = np.array(_shell_counts(rnorm_gauge(2), caps.tolist()), dtype=float)
    rel_err = np.abs(counts / (6.0 * caps - 12.0) - 1.0)
    windows = [(16 * 2**i, 32 * 2**i) for i in range(6)]
    sups = [rel_err[(caps >= lo * lo) & ((caps < hi * hi) | (hi == 1024))
                    & (caps <= hi * hi)].max() for lo, hi in windows]
    shell_slope, shell_r2 = _loglog_slope([math.sqrt(lo * hi) for lo, hi in windows], sups)
    selberg = -2.0 / 3.0 + 0.05
    ok = ok and shell_slope <= selberg
    details.append(f"r=2 exact shells T in [16, 1024]: sup slope {shell_slope:.3f} <= "
                   f"{selberg:.3f} (R^2 {shell_r2:.3f})")
    record_acceptance(
        3, "log|ratio-1| slope <= -0.20 for r in {1,2,inf}; r=2 shells at Selberg's -2/3", ok,
        "; ".join(details))
    assert ok


def test_criterion_4_coset_equidistribution(ball150):
    elements, _ = ball150
    thresholds = [float(x) for x in np.geomspace(2.0, 150.0, 24)]
    expected_orders = {2: 6, 3: 24, 5: 120}
    details = []
    ok = True
    for q, order in expected_orders.items():
        assert sl_residue_order(2, q) == order  # closed form; enumerated in test_lattice
        series = deviation_series("sl2z", rnorm_gauge(2), thresholds, CosetObservable(q),
                                  elements=elements)
        final_dev = series.rows[-1][1]
        fit = decay_fit(series)
        ok = ok and final_dev <= 0.01 and fit.a > 0 and fit.r2 >= 0.8
        details.append(f"q={q}: dev {final_dev:.4f}, rate {fit.a:.2f}, "
                       f"R^2 {fit.r2:.2f}")
    record_acceptance(
        4, "mod-q classes equidistribute (sup dev <= 0.01)", ok,
        "; ".join(details))
    assert ok


def test_criterion_5_torus_orbit_equidistributes(ball150):
    elements, _ = ball150
    thresholds = [float(x) for x in np.geomspace(2.0, 150.0, 24)]
    series = deviation_series("sl2z", rnorm_gauge(2), thresholds, TorusCharacter((1, 0)), X0,
                              elements=elements)
    final_dev = series.rows[-1][1]
    fit = decay_fit(series)
    ok = final_dev <= 0.05 and fit.a > 0 and fit.r2 >= 0.7
    record_acceptance(
        5, "torus orbit character average decays", ok,
        f"dev(150) {final_dev:.4f} <= 0.05, rate {fit.a:.2f} > 0, "
        f"R^2 {fit.r2:.2f} >= 0.7")
    assert ok


def test_criterion_6_volume_growth_exponents():
    start = time.perf_counter()
    thresholds = [float(x) for x in np.geomspace(2.0, 150.0, 9)]
    window = (math.sqrt(thresholds[0] * thresholds[-1]), thresholds[-1])
    fits = {}
    for group, tol in (("sl2z", 0.05), ("sl3z", 0.2)):
        samples = [(T, volume_of_ball(group, rnorm_gauge(2), T))
                   for T in thresholds]
        fits[group] = fit_growth(samples, "power", window=window)
    elapsed = time.perf_counter() - start
    ok = (abs(fits["sl2z"].a - 2.0) <= 0.05 and
          abs(fits["sl3z"].a - 6.0) <= 0.2 and elapsed < 300.0)
    record_acceptance(
        6, "Haar ball volumes grow like T^(n^2-n)", ok,
        f"SL2 exponent {fits['sl2z'].a:.3f} (2.00+-0.05), SL3 "
        f"{fits['sl3z'].a:.3f} (6.0+-0.2), {elapsed:.0f}s < 300s")
    assert ok


def test_criterion_7_quartic_form_orbit_exponent():
    f0 = BinaryForm(4, (1, 0, 0, 0, 1))
    thresholds = [float(x) for x in np.geomspace(1e3, 1e5, 9)]
    rows = [orbit_forms_count(f0, T) for T in thresholds]
    exact = all(r.orbit_count * r.stabilizer_order == r.gamma_count
                for r in rows)
    stab_ok = all(r.stabilizer_order == 4 for r in rows)
    fit = fit_growth([(T, float(r.orbit_count)) for T, r in
                      zip(thresholds, rows)], "power",
                     window=(thresholds[0], thresholds[-1]))
    ok = exact and stab_ok and abs(fit.a - 0.5) <= 0.15
    record_acceptance(
        7, "orbit of x^4+y^4 counts like T^(1/2)", ok,
        f"exponent {fit.a:.3f} (0.50+-0.15), stabilizer 4, "
        f"orbit*stab == Gamma-count at all {len(rows)} thresholds")
    assert ok


def test_criterion_8_sarith_ball_growth():
    gauge = height_gauge(2)
    thresholds = [float(x) for x in np.geomspace(40.0, 150.0, 8)]
    elements = list(enumerate_ball("sl2z1p", gauge, thresholds[-1]))
    # bijection with the primitive-matrix data: no collisions, and a stride
    # sample survives the round trip through the wire encoding
    keys = {el.sort_key() for el in elements}
    injective = len(keys) == len(elements)
    codecs_ok = all(el.decode(el.encode(), prime=2) == el
                    for el in elements[::97])
    # independent brute-force route at small radius
    small_ok = all(
        set(enumerate_ball("sl2z1p", gauge, T)) == brute_sl2z1p(gauge, T)
        for T in (4.0, 6.0, 8.0))
    # exact integer bucketing: the squared height is a plain integer, so
    # membership at each threshold reduces to S <= floor(T^2)
    caps = []
    for T in thresholds:
        t2 = Fraction(T) ** 2
        caps.append(t2.numerator // t2.denominator)
    counts = [0] * len(thresholds)
    for el in elements:
        s_sq = sum(x * x for row in el.entries for x in row)
        i = bisect.bisect_left(caps, s_sq)
        if i < len(caps):
            counts[i] += 1
    cumulative = [int(c) for c in np.cumsum(counts)]
    # independent route: r2 shells, no Bezout walk, ext_gcd or GroupElement
    shells_ok = cumulative == count_series("sl2z1p", gauge, thresholds,
                                           with_volume=False).counts()
    slope, r2 = _loglog_slope(thresholds, cumulative)
    ok = injective and codecs_ok and small_ok and shells_ok and 2.0 <= slope <= 2.3
    record_acceptance(
        8, "S-arithmetic ball grows like T^2 log T", ok,
        f"exponent {slope:.3f} in [2.0, 2.3], |C_150| {cumulative[-1]}, "
        f"bijection exact at {len(thresholds)} thresholds + brute force to T=8, "
        f"r2 shell counts {'equal' if shells_ok else 'differ'} at every threshold")
    assert ok


def test_criterion_9_spherical_decay_and_exponents():
    xi0 = xi_eval(0.0)
    ss = np.linspace(5.0, 20.0, 16)
    fit = fit_growth([(s, xi_eval(s)) for s in ss], "power_exp",
                     window=(5.0, 20.0))
    alpha = counting_error_exponent(
        SpectralParams(theta=1.0, rho0=3.0, p=2.0, r=2.0, tempered=True))
    theta = spectral_decay_theta(2.0, SpectralParams(tempered=True))
    ok = (abs(xi0 - 1.0) <= 1e-10 and abs(fit.a + 1.0) <= 0.05
          and alpha == 0.25 and theta == 1.0)
    record_acceptance(
        9, "spherical function decay and exponent algebra", ok,
        f"Xi(0)-1 = {xi0 - 1.0:.1e}, log-slope {fit.a:.3f} (-1+-0.05), "
        f"alpha {alpha} == 0.25, theta {theta} == 1")
    assert ok


def test_criterion_10_balancedness_verdicts():
    split = ((0,), (1,))
    verdicts = {}
    for l in (2, 3, 4):
        verdicts[l] = balanced_weight_criterion(tensor_weights(l), (1, 1),
                                                split).verdict
    single = balanced_weight_criterion(((1,), (-1,)), (1,), ((0,),)).verdict
    grid = np.linspace(4.0, 20.0, 5)
    volume_agrees = True
    for l in (2, 3, 4):
        f1, f2 = tensor_factor_profiles(l)
        product = convolve_profiles(f1, f2, t_max=21.0)
        volume_agrees = volume_agrees and (
            balanced_volume_verdict(product, grid) == verdicts[l])
    ok = (verdicts[2] == "BALANCED" and verdicts[3] == "NOT BALANCED"
          and verdicts[4] == "NOT BALANCED" and single == "BALANCED"
          and volume_agrees)
    record_acceptance(
        10, "balancedness: weight polytope agrees with volume ratios", ok,
        f"l=2 {verdicts[2]}, l=3 {verdicts[3]}, l=4 {verdicts[4]}, "
        f"single-factor {single}, volume route agrees for l in {{2,3,4}}")
    assert ok


def test_criterion_11_admissibility_of_hyperbolic_balls():
    report = admissibility_estimate(
        ball_volume_profile("sl2z", hyperbolic_gauge()),
        [float(t) for t in np.linspace(10.0, 20.0, 6)],
        [0.01, 0.02, 0.05], samples=10_000, seed=0)
    ok = (abs(report.c_sup - 1.0) <= 0.05 and report.product_checked == 10_000
          and report.product_violations == 0)
    record_acceptance(
        11, "shell constant c-hat stays near 1; product rule holds", ok,
        f"c_sup {report.c_sup:.4f} (1+-0.05), {report.product_violations} "
        f"violations in {report.product_checked} sampled products")
    assert ok
