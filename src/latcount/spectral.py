"""Spherical-function decay and the counting-error exponent it buys."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError, SpecError
from .gauges import Gauge
from .haar import gl_integrate, volume_growth

__all__ = [
    "SpectralParams",
    "RHO0",
    "default_params",
    "xi_eval",
    "spectral_decay_theta",
    "counting_error_exponent",
    "radial_operator_norm_bound",
    "spectral_summary",
]

# Spherical-Plancherel exponent rho_0: twice the half-sum-of-roots scaling
# that controls how much integrability a matrix coefficient must give up.
RHO0 = {"sl2z": 3.0, "sl3z": 8.0, "sl2z1p": 3.0}


@dataclass(frozen=True)
class SpectralParams:
    """Decay and integrability data for one automorphic representation family."""

    theta: float = 0.0
    n_e: int = 2
    rho0: float = 3.0
    p: float = 2.0
    r: float = 2.0
    tempered: bool = False

    def __post_init__(self) -> None:
        if self.theta < 0.0:
            raise SpecError("decay exponent theta must be >= 0")
        if self.rho0 <= 0.0:
            raise SpecError("rho0 must be positive")
        if not 1.0 <= self.r <= self.p:
            raise SpecError("need 1 <= r <= p")
        if not self.tempered and (self.n_e < 2 or self.n_e % 2 != 0):
            raise SpecError("n_e must be an even integer >= 2 unless tempered")


def default_params(group: str, **overrides) -> SpectralParams:
    """Baseline SpectralParams for a named group; keywords override fields."""
    if group not in RHO0:
        raise SpecError(f"unknown group {group!r}")
    base = SpectralParams(rho0=RHO0[group], tempered=group != "sl3z")
    return replace(base, **overrides) if overrides else base


def _xi_quad(s: float, panels: int, nodes: int) -> float:
    # Xi(a_s) = (2/pi) int_0^{pi/2} (e^{2s} sin^2 + e^{-2s} cos^2)^{-1/2} dphi.
    # The mass sits in a window phi ~ e^{-2s} at 0; substituting
    # phi = e^{-2s} sinh(w) flattens it to an O(e^{-s}) integrand on a
    # w-interval of length ~ 2s, which composite Gauss handles uniformly in s.
    kp = math.exp(-2.0 * s)
    w_max = math.asinh((math.pi / 2.0) / kp)

    def integrand(w: np.ndarray) -> np.ndarray:
        phi = kp * np.sinh(w)
        sin2 = np.sin(phi) ** 2
        return kp * np.cosh(w) / np.sqrt(math.exp(2.0 * s) * sin2 + kp * (1.0 - sin2))

    return (2.0 / math.pi) * gl_integrate(integrand, 0.0, w_max, panels=panels, nodes=nodes)


def xi_eval(s: float) -> float:
    """Harish-Chandra spherical function at Cartan parameter s >= 0."""
    s = float(s)
    if s < 0.0:
        raise SpecError("Cartan parameter must be >= 0")
    panels = max(4, int(math.ceil((2.0 * s + 2.0) / 3.0)))
    coarse = _xi_quad(s, panels, 16)
    fine = _xi_quad(s, 2 * panels, 24)
    if abs(fine - coarse) > 1e-8 * max(abs(fine), 1e-300):
        raise NumericalError(f"spherical-function quadrature unstable at s={s}")
    return float(fine)


def spectral_decay_theta(volume_growth_rate: float, params: SpectralParams) -> float:
    """Matrix-coefficient decay rate from a volume growth rate."""
    growth = float(volume_growth_rate)
    if growth < 0.0:
        raise SpecError("volume growth rate must be >= 0")
    if params.tempered:
        return growth / 2.0
    return growth / (2.0 * params.n_e)


def counting_error_exponent(params: SpectralParams) -> float:
    """Error-term exponent alpha for the L^p/L^r counting argument."""
    theta_pr = params.r * params.theta
    return theta_pr / (params.rho0 * (1.0 + params.r - params.r / params.p) + params.r)


def radial_operator_norm_bound(gauge: Gauge, t: float, params: SpectralParams) -> float:
    """Averaging-operator norm bound: Xi-weighted ball mass over plain mass."""
    if not gauge.bi_K_invariant:
        raise SpecError("radial bound needs a bi-K-invariant gauge")
    t_native = gauge.cartan_radius(t)
    if t_native <= 0.0:
        raise SpecError("threshold must exceed the identity value")

    def weighted(srow: np.ndarray) -> np.ndarray:
        xi = np.array([xi_eval(x / 2.0) for x in srow])
        return xi * 2.0 * math.pi * np.sinh(srow)

    panels = max(4, int(math.ceil(t_native / 2.0)))
    num = gl_integrate(weighted, 0.0, t_native, panels=panels, nodes=16)
    den = 2.0 * math.pi * (math.cosh(t_native) - 1.0)
    exponent = 1.0 if params.tempered else 1.0 / params.n_e
    return float((num / den) ** exponent)


def _volume_growth_rate_logT(group: str, gauge: Gauge) -> float:
    """The ball-volume growth exponent per log T, fitted on a fixed grid."""
    ts = np.linspace(8.0, 16.0, 9) if gauge.scale == "t" else np.geomspace(20.0, 150.0, 9)
    return volume_growth(group, gauge, ts, (ts[0], ts[-1]))[2]


def spectral_summary(group: str, gauge: Gauge, *, p: float = 2.0, r: float = 2.0) -> dict:
    """Measured growth -> theta -> alpha, reported in both threshold scales."""
    if group not in RHO0:
        raise SpecError(f"unknown group {group!r}")
    base = default_params(group, p=float(p), r=float(r))
    theta = spectral_decay_theta(_volume_growth_rate_logT(group, gauge), base)
    params = replace(base, theta=theta)
    alpha_logT = counting_error_exponent(params)
    return {
        "theta": theta,
        "n_e": params.n_e,
        "rho0": params.rho0,
        "p": params.p,
        "r": params.r,
        "alpha_t_scale": alpha_logT / gauge.dt_dlogT(),
        "alpha_T_scale": alpha_logT,
    }
