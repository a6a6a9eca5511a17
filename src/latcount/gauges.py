"""Size functionals |g| defining the domain families, with scale conventions,
symmetry metadata, and entry-bound oracles for pruned enumeration.

Supported kinds:
  rnorm(r)          entrywise r-norm (Sigma |a_ij|^r)^(1/r), r in [1, inf]; T-scale
  hyperbolic        d(i, g.i) in the curvature -1 upper half-plane; t-scale
  rep_form(f0)      coefficient norm of the substituted binary form; T-scale
  height(p)         S-arithmetic height ||A||_F * |g|_p; T-scale

Thresholds are compared exactly wherever the underlying quantity is an integer
or rational (squared norms, form norms), so enumeration never depends on
floating-point rounding at the boundary.  Integer-keyed gauges (integer r,
r = inf, hyperbolic, height, and rep_form through L times the form norm)
reduce the test to key(entries) <= gauge_cap; key_norm names the key.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import SpecError
from .groups import GroupElement

__all__ = [
    "BinaryForm",
    "Gauge",
    "rnorm_gauge",
    "hyperbolic_gauge",
    "rep_form_gauge",
    "height_gauge",
    "parse_gauge",
    "gauge_eval",
    "gauge_leq",
    "gauge_cap",
    "gauge_key",
    "key_norm",
    "gauge_eval_real",
    "forms_substitute",
    "substitute_coeffs",
    "form_key",
    "form_norm_sq",
    "unit_circle_min",
    "entry_bound",
]


# ---------------------------------------------------------------------------
# binary forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous binary form sum_i a_i x^(n-i) y^i with exact integer coefficients."""

    degree: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise SpecError(f"form degree must be >= 1, got {self.degree}")
        if len(self.coeffs) != self.degree + 1:
            raise SpecError(
                f"degree {self.degree} form needs {self.degree + 1} coefficients, "
                f"got {len(self.coeffs)}")
        if all(c == 0 for c in self.coeffs):
            raise SpecError("the zero form is not a valid gauge datum")

    def evaluate(self, x: float, y: float) -> float:
        n = self.degree
        return sum(c * x ** (n - i) * y ** i for i, c in enumerate(self.coeffs))

    def is_definite(self) -> bool:
        """True iff f(x, y) != 0 for all real (x, y) != 0 (exact Sturm test)."""
        if self.degree % 2 == 1:
            return False
        if self.coeffs[0] == 0:
            return False  # (1, 0) is a root
        poly = [Fraction(c) for c in reversed(self.coeffs)]  # f(x, 1), ascending powers
        return _real_root_count(poly) == 0


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_deriv(p: list[Fraction]) -> list[Fraction]:
    return [i * c for i, c in enumerate(p)][1:]


def _poly_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = a[:]
    while len(a) >= len(b) and a:
        coef = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[i + shift] -= coef * c
        _poly_trim(a)
    return a


def _real_root_count(poly: list[Fraction]) -> int:
    """Number of distinct real roots via the Sturm chain, evaluated at +-infinity."""
    p = _poly_trim(poly[:])
    if len(p) <= 1:
        return 0
    chain = [p, _poly_trim(_poly_deriv(p))]
    while chain[-1]:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    def variations(at_plus_inf: bool) -> int:
        signs = []
        for q in chain:
            if not q:
                continue
            lead = q[-1]
            s = 1 if lead > 0 else -1
            if not at_plus_inf and (len(q) - 1) % 2 == 1:
                s = -s
            signs.append(s)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return variations(False) - variations(True)


def form_norm_sq(f: BinaryForm) -> Fraction:
    """Exact squared coefficient norm sum_i binom(n,i)^{-1} a_i^2."""
    n = f.degree
    return sum(Fraction(c * c, math.comb(n, i)) for i, c in enumerate(f.coeffs))


@lru_cache(maxsize=None)
def unit_circle_min(f: BinaryForm) -> float:
    """min |f(cos t, sin t)| over the unit circle, by dense sampling + golden refinement."""
    # |f| on the circle has period pi (antipodal points differ only in sign)
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


def forms_substitute(f: BinaryForm, g: GroupElement) -> BinaryForm:
    """Exact coefficients of the substituted form f(g11*x + g12*y, g21*x + g22*y).

    This is the right action used for integral equivalence: composing two
    substitutions equals substituting by the product.
    """
    if g.n != 2 or g.p_power != 0:
        raise SpecError("forms_substitute needs an integral 2x2 element")
    (a, b), (c, d) = g.entries
    return BinaryForm(f.degree, substitute_coeffs(f.coeffs, a, b, c, d))


def substitute_coeffs(coeffs: Sequence[int], a: int, b: int, c: int, d: int) -> tuple[int, ...]:
    """Coefficients of sum_i coeffs[i] (a x + b y)^(n-i) (c x + d y)^i."""
    n = len(coeffs) - 1
    out = [0] * (n + 1)
    for i, coef in enumerate(coeffs):
        if coef == 0:
            continue
        right = _binpow(c, d, i)
        for j, s in enumerate(_binpow(a, b, n - i)):
            if s:
                s *= coef
                for k, t in enumerate(right):
                    out[j + k] += s * t
    return tuple(out)


def form_key(f: BinaryForm, a: int, b: int, c: int, d: int) -> int:
    """L form_norm_sq(f . (a, b; c, d)), an integer: L = lcm_i binom(n, i)."""
    coeffs = substitute_coeffs(f.coeffs, a, b, c, d)
    return sum(w * e * e for w, e in zip(_form_weights(f.degree), coeffs))


@lru_cache(maxsize=None)
def _form_weights(n: int) -> tuple[int, ...]:
    """L / binom(n, i) for L = lcm_i binom(n, i)."""
    binoms = [math.comb(n, i) for i in range(n + 1)]
    lcm = math.lcm(*binoms)
    return tuple(lcm // m for m in binoms)


def _binpow(alpha: int, beta: int, m: int) -> list[int]:
    """Coefficients of (alpha*x + beta*y)^m in the basis x^(m-j) y^j."""
    return [math.comb(m, j) * alpha ** (m - j) * beta ** j for j in range(m + 1)]


# ---------------------------------------------------------------------------
# gauges
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gauge:
    """A size functional with scale convention and enumeration metadata."""

    kind: str
    r: float | None = None
    form: BinaryForm | None = None
    prime: int | None = None

    @property
    def scale(self) -> str:
        """"t" for the natively logarithmic hyperbolic distance, else "T" (t = log T)."""
        return "t" if self.kind == "hyperbolic" else "T"

    @property
    def bi_K_invariant(self) -> bool:
        """Whether |k g k'| = |g| for rotations k, k' (hyperbolic, rnorm:2)."""
        return self.kind == "hyperbolic" or (self.kind == "rnorm" and self.r == 2)

    def describe(self) -> str:
        if self.kind == "rnorm":
            r = "inf" if math.isinf(self.r) else ("%g" % self.r)
            return f"rnorm:{r}"
        if self.kind == "hyperbolic":
            return "hyperbolic"
        if self.kind == "rep_form":
            coeffs = ",".join(str(c) for c in self.form.coeffs)
            return f"form:deg={self.form.degree}:coeffs={coeffs}"
        if self.kind == "height":
            return f"height:p={self.prime}"
        return self.kind

    def dt_dlogT(self) -> float:
        """Asymptotic derivative of the native t-parameter w.r.t. log T.

        T-scale gauges use t = log T directly; the hyperbolic gauge satisfies
        t = arccosh(T^2/2) ~ 2 log T against the Frobenius threshold T.
        """
        return 2.0 if self.kind == "hyperbolic" else 1.0

    def threshold_to_t(self, threshold: float) -> float:
        """Native-t value of a threshold in the gauge's declared scale."""
        if self.scale == "t":
            return threshold
        if threshold <= 0:
            raise SpecError(f"T-scale threshold must be positive, got {threshold}")
        return math.log(threshold)

    def cartan_radius(self, threshold: float) -> float:
        """Hyperbolic radius of the sublevel set (bi-K-invariant, SL(2) rule).

        The Frobenius ball |g| <= T meets the Cartan ray at arccosh(T^2/2);
        the hyperbolic gauge is already the radius.
        """
        if not self.bi_K_invariant:
            raise SpecError("Cartan radius needs a bi-K-invariant gauge")
        if self.kind == "hyperbolic":
            return float(threshold)
        T = float(threshold)
        if T * T <= 2.0:
            return 0.0
        return math.acosh(T * T / 2.0)


def rnorm_gauge(r: float) -> Gauge:
    if not (r >= 1):
        raise SpecError(f"rnorm needs r >= 1, got {r}")
    return Gauge(kind="rnorm", r=float(r))


def hyperbolic_gauge() -> Gauge:
    return Gauge(kind="hyperbolic")


def rep_form_gauge(form: BinaryForm) -> Gauge:
    if not form.is_definite():
        raise SpecError("rep_form gauge needs a definite form (no real zero)")
    return Gauge(kind="rep_form", form=form)


def height_gauge(p: int) -> Gauge:
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise SpecError(f"height gauge needs a prime, got {p}")
    return Gauge(kind="height", prime=p)


def parse_gauge(spec: str) -> Gauge:
    """Parse a CLI gauge string: rnorm:2, rnorm:inf, hyperbolic,
    form:deg=4:coeffs=1,0,0,0,1, height:p=2."""
    parts = spec.strip().split(":")
    try:
        if parts[0] == "rnorm" and len(parts) == 2:
            r = math.inf if parts[1] == "inf" else float(parts[1])
            return rnorm_gauge(r)
        if parts[0] == "hyperbolic" and len(parts) == 1:
            return hyperbolic_gauge()
        if parts[0] == "form" and len(parts) == 3:
            kv = dict(p.split("=", 1) for p in parts[1:])
            deg = int(kv["deg"])
            coeffs = tuple(int(c) for c in kv["coeffs"].split(","))
            return rep_form_gauge(BinaryForm(deg, coeffs))
        if parts[0] == "height" and len(parts) == 2 and parts[1].startswith("p="):
            return height_gauge(int(parts[1][2:]))
    except (KeyError, ValueError) as exc:
        raise SpecError(f"malformed gauge spec {spec!r}") from exc
    raise SpecError(f"unknown gauge spec {spec!r}")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def gauge_eval(gauge: Gauge, g: GroupElement) -> float:
    """Gauge value of a group element, as a float (exact internals where possible)."""
    if gauge.kind == "rnorm":
        flat = g.entries_flat()
        denom = float(g.prime) ** g.p_power if g.p_power else 1.0
        r = gauge.r
        if math.isinf(r):
            return max(abs(e) for e in flat) / denom
        if r == 2:
            return math.sqrt(float(g.frobenius_sq()))
        if r == 1:
            return sum(abs(e) for e in flat) / denom
        return sum((abs(e) / denom) ** r for e in flat) ** (1.0 / r)
    if gauge.kind == "hyperbolic":
        _require_integral_2x2(g, "hyperbolic gauge")
        return math.acosh(max(1.0, float(g.frobenius_sq()) / 2.0))
    if gauge.kind == "rep_form":
        _require_integral_2x2(g, "rep_form gauge")
        return math.sqrt(float(form_norm_sq(forms_substitute(gauge.form, g))))
    if gauge.kind == "height":
        _require_height_element(gauge, g)
        # H(g) = ||g||_F * |g|_p = ||A||_F for the canonical representation p^{-k} A
        return math.sqrt(float(sum(e * e for e in g.entries_flat())))
    raise SpecError(f"unknown gauge kind {gauge.kind!r}")


_KIND_KEY_NORMS = {"rep_form": "form", "hyperbolic": "sq", "height": "sq"}


def key_norm(gauge: Gauge) -> str | None:
    """Which integer key of the entries decides gauge <= threshold, or None.

    "sq" sum e^2 (rnorm:2, hyperbolic, height), "abs" sum |e| (r = 1), "max"
    max |e| (r = inf), "pow" sum |e|^r (any other integer r), "form" form_key
    (rep_form); None for fractional r, which has no integer key.
    """
    if gauge.kind != "rnorm":
        return _KIND_KEY_NORMS.get(gauge.kind)
    r = gauge.r
    if math.isinf(r):
        return "max"
    if r in (1, 2):
        return "abs" if r == 1 else "sq"
    return "pow" if r == int(r) else None


def _key(gauge: Gauge, norm: str, flat: Sequence[int]) -> int:
    """The key of the entries flat; norm = key_norm(gauge), not "form"."""
    if norm == "sq":
        return sum(e * e for e in flat)
    if norm == "max":
        return max(abs(e) for e in flat)
    r = int(gauge.r)
    return sum(abs(e) ** r for e in flat)


@lru_cache(maxsize=4096)
def gauge_cap(gauge: Gauge, threshold: float, level: int = 1) -> int | None:
    """Largest integer key inside the closed ball gauge <= threshold, or None.

    For an integer-keyed gauge, gauge(g) <= threshold holds exactly when the
    key of g's integer entries is at most this cap: sum e^2 against T^2
    (rnorm:2, height) or 2 cosh t (hyperbolic), sum |e|^r against T^r, max |e|
    against T, sum (L / binom(n, i)) c_i^2 against L T^2 (rep_form, L the lcm
    of the binomials, c the substituted coefficients).  level = p^k scales an
    r-norm threshold for an element p^{-k} A.  None for fractional r; -1 (the
    empty ball) below 0.
    """
    norm = key_norm(gauge)
    if norm is None:
        return None
    if threshold < 0:
        return -1
    if gauge.kind == "hyperbolic":
        return math.floor(2.0 * math.cosh(threshold))
    if norm == "form":
        lcm = _form_weights(gauge.form.degree)[0]
        return math.floor(lcm * Fraction(threshold) ** 2)
    thr = Fraction(threshold) * level
    if norm == "max":
        return math.floor(thr)
    return math.floor(thr ** (2 if norm == "sq" else int(gauge.r)))


def gauge_key(gauge: Gauge, g: GroupElement) -> int | None:
    """Key with gauge(g) <= T iff key <= gauge_cap(gauge, T), or None.

    None where no cap shared by all elements exists: gauges without an integer
    key, and r-norms of elements with a p-power denominator (their cap depends
    on the level).  Elements the gauge does not measure raise as in gauge_eval.
    """
    norm = key_norm(gauge)
    if norm is None:
        return None
    if norm == "form":
        _require_integral_2x2(g, "rep_form gauge")
        (a, b), (c, d) = g.entries
        return form_key(gauge.form, a, b, c, d)
    if gauge.kind == "hyperbolic":
        _require_integral_2x2(g, "hyperbolic gauge")
    elif gauge.kind == "height":
        _require_height_element(gauge, g)
    elif g.p_power:
        return None
    return _key(gauge, norm, g.entries_flat())


def gauge_leq(gauge: Gauge, g: GroupElement, threshold: float) -> bool:
    """Exact closed-sublevel test gauge(g) <= threshold (integer or rational comparisons)."""
    norm = key_norm(gauge)
    if norm == "form":
        _require_integral_2x2(g, "rep_form gauge")
        norm_sq = form_norm_sq(forms_substitute(gauge.form, g))
        return threshold >= 0 and norm_sq <= Fraction(threshold) ** 2
    if norm is None:
        return gauge_eval(gauge, g) <= threshold
    if gauge.kind == "hyperbolic":
        _require_integral_2x2(g, "hyperbolic gauge")
    elif gauge.kind == "height":
        _require_height_element(gauge, g)
    level = g.prime ** g.p_power if gauge.kind == "rnorm" and g.p_power else 1
    return _key(gauge, norm, g.entries_flat()) <= gauge_cap(gauge, threshold, level)


def gauge_eval_real(gauge: Gauge, mat: Sequence[Sequence[float]]) -> float:
    """Hyperbolic gauge value of a real 2x2 matrix (the admissibility product check)."""
    if gauge.kind == "hyperbolic":
        flat = [mat[0][0], mat[0][1], mat[1][0], mat[1][1]]
        return math.acosh(max(1.0, sum(e * e for e in flat) / 2.0))
    raise SpecError(f"real-matrix evaluation unsupported for gauge {gauge.kind!r}")


def _require_integral_2x2(g: GroupElement, what: str) -> None:
    if g.n != 2 or g.p_power != 0:
        raise SpecError(f"{what} needs an integral 2x2 element, got n={g.n}, k={g.p_power}")


def _require_height_element(gauge: Gauge, g: GroupElement) -> None:
    if g.n != 2:
        raise SpecError("height gauge is implemented for n = 2")
    if g.p_power > 0 and gauge.prime != g.prime:
        raise SpecError(f"height prime {gauge.prime} != element prime {g.prime}")


# ---------------------------------------------------------------------------
# entry bounds
# ---------------------------------------------------------------------------

def entry_bound(gauge: Gauge, threshold: float) -> int:
    """A sound bound B: every element with gauge <= threshold has all |entries| <= B."""
    if gauge.kind == "rnorm":
        if threshold < 0:
            return 0
        return math.floor(threshold)
    if gauge.kind == "hyperbolic":
        if threshold < 0:
            return 0
        return math.floor(math.sqrt(2.0 * math.cosh(threshold)))
    if gauge.kind == "rep_form":
        if threshold <= 0:
            return 0
        f = gauge.form
        if not f.is_definite():
            raise SpecError("entry bound undefined: form vanishes on the circle")
        mu = unit_circle_min(f)
        n = f.degree
        # |f0(u gamma)| >= mu ||u gamma||^n and sup-circle |sigma(gamma) f0| <=
        # sqrt(n+1) * coefficient norm, so ||gamma||_op^n <= sqrt(n+1) T / mu.
        return math.ceil((math.sqrt(n + 1) * threshold / mu) ** (1.0 / n))
    if gauge.kind == "height":
        if threshold < 0:
            return 0
        return math.floor(threshold)
    raise SpecError(f"no entry bound for gauge kind {gauge.kind!r}")
