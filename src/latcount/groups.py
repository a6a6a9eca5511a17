"""Exact arithmetic on group elements: unimodular integer matrices, optionally
carrying a p-power denominator for the S-arithmetic case.

An element is stored as an integer matrix A together with an exponent k >= 0 and
a prime p, and represents p^{-k} * A.  The canonical form keeps k maximal subject
to at least one entry of A being coprime to p, and det A = p^{n*k} always holds
(so det = 1 for ordinary lattice elements with k = 0).  All arithmetic is exact;
no floating point ever enters a group element.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import SpecError

__all__ = [
    "GroupElement",
    "ResidueClass",
    "GroupDescriptor",
    "GROUPS",
    "resolve_group",
    "group_mul",
    "group_inv",
    "reduce_mod",
    "denominator_scale",
    "padic_abs",
    "int_det",
    "adjugate",
    "ext_gcd",
    "standard_generators",
]

Rows = Sequence[Sequence[int]]


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b) and g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def int_det(rows: Rows) -> int:
    """Exact determinant of a small integer matrix (Laplace expansion)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in (list(r) for r in rows[1:])]
        total += (-1) ** j * rows[0][j] * int_det(minor)
    return total


def adjugate(rows: Rows) -> tuple[tuple[int, ...], ...]:
    """Adjugate (transposed cofactor) matrix, so rows @ adjugate = det * I."""
    n = len(rows)
    if n == 1:
        return ((1,),)
    if n == 2:
        (a, b), (c, d) = rows
        return ((d, -b), (-c, a))
    adj = [[0] * n for _ in range(n)]
    mat = [list(r) for r in rows]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(mat) if k != i]
            adj[j][i] = (-1) ** (i + j) * int_det(minor)
    return tuple(tuple(r) for r in adj)


@dataclass(frozen=True)
class GroupElement:
    """Exact group element p^{-p_power} * entries with det(entries) = p^{n*p_power}.

    entries is an n x n tuple-of-tuples of Python integers (arbitrary precision).
    prime is None exactly when p_power == 0 and the element carries no
    S-arithmetic context.
    """

    entries: tuple[tuple[int, ...], ...]
    prime: int | None = None
    p_power: int = 0

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n < 1 or any(len(row) != n for row in self.entries):
            raise SpecError(f"entries must be square, got {self.entries!r}")
        if self.p_power < 0:
            raise SpecError(f"p_power must be >= 0, got {self.p_power}")
        if self.p_power > 0:
            if self.prime is None or self.prime < 2:
                raise SpecError("elements with p_power > 0 need a prime >= 2")
            if all(e % self.prime == 0 for row in self.entries for e in row):
                raise SpecError("non-canonical element: all entries divisible by p")
        expected = (self.prime ** (n * self.p_power)) if self.p_power else 1
        d = int_det(self.entries)
        if d != expected:
            raise SpecError(f"determinant {d} != p^(n*k) = {expected}")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Rows, prime: int | None = None, p_power: int = 0) -> "GroupElement":
        """Build an element from integer rows, extracting the maximal p-power."""
        mat = [[int(e) for e in row] for row in rows]
        k = p_power
        if k > 0:
            if prime is None or prime < 2:
                raise SpecError("p_power > 0 requires a prime")
            while k > 0 and all(e % prime == 0 for row in mat for e in row):
                mat = [[e // prime for e in row] for row in mat]
                k -= 1
        return cls(tuple(tuple(row) for row in mat), prime=prime, p_power=k)

    @classmethod
    def identity(cls, n: int, prime: int | None = None) -> "GroupElement":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)),
                   prime=prime, p_power=0)

    # -- basic queries --------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.entries)

    def entries_flat(self) -> tuple[int, ...]:
        return sum(self.entries, ())

    def is_identity(self) -> bool:
        return self.p_power == 0 and all(
            e == (1 if i == j else 0) for i, row in enumerate(self.entries) for j, e in enumerate(row)
        )

    def frobenius_sq(self) -> Fraction:
        """Exact squared Frobenius norm of the represented matrix p^{-k} A."""
        s = sum(e * e for e in self.entries_flat())
        if self.p_power == 0:
            return Fraction(s)
        return Fraction(s, self.prime ** (2 * self.p_power))

    def sort_key(self) -> tuple:
        """Canonical ordering key: p_power first, then entries row-major."""
        return (self.p_power, self.entries_flat())

    # -- text encoding --------------------------------------------------------

    def encode(self) -> str:
        flat = ",".join(str(e) for e in self.entries_flat())
        return f"{self.n};{self.p_power};{flat}"

    @classmethod
    def decode(cls, text: str, prime: int | None = None) -> "GroupElement":
        try:
            n_str, k_str, flat = text.split(";")
            n, k = int(n_str), int(k_str)
            vals = [int(v) for v in flat.split(",")]
        except ValueError as exc:
            raise SpecError(f"malformed element encoding {text!r}") from exc
        if len(vals) != n * n:
            raise SpecError(f"encoding {text!r} has {len(vals)} entries, expected {n * n}")
        rows = [vals[i * n:(i + 1) * n] for i in range(n)]
        if k > 0 and prime is None:
            d = int_det(rows)
            prime = _nth_root_exact(d, n * k)
            if prime is None:
                raise SpecError(f"cannot infer prime from det {d} with n={n}, k={k}")
        return cls(tuple(tuple(r) for r in rows), prime=prime, p_power=k)


def _nth_root_exact(value: int, order: int) -> int | None:
    """Exact integer order-th root of value, or None."""
    if value < 2 or order < 1:
        return None
    root = round(value ** (1.0 / order))
    for cand in (root - 1, root, root + 1):
        if cand >= 2 and cand ** order == value:
            return cand
    return None


@dataclass(frozen=True)
class ResidueClass:
    """Residue of a group element mod q: integer entries in [0, q) with det = 1 mod q."""

    q: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.q < 2:
            raise SpecError(f"modulus must be >= 2, got {self.q}")
        if any(not 0 <= e < self.q for row in self.entries for e in row):
            raise SpecError("residue entries must lie in [0, q)")
        if int_det(self.entries) % self.q != 1 % self.q:
            raise SpecError("residue determinant is not 1 mod q")

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, n: int, q: int) -> "ResidueClass":
        return cls(q, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __mul__(self, other: "ResidueClass") -> "ResidueClass":
        if self.q != other.q or self.n != other.n:
            raise SpecError("residue classes with mismatched modulus or dimension")
        n, q = self.n, self.q
        prod = tuple(
            tuple(sum(self.entries[i][k] * other.entries[k][j] for k in range(n)) % q
                  for j in range(n))
            for i in range(n)
        )
        return ResidueClass(q, prod)

    def sort_key(self) -> tuple[int, ...]:
        return tuple(e for row in self.entries for e in row)


def _check_same_context(a: GroupElement, b: GroupElement) -> int | None:
    if a.n != b.n:
        raise SpecError(f"dimension mismatch: {a.n} vs {b.n}")
    if a.prime is not None and b.prime is not None and a.prime != b.prime:
        raise SpecError(f"prime mismatch: {a.prime} vs {b.prime}")
    return a.prime if a.prime is not None else b.prime


def group_mul(a: GroupElement, b: GroupElement) -> GroupElement:
    """Exact product, re-canonicalized so the maximal p-power stays extracted."""
    prime = _check_same_context(a, b)
    n = a.n
    rows = [[sum(a.entries[i][k] * b.entries[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    return GroupElement.from_rows(rows, prime=prime, p_power=a.p_power + b.p_power)


def group_inv(a: GroupElement) -> GroupElement:
    """Exact inverse.  (p^{-k}A)^{-1} = p^{-(n-1)k} adj(A), integral by the invariant."""
    adj = adjugate(a.entries)
    return GroupElement.from_rows(adj, prime=a.prime, p_power=(a.n - 1) * a.p_power)


def denominator_scale(denom: int, q: int) -> int:
    """The inverse of denom mod q, which an element's 1/denom = p^{-k} reduces to."""
    if gcd(denom, q) != 1:
        raise SpecError(f"cannot reduce mod {q}: shares a factor with the denominator {denom}")
    return pow(denom, -1, q)


def reduce_mod(a: GroupElement, q: int) -> ResidueClass:
    """Entrywise reduction mod q, with p^{-k} replaced by the inverse of p^k mod q."""
    if q < 2:
        raise SpecError(f"modulus must be >= 2, got {q}")
    scale = denominator_scale(a.prime ** a.p_power if a.p_power else 1, q)
    rows = tuple(tuple((e * scale) % q for e in row) for row in a.entries)
    return ResidueClass(q, rows)


def padic_abs(a: GroupElement | Rows, p: int | None = None) -> Fraction:
    """p-adic max-norm |p^{-k} A|_p = p^k * max |a_ij|_p, with |p|_p = 1/p.

    Accepts either a GroupElement (p optional if the element carries a prime)
    or a plain integer matrix (p required, k taken as 0).
    """
    if isinstance(a, GroupElement):
        if a.prime is not None:
            if p is not None and p != a.prime:
                raise SpecError(f"prime mismatch: element has {a.prime}, asked for {p}")
            p = a.prime
        if p is None:
            raise SpecError("padic_abs needs a prime for elements without one")
        flat = a.entries_flat()
        k = a.p_power
    else:
        if p is None:
            raise SpecError("padic_abs on a raw matrix needs an explicit prime")
        flat = tuple(int(e) for row in a for e in row)
        k = 0
    if p < 2:
        raise SpecError(f"prime must be >= 2, got {p}")
    if all(e == 0 for e in flat):
        raise SpecError("p-adic absolute value of the zero matrix")
    v_min = min(_valuation(e, p) for e in flat if e != 0)
    return Fraction(p ** k, p ** v_min)


def _valuation(m: int, p: int) -> int:
    v = 0
    m = abs(m)
    while m % p == 0:
        m //= p
        v += 1
    return v


@dataclass(frozen=True)
class GroupDescriptor:
    """Static facts about a supported lattice used across modules.

    center_order is the number of lattice elements acting trivially on the
    symmetric space (2 for SL2 because of -I, 1 for SL3); counts are compared
    against center_order times the projective-group volume.
    """

    name: str
    n: int
    s_arithmetic: bool
    center_order: int


GROUPS: dict[str, GroupDescriptor] = {
    "sl2z": GroupDescriptor("sl2z", 2, False, 2),
    "sl3z": GroupDescriptor("sl3z", 3, False, 1),
    "sl2z1p": GroupDescriptor("sl2z1p", 2, True, 2),
}


def resolve_group(name: str) -> GroupDescriptor:
    try:
        return GROUPS[name]
    except KeyError:
        raise SpecError(f"unknown group {name!r}; supported: {sorted(GROUPS)}") from None


def standard_generators(n: int) -> tuple[GroupElement, ...]:
    """Standard generating set of SL_n(Z) used by property tests (n = 2 or 3)."""
    if n == 2:
        return (
            GroupElement.from_rows([[1, 1], [0, 1]]),
            GroupElement.from_rows([[0, -1], [1, 0]]),
        )
    if n == 3:
        gens = []
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                rows = [[1 if a == b else 0 for b in range(3)] for a in range(3)]
                rows[i][j] = 1
                gens.append(GroupElement.from_rows(rows))
        return tuple(gens)
    raise SpecError(f"no standard generators tabulated for n = {n}")
