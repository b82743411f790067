"""Exact arithmetic in cyclotomic fields.

An element of Q(zeta_n) is stored as a length-n coefficient vector over the
spanning set {zeta_n^k : 0 <= k < n}, canonically reduced modulo the n-th
cyclotomic polynomial.  The full power basis is deliberately kept (no
primitive-basis minimization): reduction mod Phi_n leaves coefficients only
in degrees below phi(n), equality at a fixed conductor is a plain tuple
comparison, and mixed conductors are compared after lifting to the lcm.
Adequate and simple for the small conductors that arise from finite groups
of modest order.

No floating point anywhere; coefficients are fractions.Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction]


def _divide_exact(num: list[int], den: Sequence[int]) -> list[int]:
    """Exact division of integer polynomials (ascending coefficients, monic divisor)."""
    num = list(num)
    dn = len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    quot = [0] * (len(num) - dn)
    for i in range(len(quot) - 1, -1, -1):
        c = num[i + dn]
        quot[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num):
        raise ValueError("division not exact")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree, computed by the
    classical recursion Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d."""
    if n < 1:
        raise ValueError("conductor must be positive")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _divide_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_tail(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """deg Phi_n and the nonzero (power, coefficient) pairs below the
    leading term."""
    phi = cyclotomic_polynomial(n)
    return len(phi) - 1, tuple((j, pj) for j, pj in enumerate(phi[:-1]) if pj)


def reduce_mod_phi(n: int, folded: list) -> list:
    """Reduce a length-n vector over {zeta_n^k} modulo Phi_n, in place.

    The entries may be ints or Fractions; the result keeps only degrees below
    phi(n) and is the canonical representative of the same element.
    """
    deg, tail = _phi_tail(n)
    for i in range(n - 1, deg - 1, -1):
        c = folded[i]
        if c:
            folded[i] = 0 * c
            base = i - deg
            for j, pj in tail:
                folded[base + j] -= c * pj
    return folded


def _reduce(n: int, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    """Canonical representative: fold powers mod n, then reduce mod Phi_n."""
    folded = [Fraction(0)] * n
    for k, c in enumerate(coeffs):
        if c:
            folded[k % n] += c
    return tuple(reduce_mod_phi(n, folded))


@lru_cache(maxsize=None)
def _subfield_basis(d: int, m: int) -> tuple[tuple[int, tuple, tuple], ...]:
    """The power basis zeta_d^k (k < phi(d)) of Q(zeta_d), lifted into
    Q(zeta_m) and brought to echelon form: one (pivot, row, combination)
    triple per basis element, the row being 1 at its pivot and 0 at every
    earlier pivot, the combination its coefficients over the basis."""
    deg = len(cyclotomic_polynomial(d)) - 1
    rows: list[tuple[int, tuple, tuple]] = []
    for k in range(deg):
        vec = list(Cyc.zeta(d, k).lift(m).coeffs)
        comb = [Fraction(int(i == k)) for i in range(deg)]
        for p, row, rcomb in rows:
            c = vec[p]
            if c:
                vec = [a - c * b for a, b in zip(vec, row)]
                comb = [a - c * b for a, b in zip(comb, rcomb)]
        p = next(i for i, c in enumerate(vec) if c)
        inv = 1 / vec[p]
        rows.append((p, tuple(a * inv for a in vec), tuple(a * inv for a in comb)))
    return tuple(rows)


class Cyc:
    """One exact cyclotomic scalar.

    Attributes:
        n: conductor (the element lives in Q(zeta_n)).
        coeffs: length-n tuple of Fractions, canonically reduced.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Iterable[Rat]):
        if n < 1:
            raise ValueError("conductor must be positive")
        object.__setattr__(self, "n", n)
        vals = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        object.__setattr__(self, "coeffs", _reduce(n, vals))

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(value: Rat, n: int = 1) -> "Cyc":
        return Cyc(n, [value] + [0] * (n - 1))

    @staticmethod
    def zeta(n: int, power: int = 1) -> "Cyc":
        coeffs = [Fraction(0)] * n
        coeffs[power % n] = Fraction(1)
        return Cyc(n, coeffs)

    @staticmethod
    def zero(n: int = 1) -> "Cyc":
        return Cyc.rational(0, n)

    @staticmethod
    def one(n: int = 1) -> "Cyc":
        return Cyc.rational(1, n)

    # -- conductor handling -------------------------------------------

    def lift(self, m: int) -> "Cyc":
        """Re-express at conductor m (requires n | m)."""
        if m % self.n != 0:
            raise ValueError(f"cannot lift conductor {self.n} into {m}")
        if m == self.n:
            return self
        step = m // self.n
        coeffs = [Fraction(0)] * m
        for k, c in enumerate(self.coeffs):
            coeffs[k * step] = c
        return Cyc(m, coeffs)

    def _align(self, other: "Cyc") -> tuple["Cyc", "Cyc"]:
        if self.n == other.n:
            return self, other
        m = lcm(self.n, other.n)
        return self.lift(m), other.lift(m)

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(value) -> "Cyc | None":
        if isinstance(value, Cyc):
            return value
        if isinstance(value, (int, Fraction)):
            return Cyc.rational(value)
        return None

    def __add__(self, other) -> "Cyc":
        other = Cyc._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._align(other)
        return Cyc(a.n, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> "Cyc":
        return Cyc(self.n, [-c for c in self.coeffs])

    def __sub__(self, other) -> "Cyc":
        other = Cyc._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Cyc":
        other = Cyc._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Cyc":
        other = Cyc._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._align(other)
        n = a.n
        prod = [Fraction(0)] * n
        for i, ci in enumerate(a.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(b.coeffs):
                if cj:
                    prod[(i + j) % n] += ci * cj
        return Cyc(n, prod)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Cyc":
        if isinstance(other, Cyc):
            q = other.as_rational()
            if q is None:
                raise ValueError("division only by rational scalars")
            other = q
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError
            return Cyc(self.n, [c / other for c in self.coeffs])
        return NotImplemented

    def conj(self) -> "Cyc":
        """Complex conjugation, zeta_n -> zeta_n^(n-1)."""
        return self.galois(-1)

    def galois(self, t: int) -> "Cyc":
        """The automorphism zeta_n -> zeta_n^t (t must be prime to n)."""
        from math import gcd

        if gcd(t, self.n) != 1:
            raise ValueError(f"{t} is not invertible mod {self.n}")
        coeffs = [Fraction(0)] * self.n
        for k, c in enumerate(self.coeffs):
            if c:
                coeffs[(k * t) % self.n] += c
        return Cyc(self.n, coeffs)

    # -- predicates and conversions -----------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction if it is rational, else None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def as_integer(self) -> int:
        """The value as an int; raises if it is not a rational integer."""
        q = self.as_rational()
        if q is None or q.denominator != 1:
            raise ValueError(f"not a rational integer: {self!r}")
        return q.numerator

    def descend(self, d: int) -> "Cyc | None":
        """The same value at conductor d if it lies in Q(zeta_d), else None."""
        m = lcm(self.n, d)
        basis = _subfield_basis(d, m)
        residual = list(self.lift(m).coeffs)
        coeffs = [Fraction(0)] * len(basis)
        for p, row, comb in basis:
            c = residual[p]
            if c:
                residual = [a - c * b for a, b in zip(residual, row)]
                coeffs = [a + c * b for a, b in zip(coeffs, comb)]
        return None if any(residual) else Cyc(d, coeffs)

    def key(self, conductor: int | None = None) -> tuple[Fraction, ...]:
        """Total-order key: the canonical coefficient tuple at `conductor`
        (default: own conductor).  Used for deterministic sorting."""
        c = self if conductor is None else self.lift(conductor)
        return c.coeffs

    def __eq__(self, other) -> bool:
        other = Cyc._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._align(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # mutable-free but unhashable by design; compare, do not key

    def __repr__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                mag = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                terms.append(f"{mag}z{self.n}^{k}" if k > 1 else f"{mag}z{self.n}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def cyc_sum(values: Iterable[Cyc], n: int = 1) -> Cyc:
    total = Cyc.zero(n)
    for v in values:
        total = total + v
    return total
