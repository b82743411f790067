"""Exact arithmetic in cyclotomic fields.

An element of Q(zeta_n) is stored as integers: a length-n numerator vector
`num` over the spanning set {zeta_n^k : 0 <= k < n}, canonically reduced
modulo the n-th cyclotomic polynomial, over one common denominator `den` > 0
with gcd(den, num) = 1 (so zero has den = 1).  The full power basis is
deliberately kept (no primitive-basis minimization): reduction mod Phi_n
leaves coefficients only in degrees below phi(n), equality at a fixed
conductor is a plain comparison of (num, den), and mixed conductors are
compared after lifting to the lcm.  Adequate and simple for the small
conductors that arise from finite groups of modest order.

No floating point anywhere.  Arithmetic, lifting, the Galois action and
descent to a subfield run on Python ints; `coeffs` gives the coefficients
as fractions.Fraction for readers that want them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
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


def reduce_mod_phi(n: int, folded: list[int]) -> list[int]:
    """Reduce a length-n integer vector over {zeta_n^k} modulo Phi_n, in
    place; the result keeps only degrees below phi(n) and is the canonical
    representative of the same element."""
    deg, tail = _phi_tail(n)
    for i in range(n - 1, deg - 1, -1):
        c = folded[i]
        if c:
            folded[i] = 0
            base = i - deg
            for j, pj in tail:
                folded[base + j] -= c * pj
    return folded


@lru_cache(maxsize=None)
def reduced_roots(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """zeta_n^e reduced mod Phi_n, for e = 0 .. n-1, each as its nonzero
    (power, coefficient) pairs.  Reduction is linear, so sum_e m_e zeta_n^e
    is reduced as the sum of m_e times these rows, with no reduction of its
    own."""
    rows = []
    for e in range(n):
        num = [0] * n
        num[e] = 1
        rows.append(tuple((k, c) for k, c in enumerate(reduce_mod_phi(n, num)) if c))
    return tuple(rows)


@lru_cache(maxsize=None)
def zeta_powers(n: int) -> tuple["Cyc", ...]:
    """zeta_n^e for e = 0 .. n-1, built once per n.  No operation changes a
    Cyc in place, so tables share these values."""
    return tuple(Cyc.zeta(n, e) for e in range(n))


@lru_cache(maxsize=None)
def _subfield_basis(d: int, m: int) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
    """The power basis zeta_d^k (k < phi(d)) of Q(zeta_d), lifted into
    Q(zeta_m) and brought to echelon form over Z without division: one
    (pivot, row, combination) triple per basis element, the row an integer
    vector that is nonzero at its pivot and 0 at every earlier pivot, the
    combination its integer coefficients over the basis.  Pivots are
    mostly 1, but not always (Phi_105 has a coefficient -2)."""
    deg = len(cyclotomic_polynomial(d)) - 1
    rows: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []
    for k in range(deg):
        vec = list(Cyc.zeta(d, k).lift(m).num)
        comb = [int(i == k) for i in range(deg)]
        for p, row, rcomb in rows:
            c = vec[p]
            if c:
                pv = row[p]
                vec = [pv * a - c * b for a, b in zip(vec, row)]
                comb = [pv * a - c * b for a, b in zip(comb, rcomb)]
        g = gcd(*vec, *comb)
        p = next(i for i, c in enumerate(vec) if c)
        rows.append((p, tuple(a // g for a in vec), tuple(a // g for a in comb)))
    return tuple(rows)


class Cyc:
    """One exact cyclotomic scalar.

    Attributes:
        n: conductor (the element lives in Q(zeta_n)).
        num: length-n tuple of ints, canonically reduced mod Phi_n.
        den: positive int, coprime to the entries of num; the value is
            sum_k (num[k] / den) zeta_n^k.
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coeffs: Iterable[Rat]):
        if n < 1:
            raise ValueError("conductor must be positive")
        vals = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = lcm(1, *(c.denominator for c in vals))
        folded = [0] * n
        for k, c in enumerate(vals):
            if c:
                folded[k % n] += c.numerator * (den // c.denominator)
        self.n = n
        self.num, self.den = _canonical(n, folded, den)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_ints(n: int, num: list[int], den: int = 1) -> "Cyc":
        """The element sum_k (num[k] / den) zeta_n^k, for a length-n integer
        vector num (reduced here, in place) and an integer den > 0."""
        c = object.__new__(Cyc)
        c.n = n
        c.num, c.den = _canonical(n, num, den)
        return c

    @staticmethod
    def from_reduced(n: int, num: Sequence[int]) -> "Cyc":
        """The algebraic integer sum_k num[k] zeta_n^k, for a length-n
        integer vector num that is already reduced mod Phi_n: kept as it
        is, with no reduction."""
        c = object.__new__(Cyc)
        c.n, c.num, c.den = n, tuple(num), 1
        return c

    @staticmethod
    def rational(value: Rat, n: int = 1) -> "Cyc":
        q = value if isinstance(value, (int, Fraction)) else Fraction(value)
        num = [0] * n
        num[0] = q.numerator
        return Cyc.from_ints(n, num, q.denominator)

    @staticmethod
    def zeta(n: int, power: int = 1) -> "Cyc":
        num = [0] * n
        num[power % n] = 1
        return Cyc.from_ints(n, num)

    @staticmethod
    def zero(n: int = 1) -> "Cyc":
        return Cyc.rational(0, n)

    @staticmethod
    def one(n: int = 1) -> "Cyc":
        return Cyc.rational(1, n)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The canonical coefficients num[k] / den as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- conductor handling -------------------------------------------

    def lift(self, m: int) -> "Cyc":
        """Re-express at conductor m (requires n | m)."""
        if m % self.n != 0:
            raise ValueError(f"cannot lift conductor {self.n} into {m}")
        if m == self.n:
            return self
        step = m // self.n
        num = [0] * m
        for k, c in enumerate(self.num):
            num[k * step] = c
        return Cyc.from_ints(m, num, self.den)

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
        da, db = a.den, b.den
        return Cyc.from_ints(a.n, [x * db + y * da for x, y in zip(a.num, b.num)], da * db)

    __radd__ = __add__

    def __neg__(self) -> "Cyc":
        return Cyc.from_ints(self.n, [-x for x in self.num], self.den)

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
        bterms = [(j, y) for j, y in enumerate(b.num) if y]
        prod = [0] * n
        for i, x in enumerate(a.num):
            if x:
                for j, y in bterms:
                    prod[(i + j) % n] += x * y
        return Cyc.from_ints(n, prod, a.den * b.den)

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
            sign = 1 if other > 0 else -1
            scale = sign * other.denominator
            return Cyc.from_ints(
                self.n, [c * scale for c in self.num], self.den * sign * other.numerator
            )
        return NotImplemented

    def conj(self) -> "Cyc":
        """Complex conjugation, zeta_n -> zeta_n^(n-1)."""
        return self.galois(-1)

    def galois(self, t: int) -> "Cyc":
        """The automorphism zeta_n -> zeta_n^t (t must be prime to n)."""
        n = self.n
        if gcd(t, n) != 1:
            raise ValueError(f"{t} is not invertible mod {n}")
        num = [0] * n
        for k, c in enumerate(self.num):
            if c:
                num[(k * t) % n] = c
        return Cyc.from_ints(n, num, self.den)

    # -- predicates and conversions -----------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction if it is rational, else None."""
        if any(self.num[1:]):
            return None
        return Fraction(self.num[0], self.den)

    def as_integer(self) -> int:
        """The value as an int; raises if it is not a rational integer."""
        q = self.as_rational()
        if q is None or q.denominator != 1:
            raise ValueError(f"not a rational integer: {self!r}")
        return q.numerator

    def descend(self, d: int) -> "Cyc | None":
        """The same value at conductor d if it lies in Q(zeta_d), else None.

        Eliminates against `_subfield_basis` without division, keeping
        scale * num = residual + sum_k coeffs[k] zeta_d^k throughout."""
        m = lcm(self.n, d)
        basis = _subfield_basis(d, m)
        residual = list(self.lift(m).num)
        coeffs = [0] * len(basis)
        scale = 1
        for p, row, comb in basis:
            c = residual[p]
            if c:
                pv = row[p]
                residual = [pv * a - c * b for a, b in zip(residual, row)]
                coeffs = [pv * a + c * b for a, b in zip(coeffs, comb)]
                scale *= pv
        if any(residual):
            return None
        if scale < 0:
            coeffs, scale = [-c for c in coeffs], -scale
        return Cyc.from_ints(d, coeffs + [0] * (d - len(coeffs)), self.den * scale)

    def key(self, conductor: int | None = None) -> tuple[Rat, ...]:
        """Total-order key: the canonical coefficients at `conductor`
        (default: own conductor), ints when the denominator is 1 and
        Fractions otherwise, which sort alike.  Used for deterministic
        sorting."""
        c = self if conductor is None else self.lift(conductor)
        return c.num if c.den == 1 else c.coeffs

    def __eq__(self, other) -> bool:
        other = Cyc._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._align(other)
        return a.den == b.den and a.num == b.num

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


def _canonical(n: int, num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """(num, den) in canonical form: num folded to length n is reduced mod
    Phi_n in place, then num and den > 0 are divided by their gcd."""
    reduce_mod_phi(n, num)
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return tuple(c // g for c in num), den // g
    return tuple(num), den
