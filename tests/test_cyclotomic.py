"""Exact cyclotomic arithmetic: ring laws, Galois action, rational detection."""

import random
from fractions import Fraction
from math import gcd

import pytest

from equichi.cyclotomic import Cyc, cyclotomic_polynomial

SAMPLES = [
    Cyc.rational(0),
    Cyc.rational(1),
    Cyc.rational(Fraction(-3, 2)),
    Cyc.zeta(3),
    Cyc.zeta(4),
    Cyc.zeta(5, 2),
    Cyc.zeta(6) + Cyc.rational(2),
    Cyc.zeta(8) - Cyc.zeta(8, 3),
]


def test_ring_laws():
    for a in SAMPLES:
        for b in SAMPLES:
            assert a + b == b + a
            assert a * b == b * a
            for c in SAMPLES:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_additive_and_multiplicative_identities():
    for a in SAMPLES:
        assert a + Cyc.zero(1) == a
        assert a * Cyc.one(1) == a
        assert a - a == Cyc.zero(1)
        assert (a - a).is_zero()
    assert not Cyc.zero() and Cyc.zeta(3)


def test_integer_coercion_in_operators():
    assert Cyc.rational(2) * 3 == Cyc.rational(6)
    assert Cyc.zeta(4) + 1 - 1 == Cyc.zeta(4)
    assert 2 - Cyc.rational(1) == Cyc.rational(1)


def test_root_of_unity_relations():
    # zeta_n^n = 1, realized through repeated multiplication
    for n in [2, 3, 4, 5, 6, 8, 12]:
        z = Cyc.zeta(n)
        acc = Cyc.one(n)
        for _ in range(n):
            acc = acc * z
        assert acc == Cyc.one(1)
    # full vanishing sum for prime conductor
    assert sum(Cyc.zeta(5, k) for k in range(5)).is_zero()
    assert Cyc.zeta(2) == Cyc.rational(-1)


def test_cyclotomic_polynomial_small_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_annihilates_zeta():
    for n in [3, 4, 6, 8, 12]:
        z = Cyc.zeta(n)
        total = Cyc.zero(n)
        power = Cyc.one(n)
        for coeff in cyclotomic_polynomial(n):
            total = total + power * coeff
            power = power * z
        assert total.is_zero()


def test_lift_preserves_value():
    assert Cyc.zeta(3).lift(6) == Cyc.zeta(6, 2)
    assert Cyc.zeta(2).lift(8) == Cyc.rational(-1)
    # equality already aligns conductors
    assert Cyc.rational(1, 1) == Cyc.rational(1, 6)
    assert Cyc.zeta(3) == Cyc.zeta(6, 2)


def test_mixed_conductor_arithmetic():
    # zeta_2 + zeta_3 lives in conductor 6: -1 + (zeta_6 - 1)
    s = Cyc.zeta(2) + Cyc.zeta(3)
    assert s == Cyc.zeta(6) - 2


def test_conjugation():
    z = Cyc.zeta(5)
    assert z.conj() == Cyc.zeta(5, 4)
    assert (z + z.conj()).conj() == z + z.conj()
    for a in SAMPLES:
        assert a.conj().conj() == a
        r = a * a.conj()
        # |a|^2 is fixed by conjugation
        assert r.conj() == r


def test_galois_action():
    z = Cyc.zeta(5)
    assert z.galois(2) == Cyc.zeta(5, 2)
    assert z.galois(2).galois(3) == z.galois(6)
    with pytest.raises(ValueError):
        z.galois(5)  # not coprime to the conductor


def test_rational_detection():
    assert (Cyc.zeta(4) * Cyc.zeta(4)).as_rational() == Fraction(-1)
    assert Cyc.zeta(4).as_rational() is None
    assert Cyc.rational(Fraction(7, 3)).as_rational() == Fraction(7, 3)
    assert Cyc.rational(7, 3).as_integer() == 7
    with pytest.raises(ValueError):
        Cyc.rational(Fraction(1, 2)).as_integer()
    with pytest.raises(ValueError):
        Cyc.zeta(3).as_integer()


def test_division_by_rational_scalars_only():
    assert Cyc.rational(3) / 2 == Cyc.rational(Fraction(3, 2))
    assert (Cyc.zeta(3) * 4) / Fraction(4) == Cyc.zeta(3)
    with pytest.raises(ValueError):
        Cyc.one(1) / Cyc.zeta(5)
    with pytest.raises(ZeroDivisionError):
        Cyc.one(1) / 0


def test_key_agrees_at_a_common_conductor():
    a = Cyc.zeta(3)
    b = Cyc.zeta(6, 2)
    assert a == b
    assert a.key(6) == b.key(6)
    # keys sort rationals the usual way
    assert Cyc.rational(1).key() > Cyc.rational(0).key() > Cyc.rational(-2).key()


def test_descend_inverts_lift_and_detects_the_subfield():
    for d, m in [(1, 6), (3, 6), (6, 12), (4, 8), (5, 10), (15, 30), (12, 24), (7, 21)]:
        for v in SAMPLES + [Cyc.zeta(d) * Fraction(2, 3) + 1]:
            if d % v.n:
                continue
            down = v.lift(m).descend(d)
            assert down is not None and (down.n, down.coeffs) == (d, v.lift(d).coeffs)
    assert Cyc.zeta(6).descend(3) == Cyc.zeta(6)  # Q(zeta_6) = Q(zeta_3)
    assert Cyc.zeta(8).descend(4) is None
    assert Cyc.zeta(3).descend(1) is None
    assert Cyc.rational(Fraction(3, 2), 12).descend(1) == Cyc.rational(Fraction(3, 2))


# ---------------------------------------------------------------------------
# seeded properties of the integer representation against Fraction vectors

# subfields for lift and descend; Phi_105 has a coefficient -2, so
# descending from 210 to 105 meets a pivot that is not 1
SUBFIELDS = [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 20, 21, 30, 105]
# conductors whose pairwise lcm keeps the Fraction convolution quick
SMALL = [1, 2, 3, 4, 5, 6, 8, 10, 12]


def ref_reduce(n, coeffs):
    """Canonical Fraction vector: fold exponents mod n, then reduce mod Phi_n."""
    folded = [Fraction(0)] * n
    for k, c in enumerate(coeffs):
        folded[k % n] += Fraction(c)
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    for i in range(n - 1, deg - 1, -1):
        c = folded[i]
        if c:
            for j, pj in enumerate(phi):
                folded[i - deg + j] -= c * pj
    return tuple(folded)


def ref_lift(n, coeffs, m):
    lifted = [Fraction(0)] * m
    for k, c in enumerate(coeffs):
        lifted[k * (m // n)] += c
    return ref_reduce(m, lifted)


def ref_aligned(a, b):
    m = a.n * b.n // gcd(a.n, b.n)
    return m, ref_lift(a.n, a.coeffs, m), ref_lift(b.n, b.coeffs, m)


def random_cyc(rng, n):
    coeffs = [0] * n
    for _ in range(rng.randint(0, 4)):
        coeffs[rng.randrange(n)] = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 6]))
    return Cyc(n, coeffs), ref_reduce(n, coeffs)


def assert_canonical(c, n, want):
    assert (c.n, c.coeffs) == (n, want)
    assert len(c.num) == n and all(type(x) is int for x in c.num)
    assert c.den > 0 and gcd(c.den, *c.num) == 1
    deg = len(cyclotomic_polynomial(n)) - 1
    assert not any(c.num[deg:])
    if not any(c.num):
        assert c.den == 1


def test_integer_arithmetic_matches_a_fraction_reference():
    rng = random.Random(1967)
    for _ in range(300):
        (a, ra), (b, rb) = random_cyc(rng, rng.choice(SMALL)), random_cyc(rng, rng.choice(SMALL))
        assert_canonical(a, a.n, ra)
        m, la, lb = ref_aligned(a, b)
        assert_canonical(a + b, m, ref_reduce(m, [x + y for x, y in zip(la, lb)]))
        assert_canonical(a - b, m, ref_reduce(m, [x - y for x, y in zip(la, lb)]))
        prod = [Fraction(0)] * m
        for i, x in enumerate(la):
            for j, y in enumerate(lb):
                prod[(i + j) % m] += x * y
        assert_canonical(a * b, m, ref_reduce(m, prod))
        assert (a == b) == (la == lb)
        q = Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 12))
        assert_canonical(a / q, a.n, tuple(x / q for x in ra))
        t = rng.choice([t for t in range(1, 2 * a.n + 1) if gcd(t, a.n) == 1])
        moved = [Fraction(0)] * a.n
        for k, c in enumerate(ra):
            moved[(k * t) % a.n] += c
        assert_canonical(a.galois(t), a.n, ref_reduce(a.n, moved))
        assert_canonical(a.conj(), a.n, ref_reduce(a.n, [ra[-k % a.n] for k in range(a.n)]))
        assert a == a.lift(m) and a.lift(m) == a


def test_lift_and_descend_match_a_fraction_reference():
    rng = random.Random(1990)
    pairs = [(d, m) for m in (6, 12, 20, 30, 60, 210) for d in SUBFIELDS if m % d == 0]
    for d, m in pairs:
        for _ in range(4):
            v, rv = random_cyc(rng, d)
            up = v.lift(m)
            assert_canonical(up, m, ref_lift(d, rv, m))
            down = up.descend(d)
            assert_canonical(down, d, rv)
        if Cyc.zeta(m).descend(d) is not None:
            continue  # Q(zeta_d) = Q(zeta_m), as for d = 105, m = 210
        assert (v.lift(m) + Cyc.zeta(m)).descend(d) is None
