"""Exact cyclotomic arithmetic: ring laws, Galois action, rational detection."""

from fractions import Fraction

import pytest

from equichi.cyclotomic import Cyc, cyc_sum, cyclotomic_polynomial

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
    assert cyc_sum(Cyc.zeta(5, k) for k in range(5)).is_zero()
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
