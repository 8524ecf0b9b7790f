"""Closed-point enumeration and zeta identities."""

import math
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest

import oracles
from conic_census import census, curve, euler, gf
from conic_census.errors import OutsideConvergenceRegion


def test_closed_points_counts():
    F3 = gf.make_field(3)
    pts1 = curve.closed_points_up_to(F3, 1)
    assert len(pts1) == 4
    assert pts1[0].is_infinity
    pts2 = curve.closed_points_up_to(F3, 2)
    assert len(pts2) == 7
    F5 = gf.make_field(5)
    assert len(curve.closed_points_up_to(F5, 1)) == 6


def test_point_count_identity():
    # sum over d | m of d * N_d = q^m + 1, counts taken from actual enumeration
    for F in [gf.make_field(3), gf.make_field(5)]:
        q = F.order
        pts = curve.closed_points_up_to(F, 4)
        for m in range(1, 5):
            total = sum(P.degree for P in pts if m % P.degree == 0)
            assert total == q ** m + 1
        # the closed-form counts match enumeration
        for m in range(1, 5):
            assert curve.point_count(q, m) == sum(1 for P in pts if P.degree == m)


def test_zeta_values():
    F3 = gf.make_field(3)
    assert curve.zeta_value(curve.P1_CURVE, F3, 3) == Fraction(243, 208)
    assert curve.zeta_value(curve.P1_CURVE, F3, 2) == Fraction(27, 16)
    g1 = curve.CurveDescriptor(1, 4, (1, 0, 3))
    assert curve.zeta_value(g1, F3, 2) == Fraction(7, 4)
    with pytest.raises(OutsideConvergenceRegion):
        curve.zeta_value(curve.P1_CURVE, F3, 1)
    with pytest.raises(OutsideConvergenceRegion):
        curve.zeta_truncated(F3, 0, 3)


def test_zeta_denominator_divisibility():
    for q, g, lp in [(3, 0, (1,)), (5, 0, (1,)), (3, 1, (1, 1, 3)), (3, 2, (1, 0, 0, 0, 9))]:
        F = gf.make_field(q)
        c = curve.CurveDescriptor(g, sum(lp), lp)
        for s in (2, 3, 4):
            z = curve.zeta_value(c, F, s)
            bound = (q ** s - 1) * (q ** (s - 1) - 1) * q ** (s * 2 * g)
            assert bound % z.denominator == 0


def test_zeta_truncated_values():
    F3 = gf.make_field(3)
    assert oracles.zeta_truncated_exact(F3, 3, 1) == Fraction(27, 26) ** 4
    assert oracles.zeta_truncated_exact(F3, 2, 1) == Fraction(9, 8) ** 4
    # 6561/4096 needs 12 bits, so the 64-bit enclosure is exact
    enc = curve.zeta_truncated(F3, 2, 1)
    assert enc.lo == enc.hi == 6561 << (enc.bits - 12)


def _stepwise_product(q, s, B):
    # the reference: one normalized Fraction product per degree
    out = Fraction(1)
    for m in range(1, B + 1):
        out *= (1 - Fraction(1, q ** (s * m))) ** (-curve.point_count(q, m))
    return out


def _encloses(enc, x):
    return Fraction(enc.lo, 2 ** enc.bits) <= x <= Fraction(enc.hi, 2 ** enc.bits)


@pytest.mark.parametrize("p, n, top", [(3, 1, 8), (5, 1, 5), (3, 2, 4), (5, 2, 2), (3, 3, 2)])
def test_zeta_truncated_matches_fraction_product(p, n, top):
    F = gf.make_field(p, n)
    for s in (2, 3, 5):
        for B in range(top + 1):
            got = oracles.zeta_truncated_exact(F, s, B)
            assert got == _stepwise_product(F.order, s, B)
            assert type(got) is Fraction
            assert got.denominator > 0
            assert math.gcd(got.numerator, got.denominator) == 1
            enc = curve.zeta_truncated(F, s, B)
            assert _encloses(enc, got)
            # narrow widths round nearly every step, so a bound rounded the
            # wrong way shows
            for bits in (3, 8, 20):
                assert _encloses(euler._enclose(F.order, s, enc.counts, bits), got)


def test_zeta_truncated_makes_no_gcd_calls(monkeypatch):
    calls = []
    gcd = math.gcd

    def counting(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", counting)
    oracles.zeta_truncated_exact(gf.make_field(3), 2, 10)
    assert len(calls) == 0
    # the coprimality check is live: a denominator divisible by p is refused
    with pytest.raises(AssertionError, match="divisible by p = 2"):
        oracles.zeta_truncated_exact(SimpleNamespace(order=3, char=2), 2, 1)


def test_zeta_truncated_monotone_and_bounded():
    mpmath.mp.dps = 60
    F3 = gf.make_field(3)
    for s in (2, 3, 5):
        z = curve.zeta_value(curve.P1_CURVE, F3, s)
        prev = Fraction(0)
        for B in range(1, 9):
            tb = oracles.zeta_truncated_exact(F3, s, B)
            assert tb >= prev
            assert tb <= z
            gap = mpmath.mpf(z.numerator) / z.denominator - mpmath.mpf(tb.numerator) / tb.denominator
            assert gap < 4 * mpmath.mpf(3) ** (-(B + 1) * (s - 1))
            prev = tb


FIELDS = {3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2), 25: (5, 2), 27: (3, 3)}


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_zeta_floor_decimals_match_exact_oracle(q):
    F = gf.make_field(*FIELDS[q])
    for s in (2, 3, 5):
        closed = curve.zeta_value(curve.P1_CURVE, F, s)
        for B in range(4):
            exact = oracles.zeta_truncated_exact(F, s, B)
            enc = curve.zeta_truncated(F, s, B)
            for digits in (1, 12, 30, 60):
                want = census.decimal_of_fraction(exact, digits)
                assert census.decimal_of_fraction(enc.floor_decimal(digits), digits) == want
            # from a few bits, the first enclosures straddle a digit boundary
            for bits in range(1, 8):
                narrow = euler._enclose(F.order, s, enc.counts, bits)
                assert narrow.floor_decimal(2) == Fraction(math.floor(exact * 100), 100)
            gap = enc.floor_decimal(50, closed)
            assert census.decimal_of_fraction(gap, 50) == (
                census.decimal_of_fraction(closed - exact, 50))


def test_decimal_of_fraction_floors_exact_rationals():
    # census keeps the name, which tests and perfbench's spans read there
    assert census.decimal_of_fraction is curve.decimal_of_fraction
    assert curve.decimal_of_fraction(Fraction(-1, 3), 3) == "-0.334"
    assert curve.decimal_of_fraction(Fraction(2, 3), 3) == "0.666"
    assert curve.decimal_of_fraction(7, 2) == "7.00"
    with pytest.raises(TypeError, match="^expected an exact rational, got float$"):
        curve.decimal_of_fraction(0.5, 3)
    with pytest.raises(ValueError, match="^digits must be positive$"):
        curve.decimal_of_fraction(Fraction(1, 2), 0)


def test_zeta_floor_decimal_on_a_decimal_boundary():
    # x = (9/8)^4 = 1.601806640625 has exactly 12 digits: no enclosure narrower
    # than x itself separates the floors, so the exact branch decides
    F3 = gf.make_field(3)
    enc = curve.zeta_truncated(F3, 2, 1)
    assert census.decimal_of_fraction(enc.floor_decimal(12), 12) == "1.601806640625"
    assert enc.floor_decimal(12) == Fraction(6561, 4096)
    # from 2 bits the enclosure is rebuilt at 4, 8 and 16 before x is built
    narrow = euler._enclose(3, 2, enc.counts, 2)
    assert narrow.lo < narrow.hi
    assert narrow.floor_decimal(12) == Fraction(6561, 4096)
    # |closed - x| when closed is x (enclosure straddles 0), lies below x
    # (enclosure entirely negative) and above it
    x = Fraction(6561, 4096)
    assert narrow.floor_decimal(50, x) == 0
    assert narrow.floor_decimal(3, Fraction(1)) == Fraction(601, 1000)
    assert narrow.floor_decimal(3, Fraction(2)) == Fraction(398, 1000)
    deep = curve.zeta_truncated(F3, 2, 12)
    assert deep.floor_decimal(40, Fraction(1)) == Fraction(
        int((oracles.zeta_truncated_exact(F3, 2, 12) - 1) * 10 ** 40), 10 ** 40)


def test_curve_descriptor_validation():
    with pytest.raises(ValueError):
        curve.CurveDescriptor(0, 2, (1,))
    with pytest.raises(ValueError):
        curve.CurveDescriptor(1, 4, (1,))
    with pytest.raises(ValueError):
        curve.CurveDescriptor(1, 4, (2, 0, 3))
    c = curve.CurveDescriptor(2, 10, (1, 0, 0, 0, 9))
    assert c.genus == 2


def test_point_helpers():
    F3 = gf.make_field(3)
    P = curve.point_from_poly(F3, (1, 0, 1))
    assert P.degree == 2
    K = curve.residue_field(F3, P)
    assert K.order == 9
    # reduce t^3 mod t^2+1: t^3 = t*(t^2+1) - t -> -t = 2t
    assert curve.residue_of_poly(F3, P, (0, 0, 0, 1)) == (0, 2)
    with pytest.raises(ValueError):
        curve.point_from_poly(F3, (2, 0, 1))  # t^2 - 1 reducible
    assert curve.point_str(F3, curve.INFINITY) == "infinity"
    assert curve.point_str(F3, P) == "t^2 + 1"
