"""Leading-constant assembly against hand-computed frozen values."""

import itertools
from fractions import Fraction

import mpmath
import pytest

import oracles
from conic_census import bundle, census, curve, gf, linsys, numberfield, picard
from conic_census.census import SqrtQRational, sqrtq
from conic_census.errors import BOutOfRange

F3 = gf.make_field(3)
F5 = gf.make_field(5)

# closed forms computed by hand before this module existed
FIBERFREE_D2 = {2: 312, 4: 8424, 6: 227448, 8: 6141096}
PRIME_D2 = {4: 7260, 6: 214488, 8: 6001020}


def b_trivial():
    return bundle.validate_bundle(F3, 0, (F3.one,), (F3.one,), (F3.neg(F3.one),))


def b_mixed():
    return bundle.validate_bundle(F3, 1, (0, 1), (1, 0), (1, 1))


GENUS1 = curve.CurveDescriptor(1, 3, (1, -1, 3))
GENUS2 = curve.CurveDescriptor(2, 16, (1, 0, 6, 0, 9))


def test_sqrtq_arithmetic():
    x = sqrtq(3, 1, 2)
    y = sqrtq(3, Fraction(1, 2), -1)
    assert x + y == sqrtq(3, Fraction(3, 2), 1)
    assert x - 1 == sqrtq(3, 0, 2)
    assert 1 - x == sqrtq(3, 0, -2)
    assert x * y == Fraction(-11, 2)
    assert x * 2 == 2 * x == sqrtq(3, 2, 4)
    assert x / x == 1
    assert (1 / x) * x == 1
    assert x ** 3 == x * x * x
    assert x ** 0 == 1
    assert x ** -2 == 1 / (x * x)
    assert sqrtq(3, 0, 1) * sqrtq(3, 0, 1) == 3
    with pytest.raises(ValueError):
        x + sqrtq(5, 1, 1)
    with pytest.raises(TypeError):
        sqrtq(3, 0.5, 0)


def test_sqrtq_square_base_collapses():
    x = sqrtq(9, 2, 5)
    assert x.is_rational and x.u == 17 and x.as_fraction() == 17
    assert hash(x) == hash(Fraction(17))
    assert sqrtq(4, 0, Fraction(1, 2)) == 1


def test_sqrtq_ordering():
    r3 = sqrtq(3, 0, 1)
    assert Fraction(17, 10) < r3 < Fraction(18, 10)
    assert sqrtq(3, 2, -1) > 0 > sqrtq(3, 1, -1)
    assert abs(sqrtq(3, 1, -1)) == sqrtq(3, -1, 1)
    assert max(r3, 2) == 2
    with pytest.raises(ValueError):
        r3.as_fraction()


def test_sqrtq_decimal_rendering():
    r3 = sqrtq(3, 0, 1)
    d = r3.to_decimal(40)
    val = Fraction(d)
    assert val * val < 3 < (val + Fraction(1, 10 ** 40)) ** 2
    assert (-r3).to_decimal(8) == "-1.73205081"
    assert sqrtq(3, Fraction(1, 8), 0).to_decimal(4) == "0.1250"
    assert sqrtq(3, -2, 0).to_decimal(2) == "-2.00"
    fifty = r3.to_decimal(50)
    assert fifty == r3.to_decimal(50) and fifty.startswith(d)
    assert r3 == sqrtq(3, 0, 1)
    exact = Fraction(-123456789, 2 ** 5 * 5 ** 3)
    assert Fraction(sqrtq(3, exact, 0).to_decimal(30)) == exact


def test_sqrt_power():
    assert census.sqrt_power(3, 4) == 9
    assert census.sqrt_power(3, 3) == sqrtq(3, 0, 3)
    assert census.sqrt_power(3, -2) == Fraction(1, 3)
    assert census.sqrt_power(3, -1) == sqrtq(3, 0, Fraction(1, 3))
    assert census.sqrt_power(3, 5) * census.sqrt_power(3, -5) == 1


def test_a_const_frozen():
    assert census.a_const(3, 0, 0, 2) == 27
    assert census.a_const(3, 0, 2, 2) == 1
    for q in (3, 5):
        for d in (2, 4):
            for g in (0, 1, 2):
                want = Fraction(q) ** ((d + 1) * (1 - g))
                assert census.a_const(q, g, 0, d) == want
    assert census.a_const(3, 0, 1, 2) == sqrtq(3, 0, 3)
    with pytest.raises(ValueError):
        census.a_const(3, 0, 0, 3)


def test_k_bar_catalog_frozen():
    assert census.k_bar_catalog(3, 2, (), (1,), (0,)) == Fraction(32, 39)
    assert census.k_bar_catalog(3, 2, (), (1,), (1,)) == Fraction(2, 3)
    assert census.k_bar_catalog(3, 2, (), (1,), (-1,)) == Fraction(2, 3)
    assert census.k_bar_catalog(3, 2, (), (), ()) == 1
    assert census.k_bar_catalog(3, 2, (1,), (), ()) == Fraction(40, 39)
    two = census.k_bar_catalog(3, 2, (1, 1), (1,), (0,))
    assert two == Fraction(40, 39) ** 2 * Fraction(32, 39)
    with pytest.raises(BOutOfRange):
        census.k_bar_catalog(3, 2, (), (1,), (2,))
    with pytest.raises(BOutOfRange):
        census.k_bar_catalog(3, 2, (), (3,), (1,))
    with pytest.raises(ValueError):
        census.k_bar_catalog(3, 2, (), (1, 1), (0,))


def test_k_const_catalog_frozen():
    got = census.k_const_catalog(3, 2, (), (1,))
    assert got == sqrtq(3, Fraction(32, 39), Fraction(4, 9))
    # independent transcription: sum the three twist terms literally
    by_hand = Fraction(32, 39) + 0 * Fraction(1)
    side = 2 * Fraction(2, 3) * Fraction(1, 3)
    assert got == sqrtq(3, by_hand, side)
    deg3 = census.k_const_catalog(3, 2, (), (3,))
    assert deg3 == census.k_bar_catalog(3, 2, (), (3,), (0,))
    assert census.k_const_catalog(3, 2, (), ()) == 1



@pytest.mark.parametrize("q", [3, 5, 9, 25, 27])
def test_k_const_product_matches_the_sum_over_twist_tuples(q):
    for d, c1, c2 in itertools.product((2, 4, 6), ((), (1,), (1, 2)),
                                       ((), (1,), (1, 1, 2), (1, 1, 1, 1))):
        want = oracles.k_const_by_twists(q, d, c1, c2)
        got = census.k_const_catalog(q, d, c1, c2)
        assert (got.u, got.v, got.q) == (want.u, want.v, want.q), (d, c1, c2)


def test_k_const_catalog_is_memoized():
    # predict and leading_coeff ask for the same K at every height
    first = census.k_const_catalog(25, 2, (), (1, 1, 2))
    assert census.k_const_catalog(25, 2, (), (1, 1, 2)) is first

def test_k_const_twist_sign_symmetry():
    for bb in ((1, 0), (1, 1), (0, -1)):
        plus = census.k_bar_catalog(3, 4, (), (1, 1), bb)
        minus = census.k_bar_catalog(3, 4, (), (1, 1), tuple(-x for x in bb))
        assert plus == minus


def test_bundle_k_frozen():
    b1 = b_mixed()
    assert census.K_bar(b1, 2, {}) == Fraction(51200, 59319)
    P = b1.split_points[0]
    assert census.K_bar(b1, 2, {P: 1}) == Fraction(3200, 4563)
    assert census.K_const(b1, 2) == sqrtq(3, Fraction(51200, 59319), Fraction(6400, 13689))
    assert census.K_const(b_trivial(), 2) == 1
    with pytest.raises(BOutOfRange):
        census.K_bar(b1, 2, {P: 2})
    with pytest.raises(ValueError):
        census.K_bar(b1, 2, {curve.INFINITY: 1})


def test_leading_coeff_frozen():
    assert census.leading_coeff(b_trivial(), curve.P1_CURVE, 2) == Fraction(104, 9)


def test_leading_coeff_genus_formula():
    b0 = b_trivial()
    for cv in (curve.P1_CURVE, GENUS1, GENUS2):
        for d in (2, 4):
            zeta = curve.zeta_value(cv, F3, d + 1)
            want = Fraction(cv.jacobian) * Fraction(3) ** ((d + 1) * (1 - cv.genus))
            want /= (3 - 1) * zeta
            assert census.leading_coeff(b0, cv, d) == want


def test_predict_frozen():
    b0 = b_trivial()
    for e, want in FIBERFREE_D2.items():
        main, err = census.predict(b0, curve.P1_CURVE, 2, e)
        assert main == want
        assert err == Fraction(3) ** e
    m4 = census.predict(b0, curve.P1_CURVE, 2, 4)[0]
    m6 = census.predict(b0, curve.P1_CURVE, 2, 6)[0]
    assert m6 / m4 == 27
    odd = census.predict(b0, curve.P1_CURVE, 2, 3)[0]
    assert not odd.is_rational and odd == sqrtq(3, 0, Fraction(104, 9) * 81)


def test_ratio_trend_frozen():
    b0 = b_trivial()
    ratios = []
    for e in (4, 6, 8):
        main = census.predict(b0, curve.P1_CURVE, 2, e)[0]
        ratios.append(sqrtq(3, PRIME_D2[e], 0) / main)
    decimals = [r.to_decimal(6) for r in ratios]
    assert decimals == ["0.861823", "0.943019", "0.977190"]
    for r in ratios:
        assert Fraction(6, 10) <= r <= Fraction(14, 10)
    gaps = [abs(r - 1) for r in ratios]
    assert gaps[0] > gaps[1] > gaps[2]


def test_compare_table():
    b0 = b_trivial()
    rows = census.compare_table(b0, curve.P1_CURVE, 2, (2, 4))
    assert [r["e"] for r in rows] == [2, 4]
    for row in rows:
        assert row["d"] == 2
        assert row["predicted"] == FIBERFREE_D2[row["e"]]
        assert row["enumerated_Mf"] == FIBERFREE_D2[row["e"]]
        assert row["enumerated_M"] == linsys.prime_count(b0, 2, row["e"])
        assert row["ratio"] == sqrtq(3, row["enumerated_M"], 0) / row["predicted"]
    assert rows == census.compare_table(b0, curve.P1_CURVE, 2, (2, 4))
    assert census.compare_table(b0, curve.P1_CURVE, 2, ()) == []


def _nf(**kw):
    base = dict(r=1, s=0, disc_norm=1, class_number=1, regulator=1.0,
                roots_of_unity=2, zeta_at=1.2020569031595942854, vr=2.5,
                vc=1.7, hx=1, primes1=(), primes2=())
    base.update(kw)
    return numberfield.NumberFieldInputs(**base)


def test_number_field_no_primes_shape():
    with mpmath.workdps(40):
        got = numberfield.number_field_leading(_nf(), 2)
        want = 2 * mpmath.mpf(2.5) * (2 ** 3) / (2 * mpmath.mpf(1.2020569031595942854))
        assert mpmath.almosteq(got, want)
        complex_place = numberfield.number_field_leading(_nf(r=0, s=1, disc_norm=4), 2)
        want = 2 * mpmath.mpf(1.7) * ((2 * mpmath.pi / 2) ** 3) / (2 * mpmath.mpf(1.2020569031595942854))
        assert mpmath.almosteq(complex_place, want)


def test_number_field_k_matches_function_field_value():
    with mpmath.workdps(50):
        k = numberfield.number_field_k(_nf(primes2=(3,)), 2)
        exact = census.k_const_catalog(3, 2, (), (1,))
        want = mpmath.mpf(32) / 39 + mpmath.mpf(4) / 9 * mpmath.sqrt(3)
        assert exact == sqrtq(3, Fraction(32, 39), Fraction(4, 9))
        assert mpmath.almosteq(k, want)
        split_free = numberfield.number_field_k(_nf(primes1=(3,)), 2)
        assert mpmath.almosteq(split_free, mpmath.mpf(80) / 81 / (mpmath.mpf(26) / 27))


def test_number_field_class_number_scaling():
    with mpmath.workdps(30):
        one = numberfield.number_field_leading(_nf(), 2)
        two = numberfield.number_field_leading(_nf(hx=2), 2)
        assert mpmath.almosteq(two, one / 8)


def test_number_field_validation():
    with pytest.raises(ValueError):
        numberfield.number_field_leading(_nf(zeta_at=0), 2)
    with pytest.raises(ValueError):
        numberfield.number_field_leading(_nf(regulator=-1.0), 2)
    with pytest.raises(ValueError):
        numberfield.number_field_leading(_nf(), 3)
