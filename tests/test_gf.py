"""Field construction, squareness, and factorization against brute-force oracles."""

import itertools
import random

import pytest

from conic_census import curve, gf
from conic_census.errors import CharTwoUnsupported, FieldTooLarge, NotPrime, ZeroElement, ZeroPolynomial


def brute_irreducible(F, f):
    """Oracle: no monic factor of degree 1..deg(f)//2, by trial division."""
    n = gf.deg(f)
    if n <= 0:
        return False
    for k in range(1, n // 2 + 1):
        for low in itertools.product(F.elements(), repeat=k):
            g = tuple(low) + (F.one,)
            if gf.poly_mod(F, f, g) == ():
                return False
    return True


def test_canonical_modulus_f9():
    F3 = gf.make_field(3)
    # oracle scan: first monic irreducible quadratic in low-first lex order
    best = None
    for low in itertools.product(range(3), repeat=2):
        f = low + (1,)
        if brute_irreducible(F3, f):
            best = f
            break
    assert best == (1, 0, 1)  # t^2 + 1
    F9 = gf.make_field(3, 2)
    assert F9.modulus == (1, 0, 1)
    assert F9.order == 9


def test_canonical_modulus_f27():
    F3 = gf.make_field(3)
    best = None
    for low in itertools.product(range(3), repeat=3):
        f = low + (1,)
        if brute_irreducible(F3, f):
            best = f
            break
    assert best == (1, 0, 2, 1)  # t^3 + 2t^2 + 1
    F27 = gf.make_field(3, 3)
    assert F27.modulus == (1, 0, 2, 1)


def test_make_field_rejections():
    with pytest.raises(CharTwoUnsupported):
        gf.make_field(2)
    with pytest.raises(NotPrime):
        gf.make_field(9)
    with pytest.raises(NotPrime):
        gf.make_field(15)
    with pytest.raises(NotPrime):
        gf.make_field(1)
    with pytest.raises(FieldTooLarge):
        gf.make_field(29)
    with pytest.raises(FieldTooLarge):
        gf.make_field(3, 4)
    assert gf.make_field(3, 4, max_order=100).order == 81
    assert gf.make_field(5, 2).order == 25


def test_field_axioms_sampled():
    rng = random.Random(7)
    for F in [gf.make_field(3), gf.make_field(5), gf.make_field(3, 2), gf.make_field(3, 3), gf.make_field(5, 2)]:
        elems = list(F.elements())
        for _ in range(60):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            assert F.add(a, F.neg(a)) == F.zero
            if a != F.zero:
                assert F.mul(a, F.inv(a)) == F.one
            # Frobenius is additive
            p = F.char
            assert F.pow(F.add(a, b), p) == F.add(F.pow(a, p), F.pow(b, p))
        # index round trip covers every element exactly once
        assert sorted(F.to_index(x) for x in elems) == list(range(F.order))
        for x in elems:
            assert F.from_index(F.to_index(x)) == x
            assert F.from_digits(F.to_digits(x)) == x


def test_is_square_exhaustive():
    for F in [gf.make_field(3), gf.make_field(5), gf.make_field(7), gf.make_field(3, 2),
              gf.make_field(3, 3), gf.make_field(5, 2), gf.make_field(11), gf.make_field(13),
              gf.make_field(17), gf.make_field(19), gf.make_field(23)]:
        squares = {F.mul(x, x) for x in F.elements() if x != F.zero}
        for x in F.elements():
            if x == F.zero:
                with pytest.raises(ZeroElement):
                    gf.is_square(F, x)
            else:
                assert gf.is_square(F, x) == (x in squares)
                if x in squares:
                    r = gf.sqrt(F, x)
                    assert F.mul(r, r) == x


def test_minus_one_squareness():
    F3 = gf.make_field(3)
    assert not gf.is_square(F3, F3.neg(F3.one))
    F9 = gf.make_field(3, 2)
    assert gf.is_square(F9, F9.neg(F9.one))
    F5 = gf.make_field(5)
    assert gf.is_square(F5, F5.neg(F5.one))


def test_factor_examples():
    F3 = gf.make_field(3)
    t2_minus_1 = (2, 0, 1)
    unit, fac = gf.factor_poly(F3, t2_minus_1)
    assert unit == 1
    assert fac == {(1, 1): 1, (2, 1): 1}  # (t+1)(t+2)
    unit, fac = gf.factor_poly(F3, (1, 0, 1))
    assert fac == {(1, 0, 1): 1}
    unit, fac = gf.factor_poly(F3, (0, 2, 0, 1))  # t^3 + 2t = t(t^2+2)... factor check below
    total = (0, 2, 0, 1)
    prod = (unit,)
    for g, m in fac.items():
        for _ in range(m):
            prod = gf.poly_mul(F3, prod, g)
    assert prod == total
    with pytest.raises(ZeroPolynomial):
        gf.factor_poly(F3, ())


def test_factor_roundtrip_exhaustive_f3():
    F3 = gf.make_field(3)
    for n in range(1, 7):
        for low in itertools.product(range(3), repeat=n):
            f = gf.poly_trim(F3, low + (1,))
            unit, fac = gf.factor_poly(F3, f)
            prod = (unit,)
            for g, m in fac.items():
                assert g[-1] == 1
                for _ in range(m):
                    prod = gf.poly_mul(F3, prod, g)
            assert prod == f
            for g in fac:
                assert gf.poly_is_irreducible(F3, g)
                if gf.deg(g) <= 3:
                    assert brute_irreducible(F3, g)


def test_factor_multiplicities_char_p():
    F3 = gf.make_field(3)
    t = (0, 1)
    f = gf.poly_mul(F3, gf.poly_mul(F3, t, t), gf.poly_mul(F3, t, (1, 1)))  # t^3 (t+1)
    _, fac = gf.factor_poly(F3, f)
    assert fac == {(0, 1): 3, (1, 1): 1}
    f6 = (0, 0, 0, 0, 0, 0, 1)  # t^6
    _, fac = gf.factor_poly(F3, f6)
    assert fac == {(0, 1): 6}
    assert max(fac.values()) > 1  # t^6 is not squarefree
    _, fac = gf.factor_poly(F3, (2, 0, 1))
    assert set(fac.values()) == {1}  # t^2 + 2 = (t + 1)(t + 2) is squarefree


def test_factor_extension_field_sampled():
    rng = random.Random(11)
    F9 = gf.make_field(3, 2)
    elems = list(F9.elements())
    for _ in range(40):
        n = rng.randint(1, 5)
        f = gf.poly_trim(F9, tuple(rng.choice(elems) for _ in range(n)) + (F9.one,))
        unit, fac = gf.factor_poly(F9, f)
        prod = (unit,)
        for g, m in fac.items():
            for _ in range(m):
                prod = gf.poly_mul(F9, prod, g)
        assert prod == f
        for g in fac:
            assert gf.poly_is_irreducible(F9, g)


def test_poly_divmod_random():
    rng = random.Random(13)
    F5 = gf.make_field(5)
    for _ in range(200):
        f = gf.poly_trim(F5, tuple(rng.randrange(5) for _ in range(rng.randint(0, 8))))
        g = gf.poly_trim(F5, tuple(rng.randrange(5) for _ in range(rng.randint(1, 5))))
        if not g:
            continue
        quo, rem = gf.poly_divmod(F5, f, g)
        assert gf.poly_add(F5, gf.poly_mul(F5, quo, g), rem) == f
        assert gf.deg(rem) < gf.deg(g)
        d = gf.poly_gcd(F5, f, g)
        if f and g:
            assert gf.poly_mod(F5, f, d) == () and gf.poly_mod(F5, g, d) == ()


def test_residue_field_tower():
    F9 = gf.make_field(3, 2)
    # t^2 + t + alpha for a nonsquare alpha stays irreducible over F9 for some alpha; build any ext
    for low in itertools.product(F9.elements(), repeat=2):
        f = tuple(low) + (F9.one,)
        if gf.poly_is_irreducible(F9, f):
            K = gf.ExtField(F9, f)
            assert K.order == 81
            a = K.from_index(5)
            assert K.mul(a, K.inv(a)) == K.one if a != K.zero else True
            assert gf.is_square(K, K.mul(a, a)) if a != K.zero else True
            break
    else:
        raise AssertionError("no irreducible quadratic over F9 found")


@pytest.mark.parametrize("p, n", [(3, 2), (5, 2), (3, 3)], ids=["F9", "F25", "F27"])
def test_extension_tables_match_tuple_arithmetic(p, n):
    # oracle: the same field as tuples over F_p, with polynomial arithmetic
    F = gf.make_field(p, n)
    E = gf.ExtField(gf.make_field(p), F.modulus)
    vec = lambda a: tuple(F.to_digits(a))
    elems = list(F.elements())
    assert [vec(a) for a in elems] == list(E.elements())
    assert vec(F.zero) == E.zero and vec(F.one) == E.one
    for k in range(-2 * p, 2 * p):
        assert vec(F.from_int(k)) == E.embed(k % p)
    for a in elems:
        assert F.to_index(a) == E.to_index(vec(a))
        assert F.from_index(E.to_index(vec(a))) == a
        assert vec(F.neg(a)) == E.neg(vec(a))
        if a != F.zero:
            assert vec(F.inv(a)) == E.inv(vec(a))
        for b in elems:
            assert vec(F.add(a, b)) == E.add(vec(a), vec(b))
            assert vec(F.sub(a, b)) == E.sub(vec(a), vec(b))
            assert vec(F.mul(a, b)) == E.mul(vec(a), vec(b))
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_prime_tables_match_residues(p):
    F = gf.make_field(p)
    assert list(F.elements()) == list(range(p)) and (F.zero, F.one) == (0, 1)
    for a in range(p):
        assert F.neg(a) == -a % p
        assert F.to_index(a) == F.from_index(a) == a
        assert F.to_digits(a) == [a] and F.from_digits([a + p]) == a
        assert F.from_int(a - p) == a
        if a:
            assert F.mul(a, F.inv(a)) == 1
        for b in range(p):
            assert F.add(a, b) == (a + b) % p
            assert F.sub(a, b) == (a - b) % p
            assert F.mul(a, b) == a * b % p


@pytest.mark.parametrize("p, n", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)],
                         ids=["F3", "F5", "F7", "F9", "F25", "F27"])
def test_row_kernel_matches_elementwise_ops(p, n):
    # every (x, y) pair as one vector entry, for every scalar c
    F = gf.make_field(p, n)
    pairs = list(itertools.product(F.elements(), repeat=2))
    v, w = [x for x, _ in pairs], [y for _, y in pairs]
    for c in F.elements():
        assert F.sub_scaled(v, c, w) == [F.sub(x, F.mul(c, y)) for x, y in pairs]
        assert F.scaled(c, w) == [F.mul(c, y) for y in w]


def test_row_kernel_on_residue_field():
    # kappa(P) of the degree-2 point t^2 + 1 over F3 runs the generic kernel;
    # F9 has the same modulus, so its table kernel is the oracle
    F3, F9 = gf.make_field(3), gf.make_field(3, 2)
    K = curve.residue_field(F3, curve.point_from_poly(F3, (1, 0, 1)))
    assert type(K) is gf.ExtField and K.modulus == F9.modulus
    vec = lambda a: tuple(F9.to_digits(a))
    pairs = list(itertools.product(F9.elements(), repeat=2))
    v, w = [x for x, _ in pairs], [y for _, y in pairs]
    for c in F9.elements():
        want = [vec(z) for z in F9.sub_scaled(v, c, w)]
        assert K.sub_scaled([vec(x) for x in v], vec(c), [vec(y) for y in w]) == want
        assert K.scaled(vec(c), [vec(y) for y in w]) == [vec(z) for z in F9.scaled(c, w)]


def test_from_digits_messages():
    F3, F9, F27 = gf.make_field(3), gf.make_field(3, 2), gf.make_field(3, 3)
    for F, digits, message in [(F9, [1, 1, 1], "digit vector length mismatch"),
                               (F27, [1, 1], "digit vector length mismatch"),
                               (F9, [1, 1, 1, 1], "prime field element has one digit"),
                               (F3, [1, 2], "prime field element has one digit")]:
        with pytest.raises(ValueError) as info:
            F.from_digits(digits)
        assert str(info.value) == message
    assert F9.from_digits([1, 1]) == F9.add(F9.one, F9.from_index(3))
