"""Intersection pairing, Euler characteristics, component swaps, decompositions."""

import random
from fractions import Fraction

import pytest

import oracles
from conic_census import bundle, curve, gf, picard
from conic_census.errors import BundleMismatch, NotASplitFiber, ParityViolation
from conic_census.picard import CLASS_F, CLASS_H, NumClass, component_class

F3 = gf.make_field(3)
F5 = gf.make_field(5)


def mk(F, l, a, b, c):
    return bundle.validate_bundle(F, l, a, b, c)


def bundle_set():
    out = []
    for F in (F3, F5):
        out.append(mk(F, 0, (F.one,), (F.one,), (F.neg(F.one),)))
        out.append(mk(F, 1, (0, 1), (1, 0), (1, 1)))
        mo = F.neg(F.one)
        out.append(mk(F, 2, (F.one, F.zero, F.one), (F.zero, F.one, F.zero), (F.one, F.zero, mo)))
    return out


def test_pairing_table():
    for b in bundle_set():
        assert picard.intersect(b, CLASS_H, CLASS_H) == b.l
        assert picard.intersect(b, CLASS_H, CLASS_F) == 2
        assert picard.intersect(b, CLASS_F, CLASS_F) == 0
        for P in b.split_points:
            E = component_class(P)
            Ep = component_class(P, "Ep")
            m = P.degree
            assert picard.intersect(b, E, CLASS_F) == 0
            assert picard.intersect(b, Ep, CLASS_F) == 0
            assert picard.intersect(b, CLASS_H, E) == m
            assert picard.intersect(b, CLASS_H, Ep) == m
            assert picard.intersect(b, E, E) == -m
            assert picard.intersect(b, Ep, Ep) == -m
            assert picard.intersect(b, E, Ep) == m
            for Q in b.split_points:
                if Q != P:
                    assert picard.intersect(b, E, component_class(Q)) == 0
                    assert picard.intersect(b, E, component_class(Q, "Ep")) == 0
            # E + E' is numerically deg(P) fibers
            both = NumClass.make(0, P.degree)
            for T in (CLASS_H, CLASS_F, E, Ep):
                s = picard.intersect(b, E, T) + picard.intersect(b, Ep, T)
                assert s == picard.intersect(b, both, T)


def test_canonical_class_rows():
    for b in bundle_set():
        for g in (0, 1, 2):
            cv = curve.CurveDescriptor(g, 1, (1,) + (0,) * (2 * g - 1) + (b.field.order ** g,)) if g else curve.P1_CURVE
            K = picard.canonical_class(b, cv)
            assert picard.intersect(b, K, CLASS_F) == -2
            assert picard.intersect(b, K, CLASS_H) == 4 * g - 4 + b.l
            for P in b.split_points:
                assert picard.intersect(b, K, component_class(P)) == -P.degree


def test_bundle_mismatch():
    b0 = bundle_set()[0]
    b1 = bundle_set()[1]
    P = b1.split_points[0]
    D = NumClass.make(1, 0, {P: 1})
    with pytest.raises(BundleMismatch):
        picard.intersect(b0, D, CLASS_H)


def test_type_examples():
    b2 = [b for b in bundle_set() if b.l == 2 and b.field is F3][0]
    assert picard.type_of(b2, NumClass.make(1, 2)) == (2, 6)
    b0 = bundle_set()[0]
    assert picard.type_of(b0, NumClass.make(1, 0)) == (2, 0)
    # additivity on random classes
    rng = random.Random(23)
    b1 = bundle_set()[1]
    P = b1.split_points[0]
    for _ in range(40):
        D1 = NumClass.make(rng.randrange(0, 3), rng.randrange(-3, 4), {P: rng.randrange(0, 2)})
        D2 = NumClass.make(rng.randrange(0, 3), rng.randrange(-3, 4), {P: rng.randrange(0, 2)})
        s = NumClass.make(D1.dprime + D2.dprime, D1.a + D2.a,
                          {P: D1.coeff_at(P)[1] + D2.coeff_at(P)[1]})
        t1, t2, ts = (picard.type_of(b1, D) for D in (D1, D2, s))
        assert ts == (t1[0] + t2[0], t1[1] + t2[1])


def test_euler_char_examples():
    b0 = [b for b in bundle_set() if b.l == 0 and b.field is F3][0]
    b1 = [b for b in bundle_set() if b.l == 1 and b.field is F3][0]
    b2 = [b for b in bundle_set() if b.l == 2 and b.field is F3][0]
    assert picard.euler_char(b0, curve.P1_CURVE, NumClass.make(1, 2)) == 9  # (2,4)
    assert picard.euler_char(b2, curve.P1_CURVE, NumClass.make(1, 2)) == 9  # (2,6), l=2
    P = b1.split_points[0]
    D = NumClass.make(1, 2, {P: 1})  # type (2,6) with one b = 1 at a degree-1 point
    assert picard.euler_char(b1, curve.P1_CURVE, D) == 10
    with pytest.raises(ParityViolation):
        picard.euler_char_formula(2, 5, 0, 0, 0)
    # chi steps by d+1 when e steps by 2 through a
    for b in bundle_set():
        for a in range(-2, 3):
            c1 = picard.euler_char(b, curve.P1_CURVE, NumClass.make(1, a))
            c2 = picard.euler_char(b, curve.P1_CURVE, NumClass.make(1, a + 1))
            assert c2 - c1 == 3


def test_half_class_euler_char():
    b0 = [b for b in bundle_set() if b.l == 0 and b.field is F3][0]
    D = NumClass.make(Fraction(1, 2), 2)  # parameterized bidegree (1, 2)
    assert picard.type_of(b0, D) == (1, 4)
    assert picard.euler_char(b0, curve.P1_CURVE, D) == 6  # (1+1)(2+1)


def test_swap_component():
    b1 = [b for b in bundle_set() if b.l == 1 and b.field is F3][0]
    P = b1.split_points[0]
    D = NumClass.make(2, 1, {P: 1})
    sw = picard.swap_component(b1, D, P)
    assert sw.a == 2 and sw.coeff_at(P) == ("Ep", -1)
    # the swap does not move the class: every pairing and the hash agree
    assert sw == D
    for T in [CLASS_H, CLASS_F, component_class(P), component_class(P, "Ep")]:
        assert picard.intersect(b1, sw, T) == picard.intersect(b1, D, T)
    assert picard.swap_component(b1, sw, P) == D
    assert picard.swap_component(b1, sw, P).parts == D.parts
    # swapping a zero coefficient is the identity
    D0 = NumClass.make(2, 1)
    assert picard.swap_component(b1, D0, P).parts == ()
    Pns = curve.point_from_poly(F3, (0, 1))
    with pytest.raises(NotASplitFiber):
        picard.swap_component(b1, D, Pns)


def test_class_key_is_built_once_per_instance(monkeypatch):
    # every lru_cache keyed on a class hashes it; once a class is hashed, further
    # hashes and comparisons build nothing, and repr and equality stay as they were
    P = curve.point_from_poly(F3, (1, 1))
    D = NumClass.make(2, 1, {P: 1})
    E = NumClass.make(2, 2, {P: -1}, {P: "Ep"})
    hash(D), hash(E)
    calls = []
    canonical = NumClass.canonical
    monkeypatch.setattr(NumClass, "canonical", lambda self: calls.append(self) or canonical(self))
    for _ in range(3):
        assert hash(D) == hash(E) and D == E and {D: 1}[E] == 1
    assert calls == []
    assert D != NumClass.make(2, 1) and D != (2, 1, ((P, 1),))
    assert D.canonical() == E.canonical() == (2, 1, ((P, 1),))
    assert repr(D) == f"NumClass(dprime=2, a=1, parts=(({P!r}, 'E', 1),))"


def test_normalize_and_ranges():
    b2 = [b for b in bundle_set() if b.l == 2 and b.field is F3][0]
    pts = sorted(b2.split_points, key=lambda P: curve.point_sort_key(F3, P))
    D = NumClass.make(2, 0, {pts[0]: -1, pts[1]: 1})
    n = picard.normalize(b2, D)
    assert picard.is_normalized(b2, n)
    assert n == D
    assert not picard.is_normalized(b2, NumClass.make(1, 0, {pts[2]: 1})) or pts[2].degree == 1


def test_classes_of_type():
    b2 = [b for b in bundle_set() if b.l == 2 and b.field is F3][0]
    # d=2: dprime=1; signed coefficient ranges {-1..1},{-1..1},{0}, parity keeps even sums
    cls = picard.classes_of_type(b2, 2, 4)
    assert len(cls) == 5
    for D in cls:
        assert picard.type_of(b2, D) == (2, 4)
        assert picard.is_normalized(b2, D)
    assert len({D for D in cls}) == 5  # genuinely distinct classes
    b1 = [b for b in bundle_set() if b.l == 1 and b.field is F3][0]
    assert picard.classes_of_type(b1, 3, 4) == []
    b0 = bundle_set()[0]
    odd = picard.classes_of_type(b0, 1, 4)
    assert len(odd) == 1 and odd[0].dprime == Fraction(1, 2)


def test_decompositions():
    b0 = [b for b in bundle_set() if b.l == 0 and b.field is F3][0]
    # type (2,0): only the half-H split (two parameterized (1,0) factors)
    dec = picard.decompositions(b0, NumClass.make(1, 0))
    assert len(dec) == 1
    D1, D2 = dec[0]
    assert picard.type_of(b0, D1) == (1, 0) and picard.type_of(b0, D2) == (1, 0)
    # type (2,2): section pairs with heights {0,2} plus (F, (2,0))
    dec = picard.decompositions(b0, NumClass.make(1, 1))
    types = sorted((picard.type_of(b0, x), picard.type_of(b0, y)) for x, y in dec)
    assert types == [((0, 2), (2, 0)), ((1, 0), (1, 2))]
    # heights on an l=0 bundle are even: no {1,1} pair can exist
    for x, y in dec:
        assert picard.type_of(b0, x)[1] % 2 == 0
    # type (2,4): four pairs
    dec = picard.decompositions(b0, NumClass.make(1, 2))
    assert len(dec) == 4
    for x, y in dec:
        tx, ty = picard.type_of(b0, x), picard.type_of(b0, y)
        assert tx[0] + ty[0] == 2 and tx[1] + ty[1] == 4
    # l=1 bundle, type (2,2) with b: splits respect normalized ranges
    b1 = [b for b in bundle_set() if b.l == 1 and b.field is F3][0]
    P = b1.split_points[0]
    D = NumClass.make(1, 0, {P: 1})  # type (2, 2)
    for x, y in picard.decompositions(b1, D):
        assert picard.is_normalized(b1, x) and picard.is_normalized(b1, y)
        cx, cy = x.canonical(), y.canonical()
        assert dict(cx[2]).get(P, 0) + dict(cy[2]).get(P, 0) == 1


@pytest.mark.parametrize("b", [
    mk(F3, 0, (F3.one,), (F3.one,), (F3.neg(F3.one),)),
    mk(F5, 0, (F5.one,), (F5.one,), (F5.neg(F5.one),)),
    mk(F3, 1, (0, 1), (1, 0), (1, 1)),
    mk(F3, 2, (1, 0, 1), (0, 1, 0), (1, 0, 2)),
], ids=["F3-l0-trivial", "F5-l0-trivial", "F3-l1-mixed", "F3-l2-double"])
def test_decompositions_match_the_former_walk(b):
    # the walk over canonical coordinates against the former class-building
    # body: the same pairs in the same order
    checked = 0
    for d in range(7):
        for e in range(9):
            for D in picard.classes_of_type(b, d, e):
                assert picard.decompositions(b, D) == oracles.decompositions(b, D), (d, e, D)
                checked += 1
    assert checked >= 30
