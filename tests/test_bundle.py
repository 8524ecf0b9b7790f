"""Bundle validation, fiber classification, and the singular catalog."""

import random

import pytest

from conic_census import bundle, curve, gf
from conic_census.bundle import BinaryForm, FiberClass
from conic_census.errors import NonReducedFiber, NotASplitFiber, SingularTotalSpace

F3 = gf.make_field(3)
F5 = gf.make_field(5)


def mk(F, l, a, b, c):
    return bundle.validate_bundle(F, l, a, b, c)


def trivial_bundle(F=F3):
    return mk(F, 0, (F.one,), (F.one,), (F.neg(F.one),))


def b1_bundle(F=F3):
    # a = t, b = s, c = s + t
    return mk(F, 1, (0, 1), (1, 0), (1, 1))


def b2_bundle(F=F3):
    # a = s^2 + t^2, b = st, c = s^2 - t^2
    mo = F.neg(F.one)
    return mk(F, 2, (F.one, F.zero, F.one), (F.zero, F.one, F.zero), (F.one, F.zero, mo))


def test_validate_examples():
    tb = trivial_bundle()
    assert tb.singular == ()
    assert bundle.singular_locus(tb) == ()
    b1 = b1_bundle()
    assert len(b1.singular) == 3
    with pytest.raises(NonReducedFiber):
        mk(F3, 1, (0, 1), (0, 1), (1, 0))  # a = b = t
    with pytest.raises(SingularTotalSpace):
        mk(F3, 2, (0, 0, 1), (1, 0, 0), (1, 1, 1))  # a = t^2 has a double zero
    with pytest.raises(SingularTotalSpace):
        mk(F3, 1, (0, 0), (1, 0), (1, 1))  # a = 0
    with pytest.raises(NonReducedFiber):
        mk(F3, 1, (1, 0), (2, 0), (0, 1))  # a = s, b = 2s share infinity


def test_classify_examples():
    tb = trivial_bundle()
    Pt = curve.point_from_poly(F3, (0, 1))
    assert bundle.classify_fiber(tb, Pt) is FiberClass.SMOOTH
    b1 = b1_bundle()
    # s=0 is the infinite point: b vanishes, fiber x^2 + z^2, -1 nonsquare in F3
    assert bundle.classify_fiber(b1, curve.INFINITY) is FiberClass.NONSPLIT_PAIR
    # t=0: a vanishes, fiber s(y^2) + (s+t)(z^2) -> y^2 + z^2 nonsplit
    assert bundle.classify_fiber(b1, Pt) is FiberClass.NONSPLIT_PAIR
    # t=-1: c vanishes, fiber -x^2 + y^2 splits into y +- x
    Pm1 = curve.point_from_poly(F3, (1, 1))
    assert bundle.classify_fiber(b1, Pm1) is FiberClass.SPLIT_PAIR
    lines = bundle.fiber_lines(b1, Pm1)
    assert set(lines) == {(1, 1, 0), (1, 2, 0)}
    assert lines[0] == (1, 1, 0)  # lex-least representative is the E side
    with pytest.raises(NotASplitFiber):
        bundle.fiber_lines(b1, Pt)


def test_b2_catalog():
    b2 = b2_bundle()
    cat = b2.singular
    assert sum(f.point.degree for f in cat) == 6
    by_point = {curve.point_str(F3, f.point): f.fiber_class for f in cat}
    assert by_point == {
        "infinity": FiberClass.SPLIT_PAIR,
        "t": FiberClass.NONSPLIT_PAIR,
        "t + 1": FiberClass.NONSPLIT_PAIR,
        "t + 2": FiberClass.SPLIT_PAIR,
        "t^2 + 1": FiberClass.SPLIT_PAIR,
    }
    # infinity: c = s^2 - t^2 vanishes... at s=0 c = -t^2 != 0; b = st vanishes at s=0.
    # fiber at infinity: a x^2 + c z^2 = x^2 - z^2, lines x +- z
    inf_lines = bundle.fiber_lines(b2, curve.INFINITY)
    assert set(inf_lines) == {(1, 0, 1), (1, 0, 2)}
    # t=1: c vanishes, fiber (1+1)x^2 + 1*y^2 = 2x^2 + y^2 = -(x^2 - y^2)... -b/a = -1/2 = 1 square
    p1 = curve.point_from_poly(F3, (2, 1))
    l1 = bundle.fiber_lines(b2, p1)
    assert set(l1) == {(1, 1, 0), (1, 2, 0)}
    # degree-2 split point t^2+1: -c/b square in F9
    p2 = curve.point_from_poly(F3, (1, 0, 1))
    assert bundle.classify_fiber(b2, p2) is FiberClass.SPLIT_PAIR
    assert not b2.generic_fiber_trivial
    assert b1_bundle().split_points == (curve.point_from_poly(F3, (1, 1)),)


def test_all_split_bundle():
    # a = t, b = s, c = -(s+t) over F3: all three singular fibers split
    allsplit = mk(F3, 1, (0, 1), (1, 0), (2, 2))
    assert allsplit.generic_fiber_trivial
    assert all(f.fiber_class is FiberClass.SPLIT_PAIR for f in allsplit.singular)
    # same shape over F5: (t, s, s+t) is all-split because -1 is a square
    b1f5 = b1_bundle(F5)
    assert b1f5.generic_fiber_trivial


def test_line_substitution_is_zero():
    # substituting a line form into the fiber conic kills it over kappa(P)
    for b in [b1_bundle(), b2_bundle(), b1_bundle(F5), b2_bundle(F5)]:
        F = b.field
        for sf in b.singular:
            if sf.fiber_class is not FiberClass.SPLIT_PAIR:
                continue
            K = curve.residue_field(F, sf.point)
            vals = [bundle.bf_value_at(F, f, sf.point) for f in (b.a, b.b, b.c)]
            for line in sf.lines:
                # pick the two coordinates the line lives in; solve and substitute
                # line is (c_x, c_y, c_z) with one zero entry at the vanished coefficient
                for probe in range(K.order):
                    w = K.from_index(probe)
                    # parameterize points on the line: coordinates u with sum c_i u_i = 0
                    pt = _point_on_line(K, line, w)
                    total = K.zero
                    for v, x in zip(vals, pt):
                        total = K.add(total, K.mul(v, K.mul(x, x)))
                    assert total == K.zero


def _point_on_line(K, line, w):
    # returns (x, y, z) with line . (x,y,z) = 0, parameterized by w
    i = next(idx for idx, c in enumerate(line) if c != K.zero)
    j, k = [idx for idx in range(3) if idx != i]
    pt = [K.zero] * 3
    pt[j] = w
    pt[k] = K.one
    rhs = K.add(K.mul(line[j], pt[j]), K.mul(line[k], pt[k]))
    pt[i] = K.neg(K.div(rhs, line[i]))
    return tuple(pt)


def test_scaling_invariance():
    rng = random.Random(5)
    b2 = b2_bundle()
    for lam_idx in (1, 2):
        lam = lam_idx
        scaled = mk(F3, 2,
                    tuple(F3.mul(lam, c) for c in b2.a.coeffs),
                    tuple(F3.mul(lam, c) for c in b2.b.coeffs),
                    tuple(F3.mul(lam, c) for c in b2.c.coeffs))
        for sf, sf2 in zip(b2.singular, scaled.singular):
            assert sf.point == sf2.point
            assert sf.fiber_class == sf2.fiber_class
            assert sf.lines == sf2.lines


def random_valid_bundle(rng, F, l):
    while True:
        coeffs = [tuple(rng.randrange(F.order) for _ in range(l + 1)) for _ in range(3)]
        if F.order != F.char:
            coeffs = [tuple(F.from_index(c) for c in cs) for cs in coeffs]
        try:
            return bundle.validate_bundle(F, l, *coeffs)
        except (NonReducedFiber, SingularTotalSpace, ValueError):
            continue


def test_random_bundles_catalog_degree():
    rng = random.Random(17)
    for F in (F3, F5):
        for l in (0, 1, 2, 3):
            for _ in range(25):
                b = random_valid_bundle(rng, F, l)
                assert sum(f.point.degree for f in b.singular) == 3 * l


def test_bundle_hash_and_split_points_are_computed_once():
    b = bundle.validate_bundle(F3, 2, (1, 0, 1), (0, 1, 0), (1, 0, 2))
    fields = (b.field, b.l, b.a, b.b, b.c, b.singular)
    assert hash(b) == hash(fields)
    again = bundle.validate_bundle(F3, 2, (1, 0, 1), (0, 1, 0), (1, 0, 2))
    assert again == b and hash(again) == hash(b)
    assert len(b.split_points) == 3 and b.split_points is b.split_points
    # the stored hash is read, not recomputed from the fields
    object.__setattr__(b, "singular", ())
    assert hash(b) == hash(fields)


def test_split_points_in_point_order():
    # the singular catalog is sorted by point, so split points come in report order
    rng = random.Random(29)
    checked = 0
    for F in (F3, gf.make_field(5), gf.make_field(3, 2)):
        for l in (0, 1, 2, 3):
            for _ in range(12):
                b = random_valid_bundle(rng, F, l)
                keys = [curve.point_sort_key(F, P) for P in b.split_points]
                assert keys == sorted(keys), (F.order, l, b.split_points)
                checked += len(keys) > 1
    assert checked >= 10
