"""Fiber-free and irreducible multisection counts against frozen oracles."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from conic_census import bundle, curve, gf, linsys, picard
from conic_census.bundle import BinaryForm, bf_mul
from conic_census.errors import EnumerationBudgetExceeded, OddDegreeUnsupported
from conic_census.linsys import section_space
from conic_census.picard import NumClass

F3 = gf.make_field(3)
F5 = gf.make_field(5)
F9 = gf.make_field(3, 2)
F25 = gf.make_field(5, 2)
F27 = gf.make_field(3, 3)

# Mobius-derived closed forms, computed by hand before the engines existed
FIBERFREE_D2 = {0: 13, 2: 312, 4: 8424, 6: 227448, 8: 6141096}
FIBERFREE_D1 = {0: 4, 2: 24, 4: 216, 6: 1944, 8: 17496}
COMPOSITES_D2 = {4: 1164, 6: 12960, 8: 140076}
PRIME_D2 = {4: 7260, 6: 214488, 8: 6001020}


def mk(F, l, a, b, c):
    return bundle.validate_bundle(F, l, a, b, c)


def b_trivial():
    return mk(F3, 0, (F3.one,), (F3.one,), (F3.neg(F3.one),))


def b_mixed():
    return mk(F3, 1, (0, 1), (1, 0), (1, 1))


def b_allsplit():
    # l=1 with every singular fiber split: -(s+t) completes a square chain
    return mk(F3, 1, (0, 1), (1, 0), (2, 2))


def b_catalog_l1(F):
    # the README's l=1 catalog bundle a=t, b=s, c=s+t read over F
    return mk(F, 1, (F.zero, F.one), (F.one, F.zero), (F.one, F.one))


P_T1 = curve.point_from_poly(F3, (1, 1))


def the_class(b, d, e):
    cls = picard.classes_of_type(b, d, e)
    assert len(cls) == 1
    return cls[0]


def test_fiberfree_trivial_bundle_frozen_values():
    b0 = b_trivial()
    for e, want in FIBERFREE_D2.items():
        assert linsys.fiberfree_count(b0, the_class(b0, 2, e)) == want
    for e, want in FIBERFREE_D1.items():
        assert linsys.fiberfree_count(b0, the_class(b0, 1, e)) == want


def test_fiberfree_closed_form_identity():
    # coprime-pair Mobius count: q^{r(A+1)} - (q+1)q^{rA} + q*q^{r(A-1)}, r=d+1
    q = 3
    for d, table in ((1, FIBERFREE_D1), (2, FIBERFREE_D2)):
        r = d + 1
        for e, want in table.items():
            A = e // 2
            total = sum(c * q ** (r * max(A - k + 1, 0))
                        for k, c in enumerate((1, -(q + 1), q)))
            assert want == total // (q - 1)


def test_fiberfree_edges():
    b0 = b_trivial()
    assert linsys.fiberfree_count(b0, NumClass.make(0, 1)) == 0
    assert linsys.fiberfree_count(b0, NumClass.make(1, -2)) == 0
    assert linsys.fiberfree_count(b0, NumClass.make(Fraction(1, 2), 0)) == 4
    # odd heights carry no classes on a trivial bundle
    assert picard.classes_of_type(b0, 2, 3) == []
    b1 = b_mixed()
    assert linsys.fiberfree_count(b1, NumClass.make(0, 1)) == 0


def test_fiberfree_split_conditions_frozen():
    b1 = b_mixed()
    D = NumClass.make(1, 0, {P_T1: 1})
    assert linsys.fiberfree_count(b1, D) == 24
    counts = [linsys.fiberfree_count(b1, c) for c in picard.classes_of_type(b1, 2, 2)]
    assert sorted(counts) == [24, 24]


def test_three_engines_agree_on_trivial_bundle():
    # ruled count == ambient literal scan == subset inclusion-exclusion
    b0 = b_trivial()
    for e in (0, 2, 4):
        D = the_class(b0, 2, e)
        want = linsys.fiberfree_count(b0, D)
        model = linsys._model(b0, D)
        scan = linsys._literal_scan(b0, D, model)
        tri = linsys._tri_count(b0, D, model, e)
        assert scan == tri == want


def test_budget_refusal_is_not_truncation():
    b0 = b_trivial()
    with pytest.raises(EnumerationBudgetExceeded):
        linsys.fiberfree_count(b0, the_class(b0, 2, 8), budget=100)
    with pytest.raises(EnumerationBudgetExceeded):
        linsys.prime_count(b0, 2, 8, budget=100)


def test_prime_counts_frozen_values():
    b0 = b_trivial()
    assert linsys.prime_count(b0, 2, 0) == 3
    assert linsys.prime_count(b0, 1, 2) == 24
    for e, want in PRIME_D2.items():
        assert linsys.prime_count(b0, 2, e) == want


def test_prime_composite_subtraction_identity():
    # composite counts are unordered products of fiber-free halves
    pairs = {
        4: FIBERFREE_D1[0] * FIBERFREE_D1[4] + FIBERFREE_D1[2] * (FIBERFREE_D1[2] + 1) // 2,
        6: FIBERFREE_D1[0] * FIBERFREE_D1[6] + FIBERFREE_D1[2] * FIBERFREE_D1[4],
        8: (FIBERFREE_D1[0] * FIBERFREE_D1[8] + FIBERFREE_D1[2] * FIBERFREE_D1[6]
            + FIBERFREE_D1[4] * (FIBERFREE_D1[4] + 1) // 2),
    }
    for e in (4, 6, 8):
        assert pairs[e] == COMPOSITES_D2[e]
        assert FIBERFREE_D2[e] - COMPOSITES_D2[e] == PRIME_D2[e]


def test_prime_never_exceeds_fiberfree():
    b0 = b_trivial()
    for e in (0, 2, 4, 6):
        total = sum(linsys.fiberfree_count(b0, c) for c in picard.classes_of_type(b0, 2, e))
        assert linsys.prime_count(b0, 2, e) <= total


def test_prime_d2_on_split_bundle_has_no_composites():
    # integer classes all have even fiber degree, so (2,e) never decomposes
    b1 = b_mixed()
    for e in (2, 3):
        total = sum(linsys.fiberfree_count(b1, c) for c in picard.classes_of_type(b1, 2, e))
        assert linsys.prime_count(b1, 2, e) == total


def test_prime_d4_division_path_regression():
    # engine-frozen values; the two scan engines and the exact fiber-power
    # division agree internally on every decomposition
    b1 = b_mixed()
    assert linsys.prime_count(b1, 4, 2) == 225
    assert linsys.prime_count(b1, 4, 3) == 4656


def test_odd_degree_refusals():
    b1 = b_mixed()
    with pytest.raises(OddDegreeUnsupported):
        linsys.prime_count(b1, 3, 4)
    assert picard.classes_of_type(b1, 1, 3) == []
    ba = b_allsplit()
    assert ba.generic_fiber_trivial
    with pytest.raises(OddDegreeUnsupported):
        linsys.prime_count(ba, 2, 2)


def test_product_multiplicities_are_additive():
    # multiplying sections adds component multiplicities
    b1 = b_mixed()
    D1 = NumClass.make(1, 0, {P_T1: 1})
    D2 = NumClass.make(1, 0)
    s1 = linsys.Section(D1, {(1, 0, 0): BinaryForm(1, (1, 1)),
                             (0, 1, 0): BinaryForm(1, (2, 2))})
    s2 = linsys.Section(D2, {(1, 0, 0): BinaryForm(0, (1,)),
                             (0, 1, 0): BinaryForm(0, (1,))})
    prod = {}
    for m1, f1 in s1.ambient_coeffs.items():
        for m2, f2 in s2.ambient_coeffs.items():
            key = tuple(a + b for a, b in zip(m1, m2))
            f = bf_mul(F3, f1, f2)
            if key in prod:
                got = prod[key]
                prod[key] = BinaryForm(f.degree, tuple(
                    F3.add(x, y) for x, y in zip(got.coeffs, f.coeffs)))
            else:
                prod[key] = f
    D12 = NumClass.make(2, 0, {P_T1: 1})
    s12 = linsys.Section(D12, prod)
    for side in ("E", "Ep", "full"):
        m1 = linsys.component_multiplicity(b1, s1, P_T1, side)
        m2 = linsys.component_multiplicity(b1, s2, P_T1, side)
        assert linsys.component_multiplicity(b1, s12, P_T1, side) == m1 + m2


def test_scan_dimension_threshold_frozen():
    assert linsys.scan_dimension_threshold(b_trivial(), curve.P1_CURVE, 2) == -2
    assert linsys.scan_dimension_threshold(b_mixed(), curve.P1_CURVE, 2) == -1
    b2 = mk(F3, 2, (1, 0, 1), (0, 1, 0), (1, 0, 2))
    assert linsys.scan_dimension_threshold(b2, curve.P1_CURVE, 2) == 1


def test_extension_field_fiberfree_counts_frozen():
    # frozen subset-sum values; the literal scan must reproduce each of them
    def census(F, e, max_dim):
        b = b_catalog_l1(F)
        return Counter(linsys.fiberfree_count(b, D) for D in picard.classes_of_type(b, 2, e)
                       if section_space(b, D).dim <= max_dim)

    assert census(F9, 2, 4) == {57: 4, 64: 4, 690: 6}
    assert census(F25, 1, 3) == {23: 12, 645: 1}
    assert census(F25, 2, 3) == {553: 4, 576: 4}
    assert census(F27, 1, 3) == {755: 1}


def _gcd_fiber_free(b, D, model, flat):
    """Reference fiber test for dp <= 1 classes, on a flat vector: coefficient
    forms of full degree with no common factor (no full fiber contained), and
    no split line contained beyond the class's forced level."""
    F = b.field
    width = model.A + 1
    forms = [gf.poly_trim(F, flat[m * width:(m + 1) * width]) for m in range(len(model.monos))]
    forms = [f for f in forms if f]
    if max(len(f) for f in forms) != width:
        return False
    g = ()
    for f in forms:
        g = gf.poly_gcd(F, g, f)
    if gf.deg(g) != 0:
        return False
    for P in b.split_points:
        for side in ("E", "Ep"):
            rows = linsys._line_ann_rows(b, model.dp, model.A, P, side,
                                         linsys._forced_level(D, P, side) + 1)
            if all(linsys._dot(F, r, flat) == F.zero for r in rows):
                return False
    return True


def _pool_fiber_free(F, pool, coords):
    return not any(all(linsys._dot(F, r, coords) == F.zero for r in blk) for blk in pool)


@pytest.mark.parametrize("F, l, a, b, c, e_max", [
    (F3, 1, (0, 1), (1, 0), (1, 1), 8),
    (F3, 2, (1, 0, 1), (0, 1, 0), (1, 0, 2), 6),
    (F5, 1, (0, 1), (1, 0), (2, 1), 6),
    (F9, 1, (F9.zero, F9.one), (F9.one, F9.zero), ((1, 1), F9.one), 4),
], ids=["F3-l1", "F3-l2", "F5-l1", "F9-l1"])
def test_component_pool_matches_gcd_predicate(F, l, a, b, c, e_max):
    # brute force with field operations only: every member of every small
    # dp <= 1 class, its flat built from the basis, tested both ways
    bnd = mk(F, l, a, b, c)
    elems = list(F.elements())
    checked = 0
    for d, e in itertools.product((0, 2), range(-1, e_max + 1)):
        for D in picard.classes_of_type(bnd, d, e):
            model = linsys._model(bnd, D)
            n = model.dim
            if n == 0 or F.order ** n > 3 ** 8:
                continue
            D = model.cls
            pool = linsys._component_pool(bnd, D, model, e)
            free = set()
            for coords in itertools.product(elems, repeat=n):
                if next((x for x in coords if x != F.zero), None) != F.one:
                    continue
                flat = [F.zero] * model.N
                for x, v in zip(coords, model.basis):
                    flat = [F.add(y, F.mul(x, cv)) for y, cv in zip(flat, v)]
                by_gcd = _gcd_fiber_free(bnd, D, model, flat)
                assert by_gcd == _pool_fiber_free(F, pool, coords), (D, coords)
                if by_gcd:
                    free.add(linsys._member_key(F, flat))
            assert linsys.fiberfree_count(bnd, D) == len(free), D
            count, members = linsys._literal_scan(bnd, D, model, collect=True)
            assert count == len(free)
            assert {linsys._member_key(F, m) for m in members} == free, D
            checked += 1
    assert checked >= 4
