"""Fiber-free and irreducible multisection counts against frozen oracles."""

import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import oracles
from conic_census import bundle, census, conditions, curve, gf, linsys, picard, sections
from conic_census import pool as subset_sum  # the tests name their pools `pool`
from conic_census.bundle import BinaryForm, bf_mul
from conic_census.errors import EnumerationBudgetExceeded, OddDegreeUnsupported
from conic_census.picard import NumClass

F3 = gf.make_field(3)
F5 = gf.make_field(5)
F9 = gf.make_field(3, 2)
F25 = gf.make_field(5, 2)
F27 = gf.make_field(3, 3)

# Mobius-derived closed forms, computed by hand before the engines existed
FIBERFREE_D2 = {0: 13, 2: 312, 4: 8424, 6: 227448, 8: 6141096}
FIBERFREE_D1 = {0: 4, 2: 24, 4: 216, 6: 1944, 8: 17496, 10: 157464}
COMPOSITES_D2 = {4: 1164, 6: 12960, 8: 140076}
PRIME_D2 = {4: 7260, 6: 214488, 8: 6001020}


def mk(F, l, a, b, c):
    return bundle.validate_bundle(F, l, a, b, c)


def b_trivial():
    return mk(F3, 0, (F3.one,), (F3.one,), (F3.neg(F3.one),))


def b_mixed():
    return mk(F3, 1, (0, 1), (1, 0), (1, 1))


def b_double():
    # l=2 with split points of degree 1 and 2
    return mk(F3, 2, (1, 0, 1), (0, 1, 0), (1, 0, 2))


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


def p1_fiberfree(q, d, e):
    """Coprime-pair Mobius count of the bidegree (d, e/2) system on P1 x P1:
    (q^{r(B+1)} - (q+1) q^{rB} + q q^{r(B-1)}) / (q - 1), with r = d + 1 and
    B = e/2.  At B = 0 no fiber is in reach and every member is fiber-free."""
    r, B = d + 1, e // 2
    if B == 0:
        return (q ** r - 1) // (q - 1)
    return (q ** (r * (B + 1)) - (q + 1) * q ** (r * B) + q * q ** (r * (B - 1))) // (q - 1)


def test_fiberfree_closed_form_identity():
    for d, table in ((1, FIBERFREE_D1), (2, FIBERFREE_D2)):
        for e, want in table.items():
            assert want == p1_fiberfree(3, d, e)
    # every l = 0 count runs the sieve over the ruled model's dims, and nothing
    # checks it against the closed form at run time; this test does.  The
    # budget is only a q^dim size rule, so it is lifted for the larger spaces.
    # The F9 bundle is perfbench's extfield_f9 bundle (c = 2 = -1).
    cases = [(F3, d, range(0, 9, 2)) for d in (1, 2, 3, 4)]
    cases += [(F5, d, (0, 2, 4)) for d in (1, 2, 3)]
    cases += [(F9, 1, (0, 2, 4)), (F9, 2, (0, 2)), (F9, 3, (0, 2))]
    cases += [(F, d, (0, 2)) for F in (F25, F27) for d in (1, 2)]
    for F, d, heights in cases:
        b = mk(F, 0, (F.one,), (F.one,), (F.neg(F.one),))
        for e in heights:
            got = linsys.fiberfree_count(b, the_class(b, d, e), budget=10 ** 12)
            assert got == p1_fiberfree(F.order, d, e), (F.order, d, e)


def test_fiberfree_edges():
    b0 = b_trivial()
    assert linsys.fiberfree_count(b0, NumClass.make(0, 1)) == 0
    assert linsys.fiberfree_count(b0, NumClass.make(1, -2)) == 0
    assert linsys.fiberfree_count(b0, NumClass.make(Fraction(1, 2), 0)) == 4
    # odd heights carry no classes on a trivial bundle
    assert picard.classes_of_type(b0, 2, 3) == []
    b1 = b_mixed()
    assert linsys.fiberfree_count(b1, NumClass.make(0, 1)) == 0
    # negative dprime has no members on l = 0; on l >= 1 a half-integer class
    # is refused whatever its sign
    assert linsys.fiberfree_count(b0, NumClass.make(Fraction(-1, 2), 0)) == 0
    assert linsys.fiberfree_count(b0, NumClass.make(-1, 0)) == 0
    for dp in (Fraction(1, 2), Fraction(-1, 2)):
        with pytest.raises(OddDegreeUnsupported):
            linsys.fiberfree_count(b1, NumClass.make(dp, 0))


def test_fiberfree_split_conditions_frozen():
    b1 = b_mixed()
    D = NumClass.make(1, 0, {P_T1: 1})
    assert linsys.fiberfree_count(b1, D) == 24
    counts = [linsys.fiberfree_count(b1, c) for c in picard.classes_of_type(b1, 2, 2)]
    assert sorted(counts) == [24, 24]


def _l0(F):
    return mk(F, 0, (F.one,), (F.one,), (F.neg(F.one),))


# (bundle, fiber degrees, heights) for every class the sieve counts: dprime <= 1
# on l >= 1, and every dprime on l = 0, half-integers included (d = 1, 3).
# The F3 l = 2 bundle has a degree-2 split point.  F5 and F9 on l = 0 stop at
# e = 4, where the pool has the points of degree <= 2: at e = 6 the subset sum
# over the degree-3 points takes 1 s on F5 and over 10 s on F9.
SIEVE_CASES = [
    (b_mixed, (0, 2), range(7)),
    (b_allsplit, (0, 2), range(7)),
    (lambda: mk(F3, 2, (1, 0, 1), (0, 1, 0), (1, 0, 2)), (0, 2), range(7)),
    (lambda: mk(F5, 1, (1, 1), (2, 0), (0, 1)), (0, 2), range(7)),
    (lambda: _l0(F3), (0, 1, 2, 3), range(7)),
    (lambda: _l0(F5), (0, 1, 2, 3), range(5)),
    (lambda: _l0(F9), (0, 1, 2, 3), range(5)),
]


def test_sieve_matches_subset_sum_wherever_it_runs():
    # the sieve reads only dims; the subset sum over the containment-row pool
    # is its oracle here, class by class
    checked = 0
    for make, degrees, heights in SIEVE_CASES:
        b = make()
        for d, e in itertools.product(degrees, heights):
            for D in picard.classes_of_type(b, d, e):
                pool = subset_sum._component_pool(b, D)
                want = subset_sum._tri_count(b.field, pool, linsys._dim(b, D))
                assert linsys._fiberfree(b, *picard.coords(b, D)) == want, (b.field.order, b.l, d, e, D)
                checked += 1
    assert checked >= 200


def test_sieve_counts_large_ruled_classes_quickly():
    # dim 16 and 509 pool blocks: the subset sum ran past 100 s on this class,
    # the sieve reads three dims
    b0 = b_trivial()
    assert linsys.fiberfree_count(b0, the_class(b0, 1, 14)) == p1_fiberfree(3, 1, 14)


def test_sieve_reads_dims_only(monkeypatch):
    # neither the component pool nor the closed points of the base are built
    # for a class the sieve counts, and the prime-count recursion builds,
    # sorts and intersects no class; the memos are cleared so nothing is reused
    def refuse(*args, **kwargs):
        raise AssertionError("the sieve path reached the component pool or built a class")

    b1 = b_mixed()
    classes = picard.classes_of_type(b1, 2, 4)
    assert len(classes) == 2
    for module, name in ((subset_sum, "_component_pool"), (curve, "closed_points_up_to"),
                         (picard, "decompositions"), (picard, "type_of"),
                         (picard, "class_from_canonical")):
        monkeypatch.setattr(module, name, refuse)
    for memo in (linsys._fiberfree, linsys._weighted, linsys._prime, linsys._dim_at):
        memo.cache_clear()
    assert linsys.prime_count(b_trivial(), 2, 8) == PRIME_D2[8]
    assert linsys.prime_count(b_trivial(), 3, 6) == 19342864  # half-integer dprime
    assert linsys.prime_count(b1, 2, 8) == 944784
    assert [linsys.fiberfree_count(b1, D) for D in classes] == [648, 648]


def test_three_engines_agree_on_trivial_bundle():
    # ruled count == scan oracle == subset sum, on the ruled component pool and
    # on the plane model of the oracles, whose pool is every full fiber of
    # height <= e (the bundle has no singular fibers) mapped onto its basis
    b0 = b_trivial()
    for e in (0, 2, 4, 6):
        D = picard.normalize(b0, the_class(b0, 2, e))
        want = linsys.fiberfree_count(b0, D)
        basis = oracles.ambient_basis(b0, D)
        ambient_pool = [oracles.rows_on_basis(
            F3, oracles.full_ann_rows(b0, 2 * D.dprime, D.a, P, 1), basis)
            for P in curve.closed_points_up_to(F3, e // 2)]
        for pool, n in ((ambient_pool, len(basis)),
                        (subset_sum._component_pool(b0, D), linsys._dim(b0, D))):
            scan = oracles.scan_fiberfree(b0.field, pool, n)
            tri = subset_sum._tri_count(b0.field, pool, n)
            assert scan == tri == want


@pytest.mark.parametrize("F", [F3, F5, F9], ids=["F3", "F5", "F9"])
def test_ambient_and_ruled_models_agree_in_dim_on_l0(F):
    # the plane model of the oracles, forms in (x, y, z) modulo the conic
    # multiples, checks the ruled model on l = 0; odd d gives half-integer
    # dprime, which has only the ruled model
    b0 = mk(F, 0, (F.one,), (F.one,), (F.neg(F.one),))
    checked = 0
    for d, e in itertools.product((0, 2, 4), range(-6, 9)):
        for D in picard.classes_of_type(b0, d, e):
            D = picard.normalize(b0, D)
            assert len(oracles.ambient_basis(b0, D)) == sections.section_space(b0, D).dim, (d, e)
            checked += 1
    assert checked >= 20


@pytest.mark.parametrize("d, heights", [(2, range(2, 7)), (4, range(2, 5))],
                         ids=["ambient_d2", "ambient_d4"])
def test_scan_oracle_matches_subset_sum_on_benchmarked_classes(d, heights):
    # every class of perfbench's ambient configs: the l = 1 catalog bundle over
    # F3, spaces up to dim 11.  Engines are compared, no value is frozen.
    b = b_catalog_l1(F3)
    for e in heights:
        for D in picard.classes_of_type(b, d, e):
            pool = subset_sum._component_pool(b, D)
            dim = linsys._dim(b, D)
            scan = oracles.scan_fiberfree(F3, pool, dim)
            tri = subset_sum._tri_count(F3, pool, dim)
            assert scan == tri == linsys.fiberfree_count(b, D), (e, D)


def test_prime_count_honors_a_budget_above_the_default():
    # dim 18 on the classes of type (2, 10): 3^18 exceeds the default budget,
    # and the recursion must not charge the default again once they are admitted
    b0 = b_trivial()
    got = linsys.prime_count(b0, 2, 10, budget=10 ** 12)
    assert got == sum(linsys._prime(b0, *D) for D in picard.canonical_of_type(b0, 2, 10))
    with pytest.raises(EnumerationBudgetExceeded):
        linsys.prime_count(b0, 2, 10)


def test_budget_refusal_is_not_truncation():
    b0 = b_trivial()
    with pytest.raises(EnumerationBudgetExceeded):
        linsys.fiberfree_count(b0, the_class(b0, 2, 8), budget=100)
    with pytest.raises(EnumerationBudgetExceeded):
        linsys.prime_count(b0, 2, 8, budget=100)
    # the memoized prime counts still refuse a too-small budget
    assert linsys.prime_count(b0, 2, 4) == PRIME_D2[4]
    with pytest.raises(EnumerationBudgetExceeded):
        linsys.prime_count(b0, 2, 4, budget=100)
    # the first refusal follows the charge order: each class, then both sides
    # of each factor pair.  At (6, 3) factor classes of dim 3 and of dim 4 both
    # exceed the budget; at (4, 2) every class has dim <= 1, so a factor
    # class refuses
    for d, e, want in ((6, 3, "3^4 = 81 scan steps exceed the budget 9"),
                       (4, 2, "3^3 = 27 scan steps exceed the budget 9")):
        with pytest.raises(EnumerationBudgetExceeded) as refused:
            linsys.prime_count(b_double(), d, e, budget=9)
        assert str(refused.value) == want, (d, e)


def test_budget_refusal_of_a_size_too_long_to_print():
    # Python converts at most 4300 digits of an int to a string: 3^9012 has
    # 4300 digits and is written out, 3^9013 has 4301 and is not
    limit = sys.get_int_max_str_digits()
    assert len(str(3 ** 9012)) == limit
    for dim, want in ((9012, f"3^9012 = {3 ** 9012} scan steps exceed the budget 9"),
                      (9013, "3^9013 scan steps exceed the budget 9")):
        with pytest.raises(EnumerationBudgetExceeded) as refused:
            linsys._check_budget(3, dim, 9)
        assert str(refused.value) == want, dim


def test_prime_counts_frozen_values():
    b0 = b_trivial()
    assert linsys.prime_count(b0, 2, 0) == 3
    # the empty divisor is no prime, and no horizontal prime has d < 1
    assert linsys.prime_count(b0, 0, 0) == 0
    assert linsys.prime_count(b_mixed(), 0, 0) == 0
    assert linsys.prime_count(b0, 1, 2) == 24
    for e, want in PRIME_D2.items():
        assert linsys.prime_count(b0, 2, e) == want
    # F9 runs the recursion on an extension-field bundle
    b9 = mk(F9, 0, (F9.one,), (F9.one,), (F9.neg(F9.one),))
    assert linsys.fiberfree_count(b9, the_class(b9, 2, 2)) == 65520
    assert linsys.prime_count(b9, 2, 2) == 58320


def test_prime_counts_match_the_p1_closed_form_on_l0():
    # ROADMAP item 16: on l = 0 the classes of type (d, e) are the bidegree
    # (d, e/2) curves on P1 x P1, whose irreducible counts the oracle takes
    # from the divisor counts alone.  Above a0 every dim the sieve reads is chi,
    # so F3 d = 4 reaches e = 40 with four echelons
    want = oracles.p1_prime_counts(3, 2, 4)
    assert want[1, 1] == 24 and all(want[2, e // 2] == n for e, n in PRIME_D2.items())
    for F in (F3, F5, F9, F25, F27):
        b = _l0(F)
        want = oracles.p1_prime_counts(F.order, 4, 20)
        for d in (1, 2, 3, 4):
            for e in range(0, 41, 2):
                got = linsys.prime_count(b, d, e, budget=10 ** 400)
                assert got == want[d, e // 2], (F.order, d, e)


def test_l0_secondary_term_is_exact():
    # ROADMAP items 11 and 16: on the F3 trivial bundle at d = 2 the count
    # misses the prediction by exactly the composites of two d = 1 curves
    b = b_trivial()
    prime = oracles.p1_prime_counts(3, 2, 40)
    for e in range(2, 81, 2):
        main, err = census.predict(b, curve.P1_CURVE, 2, e)
        got = (prime[2, e // 2] - main) / err
        want = -Fraction(16, 9) * (e + 4) - (Fraction(4, 3 ** (e // 2 + 1)) if e % 4 == 0 else 0)
        assert got == want, (
            f"e = {e}: (M - main)/error_scale = {got.u} + {got.v}*sqrt(3), expected {want}. "
            "M = main minus the unordered pairs of curves of bidegree (1, i) and "
            "(1, e/2 - i), of which there are 4 at i = 0 and 8*3^(2i-1) at i >= 1: "
            "half the ordered pairs give -(16/9)(e + 4) error scales, and when 4 | e the "
            "8*3^(e/2-1) double curves 2C of bidegree (2, e/2) add half of their number, "
            "-4/3^(e/2+1) error scales. The secondary term is linear in e, and "
            "error_scale omits that factor")


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
    # engine-frozen subset-sum values; no second engine rechecks them at run
    # time.  test_scan_oracle_matches_subset_sum_on_benchmarked_classes compares
    # the engines on this F3 bundle's d = 4 classes up to height 4
    b1 = b_mixed()
    assert linsys.prime_count(b1, 4, 2) == 225
    assert linsys.prime_count(b1, 4, 3) == 4656
    assert linsys.prime_count(b_catalog_l1(gf.make_field(7)), 4, 2) == 17283


def test_prime_count_builds_each_class_pairs_once(monkeypatch):
    # the budget gate and the identity read one walk over a class's factor
    # pairs: 2 classes of the type and 6 factor classes, each walked once
    walked = Counter()
    sub_classes = picard.sub_classes

    def counted(b, *D):
        walked[D] += 1
        return sub_classes(b, *D)

    monkeypatch.setattr(picard, "sub_classes", counted)
    for memo in (linsys._dim_at, linsys._fiberfree, linsys._weighted, linsys._prime):
        memo.cache_clear()
    assert linsys.prime_count(b_mixed(), 4, 3) == 4656
    assert len(walked) == 8 and set(walked.values()) == {1}, walked


def _member_flats(F, basis):
    """(coords, flat) of every member of a basis (`sections._basis`), one per
    scalar class (leading coordinate 1), the flat built from the basis with
    field operations only."""
    for coords in itertools.product(list(F.elements()), repeat=len(basis)):
        if next((x for x in coords if x != F.zero), None) != F.one:
            continue
        flat = [F.zero] * len(basis[0])
        for x, v in zip(coords, basis):
            flat = [F.add(y, F.mul(x, cv)) for y, cv in zip(flat, v)]
        yield coords, flat


def _ruled_members(b, D):
    """Fiber-free members of a ruled class by the gcd reference, as dicts
    {(i, t): c} for the coefficient of x0^(delta - i) x1^i t^t."""
    _, A, _ = linsys._layout(b, D)
    return [{divmod(k, A + 1): c for k, c in enumerate(flat) if c != b.field.zero}
            for _, flat in _member_flats(b.field, sections._basis(b, D))
            if _gcd_fiber_free(b, D, flat)]


def _ruled_product_key(F, f1, f2):
    """The product of two ruled members with its leading coefficient scaled to 1."""
    prod = {}
    for (i1, t1), c1 in f1.items():
        for (i2, t2), c2 in f2.items():
            key = (i1 + i2, t1 + t2)
            prod[key] = F.add(prod.get(key, F.zero), F.mul(c1, c2))
    terms = sorted((k, c) for k, c in prod.items() if c != F.zero)
    inv = F.inv(terms[0][1])
    return tuple((k, F.mul(inv, c)) for k, c in terms)


@pytest.mark.parametrize("F, d, e", [
    (F3, 2, 0), (F3, 2, 2), (F3, 2, 4), (F3, 3, 2), (F9, 2, 2),
], ids=["F3-d2-e0", "F3-d2-e2", "F3-d2-e4", "F3-d3-e2", "F9-d2-e2"])
def test_prime_count_matches_brute_force_marking(F, d, e):
    # on the ruled model a product is plain bidegree multiplication: no conic
    # reduction and no fiber-power division, so marking every product of two
    # fiber-free members is an independent count of the composite members
    b = mk(F, 0, (F.one,), (F.one,), (F.neg(F.one),))
    D = the_class(b, d, e)
    members = {}
    composites = set()
    for D1, D2 in picard.decompositions(b, D):
        if D1.dprime == 0 or D2.dprime == 0:
            continue
        for X in (D1, D2):
            if X not in members:
                members[X] = _ruled_members(b, X)
        for i1, f1 in enumerate(members[D1]):
            for f2 in members[D2][i1:] if D1 == D2 else members[D2]:
                composites.add(_ruled_product_key(F, f1, f2))
    assert linsys.fiberfree_count(b, D) - len(composites) == linsys.prime_count(b, d, e)


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
    s1 = sections.Section(D1, {(1, 0, 0): BinaryForm(1, (1, 1)),
                             (0, 1, 0): BinaryForm(1, (2, 2))})
    s2 = sections.Section(D2, {(1, 0, 0): BinaryForm(0, (1,)),
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
    s12 = sections.Section(D12, prod)
    for side in ("E", "Ep", "full"):
        m1 = sections.component_multiplicity(b1, s1, P_T1, side)
        m2 = sections.component_multiplicity(b1, s2, P_T1, side)
        assert sections.component_multiplicity(b1, s12, P_T1, side) == m1 + m2


def test_scan_dimension_threshold_frozen():
    assert linsys.scan_dimension_threshold(b_trivial(), 2) == -2
    assert linsys.scan_dimension_threshold(b_mixed(), 2) == -1
    b2 = mk(F3, 2, (1, 0, 1), (0, 1, 0), (1, 0, 2))
    assert linsys.scan_dimension_threshold(b2, 2) == 1


def test_extension_field_fiberfree_counts_frozen():
    # frozen subset-sum values, each recounted member by member with field
    # operations over the same pool: no engine rechecks them at run time
    def census(F, e, max_dim):
        b = b_catalog_l1(F)
        counts = Counter()
        for D in picard.classes_of_type(b, 2, e):
            basis = sections._basis(b, D)
            if len(basis) > max_dim:
                continue
            n = linsys.fiberfree_count(b, D)
            pool = subset_sum._component_pool(b, D)
            at = _pool_columns(b, D)
            assert n == sum(_pool_fiber_free(F, pool, [flat[c] for c in at])
                            for _, flat in _member_flats(F, basis)), D
            counts[n] += 1
        return counts

    assert census(F9, 2, 4) == {57: 4, 64: 4, 690: 6}
    assert census(F25, 1, 3) == {23: 12, 645: 1}
    assert census(F25, 2, 3) == {553: 4, 576: 4}
    assert census(F27, 1, 3) == {755: 1}


def _gcd_fiber_free(b, D, flat):
    """Reference fiber test for dp <= 1 classes, on a flat vector: coefficient
    forms of full degree with no common factor (no full fiber contained), and
    no split line contained beyond the order the class's layout forces."""
    F = b.field
    d, A, lines = linsys._layout(b, D)
    forced = {(P, side): c for P, side, c in lines}
    width = A + 1
    forms = [gf.poly_trim(F, flat[m * width:(m + 1) * width])
             for m in range(len(linsys._monos(b, d)))]
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
            rows = conditions._ann_rows(b, d, A, P, side, forced.get((P, side), 0) + 1)
            if all(conditions._dot(F, r, flat) == F.zero for r in rows):
                return False
    return True


def _pool_columns(b, D):
    """The flat columns that are a member's coordinates for the component pool
    of its class: `_cols` less the condition pivots, so on l = 0 all."""
    cols, _, piv = conditions._conditions(b, D)
    return [c for j, c in enumerate(cols) if j not in piv]


def _pool_fiber_free(F, pool, coords):
    return not any(all(conditions._dot(F, r, coords) == F.zero for r in blk) for blk in pool)


def _brute_pool_count(F, pool, n):
    """Members of F^n up to scalars (leading coordinate 1) on which no block vanishes."""
    return sum(_pool_fiber_free(F, pool, coords)
               for coords in itertools.product(list(F.elements()), repeat=n)
               if next((x for x in coords if x != F.zero), None) == F.one)


@pytest.mark.parametrize("F", [F3, F9], ids=["F3", "F9"])
def test_tri_count_hand_built_pools(F):
    n = 4
    unit = lambda i: [F.one if j == i else F.zero for j in range(n)]
    c = F.from_index(F.order - 1)  # a nonzero scalar other than one
    e0, e1, e2, e3 = (unit(i) for i in range(n))
    e01 = F.sub_scaled(e0, F.neg(c), e1)  # e0 + c*e1, inside the span of e0, e1
    pools = {
        "inside an earlier span": [[e0, e1], [e01], [e2, e01]],
        "repeated rows": [[e2, e2, F.scaled(c, e2)], [e01, e0, e01], [e3]],
        "fills at once": [[e1], [e3, e2, e01, e1], [e0, e2]],
        "fills after a repeat": [[e01], [e3, e3, e2, e0, e1], [e1, e2]],
        "no blocks": [],
        "an empty block": [[e0], []],
    }
    rng = random.Random(9)
    elems = list(F.elements())
    for k in range(12):
        pools[f"random {k}"] = [[[rng.choice(elems) for _ in range(n)]
                                 for _ in range(rng.randint(1, 3))] for _ in range(5)]
    for name, pool in pools.items():
        want = _brute_pool_count(F, pool, n)
        assert subset_sum._tri_count(F, pool, n) == want, name
    assert _brute_pool_count(F, pools["no blocks"], n) == (F.order ** n - 1) // (F.order - 1)


@pytest.mark.parametrize("F", [F3, F9], ids=["F3", "F9"])
def test_tri_count_drops_a_spanning_block(F, monkeypatch):
    # every subset that holds a block spanning F^n adds q^0 - 1 = 0, so the
    # block changes no count wherever it sits, and the walk never reaches it:
    # the only rows it costs are those of its own rank check
    n = 4
    rng = random.Random(5)
    elems = list(F.elements())
    span = [[F.one if j == i else F.zero for j in range(n)] for i in range(n)][::-1]
    pools = [[[[rng.choice(elems) for _ in range(n)] for _ in range(rng.randint(1, 3))]
              for _ in range(5)] for _ in range(6)]
    pools.append([[row] for row in span[:2]])
    appended = []
    append_row = conditions._append_row

    def counting(*args):
        appended.append(1)
        return append_row(*args)

    monkeypatch.setattr(conditions, "_append_row", counting)
    for pool in pools:
        appended.clear()
        want = subset_sum._tri_count(F, pool, n)
        walk = len(appended)
        for at in (0, 2, len(pool)):
            appended.clear()
            assert subset_sum._tri_count(F, pool[:at] + [span] + pool[at:], n) == want, at
            assert len(appended) == walk + n, at


@pytest.mark.parametrize("F, l, a, b, c, e_max", [
    (F3, 1, (0, 1), (1, 0), (1, 1), 8),
    (F3, 2, (1, 0, 1), (0, 1, 0), (1, 0, 2), 6),
    (F5, 1, (0, 1), (1, 0), (2, 1), 6),
    (F9, 1, (F9.zero, F9.one), (F9.one, F9.zero), (F9.from_digits([1, 1]), F9.one), 4),
    (F3, 0, (1,), (1,), (2,), 6),
    (F5, 0, (1,), (1,), (4,), 4),
    (F9, 0, (F9.one,), (F9.one,), (F9.neg(F9.one),), 2),
], ids=["F3-l1", "F3-l2", "F5-l1", "F9-l1", "F3-l0", "F5-l0", "F9-l0"])
def test_component_pool_matches_gcd_predicate(F, l, a, b, c, e_max):
    # brute force with field operations only: every member of every small
    # class the gcd reference covers (dp <= 1 ambient classes, and every
    # ruled class on l = 0), its flat built from the basis, tested both ways
    bnd = mk(F, l, a, b, c)
    checked = 0
    for d, e in itertools.product((0, 1, 2), range(-1, e_max + 1)):
        for D in picard.classes_of_type(bnd, d, e):
            basis = sections._basis(bnd, D)
            n = len(basis)
            if n == 0 or F.order ** n > 3 ** 8:
                continue
            pool = subset_sum._component_pool(bnd, D)
            at = _pool_columns(bnd, D)
            free = set()
            for coords, flat in _member_flats(F, basis):
                by_gcd = _gcd_fiber_free(bnd, D, flat)
                assert by_gcd == _pool_fiber_free(F, pool, [flat[c] for c in at]), (D, coords)
                if by_gcd:
                    free.add(tuple(flat))
            assert linsys.fiberfree_count(bnd, D) == len(free), D
            checked += 1
    assert checked >= 4
