"""Section spaces, component multiplicities, and sieve proportions."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import oracles
from conic_census import bundle, conditions, curve, gf, linsys, picard, sections
from conic_census.bundle import BinaryForm, FiberClass
from conic_census.errors import EmptySpace, NotASplitFiber, OddDegreeUnsupported, ZeroSection
from conic_census.sections import Section, component_set, section_space
from conic_census.picard import CLASS_H, NumClass

F3 = gf.make_field(3)


def mk(F, l, a, b, c):
    return bundle.validate_bundle(F, l, a, b, c)


def b_trivial():
    return mk(F3, 0, (F3.one,), (F3.one,), (F3.neg(F3.one),))


def b_mixed():
    # l=1: nonsplit fibers over t and infinity, split fiber over t+1
    return mk(F3, 1, (0, 1), (1, 0), (1, 1))


def b_double():
    # l=2: split over infinity, t+2 and t^2+1; nonsplit over t and t+1
    return mk(F3, 2, (1, 0, 1), (0, 1, 0), (1, 0, 2))


P_T = curve.point_from_poly(F3, (0, 1))
P_T1 = curve.point_from_poly(F3, (1, 1))
P_T2 = curve.point_from_poly(F3, (2, 1))
P_INF = curve.INFINITY


def class_at(dp, a, coeffs=None, sides=None):
    return NumClass.make(dp, a, coeffs, sides)


def test_section_space_dims_trivial_bundle():
    b = b_trivial()
    assert section_space(b, class_at(1, 2)).dim == 9
    assert section_space(b, class_at(0, 1)).dim == 2
    assert section_space(b, class_at(1, -5)).dim == 0
    for dp in (-1, Fraction(-1, 2)):
        with pytest.raises(EmptySpace):
            section_space(b, class_at(dp, 0))


def test_section_space_dims_split_conditions():
    b1 = b_mixed()
    D = class_at(1, 0, {P_T1: 1})
    S = section_space(b1, D)
    assert S.dim == 4
    assert S.dim == picard.euler_char(b1, curve.P1_CURVE, D)
    b2 = b_double()
    D2 = class_at(1, 0, {P_T2: 1})
    assert section_space(b2, D2).dim == 4
    assert section_space(b2, D2).dim == picard.euler_char(b2, curve.P1_CURVE, D2)


def test_section_space_dim_matches_euler_char_on_window():
    # odd d on the trivial bundle gives half-integer dprime
    b0 = b_trivial()
    for b, d in ((b0, 1), (b0, 2), (b0, 3), (b_mixed(), 2), (b_double(), 2)):
        for e in range(2, 5):
            for D in picard.classes_of_type(b, d, e):
                assert section_space(b, D).dim == picard.euler_char(b, curve.P1_CURVE, D)


def test_section_space_basis_shape():
    b = b_mixed()
    D = class_at(1, 0, {P_T1: 1})
    S = section_space(b, D)
    assert len(S.basis) == S.dim
    for s in S.basis:
        assert s.cls == S.cls
        for mono, form in s.ambient_coeffs.items():
            assert sum(mono) == 1
            assert form.degree == 1  # a + sum of coefficient degrees


def test_inconsistent_conditions_give_dim_zero():
    # two line conditions on constants only intersect in zero
    b2 = b_double()
    D = class_at(1, -2, {P_INF: 1, P_T2: 1})
    assert section_space(b2, D).dim == 0


def test_component_multiplicity_divisible_coefficients():
    # every coefficient form divisible by the point polynomial: full fiber once
    b1 = b_mixed()
    D = class_at(1, 1)
    pt1 = BinaryForm(1, (1, 1))
    s = Section(D, {(0, 0, 1): pt1})
    assert sections.component_multiplicity(b1, s, P_T1, "full") == 1
    assert sections.component_multiplicity(b1, s, P_T1, "E") == 1
    assert sections.component_multiplicity(b1, s, P_T1, "Ep") == 1


def test_component_multiplicity_line_times_transverse():
    # restriction (x+y)*z picks up the E line at t+1 exactly once
    b1 = b_mixed()
    D = class_at(2, 0)
    one = BinaryForm(0, (1,))
    s = Section(D, {(1, 0, 1): one, (0, 1, 1): one})
    assert sections.component_multiplicity(b1, s, P_T1, "E") == 1
    assert sections.component_multiplicity(b1, s, P_T1, "Ep") == 0
    assert sections.component_multiplicity(b1, s, P_T1, "full") == 0


def test_component_multiplicity_transverse_section():
    b1 = b_mixed()
    s = Section(class_at(1, 0), {(0, 0, 1): BinaryForm(0, (1,))})
    assert sections.component_multiplicity(b1, s, P_T1, "E") == 0
    assert sections.component_multiplicity(b1, s, P_T1, "Ep") == 0
    assert sections.component_multiplicity(b1, s, P_T1, "full") == 0


def test_component_multiplicity_mixed_orders():
    # (s+t)(x-y): the fiber contributes to both lines, x-y doubles the Ep side
    b1 = b_mixed()
    D = class_at(1, 0, {P_T1: 1})
    s = Section(D, {(1, 0, 0): BinaryForm(1, (1, 1)), (0, 1, 0): BinaryForm(1, (2, 2))})
    assert sections.component_multiplicity(b1, s, P_T1, "E") == 1
    assert sections.component_multiplicity(b1, s, P_T1, "Ep") == 2
    assert sections.component_multiplicity(b1, s, P_T1, "full") == 1
    # scaling never changes multiplicities
    s2 = Section(D, {k: BinaryForm(f.degree, tuple(F3.mul(c, 2) for c in f.coeffs))
                     for k, f in s.ambient_coeffs.items()})
    for side in ("E", "Ep", "full"):
        assert (sections.component_multiplicity(b1, s2, P_T1, side)
                == sections.component_multiplicity(b1, s, P_T1, side))


def test_component_multiplicity_rejects_zero_and_nonsplit_sides():
    b1 = b_mixed()
    with pytest.raises(ZeroSection):
        sections.component_multiplicity(b1, Section(class_at(1, 0), {}), P_T1, "E")
    with pytest.raises(NotASplitFiber):
        sections.component_multiplicity(
            b1, Section(class_at(1, 0), {(0, 0, 1): BinaryForm(0, (1,))}), P_T, "E")
    # a class with a coefficient over t, which does not split, is refused
    # whatever the sign of the coefficient and the degree A of its forms
    for D in (class_at(1, -5, {P_T: 1}), class_at(1, 0, {P_T: 1}), class_at(1, -5, {P_T: -1})):
        for read in (linsys._dim, linsys.fiberfree_count):
            with pytest.raises(NotASplitFiber, match="no split fiber at t"):
                read(b1, D)


def test_component_multiplicity_refuses_a_multiple_of_the_conic():
    # (t, s, s + t) on x^2, y^2, z^2 is the conic of b_mixed itself, so the
    # section is zero on X; the valuation loop never ended on it
    b1 = b_mixed()
    for scalar in (1, 2):
        conic = Section(class_at(2, 1), {
            m: BinaryForm(1, tuple(F3.mul(scalar, c) for c in form))
            for m, form in (((2, 0, 0), (0, 1)), ((0, 2, 0), (1, 0)), ((0, 0, 2), (1, 1)))})
        for side in ("E", "Ep", "full"):
            with pytest.raises(ZeroSection):
                sections.component_multiplicity(b1, conic, P_T1, side)


def test_component_multiplicity_rejects_sections_outside_the_layout():
    # l = 0 bases are bidegree (d - i, i) forms, l >= 1 bases forms in (x, y, z);
    # every coefficient form has the model's degree A, here 1
    b0, b1 = b_trivial(), b_mixed()
    D = class_at(1, 1)
    assert {len(m) for s in section_space(b0, D).basis for m in s.ambient_coeffs} == {2}
    pt = BinaryForm(1, (0, 1))
    outside = [(b0, {(0, 0, 1): pt}), (b0, {(1, 1): BinaryForm(2, (0, 0, 1))}),
               (b1, {(1, 0): pt}), (b1, {(0, 0, 1): BinaryForm(0, (1,))})]
    for b, coeffs in outside:
        with pytest.raises(ValueError):
            sections.component_multiplicity(b, Section(D, coeffs), P_T, "full")


def test_component_set_validation_and_height():
    b1 = b_mixed()
    S = component_set(b1, [(P_T1, "E"), (P_T, "full")])
    assert S.height == 3
    with pytest.raises(NotASplitFiber):
        component_set(b1, [(P_T, "E")])
    with pytest.raises(ValueError):
        component_set(b1, [(P_T1, "E"), (P_T1, "E")])
    # height equals the intersection of the summed class with H
    total = 0
    for P, side in S.elements:
        cls = (NumClass.make(0, P.degree) if side == "full"
               else picard.component_class(P, side))
        total += picard.intersect(b1, cls, CLASS_H)
    assert S.height == total


def test_proportion_empty_and_tall_sets():
    b1 = b_mixed()
    D = class_at(1, 1)
    dim = section_space(b1, D).dim
    assert sections.proportion_exact(b1, D, component_set(b1, [])) == 1
    # a set taller than the class height pins the kernel to the zero section
    deg2 = [P for P in curve.closed_points_up_to(F3, 2)
            if P.degree == 2 and b1.singular_fiber_at(P) is None]
    S = component_set(b1, [(deg2[0], "full")])
    assert S.height == 4 > picard.type_of(b1, D)[1]
    assert sections.proportion_exact(b1, D, S) == Fraction(1, 3 ** dim)


def test_proportion_exact_smooth_fiber_codimension():
    # one smooth degree-1 fiber on a tall class: codimension d+1
    b1 = b_mixed()
    D = class_at(1, 3)
    S = component_set(b1, [(P_T2, "full")])
    assert sections.proportion_exact(b1, D, S) == Fraction(1, 27)
    assert sections.proportion_product(b1, D, S) == Fraction(1, 27)


def test_proportions_refuse_a_component_over_a_nonsplit_point_alike():
    # t does not split on b_mixed: both proportions refuse through `_layout`
    b1 = b_mixed()
    S = component_set(b1, [(P_T2, "full")])
    for dp, side in itertools.product((1, 2), ("E", "Ep")):
        D = class_at(dp, 0, {P_T: 1}, {P_T: side})
        for proportion in (sections.proportion_exact, sections.proportion_product):
            with pytest.raises(NotASplitFiber, match="no split fiber at t"):
                proportion(b1, D, S)


def test_proportion_product_values():
    b1 = b_mixed()
    D = class_at(1, 1)
    assert sections.proportion_product(b1, D, component_set(b1, [(P_T2, "full")])) == Fraction(1, 27)
    assert sections.proportion_product(b1, D, component_set(b1, [(P_T, "full")])) == Fraction(1, 81)
    assert sections.proportion_product(b1, D, component_set(b1, [(P_T1, "E")])) == Fraction(1, 9)


def test_line_conditions_at_degree_two_split_point():
    # one line of the split fiber over t^2+1: conditions live at one place of
    # the degree-2 residue field, so two kappa-dims means four F3-dims
    b2 = b_double()
    P = curve.point_from_poly(F3, (1, 0, 1))
    lifted = Section(class_at(1, 1), {(0, 1, 0): BinaryForm(1, (1, 0)),
                                      (0, 0, 1): BinaryForm(1, (1, 1))})
    assert sections.component_multiplicity(b2, lifted, P, "E") == 1
    assert sections.component_multiplicity(b2, lifted, P, "Ep") == 0
    assert sections.component_multiplicity(b2, lifted, P, "full") == 0
    D = class_at(1, 1, {P_T2: 1})
    for side in ("E", "Ep"):
        S = component_set(b2, [(P, side)])
        assert sections.proportion_exact(b2, D, S) == Fraction(1, 81)
        assert sections.proportion_product(b2, D, S) == Fraction(1, 81)
    for a, side in ((0, "E"), (0, "Ep"), (1, "Ep")):
        D4 = class_at(2, a, {P: 1}, {P: side})
        assert section_space(b2, D4).dim == picard.euler_char(b2, curve.P1_CURVE, D4)


def component_universe(b, max_height):
    """Canonical sieve elements: split singles plus nonsplit/smooth full fibers."""
    F = b.field
    out = []
    for P in b.split_points:
        if P.degree <= max_height:
            out.append((P, "E"))
            out.append((P, "Ep"))
    for P in curve.closed_points_up_to(F, max_height // 2):
        f = b.singular_fiber_at(P)
        if f is None or f.fiber_class is FiberClass.NONSPLIT_PAIR:
            out.append((P, "full"))
    return out


def defect_exponent(b, S):
    """Degrees where the independence heuristic misses the nodal gluing."""
    total = 0
    seen = {}
    for P, side in S.elements:
        f = b.singular_fiber_at(P)
        if side == "full" and f is not None:
            total += P.degree
        if side in ("E", "Ep"):
            seen.setdefault(P, set()).add(side)
    for P, sides in seen.items():
        if sides == {"E", "Ep"}:
            total += P.degree
    return total


def true_rank(b, D, S):
    """Condition rank from first principles: glued fibers count (d+1)deg P."""
    d = picard.type_of(b, D)[0]
    rank = 0
    seen = {}
    for P, side in S.elements:
        if side == "full":
            rank += (d + 1) * P.degree
        else:
            seen.setdefault(P, set()).add(side)
    for P, sides in seen.items():
        if sides == {"E", "Ep"}:
            rank += (d + 1) * P.degree
        else:
            side = next(iter(sides))
            d_p = picard.intersect(b, D, picard.component_class(P, side)) // P.degree
            rank += (d_p + 1) * P.degree
    return rank


def test_sieve_proportions_have_maximal_rank():
    # kernel dimension is always max(dim - rank, 0), so P == P' exactly unless
    # the set glues a singular fiber (one power of q per glued degree, the
    # heuristic's defect) or the conditions overflow the space entirely
    b1 = b_mixed()
    q = 3
    n_emp = linsys.scan_dimension_threshold(b1, curve.P1_CURVE, 2)
    checked_equal = checked_defect = checked_overflow = 0
    for e in (3, 4):
        window = e - n_emp
        universe = component_universe(b1, window)
        shapes = [[]] + [[x] for x in universe]
        shapes += [[x, y] for i, x in enumerate(universe) for y in universe[i + 1:]]
        for D in picard.classes_of_type(b1, 2, e):
            dim = section_space(b1, D).dim
            for items in shapes:
                S = component_set(b1, items)
                if S.height > window:
                    continue
                exact = sections.proportion_exact(b1, D, S)
                product = sections.proportion_product(b1, D, S)
                defect = defect_exponent(b1, S)
                rank = true_rank(b1, D, S)
                assert product * q ** defect == Fraction(1, q ** rank)
                assert exact == Fraction(1, q ** (dim - max(dim - rank, 0)))
                if rank > dim:
                    checked_overflow += 1
                elif defect:
                    checked_defect += 1
                else:
                    checked_equal += 1
                    assert exact == product
    assert checked_equal > 20
    assert checked_defect > 10
    assert checked_overflow > 0


def test_full_at_split_point_matches_component_pair():
    b1 = b_mixed()
    D = class_at(1, 1)
    S_full = component_set(b1, [(P_T1, "full")])
    S_pair = component_set(b1, [(P_T1, "E"), (P_T1, "Ep")])
    assert S_full.height == S_pair.height == 2
    assert sections.proportion_exact(b1, D, S_full) == sections.proportion_exact(b1, D, S_pair)
    assert sections.proportion_product(b1, D, S_full) == sections.proportion_product(b1, D, S_pair)


def test_proportion_multiplicative_on_disjoint_sets():
    b1 = b_mixed()
    D = class_at(1, 2)
    window = picard.type_of(b1, D)[1] - linsys.scan_dimension_threshold(b1, curve.P1_CURVE, 2)
    pieces = [component_set(b1, [(P_T1, "E")]), component_set(b1, [(P_T2, "full")])]
    union = component_set(b1, [(P_T1, "E"), (P_T2, "full")])
    assert pieces[0].height + pieces[1].height <= window
    assert (sections.proportion_exact(b1, D, union)
            == sections.proportion_exact(b1, D, pieces[0]) * sections.proportion_exact(b1, D, pieces[1]))


def test_trivial_bundle_proportions_have_no_defect():
    b0 = b_trivial()
    D = class_at(1, 1)
    window = 2 - linsys.scan_dimension_threshold(b0, curve.P1_CURVE, 2)
    universe = component_universe(b0, window)
    for items in [[x] for x in universe] + [[x, y] for i, x in enumerate(universe)
                                            for y in universe[i + 1:]]:
        S = component_set(b0, items)
        if S.height > window:
            continue
        assert sections.proportion_exact(b0, D, S) == sections.proportion_product(b0, D, S)


def test_proportion_on_an_empty_ruled_class_is_one_at_every_point():
    # type (2, -2) on the trivial bundle has no sections, so no condition;
    # the ruled rows at infinity once indexed past the empty layout
    b0 = b_trivial()
    (D,) = picard.classes_of_type(b0, 2, -2)
    for P in (P_T, P_INF):
        assert sections.proportion_exact(b0, D, component_set(b0, [(P, "full")])) == 1


def _divisible_section(b, D, rng, P, k):
    """A section of the ruled model whose coefficient forms are random
    multiples of p_P^k, so its full-fiber valuation at P is at least k."""
    F = b.field
    dp, A, _ = linsys._layout(b, D)
    power = BinaryForm(0, (F.one,))
    for _ in range(k):
        power = bundle.bf_mul(F, power, bundle.point_form(F, P))
    rest = A - power.degree
    return Section(D, {m: bundle.bf_mul(F, power, BinaryForm(
        rest, tuple(rng.randrange(F.order) for _ in range(rest + 1))))
                       for m in linsys._monos(b, dp)})


def test_one_builder_matches_the_old_constructions():
    # `_ann_rows` against the references in `oracles`: byte-equal to the
    # ambient full-fiber rows on l >= 1, the same rref as the ruled
    # coefficient-divisibility rows on l = 0, and the ruled valuations of
    # polynomial division
    points = curve.closed_points_up_to(F3, 2)
    checked = 0
    for b in (b_mixed(), b_double()):
        for d, e in itertools.product((0, 2, 4), range(-2, 5)):
            for D in picard.classes_of_type(b, d, e):
                _, A, _ = linsys._layout(b, D)
                for P, level in itertools.product(points, (1, 2)):
                    assert (conditions._ann_rows(b, D.dprime, A, P, "full", level)
                            == oracles.full_ann_rows(b, D.dprime, A, P, level)), (D, P, level)
                    checked += 1
    b0 = b_trivial()
    rng = random.Random(5)
    for d, e in itertools.product(range(5), range(-4, 7, 2)):
        for D in picard.classes_of_type(b0, d, e):
            D = picard.normalize(b0, D)
            for P in points:
                want = conditions._rref(F3, oracles.param_full_rows(b0, D, P))[0]
                assert conditions._ann_rows(b0, D.dprime, D.a, P, "full", 1) == tuple(map(tuple, want))
                checked += 1
            _, A, _ = linsys._layout(b0, D)
            if section_space(b0, D).dim == 0:
                continue
            for P, k in itertools.product(points, range(3)):
                if k * P.degree > A:
                    continue
                s = _divisible_section(b0, D, rng, P, k)
                forms = [f for f in s.ambient_coeffs.values() if any(f.coeffs)]
                if forms:
                    want = min(oracles.binary_val(F3, f, P) for f in forms)
                    assert sections.component_multiplicity(b0, s, P, "full") == want, (D, P, k)
                    checked += 1
    assert checked >= 1000


def test_parameterized_model_multiplicities():
    # l=0 half classes only support full-fiber valuations
    b0 = b_trivial()
    D = NumClass.make(Fraction(1, 2), 1)
    sp = section_space(b0, D)
    assert sp.dim == 4
    s = sp.basis[0]
    with pytest.raises(NotASplitFiber):
        sections.component_multiplicity(b0, s, P_T, "E")
    pt = BinaryForm(1, (0, 1))
    sm = Section(D, {(1, 0): pt, (0, 1): pt})
    assert sections.component_multiplicity(b0, sm, P_T, "full") == 1
    assert sections.component_multiplicity(b0, sm, P_T1, "full") == 0


F5 = gf.make_field(5)
F9 = gf.make_field(3, 2)
F25 = gf.make_field(5, 2)
F27 = gf.make_field(3, 3)


def _over(F, l, *forms):
    return mk(F, l, *([F.from_int(c) for c in form] for form in forms))


def b_catalog_l1(F):
    # a = t, b = s, c = s + t
    return _over(F, 1, (0, 1), (1, 0), (1, 1))


def b_f25_l2():
    # the l = 2 bundle of the benchmark's F25 predict config
    return _over(F25, 2, (1, 0, 1), (0, 1, 0), (1, 0, 2))


def _outcome(read, *args):
    try:
        return read(*args)
    except (EmptySpace, OddDegreeUnsupported, NotASplitFiber) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("make, degrees", [
    (b_mixed, (2, 4)), (b_double, (2, 4)), (lambda: b_catalog_l1(F5), (2, 4)),
    (lambda: b_catalog_l1(F9), (2,)), (b_f25_l2, (2,)), (b_trivial, (1, 2, 3))],
    ids=["F3-l1-mixed", "F3-l2-double", "F5-l1", "F9-l1", "F25-l2", "F3-l0-trivial"])
def test_dim_from_ranks_matches_model_dim(make, degrees):
    b = make()
    classes = [NumClass.make(-1, 3), NumClass.make(Fraction(1, 2), 2)]
    for d in degrees:
        for e in range(-8, 15):
            for D in picard.classes_of_type(b, d, e):
                classes.append(D)
                # the sieve reads classes below D, some with no sections
                classes.append(picard.class_from_canonical(D.dprime - 1, D.a, {}))
                if b.l == 0:  # the bidegree (d, e/2) forms of the ruled layout
                    assert linsys._dim(b, D) == ((d + 1) * (e // 2 + 1) if e >= 0 else 0), D
    split = sorted(b.split_points, key=lambda P: curve.point_sort_key(b.field, P))
    if split:
        classes.append(NumClass.make(1, 0, {split[0]: -1}))  # stored unnormalized
    for D in classes:
        want = _outcome(lambda b, D: section_space(b, D).dim, b, D)
        assert _outcome(linsys._dim, b, D) == want, D


P_T2_1 = curve.point_from_poly(F3, (1, 0, 1))


@pytest.mark.parametrize("make, components", [
    (b_mixed, [(P_T1, "E"), (P_T1, "Ep"), (P_T, "E"), (P_INF, "full"), (P_T1, "full"),
               (P_T2_1, "full")]),
    (b_double, [(P_INF, "E"), (P_INF, "Ep"), (P_T2, "E"), (P_T2, "Ep"), (P_T2_1, "E"),
                (P_T2_1, "Ep"), (P_T, "full"), (P_T2, "full"), (P_T2_1, "full")]),
    (lambda: b_catalog_l1(F9), None), (b_f25_l2, None)],
    ids=["F3-l1-mixed", "F3-l2-double", "F9-l1", "F25-l2"])
def test_residue_rows_match_global_nullspace(make, components):
    # `_ann_rows` eliminates modulo pi in |monos| deg pi columns; the oracle
    # takes the nullspace of the conic multiples and every ideal generator
    # in all N columns.  Both rrefs span one row space, so they are equal,
    # and a line over a point that does not split is refused by both.  The
    # F9 and F25 windows take one split line at a finite point, one at
    # infinity and one full fiber; lines over t^2 + 1, whose oracle
    # eliminates over F9, stop at dprime 2
    b = make()
    if components is None:
        finite = next(P for P in b.split_points if not P.is_infinity)
        components = [(finite, "E"), (curve.INFINITY, "Ep"), (finite, "full")]
    checked = 0
    for dp, A, (P, side), level in itertools.product(
            range(5), range(-1, 7), components, (1, 2)):
        if side != "full" and P.degree > 1 and dp > 2:
            continue
        want = _outcome(oracles.global_ann_rows, b, dp, A, P, side, level)
        got = _outcome(conditions._ann_rows, b, dp, A, P, side, level)
        assert got == want, (dp, A, P, side, level)
        checked += 1
    assert checked >= 60


@pytest.mark.parametrize("make", [b_mixed, b_double, lambda: b_catalog_l1(F5),
                                  lambda: b_catalog_l1(F9), b_trivial],
                         ids=["F3-l1-mixed", "F3-l2-double", "F5-l1", "F9-l1", "F3-l0-trivial"])
def test_cols_are_the_columns_off_the_conic_multiples_rref_pivots(make):
    # `_cols` reads the pivots from the generators' leading columns; the
    # oracle echelonizes the conic multiples in all N columns
    b = make()
    checked = 0
    for dp, A in itertools.product(range(7), range(-2, 17)):
        if b.l == 0:
            dp = Fraction(dp, 2)
        N = len(linsys._monos(b, dp)) * (A + 1)
        pivots = set(conditions._rref(b.field, linsys._z_source_rows(b, dp, A))[1])
        assert linsys._cols(b, dp, A) == tuple(j for j in range(N) if j not in pivots), (dp, A)
        checked += bool(pivots)
    assert checked >= (30 if b.l else 0)


def test_cols_refuses_conic_multiples_with_one_leading_column(monkeypatch):
    row = (0, 1, 2, 0)
    monkeypatch.setattr(linsys, "_z_source_rows", lambda b, dp, A: (row, row))
    with pytest.raises(AssertionError, match="lead at one column"):
        linsys._cols.__wrapped__(b_mixed(), 2, 1)


def test_residue_rows_eliminate_in_residue_columns(monkeypatch):
    # the elimination runs in |monos| deg pi columns whatever A is: 30 for
    # dprime 4 (15 monomials) and deg pi 2, where the layout has 615 columns
    seen = []
    nullspace = conditions._nullspace

    def recording(F, rows, n):
        seen.append(n)
        return nullspace(F, rows, n)

    monkeypatch.setattr(conditions, "_nullspace", recording)
    conditions._ann_rows.cache_clear()
    b = b_mixed()
    for P, side, level in ((P_T1, "E", 2), (P_INF, "full", 2), (P_T2_1, "full", 1)):
        seen.clear()
        rows = conditions._ann_rows(b, 4, 40, P, side, level)
        assert rows and seen and all(0 < n <= 15 * 2 for n in seen), (P, side, seen)
        assert all(len(r) == 15 * 41 for r in rows)

@pytest.mark.parametrize("make, d, want", [(b_f25_l2, 2, 1), (b_mixed, 4, 1)],
                         ids=["F25-l2-d2", "F3-l1-mixed-d4"])
def test_threshold_scan_builds_no_model(monkeypatch, make, d, want):
    # dims and chi are read from canonical coordinates: no basis and no class
    def refuse(*args):
        raise AssertionError("the threshold scan built a basis or a class")

    for module, name in ((sections, "_basis"), (picard, "class_from_canonical"),
                         (picard, "euler_char")):
        monkeypatch.setattr(module, name, refuse)
    assert linsys.scan_dimension_threshold(make(), curve.P1_CURVE, d) == want


@pytest.mark.parametrize("make, degrees", [
    (b_mixed, (2, 4)), (b_double, (2, 4)), (lambda: b_catalog_l1(F5), (2, 4)),
    (lambda: b_catalog_l1(F9), (2, 4)), (b_f25_l2, (2, 4)), (lambda: b_catalog_l1(F27), (2, 4)),
    (b_trivial, (1, 2, 4))],
    ids=["F3-l1-mixed", "F3-l2-double", "F5-l1", "F9-l1", "F25-l2", "F27-l1", "F3-l0-trivial"])
def test_threshold_scan_matches_the_scan_over_classes(make, degrees):
    b = make()
    for d in degrees:
        want = oracles.scan_threshold_by_classes(b, curve.P1_CURVE, d)
        assert linsys.scan_dimension_threshold(b, curve.P1_CURVE, d) == want, d


SCANNED = [b_mixed, b_double, lambda: b_catalog_l1(F5), lambda: b_catalog_l1(F9), b_f25_l2,
           lambda: b_catalog_l1(F27), b_trivial]
SCANNED_IDS = ["F3-l1-mixed", "F3-l2-double", "F5-l1", "F9-l1", "F25-l2", "F27-l1",
               "F3-l0-trivial"]


@pytest.mark.parametrize("make", SCANNED, ids=SCANNED_IDS)
def test_dim_equal_to_chi_persists_as_a_rises(make):
    # ROADMAP item 18: h^1 = dim - chi never rises with a at fixed (dp, cs), so
    # dim = chi at a gives dim = chi at a + 1.  Proven for the model's dims on
    # l = 0 and at dp <= 1; at dp = 2 on l >= 1 it is only measured, since the
    # model lacks item 2's H^1 kernel at A <= l - 2.  `_a0` and the threshold
    # scan rest on it, so a change to the model that breaks it must fail here
    b = make()
    for d in (2, 4):
        dp = picard.half_degree(b, d)
        for cs in picard.twist_box(b, dp):
            h = picard.height(b, dp, 0, cs)
            start = -(linsys._chi(b, dp, 0, cs) // (d + 1))  # the least a with chi >= 0
            held = [linsys._echelon_dim(b, dp, a, cs) == linsys._chi(b, dp, a, cs)
                    for a in range(start, (16 - h) // 2 + 2)]  # heights up to 16, and a + 1
            assert held == sorted(held), (
                f"dim = chi at some a but not at a + 1 for dp = {dp}, cs = {cs} "
                f"(from a = {start}: {held}); the a0 table and the threshold scan assume it")


def test_threshold_scan_builds_an_echelon_per_twist_tuple(monkeypatch):
    # the scan reads the a0 table: per twist tuple one echelon at a0 and one
    # at each a from the least a with chi >= 0 below it.  On this fixture
    # every a0 is that least a, so it builds 81 dims; the downward sweep over
    # the window's classes built 568
    b = b_f25_l2()
    built = []
    echelon_dim = linsys._echelon_dim
    monkeypatch.setattr(linsys, "_echelon_dim", lambda *X: built.append(X) or echelon_dim(*X))
    linsys._a0.cache_clear()
    assert linsys.scan_dimension_threshold(b, curve.P1_CURVE, 2) == 1
    box = list(picard.twist_box(b, 1))
    below = sum(linsys._a0(b, 1, cs) + linsys._chi(b, 1, 0, cs) // 3 for cs in box)
    assert len(built) == len(box) + below == 81


@pytest.mark.parametrize("make, degrees", [
    (b_mixed, (0, 2)), (b_double, (0, 2)), (lambda: b_catalog_l1(F5), (0, 2)),
    (lambda: b_catalog_l1(F9), (0, 2)), (b_f25_l2, (0, 2)), (lambda: b_catalog_l1(F27), (0, 2)),
    (b_trivial, (0, 1, 2, 3, 4))],
    ids=["F3-l1-mixed", "F3-l2-double", "F5-l1", "F9-l1", "F25-l2", "F27-l1", "F3-l0-trivial"])
def test_dim_memo_reads_chi_where_the_echelon_gives_it(make, degrees):
    # `_dim_at` returns chi at a >= a0 on l = 0 and at dp <= 1.  On every
    # class up to e = 30, and on its shifts by E_P and E'_P that the sieve
    # reads (|c_P| up to dp + 1), it equals the echelon dim
    b = make()
    linsys._dim_at.cache_clear()
    by_chi = 0
    for d in degrees:
        for e in range(-(2 * d + 4), 31):
            for dp, a, cs in picard.canonical_of_type(b, d, e):
                shifted = [(a + da, cs[:i] + (cs[i] + dc,) + cs[i + 1:])
                           for i, P in enumerate(b.split_points)
                           for da, dc in ((0, -1), (-P.degree, 1))]
                for a2, cs2 in [(a, cs), *shifted]:
                    want = linsys._echelon_dim(b, dp, a2, cs2)
                    assert linsys._dim_at(b, dp, a2, cs2) == want, (dp, a2, cs2)
                    by_chi += a2 >= linsys._a0(b, dp, cs2)
    assert by_chi >= 60


def test_dim_memo_takes_the_echelon_outside_the_twist_box():
    # at |c_P| = dp + 2 the fiber restriction has a line of degree -2, so h^1
    # stays 1 at every a and no a0 exists: a step-up would never end
    b = b_mixed()
    assert linsys._a0(b, 1, (3,)) == math.inf
    assert [linsys._dim_at(b, 1, a, (3,)) - linsys._chi(b, 1, a, (3,)) for a in (4, 9)] == [1, 1]
    assert linsys._dim(b, class_at(1, 9, {P_T1: 3})) == linsys._echelon_dim(b, 1, 9, (3,))


def test_prime_count_keeps_its_values_with_chi_dims():
    # the values with every dim from the echelon, before `_dim_at` read chi
    # above a0; the largest dim at e = 20 is 30, above the default budget
    b = b_double()
    for e, want in ((12, 219738968), (20, 116778286722328)):
        assert linsys.prime_count(b, 2, e, budget=10 ** 20) == want, e


@pytest.mark.parametrize("make", [b_double, lambda: b_catalog_l1(F9), b_f25_l2],
                         ids=["F3-l2-double", "F9-l1", "F25-l2"])
def test_conditions_on_a_prefix_echelon_match_a_build_from_scratch(make):
    # `_conditions` appends the last block to the memoized echelon of the
    # others; the oracle appends every block to one new basis
    b = make()
    checked = 0
    for d, e in itertools.product((2, 4), range(-2, 9)):
        for D in picard.classes_of_type(b, d, e):
            if len(linsys._layout(b, D)[2]) >= 2:
                assert conditions._conditions(b, D) == oracles.conditions_from_scratch(b, D), D
                checked += 1
    assert checked >= 20


@pytest.mark.parametrize("make", [b_mixed, b_double, lambda: b_catalog_l1(F5), b_trivial],
                         ids=["F3-l1-mixed", "F3-l2-double", "F5-l1", "F3-l0-trivial"])
def test_ambient_basis_matches_full_kernel_oracle(make):
    # the kernel of the condition echelon on the columns off the conic
    # multiples' pivots, padded with zeros, spans the full ambient kernel
    # reduced modulo the conic multiples: the rref bases are equal.  On l = 0
    # the layout is ruled, with no conic multiples, so the basis is the identity
    b = make()
    oracle = oracles.ambient_basis if b.l else oracles.ruled_basis
    checked = 0
    for d in (0, 2, 4):
        for e in range(-4, 9):
            for D in picard.classes_of_type(b, d, e):
                D = picard.normalize(b, D)
                assert tuple(map(tuple, sections._basis(b, D))) == oracle(b, D), D
                checked += 1
    assert checked >= 20


def test_counting_path_builds_no_model(monkeypatch):
    # fiber-free and prime counts, the component pool and proportions read
    # ranks from `_conditions`; the memos are cleared so nothing is reused
    def refuse(b, D):
        raise AssertionError("the counting path built a basis")

    monkeypatch.setattr(sections, "_basis", refuse)
    for memo in (linsys._dim_at, linsys._fiberfree, linsys._weighted, linsys._prime):
        memo.cache_clear()
    b1 = b_mixed()
    assert linsys.prime_count(b1, 4, 2) == 225
    assert linsys.fiberfree_count(b1, NumClass.make(2, 0)) == 339
    S = component_set(b1, [(P_T2, "full")])
    assert sections.proportion_exact(b1, class_at(1, 3), S) == Fraction(1, 27)
    P = curve.point_from_poly(F3, (1, 0, 1))
    S = component_set(b_double(), [(P, "E")])
    assert sections.proportion_exact(b_double(), class_at(1, 1, {P_T2: 1}), S) == Fraction(1, 81)
