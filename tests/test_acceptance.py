"""End-to-end acceptance checks: exact identities, counting oracles, trend."""

import itertools
import json
import random
import time
from fractions import Fraction

import oracles
from conic_census import census, cli, curve, gf, linsys, picard, sections
from conic_census import pool as subset_sum  # the tests name their pools `pool`
from conic_census.bundle import FiberClass, validate_bundle
from conic_census.census import sqrt_power, sqrtq
from conic_census.curve import P1_CURVE, CurveDescriptor
from conic_census.errors import NonReducedFiber, SingularTotalSpace
from conic_census.sections import component_set, section_space
from conic_census.picard import CLASS_F, CLASS_H, classes_of_type, component_class, intersect

F3 = gf.make_field(3)
F5 = gf.make_field(5)

# coefficient forms (a, b, c) per (q, l), all validated below
PAIRING_CATALOG = (
    (F3, 0, (1,), (1,), (2,)),
    (F3, 1, (0, 1), (1, 0), (1, 1)),
    (F3, 2, (1, 0, 1), (0, 1, 0), (1, 0, 2)),
    (F5, 0, (1,), (1,), (4,)),
    (F5, 1, (0, 1), (1, 0), (1, 1)),
    (F5, 2, (1, 0, 1), (0, 1, 0), (1, 0, 4)),
)

GENUS1 = CurveDescriptor(1, 3, (1, -1, 3))
GENUS2 = CurveDescriptor(2, 16, (1, 0, 6, 0, 9))


def b_trivial():
    return validate_bundle(F3, 0, (1,), (1,), (2,))


def b_mixed():
    return validate_bundle(F3, 1, (0, 1), (1, 0), (1, 1))


def b_double():
    return validate_bundle(F3, 2, (1, 0, 1), (0, 1, 0), (1, 0, 2))


THRESHOLDS = {0: -2, 1: -1, 2: 1}


def component_universe(b, max_height):
    """Fiber components of height <= max_height: split lines plus whole fibers."""
    out = []
    for P in b.split_points:
        if P.degree <= max_height:
            out.append((P, "E"))
            out.append((P, "Ep"))
    for P in curve.closed_points_up_to(b.field, max_height // 2):
        f = b.singular_fiber_at(P)
        if f is None or f.fiber_class is FiberClass.NONSPLIT_PAIR:
            out.append((P, "full"))
    return out


def glue_defect(b, S):
    """Degrees of the singular fibers that S contains in full."""
    total = 0
    seen = {}
    for P, side in S.elements:
        if side == "full" and b.singular_fiber_at(P) is not None:
            total += P.degree
        if side in ("E", "Ep"):
            seen.setdefault(P, set()).add(side)
    for P, sides in seen.items():
        if sides == {"E", "Ep"}:
            total += P.degree
    return total


def condition_rank(b, D, S):
    """Vanishing conditions counted fiber by fiber, nodal gluing included."""
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
            d_p = intersect(b, D, component_class(P, next(iter(sides)))) // P.degree
            rank += (d_p + 1) * P.degree
    return rank


def test_01_intersection_pairing_table():
    start = time.monotonic()
    for F, l, a, bc, c in PAIRING_CATALOG:
        b = validate_bundle(F, l, a, bc, c)
        assert intersect(b, CLASS_H, CLASS_F) == 2
        assert intersect(b, CLASS_H, CLASS_H) == l
        assert intersect(b, CLASS_F, CLASS_F) == 0
        assert intersect(b, picard.canonical_class(b, P1_CURVE), CLASS_F) == -2
        for P in b.split_points:
            E = component_class(P, "E")
            Ep = component_class(P, "Ep")
            assert intersect(b, CLASS_H, E) == P.degree
            assert intersect(b, CLASS_H, Ep) == P.degree
            assert intersect(b, E, E) == -P.degree
            assert intersect(b, Ep, Ep) == -P.degree
            assert intersect(b, E, Ep) == P.degree
            assert intersect(b, E, CLASS_F) == 0
    assert any(P.degree == 1
               for F, l, a, bc, c in PAIRING_CATALOG
               for P in validate_bundle(F, l, a, bc, c).split_points)
    assert time.monotonic() - start < 1.0


def test_02_canonical_class_pairings():
    for F, l, a, bc, c in PAIRING_CATALOG:
        b = validate_bundle(F, l, a, bc, c)
        K = picard.canonical_class(b, P1_CURVE)
        assert intersect(b, K, CLASS_F) == -2
        assert intersect(b, K, CLASS_H) == 4 * 0 - 4 + l


def test_03_dimension_equals_euler_characteristic():
    for b in (b_trivial(), b_mixed(), b_double()):
        nemp = linsys.scan_dimension_threshold(b, P1_CURVE, 2)
        assert nemp == THRESHOLDS[b.l]
        twisted_seen = False
        for e in range(nemp, nemp + 5):
            for D in classes_of_type(b, 2, e):
                chi = picard.euler_char(b, P1_CURVE, D)
                assert section_space(b, D).dim == chi, (b.l, e, D)
                twisted_seen = twisted_seen or any(cf >= 1 for _P, _s, cf in D.parts)
        assert twisted_seen or not b.split_points


def test_04_sieve_proportions_exact_in_window():
    checked = equal = 0
    violations = []
    for b in (b_trivial(), b_mixed(), b_double()):
        q = b.field.order
        e = linsys.scan_dimension_threshold(b, P1_CURVE, 2) + 4
        window = 4
        classes = classes_of_type(b, 2, e)
        universe = component_universe(b, window)
        sets = [[x] for x in universe]
        sets += [[x, y] for i, x in enumerate(universe) for y in universe[i + 1:]]
        for items in sets:
            S = component_set(b, items)
            if S.height > window:
                continue
            for D in classes:
                dim = section_space(b, D).dim
                rank = condition_rank(b, D, S)
                assert rank <= dim, "restriction to S is not surjective"
                exact = sections.proportion_exact(b, D, S)
                product = sections.proportion_product(b, D, S)
                defect = glue_defect(b, S)
                assert exact == Fraction(1, q ** rank)
                assert product * q ** defect == Fraction(1, q ** rank)
                checked += 1
                if exact == product:
                    equal += 1
                else:
                    violations.append((b.l, items, defect))
    assert equal > 100
    assert all(defect > 0 for _l, _items, defect in violations)
    assert not violations, (
        f"proportion_exact == proportion_product fails on {len(violations)} of {checked} "
        f"set/class pairs, and every failing set glues a complete singular fiber (a "
        f"non-split fiber taken whole, or both lines over a split point); there the "
        f"factorwise product double counts one matching condition per glued fiber node, "
        f"and exact == product * q^(glued degree) was verified in every failing case, "
        f"while all {equal} defect-free pairs agree exactly")


def test_05_direct_scan_matches_inclusion_exclusion():
    checked = 0
    for b in (b_trivial(), b_mixed(), b_double()):
        q = b.field.order
        nemp = linsys.scan_dimension_threshold(b, P1_CURVE, 2)
        for e in range(nemp, nemp + 9):
            for D in classes_of_type(b, 2, e):
                dim = section_space(b, D).dim
                if q ** dim > 3 ** 12:
                    continue
                universe = component_universe(b, e)
                heights = [P.degree if side != "full" else 2 * P.degree
                           for P, side in universe]
                total = 0

                def add_terms(start, items, height):
                    nonlocal total
                    S = component_set(b, items)
                    ker = q ** dim * sections.proportion_exact(b, D, S)
                    assert ker.denominator == 1
                    total += (-1) ** len(items) * (int(ker) - 1)
                    for j in range(start, len(universe)):
                        if height + heights[j] <= e:
                            add_terms(j + 1, items + [universe[j]], height + heights[j])

                add_terms(0, [], 0)
                assert total % (q - 1) == 0
                # the direct scan: every member of the class
                pool = subset_sum._component_pool(b, D)
                scan = oracles.scan_fiberfree(b.field, pool, dim)
                assert scan == linsys.fiberfree_count(b, D) == total // (q - 1), (b.l, e, D)
                checked += 1
    assert checked > 12


def test_06_prime_count_ratio_trend():
    b = b_trivial()
    one = sqrtq(3, 1)
    gaps = []
    final = None
    for e in (4, 6, 8):
        main, _err = census.predict(b, P1_CURVE, 2, e)
        ratio = sqrtq(3, linsys.prime_count(b, 2, e)) / main
        gaps.append(abs(ratio - one))
        final = ratio
    assert sqrtq(3, Fraction(6, 10)) <= final <= sqrtq(3, Fraction(14, 10))
    assert gaps[0] > gaps[1] > gaps[2]


def test_07_leading_constant_closed_form_for_trivial_bundles():
    b = b_trivial()
    for cv in (P1_CURVE, GENUS1, GENUS2):
        for d in (2, 4):
            rhs = (cv.jacobian * Fraction(3) ** ((d + 1) * (1 - cv.genus))
                   / ((3 - 1) * curve.zeta_value(cv, F3, d + 1)))
            assert census.leading_coeff(b, cv, d) == sqrtq(3, rhs)


def twist_sum_literal(q, d, nonsplit_degrees, split_degrees):
    """Second evaluator: term by term transcription of the closed twist sum."""
    dprime = d // 2
    base = Fraction(1)
    for m in nonsplit_degrees:
        base *= ((1 - Fraction(q) ** (-m * (d + 2)))
                 / (1 - Fraction(q) ** (-m * (d + 1))))
    total = sqrtq(q, 0)
    ranges = [range(-(dprime // m), dprime // m + 1) for m in split_degrees]
    for bbar in itertools.product(*ranges):
        term = base
        weight = 0
        for m, bp in zip(split_degrees, bbar):
            term *= ((1 - Fraction(q) ** (-m * (dprime - bp + 1)))
                     * (1 - Fraction(q) ** (-m * (dprime + bp + 1)))
                     / (1 - Fraction(q) ** (-m * (d + 1))))
            weight += bp * bp * m
        total = total + sqrt_power(q, -weight) * term
    return total


def test_08_split_point_constant_two_evaluators():
    want = sqrtq(3, Fraction(32, 39), Fraction(4, 9))
    assert census.k_const_catalog(3, 2, (), (1,)) == want
    assert twist_sum_literal(3, 2, (), (1,)) == want


def test_09_singular_locus_degree_is_three_l():
    rng = random.Random(20260816)
    accepted = 0
    attempts = 0
    while accepted < 100:
        attempts += 1
        assert attempts < 10000
        F = F3 if rng.randrange(2) == 0 else F5
        q = F.order
        l = rng.randrange(4)
        coeffs = [tuple(rng.randrange(q) for _ in range(l + 1)) for _ in range(3)]
        try:
            b = validate_bundle(F, l, *coeffs)
        except (SingularTotalSpace, NonReducedFiber):
            continue
        assert sum(f.point.degree for f in b.singular) == 3 * l
        accepted += 1


def test_10_zeta_truncation_gap():
    assert curve.zeta_value(P1_CURVE, F3, 3) == Fraction(243, 208)
    bound = Fraction(1, 10 ** 10)
    gaps = {}
    for s in (2, 3, 5):
        gaps[s] = abs(curve.zeta_value(P1_CURVE, F3, s) - oracles.zeta_truncated_exact(F3, s, 12))
    assert gaps[3] < bound
    assert gaps[5] < bound
    assert gaps[2] < bound, (
        f"truncating the Euler product at degree 12 leaves an exact gap of "
        f"{census.decimal_of_fraction(gaps[2], 20)} at s = 2: the omitted factors over "
        f"points of degree m >= 13 contribute on the order of 3^-m/m each to the "
        f"relative error, about 1.2e-7 in total, so no depth-12 truncation can agree "
        f"to 1e-10 at s = 2; depth 19 or more would be needed, while s = 3 and s = 5 "
        f"pass well inside the bound")


def test_11_compare_reports_identical_across_jobs(tmp_path, capsys):
    doc = {"field": {"p": 3}, "bundle": {"l": 0, "a": [1], "b": [1], "c": [2]},
           "task": "compare", "params": {"d": 2, "e_list": [2, 4]}}
    path = tmp_path / "compare.json"
    path.write_text(json.dumps(doc))
    outputs = []
    for jobs in ("1", "3"):
        assert cli.main(["--config", str(path), "--jobs", jobs]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
