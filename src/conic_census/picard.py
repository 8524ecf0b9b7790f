"""Numerical divisor classes on a conic bundle and their intersection pairing.

A class is d'H + aF + sum_P coeff_P * (component at P), where each per-point
part remembers which of the two fiber components its coefficient multiplies
('E' is the lex-least line, 'Ep' the other).  Swapping the named component
rewrites the coordinates without moving the class, because E + E' = deg(P) F.
Pairing table per closed point P of degree m: H.H = l, H.F = 2, H.E = m,
F.F = F.E = 0, E.E = E'.E' = -m, E.E' = +m.

dprime is allowed to be a half-integer Fraction on bundles with l = 0, where
the hyperplane class has square zero and odd fiber degrees exist.
"""

import functools
import itertools
from fractions import Fraction

from . import curve
from .bundle import FiberClass
from .errors import BundleMismatch, NotASplitFiber, ParityViolation
from .value import Value


class NumClass(Value):
    _fields = ("dprime", "a", "parts")

    def __init__(self, dprime, a, parts=()):
        # dprime: int or half-integer Fraction; parts: sorted (ClosedPoint, 'E'|'Ep', coeff)
        self._init(dprime, a, parts)

    @staticmethod
    def make(dprime, a, b=None, sides=None):
        """Build a class from a point->coeff map, defaulting every side to 'E'."""
        b = b or {}
        sides = sides or {}
        parts = tuple(sorted(((P, sides.get(P, "E"), c) for P, c in b.items() if c != 0),
                             key=_part_key))
        if isinstance(dprime, Fraction) and dprime.denominator == 1:
            dprime = int(dprime)
        return NumClass(dprime, a, parts)

    def coeff_at(self, P):
        for Q, side, c in self.parts:
            if Q == P:
                return side, c
        return "E", 0

    def canonical(self):
        """(dprime, a, ((P, coeff), ...)) with every coefficient rewritten onto the E side."""
        return self._canonical

    @functools.cached_property
    def _canonical(self):
        # built once per instance: every lru_cache keyed on a class hashes it
        a = self.a
        bs = []
        for P, side, c in self.parts:
            if side == "E":
                bs.append((P, c))
            else:
                a += c * P.degree
                bs.append((P, -c))
        return (self.dprime, a, tuple((P, c) for P, c in bs if c != 0))

    def __eq__(self, other):
        return isinstance(other, NumClass) and self._canonical == other._canonical

    def __hash__(self):
        return hash(self._canonical)


def _part_key(part):
    P, side, _ = part
    return ((P.degree, 0, ()) if P.is_infinity else (P.degree, 1, P.poly), side)


CLASS_H = NumClass.make(1, 0)
CLASS_F = NumClass.make(0, 1)


def component_class(P, side="E"):
    """The class of one fiber component over P ('E' or 'Ep')."""
    return NumClass.make(0, 0, {P: 1}, {P: side})


def class_from_canonical(dp, a_canon, cmap):
    """Build the stored form of a class given signed E-side coefficients."""
    b, sides, a = {}, {}, a_canon
    for P, c in cmap.items():
        if c == 0:
            continue
        if c > 0:
            b[P], sides[P] = c, "E"
        else:
            b[P], sides[P] = -c, "Ep"
            a += c * P.degree
    return NumClass.make(dp, a, b, sides)


def _check_points(b, D):
    for P, _, _ in D.parts:
        if P not in b.split_points:
            raise BundleMismatch(f"class names a component over {curve.point_str(b.field, P)}, "
                                 "which is not a split point of this bundle")


def intersect(b, D1, D2):
    """Intersection number of two classes on the bundle."""
    _check_points(b, D1)
    _check_points(b, D2)
    d1, a1, b1 = D1.canonical()
    d2, a2, b2 = D2.canonical()
    out = d1 * d2 * b.l + 2 * (d1 * a2 + d2 * a1)
    m1, m2 = dict(b1), dict(b2)
    for P in set(m1) | set(m2):
        c1, c2 = m1.get(P, 0), m2.get(P, 0)
        out += (d1 * c2 + d2 * c1 - c1 * c2) * P.degree
    if isinstance(out, Fraction) and out.denominator == 1:
        out = int(out)
    return out


def canonical_class(b, cv):
    """K = -H + (2g - 2 + l)F; dprime = -1 is permitted for this class only."""
    return NumClass.make(-1, 2 * cv.genus - 2 + b.l)


def type_of(b, D):
    """(d, e) = (D.F, D.H)."""
    return intersect(b, D, CLASS_F), intersect(b, D, CLASS_H)


def euler_char_formula(d, e, g, l, b_sq_weighted):
    """chi from the numerical data; raises ParityViolation if the value is not an integer."""
    twice = (d + 1) * (e + 2 - 2 * g) - l * ((d // 2 + 1) ** 2 - 1) - b_sq_weighted
    if twice % 2 != 0:
        raise ParityViolation(f"chi = {twice}/2 is not an integer")
    return twice // 2


def euler_char(b, cv, D):
    """Euler characteristic of O(D); integral for every genuine class."""
    _check_points(b, D)
    d, e = type_of(b, D)
    _, _, bs = D.canonical()
    bsq = sum(c * c * P.degree for P, c in bs)
    return euler_char_formula(d, e, cv.genus, b.l, bsq)


def swap_component(b, D, P):
    """Rename the component at P: coeff b_P -> -b_P on the other side, a -> a + b_P deg P."""
    sf = b.singular_fiber_at(P)
    if sf is None or sf.fiber_class is not FiberClass.SPLIT_PAIR:
        raise NotASplitFiber(f"no split fiber at {curve.point_str(b.field, P)}")
    _check_points(b, D)
    new_parts = []
    a = D.a
    found = False
    for Q, side, c in D.parts:
        if Q == P:
            found = True
            a += c * P.degree
            new_parts.append((Q, "Ep" if side == "E" else "E", -c))
        else:
            new_parts.append((Q, side, c))
    if not found:
        return NumClass(D.dprime, D.a, D.parts)
    parts = tuple(p for p in sorted(new_parts, key=_part_key) if p[2] != 0)
    return NumClass(D.dprime, a, parts)


def is_normalized(b, D):
    """Stored coefficients lie in [0, floor(dprime / deg P)] for every split point."""
    if D.dprime < 0:
        return False
    for P, _, c in D.parts:
        if c < 0 or c * P.degree > D.dprime:
            return False
    return True


def normalize(b, D):
    """Swap sides until every stored coefficient is nonnegative."""
    out = D
    for P, _, c in D.parts:
        if c < 0:
            out = swap_component(b, out, P)
    return out


def canonical_of_type(b, d, e):
    """The classes of type (d, e) in canonical coordinates (dp, a, cs), cs the
    signed E-side coefficients in `b.split_points` order, each ranging over
    [-floor(dp/degP), floor(dp/degP)]; unsorted, and no class is built."""
    if d % 2 == 0:
        dp = d // 2
    elif b.l == 0:
        dp = Fraction(d, 2)
    else:
        return
    split = b.split_points
    ranges = [range(-int(dp // P.degree), int(dp // P.degree) + 1) for P in split]
    for cs in itertools.product(*ranges):
        # e = dp*l + 2a + sum c_P deg P in canonical coordinates
        num = e - dp * b.l - sum(c * P.degree for c, P in zip(cs, split))
        if isinstance(num, Fraction):
            if num.denominator != 1:
                continue
            num = int(num)
        if num % 2 == 0:
            yield dp, num // 2, cs


def classes_of_type(b, d, e):
    """All normalized classes of type (d, e), sorted: `canonical_of_type` as classes."""
    split = b.split_points
    return sorted((class_from_canonical(dp, a, dict(zip(split, cs)))
                   for dp, a, cs in canonical_of_type(b, d, e)), key=_class_sort_key)


def _class_sort_key(D):
    dp, a, bs = D.canonical()
    return (Fraction(dp), a, tuple((P.degree, P.is_infinity, P.poly or (), c) for P, c in bs))


def decompositions(b, D):
    """Unordered pairs of nonzero effective-candidate classes summing to D (verticals included)."""
    d, e = type_of(b, D)
    split = b.split_points
    _, _, bs = D.canonical()
    bmap = dict(bs)
    target_b = [bmap.get(P, 0) for P in split]
    halves = b.l == 0
    seen = set()
    out = []
    d_steps = [Fraction(k, 2) for k in range(0, d + 1)] if halves else list(range(0, d // 2 + 1))
    for dp1 in d_steps:
        dp2 = (Fraction(d, 2) if halves else d // 2) - dp1
        if dp2 < dp1:
            continue
        b_ranges = []
        for P, tb in zip(split, target_b):
            lo = max(-int(dp1 // P.degree), tb - int(dp2 // P.degree))
            hi = min(int(dp1 // P.degree), tb + int(dp2 // P.degree))
            b_ranges.append(range(lo, hi + 1))
        for combo in itertools.product(*b_ranges):
            b1 = dict(zip(split, combo))
            b2 = {P: tb - c for P, tb, c in zip(split, target_b, combo)}
            w1 = sum(c * P.degree for P, c in b1.items())
            w2 = sum(c * P.degree for P, c in b2.items())
            for e1 in range(0, e + 1):
                e2 = e - e1
                n1 = e1 - dp1 * b.l - w1
                n2 = e2 - dp2 * b.l - w2
                if isinstance(n1, Fraction):
                    if n1.denominator != 1 or n2.denominator != 1:
                        continue
                    n1, n2 = int(n1), int(n2)
                if n1 % 2 or n2 % 2:
                    continue
                if (dp1 == 0 and e1 == 0) or (dp2 == 0 and e2 == 0):
                    continue  # the zero class is not a genuine factor
                D1 = class_from_canonical(dp1, n1 // 2, b1)
                D2 = class_from_canonical(dp2, n2 // 2, b2)
                key = tuple(sorted((_class_sort_key(D1), _class_sort_key(D2))))
                if key in seen:
                    continue
                seen.add(key)
                pair = sorted((D1, D2), key=_class_sort_key)
                out.append((pair[0], pair[1]))
    out.sort(key=lambda pr: (_class_sort_key(pr[0]), _class_sort_key(pr[1])))
    return out
