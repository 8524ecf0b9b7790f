"""Numerical divisor classes on a conic bundle and their intersection pairing.

A class is d'H + aF + sum_P coeff_P * (component at P), where each per-point
part remembers which of the two fiber components its coefficient multiplies
('E' is the lex-least line, 'Ep' the other).  Swapping the named component
rewrites the coordinates without moving the class, because E + E' = deg(P) F.
Pairing table per closed point P of degree m: H.H = l, H.F = 2, H.E = m,
F.F = F.E = 0, E.E = E'.E' = -m, E.E' = +m.

dprime is allowed to be a half-integer Fraction on bundles with l = 0, where
the hyperplane class has square zero and odd fiber degrees exist.  Canonical
coordinates (d, a, cs) carry d = 2 dprime as an int (`coords`, `from_coords`).
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
    """Stored coefficients lie in [0, `twist_cap`] for every split point."""
    return D.dprime >= 0 and all(0 <= c <= twist_cap(2 * D.dprime, P.degree) for P, _, c in D.parts)


def normalize(b, D):
    """Swap sides until every stored coefficient is nonnegative."""
    out = D
    for P, _, c in D.parts:
        if c < 0:
            out = swap_component(b, out, P)
    return out


# --- canonical coordinates (d, a, cs): d = 2 dprime, cs the E-side coefficients by `split_points` ---


def twist_cap(d, deg):
    """The twist box: |c_P| <= floor(dprime / deg P) at a split point of degree deg."""
    return d // (2 * deg)


def height(b, d, a, cs):
    """e = D.H = dprime l + 2a + sum of c_P deg P; d is odd only on l = 0."""
    return d * b.l // 2 + 2 * a + sum(c * P.degree for c, P in zip(cs, b.split_points))


def coords(b, D):
    """The canonical coordinates (d, a, cs) of a class."""
    _check_points(b, D)
    dp, a, bs = D.canonical()
    return int(2 * dp), a, tuple(dict(bs).get(P, 0) for P in b.split_points)


def from_coords(b, D):
    """The class of canonical coordinates D = (d, a, cs)."""
    d, a, cs = D
    return class_from_canonical(Fraction(d, 2), a, dict(zip(b.split_points, cs)))


@functools.lru_cache(maxsize=None)
def _key_terms(b):
    """(index into cs, point key) per split point, in the order of a class's parts."""
    order = sorted(enumerate(b.split_points), key=lambda iP: _part_key((iP[1], "E", 0)))
    return tuple((i, (P.degree, P.is_infinity, P.poly or ())) for i, P in order)


def coord_key(b, D):
    """The one sort key of classes, on coordinates D = (d, a, cs): d, a, then
    (point, c_P) over the nonzero twists in the order of the parts."""
    d, a, cs = D
    return d, a, tuple((pk, cs[i]) for i, pk in _key_terms(b) if cs[i])


def twist_box(b, d):
    """Every twist tuple cs of fiber degree d, each c_P in its box (`twist_cap`)."""
    return itertools.product(*(range(-twist_cap(d, P.degree), twist_cap(d, P.degree) + 1)
                               for P in b.split_points))


def canonical_of_type(b, d, e):
    """The classes of type (d, e) in canonical coordinates, every twist in its
    box (`twist_box`); unsorted, and no class is built.  On l >= 1 an odd d
    has none: dprime is an integer there."""
    if d % 2 and b.l:
        return
    for cs in twist_box(b, d):
        num = e - height(b, d, 0, cs)
        if num % 2 == 0:
            yield d, num // 2, cs


def classes_of_type(b, d, e):
    """All normalized classes of type (d, e), sorted: `canonical_of_type` as classes."""
    return [from_coords(b, D)
            for D in sorted(canonical_of_type(b, d, e), key=functools.partial(coord_key, b))]


def sub_classes(b, d, a, cs):
    """The ordered pairs (E, D - E) of nonzero classes summing to D = (d, a, cs),
    each side's twists in its box and its height in [0, e], vertical sides
    (d = 0) included.  They go by the lesser side E in `coord_key` order:
    (E, D - E), then (D - E, E) unless the two are equal."""
    e = height(b, d, a, cs)
    key = functools.partial(coord_key, b)
    lower = []
    for d1 in range(d // 2 + 1):
        d2 = d - d1
        if d1 % 2 and b.l:
            continue
        boxes = [range(max(-twist_cap(d1, P.degree), c - twist_cap(d2, P.degree)),
                       min(twist_cap(d1, P.degree), c + twist_cap(d2, P.degree)) + 1)
                 for c, P in zip(cs, b.split_points)]
        for cs1 in itertools.product(*boxes):
            cs2 = tuple(c - c1 for c, c1 in zip(cs, cs1))
            h1 = height(b, d1, 0, cs1)
            for a1 in range(-(h1 // 2), (e - h1) // 2 + 1):  # heights h1 + 2 a1 in [0, e]
                e1 = h1 + 2 * a1
                if (d1 == 0 and e1 == 0) or (d1 == d and e1 == e):
                    continue  # the zero class is not a genuine factor
                E, R = (d1, a1, cs1), (d2, a - a1, cs2)
                kE = key(E)
                if 2 * d1 < d or kE <= key(R):
                    lower.append((kE, E, R))
    lower.sort()  # by E: coord_key is one-to-one on classes
    for _, E, R in lower:
        yield E, R
        if E != R:
            yield R, E


def decompositions(b, D):
    """Unordered pairs of nonzero effective-candidate classes summing to D
    (verticals included): the pairs E <= D - E of `sub_classes`, as classes."""
    key = functools.partial(coord_key, b)
    return [(from_coords(b, E), from_coords(b, R))
            for E, R in sub_classes(b, *coords(b, D)) if key(E) <= key(R)]
