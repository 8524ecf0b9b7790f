"""Conic bundles a x^2 + b y^2 + c z^2 = 0 over P1 and their fiber geometry.

A binary form of degree l is stored as a tuple of l+1 coefficients with
coeffs[i] the coefficient of s^(l-i) t^i, so the dehomogenization f(1, t) is
just the coefficient tuple read as a polynomial in t.  The fiber over a closed
point P is classified by evaluating the three coefficients in kappa(P).
"""

import enum
from dataclasses import dataclass

from . import curve, gf
from .errors import NonReducedFiber, NotASplitFiber, SingularTotalSpace


@dataclass(frozen=True)
class BinaryForm:
    degree: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("coefficient count must be degree + 1")


def bf_is_zero(F, form):
    return all(c == F.zero for c in form.coeffs)


def bf_s_order(F, form):
    """Vanishing order at infinity: degree minus the t-degree of f(1, t)."""
    aff = gf.poly_trim(F, form.coeffs)
    if not aff:
        raise ValueError("zero form has no vanishing order")
    return form.degree - gf.deg(aff)


def bf_mul(F, f, g):
    out = [F.zero] * (f.degree + g.degree + 1)
    for i, x in enumerate(f.coeffs):
        if x == F.zero:
            continue
        for j, y in enumerate(g.coeffs):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return BinaryForm(f.degree + g.degree, tuple(out))


def bf_value_at(F, form, P):
    """Value of the form in kappa(P): reduce f(1,t) mod P, or take f(0,1) at infinity."""
    if P.is_infinity:
        return form.coeffs[form.degree]
    return curve.residue_of_poly(F, P, gf.poly_trim(F, form.coeffs))


def point_form(F, P):
    """The degree-deg(P) binary form cutting out P (s at infinity, homogenized P.poly else)."""
    if P.is_infinity:
        return BinaryForm(1, (F.one, F.zero))
    return BinaryForm(P.degree, tuple(P.poly))


class FiberClass(enum.Enum):
    SMOOTH = "Smooth"
    SPLIT_PAIR = "SplitPair"
    NONSPLIT_PAIR = "NonSplitPair"


@dataclass(frozen=True)
class SingularFiber:
    point: curve.ClosedPoint
    fiber_class: FiberClass
    lines: tuple | None  # two kappa(P) coefficient vectors in (x,y,z), split fibers only


@dataclass(frozen=True)
class ConicBundle:
    field: object
    l: int
    a: BinaryForm
    b: BinaryForm
    c: BinaryForm
    singular: tuple

    @property
    def split_points(self):
        return tuple(f.point for f in self.singular if f.fiber_class is FiberClass.SPLIT_PAIR)

    def singular_fiber_at(self, P):
        for f in self.singular:
            if f.point == P:
                return f
        return None

    @property
    def generic_fiber_trivial(self):
        return all(f.fiber_class is not FiberClass.NONSPLIT_PAIR for f in self.singular)


def validate_bundle(F, l, a, b, c):
    """Check degrees, squarefreeness and disjoint supports; return the bundle with its singular catalog."""
    forms = []
    for coeffs in (a, b, c):
        form = coeffs if isinstance(coeffs, BinaryForm) else BinaryForm(l, tuple(coeffs))
        if form.degree != l:
            raise ValueError(f"coefficient degree {form.degree} does not match l = {l}")
        if bf_is_zero(F, form):
            raise SingularTotalSpace("a zero coefficient form makes the total space singular")
        forms.append(form)
    a, b, c = forms
    affs = [gf.poly_trim(F, f.coeffs) for f in forms]
    sords = [bf_s_order(F, f) for f in forms]
    for i in range(3):
        for j in range(i + 1, 3):
            if gf.deg(gf.poly_gcd(F, affs[i], affs[j])) > 0 or (sords[i] > 0 and sords[j] > 0):
                raise NonReducedFiber("two coefficient forms share a zero, the fiber there is a double line")
    for aff, sord in zip(affs, sords):
        if sord > 1 or (gf.deg(aff) > 0 and not gf.poly_squarefree(F, aff)):
            raise SingularTotalSpace("a repeated zero of a coefficient form makes the total space singular")
    singular = _singular_catalog(F, a, b, c)
    return ConicBundle(F, l, a, b, c, singular)


def _singular_catalog(F, a, b, c):
    fibers = []
    for idx, form in enumerate((a, b, c)):
        aff = gf.poly_trim(F, form.coeffs)
        if bf_s_order(F, form) == 1:
            fibers.append(_classify_at(F, (a, b, c), idx, curve.INFINITY))
        if gf.deg(aff) > 0:
            _, fac = gf.factor_poly(F, aff)
            for g in fac:
                P = curve.ClosedPoint(g, gf.deg(g))
                fibers.append(_classify_at(F, (a, b, c), idx, P))
    fibers.sort(key=lambda f: curve.point_sort_key(F, f.point))
    return tuple(fibers)


def _classify_at(F, forms, vanishing_idx, P):
    # fiber over P with forms[vanishing_idx] = 0: a binary quadratic in the two surviving variables
    K = curve.residue_field(F, P)
    vals = [bf_value_at(F, f, P) for f in forms]
    # cyclic convention: a=0 tests -c/b, b=0 tests -a/c, c=0 tests -b/a
    i = vanishing_idx
    w1, w2 = (i + 1) % 3, (i + 2) % 3
    ratio = K.neg(K.div(vals[w2], vals[w1]))
    if not gf.is_square(K, ratio):
        return SingularFiber(P, FiberClass.NONSPLIT_PAIR, None)
    r = gf.sqrt(K, ratio)
    # forms[w1] u^2 + forms[w2] w^2 = forms[w1] (u - r w)(u + r w) in surviving coords (u, w)
    line1, line2 = [K.zero] * 3, [K.zero] * 3
    line1[w1], line1[w2] = K.one, K.neg(r)
    line2[w1], line2[w2] = K.one, r
    lines = sorted((_normalize_line(K, line1), _normalize_line(K, line2)),
                   key=lambda v: tuple(K.to_index(x) for x in v))
    return SingularFiber(P, FiberClass.SPLIT_PAIR, tuple(lines))


def _normalize_line(K, vec):
    lead = next(c for c in vec if c != K.zero)
    inv = K.inv(lead)
    return tuple(K.mul(inv, c) for c in vec)


def classify_fiber(bundle, P):
    """FiberClass of the fiber over P (Smooth when no coefficient vanishes)."""
    sf = bundle.singular_fiber_at(P)
    return sf.fiber_class if sf is not None else FiberClass.SMOOTH


def singular_locus(bundle):
    """The singular-fiber catalog, sorted by point; total degree is 3l."""
    return bundle.singular


def fiber_lines(bundle, P):
    """The pair (E line, E' line) over kappa(P) at a split point, lex-least first."""
    sf = bundle.singular_fiber_at(P)
    if sf is None or sf.fiber_class is not FiberClass.SPLIT_PAIR:
        raise NotASplitFiber(f"no split fiber at {curve.point_str(bundle.field, P)}")
    return sf.lines
