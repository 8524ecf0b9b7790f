"""Conic bundles a x^2 + b y^2 + c z^2 = 0 over P1 and their fiber geometry.

A binary form of degree l is stored as a tuple of l+1 coefficients with
coeffs[i] the coefficient of s^(l-i) t^i, so the dehomogenization f(1, t) is
just the coefficient tuple read as a polynomial in t.  The fiber over a closed
point P is classified by evaluating the three coefficients in kappa(P).  That
classification, and the factoring that finds the points where a form
vanishes, live in `locus`, which `validate_bundle` loads only on l >= 1.
"""

import enum
import functools

from . import curve, gf
from .errors import NonReducedFiber, NotASplitFiber, SingularTotalSpace
from .value import Value


class BinaryForm(Value):
    __slots__ = _fields = ("degree", "coeffs")

    def __init__(self, degree, coeffs):
        if len(coeffs) != degree + 1:
            raise ValueError("coefficient count must be degree + 1")
        self._init(degree, coeffs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.degree == other.degree and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.degree, self.coeffs))


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


class SingularFiber(Value):
    # lines: two kappa(P) coefficient vectors in (x,y,z), split fibers only, else None
    __slots__ = _fields = ("point", "fiber_class", "lines")

    def __init__(self, point, fiber_class, lines):
        self._init(point, fiber_class, lines)


class ConicBundle(Value):
    _fields = ("field", "l", "a", "b", "c", "singular")

    def __init__(self, field, l, a, b, c, singular):
        self._init(field, l, a, b, c, singular)
        # every lru_cache in the package is keyed on the bundle, so hash its
        # fields, the singular catalog included, once
        object.__setattr__(self, "_hash", hash((field, l, a, b, c, singular)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.field, self.l, self.a, self.b, self.c, self.singular)
                    == (other.field, other.l, other.a, other.b, other.c, other.singular))
        return NotImplemented

    def __hash__(self):
        return self._hash

    @functools.cached_property
    def split_points(self):
        """The split points in `curve.point_sort_key` order, the singular catalog's order."""
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
    if not l:
        # a form of degree l has l zeros on P1: on l = 0 none, so no fiber is
        # singular, and the singular locus's module is not loaded
        return ConicBundle(F, l, a, b, c, ())
    from . import locus

    # a nonzero constant has no zero, so only affine parts of degree >= 1 are factored
    facs = [locus.factor_poly(F, aff)[1] if gf.deg(aff) > 0 else {} for aff in affs]
    if any(sord > 1 or any(m > 1 for m in fac.values()) for sord, fac in zip(sords, facs)):
        raise SingularTotalSpace("a repeated zero of a coefficient form makes the total space singular")
    return ConicBundle(F, l, a, b, c, locus._singular_catalog(F, forms, sords, facs))


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
